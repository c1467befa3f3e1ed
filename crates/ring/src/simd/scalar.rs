//! Portable scalar GEMM kernels — the reference semantics the x86 SIMD
//! kernels are property-tested bit-identical against.
//!
//! Everything here is safe Rust with wrapping arithmetic. The `axpy*`
//! primitives accumulate mod the accumulator word size; the callers (the
//! mask-deferred matmul in `aq2pnn-sharing`) rely on `2^ℓ` dividing the
//! word modulus, so reassociation and lane order never change the masked
//! result. The u16 kernels have no hand-written twin: their
//! autovectorized loops measure at least as fast as AVX2/AVX-512 u16 code
//! (EXPERIMENTS.md, "Kernel tiers pruned").

/// `row[j] += v · b[j]` (wrapping mod `2^16`).
///
/// # Panics
///
/// Panics if `row` and `b` differ in length.
pub fn axpy_u16(row: &mut [u16], v: u16, b: &[u16]) {
    assert_eq!(row.len(), b.len(), "axpy operand length mismatch");
    for (o, &bv) in row.iter_mut().zip(b) {
        *o = o.wrapping_add(v.wrapping_mul(bv));
    }
}

/// `row[j] += v0 · b0[j] + v1 · b1[j]` (wrapping mod `2^16`).
///
/// # Panics
///
/// Panics if the operand lengths differ.
pub fn axpy2_u16(row: &mut [u16], v0: u16, b0: &[u16], v1: u16, b1: &[u16]) {
    assert_eq!(row.len(), b0.len(), "axpy2 operand length mismatch");
    assert_eq!(row.len(), b1.len(), "axpy2 operand length mismatch");
    for j in 0..row.len() {
        row[j] = row[j].wrapping_add(v0.wrapping_mul(b0[j])).wrapping_add(v1.wrapping_mul(b1[j]));
    }
}

/// `row[j] += v · b[j]` (wrapping mod `2^32`).
///
/// # Panics
///
/// Panics if `row` and `b` differ in length.
pub fn axpy_u32(row: &mut [u32], v: u32, b: &[u32]) {
    assert_eq!(row.len(), b.len(), "axpy operand length mismatch");
    for (o, &bv) in row.iter_mut().zip(b) {
        *o = o.wrapping_add(v.wrapping_mul(bv));
    }
}

/// `row[j] += v0 · b0[j] + v1 · b1[j]` (wrapping mod `2^32`).
///
/// # Panics
///
/// Panics if the operand lengths differ.
pub fn axpy2_u32(row: &mut [u32], v0: u32, b0: &[u32], v1: u32, b1: &[u32]) {
    assert_eq!(row.len(), b0.len(), "axpy2 operand length mismatch");
    assert_eq!(row.len(), b1.len(), "axpy2 operand length mismatch");
    for j in 0..row.len() {
        row[j] = row[j].wrapping_add(v0.wrapping_mul(b0[j])).wrapping_add(v1.wrapping_mul(b1[j]));
    }
}

/// `row[j] += v · b[j]` (wrapping mod `2^64`).
///
/// # Panics
///
/// Panics if `row` and `b` differ in length.
pub fn axpy_u64(row: &mut [u64], v: u64, b: &[u64]) {
    assert_eq!(row.len(), b.len(), "axpy operand length mismatch");
    for (o, &bv) in row.iter_mut().zip(b) {
        *o = o.wrapping_add(v.wrapping_mul(bv));
    }
}

/// `row[j] += v0 · b0[j] + v1 · b1[j]` (wrapping mod `2^64`).
///
/// # Panics
///
/// Panics if the operand lengths differ.
pub fn axpy2_u64(row: &mut [u64], v0: u64, b0: &[u64], v1: u64, b1: &[u64]) {
    assert_eq!(row.len(), b0.len(), "axpy2 operand length mismatch");
    assert_eq!(row.len(), b1.len(), "axpy2 operand length mismatch");
    for j in 0..row.len() {
        row[j] = row[j].wrapping_add(v0.wrapping_mul(b0[j])).wrapping_add(v1.wrapping_mul(b1[j]));
    }
}
