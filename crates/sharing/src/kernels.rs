//! The runtime kernel dispatch table.
//!
//! A [`KernelDispatch`] is a plain struct of function pointers to the
//! width-specialized primitives in [`aq2pnn_ring::simd`], resolved
//! **once** from the CPU features the process actually has
//! ([`IsaLevel::active`]) instead of whatever `-C target-cpu` the binary
//! was compiled with. The hot paths take the table by reference:
//!
//! * [`crate::beaver::ring_matmul_with`] — the mask-deferred GEMM inner
//!   loops (`axpy` / `axpy2` at u16/u32/u64 accumulator widths),
//! * the wire packers in `aq2pnn-transport` and the A2BM code-table
//!   fill in `aq2pnn` resolve their kernels from the same
//!   [`IsaLevel`] via the `aq2pnn_ring::simd` selectors directly.
//!
//! Dispatch changes *when* answers arrive, never *what* they are: every
//! pointer in the table is property-tested bit-identical to the scalar
//! reference, so protocol transcripts are byte-identical across ISAs.
//!
//! # Accelerator seam
//!
//! The fields are public and the struct is `Copy`: a GPU/FPGA backend
//! registers by building its own table (its pointers may stage work on a
//! device, as long as they keep the bit-identity contract) and handing
//! it to the `*_with` entry points — no trait object, no feature flag,
//! and the CPU paths keep working untouched. See DESIGN.md §7.4.

use aq2pnn_ring::simd::{
    self, Axpy2U16Fn, Axpy2U32Fn, Axpy2U64Fn, AxpyU16Fn, AxpyU32Fn, AxpyU64Fn,
};
use aq2pnn_ring::IsaLevel;
use std::sync::OnceLock;

/// Function-pointer table of the GEMM inner-loop kernels, selected per
/// ISA level (or custom-built by an accelerator backend).
#[derive(Clone, Copy, Debug)]
pub struct KernelDispatch {
    /// Human-readable backend label (`scalar`/`avx2`/`avx512`/`neon`, or
    /// whatever a custom backend chooses) — used by benches and reports.
    pub label: &'static str,
    /// The ISA level the table was built for; custom backends keep the
    /// level their CPU fallbacks assume.
    pub isa: IsaLevel,
    /// `row[j] += v·b[j]` mod `2^16` — GEMM inner loop for ℓ ≤ 16.
    pub axpy_u16: AxpyU16Fn,
    /// 2-step-unrolled u16 inner loop (`row[j] += v0·b0[j] + v1·b1[j]`).
    pub axpy2_u16: Axpy2U16Fn,
    /// `row[j] += v·b[j]` mod `2^32` — GEMM inner loop for 16 < ℓ ≤ 32.
    pub axpy_u32: AxpyU32Fn,
    /// 2-step-unrolled u32 inner loop.
    pub axpy2_u32: Axpy2U32Fn,
    /// `row[j] += v·b[j]` mod `2^64` — GEMM inner loop for ℓ > 32.
    pub axpy_u64: AxpyU64Fn,
    /// 2-step-unrolled u64 inner loop.
    pub axpy2_u64: Axpy2U64Fn,
}

impl KernelDispatch {
    /// Builds the table for one ISA level from the `aq2pnn_ring::simd`
    /// selectors. Safe for any level: unsupported levels degrade to the
    /// scalar reference inside the ring crate's checked wrappers.
    ///
    /// This constructor is where measurements become policy: the AVX-512
    /// u16 entries stay on the scalar kernel because at conv-shaped row
    /// lengths (n = 64, 128-byte L1-resident rows) the 512-bit
    /// `mullo_epi16` loop measures 25–35% *slower* than the
    /// compiler-autovectorized scalar loop (BENCH_kernels.json,
    /// `matmul/l12` / `l16` rows) — the wide stores don't pay below one
    /// cache line per vector. Wider-accumulator entries (u32/u64), where
    /// scalar autovectorization has no cheap lane multiply, use the
    /// hand-written kernels at every level.
    #[must_use]
    pub fn for_isa(isa: IsaLevel) -> Self {
        let u16_isa = if isa == IsaLevel::Avx512 { IsaLevel::Scalar } else { isa };
        KernelDispatch {
            label: isa.name(),
            isa,
            axpy_u16: simd::axpy_u16_for(u16_isa),
            axpy2_u16: simd::axpy2_u16_for(u16_isa),
            axpy_u32: simd::axpy_u32_for(isa),
            axpy2_u32: simd::axpy2_u32_for(isa),
            axpy_u64: simd::axpy_u64_for(isa),
            axpy2_u64: simd::axpy2_u64_for(isa),
        }
    }

    /// The always-available scalar reference table.
    #[must_use]
    pub fn scalar() -> Self {
        KernelDispatch::for_isa(IsaLevel::Scalar)
    }

    /// The process-wide table: [`KernelDispatch::for_isa`] at
    /// [`IsaLevel::active`] (runtime CPU detection, `AQ2PNN_ISA` override
    /// respected), resolved once. The policy is static, so the same binary
    /// on the same host dispatches the same kernels on every run.
    #[must_use]
    pub fn active() -> &'static KernelDispatch {
        static ACTIVE: OnceLock<KernelDispatch> = OnceLock::new();
        ACTIVE.get_or_init(|| KernelDispatch::for_isa(IsaLevel::active()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_table_matches_active_isa() {
        let d = KernelDispatch::active();
        assert_eq!(d.isa, IsaLevel::active());
        assert_eq!(d.label, IsaLevel::active().name());
    }

    #[test]
    fn every_available_isa_builds_a_working_table() {
        for isa in IsaLevel::available() {
            let d = KernelDispatch::for_isa(isa);
            let mut row = [1u32, 2, 3];
            (d.axpy_u32)(&mut row, 2, &[10, 20, 30]);
            assert_eq!(row, [21, 42, 63]);
            let mut row64 = [u64::MAX, 0];
            (d.axpy_u64)(&mut row64, 1, &[1, 5]);
            assert_eq!(row64, [0, 5]);
            let mut row16 = [0u16; 2];
            (d.axpy2_u16)(&mut row16, 3, &[1, 2], 5, &[10, 100]);
            assert_eq!(row16, [53, 506]);
        }
    }

    /// The accelerator seam: a custom table with swapped-in pointers is
    /// accepted anywhere a dispatch is.
    #[test]
    fn custom_tables_compose() {
        fn noisy_axpy(row: &mut [u32], v: u32, b: &[u32]) {
            aq2pnn_ring::simd::scalar::axpy_u32(row, v, b);
        }
        let d =
            KernelDispatch { label: "custom", axpy_u32: noisy_axpy, ..KernelDispatch::scalar() };
        let mut row = [0u32; 2];
        (d.axpy_u32)(&mut row, 7, &[1, 2]);
        assert_eq!(row, [7, 14]);
        assert_eq!(d.label, "custom");
    }
}
