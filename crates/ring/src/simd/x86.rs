//! x86-64 AVX2 and AVX-512 GEMM kernels: `axpy`/`axpy2` over u32 and u64
//! accumulators, the only hand-written SIMD that beats the autovectorized
//! scalar loop (EXPERIMENTS.md, "Kernel tiers pruned").
//!
//! The workspace's only kernel `unsafe` lives in this file. The safety
//! argument has two independent layers:
//!
//! 1. **Feature soundness** — every `#[target_feature]` kernel is private
//!    to this module and reachable only through a safe `checked` wrapper
//!    that re-verifies the CPU features via [`IsaLevel::supported`]
//!    (a cached `cpuid` read) and falls back to the scalar reference
//!    otherwise. A hand-constructed or mismatched [`IsaLevel`] therefore
//!    cannot execute an unsupported instruction.
//! 2. **Memory soundness** — each kernel asserts the slice-length
//!    contract up front, then walks raw pointers only in `lanes`-sized
//!    steps bounded by those lengths; tails fall through to scalar code
//!    on the same pointers.
//!
//! Secrecy discipline: kernels are branch-free and index-free in the
//! *data* — control flow depends only on public lengths. Lane
//! reassociation is invisible mod `2^ℓ` because all arithmetic is
//! wrapping and `2^ℓ` divides the accumulator modulus.

#![allow(unsafe_code)]

use super::scalar;
use crate::isa::IsaLevel;
use core::arch::x86_64::{
    __m256i, _mm256_add_epi32, _mm256_add_epi64, _mm256_loadu_si256, _mm256_mul_epu32,
    _mm256_mullo_epi32, _mm256_set1_epi32, _mm256_set1_epi64x, _mm256_slli_epi64,
    _mm256_srli_epi64, _mm256_storeu_si256, _mm512_add_epi32, _mm512_add_epi64, _mm512_loadu_si512,
    _mm512_mullo_epi32, _mm512_mullo_epi64, _mm512_set1_epi32, _mm512_set1_epi64,
    _mm512_storeu_si512,
};

/// 64-bit lane multiply (low half) on AVX2, which has no native
/// `mullo_epi64`: `lo + ((a_hi·b_lo + a_lo·b_hi) << 32)` from three
/// 32×32→64 multiplies — exact mod `2^64`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mullo_epu64_avx2(a: __m256i, b: __m256i) -> __m256i {
    let lo = _mm256_mul_epu32(a, b);
    let a_hi = _mm256_srli_epi64::<32>(a);
    let b_hi = _mm256_srli_epi64::<32>(b);
    let cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b), _mm256_mul_epu32(a, b_hi));
    _mm256_add_epi64(lo, _mm256_slli_epi64::<32>(cross))
}

/// Generates the `axpy` / `axpy2` kernel pair for one (feature set,
/// element type, lane width) combination. Memory safety: lengths are
/// asserted equal, the vector loop takes `lanes`-strided in-bounds
/// pointers, the scalar tail covers the remainder.
macro_rules! define_axpy {
    ($feat:literal, $axpy:ident, $axpy2:ident, $t:ty, $cast:ty, $lanes:expr,
     $set1:path, $load:path, $store:path, $mul:path, $add:path) => {
        #[target_feature(enable = $feat)]
        unsafe fn $axpy(row: &mut [$t], v: $t, b: &[$t]) {
            assert_eq!(row.len(), b.len(), "axpy operand length mismatch");
            let n = row.len();
            let vv = $set1(v as $cast);
            let rp = row.as_mut_ptr();
            let bp = b.as_ptr();
            let mut j = 0usize;
            // 2x-unrolled lead loop: two independent load/mul/add/store
            // chains per iteration keep the multiplier port busy (LLVM
            // unrolls the autovectorized scalar loop the same way). No
            // cross-element reassociation, so results stay bit-identical.
            while j + 2 * $lanes <= n {
                let r0 = $load(rp.add(j).cast());
                let r1 = $load(rp.add(j + $lanes).cast());
                let x0 = $mul(vv, $load(bp.add(j).cast()));
                let x1 = $mul(vv, $load(bp.add(j + $lanes).cast()));
                $store(rp.add(j).cast(), $add(r0, x0));
                $store(rp.add(j + $lanes).cast(), $add(r1, x1));
                j += 2 * $lanes;
            }
            while j + $lanes <= n {
                let r = $load(rp.add(j).cast());
                let x = $mul(vv, $load(bp.add(j).cast()));
                $store(rp.add(j).cast(), $add(r, x));
                j += $lanes;
            }
            while j < n {
                *rp.add(j) = (*rp.add(j)).wrapping_add(v.wrapping_mul(*bp.add(j)));
                j += 1;
            }
        }

        #[target_feature(enable = $feat)]
        unsafe fn $axpy2(row: &mut [$t], v0: $t, b0: &[$t], v1: $t, b1: &[$t]) {
            assert_eq!(row.len(), b0.len(), "axpy2 operand length mismatch");
            assert_eq!(row.len(), b1.len(), "axpy2 operand length mismatch");
            let n = row.len();
            let vv0 = $set1(v0 as $cast);
            let vv1 = $set1(v1 as $cast);
            let rp = row.as_mut_ptr();
            let bp0 = b0.as_ptr();
            let bp1 = b1.as_ptr();
            let mut j = 0usize;
            // Same 2x unroll as `axpy`; the per-element sum order
            // `r + (x0 + x1)` is preserved exactly.
            while j + 2 * $lanes <= n {
                let ra = $load(rp.add(j).cast());
                let rb = $load(rp.add(j + $lanes).cast());
                let xa0 = $mul(vv0, $load(bp0.add(j).cast()));
                let xb0 = $mul(vv0, $load(bp0.add(j + $lanes).cast()));
                let xa1 = $mul(vv1, $load(bp1.add(j).cast()));
                let xb1 = $mul(vv1, $load(bp1.add(j + $lanes).cast()));
                $store(rp.add(j).cast(), $add(ra, $add(xa0, xa1)));
                $store(rp.add(j + $lanes).cast(), $add(rb, $add(xb0, xb1)));
                j += 2 * $lanes;
            }
            while j + $lanes <= n {
                let r = $load(rp.add(j).cast());
                let x0 = $mul(vv0, $load(bp0.add(j).cast()));
                let x1 = $mul(vv1, $load(bp1.add(j).cast()));
                $store(rp.add(j).cast(), $add(r, $add(x0, x1)));
                j += $lanes;
            }
            while j < n {
                *rp.add(j) = (*rp.add(j))
                    .wrapping_add(v0.wrapping_mul(*bp0.add(j)))
                    .wrapping_add(v1.wrapping_mul(*bp1.add(j)));
                j += 1;
            }
        }
    };
}

define_axpy!(
    "avx2",
    axpy_u32_avx2_k,
    axpy2_u32_avx2_k,
    u32,
    i32,
    8,
    _mm256_set1_epi32,
    _mm256_loadu_si256,
    _mm256_storeu_si256,
    _mm256_mullo_epi32,
    _mm256_add_epi32
);
define_axpy!(
    "avx2",
    axpy_u64_avx2_k,
    axpy2_u64_avx2_k,
    u64,
    i64,
    4,
    _mm256_set1_epi64x,
    _mm256_loadu_si256,
    _mm256_storeu_si256,
    mullo_epu64_avx2,
    _mm256_add_epi64
);

define_axpy!(
    "avx512f",
    axpy_u32_avx512_k,
    axpy2_u32_avx512_k,
    u32,
    i32,
    16,
    _mm512_set1_epi32,
    _mm512_loadu_si512,
    _mm512_storeu_si512,
    _mm512_mullo_epi32,
    _mm512_add_epi32
);
define_axpy!(
    "avx512f,avx512dq",
    axpy_u64_avx512_k,
    axpy2_u64_avx512_k,
    u64,
    i64,
    8,
    _mm512_set1_epi64,
    _mm512_loadu_si512,
    _mm512_storeu_si512,
    _mm512_mullo_epi64,
    _mm512_add_epi64
);

/// Declares the safe, feature-checked entry point for one unsafe kernel:
/// verify the level's CPU features (cached), else run the scalar
/// reference. These are the only functions the dispatch selectors hand
/// out, so a wrong [`IsaLevel`] degrades to scalar instead of UB.
macro_rules! checked {
    ($name:ident, $level:ident, $kernel:expr, $fallback:expr, ($($a:ident: $t:ty),*)) => {
        pub(crate) fn $name($($a: $t),*) {
            if IsaLevel::$level.supported() {
                // SAFETY: the level's CPU features were just verified present;
                // memory contracts are asserted inside the kernel.
                unsafe { $kernel($($a),*) }
            } else {
                $fallback($($a),*);
            }
        }
    };
}

checked!(axpy_u32_avx2, Avx2, axpy_u32_avx2_k, scalar::axpy_u32,
    (row: &mut [u32], v: u32, b: &[u32]));
checked!(axpy2_u32_avx2, Avx2, axpy2_u32_avx2_k, scalar::axpy2_u32,
    (row: &mut [u32], v0: u32, b0: &[u32], v1: u32, b1: &[u32]));
checked!(axpy_u64_avx2, Avx2, axpy_u64_avx2_k, scalar::axpy_u64,
    (row: &mut [u64], v: u64, b: &[u64]));
checked!(axpy2_u64_avx2, Avx2, axpy2_u64_avx2_k, scalar::axpy2_u64,
    (row: &mut [u64], v0: u64, b0: &[u64], v1: u64, b1: &[u64]));

checked!(axpy_u32_avx512, Avx512, axpy_u32_avx512_k, scalar::axpy_u32,
    (row: &mut [u32], v: u32, b: &[u32]));
checked!(axpy2_u32_avx512, Avx512, axpy2_u32_avx512_k, scalar::axpy2_u32,
    (row: &mut [u32], v0: u32, b0: &[u32], v1: u32, b1: &[u32]));
checked!(axpy_u64_avx512, Avx512, axpy_u64_avx512_k, scalar::axpy_u64,
    (row: &mut [u64], v: u64, b: &[u64]));
checked!(axpy2_u64_avx512, Avx512, axpy2_u64_avx512_k, scalar::axpy2_u64,
    (row: &mut [u64], v0: u64, b0: &[u64], v1: u64, b1: &[u64]));
