//! GEMM multiply-accumulate kernels: the scalar reference and the one
//! hand-written tier that measures a win over it.
//!
//! The mask-deferred matmul in `aq2pnn-sharing` accumulates wrapping in
//! u16, u32 or u64 words. For u16 the compiler's autovectorized scalar
//! loop ([`scalar`]) is as fast as hand SIMD, so only the u32/u64 `axpy` /
//! `axpy2` rows have AVX2 and AVX-512 kernels. The `*_for` selectors map
//! an [`IsaLevel`] to a plain function pointer; every other kernel in the
//! workspace (wire packers, A2BM code fills) is safe scalar Rust in its
//! only user.
//!
//! Three invariants every kernel keeps, enforced by the property tests
//! in this module and at the call sites:
//!
//! * **Bit-identity** — for any input, every specialized path produces
//!   exactly the words of its scalar reference. SIMD reassociation is
//!   invisible because all arithmetic wraps and `2^ℓ` divides the
//!   accumulator modulus.
//! * **Soundness by construction** — `unsafe` exists only inside
//!   `x86`, behind safe wrappers that re-check CPU features at runtime
//!   and fall back to scalar. Misusing a selector with a wrong
//!   [`IsaLevel`] can cost speed, never soundness.
//! * **Secrecy discipline** — kernel control flow depends only on
//!   public geometry (lengths), not on the secret words being processed;
//!   see DESIGN.md §7.4.

pub mod scalar;

#[cfg(target_arch = "x86_64")]
mod x86;

use crate::isa::IsaLevel;

/// `row[j] += v · b[j]` mod `2^32` (wrapping).
pub type AxpyU32Fn = fn(&mut [u32], u32, &[u32]);
/// `row[j] += v0 · b0[j] + v1 · b1[j]` mod `2^32` (wrapping) — the
/// 2-step-unrolled GEMM inner loop.
pub type Axpy2U32Fn = fn(&mut [u32], u32, &[u32], u32, &[u32]);
/// See [`AxpyU32Fn`], mod `2^64`.
pub type AxpyU64Fn = fn(&mut [u64], u64, &[u64]);
/// See [`Axpy2U32Fn`], mod `2^64`.
pub type Axpy2U64Fn = fn(&mut [u64], u64, &[u64], u64, &[u64]);

macro_rules! axpy_selector {
    ($(#[$m:meta])* $name:ident, $fnty:ty, $sc:path, $a2:path, $a5:path) => {
        $(#[$m])*
        #[must_use]
        pub fn $name(isa: IsaLevel) -> $fnty {
            match isa {
                #[cfg(target_arch = "x86_64")]
                IsaLevel::Avx2 => $a2,
                #[cfg(target_arch = "x86_64")]
                IsaLevel::Avx512 => $a5,
                _ => $sc,
            }
        }
    };
}

axpy_selector!(
    /// Selects the u32 `axpy` kernel (mod `2^32` accumulation, 16 < ℓ ≤ 32).
    axpy_u32_for, AxpyU32Fn, scalar::axpy_u32, x86::axpy_u32_avx2, x86::axpy_u32_avx512);
axpy_selector!(
    /// Selects the u32 `axpy2` kernel.
    axpy2_u32_for, Axpy2U32Fn, scalar::axpy2_u32, x86::axpy2_u32_avx2, x86::axpy2_u32_avx512);
axpy_selector!(
    /// Selects the u64 `axpy` kernel (mod `2^64` accumulation, ℓ > 32).
    axpy_u64_for, AxpyU64Fn, scalar::axpy_u64, x86::axpy_u64_avx2, x86::axpy_u64_avx512);
axpy_selector!(
    /// Selects the u64 `axpy2` kernel.
    axpy2_u64_for, Axpy2U64Fn, scalar::axpy2_u64, x86::axpy2_u64_avx2, x86::axpy2_u64_avx512);

#[cfg(test)]
mod tests {
    use super::*;

    fn rng_stream(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed | 1;
        move || {
            s = s.wrapping_mul(0xd129_42e4_9c58_05c5).wrapping_add(0xb5);
            s
        }
    }

    /// Every supported ISA's axpy/axpy2 kernels must be bit-identical to
    /// the scalar reference, including vector tails at every length.
    #[test]
    #[allow(clippy::cast_possible_truncation)] // low-word truncation is the test fixture
    fn axpy_kernels_match_scalar_on_every_supported_isa() {
        macro_rules! check_width {
            ($t:ty, $isa:expr, $n:expr, $next:expr,
             $axpy_for:ident, $axpy2_for:ident, $axpy_ref:ident, $axpy2_ref:ident) => {{
                let row: Vec<$t> = (0..$n).map(|_| $next() as $t).collect();
                let b0: Vec<$t> = (0..$n).map(|_| $next() as $t).collect();
                let b1: Vec<$t> = (0..$n).map(|_| $next() as $t).collect();
                let (v0, v1) = ($next() as $t, $next() as $t);

                let mut got = row.clone();
                let mut want = row.clone();
                $axpy_for($isa)(&mut got, v0, &b0);
                scalar::$axpy_ref(&mut want, v0, &b0);
                assert_eq!(got, want, "axpy {} n={} isa={}", stringify!($t), $n, $isa);

                let mut got2 = row.clone();
                let mut want2 = row;
                $axpy2_for($isa)(&mut got2, v0, &b0, v1, &b1);
                scalar::$axpy2_ref(&mut want2, v0, &b0, v1, &b1);
                assert_eq!(got2, want2, "axpy2 {} n={} isa={}", stringify!($t), $n, $isa);
            }};
        }
        let mut next = rng_stream(0x9e37_79b9_7f4a_7c15);
        for isa in IsaLevel::available() {
            for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100] {
                check_width!(u32, isa, n, next, axpy_u32_for, axpy2_u32_for, axpy_u32, axpy2_u32);
                check_width!(u64, isa, n, next, axpy_u64_for, axpy2_u64_for, axpy_u64, axpy2_u64);
            }
        }
    }
}
