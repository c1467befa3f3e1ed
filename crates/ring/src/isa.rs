//! Runtime CPU-feature detection for the hand-written GEMM kernels.
//!
//! Every SIMD path is selected **at runtime** from [`IsaLevel::detect`],
//! so a binary compiled for the portable x86-64 SSE2 baseline still runs
//! the AVX2/AVX-512 `axpy` kernels on hardware that has them — and a
//! binary compiled with native codegen never executes an instruction the
//! host lacks.
//!
//! [`IsaLevel::active`] is the cached detection result the GEMM in
//! `aq2pnn-sharing` uses; property tests iterate
//! [`IsaLevel::available`] to pin every reachable path bit-identical to
//! the scalar reference on the machine at hand.

use std::fmt;

/// One selectable kernel implementation tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsaLevel {
    /// Portable scalar fallback — always present, and the reference
    /// semantics every other level is property-tested against.
    Scalar,
    /// x86-64 AVX2: 256-bit lanes (u32×8 / u64×4).
    Avx2,
    /// x86-64 AVX-512 (F+BW+DQ+VL): 512-bit lanes (u32×16 / u64×8) with
    /// native 64-bit lane multiplies.
    Avx512,
}

impl IsaLevel {
    /// Every level in canonical order (scalar first).
    pub const ALL: [IsaLevel; 3] = [IsaLevel::Scalar, IsaLevel::Avx2, IsaLevel::Avx512];

    /// The level's stable lowercase name (`scalar`/`avx2`/`avx512`) — the
    /// `isa` field of bench rows.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            IsaLevel::Scalar => "scalar",
            IsaLevel::Avx2 => "avx2",
            IsaLevel::Avx512 => "avx512",
        }
    }

    /// Parses an [`IsaLevel::name`] string (case-insensitive).
    #[must_use]
    pub fn parse(s: &str) -> Option<IsaLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(IsaLevel::Scalar),
            "avx2" => Some(IsaLevel::Avx2),
            "avx512" => Some(IsaLevel::Avx512),
            _ => None,
        }
    }

    /// Whether this machine can execute the level's kernels.
    ///
    /// This is the **soundness gate** for every `unsafe` SIMD call in
    /// [`crate::simd`]: a `#[target_feature]` function is only ever
    /// invoked behind `supported() == true`. Under Miri only the scalar
    /// level reports supported — the interpreter has no CPUID.
    #[must_use]
    pub fn supported(self) -> bool {
        #[cfg(miri)]
        {
            self == IsaLevel::Scalar
        }
        #[cfg(not(miri))]
        {
            match self {
                IsaLevel::Scalar => true,
                #[cfg(target_arch = "x86_64")]
                IsaLevel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
                #[cfg(target_arch = "x86_64")]
                IsaLevel::Avx512 => {
                    std::arch::is_x86_feature_detected!("avx512f")
                        && std::arch::is_x86_feature_detected!("avx512bw")
                        && std::arch::is_x86_feature_detected!("avx512dq")
                        && std::arch::is_x86_feature_detected!("avx512vl")
                }
                #[allow(unreachable_patterns)] // x86 levels on other architectures
                _ => false,
            }
        }
    }

    /// The best level this machine supports (AVX-512 ≻ AVX2 ≻ scalar).
    #[must_use]
    pub fn detect() -> IsaLevel {
        if IsaLevel::Avx512.supported() {
            IsaLevel::Avx512
        } else if IsaLevel::Avx2.supported() {
            IsaLevel::Avx2
        } else {
            IsaLevel::Scalar
        }
    }

    /// Every level this machine supports, scalar first — the iteration
    /// set for per-ISA property tests and bench variant rows.
    #[must_use]
    pub fn available() -> Vec<IsaLevel> {
        IsaLevel::ALL.iter().copied().filter(|l| l.supported()).collect()
    }

    /// [`IsaLevel::detect`], run once per process and cached.
    #[must_use]
    pub fn active() -> IsaLevel {
        static ACTIVE: std::sync::OnceLock<IsaLevel> = std::sync::OnceLock::new();
        *ACTIVE.get_or_init(IsaLevel::detect)
    }
}

impl fmt::Display for IsaLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_supported() {
        assert!(IsaLevel::Scalar.supported());
        assert!(IsaLevel::available().contains(&IsaLevel::Scalar));
    }

    #[test]
    fn detect_is_supported() {
        assert!(IsaLevel::detect().supported());
        assert_eq!(IsaLevel::active(), IsaLevel::detect());
    }

    #[test]
    fn names_roundtrip() {
        for l in IsaLevel::ALL {
            assert_eq!(IsaLevel::parse(l.name()), Some(l));
            assert_eq!(IsaLevel::parse(&l.name().to_uppercase()), Some(l));
        }
        assert_eq!(IsaLevel::parse("sse9"), None);
        assert_eq!(IsaLevel::parse("neon"), None);
    }

    #[test]
    fn available_is_subset_of_all_and_deduplicated() {
        let av = IsaLevel::available();
        for l in &av {
            assert!(IsaLevel::ALL.contains(l));
        }
        let mut dedup = av.clone();
        dedup.dedup();
        assert_eq!(av, dedup);
    }
}
