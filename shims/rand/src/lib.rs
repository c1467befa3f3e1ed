//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no registry access, so the workspace vendors a
//! minimal, API-compatible subset of `rand` 0.8: the [`RngCore`] / [`Rng`] /
//! [`SeedableRng`] traits, integer/float `gen`/`gen_range` sampling, and a
//! deterministic [`rngs::StdRng`] (xoshiro256++ seeded via SplitMix64).
//!
//! Determinism only needs to hold *within* this workspace — both parties of
//! the 2PC simulator derive their correlated material from these streams —
//! so the concrete generators do not need to match upstream `rand` output.

/// A low-level random number generator: the raw entropy interface.
pub trait RngCore {
    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
    /// Fills `dest` with the next `dest.len()` values of [`Self::next_u64`].
    /// Generators that buffer their output override it with a bulk copy;
    /// the stream is the same either way.
    fn fill_u64(&mut self, dest: &mut [u64]) {
        for d in dest {
            *d = self.next_u64();
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest);
    }
    fn fill_u64(&mut self, dest: &mut [u64]) {
        (**self).fill_u64(dest);
    }
}

/// A generator seedable from a 64-bit value.
pub trait SeedableRng: Sized {
    /// Builds the generator deterministically from `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types samplable uniformly from raw generator output (the `Standard`
/// distribution of upstream `rand`).
pub trait SampleStandard {
    /// Draws one value from `rng`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl SampleStandard for $t {
            #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleStandard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl SampleStandard for f64 {
    #[allow(clippy::cast_precision_loss)]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl SampleStandard for f32 {
    #[allow(clippy::cast_precision_loss)]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Range types [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Maps 64 random bits onto `0..span` (`span` ≤ 2^64) via fixed-point
/// multiplication. The ≤ 2^-64 bias is irrelevant for this workspace.
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, span: u128) -> u128 {
    debug_assert!(span > 0 && span <= 1 << 64);
    (u128::from(rng.next_u64()) * span) >> 64
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[allow(clippy::cast_possible_truncation, clippy::cast_lossless, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + uniform_below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[allow(clippy::cast_possible_truncation, clippy::cast_lossless, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + uniform_below(rng, span) as i128) as $t
            }
        }
    )*};
}
int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let unit = <$t as SampleStandard>::sample_standard(rng);
                self.start + unit * (self.end - self.start)
            }
        }
    )*};
}
float_range!(f32, f64);

/// Convenience sampling methods layered over [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value of type `T` from the standard distribution.
    fn gen<T: SampleStandard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic workhorse generator: xoshiro256++ seeded via SplitMix64.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = splitmix64(&mut sm);
            }
            // xoshiro must not start from the all-zero state.
            if s == [0; 4] {
                s[0] = 0x9e37_79b9_7f4a_7c15;
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        #[allow(clippy::cast_possible_truncation)]
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let v = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&v[..chunk.len()]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb);
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(va[0], c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&v));
            let u = rng.gen_range(3u32..17);
            assert!((3..17).contains(&u));
            let f = rng.gen_range(0.25f32..0.75);
            assert!((0.25..0.75001).contains(&f));
        }
    }

    #[test]
    fn range_endpoints_reachable() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[rng.gen_range(0usize..3)] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn default_fill_u64_is_a_next_u64_loop() {
        let mut a = StdRng::seed_from_u64(5);
        let mut b = a.clone();
        let mut got = [0u64; 9];
        a.fill_u64(&mut got);
        let want: Vec<u64> = (0..9).map(|_| b.next_u64()).collect();
        assert_eq!(got[..], want[..]);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    /// A generator whose `fill_u64` is told apart from a `next_u64` loop.
    struct Marked;

    impl RngCore for Marked {
        fn next_u32(&mut self) -> u32 {
            0
        }
        fn next_u64(&mut self) -> u64 {
            0
        }
        fn fill_bytes(&mut self, _: &mut [u8]) {}
        fn fill_u64(&mut self, dest: &mut [u64]) {
            dest.fill(7);
        }
    }

    #[test]
    fn fill_u64_forwards_through_references() {
        fn fill<R: RngCore + ?Sized>(rng: &mut R, dest: &mut [u64]) {
            rng.fill_u64(dest);
        }
        let mut dest = [0u64; 3];
        fill(&mut &mut Marked, &mut dest);
        assert_eq!(dest, [7; 3]);
        let dyn_rng: &mut dyn RngCore = &mut Marked;
        let mut dest = [0u64; 2];
        fill(&mut &mut *dyn_rng, &mut dest);
        assert_eq!(dest, [7; 2]);
    }

    #[test]
    fn unsized_rng_usable_through_reference() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> u64 {
            rng.gen()
        }
        let mut rng = StdRng::seed_from_u64(4);
        let _: u64 = draw(&mut rng);
    }
}
