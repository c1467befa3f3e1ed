//! The [`Ring`] descriptor: modular arithmetic on `Z_{2^ℓ}`.

use crate::RingError;
use rand::Rng;
use std::fmt;

/// Arithmetic context for the unsigned integer ring `Z_Q`, `Q = 2^ℓ`.
///
/// Per paper Definition 1, all protocol operations take a modulus `Q`; in a
/// hardware accelerator the modulus is free (bit-length overflow), and here
/// it is a single `&`-mask. A `Ring` is `Copy` and meant to be passed around
/// by value.
///
/// Elements are stored as `u64` with all bits above `ℓ` clear. Operations
/// never inspect high bits of their inputs beyond masking them off, so any
/// `u64` can be fed in via [`Ring::reduce`].
///
/// # Example
///
/// ```
/// use aq2pnn_ring::Ring;
///
/// let q = Ring::new(8);
/// assert_eq!(q.add(200, 100), 44);      // (200 + 100) mod 256
/// assert_eq!(q.decode_signed(0b1001_1100), -100);
/// assert_eq!(q.encode_signed(-100), 0b1001_1100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ring {
    bits: u32,
    mask: u64,
}

impl Ring {
    /// Creates the ring `Z_{2^bits}`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `1..=64`. Use [`Ring::try_new`] for a
    /// fallible variant.
    #[must_use]
    pub fn new(bits: u32) -> Self {
        Self::try_new(bits).expect("ring bit-length must be in 1..=64")
    }

    /// Creates the ring `Z_{2^bits}`, failing on an invalid bit-length.
    ///
    /// # Errors
    ///
    /// Returns [`RingError::InvalidBits`] if `bits` is not in `1..=64`.
    pub fn try_new(bits: u32) -> Result<Self, RingError> {
        if bits == 0 || bits > 64 {
            return Err(RingError::InvalidBits(bits));
        }
        let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
        Ok(Ring { bits, mask })
    }

    /// Bit-length `ℓ` of the ring (`Q = 2^ℓ`).
    #[must_use]
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// The mask `Q - 1` selecting the low `ℓ` bits.
    #[must_use]
    pub fn mask(self) -> u64 {
        self.mask
    }

    /// The modulus `Q = 2^ℓ` as a `u128` (it does not fit in `u64` when
    /// `ℓ = 64`).
    #[must_use]
    pub fn modulus(self) -> u128 {
        1u128 << self.bits
    }

    /// Reduces an arbitrary `u64` into the ring (`x mod Q`).
    #[must_use]
    pub fn reduce(self, x: u64) -> u64 {
        x & self.mask
    }

    /// Whether `x` is a canonical ring element (no bits above `ℓ`).
    #[must_use]
    pub fn contains(self, x: u64) -> bool {
        x & !self.mask == 0
    }

    /// `(a + b) mod Q`.
    #[must_use]
    pub fn add(self, a: u64, b: u64) -> u64 {
        a.wrapping_add(b) & self.mask
    }

    /// `(a - b) mod Q`.
    #[must_use]
    pub fn sub(self, a: u64, b: u64) -> u64 {
        a.wrapping_sub(b) & self.mask
    }

    /// `(-a) mod Q`.
    #[must_use]
    pub fn neg(self, a: u64) -> u64 {
        a.wrapping_neg() & self.mask
    }

    /// `(a * b) mod Q`.
    #[must_use]
    pub fn mul(self, a: u64, b: u64) -> u64 {
        a.wrapping_mul(b) & self.mask
    }

    /// `(a^e) mod Q` by square-and-multiply, constant-time in `e`: the
    /// exponent is OT key material, so the ladder runs a fixed `ℓ`
    /// iterations (monomorphized for the widths the OT group serves
    /// without a LUT) and folds each bit in with a branch-free select.
    ///
    /// Used by the OT-flow's Diffie-Hellman-style masking; on the FPGA this
    /// is a look-up table (paper Sec. 4.3.1), which is only feasible because
    /// the ring is small — the software mirror of that LUT covers `ℓ ≤ 20`
    /// (`OtGroup`), so this ladder is the hot path exactly on the wider
    /// rings, where cutting 64 iterations to `ℓ` matters most.
    /// [`Ring::pow_reference`] keeps the full 64-iteration ladder as the
    /// cross-check ground truth.
    #[must_use]
    pub fn pow(self, a: u64, e: u64) -> u64 {
        match self.bits {
            12 => self.pow_ladder::<12>(a, e),
            16 => self.pow_ladder::<16>(a, e),
            20 => self.pow_ladder::<20>(a, e),
            24 => self.pow_ladder::<24>(a, e),
            32 => self.pow_ladder::<32>(a, e),
            bits => self.pow_ladder_dyn(a, e, bits),
        }
    }

    /// The truncated constant-time ladder, monomorphized per width so the
    /// fixed-trip-count loop fully unrolls.
    ///
    /// Why `ℓ` iterations suffice: `a^e = a^{e mod 2^ℓ} · (a^{2^ℓ})^{e_hi}`
    /// with `e_hi = ⌊e / 2^ℓ⌋`. After the `ℓ` squarings,
    /// `base = a^{2^ℓ} mod 2^ℓ`, which is `1` for odd `a` (odd residues
    /// have order dividing `2^{ℓ-2}`) and `0` for even `a` (2-adic
    /// valuation `≥ 2^ℓ ≥ ℓ`) — in both cases `(a^{2^ℓ})^{e_hi}` equals
    /// `base` itself whenever `e_hi ≠ 0`, so the entire high half of the
    /// exponent folds into one multiply, gated branch-free.
    fn pow_ladder<const BITS: u32>(self, a: u64, e: u64) -> u64 {
        debug_assert_eq!(self.bits, BITS);
        let mut base = self.reduce(a);
        let mut acc = 1u64;
        for i in 0..BITS {
            let bit = (e >> i) & 1;
            acc = crate::ct::select(bit, self.mul(acc, base), acc);
            base = self.mul(base, base);
        }
        // Two-step shift: BITS may be 64, and a single `e >> 64` is UB.
        let e_hi = (e >> (BITS - 1)) >> 1;
        crate::ct::select(crate::ct::nonzero(e_hi), self.mul(acc, base), acc)
    }

    /// Runtime-width fallback of [`Ring::pow_ladder`] for rings outside the
    /// monomorphized set. Identical math; the trip count is the (public)
    /// ring width, never a secret.
    fn pow_ladder_dyn(self, a: u64, e: u64, bits: u32) -> u64 {
        let mut base = self.reduce(a);
        let mut acc = 1u64;
        for i in 0..bits {
            let bit = (e >> i) & 1;
            acc = crate::ct::select(bit, self.mul(acc, base), acc);
            base = self.mul(base, base);
        }
        let e_hi = (e >> (bits - 1)) >> 1;
        crate::ct::select(crate::ct::nonzero(e_hi), self.mul(acc, base), acc)
    }

    /// The pre-specialization 64-iteration constant-time ladder, kept as
    /// ground truth for property tests. Bit-identical to [`Ring::pow`] on
    /// every input.
    #[must_use]
    pub fn pow_reference(self, a: u64, e: u64) -> u64 {
        let mut base = self.reduce(a);
        let mut acc = 1u64;
        for i in 0..64 {
            let bit = (e >> i) & 1;
            acc = crate::ct::select(bit, self.mul(acc, base), acc);
            base = self.mul(base, base);
        }
        acc
    }

    /// Samples a uniformly random ring element.
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> u64 {
        rng.gen::<u64>() & self.mask
    }

    /// Smallest representable signed value, `-2^{ℓ-1}` (or `0` for `ℓ = 1`…
    /// by convention `ℓ = 1` encodes `{0, -1}`; the value is `-1`).
    #[must_use]
    pub fn min_signed(self) -> i64 {
        if self.bits == 64 {
            i64::MIN
        } else {
            -(1i64 << (self.bits - 1))
        }
    }

    /// Largest representable signed value, `2^{ℓ-1} - 1`.
    #[must_use]
    pub fn max_signed(self) -> i64 {
        if self.bits == 64 {
            i64::MAX
        } else {
            (1i64 << (self.bits - 1)) - 1
        }
    }

    /// Encodes a signed integer by two's complement (paper Fig. 3, `enc`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside `[min_signed, max_signed]`. Use
    /// [`Ring::try_encode_signed`] for a fallible variant.
    #[must_use]
    pub fn encode_signed(self, v: i64) -> u64 {
        self.try_encode_signed(v).expect("signed value out of range for ring")
    }

    /// Encodes a signed integer, failing when it does not fit.
    ///
    /// # Errors
    ///
    /// Returns [`RingError::SignedOutOfRange`] if `v` is outside the
    /// `ℓ`-bit two's-complement range.
    pub fn try_encode_signed(self, v: i64) -> Result<u64, RingError> {
        if v < self.min_signed() || v > self.max_signed() {
            return Err(RingError::SignedOutOfRange { value: v, bits: self.bits });
        }
        Ok((v as u64) & self.mask)
    }

    /// Encodes a signed integer that may exceed the signed range by wrapping
    /// it onto the ring (`v mod Q`). This models hardware overflow.
    #[must_use]
    pub fn encode_signed_wrapping(self, v: i64) -> u64 {
        (v as u64) & self.mask
    }

    /// Decodes a ring element by two's complement (paper Fig. 3, `rec` + `enc⁻¹`).
    #[must_use]
    pub fn decode_signed(self, x: u64) -> i64 {
        let x = x & self.mask;
        let shift = 64 - self.bits;
        ((x << shift) as i64) >> shift
    }

    /// Most significant bit of `x` in this ring — the sign bit of the
    /// two's-complement interpretation.
    #[must_use]
    pub fn msb(self, x: u64) -> bool {
        (x >> (self.bits - 1)) & 1 == 1
    }

    /// Extracts bit `i` (0 = LSB) of `x`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= ℓ`.
    #[must_use]
    pub fn bit(self, x: u64, i: u32) -> bool {
        assert!(i < self.bits, "bit index {i} out of range for {}-bit ring", self.bits);
        (x >> i) & 1 == 1
    }

    /// The top `n` bits of `x` as a small unsigned integer. ABReLU's quadrant
    /// detection (paper Fig. 7) reads the top 2 bits.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > ℓ`.
    #[must_use]
    pub fn top_bits(self, x: u64, n: u32) -> u64 {
        assert!(n >= 1 && n <= self.bits, "cannot take top {n} bits of a {}-bit ring", self.bits);
        (x & self.mask) >> (self.bits - n)
    }

    /// Logical right shift inside the ring: `⌊x / 2^s⌋` of the *unsigned*
    /// representative.
    #[must_use]
    pub fn shr_logical(self, x: u64, s: u32) -> u64 {
        if s >= 64 {
            0
        } else {
            (x & self.mask) >> s
        }
    }

    /// Arithmetic right shift of the *signed* interpretation, re-encoded on
    /// the ring: `enc(⌊dec(x) / 2^s⌋)` with flooring division.
    ///
    /// This is the plaintext-equivalent of the re-quantization (`ReQ`)
    /// truncation in the paper's `BNReQ` operator.
    #[must_use]
    pub fn shr_arithmetic(self, x: u64, s: u32) -> u64 {
        let v = self.decode_signed(x);
        let shifted = if s >= 63 {
            if v < 0 {
                -1
            } else {
                0
            }
        } else {
            v >> s
        };
        self.encode_signed_wrapping(shifted)
    }

    /// Left shift inside the ring: `(x * 2^s) mod Q`.
    #[must_use]
    pub fn shl(self, x: u64, s: u32) -> u64 {
        if s >= 64 {
            0
        } else {
            x.wrapping_shl(s) & self.mask
        }
    }

    /// Clips the signed interpretation of `x` into `[lo, hi]` and re-encodes.
    ///
    /// The AS-ALU supports clipping (paper Sec. 4.1.3); the quantizer uses it
    /// to saturate activations to the target bit-width.
    #[must_use]
    pub fn clip_signed(self, x: u64, lo: i64, hi: i64) -> u64 {
        let v = self.decode_signed(x).clamp(lo, hi);
        self.encode_signed_wrapping(v)
    }
}

impl fmt::Display for Ring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Z_2^{}", self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_bounds() {
        assert!(Ring::try_new(0).is_err());
        assert!(Ring::try_new(65).is_err());
        assert!(Ring::try_new(1).is_ok());
        assert!(Ring::try_new(64).is_ok());
        assert_eq!(Ring::new(8).mask(), 0xff);
        assert_eq!(Ring::new(64).mask(), u64::MAX);
    }

    #[test]
    fn modulus_matches_bits() {
        assert_eq!(Ring::new(12).modulus(), 1 << 12);
        assert_eq!(Ring::new(64).modulus(), 1u128 << 64);
    }

    #[test]
    fn add_sub_wraps() {
        let q = Ring::new(8);
        assert_eq!(q.add(255, 1), 0);
        assert_eq!(q.sub(0, 1), 255);
        assert_eq!(q.neg(1), 255);
        assert_eq!(q.neg(0), 0);
    }

    #[test]
    fn mul_wraps() {
        let q = Ring::new(8);
        assert_eq!(q.mul(16, 16), 0);
        assert_eq!(q.mul(255, 255), 1); // (-1)^2 = 1
    }

    #[test]
    fn pow_matches_naive() {
        let q = Ring::new(16);
        for &(base, exp) in &[(3u64, 5u64), (7, 0), (0, 3), (65535, 2), (5, 17)] {
            let mut naive = 1u64;
            for _ in 0..exp {
                naive = q.mul(naive, base);
            }
            assert_eq!(q.pow(base, exp), naive, "pow({base},{exp})");
        }
    }

    /// The truncated `ℓ`-iteration ladder (monomorphized and dynamic
    /// widths alike) must agree with the 64-iteration reference on every
    /// input class that stresses the high-exponent fold: zero/odd/even
    /// bases, exponents below and far above `2^ℓ`, and all-ones patterns.
    #[test]
    fn pow_matches_reference_across_widths() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xb007);
        for bits in [1u32, 2, 3, 11, 12, 13, 16, 20, 21, 24, 25, 31, 32, 33, 48, 63, 64] {
            let q = Ring::new(bits);
            for &(a, e) in &[
                (0u64, 0u64),
                (0, 1),
                (0, u64::MAX),
                (1, u64::MAX),
                (2, 1u64 << 40),
                (5, (1u64 << 63) + 7),
                (u64::MAX, u64::MAX),
            ] {
                assert_eq!(q.pow(a, e), q.pow_reference(a, e), "bits={bits} a={a} e={e}");
            }
            for _ in 0..200 {
                let (a, e) = (rng.gen::<u64>(), rng.gen::<u64>());
                assert_eq!(q.pow(a, e), q.pow_reference(a, e), "bits={bits} a={a} e={e}");
            }
        }
    }

    #[test]
    fn signed_codec_roundtrip_edges() {
        let q = Ring::new(8);
        assert_eq!(q.min_signed(), -128);
        assert_eq!(q.max_signed(), 127);
        for v in -128..=127 {
            assert_eq!(q.decode_signed(q.encode_signed(v)), v);
        }
        assert!(q.try_encode_signed(128).is_err());
        assert!(q.try_encode_signed(-129).is_err());
    }

    #[test]
    fn signed_codec_64_bit() {
        let q = Ring::new(64);
        assert_eq!(q.decode_signed(q.encode_signed(i64::MIN)), i64::MIN);
        assert_eq!(q.decode_signed(q.encode_signed(i64::MAX)), i64::MAX);
        assert_eq!(q.decode_signed(q.encode_signed(-1)), -1);
    }

    #[test]
    fn paper_example_int8_minus_100() {
        // Sec. 4.4: INT8(-100) has binary representation 1001_1100.
        let q = Ring::new(8);
        assert_eq!(q.encode_signed(-100), 0b1001_1100);
        assert_eq!(q.encode_signed(5), 0b0000_0101);
    }

    #[test]
    fn msb_is_sign() {
        let q = Ring::new(12);
        assert!(q.msb(q.encode_signed(-1)));
        assert!(!q.msb(q.encode_signed(0)));
        assert!(!q.msb(q.encode_signed(q.max_signed())));
        assert!(q.msb(q.encode_signed(q.min_signed())));
    }

    #[test]
    fn top_bits_quadrant() {
        let q = Ring::new(8);
        // -125 = 1000_0011b → top 2 bits 10
        assert_eq!(q.top_bits(q.encode_signed(-125), 2), 0b10);
        // 7 = 0000_0111b → top 2 bits 00
        assert_eq!(q.top_bits(q.encode_signed(7), 2), 0b00);
    }

    #[test]
    fn shifts() {
        let q = Ring::new(8);
        assert_eq!(q.shr_logical(q.encode_signed(-4), 1), 0b0111_1110);
        assert_eq!(q.decode_signed(q.shr_arithmetic(q.encode_signed(-4), 1)), -2);
        assert_eq!(q.decode_signed(q.shr_arithmetic(q.encode_signed(-5), 1)), -3); // floor
        assert_eq!(q.decode_signed(q.shr_arithmetic(q.encode_signed(5), 1)), 2);
        assert_eq!(q.shl(0b1000_0001, 1), 0b0000_0010);
    }

    #[test]
    fn clip() {
        let q = Ring::new(16);
        assert_eq!(q.decode_signed(q.clip_signed(q.encode_signed(300), -128, 127)), 127);
        assert_eq!(q.decode_signed(q.clip_signed(q.encode_signed(-300), -128, 127)), -128);
        assert_eq!(q.decode_signed(q.clip_signed(q.encode_signed(50), -128, 127)), 50);
    }

    #[test]
    fn sample_is_in_ring() {
        let q = Ring::new(5);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert!(q.contains(q.sample(&mut rng)));
        }
    }

    #[test]
    fn ring_display() {
        assert_eq!(Ring::new(16).to_string(), "Z_2^16");
    }
}
