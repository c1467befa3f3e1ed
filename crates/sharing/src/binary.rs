//! Binary (XOR) secret shares.

use rand::Rng;

/// One party's XOR share of a vector of bits.
///
/// ABReLU's comparison outcome and the `T_m` output mask (paper Fig. 4,
/// OUP-MSK buffer) are bit vectors shared as `b = b_i ⊕ b_j`. Bits are
/// stored one per byte (`0`/`1`) for simplicity; the wire format packs them
/// through `aq2pnn_transport::pack_bits` at 1 bit each.
#[derive(Clone, PartialEq, Eq)]
pub struct BShare {
    bits: Vec<u8>,
}

impl std::fmt::Debug for BShare {
    /// Redacts the bit vector: an XOR share still leaks its holder's
    /// masked view. Use [`BShare::fmt_revealed`] to opt into printing it.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BShare {{ len: {}, bits: <redacted> }}", self.bits.len())
    }
}

impl BShare {
    /// Debug rendering *including* the share bits — explicit opt-in for
    /// tests and offline debugging.
    #[must_use]
    pub fn fmt_revealed(&self) -> String {
        format!("BShare {{ bits: {:?} }}", self.bits)
    }

    /// Wraps raw bits (each value is reduced mod 2).
    #[must_use]
    pub fn from_bits(bits: Vec<u8>) -> Self {
        BShare { bits: bits.into_iter().map(|b| b & 1).collect() }
    }

    /// Splits plaintext bits into two XOR shares.
    #[must_use]
    pub fn share<R: Rng + ?Sized>(plain: &[u8], rng: &mut R) -> (BShare, BShare) {
        let r: Vec<u8> = (0..plain.len()).map(|_| rng.gen::<u8>() & 1).collect();
        let other = plain.iter().zip(&r).map(|(&p, &ri)| (p & 1) ^ ri).collect();
        (BShare { bits: r }, BShare { bits: other })
    }

    /// Recovers the plaintext bits: `b = b_i ⊕ b_j`.
    ///
    /// # Panics
    ///
    /// Panics if the shares disagree in length.
    #[must_use]
    pub fn recover(a: &BShare, b: &BShare) -> Vec<u8> {
        assert_eq!(a.bits.len(), b.bits.len(), "binary share length mismatch");
        a.bits.iter().zip(&b.bits).map(|(&x, &y)| x ^ y).collect()
    }

    /// Number of bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the share is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Read-only view of this party's share bits.
    #[must_use]
    pub fn as_bits(&self) -> &[u8] {
        &self.bits
    }

    /// Local XOR with another share: `⟦x ⊕ y⟧ ← (x_i ⊕ y_i, x_j ⊕ y_j)`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    #[must_use]
    pub fn xor(&self, other: &BShare) -> BShare {
        assert_eq!(self.bits.len(), other.bits.len(), "binary share length mismatch");
        BShare { bits: self.bits.iter().zip(&other.bits).map(|(&x, &y)| x ^ y).collect() }
    }

    /// Local XOR with public bits (applied by one party only, chosen by the
    /// caller).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    #[must_use]
    pub fn xor_plain(&self, plain: &[u8]) -> BShare {
        assert_eq!(self.bits.len(), plain.len(), "length mismatch");
        BShare { bits: self.bits.iter().zip(plain).map(|(&x, &p)| x ^ (p & 1)).collect() }
    }

    /// Local NOT: one party flips its bits (caller applies on exactly one
    /// side).
    #[must_use]
    pub fn not(&self) -> BShare {
        BShare { bits: self.bits.iter().map(|&b| b ^ 1).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn share_recover_roundtrip() {
        let mut rng = StdRng::seed_from_u64(5);
        let plain = [1u8, 0, 1, 1, 0, 0, 1, 0];
        let (a, b) = BShare::share(&plain, &mut rng);
        assert_eq!(BShare::recover(&a, &b), plain.to_vec());
    }

    #[test]
    fn xor_homomorphic() {
        let mut rng = StdRng::seed_from_u64(6);
        let x = [1u8, 1, 0, 0];
        let y = [1u8, 0, 1, 0];
        let (xi, xj) = BShare::share(&x, &mut rng);
        let (yi, yj) = BShare::share(&y, &mut rng);
        let zi = xi.xor(&yi);
        let zj = xj.xor(&yj);
        assert_eq!(BShare::recover(&zi, &zj), vec![0, 1, 1, 0]);
    }

    #[test]
    fn not_on_one_side_flips() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = [1u8, 0];
        let (xi, xj) = BShare::share(&x, &mut rng);
        assert_eq!(BShare::recover(&xi.not(), &xj), vec![0, 1]);
    }

    #[test]
    fn from_bits_reduces() {
        let s = BShare::from_bits(vec![3, 2, 255]);
        assert_eq!(s.as_bits(), &[1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let a = BShare::from_bits(vec![0, 1]);
        let b = BShare::from_bits(vec![0]);
        let _ = a.xor(&b);
    }
}
