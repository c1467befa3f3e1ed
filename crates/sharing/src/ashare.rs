//! Arithmetic share tensors and the local AS-ALU operations.

use crate::PartyId;
use aq2pnn_ring::{Ring, RingTensor, ShapeError};
use rand::Rng;
use std::fmt;

/// One party's additive secret share of a [`RingTensor`].
///
/// Paper Definition 3: `⟦x⟧ ← (x_i, x_j)` with `x = (x_i + x_j) mod Q`.
/// The newtype prevents accidentally mixing a share with a plaintext tensor
/// of the same shape.
///
/// All methods here are *local* (no communication) — the AS-ALU of paper
/// Sec. 4.1.3. Interactive operations (Beaver multiplication, comparison)
/// live in the protocol crate.
#[derive(Clone, PartialEq, Eq)]
pub struct AShare(RingTensor);

/// `Debug` deliberately redacts the share words: a share that reaches a log
/// line, panic message or `{:?}` format is a silent break of the 2PC model
/// (`cargo xtask lint` rule `secret-sink`). Only public metadata — ring and
/// shape — is printed. Tests that need the raw words opt in explicitly via
/// [`AShare::fmt_revealed`].
impl fmt::Debug for AShare {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AShare")
            .field("ring_bits", &self.0.ring().bits())
            .field("shape", &self.0.shape())
            .field("values", &"<redacted>")
            .finish()
    }
}

impl AShare {
    /// Formats the share *including its secret words* — the explicit
    /// opt-in counterpart of the redacted `Debug` impl, for tests and
    /// offline debugging only. Never call this on the protocol path.
    #[must_use]
    pub fn fmt_revealed(&self) -> String {
        // secrecy: allow(secret-sink, "explicit opt-in reveal for tests; the redacted Debug impl is the default")
        format!("AShare(ring=2^{}, {:?})", self.0.ring().bits(), self.0)
    }
    /// Wraps a tensor that is already a share.
    #[must_use]
    pub fn from_tensor(t: RingTensor) -> Self {
        AShare(t)
    }

    /// Splits a plaintext tensor into two shares: `⟦x⟧ ← (r, x − r)` with
    /// `r` uniform (paper "secret share generation").
    ///
    /// Returns `(share_0, share_1)` for [`PartyId::User`] and
    /// [`PartyId::ModelProvider`] respectively.
    #[must_use]
    pub fn share<R: Rng + ?Sized>(x: &RingTensor, rng: &mut R) -> (AShare, AShare) {
        let ring = x.ring();
        let r = RingTensor::random(ring, x.shape().to_vec(), rng);
        let other = x.sub(&r).expect("identical shapes");
        (AShare(r), AShare(other))
    }

    /// Recovers the plaintext: `rec(⟦x⟧) = (x_i + x_j) mod Q`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::ShapeMismatch`] if the shares disagree in shape.
    pub fn recover(a: &AShare, b: &AShare) -> Result<RingTensor, ShapeError> {
        a.0.add(&b.0)
    }

    /// A share of the all-zero tensor (both parties hold zeros).
    #[must_use]
    pub fn zeros(ring: Ring, shape: Vec<usize>) -> Self {
        AShare(RingTensor::zeros(ring, shape))
    }

    /// The underlying ring.
    #[must_use]
    pub fn ring(&self) -> Ring {
        self.0.ring()
    }

    /// The tensor shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        self.0.shape()
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the share holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Read-only view of the share values.
    #[must_use]
    pub fn as_tensor(&self) -> &RingTensor {
        &self.0
    }

    /// Consumes the wrapper, returning the share values.
    #[must_use]
    pub fn into_tensor(self) -> RingTensor {
        self.0
    }

    /// C-C addition: `⟦x + y⟧ ← (x_i + y_i, x_j + y_j)`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &AShare) -> Result<AShare, ShapeError> {
        Ok(AShare(self.0.add(&other.0)?))
    }

    /// C-C subtraction: `⟦x − y⟧`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &AShare) -> Result<AShare, ShapeError> {
        Ok(AShare(self.0.sub(&other.0)?))
    }

    /// Negation: `⟦−x⟧ ← (−x_i, −x_j)`.
    #[must_use]
    pub fn neg(&self) -> AShare {
        let ring = self.ring();
        AShare(self.0.map(|v| ring.neg(v)))
    }

    /// P-C addition of a public constant.
    ///
    /// Only the [`PartyId::User`] (index 0) share absorbs the constant, so
    /// that recovery yields `x + a` exactly once. (The paper's Sec. 4.1.3
    /// writes `(a + x_i, a + x_j)`, which under `rec` would add `2a`; we use
    /// the standard single-party convention.)
    #[must_use]
    pub fn add_plain(&self, party: PartyId, a: u64) -> AShare {
        if party == PartyId::User {
            let ring = self.ring();
            AShare(self.0.map(|v| ring.add(v, a)))
        } else {
            self.clone()
        }
    }

    /// P-C addition of a public tensor (same single-party convention as
    /// [`AShare::add_plain`]).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::ShapeMismatch`] if shapes differ.
    pub fn add_plain_tensor(&self, party: PartyId, a: &RingTensor) -> Result<AShare, ShapeError> {
        if party == PartyId::User {
            Ok(AShare(self.0.add(a)?))
        } else {
            Ok(self.clone())
        }
    }

    /// P-C multiplication by a public constant: `⟦a·x⟧ ← (a·x_i, a·x_j)`.
    #[must_use]
    pub fn mul_plain(&self, a: u64) -> AShare {
        let ring = self.ring();
        AShare(self.0.map(|v| ring.mul(v, a)))
    }

    /// Left shift (multiplication by `2^s`), an AS-ALU primitive.
    #[must_use]
    pub fn shl(&self, s: u32) -> AShare {
        let ring = self.ring();
        AShare(self.0.map(|v| ring.shl(v, s)))
    }

    /// Local ring-size extension by sign extension of the share — the
    /// paper's "Ring Size Extension" (Fig. 8 step 4).
    ///
    /// Correct with probability `1 − ≈|X|/2^ℓ` per element; see
    /// [`aq2pnn_ring::extend`] for the analysis and the protocol crate for
    /// the exact strategy.
    #[must_use]
    pub fn extend_local(&self, target: Ring) -> AShare {
        AShare(self.0.recast(target))
    }

    /// Local ring narrowing (wrapping) — used when truncating `Q2 → Q1`
    /// after BNReQ.
    #[must_use]
    pub fn narrow(&self, target: Ring) -> AShare {
        self.extend_local(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Ring, RingTensor, AShare, AShare) {
        let q = Ring::new(16);
        let mut rng = StdRng::seed_from_u64(42);
        let x = RingTensor::from_signed(q, vec![4], &[5, -9, 1000, -32768]).unwrap();
        let (a, b) = AShare::share(&x, &mut rng);
        (q, x, a, b)
    }

    #[test]
    fn share_recover_roundtrip() {
        let (_, x, a, b) = setup();
        assert_eq!(AShare::recover(&a, &b).unwrap(), x);
    }

    #[test]
    fn cc_add_matches_plaintext() {
        let q = Ring::new(12);
        let mut rng = StdRng::seed_from_u64(3);
        let x = RingTensor::from_signed(q, vec![3], &[1, -2, 3]).unwrap();
        let y = RingTensor::from_signed(q, vec![3], &[10, 20, -30]).unwrap();
        let (xi, xj) = AShare::share(&x, &mut rng);
        let (yi, yj) = AShare::share(&y, &mut rng);
        let si = xi.add(&yi).unwrap();
        let sj = xj.add(&yj).unwrap();
        assert_eq!(AShare::recover(&si, &sj).unwrap(), x.add(&y).unwrap());
    }

    #[test]
    fn pc_add_single_party() {
        let (q, x, a, b) = setup();
        let a2 = a.add_plain(PartyId::User, 7);
        let b2 = b.add_plain(PartyId::ModelProvider, 7);
        let rec = AShare::recover(&a2, &b2).unwrap();
        let expect = x.map(|v| q.add(v, 7));
        assert_eq!(rec, expect);
    }

    #[test]
    fn pc_mul_both_parties() {
        let (q, x, a, b) = setup();
        let rec = AShare::recover(&a.mul_plain(3), &b.mul_plain(3)).unwrap();
        assert_eq!(rec, x.map(|v| q.mul(v, 3)));
    }

    #[test]
    fn neg_recovers_negation() {
        let (q, x, a, b) = setup();
        let rec = AShare::recover(&a.neg(), &b.neg()).unwrap();
        assert_eq!(rec, x.map(|v| q.neg(v)));
    }

    #[test]
    fn shl_is_mul_by_power_of_two() {
        let (_, _, a, b) = setup();
        assert_eq!(
            AShare::recover(&a.shl(3), &b.shl(3)).unwrap(),
            AShare::recover(&a.mul_plain(8), &b.mul_plain(8)).unwrap()
        );
    }

    #[test]
    fn extend_local_small_secret_exact() {
        // Small secrets extend correctly with overwhelming probability; with
        // a fixed seed this vector is deterministic and exact.
        let q12 = Ring::new(12);
        let q16 = Ring::new(16);
        let mut rng = StdRng::seed_from_u64(9);
        let x = RingTensor::from_signed(q12, vec![3], &[4, -6, 20]).unwrap();
        let (a, b) = AShare::share(&x, &mut rng);
        let (ea, eb) = (a.extend_local(q16), b.extend_local(q16));
        let rec = AShare::recover(&ea, &eb).unwrap();
        assert_eq!(rec.to_signed(), vec![4, -6, 20]);
        assert_eq!(rec.ring(), q16);
    }

    #[test]
    fn share_randomness_differs_across_calls() {
        let q = Ring::new(16);
        let mut rng = StdRng::seed_from_u64(11);
        let x = RingTensor::zeros(q, vec![8]);
        let (a1, _) = AShare::share(&x, &mut rng);
        let (a2, _) = AShare::share(&x, &mut rng);
        assert_ne!(a1, a2);
    }
}
