//! Trusted dealer for offline pre-computation.
//!
//! The paper stores pre-computed triples in the AS-CST buffer and notes that
//! "the multiplication triple can be generated using homomorphic encryption
//! or with oblivious transfer" (Sec. 4.1.2). Offline triple generation is
//! orthogonal to the accelerator design, so this reproduction uses the
//! standard *trusted dealer* model for the offline phase: a
//! [`TripleDealer`] seeded with a shared seed samples the correlated
//! randomness and hands each party its half. The online protocol —
//! everything the paper measures — is unchanged.

use crate::beaver::{ring_hadamard, ring_matmul, MatRhs, TripleShare};
use crate::{AShare, PartyId};
use aq2pnn_ring::{Ring, RingTensor};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;

/// Deterministic trusted dealer producing Beaver triples and other
/// correlated randomness for both parties.
///
/// # Example
///
/// ```
/// use aq2pnn_ring::Ring;
/// use aq2pnn_sharing::{beaver::ring_matmul, dealer::TripleDealer, AShare};
///
/// let mut dealer = TripleDealer::from_seed(7);
/// let q = Ring::new(16);
/// let (t0, t1) = dealer.matmul_triple(q, 2, 3, 4);
/// // Z = A ⊗ B holds across the two parties' shares.
/// let a = AShare::recover(&AShare::from_tensor(t0.a.clone()), &AShare::from_tensor(t1.a.clone()))?;
/// let b = AShare::recover(&AShare::from_tensor(t0.b.clone()), &AShare::from_tensor(t1.b.clone()))?;
/// let z = AShare::recover(&AShare::from_tensor(t0.z.clone()), &AShare::from_tensor(t1.z.clone()))?;
/// assert_eq!(z, ring_matmul(&a, &b)?);
/// # Ok::<(), aq2pnn_ring::ShapeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TripleDealer {
    rng: ChaCha20Rng,
}

impl TripleDealer {
    /// Creates a dealer from a 64-bit seed (deterministic, reproducible
    /// across the two parties of an experiment).
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        TripleDealer { rng: ChaCha20Rng::seed_from_u64(seed) }
    }

    /// Samples a matrix-product triple: `A[m,k]`, `B[k,n]`, `Z = A ⊗ B`,
    /// each additively shared. Returns party 0's and party 1's halves.
    pub fn matmul_triple(
        &mut self,
        ring: Ring,
        m: usize,
        k: usize,
        n: usize,
    ) -> (TripleShare, TripleShare) {
        let a = RingTensor::random(ring, vec![m, k], &mut self.rng);
        let b = RingTensor::random(ring, vec![k, n], &mut self.rng);
        let z = ring_matmul(&a, &b).expect("dealer shapes are consistent");
        self.split(a, b, z)
    }

    /// Samples a *structured* matrix triple where the left mask is stored
    /// compactly and expanded through a public linear map before the
    /// product: `Z = expand(A) ⊗ B`.
    ///
    /// This is how convolution triples stay input-sized: `A` has the shape
    /// of the feature map and `expand` is im2col, so the online `E = IN − A`
    /// exchange costs `|feature map|` elements instead of `k²` times that.
    ///
    /// # Panics
    ///
    /// Panics if `expand(A)`'s shape is incompatible with `B`.
    pub fn expanded_matmul_triple(
        &mut self,
        ring: Ring,
        a_shape: &[usize],
        b_shape: &[usize],
        expand: impl Fn(&RingTensor) -> RingTensor,
    ) -> (TripleShare, TripleShare) {
        let a = RingTensor::random(ring, a_shape.to_vec(), &mut self.rng);
        let b = RingTensor::random(ring, b_shape.to_vec(), &mut self.rng);
        let z = ring_matmul(&expand(&a), &b).expect("expand(A) must be conformable with B");
        self.split(a, b, z)
    }

    /// Creates `party`'s half of a reusable expanded-triple lane for one
    /// static-shape layer (see [`TripleLane`]), with that party's share of
    /// the lane's fixed `B` for the one-time `F = W − B` opening. Both
    /// halves consume the dealer stream identically, so both parties'
    /// dealer replicas must call in the same order with the same shapes.
    /// Only the provider's half demotes `B`: it alone forms `Z`.
    ///
    /// # Panics
    ///
    /// Panics if `b_shape` is not rank-2.
    pub fn expanded_lane(
        &mut self,
        party: PartyId,
        ring: Ring,
        a_shape: &[usize],
        b_shape: &[usize],
    ) -> (TripleLane, RingTensor) {
        let b = RingTensor::random(ring, b_shape.to_vec(), &mut self.rng);
        let (b0, b1) = AShare::share(&b, &mut self.rng);
        // Lane-local PRG, identical on both halves so the parties advance
        // their per-inference triple streams in lockstep.
        let rng = ChaCha20Rng::seed_from_u64(self.rng.gen::<u64>());
        let (b_plain, b_share) = match party {
            PartyId::User => (None, b0),
            PartyId::ModelProvider => {
                (Some(MatRhs::new(&b).expect("lane B is rank-2").into_owned()), b1)
            }
        };
        let lane = TripleLane { ring, a_shape: a_shape.to_vec(), n: b_shape[1], b_plain, rng };
        (lane, b_share.into_tensor())
    }

    /// Samples an elementwise (Hadamard) triple over `shape`.
    pub fn elementwise_triple(
        &mut self,
        ring: Ring,
        shape: &[usize],
    ) -> (TripleShare, TripleShare) {
        let a = RingTensor::random(ring, shape.to_vec(), &mut self.rng);
        let b = RingTensor::random(ring, shape.to_vec(), &mut self.rng);
        let z = ring_hadamard(&a, &b).expect("dealer shapes are consistent");
        self.split(a, b, z)
    }

    /// Samples a fresh sharing of a *known* plaintext tensor — the dealer
    /// side of idealized functionalities (exact truncation / extension).
    pub fn reshare(&mut self, x: &RingTensor) -> (AShare, AShare) {
        AShare::share(x, &mut self.rng)
    }

    /// Samples shared random bits `(r_i, r_j)` with `r = r_i ⊕ r_j`, plus
    /// the arithmetic sharing of each `r` — "daBits", consumed by
    /// boolean-to-arithmetic conversions.
    pub fn dabits(&mut self, ring: Ring, n: usize) -> (DaBitShare, DaBitShare) {
        use rand::Rng;
        let plain: Vec<u8> = (0..n).map(|_| self.rng.gen::<u8>() & 1).collect();
        let (b0, b1) = crate::BShare::share(&plain, &mut self.rng);
        let arith =
            RingTensor::from_raw(ring, vec![n], plain.iter().map(|&b| u64::from(b)).collect())
                .expect("length matches");
        let (a0, a1) = AShare::share(&arith, &mut self.rng);
        (DaBitShare { boolean: b0, arith: a0 }, DaBitShare { boolean: b1, arith: a1 })
    }

    fn split(&mut self, a: RingTensor, b: RingTensor, z: RingTensor) -> (TripleShare, TripleShare) {
        let (a0, a1) = AShare::share(&a, &mut self.rng);
        let (b0, b1) = AShare::share(&b, &mut self.rng);
        let (z0, z1) = AShare::share(&z, &mut self.rng);
        (
            TripleShare { a: a0.into_tensor(), b: b0.into_tensor(), z: z0.into_tensor() },
            TripleShare { a: a1.into_tensor(), b: b1.into_tensor(), z: z1.into_tensor() },
        )
    }
}

/// One party's share of one lane draw: a fresh input mask `A` and the
/// product `Z = expand(A) ⊗ B` against the lane's fixed `B`. It carries
/// no `B` share: `B` is fixed for the lane's lifetime and its `F = W − B`
/// was opened once, at preparation time.
#[derive(Clone, PartialEq, Eq)]
pub struct LaneTriple {
    /// Share of the compact input mask `A` (the lane's `a_shape`).
    pub a: RingTensor,
    /// Share of `Z = expand(A) ⊗ B` (`[rows of expand(A), n]`).
    pub z: RingTensor,
}

/// `Debug` redacts the mask words, as [`TripleShare`]'s does: a party's
/// `A` share unmasks the opened `E = IN − A`. Shapes are public geometry.
impl std::fmt::Debug for LaneTriple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneTriple")
            .field("ring_bits", &self.a.ring().bits())
            .field("a_shape", &self.a.shape())
            .field("z_shape", &self.z.shape())
            .field("values", &"<redacted>")
            .finish()
    }
}

/// One party's half of a reusable per-layer triple stream — the offline
/// material a *prepared* model keeps resident between inferences.
///
/// The weight mask `B` is sampled **once** at lane creation and reused for
/// the lifetime of the lane: it masks a static weight matrix, exactly like
/// the paper's pre-deployed AS-WGT-MSK buffer, so its one-time `F = W − B`
/// opening never has to be repeated. Each call to [`TripleLane::next`]
/// draws a **fresh** input mask `A` and product share of
/// `Z = expand(A) ⊗ B` from a lane-local PRG that both parties advance in
/// lockstep. `A` must be fresh per inference — reusing it would open
/// `E = IN − A` under the same mask twice and leak the difference of two
/// private inputs.
#[derive(Debug, Clone)]
pub struct TripleLane {
    ring: Ring,
    a_shape: Vec<usize>,
    /// Columns of `B` (and of every `Z`).
    n: usize,
    // Dealer-held plaintext B, pre-demoted for the Z product. Holding it
    // inside the lane keeps the trusted-dealer model of this crate: the
    // dealer state embedded in each party's context already sees all
    // plaintext masks. Only party 1's half holds it: party 0's `Z` share
    // is the random half of the split, so its draws never form `Z`.
    b_plain: Option<MatRhs<'static>>,
    rng: ChaCha20Rng,
}

impl TripleLane {
    /// The ring the lane's triples live in.
    #[must_use]
    pub fn ring(&self) -> Ring {
        self.ring
    }

    /// The shape of the compact input mask `A`.
    #[must_use]
    pub fn a_shape(&self) -> &[usize] {
        &self.a_shape
    }

    /// Draws this party's share of the next triple: a fresh `A` and
    /// `Z = expand(A) ⊗ B` against the lane's fixed `B`. Both parties must
    /// call in lockstep with the same (public, linear) `expand`.
    ///
    /// Both halves consume the lane PRG identically — `A`, then `A`'s
    /// split, then `Z`'s split — so party 0 draws its shares as the random
    /// halves of those splits without computing the product.
    pub fn next(&mut self, expand: impl Fn(&RingTensor) -> RingTensor) -> LaneTriple {
        let a = RingTensor::random(self.ring, self.a_shape.clone(), &mut self.rng);
        let a_ex = expand(&a);
        let (a0, a1) = AShare::share(&a, &mut self.rng);
        match &self.b_plain {
            None => {
                let z_shape = vec![a_ex.shape()[0], self.n];
                let z0 = RingTensor::random(self.ring, z_shape, &mut self.rng);
                LaneTriple { a: a0.into_tensor(), z: z0 }
            }
            Some(b) => {
                let z = b.matmul(&a_ex).expect("expand(A) must be conformable with B");
                let (_z0, z1) = AShare::share(&z, &mut self.rng);
                LaneTriple { a: a1.into_tensor(), z: z1.into_tensor() }
            }
        }
    }
}

/// One party's share of a batch of daBits: the same random bits shared both
/// as XOR bits and as arithmetic ring elements.
#[derive(Clone)]
pub struct DaBitShare {
    /// XOR sharing of the bits.
    pub boolean: crate::BShare,
    /// Additive sharing of the same bits as `{0,1} ⊂ Z_Q`.
    pub arith: AShare,
}

impl std::fmt::Debug for DaBitShare {
    /// Redacts both component shares; their own `Debug` impls redact too,
    /// so this only prints the batch length.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DaBitShare {{ len: {}, boolean/arith: <redacted> }}", self.arith.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BShare;

    fn rec(a: &TripleShare, b: &TripleShare) -> (RingTensor, RingTensor, RingTensor) {
        let r = |x: &RingTensor, y: &RingTensor| x.add(y).unwrap();
        (r(&a.a, &b.a), r(&a.b, &b.b), r(&a.z, &b.z))
    }

    #[test]
    fn matmul_triple_is_consistent() {
        let mut d = TripleDealer::from_seed(1);
        let q = Ring::new(16);
        let (t0, t1) = d.matmul_triple(q, 3, 5, 2);
        let (a, b, z) = rec(&t0, &t1);
        assert_eq!(z, ring_matmul(&a, &b).unwrap());
        assert_eq!(t0.ring(), q);
    }

    #[test]
    fn elementwise_triple_is_consistent() {
        let mut d = TripleDealer::from_seed(2);
        let q = Ring::new(12);
        let (t0, t1) = d.elementwise_triple(q, &[4, 4]);
        let (a, b, z) = rec(&t0, &t1);
        assert_eq!(z, ring_hadamard(&a, &b).unwrap());
    }

    #[test]
    fn dealer_is_deterministic() {
        let q = Ring::new(16);
        let (x0, _) = TripleDealer::from_seed(9).matmul_triple(q, 2, 2, 2);
        let (y0, _) = TripleDealer::from_seed(9).matmul_triple(q, 2, 2, 2);
        assert_eq!(x0.a, y0.a);
    }

    #[test]
    fn lane_triples_consistent_with_fixed_b_and_fresh_a() {
        let mut d0 = TripleDealer::from_seed(11);
        let mut d1 = d0.clone();
        let q = Ring::new(16);
        let (mut l0, b0) = d0.expanded_lane(PartyId::User, q, &[3, 4], &[4, 2]);
        let (mut l1, b1) = d1.expanded_lane(PartyId::ModelProvider, q, &[3, 4], &[4, 2]);
        let b = b0.add(&b1).unwrap();
        let ident = |t: &RingTensor| t.clone();
        let (t0a, t1a) = (l0.next(ident), l1.next(ident));
        let (t0b, t1b) = (l0.next(ident), l1.next(ident));
        let open_a = |t0: &LaneTriple, t1: &LaneTriple| t0.a.add(&t1.a).unwrap();
        for (t0, t1) in [(&t0a, &t1a), (&t0b, &t1b)] {
            // Every draw is a triple against the lane's one fixed B.
            assert_eq!(t0.z.add(&t1.z).unwrap(), ring_matmul(&open_a(t0, t1), &b).unwrap());
        }
        // A must be fresh per draw.
        assert_ne!(open_a(&t0a, &t1a), open_a(&t0b, &t1b));
    }

    #[test]
    fn dabits_consistent_across_domains() {
        let mut d = TripleDealer::from_seed(3);
        let q = Ring::new(16);
        let (s0, s1) = d.dabits(q, 32);
        let bits = BShare::recover(&s0.boolean, &s1.boolean);
        let arith = AShare::recover(&s0.arith, &s1.arith).unwrap();
        for (b, a) in bits.iter().zip(arith.to_signed()) {
            assert_eq!(i64::from(*b), a);
        }
    }

    #[test]
    fn reshare_recovers_original() {
        let mut d = TripleDealer::from_seed(4);
        let q = Ring::new(16);
        let x = RingTensor::from_signed(q, vec![3], &[7, -7, 0]).unwrap();
        let (a, b) = d.reshare(&x);
        assert_eq!(AShare::recover(&a, &b).unwrap(), x);
    }
}
