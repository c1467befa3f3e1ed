//! Idealized two-party functionalities for correctness baselines.
//!
//! The `Exact` truncation/extension modes of [`crate::ProtocolConfig`]
//! model a *correct* (but more expensive) share-conversion protocol as an
//! ideal functionality: both parties hand their shares to a trusted oracle
//! that reconstructs, applies the exact operation, and deals fresh shares
//! back. This is the standard simulation device for isolating the error
//! introduced by the paper's local (probabilistic) share operations — the
//! ablation benches compare `Local` vs `Exact` end to end.
//!
//! The oracle only exists in the in-process simulator; the paper-faithful
//! configuration ([`crate::ProtocolConfig::paper`]) never touches it.

use aq2pnn_parallel::sync::{Condvar, Mutex};
use aq2pnn_ring::{extend, Ring, RingTensor};
use aq2pnn_sharing::{AShare, PartyId};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

/// The exact share operation to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdealOp {
    /// Arithmetic right shift by `shift` bits (flooring), staying on the
    /// same ring.
    Truncate {
        /// Shift amount.
        shift: u32,
    },
    /// Exact move to another ring (sign-preserving).
    Recast {
        /// Target ring width.
        to_bits: u32,
    },
}

#[derive(Default)]
struct State {
    /// Share deposited by the first arriving party (identity, share, op,
    /// pair generation).
    pending: Option<(PartyId, RingTensor, IdealOp, u64)>,
    /// Fresh shares for (party 0, party 1) once computed, tagged with the
    /// pair generation they answer.
    results: Option<(u64, RingTensor, RingTensor)>,
    /// How many parties have picked up the current result.
    picked: u8,
    /// Next pair generation.
    generation: u64,
}

/// Rendezvous-based trusted oracle shared by the two party threads.
#[derive(Debug)]
pub struct IdealOracle {
    state: Mutex<StateWrap>,
    cv: Condvar,
}

struct StateWrap {
    s: State,
    rng: ChaCha20Rng,
}

impl std::fmt::Debug for StateWrap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateWrap").finish_non_exhaustive()
    }
}

impl IdealOracle {
    /// Creates an oracle with deterministic resharing randomness.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        IdealOracle {
            state: Mutex::new(StateWrap {
                s: State::default(),
                rng: ChaCha20Rng::seed_from_u64(seed),
            }),
            cv: Condvar::new(),
        }
    }

    /// Performs `op` on the jointly-held secret: blocks until both parties
    /// have called with their shares, then returns each party's fresh share
    /// of the exact result.
    ///
    /// Both parties must call in the same protocol order with the same
    /// `op`.
    ///
    /// # Panics
    ///
    /// Panics if the two parties call with mismatched operations or shapes
    /// (a protocol desync).
    #[must_use]
    // secrecy: declassify — the ideal oracle IS the trusted third party: it
    // reconstructs the plaintext by definition and re-shares the result.
    pub fn call(&self, party: PartyId, share: RingTensor, op: IdealOp) -> RingTensor {
        let mut guard = self.state.lock();
        let my_gen;
        if let Some((other, other_share, other_op, gen)) = guard.s.pending.take() {
            assert_ne!(other, party, "same party called the oracle twice");
            assert_eq!(other_op, op, "parties disagree on the ideal operation");
            my_gen = gen;
            let (s0, s1) =
                if party == PartyId::User { (share, other_share) } else { (other_share, share) };
            let plain = AShare::recover(&AShare::from_tensor(s0), &AShare::from_tensor(s1))
                .expect("oracle shares must agree in shape");
            let ring = plain.ring();
            let exact = match op {
                IdealOp::Truncate { shift } => plain.map(|v| ring.shr_arithmetic(v, shift)),
                IdealOp::Recast { to_bits } => {
                    let to = Ring::new(to_bits);
                    let data = plain.iter().map(|&v| extend::sign_extend(ring, to, v)).collect();
                    RingTensor::from_raw(to, plain.shape().to_vec(), data).expect("shape unchanged")
                }
            };
            let (f0, f1) = AShare::share(&exact, &mut guard.rng);
            guard.s.results = Some((my_gen, f0.into_tensor(), f1.into_tensor()));
            guard.s.picked = 0;
            self.cv.notify_all();
        } else {
            my_gen = guard.s.generation;
            guard.s.generation += 1;
            guard.s.pending = Some((party, share, op, my_gen));
        }
        // Wait for this pair's result and take this party's half.
        loop {
            if let Some((gen, r0, r1)) = guard.s.results.clone() {
                if gen == my_gen {
                    let mine = if party == PartyId::User { r0 } else { r1 };
                    guard.s.picked += 1;
                    if guard.s.picked == 2 {
                        guard.s.results = None;
                    }
                    self.cv.notify_all();
                    return mine;
                }
            }
            guard = self.cv.wait(guard);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use std::sync::Arc;

    #[test]
    fn exact_truncation_via_oracle() {
        let oracle = Arc::new(IdealOracle::new(5));
        let q = Ring::new(16);
        let mut rng = StdRng::seed_from_u64(2);
        let x = RingTensor::from_signed(q, vec![3], &[100, -101, 7]).unwrap();
        let (a, b) = AShare::share(&x, &mut rng);
        let o2 = Arc::clone(&oracle);
        let bt = b.into_tensor();
        let h = std::thread::spawn(move || {
            o2.call(PartyId::ModelProvider, bt, IdealOp::Truncate { shift: 2 })
        });
        let ra = oracle.call(PartyId::User, a.into_tensor(), IdealOp::Truncate { shift: 2 });
        let rb = h.join().unwrap();
        let rec = AShare::recover(&AShare::from_tensor(ra), &AShare::from_tensor(rb)).unwrap();
        assert_eq!(rec.to_signed(), vec![25, -26, 1]);
    }

    #[test]
    fn exact_recast_via_oracle() {
        let oracle = Arc::new(IdealOracle::new(6));
        let q = Ring::new(12);
        let mut rng = StdRng::seed_from_u64(3);
        let x = RingTensor::from_signed(q, vec![2], &[-2000, 1999]).unwrap();
        let (a, b) = AShare::share(&x, &mut rng);
        let o2 = Arc::clone(&oracle);
        let bt = b.into_tensor();
        let h = std::thread::spawn(move || {
            o2.call(PartyId::ModelProvider, bt, IdealOp::Recast { to_bits: 24 })
        });
        let ra = oracle.call(PartyId::User, a.into_tensor(), IdealOp::Recast { to_bits: 24 });
        let rb = h.join().unwrap();
        let rec = AShare::recover(&AShare::from_tensor(ra), &AShare::from_tensor(rb)).unwrap();
        assert_eq!(rec.ring(), Ring::new(24));
        assert_eq!(rec.to_signed(), vec![-2000, 1999]);
    }

    #[test]
    fn sequential_calls_reuse_oracle() {
        let oracle = Arc::new(IdealOracle::new(7));
        let q = Ring::new(16);
        let mut rng = StdRng::seed_from_u64(4);
        for round in 0..3i64 {
            let x = RingTensor::from_signed(q, vec![1], &[round * 64]).unwrap();
            let (a, b) = AShare::share(&x, &mut rng);
            let o2 = Arc::clone(&oracle);
            let bt = b.into_tensor();
            let h = std::thread::spawn(move || {
                o2.call(PartyId::ModelProvider, bt, IdealOp::Truncate { shift: 3 })
            });
            let ra = oracle.call(PartyId::User, a.into_tensor(), IdealOp::Truncate { shift: 3 });
            let rb = h.join().unwrap();
            let rec = AShare::recover(&AShare::from_tensor(ra), &AShare::from_tensor(rb)).unwrap();
            assert_eq!(rec.to_signed(), vec![round * 8]);
        }
    }
}
