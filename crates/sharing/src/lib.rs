//! Additive (2,2) secret sharing for AQ2PNN.
//!
//! Implements paper Definitions 2–3: a value `x ∈ Z_Q` is split as
//! `⟦x⟧ ← (r, x − r)` between party *i* and party *j*; recovery computes
//! `(x_i + x_j) mod Q`. On top of the plain sharing this crate provides:
//!
//! * [`AShare`] / [`BShare`] — arithmetic and binary (XOR) share tensors,
//!   newtypes so shares cannot be confused with plaintext.
//! * AS-ALU local operations (paper Sec. 4.1.3): C-C addition, P-C
//!   addition/multiplication, negation — everything that needs no
//!   communication.
//! * [`beaver`] — Beaver multiplication triples `⟦Z⟧ = ⟦A⟧·⟦B⟧` (elementwise
//!   and matrix form) produced by a [`dealer::TripleDealer`], the
//!   pre-computed AS-CST buffer contents, and the ring GEMM
//!   ([`beaver::ring_matmul`]) that runs the u32/u64 accumulators on the
//!   host's AVX2/AVX-512 `axpy` kernels (DESIGN.md §7.4).
//! * [`a2b`] — the bit-grouping at the heart of the A2BM (paper
//!   Sec. 4.3.2): an ℓ-bit value splits into two 1-bit MSB groups plus
//!   2-bit groups, each later driven through a `(1, 2^w)`-OT.
//! * [`trunc`] — share truncation for 2PC-BNReQ: the SecureML-style local
//!   truncation the hardware uses (probabilistically correct) and an
//!   idealized exact functionality for ablations.
//!
//! # Example
//!
//! ```
//! use aq2pnn_ring::{Ring, RingTensor};
//! use aq2pnn_sharing::AShare;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let q = Ring::new(16);
//! let mut rng = StdRng::seed_from_u64(1);
//! let x = RingTensor::from_signed(q, vec![3], &[4, -7, 100])?;
//! let (xi, xj) = AShare::share(&x, &mut rng);
//! assert_eq!(AShare::recover(&xi, &xj)?, x);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod a2b;
mod ashare;
pub mod beaver;
mod binary;
pub mod dealer;
#[cfg(test)]
mod kernels;
mod party;
pub mod trunc;

pub use ashare::AShare;
pub use binary::BShare;
pub use party::PartyId;
