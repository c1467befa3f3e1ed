//! Exhaustive correctness of the batched nonlinear engine.
//!
//! `secure_sign` must return the plaintext sign of `(x_0 + x_1) mod Q` for
//! every share pair, and its wire transcript (`ChannelStats`: bytes,
//! messages, rounds, per-phase) must be a deterministic function of the
//! inputs that both parties see mirrored. This file pins that exhaustively
//! on a small ring (ℓ = 6: every `(x_0, x_1)` share pair) across
//! {Single, Lazy} × {RevealedSign, MaskedMux}, plus a large batch on the
//! paper's ℓ = 16 ring, which also guards the OT group's LUT path: no
//! engine run on an ℓ ≤ 20 ring may fall back to square-and-multiply.

use aq2pnn::abrelu::secure_sign;
use aq2pnn::sim::run_pair;
use aq2pnn::{ProtocolConfig, ReluMode, ReluRounds};
use aq2pnn_ot::lut_fallback_hits;
use aq2pnn_ring::{Ring, RingTensor};
use aq2pnn_sharing::{AShare, PartyId};
use aq2pnn_transport::ChannelStats;

/// Both parties' observable outcome of one batched `secure_sign` run: the
/// receiver's flags, the sender's flags (revealed mode only), and both
/// transcripts.
type SignRun = ((Option<Vec<u8>>, ChannelStats), (Option<Vec<u8>>, ChannelStats));

/// Runs `secure_sign` over the given per-party share vectors.
fn run_sign(cfg: &ProtocolConfig, s0: Vec<u64>, s1: Vec<u64>, mode: ReluMode) -> SignRun {
    let ring = cfg.q1();
    run_pair(cfg, move |ctx| {
        let raw = match ctx.id {
            PartyId::User => s0.clone(),
            PartyId::ModelProvider => s1.clone(),
        };
        assert_eq!(ctx.group.lut_backed(), ctx.cfg.q1_bits <= 20, "ℓ ≤ 20 groups are LUT-backed");
        let t = RingTensor::from_raw(ring, vec![raw.len()], raw).unwrap();
        let share = AShare::from_tensor(t);
        ctx.ep.reset_stats();
        let flags = secure_sign(ctx, &share, mode).unwrap();
        (flags.flags, ctx.ep.stats())
    })
}

/// Runs the same batch twice and checks the transcripts: identical across
/// the two runs, and each party receives exactly what the other sent.
fn run_sign_twice(cfg: &ProtocolConfig, s0: &[u64], s1: &[u64], mode: ReluMode) -> SignRun {
    let first = run_sign(cfg, s0.to_vec(), s1.to_vec(), mode);
    let second = run_sign(cfg, s0.to_vec(), s1.to_vec(), mode);
    let ((_, user), (_, provider)) = &first;
    assert_eq!(user, &second.0 .1, "user transcript drifted: {:?} {mode:?}", cfg.relu_rounds);
    assert_eq!(provider, &second.1 .1, "provider transcript drifted: {:?}", cfg.relu_rounds);
    assert_eq!(user.bytes_sent, provider.bytes_received);
    assert_eq!(user.messages_sent, provider.messages_received);
    assert_eq!(provider.bytes_sent, user.bytes_received);
    assert_eq!(provider.messages_sent, user.messages_received);
    first
}

/// Every (x_0, x_1) share pair of the ℓ=6 ring as one 4096-element batch.
fn exhaustive_shares(ring: Ring) -> (Vec<u64>, Vec<u64>, Vec<u8>) {
    let q = 1u64 << ring.bits();
    let mut s0 = Vec::with_capacity((q * q) as usize);
    let mut s1 = Vec::with_capacity((q * q) as usize);
    let mut expect = Vec::with_capacity((q * q) as usize);
    for x0 in 0..q {
        for x1 in 0..q {
            s0.push(x0);
            s1.push(x1);
            expect.push(u8::from(ring.decode_signed(ring.add(x0, x1)) > 0));
        }
    }
    (s0, s1, expect)
}

#[test]
fn exhaustive_l6_all_modes() {
    let ring = Ring::new(6);
    let (s0, s1, expect) = exhaustive_shares(ring);
    for rounds in [ReluRounds::Single, ReluRounds::Lazy] {
        for mode in [ReluMode::RevealedSign, ReluMode::MaskedMux] {
            let mut cfg = ProtocolConfig::paper(6);
            cfg.relu_rounds = rounds;
            cfg.relu_mode = mode;
            let ((user, _), (provider, _)) = run_sign_twice(&cfg, &s0, &s1, mode);
            // Receiver flags match the plaintext sign of (x_0 + x_1) mod Q.
            assert_eq!(provider.as_deref(), Some(&expect[..]), "rounds={rounds:?} mode={mode:?}");
            // Revealed mode: sender learns the same flags; masked: none.
            match mode {
                ReluMode::RevealedSign => assert_eq!(user.as_deref(), Some(&expect[..])),
                ReluMode::MaskedMux => assert!(user.is_none()),
            }
        }
    }
}

/// The same checks on the paper's ℓ = 16 ring with a large batch (9 groups,
/// 32 OT slots/item), plus the LUT guard: the engine's groups are
/// LUT-backed at this width and no `pow` misses the tables
/// ([`lut_fallback_hits`] stays flat across each run).
#[test]
fn wide_ring_large_batch() {
    let ring = Ring::new(16);
    let n = 4096usize;
    let s0: Vec<u64> = (0..n as u64).map(|i| (i * 0x9e37_79b9) & ring.mask()).collect();
    let s1: Vec<u64> = (0..n as u64).map(|i| (i * 0x85eb_ca6b + 17) & ring.mask()).collect();
    let expect: Vec<u8> = s0
        .iter()
        .zip(&s1)
        .map(|(&a, &b)| u8::from(ring.decode_signed(ring.add(a, b)) > 0))
        .collect();
    for rounds in [ReluRounds::Single, ReluRounds::Lazy] {
        let mut cfg = ProtocolConfig::paper(16);
        cfg.relu_rounds = rounds;
        let fallbacks_before = lut_fallback_hits();
        let ((user, _), (provider, _)) = run_sign_twice(&cfg, &s0, &s1, ReluMode::RevealedSign);
        assert_eq!(lut_fallback_hits(), fallbacks_before, "engine left the LUT path: {rounds:?}");
        assert_eq!(provider.as_deref(), Some(&expect[..]), "rounds={rounds:?}");
        assert_eq!(user.as_deref(), Some(&expect[..]), "rounds={rounds:?}");
    }
}
