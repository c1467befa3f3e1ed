//! Property-based tests for the secret-sharing substrate.

use aq2pnn_ring::{IsaLevel, Ring, RingTensor};
use aq2pnn_sharing::a2b::{group_count, group_widths, join_groups, split_groups};
use aq2pnn_sharing::beaver::{
    ring_hadamard, ring_matmul, ring_matmul_reference, ring_matmul_with, MatRhs,
};
use aq2pnn_sharing::dealer::{LaneTriple, TripleDealer};
use aq2pnn_sharing::{trunc, AShare, BShare, PartyId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn ring_strategy() -> impl Strategy<Value = Ring> {
    (2u32..=48).prop_map(Ring::new)
}

proptest! {
    #[test]
    fn share_recover_is_identity(
        ring in ring_strategy(),
        raw in proptest::collection::vec(any::<u64>(), 1..32),
        seed in any::<u64>(),
    ) {
        let vals: Vec<u64> = raw.iter().map(|&x| ring.reduce(x)).collect();
        let t = RingTensor::from_raw(ring, vec![vals.len()], vals).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let (a, b) = AShare::share(&t, &mut rng);
        prop_assert_eq!(AShare::recover(&a, &b).unwrap(), t);
    }

    #[test]
    fn local_ops_commute_with_recovery(
        ring in ring_strategy(),
        raw in proptest::collection::vec(any::<u64>(), 8),
        c in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let vals: Vec<u64> = raw.iter().map(|&x| ring.reduce(x)).collect();
        let t = RingTensor::from_raw(ring, vec![8], vals).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let (a, b) = AShare::share(&t, &mut rng);
        // mul_plain
        let rec = AShare::recover(&a.mul_plain(c), &b.mul_plain(c)).unwrap();
        prop_assert_eq!(rec, t.map(|v| ring.mul(v, c)));
        // neg
        let rec = AShare::recover(&a.neg(), &b.neg()).unwrap();
        prop_assert_eq!(rec, t.map(|v| ring.neg(v)));
        // add_plain on one side only
        let rec = AShare::recover(
            &a.add_plain(PartyId::User, c),
            &b.add_plain(PartyId::ModelProvider, c),
        )
        .unwrap();
        prop_assert_eq!(rec, t.map(|v| ring.add(v, c)));
    }

    #[test]
    fn beaver_triples_always_consistent(
        seed in any::<u64>(),
        bits in 4u32..=48,
        m in 1usize..4,
        k in 1usize..4,
        n in 1usize..4,
    ) {
        let ring = Ring::new(bits);
        let mut d = TripleDealer::from_seed(seed);
        let (t0, t1) = d.matmul_triple(ring, m, k, n);
        let a = t0.a.add(&t1.a).unwrap();
        let b = t0.b.add(&t1.b).unwrap();
        let z = t0.z.add(&t1.z).unwrap();
        prop_assert_eq!(z, ring_matmul(&a, &b).unwrap());
    }

    #[test]
    fn blocked_matmul_matches_scalar_reference(
        bits in 1u32..=64,
        m in 1usize..12,
        k in 1usize..12,
        n in 1usize..12,
        seed in any::<u64>(),
    ) {
        // The cache-blocked, mask-deferred kernel must be bit-identical to
        // the scalar per-element reference on every ring width — including
        // the full-u64 ring (mask = !0) and degenerate 1-bit rings — and
        // across row counts exercising both the 4-row quad path and the
        // 1–3-row remainder path.
        let ring = Ring::new(bits);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = RingTensor::random(ring, vec![m, k], &mut rng);
        let b = RingTensor::random(ring, vec![k, n], &mut rng);
        prop_assert_eq!(
            ring_matmul(&a, &b).unwrap(),
            ring_matmul_reference(&a, &b).unwrap()
        );
    }

    #[test]
    fn elementwise_triples_always_consistent(seed in any::<u64>(), bits in 4u32..=48) {
        let ring = Ring::new(bits);
        let mut d = TripleDealer::from_seed(seed);
        let (t0, t1) = d.elementwise_triple(ring, &[5]);
        let a = t0.a.add(&t1.a).unwrap();
        let b = t0.b.add(&t1.b).unwrap();
        let z = t0.z.add(&t1.z).unwrap();
        prop_assert_eq!(z, ring_hadamard(&a, &b).unwrap());
    }

    #[test]
    fn a2b_roundtrip_and_counts(bits in 2u32..=48, raw in any::<u64>()) {
        let ring = Ring::new(bits);
        let x = ring.reduce(raw);
        let groups = split_groups(ring, x);
        prop_assert_eq!(groups.len(), group_count(bits));
        prop_assert_eq!(join_groups(ring, &groups), x);
        let widths = group_widths(bits);
        prop_assert_eq!(widths.iter().sum::<u32>(), bits);
        prop_assert!(widths[0] == 1 && widths[1] == 1);
        for (g, w) in groups.iter().zip(&widths) {
            prop_assert!(u32::from(g.value) < (1 << w));
        }
    }

    #[test]
    fn group_lexicographic_equals_unsigned_order(
        bits in 2u32..=24,
        x in any::<u64>(),
        y in any::<u64>(),
    ) {
        let ring = Ring::new(bits);
        let (x, y) = (ring.reduce(x), ring.reduce(y));
        let gx: Vec<u8> = split_groups(ring, x).iter().map(|g| g.value).collect();
        let gy: Vec<u8> = split_groups(ring, y).iter().map(|g| g.value).collect();
        prop_assert_eq!(gx.cmp(&gy), x.cmp(&y));
    }

    #[test]
    fn bshare_roundtrip(bits in proptest::collection::vec(0u8..2, 1..64), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (a, b) = BShare::share(&bits, &mut rng);
        prop_assert_eq!(BShare::recover(&a, &b), bits);
    }

    #[test]
    fn local_truncation_error_bounded_for_small_secrets(
        v in -(1i64 << 18)..(1i64 << 18),
        s in 0u32..10,
        seed in any::<u64>(),
    ) {
        // On a 40-bit ring the wrap probability for an 18-bit secret is
        // ≈2^-22 — effectively never under proptest case counts.
        let ring = Ring::new(40);
        let t = RingTensor::from_signed(ring, vec![1], &[v]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let (a, b) = AShare::share(&t, &mut rng);
        let ta = trunc::truncate_share_local(PartyId::User, &a, s);
        let tb = trunc::truncate_share_local(PartyId::ModelProvider, &b, s);
        let rec = AShare::recover(&ta, &tb).unwrap().to_signed()[0];
        prop_assert!((rec - (v >> s)).abs() <= 1, "v={v} s={s} rec={rec}");
    }

    #[test]
    fn dabits_always_consistent(seed in any::<u64>(), bits in 4u32..=32) {
        let ring = Ring::new(bits);
        let mut d = TripleDealer::from_seed(seed);
        let (s0, s1) = d.dabits(ring, 16);
        let plain_bits = BShare::recover(&s0.boolean, &s1.boolean);
        let arith = AShare::recover(&s0.arith, &s1.arith).unwrap();
        for (b, a) in plain_bits.iter().zip(arith.to_signed()) {
            prop_assert_eq!(i64::from(*b), a);
        }
    }
}

/// Every ISA's kernels must agree bit-for-bit with the scalar triple-loop
/// reference exactly at the accumulator-width boundaries: around ℓ = 12
/// and 16 (u16 path), 20 (u32 path, the widest paper ring), and 32
/// (u32 → u64 crossover).
///
/// Random shapes keep `n` below the AVX-512 u32 lane count (16), so they
/// only reach the kernels' scalar tails; the GEMM shapes the workloads
/// run (LeNet5 conv2/fc1, the VGG tail conv at batch 1 and 4 rows of
/// batch 8 … 32) and an `m ≡ 3 (mod 4)` quad remainder run the vector
/// bodies too, at the widths where a hand-written kernel is picked. Each
/// right operand is also demoted once into a [`MatRhs`] and reused across
/// several left operands, as a prepared model reuses `F` and `W_i`.
#[test]
fn dispatch_matmul_bit_identical_at_boundary_widths() {
    let check = |m: usize, k: usize, n: usize, lefts: usize, widths: &[u32], rng: &mut StdRng| {
        for &bits in widths {
            let ring = Ring::new(bits);
            let b = RingTensor::random(ring, vec![k, n], rng);
            let rhs = MatRhs::new(&b).unwrap();
            for left in 0..lefts {
                let a = RingTensor::random(ring, vec![m, k], rng);
                let want = ring_matmul_reference(&a, &b).unwrap();
                for isa in IsaLevel::available() {
                    let at = format!("isa={isa} bits={bits} shape={m}x{k}x{n} left={left}");
                    assert_eq!(rhs.matmul_with(isa, &a).unwrap(), want, "reused MatRhs, {at}");
                    if left == 0 {
                        assert_eq!(ring_matmul_with(isa, &a, &b).unwrap(), want, "{at}");
                    }
                }
            }
        }
    };
    let mut rng = StdRng::seed_from_u64(0x5eed_0d15);
    for _ in 0..64 {
        let (m, k, n) = (rng.gen_range(1..10), rng.gen_range(1..10), rng.gen_range(1..10));
        check(m, k, n, 3, &[11, 12, 13, 15, 16, 17, 20, 21, 31, 32, 33], &mut rng);
    }
    let workload_shapes = [
        (100, 150, 16),  // LeNet5 conv2
        (1, 400, 120),   // LeNet5 fc1
        (4, 2304, 256),  // vggtail conv, batch 1
        (32, 2304, 256), // vggtail conv, batch 8
        (7, 33, 47),     // m ≡ 3 (mod 4) quad remainder, odd k and n tails
    ];
    for (m, k, n) in workload_shapes {
        check(m, k, n, 2, &[16, 20, 32, 33], &mut rng);
    }
}

proptest! {
    /// The regrouping that lets party 1 evaluate paper Eq. 1 in two GEMMs:
    /// `(X − E)⊗F + E⊗W ≡ X⊗F + E⊗W − E⊗F (mod 2^ℓ)`, with `F` and `W`
    /// held as [`MatRhs`] on the left side and the reference kernel on
    /// the right, at every accumulator width.
    #[test]
    fn eq1_regrouping_is_exact(
        bits in 2u32..=64,
        (m, k, n) in (1usize..9, 1usize..9, 1usize..9),
        seed in any::<u64>(),
    ) {
        let ring = Ring::new(bits);
        let mut rng = StdRng::seed_from_u64(seed);
        let x = RingTensor::random(ring, vec![m, k], &mut rng);
        let e = RingTensor::random(ring, vec![m, k], &mut rng);
        let f = RingTensor::random(ring, vec![k, n], &mut rng);
        let w = RingTensor::random(ring, vec![k, n], &mut rng);
        let (f_rhs, w_rhs) = (MatRhs::new(&f).unwrap(), MatRhs::new(&w).unwrap());
        let two_gemms =
            f_rhs.matmul(&x.sub(&e).unwrap()).unwrap().add(&w_rhs.matmul(&e).unwrap()).unwrap();
        let reference = |l: &RingTensor, r: &RingTensor| ring_matmul_reference(l, r).unwrap();
        let three_gemms =
            reference(&x, &f).add(&reference(&e, &w)).unwrap().sub(&reference(&e, &f)).unwrap();
        prop_assert_eq!(two_gemms, three_gemms);
    }
}

/// FNV-1a 64 over the little-endian words of `a` then `z` of each draw.
fn lane_stream_fingerprint(draws: &[LaneTriple]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in draws {
        for w in t.a.as_slice().iter().chain(t.z.as_slice()) {
            for byte in w.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Both halves of a lane reconstruct `Z = expand(A) ⊗ B` on every draw,
/// under an `expand` that changes the row count (the rows are stacked
/// twice, as im2col duplicates them). Party 0 no longer forms `Z` — its
/// shares are the random halves of the splits — and its stream must be
/// the one it drew when it did: the fingerprints were captured from
/// `TripleLane::next` at 3802828, before the change.
#[test]
fn lane_streams_reconstruct_z_and_party0_stream_is_unchanged() {
    let stacked = |t: &RingTensor| {
        let mut d = t.as_slice().to_vec();
        d.extend_from_slice(t.as_slice());
        RingTensor::from_raw(t.ring(), vec![2 * t.shape()[0], t.shape()[1]], d).unwrap()
    };
    let pinned = [
        (12u32, 0x43b0_f823_c118_b991u64),
        (16, 0xf12a_118e_73c5_8781),
        (32, 0x4f2c_207a_1d04_65e6),
        (40, 0xda2e_de0e_a13f_74a5),
    ];
    for (bits, want) in pinned {
        let mut d0 = TripleDealer::from_seed(0x1a7e_0000 + u64::from(bits));
        let mut d1 = d0.clone();
        let q = Ring::new(bits);
        let (mut l0, b0) = d0.expanded_lane(PartyId::User, q, &[3, 5], &[5, 7]);
        let (mut l1, b1) = d1.expanded_lane(PartyId::ModelProvider, q, &[3, 5], &[5, 7]);
        let b = b0.add(&b1).unwrap();
        let (mut draws0, mut draws1) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            draws0.push(l0.next(stacked));
            draws1.push(l1.next(stacked));
        }
        for (t0, t1) in draws0.iter().zip(&draws1) {
            let a = t0.a.add(&t1.a).unwrap();
            let z = t0.z.add(&t1.z).unwrap();
            assert_eq!(z, ring_matmul_reference(&stacked(&a), &b).unwrap(), "bits={bits}");
        }
        assert_eq!(lane_stream_fingerprint(&draws0), want, "bits={bits}: party 0's stream moved");
    }
}
