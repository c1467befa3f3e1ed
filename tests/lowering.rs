//! The pool-before-ReLU lowering (`aq2pnn::lower`, DESIGN.md §7.6) seen
//! from outside the crate: it changes *how much* the engine compares, never
//! *what* it computes.
//!
//! * LeNet5 `paper(16)` logits are bit-identical to a fixture captured at
//!   the commit before the lowering existed (under `RevealedSign` the
//!   output shares, not just the values, are those of spec order).
//! * One LeNet5 pass keeps its 44-message schedule while the sign work
//!   drops from 11 236 to 6 508 elements.
//! * The lowering applies exactly when the planner's headroom rule holds,
//!   and a residual branch containing the block is lowered too.
//! * Both parties' full transcripts (preparation and two online passes)
//!   of LeNet5 and a tiny CNN are pinned by FNV-1a fingerprints, so a
//!   local-compute change that claims to leave the wire alone is checked
//!   byte for byte, not just by logits and byte counts.
//!
//! The share-level identity itself (padded / overlapping windows, batches,
//! both `ReluMode`s) is the in-crate property test
//! `engine::tests::pool_then_relu_equals_relu_then_pool`; the other zoo
//! geometries run lowered through `tests/engine_coverage.rs` and
//! `tests/two_party_inference.rs`, which compare against the spec-order
//! plaintext reference.

use aq2pnn::engine::BatchInput;
use aq2pnn::instq;
use aq2pnn::prepared::PreparedModel;
use aq2pnn::sim::{run_pair, run_two_party};
use aq2pnn::{ProtocolConfig, ReluMode};
use aq2pnn_nn::data::SyntheticVision;
use aq2pnn_nn::float::FloatNet;
use aq2pnn_nn::quant::{QuantConfig, QuantModel, QuantOp, Requant};
use aq2pnn_nn::spec::{ModelSpec, OpSpec, TensorShape};
use aq2pnn_sharing::PartyId;
use aq2pnn_transport::ChannelStats;

/// splitmix64 stream of values in `[-127, 127]`.
struct IntStream(u64);

impl IntStream {
    fn next(&mut self) -> i64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        i64::try_from(x % 255).expect("small") - 127
    }

    fn take(&mut self, n: usize) -> Vec<i64> {
        (0..n).map(|_| self.next()).collect()
    }
}

/// LeNet5 geometry (`zoo::lenet5`) with integer weights drawn from a fixed
/// splitmix64 stream: no float training and no libm call anywhere between
/// the seed and the logits, so the fixture below holds on any host.
fn lenet5_int() -> (QuantModel, Vec<f32>) {
    let mut s = IntStream(0x1e9e_7005);
    // Dyadic scales 0.75 / 2^e sized to keep activations around 8 bits.
    let rq = |e: u32| Requant { mult: 24_576, shift: 15 + e };
    let mut conv = |in_c: usize, out_c: usize, pad: usize, in_hw: usize, e: u32| {
        let out_hw = in_hw + 2 * pad - 4;
        QuantOp::Conv2d {
            in_c,
            out_c,
            k: 5,
            stride: 1,
            pad,
            in_hw: (in_hw, in_hw),
            out_hw: (out_hw, out_hw),
            w: s.take(out_c * in_c * 25),
            bias: s.take(out_c).iter().map(|b| b * 16).collect(),
            requant: rq(e),
        }
    };
    let conv1 = conv(1, 6, 2, 28, 9);
    let conv2 = conv(6, 16, 0, 14, 10);
    let mut fc = |in_f: usize, out_f: usize, e: u32| QuantOp::Linear {
        in_f,
        out_f,
        w: s.take(out_f * in_f),
        bias: s.take(out_f).iter().map(|b| b * 16).collect(),
        requant: rq(e),
    };
    let pool = |c: usize, in_hw: usize| QuantOp::MaxPool {
        k: 2,
        stride: 2,
        pad: 0,
        c,
        in_hw: (in_hw, in_hw),
        out_hw: (in_hw / 2, in_hw / 2),
    };
    let ops = vec![
        conv1,
        QuantOp::Relu,
        pool(6, 28),
        conv2,
        QuantOp::Relu,
        pool(16, 10),
        QuantOp::Flatten,
        fc(400, 120, 11),
        QuantOp::Relu,
        fc(120, 84, 9),
        QuantOp::Relu,
        fc(84, 10, 8),
    ];
    let model = QuantModel {
        name: "lenet5-int".into(),
        input_shape: TensorShape::Chw(1, 28, 28),
        ops,
        input_scale: 1.0,
        output_scale: 1.0,
        act_bits: 8,
        weight_bits: 8,
    };
    #[allow(clippy::cast_precision_loss)]
    let image: Vec<f32> = s.take(28 * 28).iter().map(|&v| v as f32).collect();
    (model, image)
}

/// `paper(16)` logits of [`lenet5_int`], captured at the parent commit
/// (19b4057, spec-order engine).
const LENET5_PAPER16_LOGITS: [i64; 10] = [-9, 7, -5, -39, -24, 34, 15, 12, -25, -20];

#[test]
fn lenet5_paper16_logits_match_the_pre_lowering_fixture() {
    let (model, image) = lenet5_int();
    let run = run_two_party(&model, &ProtocolConfig::paper(16), &image, 0).expect("2pc runs");
    assert_eq!(run.logits, LENET5_PAPER16_LOGITS);
    // The same function in exact mode, against the spec-order plaintext
    // ring reference.
    let cfg = ProtocolConfig::exact(16);
    let exact = run_two_party(&model, &cfg, &image, 0).expect("2pc runs");
    let reference = model.forward_ring_exact(&image, cfg.q1_bits, cfg.q2_bits).expect("reference");
    assert_eq!(exact.logits, reference);
}

fn online(stats: &ChannelStats) -> (u64, u64) {
    stats
        .phases
        .iter()
        .filter(|(name, _)| !name.starts_with("offline"))
        .fold((0, 0), |(bytes, msgs), (_, p)| (bytes + p.bytes_sent, msgs + p.messages_sent))
}

/// One LeNet5 pass: the message schedule is untouched, two sign calls per
/// conv block shrink 4×, and the compiler's accounting is the live wire.
#[test]
fn lenet5_schedule_is_44_messages_and_6508_sign_elements() {
    let (model, image) = lenet5_int();
    let cfg = ProtocolConfig::paper(16);
    let program = instq::compile(&model, &cfg);
    assert_eq!(program.online_messages(), 44);
    // relu 1176 + pool 3·1176, relu 400 + pool 3·400, relu 120, relu 84
    // (spec order: 4704 and 1600 in place of 1176 and 400 — 11 236).
    assert_eq!(program.comparisons(), 6_508);
    assert_eq!(program.online_total_bytes(), ONLINE_BYTES_PER_PASS);

    let run = run_two_party(&model, &cfg, &image, 0).expect("2pc runs");
    let (user_bytes, user_msgs) = online(&run.user_stats);
    let (provider_bytes, provider_msgs) = online(&run.provider_stats);
    assert_eq!(user_msgs + provider_msgs, 44);
    assert_eq!(user_bytes + provider_bytes, ONLINE_BYTES_PER_PASS);
    assert_eq!(program.user_bytes_sent(), run.user_stats.bytes_sent);
    assert_eq!(program.provider_bytes_sent(), run.provider_stats.bytes_sent);
}

/// Online payload of one LeNet5 `paper(16)` pass, both directions
/// (314 149 B in spec order: the two shrunk ABReLUs save 123 519 B). The
/// benchmark's `bytes_per_image` on `lenet5.b1.c1` is this plus an eighth
/// of the session's 491 760 B of `offline-f` openings: 252 100 B.
const ONLINE_BYTES_PER_PASS: u64 = 190_630;

fn phase_names(stats: &ChannelStats) -> Vec<&str> {
    stats.phases.keys().map(String::as_str).collect()
}

/// The predicate, from both sides: an int8 model lowers on a 16-bit
/// carrier (`16 ≥ 8 + 4`) and keeps spec order on a 7-bit one, where the
/// extra comparison bit would move the accuracy cliff
/// (`tests/engine_coverage.rs::real_engine_exhibits_the_carrier_cliff`).
#[test]
fn lowering_applies_exactly_when_the_headroom_rule_holds() {
    let (model, image) = lenet5_int();
    let lowered = run_two_party(&model, &ProtocolConfig::paper(16), &image, 0).expect("runs");
    let names = phase_names(&lowered.user_stats);
    assert!(names.contains(&"maxpool1") && names.contains(&"abrelu2"), "{names:?}");
    assert!(names.contains(&"maxpool4") && names.contains(&"abrelu5"), "{names:?}");
    assert!(!names.contains(&"abrelu1"), "{names:?}");

    let cfg = ProtocolConfig::paper(7);
    let kept = run_two_party(&model, &cfg, &image, 0).expect("runs");
    let names = phase_names(&kept.user_stats);
    assert!(names.contains(&"abrelu1") && names.contains(&"maxpool2"), "{names:?}");
    assert!(names.contains(&"abrelu4") && names.contains(&"maxpool5"), "{names:?}");
    // Spec order is costed as spec order.
    let program = instq::compile(&model, &cfg);
    assert_eq!(program.comparisons(), 11_236);
    assert_eq!(program.user_bytes_sent(), kept.user_stats.bytes_sent);
    assert_eq!(program.provider_bytes_sent(), kept.provider_stats.bytes_sent);
}

/// A residual block whose main branch holds conv → ReLU → MaxPool: the
/// lowering recurses into branches, layer numbering stays in execution
/// order, and both `ReluMode`s still compute the plaintext function.
#[test]
fn residual_branch_block_is_lowered_and_exact() {
    use OpSpec::{Conv2d, Flatten, Linear, MaxPool, ReLU, Residual};
    let spec = ModelSpec {
        name: "residual-pool".into(),
        input: TensorShape::Chw(2, 8, 8),
        ops: vec![
            Residual {
                main: vec![
                    Conv2d { out_c: 4, k: 3, stride: 1, pad: 1 },
                    ReLU,
                    MaxPool { k: 3, stride: 2, pad: 1 },
                ],
                shortcut: vec![Conv2d { out_c: 4, k: 1, stride: 2, pad: 0 }],
            },
            ReLU,
            Flatten,
            Linear { out: 4 },
        ],
    };
    let data = SyntheticVision::generate(4, 2, 8, 8, 16, 4, 0.3, 17);
    let net = FloatNet::init(&spec, 18).expect("valid spec");
    let model =
        QuantModel::quantize(&net, &data.calibration(8), &QuantConfig::int8()).expect("quantizes");
    let image = &data.test()[0].image;
    for mode in [ReluMode::RevealedSign, ReluMode::MaskedMux] {
        let mut cfg = ProtocolConfig::exact(16);
        cfg.relu_mode = mode;
        let run = run_two_party(&model, &cfg, image, 0).expect("2pc runs");
        let reference = model.forward_ring_exact(image, cfg.q1_bits, cfg.q2_bits).expect("ref");
        assert_eq!(run.logits, reference, "mode {mode:?}");
        // Residual = layer 0; its main branch is conv1, maxpool2, abrelu3.
        let names = phase_names(&run.user_stats);
        assert!(names.contains(&"maxpool2") && names.contains(&"abrelu3"), "{names:?}");
        let program = instq::compile(&model, &cfg);
        assert_eq!(program.user_bytes_sent(), run.user_stats.bytes_sent, "mode {mode:?}");
        assert_eq!(program.provider_bytes_sent(), run.provider_stats.bytes_sent, "mode {mode:?}");
    }
}

/// `tiny_cnn(4)`'s geometry (`zoo::tiny_cnn`: 3×16×16 input, two 3×3
/// conv blocks, 256 → 32 → 4) with integer weights from a fixed splitmix64
/// stream, for the same host-independence as [`lenet5_int`].
fn tiny_cnn_int() -> (QuantModel, Vec<f32>) {
    let mut s = IntStream(0x7e57_c0de);
    let rq = |e: u32| Requant { mult: 24_576, shift: 15 + e };
    let mut conv = |in_c: usize, out_c: usize, hw: usize, e: u32| QuantOp::Conv2d {
        in_c,
        out_c,
        k: 3,
        stride: 1,
        pad: 1,
        in_hw: (hw, hw),
        out_hw: (hw, hw),
        w: s.take(out_c * in_c * 9),
        bias: s.take(out_c).iter().map(|b| b * 16).collect(),
        requant: rq(e),
    };
    let conv1 = conv(3, 8, 16, 8);
    let conv2 = conv(8, 16, 8, 9);
    let mut fc = |in_f: usize, out_f: usize, e: u32| QuantOp::Linear {
        in_f,
        out_f,
        w: s.take(out_f * in_f),
        bias: s.take(out_f).iter().map(|b| b * 16).collect(),
        requant: rq(e),
    };
    let fc1 = fc(256, 32, 10);
    let fc2 = fc(32, 4, 8);
    let pool = |c: usize, in_hw: usize| QuantOp::MaxPool {
        k: 2,
        stride: 2,
        pad: 0,
        c,
        in_hw: (in_hw, in_hw),
        out_hw: (in_hw / 2, in_hw / 2),
    };
    let ops = vec![
        conv1,
        QuantOp::Relu,
        pool(8, 16),
        conv2,
        QuantOp::Relu,
        pool(16, 8),
        QuantOp::Flatten,
        fc1,
        QuantOp::Relu,
        fc2,
    ];
    let model = QuantModel {
        name: "tiny-cnn-int".into(),
        input_shape: TensorShape::Chw(3, 16, 16),
        ops,
        input_scale: 1.0,
        output_scale: 1.0,
        act_bits: 8,
        weight_bits: 8,
    };
    #[allow(clippy::cast_precision_loss)]
    let image: Vec<f32> = s.take(3 * 16 * 16).iter().map(|&v| v as f32).collect();
    (model, image)
}

/// One party's transcript, reduced to `(messages, FNV-1a 64)` over every
/// message's length (8 bytes LE) followed by its bytes, in send order.
fn fingerprint(messages: &[Vec<u8>]) -> (usize, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for msg in messages {
        for &byte in (msg.len() as u64).to_le_bytes().iter().chain(msg) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    (messages.len(), h)
}

/// Both parties' fingerprints of one whole session: `prepare` (the
/// `offline-f` openings) followed by two `run_batch` passes of `b`
/// images each, the second pass on images derived from the first.
fn session_fingerprints(
    model: &QuantModel,
    image: &[f32],
    cfg: &ProtocolConfig,
    b: usize,
) -> ((usize, u64), (usize, u64)) {
    let model = model.clone();
    #[allow(clippy::cast_precision_loss)]
    let images: Vec<Vec<f32>> = (0..2 * b)
        .map(|i| image.iter().map(|&v| ((v as i64 + 37 * i as i64) % 128) as f32).collect())
        .collect();
    run_pair(cfg, move |ctx| {
        ctx.ep.start_capture();
        let mut prepared = PreparedModel::prepare(ctx, &model).expect("prepare");
        for pass in images.chunks(b) {
            let refs: Vec<&[f32]> = pass.iter().map(Vec::as_slice).collect();
            let input = match ctx.id {
                PartyId::User => BatchInput::User(&refs),
                PartyId::ModelProvider => BatchInput::Provider { batch: b },
            };
            prepared.run_batch(ctx, input).expect("batched inference");
        }
        fingerprint(&ctx.ep.take_capture())
    })
}

/// The wire is pinned, not just its length: these fingerprints were
/// captured before the Beaver GEMM's right operands were pre-demoted and
/// Eq. 1 was regrouped into two GEMMs per party, and any change to local
/// compute must leave them as they are. LeNet5 and the tiny CNN run their
/// GEMMs on `Q2 = 2^32` under `paper(16)` (the u32 accumulator);
/// `paper(20)` puts the tiny CNN on `Q2 = 2^36` (the u64 one).
#[test]
fn session_transcripts_match_pinned_fingerprints() {
    let (lenet, lenet_image) = lenet5_int();
    let (tiny, tiny_image) = tiny_cnn_int();
    let cases: [(&str, &QuantModel, &[f32], ProtocolConfig, usize); 4] = [
        ("lenet5 paper(16) b1", &lenet, &lenet_image, ProtocolConfig::paper(16), 1),
        ("lenet5 paper(16) b3", &lenet, &lenet_image, ProtocolConfig::paper(16), 3),
        ("tiny_cnn paper(16) b1", &tiny, &tiny_image, ProtocolConfig::paper(16), 1),
        ("tiny_cnn paper(20) b2", &tiny, &tiny_image, ProtocolConfig::paper(20), 2),
    ];
    for ((name, model, image, cfg, b), want) in cases.into_iter().zip(SESSION_FINGERPRINTS) {
        let got = session_fingerprints(model, image, &cfg, b);
        assert_eq!(got, want, "{name}: (user, provider) transcript fingerprints moved");
    }
}

/// `(messages, FNV-1a 64)` for (user, provider), one row per case of
/// [`session_transcripts_match_pinned_fingerprints`], captured at 3802828.
const SESSION_FINGERPRINTS: [((usize, u64), (usize, u64)); 4] = [
    ((49, 0x5be3_ca97_5e65_05a7), (49, 0x62bc_117a_9c14_c98b)),
    ((49, 0xbdad_0f4f_cd03_92d8), (49, 0xa4ba_ef12_0433_7658)),
    ((42, 0x4b30_8ab8_3d88_b808), (42, 0x45da_4673_2539_4860)),
    ((42, 0xb002_6507_a88c_e313), (42, 0xc912_f187_8744_b30f)),
];
