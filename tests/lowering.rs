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
//!
//! The share-level identity itself (padded / overlapping windows, batches,
//! both `ReluMode`s) is the in-crate property test
//! `engine::tests::pool_then_relu_equals_relu_then_pool`; the other zoo
//! geometries run lowered through `tests/engine_coverage.rs` and
//! `tests/two_party_inference.rs`, which compare against the spec-order
//! plaintext reference.

use aq2pnn::instq;
use aq2pnn::sim::run_two_party;
use aq2pnn::{ProtocolConfig, ReluMode};
use aq2pnn_nn::data::SyntheticVision;
use aq2pnn_nn::float::FloatNet;
use aq2pnn_nn::quant::{QuantConfig, QuantModel, QuantOp, Requant};
use aq2pnn_nn::spec::{ModelSpec, OpSpec, TensorShape};
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
