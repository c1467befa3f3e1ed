//! The adaptive quantization planner (paper Sec. 5).
//!
//! Given a quantized model and a target ABReLU bit-width, the planner
//! chooses the ring pair `(Q1, Q2)`, validates the headroom rule of thumb
//! (`ring = value bits + 4`, Sec. 5.1), and reports per-layer accumulator
//! requirements — the information that lets the FPGA reconfigure its
//! datapaths per layer instead of paying a fixed 32/64-bit ISA width.

use crate::engine::max_fan_in;
use crate::lower::Lowering;
use crate::ProtocolConfig;
use aq2pnn_nn::quant::{QuantModel, QuantOp};
use aq2pnn_ring::HEADROOM_BITS;
use serde::{Deserialize, Serialize};

/// Per-GEMM-layer accumulator analysis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerPlan {
    /// Engine layer index (matches the engine's phase labels).
    pub layer: usize,
    /// `"conv"` or `"fc"`.
    pub kind: String,
    /// Fan-in (`in_c·k·k` or `in_f`).
    pub fan_in: u64,
    /// Worst-case accumulator bits:
    /// `act + weight + ⌈log₂ fan⌉ + 1`.
    pub accum_bits: u32,
    /// The minimal per-layer `Q2` that is overflow-safe in the worst case.
    pub min_q2_bits: u32,
}

/// The session plan derived from a model and an ABReLU width target.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptivePlan {
    /// Target ABReLU (activation carrier) width — the paper's swept knob.
    pub q1_bits: u32,
    /// Uniform MAC ring width (paper: `Q1 + 16`).
    pub q2_bits: u32,
    /// The model's activation value width.
    pub act_bits: u32,
    /// Whether `q1` leaves the recommended `+4` headroom above the value
    /// width (paper Sec. 5.1). Plans without it still run — accuracy
    /// degrades exactly as in Tables 7–8.
    pub headroom_ok: bool,
    /// Whether `q2` covers the worst-case accumulator of every layer.
    /// When false, correctness relies on statistical cancellation of
    /// signed products (the paper's "statistical analysis on the
    /// bit-width").
    pub worst_case_safe: bool,
    /// Per-layer accumulator analysis.
    pub layers: Vec<LayerPlan>,
}

/// The paper's headroom rule of thumb (Sec. 5.1): a `q1_bits` carrier
/// leaves at least [`HEADROOM_BITS`] above `act_bits`-bit values. Also the
/// predicate [`Lowering`] gates pool-before-ReLU on.
#[must_use]
pub fn headroom_ok(q1_bits: u32, act_bits: u32) -> bool {
    q1_bits >= act_bits + HEADROOM_BITS
}

impl AdaptivePlan {
    /// Builds the plan for `model` at a target ABReLU width.
    ///
    /// # Panics
    ///
    /// Panics if `q1_bits` is not in `6..=48`.
    #[must_use]
    pub fn new(model: &QuantModel, q1_bits: u32) -> Self {
        let q2_bits = (q1_bits + 16).min(48);
        let mut layers = Vec::new();
        let lowering = Lowering::new(q1_bits, model.act_bits);
        collect_layers(
            &model.ops,
            lowering,
            model.act_bits,
            model.weight_bits,
            &mut 0,
            &mut layers,
        );
        let worst = layers.iter().map(|l| l.accum_bits).max().unwrap_or(0);
        AdaptivePlan {
            q1_bits,
            q2_bits,
            act_bits: model.act_bits,
            headroom_ok: headroom_ok(q1_bits, model.act_bits),
            worst_case_safe: q2_bits >= worst,
            layers,
        }
    }

    /// The protocol configuration realizing this plan (paper-faithful
    /// share-op modes).
    #[must_use]
    pub fn config(&self) -> ProtocolConfig {
        let mut cfg = ProtocolConfig::paper(self.q1_bits);
        cfg.q2_bits = self.q2_bits;
        cfg
    }

    /// The widest accumulator requirement across layers.
    #[must_use]
    pub fn worst_accum_bits(&self) -> u32 {
        self.layers.iter().map(|l| l.accum_bits).max().unwrap_or(0)
    }
}

/// Numbers layers in execution order ([`Lowering::order`]), like the
/// engine's phase labels.
fn collect_layers(
    ops: &[QuantOp],
    lowering: Lowering,
    act_bits: u32,
    weight_bits: u32,
    idx: &mut usize,
    out: &mut Vec<LayerPlan>,
) {
    for op in lowering.order(ops) {
        let layer = *idx;
        *idx += 1;
        match op {
            QuantOp::Conv2d { in_c, k, .. } => {
                let fan = (in_c * k * k) as u64;
                out.push(mk_plan(layer, "conv", fan, act_bits, weight_bits));
            }
            QuantOp::Linear { in_f, .. } => {
                out.push(mk_plan(layer, "fc", *in_f as u64, act_bits, weight_bits));
            }
            QuantOp::Residual { main, shortcut } => {
                collect_layers(main, lowering, act_bits, weight_bits, idx, out);
                collect_layers(shortcut, lowering, act_bits, weight_bits, idx, out);
            }
            _ => {}
        }
    }
}

fn mk_plan(layer: usize, kind: &str, fan: u64, act: u32, weight: u32) -> LayerPlan {
    let accum = act + weight + (64 - fan.leading_zeros()) + 1;
    LayerPlan { layer, kind: kind.to_owned(), fan_in: fan, accum_bits: accum, min_q2_bits: accum }
}

/// Quick helper: the paper's recommended plan for a model (value width +
/// 4 bits of headroom).
#[must_use]
pub fn recommended_plan(model: &QuantModel) -> AdaptivePlan {
    AdaptivePlan::new(model, model.act_bits + HEADROOM_BITS)
}

/// Sanity-check utility mirroring [`max_fan_in`] for tests.
#[must_use]
pub fn model_max_fan(model: &QuantModel) -> u64 {
    max_fan_in(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aq2pnn_nn::data::SyntheticVision;
    use aq2pnn_nn::float::FloatNet;
    use aq2pnn_nn::quant::{QuantConfig, QuantModel};
    use aq2pnn_nn::zoo;

    fn model() -> QuantModel {
        let data = SyntheticVision::tiny(4, 1);
        let net = FloatNet::init(&zoo::tiny_cnn(4), 2).unwrap();
        QuantModel::quantize(&net, &data.calibration(4), &QuantConfig::int8()).unwrap()
    }

    #[test]
    fn plan_headroom_rule() {
        let m = model();
        let plan = AdaptivePlan::new(&m, 12);
        assert!(plan.headroom_ok); // 8 + 4 = 12
        let tight = AdaptivePlan::new(&m, 10);
        assert!(!tight.headroom_ok);
    }

    #[test]
    fn plan_layers_cover_gemms() {
        let m = model();
        let plan = AdaptivePlan::new(&m, 16);
        // tiny_cnn: 2 convs + 2 linears.
        assert_eq!(plan.layers.len(), 4);
        assert_eq!(plan.layers[0].kind, "conv");
        // fan of conv1 = 3*3*3 = 27 → accum = 8+8+5+1 = 22.
        assert_eq!(plan.layers[0].fan_in, 27);
        assert_eq!(plan.layers[0].accum_bits, 22);
        assert!(plan.worst_case_safe); // q2 = 32 ≥ worst
    }

    #[test]
    fn recommended_matches_model_bits() {
        let m = model();
        let plan = recommended_plan(&m);
        assert_eq!(plan.q1_bits, 12);
        assert_eq!(plan.config().q1_bits, 12);
        assert_eq!(plan.config().q2_bits, 28);
    }

    #[test]
    fn max_fan_helper() {
        let m = model();
        // Largest fan-in is the first linear: 16*4*4 = 256.
        assert_eq!(model_max_fan(&m), 256);
    }
}
