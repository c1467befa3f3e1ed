//! INST Q — the instruction-queue compiler (paper Sec. 4.1.1).
//!
//! Lowers a [`QuantModel`] + [`ProtocolConfig`] into the accelerator
//! instruction stream: AS-GEMM invocations, AS-ALU operations, A2BM/SCM
//! comparison work and party-to-party exchanges. The byte counts use the
//! same bit-packed wire format as the live engine, so
//! [`Program::user_bytes_sent`] must equal the engine's measured channel
//! statistics — a consistency the integration tests assert; to that end
//! the compilers walk the engine's execution order ([`crate::lower`]) and
//! its max-pool tournament plan, not the spec's. The FPGA
//! simulator (`aq2pnn-accel`) consumes the program for cycle-accurate-ish
//! timing.

use crate::lower::Lowering;
use crate::ops::PoolPlan;
use crate::{PipelineMode, ProtocolConfig, ReluMode};
use aq2pnn_nn::quant::{QuantModel, QuantOp};
use aq2pnn_ring::HEADROOM_BITS;
use aq2pnn_sharing::a2b::group_widths;
use aq2pnn_transport::packed_len;
use serde::{Deserialize, Serialize};

/// AS-ALU operation classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AluKind {
    /// C-C addition (bias, residual adds, pooling sums).
    Add,
    /// P-C multiply + truncation (BNReQ / rescale).
    MulShift,
    /// Share zeroing / selection.
    Select,
}

/// One compiled instruction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Instr {
    /// Stream weights into the AS-WGT buffer.
    LoadWeights {
        /// Elements loaded.
        elems: u64,
        /// Bits per element.
        bits: u32,
    },
    /// An AS-GEMM array invocation.
    Gemm {
        /// Output rows (pixels).
        m: u64,
        /// Reduction dimension.
        k: u64,
        /// Output columns (channels).
        n: u64,
    },
    /// An AS-ALU pass.
    Alu {
        /// Operation class.
        kind: AluKind,
        /// Elements processed.
        elems: u64,
    },
    /// A2BM + SCM comparison work (per OT-flow batch).
    Compare {
        /// Values compared.
        values: u64,
        /// Bit groups per value (`U`).
        groups: u32,
        /// Total OT slots encrypted per value (Σ 2^w).
        slots: u64,
    },
    /// A network exchange; byte counts are exact wire bytes.
    Exchange {
        /// Phase label (matches the engine's channel phases).
        label: String,
        /// Bytes party 0 sends.
        user_bytes: u64,
        /// Messages party 0 sends.
        user_msgs: u64,
        /// Bytes party 1 sends.
        provider_bytes: u64,
        /// Messages party 1 sends.
        provider_msgs: u64,
    },
}

/// A compiled instruction stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Model name.
    pub name: String,
    /// The instructions in execution order.
    pub instrs: Vec<Instr>,
    /// The configuration the program was compiled for.
    pub cfg: ProtocolConfig,
}

impl Program {
    /// Total bytes party 0 sends on the wire.
    #[must_use]
    pub fn user_bytes_sent(&self) -> u64 {
        self.exchanges().map(|e| e.0).sum()
    }

    /// Total bytes party 1 sends on the wire.
    #[must_use]
    pub fn provider_bytes_sent(&self) -> u64 {
        self.exchanges().map(|e| e.2).sum()
    }

    /// Total traffic (both directions).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.user_bytes_sent() + self.provider_bytes_sent()
    }

    /// Total messages (both directions).
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.exchanges().map(|e| e.1 + e.3).sum()
    }

    /// Total traffic in MiB — including the one-time offline mask opening.
    #[must_use]
    pub fn total_mib(&self) -> f64 {
        self.total_bytes() as f64 / (1024.0 * 1024.0)
    }

    /// *Online* traffic in bytes — excluding `offline-*` phases (the
    /// pre-deployed weight-mask opening). This is what the paper's tables
    /// report.
    #[must_use]
    pub fn online_total_bytes(&self) -> u64 {
        self.instrs
            .iter()
            .map(|i| match i {
                Instr::Exchange { label, user_bytes, provider_bytes, .. }
                    if !label.starts_with("offline") =>
                {
                    user_bytes + provider_bytes
                }
                _ => 0,
            })
            .sum()
    }

    /// Online traffic in MiB.
    #[must_use]
    pub fn online_total_mib(&self) -> f64 {
        self.online_total_bytes() as f64 / (1024.0 * 1024.0)
    }

    /// Online messages (both directions), the round-latency driver.
    #[must_use]
    pub fn online_messages(&self) -> u64 {
        self.instrs
            .iter()
            .map(|i| match i {
                Instr::Exchange { label, user_msgs, provider_msgs, .. }
                    if !label.starts_with("offline") =>
                {
                    user_msgs + provider_msgs
                }
                _ => 0,
            })
            .sum()
    }

    /// Total AS-GEMM multiply-accumulates.
    #[must_use]
    pub fn gemm_macs(&self) -> u64 {
        self.instrs
            .iter()
            .map(|i| match i {
                Instr::Gemm { m, k, n } => m * k * n,
                _ => 0,
            })
            .sum()
    }

    /// Total secure comparisons (values through the SCM).
    #[must_use]
    pub fn comparisons(&self) -> u64 {
        self.instrs
            .iter()
            .map(|i| match i {
                Instr::Compare { values, .. } => *values,
                _ => 0,
            })
            .sum()
    }

    /// Total AS-ALU element operations.
    #[must_use]
    pub fn alu_elems(&self) -> u64 {
        self.instrs
            .iter()
            .map(|i| match i {
                Instr::Alu { elems, .. } => *elems,
                _ => 0,
            })
            .sum()
    }

    /// Traffic attributed to phases whose label starts with `prefix`
    /// (e.g. `"abrelu"`), both directions.
    #[must_use]
    pub fn bytes_for_phase_prefix(&self, prefix: &str) -> u64 {
        self.instrs
            .iter()
            .map(|i| match i {
                Instr::Exchange { label, user_bytes, provider_bytes, .. }
                    if label.starts_with(prefix) =>
                {
                    user_bytes + provider_bytes
                }
                _ => 0,
            })
            .sum()
    }

    fn exchanges(&self) -> impl Iterator<Item = (u64, u64, u64, u64)> + '_ {
        self.instrs.iter().filter_map(|i| match i {
            Instr::Exchange { user_bytes, user_msgs, provider_bytes, provider_msgs, .. } => {
                Some((*user_bytes, *user_msgs, *provider_bytes, *provider_msgs))
            }
            _ => None,
        })
    }
}

/// Compiles a model to its instruction stream under `cfg`.
///
/// Models the engine's single-OT-round schedule ([`crate::ReluRounds::Single`]);
/// lazy scheduling is data-dependent and is measured live instead.
#[must_use]
pub fn compile(model: &QuantModel, cfg: &ProtocolConfig) -> Program {
    let mut instrs = Vec::new();
    let mut idx = 0usize;
    let lowering = Lowering::new(cfg.q1_bits, model.act_bits);
    compile_ops(&model.ops, lowering, cfg, &mut idx, &mut instrs);
    // Final logit reveal.
    let out = crate::engine::output_len(model);
    let bytes = packed_len(act_bits(cfg), out) as u64;
    instrs.push(Instr::Exchange {
        label: "output".into(),
        user_bytes: bytes,
        user_msgs: 1,
        provider_bytes: bytes,
        provider_msgs: 1,
    });
    Program { name: model.name.clone(), instrs, cfg: cfg.clone() }
}

/// The activation-carrier width instructions are exchanged at.
fn act_bits(cfg: &ProtocolConfig) -> u32 {
    match cfg.pipeline {
        PipelineMode::StayWide => cfg.q2_bits,
        PipelineMode::NarrowActivations => cfg.q1_bits,
    }
}

/// The comparison-exchange cost of one batched `secure_sign` of `n`
/// values, plus the mode-dependent epilogue. Returns the instructions.
fn sign_instrs(label: &str, n: u64, cfg: &ProtocolConfig, select_elems: u64) -> Vec<Instr> {
    let widths = group_widths(cfg.q1_bits);
    let u = widths.len() as u64;
    let slots: u64 = widths.iter().map(|&w| 1u64 << w).sum();
    let mut v = vec![
        Instr::Compare { values: n, groups: u as u32, slots },
        // Sender (party 0): r̂ + encrypted codes. Receiver (party 1): R.
        Instr::Exchange {
            label: label.to_owned(),
            user_bytes: (packed_len(cfg.q1_bits, 1) + packed_len(2, (n * slots) as usize)) as u64,
            user_msgs: 2,
            provider_bytes: packed_len(cfg.q1_bits, (n * u) as usize) as u64,
            provider_msgs: 1,
        },
    ];
    match cfg.relu_mode {
        ReluMode::RevealedSign => {
            // T_m mask back to party 0, then local selection.
            v.push(Instr::Exchange {
                label: format!("{label}.tm"),
                user_bytes: 0,
                user_msgs: 0,
                provider_bytes: packed_len(1, n as usize) as u64,
                provider_msgs: 1,
            });
            v.push(Instr::Alu { kind: AluKind::Select, elems: select_elems });
        }
        ReluMode::MaskedMux => {
            // MUX OT: sender r̂ (group element, Q1) + 2n messages at the
            // activation-carrier width; receiver R (n Q1 elements).
            v.push(Instr::Exchange {
                label: format!("{label}.mux"),
                user_bytes: (packed_len(cfg.q1_bits, 1) + packed_len(act_bits(cfg), 2 * n as usize))
                    as u64,
                user_msgs: 2,
                provider_bytes: packed_len(cfg.q1_bits, n as usize) as u64,
                provider_msgs: 1,
            });
            v.push(Instr::Alu { kind: AluKind::Add, elems: select_elems });
        }
    }
    v
}

/// One comparison batch per level of the engine's max-pool tournament.
fn pool_instrs(i: usize, plan: &PoolPlan, cfg: &ProtocolConfig, out: &mut Vec<Instr>) {
    for (round, level) in plan.levels.iter().enumerate() {
        let pairs = level.pairs.len() as u64;
        out.extend(sign_instrs(&format!("maxpool{i}.r{round}"), pairs, cfg, pairs));
    }
}

#[allow(clippy::too_many_lines)]
fn compile_ops(
    ops: &[QuantOp],
    lowering: Lowering,
    cfg: &ProtocolConfig,
    idx: &mut usize,
    out: &mut Vec<Instr>,
) {
    for op in lowering.order(ops) {
        let i = *idx;
        *idx += 1;
        match op {
            QuantOp::Conv2d { in_c, out_c, k, in_hw, out_hw, w, bias, requant: _, .. } => {
                let m = (out_hw.0 * out_hw.1) as u64;
                let kk = (in_c * k * k) as u64;
                let n = *out_c as u64;
                let n_in = (in_c * in_hw.0 * in_hw.1) as u64;
                out.push(Instr::LoadWeights {
                    elems: (w.len() + bias.len()) as u64,
                    bits: cfg.q2_bits,
                });
                // One-time opening of the weight mask F (pre-deployed).
                let f_ex = packed_len(cfg.q2_bits, (kk * n) as usize) as u64;
                out.push(Instr::Exchange {
                    label: format!("offline-f.conv{i}"),
                    user_bytes: f_ex,
                    user_msgs: 1,
                    provider_bytes: f_ex,
                    provider_msgs: 1,
                });
                // Online: the feature-map-sized E mask.
                let ex = packed_len(cfg.q2_bits, n_in as usize) as u64;
                out.push(Instr::Exchange {
                    label: format!("conv{i}"),
                    user_bytes: ex,
                    user_msgs: 1,
                    provider_bytes: ex,
                    provider_msgs: 1,
                });
                out.push(Instr::Gemm { m, k: kk, n });
                out.push(Instr::Alu { kind: AluKind::Add, elems: m * n });
                out.push(Instr::Alu { kind: AluKind::MulShift, elems: m * n });
            }
            QuantOp::Linear { in_f, out_f, w, bias, .. } => {
                let kk = *in_f as u64;
                let n = *out_f as u64;
                out.push(Instr::LoadWeights {
                    elems: (w.len() + bias.len()) as u64,
                    bits: cfg.q2_bits,
                });
                let f_ex = packed_len(cfg.q2_bits, (kk * n) as usize) as u64;
                out.push(Instr::Exchange {
                    label: format!("offline-f.fc{i}"),
                    user_bytes: f_ex,
                    user_msgs: 1,
                    provider_bytes: f_ex,
                    provider_msgs: 1,
                });
                let ex = packed_len(cfg.q2_bits, kk as usize) as u64;
                out.push(Instr::Exchange {
                    label: format!("fc{i}"),
                    user_bytes: ex,
                    user_msgs: 1,
                    provider_bytes: ex,
                    provider_msgs: 1,
                });
                out.push(Instr::Gemm { m: 1, k: kk, n });
                out.push(Instr::Alu { kind: AluKind::Add, elems: n });
                out.push(Instr::Alu { kind: AluKind::MulShift, elems: n });
            }
            QuantOp::Relu => {
                // Infer the element count from the previous GEMM/pool; the
                // compiler tracks it via the caller — here we reconstruct
                // from the last sized instruction.
                let n = last_output_elems(out);
                out.extend(sign_instrs(&format!("abrelu{i}"), n, cfg, n));
            }
            QuantOp::MaxPool { k, stride, pad, c, in_hw, out_hw } => {
                let plan = PoolPlan::new(*c, *in_hw, *k, *stride, *pad, *out_hw);
                pool_instrs(i, &plan, cfg, out);
                // Tag the pool's output size for downstream `Relu` sizing.
                out.push(Instr::Alu {
                    kind: AluKind::Select,
                    elems: (c * out_hw.0 * out_hw.1) as u64,
                });
            }
            QuantOp::AvgPool { k, c, out_hw, .. } => {
                let elems = (c * out_hw.0 * out_hw.1) as u64;
                out.push(Instr::Alu { kind: AluKind::Add, elems: elems * (*k * *k) as u64 });
                out.push(Instr::Alu { kind: AluKind::MulShift, elems });
            }
            QuantOp::GlobalAvgPool { c, in_hw, .. } => {
                out.push(Instr::Alu { kind: AluKind::Add, elems: (c * in_hw.0 * in_hw.1) as u64 });
                out.push(Instr::Alu { kind: AluKind::MulShift, elems: *c as u64 });
            }
            QuantOp::Flatten => {}
            QuantOp::Rescale { .. } => {
                let n = last_output_elems(out);
                out.push(Instr::Alu { kind: AluKind::MulShift, elems: n });
            }
            QuantOp::Residual { main, shortcut } => {
                compile_ops(main, lowering, cfg, idx, out);
                let m_elems = last_output_elems(out);
                compile_ops(shortcut, lowering, cfg, idx, out);
                out.push(Instr::Alu { kind: AluKind::Add, elems: m_elems });
            }
        }
    }
}

/// Compiles a *spec* (no weights materialized) to its instruction stream —
/// the path used for ImageNet-scale cost modeling, where instantiating the
/// weight tensors would be pointless. Produces the same program a
/// quantized instance of the spec would (Conv+BatchNorm folds into one
/// BNReQ; residual branches gain their rescale ALU passes).
///
/// # Errors
///
/// Returns an error string if the spec fails shape inference.
pub fn compile_spec(
    spec: &aq2pnn_nn::spec::ModelSpec,
    cfg: &ProtocolConfig,
) -> Result<Program, String> {
    compile_spec_inner(spec, cfg, None)
}

/// Compiles a spec with **per-layer MAC rings** — the full expression of
/// the paper's adaptivity claim ("adapt the data bit-width of different
/// DNN layers in the ciphertext domain"): instead of one uniform
/// `Q2 = Q1 + 16`, every GEMM layer exchanges its masks on the smallest
/// ring that provably holds its worst-case accumulator
/// (`value + weight + ⌈log₂ fan⌉ + 1` bits, the
/// [`crate::planner::AdaptivePlan`] analysis), clamped to
/// `[Q1 + 4, 48]`.
///
/// Small-fan layers get narrower exchanges (communication ↓); layers
/// whose worst case exceeds the uniform ring are widened (the uniform
/// setting relies on statistical cancellation there — this variant is
/// worst-case safe). The `adaptive_per_layer` harness quantifies both.
///
/// # Errors
///
/// Returns an error string if the spec fails shape inference.
pub fn compile_spec_per_layer(
    spec: &aq2pnn_nn::spec::ModelSpec,
    cfg: &ProtocolConfig,
    weight_bits: u32,
) -> Result<Program, String> {
    let value_bits = cfg.q1_bits.saturating_sub(HEADROOM_BITS);
    let mut p = compile_spec_inner(spec, cfg, Some((value_bits, weight_bits)))?;
    p.name = format!("{}-per-layer", p.name);
    Ok(p)
}

fn compile_spec_inner(
    spec: &aq2pnn_nn::spec::ModelSpec,
    cfg: &ProtocolConfig,
    per_layer: Option<(u32, u32)>,
) -> Result<Program, String> {
    spec.infer_shapes().map_err(|e| e.to_string())?;
    let mut instrs = Vec::new();
    let mut idx = 0usize;
    // A spec carries no value width: it is costed under the paper's
    // recommended plan (value bits = Q1 − headroom), like `per_layer`.
    let lowering = Lowering::new(cfg.q1_bits, cfg.q1_bits.saturating_sub(HEADROOM_BITS));
    let out_shape =
        compile_spec_ops(&spec.ops, spec.input, lowering, cfg, per_layer, &mut idx, &mut instrs)?;
    let out = out_shape.elements();
    let bytes = packed_len(act_bits(cfg), out) as u64;
    instrs.push(Instr::Exchange {
        label: "output".into(),
        user_bytes: bytes,
        user_msgs: 1,
        provider_bytes: bytes,
        provider_msgs: 1,
    });
    Ok(Program { name: spec.name.clone(), instrs, cfg: cfg.clone() })
}

/// The MAC ring a GEMM layer uses: uniform `cfg.q2_bits`, or the layer's
/// worst-case-safe minimum when per-layer adaptivity is on.
fn layer_q2(cfg: &ProtocolConfig, per_layer: Option<(u32, u32)>, fan: u64) -> u32 {
    match per_layer {
        None => cfg.q2_bits,
        Some((value_bits, weight_bits)) => {
            let fan_bits = 64 - fan.max(1).leading_zeros();
            (value_bits + weight_bits + fan_bits + 1).clamp(cfg.q1_bits + 4, 48)
        }
    }
}

#[allow(clippy::too_many_lines)]
fn compile_spec_ops(
    ops: &[aq2pnn_nn::spec::OpSpec],
    input: aq2pnn_nn::spec::TensorShape,
    lowering: Lowering,
    cfg: &ProtocolConfig,
    per_layer: Option<(u32, u32)>,
    idx: &mut usize,
    out: &mut Vec<Instr>,
) -> Result<aq2pnn_nn::spec::TensorShape, String> {
    use aq2pnn_nn::spec::{ModelSpec, OpSpec, TensorShape};
    let shape_after = |op: &OpSpec, cur: TensorShape| -> Result<TensorShape, String> {
        let tmp = ModelSpec { name: String::new(), input: cur, ops: vec![op.clone()] };
        tmp.output_shape().map_err(|e| e.to_string())
    };
    let mut cur = input;
    let mut skip_bn = false;
    let ops = lowering.order(ops);
    for (pos, &op) in ops.iter().enumerate() {
        let i = *idx;
        *idx += 1;
        let next_shape = shape_after(op, cur)?;
        match op {
            OpSpec::Conv2d { out_c, k, .. } => {
                let (in_c, _, _) = match cur {
                    TensorShape::Chw(c, h, w) => (c, h, w),
                    TensorShape::Flat(_) => return Err("conv on flat input".into()),
                };
                let (oh, ow) = match next_shape {
                    TensorShape::Chw(_, h, w) => (h, w),
                    TensorShape::Flat(_) => unreachable!("conv output is CHW"),
                };
                let m = (oh * ow) as u64;
                let kk = (in_c * k * k) as u64;
                let n = *out_c as u64;
                let n_in = cur.elements() as u64;
                let q2l = layer_q2(cfg, per_layer, kk);
                out.push(Instr::LoadWeights { elems: kk * n + n, bits: q2l });
                let f_ex = packed_len(q2l, (kk * n) as usize) as u64;
                out.push(Instr::Exchange {
                    label: format!("offline-f.conv{i}"),
                    user_bytes: f_ex,
                    user_msgs: 1,
                    provider_bytes: f_ex,
                    provider_msgs: 1,
                });
                let ex = packed_len(q2l, n_in as usize) as u64;
                out.push(Instr::Exchange {
                    label: format!("conv{i}"),
                    user_bytes: ex,
                    user_msgs: 1,
                    provider_bytes: ex,
                    provider_msgs: 1,
                });
                out.push(Instr::Gemm { m, k: kk, n });
                out.push(Instr::Alu { kind: AluKind::Add, elems: m * n });
                out.push(Instr::Alu { kind: AluKind::MulShift, elems: m * n });
                // A following BatchNorm folds into this BNReQ.
                skip_bn = matches!(ops.get(pos + 1), Some(OpSpec::BatchNorm));
            }
            OpSpec::Linear { out: of } => {
                let kk = cur.elements() as u64;
                let n = *of as u64;
                let q2l = layer_q2(cfg, per_layer, kk);
                out.push(Instr::LoadWeights { elems: kk * n + n, bits: q2l });
                let f_ex = packed_len(q2l, (kk * n) as usize) as u64;
                out.push(Instr::Exchange {
                    label: format!("offline-f.fc{i}"),
                    user_bytes: f_ex,
                    user_msgs: 1,
                    provider_bytes: f_ex,
                    provider_msgs: 1,
                });
                let ex = packed_len(q2l, kk as usize) as u64;
                out.push(Instr::Exchange {
                    label: format!("fc{i}"),
                    user_bytes: ex,
                    user_msgs: 1,
                    provider_bytes: ex,
                    provider_msgs: 1,
                });
                out.push(Instr::Gemm { m: 1, k: kk, n });
                out.push(Instr::Alu { kind: AluKind::Add, elems: n });
                out.push(Instr::Alu { kind: AluKind::MulShift, elems: n });
            }
            OpSpec::BatchNorm => {
                if skip_bn {
                    skip_bn = false;
                } else {
                    out.push(Instr::Alu { kind: AluKind::MulShift, elems: cur.elements() as u64 });
                }
            }
            OpSpec::ReLU => {
                let n = cur.elements() as u64;
                out.extend(sign_instrs(&format!("abrelu{i}"), n, cfg, n));
            }
            OpSpec::MaxPool { k, stride, pad } => {
                let (c, ih, iw) = match cur {
                    TensorShape::Chw(c, h, w) => (c, h, w),
                    TensorShape::Flat(_) => return Err("pool on flat input".into()),
                };
                let (oh, ow) = match next_shape {
                    TensorShape::Chw(_, h, w) => (h, w),
                    TensorShape::Flat(_) => unreachable!("pool output is CHW"),
                };
                let plan = PoolPlan::new(c, (ih, iw), *k, *stride, *pad, (oh, ow));
                pool_instrs(i, &plan, cfg, out);
                out.push(Instr::Alu { kind: AluKind::Select, elems: (c * oh * ow) as u64 });
            }
            OpSpec::AvgPool { k, .. } => {
                let elems = next_shape.elements() as u64;
                out.push(Instr::Alu { kind: AluKind::Add, elems: elems * (*k * *k) as u64 });
                out.push(Instr::Alu { kind: AluKind::MulShift, elems });
            }
            OpSpec::GlobalAvgPool => {
                out.push(Instr::Alu { kind: AluKind::Add, elems: cur.elements() as u64 });
                out.push(Instr::Alu {
                    kind: AluKind::MulShift,
                    elems: next_shape.elements() as u64,
                });
            }
            OpSpec::Flatten => {}
            OpSpec::Residual { main, shortcut } => {
                let m_shape = compile_spec_ops(main, cur, lowering, cfg, per_layer, idx, out)?;
                // Main-branch rescale to the common output scale.
                out.push(Instr::Alu { kind: AluKind::MulShift, elems: m_shape.elements() as u64 });
                let s_shape = compile_spec_ops(shortcut, cur, lowering, cfg, per_layer, idx, out)?;
                out.push(Instr::Alu { kind: AluKind::MulShift, elems: s_shape.elements() as u64 });
                out.push(Instr::Alu { kind: AluKind::Add, elems: m_shape.elements() as u64 });
            }
        }
        cur = next_shape;
    }
    Ok(cur)
}

/// Best-effort output size of the most recent sized instruction.
fn last_output_elems(instrs: &[Instr]) -> u64 {
    for i in instrs.iter().rev() {
        match i {
            Instr::Gemm { m, n, .. } => return m * n,
            Instr::Alu { elems, .. } => return *elems,
            Instr::Compare { values, .. } => return *values,
            _ => {}
        }
    }
    0
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
    fn program_has_all_operator_classes() {
        let p = compile(&model(), &crate::ProtocolConfig::paper(16));
        assert!(p.instrs.iter().any(|i| matches!(i, Instr::Gemm { .. })));
        assert!(p.instrs.iter().any(|i| matches!(i, Instr::Compare { .. })));
        assert!(p.instrs.iter().any(|i| matches!(i, Instr::LoadWeights { .. })));
        assert!(p.total_bytes() > 0);
        assert!(p.gemm_macs() > 0);
    }

    #[test]
    fn comparisons_follow_the_lowering() {
        let m = model();
        let spec_cmp = zoo::tiny_cnn(4).total_comparisons().unwrap();
        // Below the headroom rule (int8 on a 7-bit carrier) the engine
        // runs — and the compiler costs — the spec's own order.
        assert_eq!(compile(&m, &crate::ProtocolConfig::paper(7)).comparisons(), spec_cmp);
        // With headroom both ReLUs ahead of a 2×2 pool shrink 4×:
        // 2048 → 512 and 1024 → 256; the pools' 1536 + 768 and the FC
        // ReLU's 32 are unchanged.
        let p = compile(&m, &crate::ProtocolConfig::paper(16));
        assert_eq!(p.comparisons(), 512 + 1536 + 256 + 768 + 32);
        assert_eq!(spec_cmp - p.comparisons(), 1536 + 768);
        // Layer indices follow execution order.
        assert!(p.bytes_for_phase_prefix("maxpool1.r0") > 0);
        assert!(p.bytes_for_phase_prefix("abrelu2") > 0);
        assert_eq!(p.bytes_for_phase_prefix("abrelu1"), 0);
    }

    #[test]
    fn smaller_q1_means_less_traffic() {
        let m = model();
        let big = compile(&m, &crate::ProtocolConfig::paper(24));
        let small = compile(&m, &crate::ProtocolConfig::paper(12));
        assert!(small.total_bytes() < big.total_bytes());
        // ABReLU traffic shrinks superlinearly (R matrix is U×ℓ bits).
        let r_big = big.bytes_for_phase_prefix("abrelu") as f64;
        let r_small = small.bytes_for_phase_prefix("abrelu") as f64;
        assert!(r_big / r_small > 24.0 / 12.0, "{r_big} vs {r_small}");
    }

    #[test]
    fn spec_compile_matches_model_compile() {
        // Compiling the spec directly and compiling the quantized instance
        // must agree on every cost figure (weights never matter).
        let m = model();
        let cfg = crate::ProtocolConfig::paper(16);
        let from_model = compile(&m, &cfg);
        let from_spec = compile_spec(&zoo::tiny_cnn(4), &cfg).unwrap();
        assert_eq!(from_model.total_bytes(), from_spec.total_bytes());
        assert_eq!(from_model.gemm_macs(), from_spec.gemm_macs());
        assert_eq!(from_model.comparisons(), from_spec.comparisons());
        assert_eq!(from_model.total_messages(), from_spec.total_messages());
    }

    #[test]
    fn spec_compile_residual_model() {
        let cfg = crate::ProtocolConfig::paper(16);
        let p = compile_spec(&zoo::tiny_resnet(4), &cfg).unwrap();
        assert_eq!(p.comparisons(), zoo::tiny_resnet(4).total_comparisons().unwrap());
        assert!(p.gemm_macs() > 0);
    }

    #[test]
    fn spec_compile_imagenet_scale() {
        // ResNet50 @224² compiles without materializing weights; traffic
        // lands in the paper's order of magnitude (Table 4 reports
        // 1120 MiB at 16 bits).
        let cfg = crate::ProtocolConfig::paper(16);
        let p = compile_spec(&zoo::resnet50_imagenet(), &cfg).unwrap();
        let mib = p.total_mib();
        assert!((100.0..6000.0).contains(&mib), "ResNet50 total {mib} MiB");
    }

    #[test]
    fn per_layer_compile_preserves_everything_but_gemm_exchanges() {
        let cfg = crate::ProtocolConfig::paper(16);
        let uniform = compile_spec(&zoo::tiny_cnn(4), &cfg).unwrap();
        let adaptive = compile_spec_per_layer(&zoo::tiny_cnn(4), &cfg, 8).unwrap();
        // Same compute, same comparisons; only GEMM exchange bytes change,
        // and never upward for this small-fan model.
        assert_eq!(uniform.gemm_macs(), adaptive.gemm_macs());
        assert_eq!(uniform.comparisons(), adaptive.comparisons());
        assert!(adaptive.online_total_bytes() <= uniform.online_total_bytes());
        assert!(adaptive.name.ends_with("-per-layer"));
    }

    #[test]
    fn per_layer_ring_respects_bounds() {
        let cfg = crate::ProtocolConfig::paper(16);
        // Small fan clamps at q1+4; huge fan clamps at 48.
        let p = compile_spec_per_layer(&zoo::vgg16_imagenet(), &cfg, 8).unwrap();
        assert!(p.online_total_bytes() > 0);
    }

    #[test]
    fn masked_mode_costs_more() {
        let m = model();
        let mut cfg = crate::ProtocolConfig::paper(16);
        let revealed = compile(&m, &cfg);
        cfg.relu_mode = ReluMode::MaskedMux;
        let masked = compile(&m, &cfg);
        assert!(masked.total_bytes() > revealed.total_bytes());
    }
}
