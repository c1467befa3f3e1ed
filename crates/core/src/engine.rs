//! The end-to-end secure inference engine.
//!
//! Executes an [`aq2pnn_nn::quant::QuantModel`] between the two parties,
//! following the paper's per-block workflow (Fig. 8): shares live on the
//! activation carrier `Q1` between operators; each linear operator widens
//! them to the MAC ring `Q2` (ring-size extension, step ④), runs
//! 2PC-Conv2D / 2PC-Linear over AS-GEMM (steps ⑤–⑥), requantizes through
//! 2PC-BNReQ (step ⑦) back to `Q1`, and non-linearities run through
//! ABReLU / the SCM (step ⑨).
//!
//! ## Offline share distribution
//!
//! Weight and input shares are derived from a PRG stream seeded by the
//! session's `setup_seed`: party 0's weight share is pure PRG output (so
//! it never needs — and never sees — the plaintext weights), and party 1
//! holds `w − PRG(seed)`. The input is shared symmetrically in the other
//! direction. This models the paper's pre-deployed AS-WGT / AS-INP
//! buffers; in the simulator both parties receive the same `QuantModel`
//! struct, but the engine reads plaintext weights only on the
//! model-provider side and the plaintext image only on the user side.
//!
//! The input-independent part of that work — weight share derivation, GEMM
//! layout transposition, triple-lane creation, the one-time `offline-f`
//! weight-mask openings — lives in [`crate::prepared`]; [`run_party`] is a
//! thin [`PreparedModel::prepare`]-then-[`PreparedModel::run`] wrapper, and
//! services running many inferences over one session should prepare once
//! and call [`PreparedModel::run`] per input.
//!
//! Communication is tagged per operator (`conv3`, `abrelu7`, …) so the
//! Table 5 operator profile can be read directly off the channel stats.

use crate::abrelu::{mux_by_receiver, secure_sign};
use crate::ops::PoolPlan;
use crate::prepared::PreparedModel;
use crate::{PartyContext, ProtocolError, ReluMode};
use aq2pnn_nn::quant::{QuantModel, QuantOp};
use aq2pnn_ring::{ct, RingTensor};
use aq2pnn_sharing::AShare;
use aq2pnn_transport::ChannelStats;

/// What a party brings to the inference.
#[derive(Debug, Clone, Copy)]
pub enum PartyInput<'a> {
    /// Party 0: the private image (float CHW; quantized with the model's
    /// public input scale).
    User(&'a [f32]),
    /// Party 1: contributes the model weights, no runtime input.
    Provider,
}

/// Result of one party's inference run.
#[derive(Debug, Clone)]
pub struct InferenceOutput {
    /// Recovered integer logits (the function output, revealed to both).
    pub logits: Vec<i64>,
    /// This party's channel statistics for the run.
    pub stats: ChannelStats,
}

/// What a party brings to a **batched** online pass
/// ([`PreparedModel::run_batch`]): the user its `B` private images, the
/// provider the (public) batch size so both sides walk the same widened
/// shapes.
#[derive(Debug, Clone, Copy)]
pub enum BatchInput<'a> {
    /// Party 0: the private images (float CHW, one slice per image).
    User(&'a [&'a [f32]]),
    /// Party 1: contributes the weights; `batch` must equal the user's
    /// image count (it is public protocol structure, like the model).
    Provider {
        /// Number of images in the batch.
        batch: usize,
    },
}

impl BatchInput<'_> {
    /// The batch size both parties agreed on.
    #[must_use]
    pub fn batch(&self) -> usize {
        match self {
            BatchInput::User(images) => images.len(),
            BatchInput::Provider { batch } => *batch,
        }
    }
}

/// Result of one party's batched inference pass.
#[derive(Debug, Clone)]
pub struct BatchOutput {
    /// Recovered integer logits, one vector per image, in input order.
    pub logits: Vec<Vec<i64>>,
    /// This party's channel statistics (the endpoint's running total, as
    /// with [`InferenceOutput::stats`]).
    pub stats: ChannelStats,
}

/// Runs one secure inference as `ctx.id`. Must be called concurrently by
/// both parties over a connected channel pair, with identical `model` and
/// configuration.
///
/// This is the single-shot convenience path: it prepares the model
/// ([`PreparedModel::prepare`]) and runs one inference
/// ([`PreparedModel::run`]). Callers issuing many inferences over one
/// session should prepare once themselves and reuse the
/// [`PreparedModel`] — repeated runs then skip all weight-share PRG
/// derivation and `offline-f` traffic.
///
/// # Errors
///
/// Returns a [`ProtocolError`] on channel failure, desync, or a model the
/// engine cannot lower.
pub fn run_party(
    ctx: &mut PartyContext,
    model: &QuantModel,
    input: PartyInput<'_>,
) -> Result<InferenceOutput, ProtocolError> {
    ctx.ep.reset_stats();
    // Validate the pairing before preparation opens the channel, so misuse
    // errors out instead of desyncing mid-handshake.
    match (ctx.id, &input) {
        (aq2pnn_sharing::PartyId::User, PartyInput::User(_))
        | (aq2pnn_sharing::PartyId::ModelProvider, PartyInput::Provider) => {}
        _ => {
            return Err(ProtocolError::Model(
                "party/input mismatch: user must pass User(image), provider Provider".into(),
            ))
        }
    }
    let mut prepared = PreparedModel::prepare(ctx, model)?;
    prepared.run(ctx, input)
}

/// Tournament 2PC-MaxPool of `b` stacked images over the layer's
/// precomputed [`PoolPlan`]: one batched comparison round per level, all
/// in one slot buffer — the plan's per-image indices are offset
/// arithmetically per image, image-major, so the pair order (and the wire
/// transcript) is that of `b` sequential single-image tournaments
/// concatenated level by level.
pub(crate) fn secure_max_pool(
    ctx: &mut PartyContext,
    x: &AShare,
    plan: &PoolPlan,
    b: usize,
) -> Result<AShare, ProtocolError> {
    let ring = x.ring();
    let xs = x.as_tensor().as_slice();
    let (item, slots) = (xs.len() / b, plan.gather.len());
    // This party's share of every candidate.
    let mut work = Vec::with_capacity(b * slots);
    for i in 0..b {
        work.extend(plan.gather.iter().map(|&g| xs[i * item + g]));
    }
    for level in &plan.levels {
        let n = b * level.pairs.len();
        let (mut a_vals, mut b_vals) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for i in 0..b {
            for &(src, _) in &level.pairs {
                a_vals.push(work[i * slots + src]);
                b_vals.push(work[i * slots + src + 1]);
            }
        }
        let a = AShare::from_tensor(RingTensor::from_raw(ring, vec![n], a_vals)?);
        let b_sh = AShare::from_tensor(RingTensor::from_raw(ring, vec![n], b_vals)?);
        let maxes = secure_max_pairs(ctx, &a, &b_sh)?;
        let winners = maxes.as_tensor().as_slice();
        let per = level.pairs.len();
        for i in 0..b {
            for (j, &(_, dst)) in level.pairs.iter().enumerate() {
                work[i * slots + dst] = winners[i * per + j];
            }
            for &(from, to) in &level.carries {
                work[i * slots + to] = work[i * slots + from];
            }
        }
    }
    let mut data = Vec::with_capacity(b * plan.starts.len());
    for i in 0..b {
        data.extend(plan.starts.iter().map(|&s| work[i * slots + s]));
    }
    Ok(AShare::from_tensor(RingTensor::from_raw(ring, vec![data.len()], data)?))
}

/// Elementwise secure max of two share vectors:
/// `max(a,b) = b + [a−b > 0]·(a−b)`.
fn secure_max_pairs(
    ctx: &mut PartyContext,
    a: &AShare,
    b: &AShare,
) -> Result<AShare, ProtocolError> {
    let d = a.sub(b)?;
    let q1 = ctx.q1();
    let d_cmp = if d.ring() == q1 { d.clone() } else { d.narrow(q1) };
    let mode = ctx.cfg.relu_mode;
    let signs = secure_sign(ctx, &d_cmp, mode)?;
    match mode {
        ReluMode::RevealedSign => {
            let flags = signs.flags.ok_or_else(|| {
                ProtocolError::Desync("revealed mode yielded no sign flags in secure max".into())
            })?;
            let ring = a.ring();
            let data: Vec<u64> = a
                .as_tensor()
                .iter()
                .zip(b.as_tensor().iter())
                .zip(&flags)
                .map(|((&av, &bv), &s)| ct::select(u64::from(s), av, bv))
                .collect();
            Ok(AShare::from_tensor(RingTensor::from_raw(ring, vec![data.len()], data)?))
        }
        ReluMode::MaskedMux => {
            let sd = mux_by_receiver(ctx, signs.flags.as_deref(), &d)?;
            b.add(&sd).map_err(ProtocolError::from)
        }
    }
}

/// Convenience: the number of logits the engine will reveal for a model.
#[must_use]
pub fn output_len(model: &QuantModel) -> usize {
    // The last shape-bearing op determines it; fall back to walking ops.
    fn walk(ops: &[QuantOp], mut cur: usize) -> usize {
        for op in ops {
            cur = match op {
                QuantOp::Conv2d { out_c, out_hw, .. } => out_c * out_hw.0 * out_hw.1,
                QuantOp::Linear { out_f, .. } => *out_f,
                QuantOp::MaxPool { c, out_hw, .. } | QuantOp::AvgPool { c, out_hw, .. } => {
                    c * out_hw.0 * out_hw.1
                }
                QuantOp::GlobalAvgPool { c, .. } => *c,
                QuantOp::Residual { main, .. } => walk(main, cur),
                _ => cur,
            };
        }
        cur
    }
    walk(&model.ops, model.input_shape.elements())
}

/// An upper bound on the accumulator magnitude of the widest layer —
/// used by the planner to validate `Q2`.
#[must_use]
pub fn max_fan_in(model: &QuantModel) -> u64 {
    fn walk(ops: &[QuantOp]) -> u64 {
        let mut m = 1u64;
        for op in ops {
            m = m.max(match op {
                QuantOp::Conv2d { in_c, k, .. } => (in_c * k * k) as u64,
                QuantOp::Linear { in_f, .. } => *in_f as u64,
                QuantOp::Residual { main, shortcut } => walk(main).max(walk(shortcut)),
                _ => 1,
            });
        }
        m
    }
    walk(&model.ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abrelu::abrelu;
    use crate::sim::run_pair;
    use crate::ProtocolConfig;
    use aq2pnn_sharing::PartyId;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The identity behind pool-before-ReLU (DESIGN.md §7.6), on the
        /// live protocol: `abrelu ∘ maxpool` and `maxpool ∘ abrelu` yield
        /// identical *shares* under `RevealedSign` and identical values
        /// under `MaskedMux`, for padded and overlapping windows, batched
        /// and not. Values span a few units around 0
        /// so ties, zeros and all-negative windows are common.
        #[test]
        fn pool_then_relu_equals_relu_then_pool(
            seed in 0u64..10_000,
            geom in 0usize..3,
            batched in any::<bool>(),
            masked in any::<bool>(),
            spread in 1i64..128,
        ) {
            let (k, stride, pad) = [(2, 2, 0), (3, 2, 1), (3, 2, 0)][geom];
            let (c, hw) = (4usize, 13usize);
            let out = (hw + 2 * pad - k) / stride + 1;
            let plan = PoolPlan::new(c, (hw, hw), k, stride, pad, (out, out));
            let b = if batched { 4 } else { 1 };
            let mut cfg = ProtocolConfig::paper(16);
            if masked {
                cfg.relu_mode = ReluMode::MaskedMux;
            }
            let ring = cfg.q2();
            let mut rng = StdRng::seed_from_u64(seed);
            let vals: Vec<i64> =
                (0..b * c * hw * hw).map(|_| rng.gen_range(-spread..=spread)).collect();
            let t = RingTensor::from_signed(ring, vec![b * c, hw, hw], &vals).unwrap();
            let (s0, s1) = AShare::share(&t, &mut rng);
            let ((spec0, low0), (spec1, low1)) = run_pair(&cfg, move |ctx| {
                let x = match ctx.id {
                    PartyId::User => s0.clone(),
                    PartyId::ModelProvider => s1.clone(),
                };
                let rectified = abrelu(ctx, &x).unwrap();
                let spec = secure_max_pool(ctx, &rectified, &plan, b).unwrap();
                let pooled = secure_max_pool(ctx, &x, &plan, b).unwrap();
                let lowered = abrelu(ctx, &pooled).unwrap();
                (spec, lowered)
            });
            if !masked {
                prop_assert_eq!(spec0.as_tensor(), low0.as_tensor());
                prop_assert_eq!(spec1.as_tensor(), low1.as_tensor());
            }
            let spec = AShare::recover(&spec0, &spec1).unwrap().to_signed();
            let lowered = AShare::recover(&low0, &low1).unwrap().to_signed();
            prop_assert_eq!(&spec, &lowered);
            // Both equal the plaintext relu(max(window)).
            let item = c * hw * hw;
            let want: Vec<i64> = (0..b)
                .flat_map(|i| {
                    let vals = &vals;
                    crate::ops::pool_windows(c, (hw, hw), k, stride, pad, (out, out))
                        .into_iter()
                        .map(move |w| w.iter().map(|&ix| vals[i * item + ix]).max().unwrap().max(0))
                })
                .collect();
            prop_assert_eq!(lowered, want);
        }
    }
}
