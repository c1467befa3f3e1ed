//! Prepared-model execution: the offline/online split for repeated
//! inference.
//!
//! [`crate::engine::run_party`] rebuilds every piece of per-model state on
//! each call: it re-derives both parties' weight shares from the setup PRG,
//! re-transposes each weight matrix into GEMM layout, regenerates dealer
//! triples, and re-opens the static weight masks `F = W − B` (the
//! `offline-f` exchanges). All of that depends only on the model — not on
//! the input — and in the paper's deployment model it corresponds to the
//! **pre-deployed** AS-WGT / AS-WGT-MSK buffers that are shipped once.
//!
//! [`PreparedModel`] hoists it out of the hot path:
//!
//! * [`PreparedModel::prepare`] walks the model once, deriving weight and
//!   bias shares from the setup PRG, transposing weights into the
//!   `[in_c·k·k, out_c]` GEMM layout, creating a resident
//!   [`TripleLane`] per linear layer, and opening each layer's weight mask
//!   under the `offline-f` phase.
//! * [`PreparedModel::run`] then executes one inference using only the
//!   per-input work: input sharing, fresh `A`/`Z` triples from the lanes,
//!   the online `E` exchanges, and the non-linear protocols. Repeated runs
//!   perform **zero** weight-share PRG regeneration and **zero**
//!   `offline-f` traffic.
//!
//! `run_party` is now a thin `prepare`-then-`run` wrapper, so single-shot
//! callers see identical behavior (same phases, same byte counts).
//!
//! # Template/bind split
//!
//! [`PreparedModel::prepare`] itself is two halves:
//!
//! * [`PreparedTemplate::build`] — everything **channel-free and
//!   dealer-free**: weight/bias share derivation from the setup PRG,
//!   GEMM-layout transposition, pooling tournament plans — in the engine's
//!   execution order ([`crate::lower`]). The result
//!   is `Send + Sync` plain data, so a multi-tenant server builds it once
//!   per (model, ℓ-profile) and shares it across sessions behind an `Arc`.
//! * [`PreparedTemplate::bind`] — the per-session remainder: drawing each
//!   linear layer's [`TripleLane`] from the session dealer (keeping the
//!   dealer stream in lockstep with a peer doing a full `prepare`) and the
//!   one interactive step, the `offline-f` weight-mask openings.
//!
//! `prepare` = `build` + `bind`, with byte-identical wire traffic.

use crate::abrelu::abrelu;
use crate::dealer::{DealerConfig, DealerPool, ExpandFn, LaneSlot, TripleSource};
use crate::engine::{secure_max_pool, BatchInput, BatchOutput, InferenceOutput, PartyInput};
use crate::gemm::open_weight_mask;
use crate::lower::Lowering;
use crate::ops::{
    channel_sum, im2col_tensor, pool_sum, requant_share, secure_conv2d_prepared_batch,
    secure_linear_prepared_batch, ConvGeometry, PoolPlan,
};
use crate::party::IoSpan;
use crate::{PartyContext, PipelineMode, ProtocolConfig, ProtocolError};
use aq2pnn_nn::quant::{quantize_image, QuantModel, QuantOp, Requant};
use aq2pnn_obs::report::{ARG_RING_BITS, ARG_SHAPE, CAT_LAYER, CAT_OFFLINE, CAT_STAGE};
use aq2pnn_obs::Histogram;
use aq2pnn_ring::{Ring, RingTensor};
use aq2pnn_sharing::{AShare, PartyId};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use std::sync::Arc;

/// A model lowered to its resident per-party inference state: weight and
/// bias shares, opened weight masks, triple lanes, and pooling geometry.
///
/// Build one with [`PreparedModel::prepare`] (both parties in lockstep),
/// then call [`PreparedModel::run`] once per inference. The struct is
/// party-specific — it holds *this* party's shares — and channel-free, so
/// it can outlive many runs over the same [`PartyContext`].
pub struct PreparedModel {
    ops: Vec<PreparedOp>,
    n_in: usize,
    input_scale: f32,
    act_bits: u32,
}

impl std::fmt::Debug for PreparedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedModel")
            .field("ops", &self.ops.len())
            .field("n_in", &self.n_in)
            .finish_non_exhaustive()
    }
}

/// One lowered operator with its engine layer index (which names the
/// communication phases: `conv{idx}`, `abrelu{idx}`, …).
struct PreparedOp {
    idx: usize,
    kind: PreparedKind,
}

enum PreparedKind {
    Conv2d {
        geom: ConvGeometry,
        w_mat: AShare,
        bias: AShare,
        f_open: RingTensor,
        source: TripleSource,
        requant: Requant,
    },
    Linear {
        w_mat: AShare,
        bias: AShare,
        f_open: RingTensor,
        source: TripleSource,
        requant: Requant,
    },
    Relu,
    MaxPool {
        c: usize,
        out_hw: (usize, usize),
        /// Built once per template, shared by every session bound to it.
        plan: Arc<PoolPlan>,
    },
    AvgPool {
        k: usize,
        stride: usize,
        pad: usize,
        c: usize,
        in_hw: (usize, usize),
        out_hw: (usize, usize),
        requant: Requant,
    },
    GlobalAvgPool {
        c: usize,
        spatial: usize,
        requant: Requant,
    },
    Flatten,
    Rescale {
        requant: Requant,
    },
    Residual {
        main: Vec<PreparedOp>,
        shortcut: Vec<PreparedOp>,
    },
}

impl PreparedModel {
    /// Performs all input-independent work for `model` as `ctx.id`: weight
    /// share derivation from the setup PRG, GEMM-layout transposition,
    /// triple-lane creation, and the one-time `offline-f` weight-mask
    /// openings. Both parties must call concurrently with the same model
    /// and configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] on channel failure, desync, or a model
    /// the engine cannot lower.
    pub fn prepare(
        ctx: &mut PartyContext,
        model: &QuantModel,
    ) -> Result<PreparedModel, ProtocolError> {
        let cfg = ctx.cfg.clone();
        PreparedTemplate::build(ctx.id, &cfg, model)?.bind(ctx)
    }

    /// Runs one secure inference over the prepared state. Must be called
    /// concurrently by both parties, in the same run order.
    ///
    /// Channel statistics are *not* reset here (so preparation traffic and
    /// multiple runs accumulate into one [`aq2pnn_transport::ChannelStats`]
    /// unless the caller resets between runs); the returned
    /// [`InferenceOutput::stats`] is the endpoint's running total.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] on channel failure, desync, or a
    /// party/input mismatch.
    pub fn run(
        &mut self,
        ctx: &mut PartyContext,
        input: PartyInput<'_>,
    ) -> Result<InferenceOutput, ProtocolError> {
        let out = match input {
            PartyInput::User(image) => self.run_batch(ctx, BatchInput::User(&[image])),
            PartyInput::Provider => self.run_batch(ctx, BatchInput::Provider { batch: 1 }),
        }?;
        let mut logits = out.logits;
        Ok(InferenceOutput { logits: logits.remove(0), stats: out.stats })
    }

    /// Runs one **batched** online pass: `B` images walk the network
    /// together, so every layer's `E` opening, A2B conversion and OT flow
    /// is one `B×`-sized message instead of `B` round-trips — per-message
    /// latency and per-call setup amortize across the batch. Must be
    /// called concurrently by both parties with the same batch size.
    ///
    /// Logits are bit-identical to `B` sequential [`PreparedModel::run`]
    /// calls (the batched pass consumes each triple lane in the same
    /// stream order), except under the `MaskedMux` + local-truncation
    /// configuration, whose mux masks draw from the session RNG in
    /// call-count-dependent order (the ±1 local-truncation jitter can then
    /// land differently; reconstruction-exact configs are unaffected).
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] on channel failure, desync, an empty
    /// batch, or a party/input mismatch.
    pub fn run_batch(
        &mut self,
        ctx: &mut PartyContext,
        input: BatchInput<'_>,
    ) -> Result<BatchOutput, ProtocolError> {
        let b = input.batch();
        // secrecy: allow(secret-branch, "`b` is the public batch size both parties agree on — architecture metadata under the §8 threat model, not image data")
        if b == 0 {
            return Err(ProtocolError::Model("empty batch".into()));
        }
        if ctx.metrics.is_enabled() {
            #[allow(clippy::cast_precision_loss)]
            ctx.metrics.observe_with(
                "engine.batch_size",
                &Histogram::exponential(1.0, 2.0, 6),
                b as f64,
            );
        }
        let act_ring = match ctx.cfg.pipeline {
            PipelineMode::StayWide => ctx.q2(),
            PipelineMode::NarrowActivations => ctx.q1(),
        };

        // --- Input sharing (offline-style PRG masks). ---
        ctx.ep.set_phase("input");
        let batch_arg = [("batch", aq2pnn_obs::ArgValue::from(b as u64))];
        // secrecy: allow(secret-branch, "span-arg choice keyed on the public batch size, identical on both parties")
        let in_span = ctx.span_begin("input", CAT_LAYER, if b > 1 { &batch_arg } else { &[] });
        let n_in = self.n_in;
        // Per-image mask from the re-seeded input stream — byte-for-byte
        // what `b` sequential runs would derive.
        let x = match (ctx.id, input) {
            (PartyId::User, BatchInput::User(images)) => {
                // secrecy: allow(secret-alloc, "capacity is the public batch size × public input shape, not an image value")
                let mut data = Vec::with_capacity(b * n_in);
                for image in images {
                    let mut in_stream =
                        ChaCha20Rng::seed_from_u64(ctx.cfg.setup_seed ^ 0x1fa7_0001);
                    let mask = RingTensor::random(act_ring, vec![n_in], &mut in_stream);
                    let qx = quantize_image(image, self.input_scale, self.act_bits);
                    let enc = RingTensor::from_signed(act_ring, vec![n_in], &qx)?;
                    data.extend_from_slice(enc.sub(&mask)?.as_slice());
                }
                AShare::from_tensor(RingTensor::from_raw(act_ring, vec![b * n_in], data)?)
            }
            (PartyId::ModelProvider, BatchInput::Provider { .. }) => {
                // secrecy: allow(secret-alloc, "capacity is the public batch size × public input shape, not an image value")
                let mut data = Vec::with_capacity(b * n_in);
                for _ in 0..b {
                    let mut in_stream =
                        ChaCha20Rng::seed_from_u64(ctx.cfg.setup_seed ^ 0x1fa7_0001);
                    let mask = RingTensor::random(act_ring, vec![n_in], &mut in_stream);
                    data.extend_from_slice(mask.as_slice());
                }
                AShare::from_tensor(RingTensor::from_raw(act_ring, vec![b * n_in], data)?)
            }
            _ => {
                return Err(ProtocolError::Model(
                    "party/input mismatch: user must pass User(image), provider Provider".into(),
                ))
            }
        };

        end_layer_span(ctx, in_span, &x);

        // --- Walk the prepared ops (online work only). ---
        let out = run_ops(ctx, &mut self.ops, x, b)?;

        // --- Reveal the logits. ---
        ctx.ep.set_phase("output");
        let out_span = ctx.span_begin("output", CAT_LAYER, &[]);
        let mine = out.as_tensor().as_slice().to_vec();
        let out_ring = out.ring();
        let theirs = ctx.ep.exchange_bits(&mine, out_ring.bits(), mine.len())?;
        end_layer_span(ctx, out_span, &out);
        if theirs.len() != mine.len() {
            return Err(ProtocolError::Desync("output share length mismatch".into()));
        }
        let flat: Vec<i64> = mine
            .iter()
            .zip(&theirs)
            .map(|(&a, &b)| out_ring.decode_signed(out_ring.add(a, b)))
            .collect();
        let per = flat.len() / b;
        let logits: Vec<Vec<i64>> = flat.chunks(per).map(<[i64]>::to_vec).collect();
        Ok(BatchOutput { logits, stats: ctx.ep.stats() })
    }

    /// Moves this model's resident triple lanes into a background
    /// [`DealerPool`]: a dedicated worker thread keeps a bounded queue of
    /// pre-generated triples per linear layer, so subsequent
    /// [`PreparedModel::run`] / [`PreparedModel::run_batch`] calls *pop*
    /// offline material instead of generating it on the online critical
    /// path.
    ///
    /// Purely party-local (no protocol traffic, no cross-party
    /// coordination) — one party may pool while the other stays inline.
    /// Dropping the returned pool stops refilling; the model then falls
    /// back to the pool's exhaustion behavior on the still-shared slots.
    /// Calling again on an already-pooled model is a no-op returning an
    /// empty pool.
    pub fn spawn_dealer(&mut self, ctx: &PartyContext, cfg: DealerConfig) -> DealerPool {
        let mut lanes: Vec<(String, aq2pnn_sharing::dealer::TripleLane, ExpandFn)> = Vec::new();
        collect_lanes(&self.ops, &mut lanes);
        let pool = DealerPool::new(ctx, lanes, cfg);
        let mut cursor = 0usize;
        assign_slots(&mut self.ops, pool.slots(), &mut cursor);
        pool
    }

    /// Like [`PreparedModel::spawn_dealer`], but registers the lanes with
    /// a shared [`DealerHub`] instead of spawning a dedicated worker — the
    /// multi-tenant server's shape, where one dealer thread serves every
    /// session and a session's teardown (dropping the returned pool)
    /// reclaims exactly its own lanes.
    pub fn spawn_dealer_on(
        &mut self,
        ctx: &PartyContext,
        cfg: DealerConfig,
        hub: &crate::dealer::DealerHub,
    ) -> DealerPool {
        let mut lanes: Vec<(String, aq2pnn_sharing::dealer::TripleLane, ExpandFn)> = Vec::new();
        collect_lanes(&self.ops, &mut lanes);
        let pool = hub.register(&ctx.tracer, &ctx.metrics, lanes, cfg);
        let mut cursor = 0usize;
        assign_slots(&mut self.ops, pool.slots(), &mut cursor);
        pool
    }
}

/// The channel-free, dealer-free half of preparation: weight and bias
/// shares in GEMM layout plus all static geometry, derived purely from
/// `(party, config, model)`. Plain data — `Send + Sync` — so a server
/// builds one per (model, ℓ-profile), wraps it in an `Arc`, and
/// [`PreparedTemplate::bind`]s it once per session.
pub struct PreparedTemplate {
    ops: Vec<TemplateOp>,
    n_in: usize,
    input_scale: f32,
    act_bits: u32,
}

impl std::fmt::Debug for PreparedTemplate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedTemplate")
            .field("ops", &self.ops.len())
            .field("n_in", &self.n_in)
            .finish_non_exhaustive()
    }
}

struct TemplateOp {
    idx: usize,
    kind: TemplateKind,
}

enum TemplateKind {
    Conv2d {
        geom: ConvGeometry,
        w_mat: AShare,
        bias: AShare,
        /// Activation shape *entering* the layer — fixes the compact
        /// triple shape the bound lane must draw.
        a_shape: Vec<usize>,
        out_shape: Vec<usize>,
        requant: Requant,
    },
    Linear {
        w_mat: AShare,
        bias: AShare,
        a_shape: Vec<usize>,
        out_shape: Vec<usize>,
        requant: Requant,
    },
    Relu,
    MaxPool {
        c: usize,
        out_hw: (usize, usize),
        /// Built once per template, shared by every session bound to it.
        plan: Arc<PoolPlan>,
    },
    AvgPool {
        k: usize,
        stride: usize,
        pad: usize,
        c: usize,
        in_hw: (usize, usize),
        out_hw: (usize, usize),
        requant: Requant,
    },
    GlobalAvgPool {
        c: usize,
        spatial: usize,
        requant: Requant,
    },
    Flatten,
    Rescale {
        requant: Requant,
    },
    Residual {
        main: Vec<TemplateOp>,
        shortcut: Vec<TemplateOp>,
    },
}

impl PreparedTemplate {
    /// Derives the template for `model` as party `id`: weight/bias share
    /// derivation from the setup PRG, GEMM-layout transposition, pooling
    /// windows. No channel, no dealer — safe to run anywhere, any number
    /// of times, and cacheable across sessions.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] for a model the engine cannot lower.
    pub fn build(
        id: PartyId,
        cfg: &ProtocolConfig,
        model: &QuantModel,
    ) -> Result<PreparedTemplate, ProtocolError> {
        let mut wstream = ChaCha20Rng::seed_from_u64(cfg.setup_seed ^ 0x7e19_0002);
        let mut layer_idx = 0usize;
        let mut cur_shape = vec![model.input_shape.elements()];
        let lowering = Lowering::new(cfg.q1_bits, model.act_bits);
        let ops = build_ops(
            id,
            cfg.q2(),
            lowering,
            &model.ops,
            &mut cur_shape,
            &mut wstream,
            &mut layer_idx,
        )?;
        Ok(PreparedTemplate {
            ops,
            n_in: model.input_shape.elements(),
            input_scale: model.input_scale,
            act_bits: model.act_bits,
        })
    }

    /// Completes preparation for one session: draws each linear layer's
    /// triple lane from `ctx`'s dealer (same order as a full
    /// [`PreparedModel::prepare`], so both parties' dealer streams stay in
    /// lockstep even when only one side uses a cached template) and runs
    /// the `offline-f` weight-mask openings — the only interactive step.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] on channel failure or desync.
    pub fn bind(&self, ctx: &mut PartyContext) -> Result<PreparedModel, ProtocolError> {
        let ops = bind_ops(ctx, &self.ops)?;
        Ok(PreparedModel {
            ops,
            n_in: self.n_in,
            input_scale: self.input_scale,
            act_bits: self.act_bits,
        })
    }
}

/// The bind walk: mirrors [`build_ops`] order exactly so dealer
/// consumption matches a monolithic `prepare`.
fn bind_ops(ctx: &mut PartyContext, ops: &[TemplateOp]) -> Result<Vec<PreparedOp>, ProtocolError> {
    let q2 = ctx.q2();
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        let idx = op.idx;
        let kind = match &op.kind {
            TemplateKind::Conv2d { geom, w_mat, bias, a_shape, out_shape, requant } => {
                let span = ctx.span_begin(format!("conv{idx}"), CAT_OFFLINE, &[]);
                let lane = ctx.expanded_lane(q2, a_shape, w_mat.shape());
                let f_open = open_weight_mask(ctx, w_mat, lane.b_share())?;
                ctx.span_end_with(span, &[(ARG_SHAPE, shape_str(out_shape).into())]);
                PreparedKind::Conv2d {
                    geom: *geom,
                    w_mat: w_mat.clone(),
                    bias: bias.clone(),
                    f_open,
                    source: TripleSource::Inline(Box::new(lane)),
                    requant: *requant,
                }
            }
            TemplateKind::Linear { w_mat, bias, a_shape, out_shape, requant } => {
                let span = ctx.span_begin(format!("fc{idx}"), CAT_OFFLINE, &[]);
                let lane = ctx.expanded_lane(q2, a_shape, w_mat.shape());
                let f_open = open_weight_mask(ctx, w_mat, lane.b_share())?;
                ctx.span_end_with(span, &[(ARG_SHAPE, shape_str(out_shape).into())]);
                PreparedKind::Linear {
                    w_mat: w_mat.clone(),
                    bias: bias.clone(),
                    f_open,
                    source: TripleSource::Inline(Box::new(lane)),
                    requant: *requant,
                }
            }
            TemplateKind::Relu => PreparedKind::Relu,
            TemplateKind::MaxPool { c, out_hw, plan } => {
                PreparedKind::MaxPool { c: *c, out_hw: *out_hw, plan: Arc::clone(plan) }
            }
            TemplateKind::AvgPool { k, stride, pad, c, in_hw, out_hw, requant } => {
                PreparedKind::AvgPool {
                    k: *k,
                    stride: *stride,
                    pad: *pad,
                    c: *c,
                    in_hw: *in_hw,
                    out_hw: *out_hw,
                    requant: *requant,
                }
            }
            TemplateKind::GlobalAvgPool { c, spatial, requant } => {
                PreparedKind::GlobalAvgPool { c: *c, spatial: *spatial, requant: *requant }
            }
            TemplateKind::Flatten => PreparedKind::Flatten,
            TemplateKind::Rescale { requant } => PreparedKind::Rescale { requant: *requant },
            TemplateKind::Residual { main, shortcut } => PreparedKind::Residual {
                main: bind_ops(ctx, main)?,
                shortcut: bind_ops(ctx, shortcut)?,
            },
        };
        out.push(PreparedOp { idx, kind });
    }
    Ok(out)
}

/// Gathers `(label, lane, expand)` for every inline linear layer, in the
/// online walk order (residual main before shortcut — the same order
/// [`assign_slots`] revisits them in).
fn collect_lanes(
    ops: &[PreparedOp],
    out: &mut Vec<(String, aq2pnn_sharing::dealer::TripleLane, ExpandFn)>,
) {
    for op in ops {
        match &op.kind {
            PreparedKind::Conv2d { geom, source: TripleSource::Inline(lane), .. } => {
                let g = *geom;
                out.push((
                    format!("conv{}", op.idx),
                    lane.as_ref().clone(),
                    Box::new(move |t| im2col_tensor(t, &g)),
                ));
            }
            PreparedKind::Linear { source: TripleSource::Inline(lane), .. } => {
                let in_f: usize = lane.a_shape().iter().product();
                out.push((
                    format!("fc{}", op.idx),
                    lane.as_ref().clone(),
                    Box::new(move |t| {
                        let mut m = t.clone();
                        m.reshape(vec![1, in_f]).expect("row vector");
                        m
                    }),
                ));
            }
            PreparedKind::Residual { main, shortcut } => {
                collect_lanes(main, out);
                collect_lanes(shortcut, out);
            }
            _ => {}
        }
    }
}

/// Second walk of [`PreparedModel::spawn_dealer`]: repoints each inline
/// linear layer at its pooled slot, in the same order [`collect_lanes`]
/// gathered them.
fn assign_slots(ops: &mut [PreparedOp], slots: &[Arc<LaneSlot>], cursor: &mut usize) {
    for op in ops.iter_mut() {
        match &mut op.kind {
            PreparedKind::Conv2d { source, .. } | PreparedKind::Linear { source, .. } => {
                if matches!(source, TripleSource::Inline(_)) {
                    *source = TripleSource::Pooled(Arc::clone(&slots[*cursor]));
                    *cursor += 1;
                }
            }
            PreparedKind::Residual { main, shortcut } => {
                assign_slots(main, slots, cursor);
                assign_slots(shortcut, slots, cursor);
            }
            _ => {}
        }
    }
}

/// `"6x24x24"`-style shape label for span arguments (public structure).
fn shape_str(shape: &[usize]) -> String {
    shape.iter().map(ToString::to_string).collect::<Vec<_>>().join("x")
}

/// Closes a layer span, stamping the layer's *output* ring width and shape
/// alongside the channel deltas. No-op when tracing is disabled.
fn end_layer_span(ctx: &PartyContext, span: IoSpan, out: &AShare) {
    ctx.span_end_with(
        span,
        &[
            (ARG_RING_BITS, u64::from(out.ring().bits()).into()),
            (ARG_SHAPE, shape_str(out.shape()).into()),
        ],
    );
}

/// The span/phase name of a lowered op, `None` for ops that are pure
/// bookkeeping ([`PreparedKind::Flatten`]) or that must not wrap their
/// children in a span ([`PreparedKind::Residual`] — the branch layers stay
/// top-level so the cost report keeps one row per layer; only the final
/// add gets its own `resadd{idx}` span inside the arm).
fn layer_label(idx: usize, kind: &PreparedKind) -> Option<String> {
    match kind {
        PreparedKind::Conv2d { .. } => Some(format!("conv{idx}")),
        PreparedKind::Linear { .. } => Some(format!("fc{idx}")),
        PreparedKind::Relu => Some(format!("abrelu{idx}")),
        PreparedKind::MaxPool { .. } => Some(format!("maxpool{idx}")),
        PreparedKind::AvgPool { .. } => Some(format!("avgpool{idx}")),
        PreparedKind::GlobalAvgPool { .. } => Some(format!("gap{idx}")),
        PreparedKind::Rescale { .. } => Some(format!("rescale{idx}")),
        PreparedKind::Flatten | PreparedKind::Residual { .. } => None,
    }
}

/// Derives this party's share of a plaintext tensor held by the model
/// provider, consuming the shared PRG stream (both parties must call in
/// lockstep).
fn provider_share(
    id: PartyId,
    plain: impl Fn() -> RingTensor,
    ring: Ring,
    shape: &[usize],
    stream: &mut ChaCha20Rng,
) -> AShare {
    let mask = RingTensor::random(ring, shape.to_vec(), stream);
    match id {
        PartyId::User => AShare::from_tensor(mask),
        PartyId::ModelProvider => {
            let p = plain();
            AShare::from_tensor(p.sub(&mask).expect("share shapes agree"))
        }
    }
}

/// The template lowering walk: fixes the engine's execution order
/// ([`Lowering::order`] per op list, depth-first, residual main before
/// shortcut) — [`bind_ops`] and [`run_ops`] simply follow the template —
/// so PRG stream consumption stays in lockstep across parties. `cur_shape` tracks the activation
/// tensor shape, which fixes each layer's compact triple shape (recorded
/// as `a_shape` for [`bind_ops`] to draw the matching lane). Dealer- and
/// channel-free by construction.
#[allow(clippy::too_many_lines)]
fn build_ops(
    id: PartyId,
    q2: Ring,
    lowering: Lowering,
    ops: &[QuantOp],
    cur_shape: &mut Vec<usize>,
    wstream: &mut ChaCha20Rng,
    layer_idx: &mut usize,
) -> Result<Vec<TemplateOp>, ProtocolError> {
    let mut out = Vec::with_capacity(ops.len());
    for op in lowering.order(ops) {
        let idx = *layer_idx;
        *layer_idx += 1;
        let kind = match op {
            QuantOp::Conv2d { in_c, out_c, k, stride, pad, in_hw, out_hw, w, bias, requant } => {
                let geom = ConvGeometry {
                    in_c: *in_c,
                    out_c: *out_c,
                    k: *k,
                    stride: *stride,
                    pad: *pad,
                    in_hw: *in_hw,
                    out_hw: *out_hw,
                };
                let kdim = in_c * k * k;
                // Weight matrix [in_c·k·k, out_c] on Q2, transposed once
                // from the model's [out_c, in_c·k·k] layout.
                let w_mat = provider_share(
                    id,
                    || {
                        let mut data = vec![0u64; kdim * out_c];
                        for oc in 0..*out_c {
                            for kk in 0..kdim {
                                data[kk * out_c + oc] =
                                    q2.encode_signed_wrapping(w[oc * kdim + kk]);
                            }
                        }
                        RingTensor::from_raw(q2, vec![kdim, *out_c], data).expect("geometry")
                    },
                    q2,
                    &[kdim, *out_c],
                    wstream,
                );
                let bias = provider_share(
                    id,
                    || {
                        RingTensor::from_signed(q2, vec![*out_c], bias)
                            .expect("bias length matches")
                    },
                    q2,
                    &[*out_c],
                    wstream,
                );
                let a_shape = cur_shape.clone();
                *cur_shape = vec![*out_c, out_hw.0, out_hw.1];
                TemplateKind::Conv2d {
                    geom,
                    w_mat,
                    bias,
                    a_shape,
                    out_shape: cur_shape.clone(),
                    requant: *requant,
                }
            }
            QuantOp::Linear { in_f, out_f, w, bias, requant } => {
                let w_mat = provider_share(
                    id,
                    || {
                        let mut data = vec![0u64; in_f * out_f];
                        for of in 0..*out_f {
                            for i in 0..*in_f {
                                data[i * out_f + of] = q2.encode_signed_wrapping(w[of * in_f + i]);
                            }
                        }
                        RingTensor::from_raw(q2, vec![*in_f, *out_f], data).expect("geometry")
                    },
                    q2,
                    &[*in_f, *out_f],
                    wstream,
                );
                let bias = provider_share(
                    id,
                    || RingTensor::from_signed(q2, vec![*out_f], bias).expect("bias length"),
                    q2,
                    &[*out_f],
                    wstream,
                );
                let a_shape = cur_shape.clone();
                *cur_shape = vec![*out_f];
                TemplateKind::Linear {
                    w_mat,
                    bias,
                    a_shape,
                    out_shape: cur_shape.clone(),
                    requant: *requant,
                }
            }
            QuantOp::Relu => TemplateKind::Relu,
            QuantOp::MaxPool { k, stride, pad, c, in_hw, out_hw } => {
                let plan = Arc::new(PoolPlan::new(*c, *in_hw, *k, *stride, *pad, *out_hw));
                *cur_shape = vec![*c, out_hw.0, out_hw.1];
                TemplateKind::MaxPool { c: *c, out_hw: *out_hw, plan }
            }
            QuantOp::AvgPool { k, stride, pad, c, in_hw, out_hw, requant } => {
                *cur_shape = vec![*c, out_hw.0, out_hw.1];
                TemplateKind::AvgPool {
                    k: *k,
                    stride: *stride,
                    pad: *pad,
                    c: *c,
                    in_hw: *in_hw,
                    out_hw: *out_hw,
                    requant: *requant,
                }
            }
            QuantOp::GlobalAvgPool { c, in_hw, requant } => {
                *cur_shape = vec![*c];
                TemplateKind::GlobalAvgPool { c: *c, spatial: in_hw.0 * in_hw.1, requant: *requant }
            }
            QuantOp::Flatten => {
                *cur_shape = vec![cur_shape.iter().product()];
                TemplateKind::Flatten
            }
            QuantOp::Rescale { requant } => TemplateKind::Rescale { requant: *requant },
            QuantOp::Residual { main, shortcut } => {
                let mut main_shape = cur_shape.clone();
                let main_ops =
                    build_ops(id, q2, lowering, main, &mut main_shape, wstream, layer_idx)?;
                let mut short_shape = cur_shape.clone();
                let short_ops =
                    build_ops(id, q2, lowering, shortcut, &mut short_shape, wstream, layer_idx)?;
                // The residual add flattens both branches to one vector.
                *cur_shape = vec![main_shape.iter().product()];
                TemplateKind::Residual { main: main_ops, shortcut: short_ops }
            }
        };
        out.push(TemplateOp { idx, kind });
    }
    Ok(out)
}

/// The online walk: per-inference protocol work only. Needs `&mut` access
/// for the triple sources, which advance `b` `(A, Z)` pairs per pass.
///
/// Batch layout: activations stay flat with the image index as the
/// slowest-varying axis — conv tensors are `[b·c, h, w]`, vectors
/// `[b·n]` — so at `b = 1` every shape (and thus every span argument)
/// matches the sequential pass exactly, and per-channel ops (pooling,
/// requant, ABReLU) batch transparently by treating the `b·c` channels
/// uniformly.
#[allow(clippy::too_many_lines)]
fn run_ops(
    ctx: &mut PartyContext,
    ops: &mut [PreparedOp],
    mut x: AShare,
    b: usize,
) -> Result<AShare, ProtocolError> {
    let q2 = ctx.q2();
    let act_ring = match ctx.cfg.pipeline {
        PipelineMode::StayWide => q2,
        PipelineMode::NarrowActivations => ctx.q1(),
    };
    for op in ops.iter_mut() {
        let idx = op.idx;
        let span = layer_label(idx, &op.kind).map(|name| ctx.span_begin(name, CAT_LAYER, &[]));
        x = match &mut op.kind {
            PreparedKind::Conv2d { geom, w_mat, bias, f_open, source, requant } => {
                ctx.ep.set_phase(format!("conv{idx}"));
                let gemm = ctx.span_begin("gemm", CAT_STAGE, &[]);
                let x2 = if x.ring() == q2 { x } else { ctx.extend_share(&x, q2)? };
                let g = *geom;
                let triples = source.take_n(b, move |t| im2col_tensor(t, &g))?;
                let acc =
                    secure_conv2d_prepared_batch(ctx, &x2, b, geom, w_mat, bias, f_open, &triples)?;
                ctx.span_end(gemm);
                ctx.ep.set_phase(format!("bnreq{idx}"));
                let bnreq = ctx.span_begin("bnreq", CAT_STAGE, &[]);
                let r = requant_share(ctx, &acc, *requant, act_ring)?;
                ctx.span_end(bnreq);
                r
            }
            PreparedKind::Linear { w_mat, bias, f_open, source, requant } => {
                ctx.ep.set_phase(format!("fc{idx}"));
                let gemm = ctx.span_begin("gemm", CAT_STAGE, &[]);
                let x2 = if x.ring() == q2 { x } else { ctx.extend_share(&x, q2)? };
                let in_f = x2.len() / b;
                let triples = source.take_n(b, move |t| {
                    let mut m = t.clone();
                    m.reshape(vec![1, in_f]).expect("row vector");
                    m
                })?;
                let acc = secure_linear_prepared_batch(ctx, &x2, b, w_mat, bias, f_open, &triples)?;
                ctx.span_end(gemm);
                ctx.ep.set_phase(format!("bnreq{idx}"));
                let bnreq = ctx.span_begin("bnreq", CAT_STAGE, &[]);
                let r = requant_share(ctx, &acc, *requant, act_ring)?;
                ctx.span_end(bnreq);
                r
            }
            PreparedKind::Relu => {
                ctx.ep.set_phase(format!("abrelu{idx}"));
                abrelu(ctx, &x)?
            }
            PreparedKind::MaxPool { c, out_hw, plan } => {
                ctx.ep.set_phase(format!("maxpool{idx}"));
                let out = secure_max_pool(ctx, &x, plan, b)?;
                let mut t = out.into_tensor();
                t.reshape(vec![b * *c, out_hw.0, out_hw.1])?;
                AShare::from_tensor(t)
            }
            PreparedKind::AvgPool { k, stride, pad, c, in_hw, out_hw, requant } => {
                ctx.ep.set_phase(format!("avgpool{idx}"));
                let x2 = if x.ring() == q2 { x } else { ctx.extend_share(&x, q2)? };
                let sums = pool_sum(&x2, b * *c, *in_hw, *k, *stride, *pad, *out_hw);
                requant_share(ctx, &sums, *requant, act_ring)?
            }
            PreparedKind::GlobalAvgPool { c, spatial, requant } => {
                ctx.ep.set_phase(format!("gap{idx}"));
                let x2 = if x.ring() == q2 { x } else { ctx.extend_share(&x, q2)? };
                let sums = channel_sum(&x2, b * *c, *spatial);
                requant_share(ctx, &sums, *requant, act_ring)?
            }
            PreparedKind::Flatten => {
                let mut t = x.into_tensor();
                let n = t.len();
                t.reshape(vec![n])?;
                AShare::from_tensor(t)
            }
            PreparedKind::Rescale { requant } => {
                ctx.ep.set_phase(format!("rescale{idx}"));
                let x2 = if x.ring() == q2 { x } else { ctx.extend_share(&x, q2)? };
                requant_share(ctx, &x2, *requant, act_ring)?
            }
            PreparedKind::Residual { main, shortcut } => {
                let m = run_ops(ctx, main, x.clone(), b)?;
                let s = run_ops(ctx, shortcut, x, b)?;
                ctx.ep.set_phase(format!("resadd{idx}"));
                let add_span = ctx.span_begin(format!("resadd{idx}"), CAT_LAYER, &[]);
                let mut mt = m.into_tensor();
                let st = s.into_tensor();
                if mt.len() != st.len() {
                    return Err(ProtocolError::Model(
                        "residual branches produced different sizes".into(),
                    ));
                }
                let n = mt.len();
                mt.reshape(vec![n])?;
                let mut st2 = st;
                st2.reshape(vec![n])?;
                let sum = AShare::from_tensor(mt.add(&st2)?);
                end_layer_span(ctx, add_span, &sum);
                sum
            }
        };
        if let Some(span) = span {
            end_layer_span(ctx, span, &x);
        }
    }
    Ok(x)
}
