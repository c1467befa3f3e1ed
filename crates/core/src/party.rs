//! Per-party protocol context.

use crate::oracle::{IdealOp, IdealOracle};
use crate::{ExtensionMode, ProtocolConfig, ProtocolError, TruncationMode};
use aq2pnn_obs::report::{ARG_BYTES_RECV, ARG_BYTES_SENT, ARG_ROUNDS};
use aq2pnn_obs::tracer::SpanId;
use aq2pnn_obs::{ArgValue, MetricsRegistry, Tracer};
use aq2pnn_ot::{LabelTable, OtGroup};
use aq2pnn_ring::{Ring, RingTensor};
use aq2pnn_sharing::beaver::TripleShare;
use aq2pnn_sharing::dealer::{TripleDealer, TripleLane};
use aq2pnn_sharing::{trunc, AShare, PartyId};
use aq2pnn_transport::ChannelTotals;
use aq2pnn_transport::Endpoint;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Everything one party needs to run protocol operations: its identity,
/// the channel to the peer, the shared setup (OT group + labels, triple
/// dealer) and its private randomness.
///
/// Both parties must construct their contexts from the *same*
/// [`ProtocolConfig`]; the dealer and label table are derived
/// deterministically from `setup_seed` so the offline material matches.
pub struct PartyContext {
    /// This party's identity.
    pub id: PartyId,
    /// Channel to the peer. Any [`Endpoint`] works: an in-process duplex
    /// half, or `Endpoint::over_transport` atop a `Session` on a
    /// real TCP link — the protocol code is transport-agnostic.
    pub ep: Endpoint,
    /// Session configuration.
    pub cfg: ProtocolConfig,
    /// The OT-flow group (over `Q1`).
    pub group: OtGroup,
    /// The shared `e2l` label table (4 labels — enough for `(1,4)`-OT).
    pub labels: LabelTable,
    /// Party-private randomness.
    pub rng: StdRng,
    /// Span recorder for per-layer / per-stage timelines. Disabled by
    /// default (one branch per call); enable with [`PartyContext::set_obs`].
    pub tracer: Tracer,
    /// Metric store for counters/gauges/histograms. Disabled by default;
    /// enable with [`PartyContext::set_obs`].
    pub metrics: MetricsRegistry,
    dealer: TripleDealer,
    oracle: Option<Arc<IdealOracle>>,
}

/// An open span plus the channel totals at its start; produced by
/// [`PartyContext::span_begin`], consumed by [`PartyContext::span_end`].
#[derive(Debug, Clone, Copy)]
pub struct IoSpan {
    id: Option<SpanId>,
    before: ChannelTotals,
}

impl std::fmt::Debug for PartyContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartyContext")
            .field("id", &self.id)
            .field("q1_bits", &self.cfg.q1_bits)
            .field("q2_bits", &self.cfg.q2_bits)
            .finish_non_exhaustive()
    }
}

impl PartyContext {
    /// Builds a context. Pass an [`IdealOracle`] (shared with the peer's
    /// context) when the config uses any `Exact` mode.
    #[must_use]
    pub fn new(
        id: PartyId,
        ep: Endpoint,
        cfg: ProtocolConfig,
        oracle: Option<Arc<IdealOracle>>,
    ) -> Self {
        let group = OtGroup::power_of_two(cfg.q1_bits);
        let mut label_rng = StdRng::seed_from_u64(cfg.setup_seed ^ 0x1abe1);
        let labels = LabelTable::generate(4, &group, &mut label_rng);
        let dealer = TripleDealer::from_seed(cfg.setup_seed ^ 0xdea1e4);
        // Party-private randomness: different per party. (Deterministic in
        // the simulator for reproducibility.)
        let rng = StdRng::seed_from_u64(cfg.setup_seed ^ 0x9a57 ^ id.index());
        PartyContext {
            id,
            ep,
            cfg,
            group,
            labels,
            rng,
            tracer: Tracer::disabled(),
            metrics: MetricsRegistry::disabled(),
            dealer,
            oracle,
        }
    }

    /// Attaches a tracer and metrics registry to this party: protocol code
    /// opens a span per layer and per stage, and the OT group records its
    /// batch metrics. Telemetry carries **public structure only** (shapes,
    /// ring widths, byte/round counts, timings) — see DESIGN.md §10.
    pub fn set_obs(&mut self, tracer: Tracer, metrics: MetricsRegistry) {
        if metrics.is_enabled() {
            self.group.attach_metrics(&metrics);
        }
        self.tracer = tracer;
        self.metrics = metrics;
    }

    /// The activation-carrier ring `Q1`.
    #[must_use]
    pub fn q1(&self) -> Ring {
        self.cfg.q1()
    }

    /// The MAC ring `Q2`.
    #[must_use]
    pub fn q2(&self) -> Ring {
        self.cfg.q2()
    }

    /// Draws this party's half of the next matrix Beaver triple. Both
    /// parties must call in the same order with the same arguments (the
    /// offline AS-CST stream).
    pub fn next_matmul_triple(&mut self, ring: Ring, m: usize, k: usize, n: usize) -> TripleShare {
        let (t0, t1) = self.dealer.matmul_triple(ring, m, k, n);
        match self.id {
            PartyId::User => t0,
            PartyId::ModelProvider => t1,
        }
    }

    /// Draws this party's half of the next structured triple
    /// (`Z = expand(A) ⊗ B`, see
    /// [`TripleDealer::expanded_matmul_triple`]).
    pub fn next_expanded_triple(
        &mut self,
        ring: Ring,
        a_shape: &[usize],
        b_shape: &[usize],
        expand: impl Fn(&RingTensor) -> RingTensor,
    ) -> TripleShare {
        let (t0, t1) = self.dealer.expanded_matmul_triple(ring, a_shape, b_shape, expand);
        match self.id {
            PartyId::User => t0,
            PartyId::ModelProvider => t1,
        }
    }

    /// Creates this party's half of a reusable expanded-triple lane for a
    /// static-shape layer (see [`TripleLane`]) — the offline material a
    /// prepared model keeps resident between inferences — and this party's
    /// share of the lane's fixed `B`, for the one `F = W − B` opening.
    /// Both parties must call in the same order with the same arguments.
    pub fn expanded_lane(
        &mut self,
        ring: Ring,
        a_shape: &[usize],
        b_shape: &[usize],
    ) -> (TripleLane, RingTensor) {
        self.dealer.expanded_lane(self.id, ring, a_shape, b_shape)
    }

    /// Draws this party's half of the next elementwise Beaver triple.
    pub fn next_elementwise_triple(&mut self, ring: Ring, shape: &[usize]) -> TripleShare {
        let (t0, t1) = self.dealer.elementwise_triple(ring, shape);
        match self.id {
            PartyId::User => t0,
            PartyId::ModelProvider => t1,
        }
    }

    /// Ring-size extension of a share tensor to `to`, honoring the
    /// configured [`ExtensionMode`].
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Model`] if `Exact` mode is configured but
    /// no oracle was provided.
    pub fn extend_share(&mut self, share: &AShare, to: Ring) -> Result<AShare, ProtocolError> {
        match self.cfg.extension {
            ExtensionMode::Local => Ok(share.extend_local(to)),
            ExtensionMode::Exact => {
                let t = self.oracle_call(
                    share.as_tensor().clone(),
                    IdealOp::Recast { to_bits: to.bits() },
                )?;
                Ok(AShare::from_tensor(t))
            }
        }
    }

    /// Share truncation by `shift` bits (the ReQ step), honoring the
    /// configured [`TruncationMode`].
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Model`] if `Exact` mode is configured but
    /// no oracle was provided.
    pub fn truncate_share(&mut self, share: &AShare, shift: u32) -> Result<AShare, ProtocolError> {
        if shift == 0 {
            return Ok(share.clone());
        }
        match self.cfg.truncation {
            TruncationMode::Local => Ok(trunc::truncate_share_local(self.id, share, shift)),
            TruncationMode::Exact => {
                let t = self.oracle_call(share.as_tensor().clone(), IdealOp::Truncate { shift })?;
                Ok(AShare::from_tensor(t))
            }
        }
    }

    /// Opens a span and snapshots the channel totals so [`Self::span_end`]
    /// can attribute the byte/round deltas to it. One branch when tracing
    /// is disabled.
    #[must_use]
    pub fn span_begin(
        &self,
        name: impl Into<String>,
        cat: &str,
        args: &[(&str, ArgValue)],
    ) -> IoSpan {
        if !self.tracer.is_enabled() {
            return IoSpan { id: None, before: ChannelTotals::default() };
        }
        IoSpan { id: Some(self.tracer.begin_with(name, cat, args)), before: self.ep.totals() }
    }

    /// Closes a span opened by [`Self::span_begin`], appending the channel
    /// byte/round deltas measured across it.
    pub fn span_end(&self, span: IoSpan) {
        self.span_end_with(span, &[]);
    }

    /// Like [`Self::span_end`], with extra closing arguments (e.g. the
    /// output shape, known only once the layer has run).
    pub fn span_end_with(&self, span: IoSpan, extra: &[(&str, ArgValue)]) {
        let Some(id) = span.id else { return };
        let d = self.ep.totals().since(&span.before);
        let mut args: Vec<(&str, ArgValue)> = Vec::with_capacity(extra.len() + 3);
        args.extend_from_slice(extra);
        args.push((ARG_BYTES_SENT, d.bytes_sent.into()));
        args.push((ARG_BYTES_RECV, d.bytes_received.into()));
        args.push((ARG_ROUNDS, d.rounds.into()));
        self.tracer.end_with(id, &args);
    }

    fn oracle_call(&self, share: RingTensor, op: IdealOp) -> Result<RingTensor, ProtocolError> {
        let oracle = self.oracle.as_ref().ok_or_else(|| {
            ProtocolError::Model(
                "Exact share-conversion mode requires an IdealOracle (see ProtocolConfig)".into(),
            )
        })?;
        Ok(oracle.call(self.id, share, op))
    }
}
