//! Two-thread simulation harness: runs both parties of a protocol over an
//! in-process duplex link — or over any caller-supplied endpoint pair, e.g.
//! a TCP loopback session or a fault-injected link.

use crate::dealer::DealerConfig;
use crate::engine::{run_party, BatchInput, InferenceOutput, PartyInput};
use crate::oracle::IdealOracle;
use crate::prepared::PreparedModel;
use crate::{PartyContext, ProtocolConfig, ProtocolError};
use aq2pnn_nn::quant::QuantModel;
use aq2pnn_obs::{MetricsRegistry, Tracer};
use aq2pnn_sharing::PartyId;
use aq2pnn_transport::{duplex, ChannelStats, Endpoint};
use std::sync::Arc;

/// Observability handles for one party of a traced run. `Tracer` and
/// `MetricsRegistry` are cheap shared handles: clone them into the run and
/// keep the originals to snapshot spans/metrics afterwards.
#[derive(Clone, Default)]
pub struct PartyObs {
    /// Span recorder (disabled by default).
    pub tracer: Tracer,
    /// Metric store (disabled by default).
    pub metrics: MetricsRegistry,
}

impl PartyObs {
    /// Enabled tracer + metrics pair.
    #[must_use]
    pub fn enabled() -> Self {
        PartyObs { tracer: Tracer::new(), metrics: MetricsRegistry::new() }
    }
}

/// Runs `f` as both parties on two threads and returns
/// `(party 0 result, party 1 result)`.
///
/// An [`IdealOracle`] is always provisioned so `Exact` share-conversion
/// configs work transparently.
///
/// # Panics
///
/// Panics if either party's closure panics.
pub fn run_pair<T, F>(cfg: &ProtocolConfig, f: F) -> (T, T)
where
    T: Send + 'static,
    F: Fn(&mut PartyContext) -> T + Send + Sync + 'static,
{
    let (e0, e1) = duplex();
    run_pair_over(e0, e1, cfg, f)
}

/// Like [`run_pair`], but over caller-supplied endpoints — the same
/// protocol code runs unchanged over an in-process link, a TCP loopback
/// session, or a [`aq2pnn_transport::FaultyTransport`] proxy.
///
/// # Panics
///
/// Panics if either party's closure panics.
pub fn run_pair_over<T, F>(e0: Endpoint, e1: Endpoint, cfg: &ProtocolConfig, f: F) -> (T, T)
where
    T: Send + 'static,
    F: Fn(&mut PartyContext) -> T + Send + Sync + 'static,
{
    let oracle = Arc::new(IdealOracle::new(cfg.setup_seed ^ 0x0eac1e));
    let f = Arc::new(f);
    let (cfg1, f1, o1) = (cfg.clone(), Arc::clone(&f), Arc::clone(&oracle));
    let handle = std::thread::spawn(move || {
        let mut ctx = PartyContext::new(PartyId::ModelProvider, e1, cfg1, Some(o1));
        f1(&mut ctx)
    });
    let mut ctx = PartyContext::new(PartyId::User, e0, cfg.clone(), Some(oracle));
    let r0 = f(&mut ctx);
    let r1 = handle.join().expect("party 1 panicked");
    (r0, r1)
}

/// Result of a simulated two-party inference.
#[derive(Debug, Clone)]
pub struct TwoPartyRun {
    /// The recovered integer logits (revealed to both parties at the end).
    pub logits: Vec<i64>,
    /// Communication statistics of party 0 (the user).
    pub user_stats: ChannelStats,
    /// Communication statistics of party 1 (the model provider).
    pub provider_stats: ChannelStats,
}

/// Runs one full secure inference of `model` on `image` between two
/// in-process parties and returns the logits plus per-party traffic.
///
/// `_seed` reserved for future input-sharing randomization (the sharing
/// masks currently derive from `cfg.setup_seed`).
///
/// # Errors
///
/// Propagates any [`ProtocolError`] from either party;
/// [`ProtocolError::Desync`] if the parties recover different logits or a
/// party thread dies.
pub fn run_two_party(
    model: &QuantModel,
    cfg: &ProtocolConfig,
    image: &[f32],
    _seed: u64,
) -> Result<TwoPartyRun, ProtocolError> {
    let (e0, e1) = duplex();
    run_two_party_over(e0, e1, model, cfg, image)
}

/// Like [`run_two_party`], but over caller-supplied endpoints.
///
/// This is the entry point of the fault soak tests: hand it endpoints
/// over a [`aq2pnn_transport::Session`] wrapping a
/// [`aq2pnn_transport::FaultyTransport`] that only delays frames, and the
/// inference must still complete with logits bit-identical to the
/// in-process run.
///
/// # Errors
///
/// Propagates any [`ProtocolError`] from either party;
/// [`ProtocolError::Desync`] if the parties recover different logits or a
/// party thread dies.
pub fn run_two_party_over(
    e0: Endpoint,
    e1: Endpoint,
    model: &QuantModel,
    cfg: &ProtocolConfig,
    image: &[f32],
) -> Result<TwoPartyRun, ProtocolError> {
    run_two_party_traced(e0, e1, model, cfg, image, PartyObs::default(), PartyObs::default())
}

/// Like [`run_two_party_over`], with per-party observability attached: the
/// protocol opens a span per layer and per stage into each party's tracer
/// and records session/OT metrics into its registry. Pass
/// [`PartyObs::enabled`] handles and snapshot them after the run
/// (`obs.tracer.snapshot()`, `obs.metrics.snapshot()`); disabled handles
/// make this identical to the untraced runner.
///
/// # Errors
///
/// Propagates any [`ProtocolError`] from either party;
/// [`ProtocolError::Desync`] if the parties recover different logits or a
/// party thread dies.
pub fn run_two_party_traced(
    e0: Endpoint,
    e1: Endpoint,
    model: &QuantModel,
    cfg: &ProtocolConfig,
    image: &[f32],
    user_obs: PartyObs,
    provider_obs: PartyObs,
) -> Result<TwoPartyRun, ProtocolError> {
    let oracle = Arc::new(IdealOracle::new(cfg.setup_seed ^ 0x0eac1e));
    let (cfg1, o1, m1) = (cfg.clone(), Arc::clone(&oracle), model.clone());
    let handle = std::thread::spawn(move || -> Result<InferenceOutput, ProtocolError> {
        let mut ctx = PartyContext::new(PartyId::ModelProvider, e1, cfg1, Some(o1));
        ctx.set_obs(provider_obs.tracer, provider_obs.metrics);
        run_party(&mut ctx, &m1, PartyInput::Provider)
    });
    let mut ctx = PartyContext::new(PartyId::User, e0, cfg.clone(), Some(oracle));
    ctx.set_obs(user_obs.tracer, user_obs.metrics);
    // On a party-0 error, return immediately: dropping `ctx` tears the link
    // down, so a provider thread blocked in `recv` wakes with `Disconnected`
    // instead of deadlocking a join here.
    let user = run_party(&mut ctx, model, PartyInput::User(image))?;
    let provider =
        handle.join().map_err(|_| ProtocolError::Desync("party 1 thread panicked".into()))??;
    if user.logits != provider.logits {
        return Err(ProtocolError::Desync(format!(
            "parties recovered different logits ({} vs {} entries{})",
            user.logits.len(),
            provider.logits.len(),
            if user.logits.len() == provider.logits.len() { ", values differ" } else { "" }
        )));
    }
    Ok(TwoPartyRun { logits: user.logits, user_stats: user.stats, provider_stats: provider.stats })
}

/// Result of a simulated batched service run.
#[derive(Debug, Clone)]
pub struct ServiceRun {
    /// Recovered logits, one vector per image, in input order.
    pub logits: Vec<Vec<i64>>,
    /// Communication statistics of party 0 (the user).
    pub user_stats: ChannelStats,
    /// Communication statistics of party 1 (the model provider).
    pub provider_stats: ChannelStats,
}

/// Runs a batched two-party inference service over one in-process session:
/// both parties prepare `model` **once**, optionally spawn a background
/// [`crate::dealer::DealerPool`] (warmed before the first batch when
/// `dealer` is set), and classify `images` in `batch`-sized chunks via
/// [`PreparedModel::run_batch`].
///
/// # Errors
///
/// Propagates any [`ProtocolError`] from either party;
/// [`ProtocolError::Desync`] if the parties recover different logits or a
/// party thread dies.
#[allow(clippy::too_many_arguments)]
pub fn run_two_party_service(
    e0: Endpoint,
    e1: Endpoint,
    model: &QuantModel,
    cfg: &ProtocolConfig,
    images: &[&[f32]],
    batch: usize,
    dealer: Option<DealerConfig>,
    user_obs: PartyObs,
    provider_obs: PartyObs,
) -> Result<ServiceRun, ProtocolError> {
    type PartyResult = Result<(Vec<Vec<i64>>, ChannelStats), ProtocolError>;
    let batch = batch.max(1);
    let count = images.len();
    let oracle = Arc::new(IdealOracle::new(cfg.setup_seed ^ 0x0eac1e));
    let (cfg1, o1, m1) = (cfg.clone(), Arc::clone(&oracle), model.clone());
    let handle = std::thread::spawn(move || -> PartyResult {
        let mut ctx = PartyContext::new(PartyId::ModelProvider, e1, cfg1, Some(o1));
        ctx.set_obs(provider_obs.tracer, provider_obs.metrics);
        let mut prepared = PreparedModel::prepare(&mut ctx, &m1)?;
        let _pool = dealer.map(|d| {
            let pool = prepared.spawn_dealer(&ctx, d);
            let _ = pool.wait_warm(std::time::Duration::from_secs(10));
            pool
        });
        let mut logits = Vec::with_capacity(count);
        let mut done = 0usize;
        while done < count {
            let b = batch.min(count - done);
            let out = prepared.run_batch(&mut ctx, BatchInput::Provider { batch: b })?;
            logits.extend(out.logits);
            done += b;
        }
        Ok((logits, ctx.ep.stats()))
    });
    let mut ctx = PartyContext::new(PartyId::User, e0, cfg.clone(), Some(oracle));
    ctx.set_obs(user_obs.tracer, user_obs.metrics);
    let user: PartyResult = (|| {
        let mut prepared = PreparedModel::prepare(&mut ctx, model)?;
        let _pool = dealer.map(|d| {
            let pool = prepared.spawn_dealer(&ctx, d);
            let _ = pool.wait_warm(std::time::Duration::from_secs(10));
            pool
        });
        let mut logits = Vec::with_capacity(count);
        let mut done = 0usize;
        while done < count {
            let chunk = &images[done..(done + batch).min(count)];
            let out = prepared.run_batch(&mut ctx, BatchInput::User(chunk))?;
            logits.extend(out.logits);
            done += chunk.len();
        }
        Ok((logits, ctx.ep.stats()))
    })();
    // On a party-0 error, drop ctx to tear the link down before joining
    // (same rationale as run_two_party_traced).
    let (user_logits, user_stats) = match user {
        Ok(ok) => ok,
        Err(e) => {
            drop(ctx);
            let _ = handle.join();
            return Err(e);
        }
    };
    let (provider_logits, provider_stats) =
        handle.join().map_err(|_| ProtocolError::Desync("party 1 thread panicked".into()))??;
    if user_logits != provider_logits {
        return Err(ProtocolError::Desync("parties recovered different logits".into()));
    }
    Ok(ServiceRun { logits: user_logits, user_stats, provider_stats })
}
