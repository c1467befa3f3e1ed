//! The metrics registry: named counters, gauges and histograms.
//!
//! Metric names are **stable and versioned** (see
//! [`METRICS_SCHEMA_VERSION`] and DESIGN.md §10.2): dashboards and CI
//! regression gates key on them, so renaming one is a breaking change.
//!
//! Counters hand out [`Counter`] handles backed by a shared atomic, so hot
//! paths increment without taking the registry lock; gauges and histogram
//! observations take a short critical section. A *disabled* registry (the
//! default everywhere) registers nothing and exports nothing — handles it
//! hands out still count, they are simply never read.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Version of the metric-name schema emitted in `metrics.json` and the
/// `/metrics` exposition. Parsers accept this version only.
///
/// v5 is the current schema. Its families:
///
/// * the OT layer: the `ot.batches`, `ot.batches_lut` and
///   `ot.lut_fallback_pows` counters and the `ot.batch_slots` /
///   `ot.batch_items` histograms;
/// * the batched service: `dealer.hits`, `dealer.misses`,
///   `dealer.generated` and `dealer.starved_ms` counters, the
///   `dealer.queue_depth.{layer}` gauges, and the `dealer.take_batch` /
///   `engine.batch_size` histograms;
/// * the multi-tenant server: the
///   `server.sessions_{admitted,shed,reaped,rejected,faulted,completed}`
///   and `server.slo_violations` counters, the `server.sessions_active`,
///   `server.inflight` and `server.drain_ms` gauges, the
///   `server.queue_wait_ms` histogram, and the SLO latency histograms
///   `server.slo.{admission,online,e2e}_ms` with their
///   `server.slo.{admission,online,e2e}.p{50,90,99}` gauges (recomputed
///   on scrape).
///
/// v5 dropped v4's per-stream link-repair counters (`session.*` and
/// `session.<stream>.*`) together with the repair they counted, and the
/// `tcp.wire_{tx,rx}_bytes` gauges, so the bump is not additive and older
/// documents are rejected.
pub const METRICS_SCHEMA_VERSION: u64 = 5;

/// A counter handle: increments are one relaxed atomic add. Cheap to clone.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `v` to the counter, saturating at `u64::MAX` instead of
    /// wrapping (a wrapped counter reads as a reset to a dashboard).
    pub fn add(&self, v: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| Some(c.saturating_add(v)));
    }

    /// Subtracts `v` from the counter, clamping at zero instead of
    /// wrapping — a double-decrement bug in teardown attribution must
    /// not turn into a ~2^64 reading.
    pub fn sub(&self, v: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| Some(c.saturating_sub(v)));
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram. Bucket `i` counts observations
/// `v <= bounds[i]` (and above all bounds, the overflow bucket).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Ascending upper bounds; an implicit `+inf` bucket follows.
    pub bounds: Vec<f64>,
    /// One count per bound, plus the trailing overflow bucket
    /// (`counts.len() == bounds.len() + 1`).
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl Histogram {
    /// An empty histogram over the given ascending upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    #[must_use]
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must be strictly ascending");
        Histogram { bounds: bounds.to_vec(), counts: vec![0; bounds.len() + 1], sum: 0.0, count: 0 }
    }

    /// Exponential bounds `start, start·factor, …` (`n` bounds total) —
    /// the default shape for byte and batch-size distributions.
    ///
    /// # Panics
    ///
    /// Panics if `start <= 0`, `factor <= 1`, or `n == 0`.
    #[must_use]
    pub fn exponential(start: f64, factor: f64, n: usize) -> Self {
        assert!(start > 0.0 && factor > 1.0 && n > 0, "degenerate exponential bounds");
        let mut bounds = Vec::with_capacity(n);
        let mut b = start;
        for _ in 0..n {
            bounds.push(b);
            b *= factor;
        }
        Histogram::new(&bounds)
    }

    /// Records one observation. The chosen bucket is the first bound
    /// `>= v`; values above every bound land in the overflow bucket.
    pub fn observe(&mut self, v: f64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
    }
}

/// A point-in-time snapshot of every registered metric.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as the `metrics.json` document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let counters =
            self.counters.iter().map(|(k, v)| (k.clone(), Json::from(*v))).collect::<Vec<_>>();
        let gauges =
            self.gauges.iter().map(|(k, v)| (k.clone(), Json::from(*v))).collect::<Vec<_>>();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    Json::obj(vec![
                        ("bounds", Json::arr(h.bounds.iter().map(|&b| Json::from(b)))),
                        ("counts", Json::arr(h.counts.iter().map(|&c| Json::from(c)))),
                        ("sum", Json::from(h.sum)),
                        ("count", Json::from(h.count)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        Json::obj(vec![
            ("metrics_version", Json::from(METRICS_SCHEMA_VERSION)),
            ("counters", Json::Obj(counters)),
            ("gauges", Json::Obj(gauges)),
            ("histograms", Json::Obj(histograms)),
        ])
    }

    /// Parses a `metrics.json` document produced by [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural mismatch.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let version = doc
            .get("metrics_version")
            .and_then(Json::as_u64)
            .ok_or("metrics.json: missing metrics_version")?;
        if version != METRICS_SCHEMA_VERSION {
            return Err(format!("metrics.json: unsupported schema version {version}"));
        }
        let mut snap = MetricsSnapshot::default();
        if let Some(Json::Obj(entries)) = doc.get("counters") {
            for (k, v) in entries {
                snap.counters
                    .insert(k.clone(), v.as_u64().ok_or(format!("counter {k} not a u64"))?);
            }
        }
        if let Some(Json::Obj(entries)) = doc.get("gauges") {
            for (k, v) in entries {
                snap.gauges.insert(k.clone(), v.as_f64().ok_or(format!("gauge {k} not a number"))?);
            }
        }
        if let Some(Json::Obj(entries)) = doc.get("histograms") {
            for (k, h) in entries {
                let nums = |key: &str| -> Result<Vec<f64>, String> {
                    match h.get(key) {
                        Some(Json::Arr(items)) => items
                            .iter()
                            .map(|j| j.as_f64().ok_or(format!("histogram {k}.{key}: non-number")))
                            .collect(),
                        _ => Err(format!("histogram {k}: missing {key}")),
                    }
                };
                let bounds = nums("bounds")?;
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let counts: Vec<u64> = nums("counts")?.iter().map(|&c| c as u64).collect();
                if counts.len() != bounds.len() + 1 {
                    return Err(format!("histogram {k}: counts/bounds length mismatch"));
                }
                snap.histograms.insert(
                    k.clone(),
                    Histogram {
                        bounds,
                        counts,
                        sum: h.get("sum").and_then(Json::as_f64).unwrap_or(0.0),
                        count: h.get("count").and_then(Json::as_u64).unwrap_or(0),
                    },
                );
            }
        }
        Ok(snap)
    }
}

enum Slot {
    Counter(Counter),
    Gauge(f64),
    Histogram(Histogram),
}

struct RegistryInner {
    enabled: bool,
    st: Mutex<BTreeMap<String, Slot>>,
}

/// The metric store. Cheap to clone (`Arc` internals); clones share state.
#[derive(Clone)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("enabled", &self.inner.enabled)
            .field("metrics", &self.with_map(|st| st.len()))
            .finish()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::disabled()
    }
}

impl MetricsRegistry {
    /// A recording registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry {
            inner: Arc::new(RegistryInner { enabled: true, st: Mutex::new(BTreeMap::new()) }),
        }
    }

    /// A registry that registers and exports nothing. Handles it hands out
    /// still count locally (they are never read), so instrumented code
    /// needs no branches.
    #[must_use]
    pub fn disabled() -> Self {
        MetricsRegistry {
            inner: Arc::new(RegistryInner { enabled: false, st: Mutex::new(BTreeMap::new()) }),
        }
    }

    /// Whether this registry records metrics.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    /// Runs `f` under the registry lock. Scoping the guard to a closure
    /// keeps every critical section inside this function — nothing can
    /// hold the lock across a call boundary or a blocking operation.
    fn with_map<R>(&self, f: impl FnOnce(&mut BTreeMap<String, Slot>) -> R) -> R {
        let mut st = self.inner.st.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut st)
    }

    /// Registers (or retrieves) the counter `name` and returns its handle.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        if !self.inner.enabled {
            return Counter::default();
        }
        self.with_map(|st| {
            match st.entry(name.to_owned()).or_insert_with(|| Slot::Counter(Counter::default())) {
                Slot::Counter(c) => c.clone(),
                _ => Counter::default(), // name collision with another kind: orphan handle
            }
        })
    }

    /// One-shot counter add (registers on first use).
    pub fn add(&self, name: &str, v: u64) {
        if self.inner.enabled {
            self.counter(name).add(v);
        }
    }

    /// Sets the gauge `name` to `v`.
    pub fn gauge_set(&self, name: &str, v: f64) {
        if !self.inner.enabled {
            return;
        }
        self.with_map(|st| st.insert(name.to_owned(), Slot::Gauge(v)));
    }

    /// Adds `delta` (which may be negative) to the gauge `name`,
    /// clamping the result at zero. Every gauge in the schema is an
    /// occupancy or a duration, so a negative reading is always a
    /// double-decrement bug — clamp it instead of exporting a negative
    /// (or, for consumers that cast to unsigned, wrapped) value.
    pub fn gauge_add(&self, name: &str, delta: f64) {
        if !self.inner.enabled {
            return;
        }
        self.with_map(|st| {
            let cur = match st.get(name) {
                Some(Slot::Gauge(v)) => *v,
                _ => 0.0,
            };
            st.insert(name.to_owned(), Slot::Gauge((cur + delta).max(0.0)));
        });
    }

    /// Observes `v` into the histogram `name`, creating it with the given
    /// bounds on first use (later calls ignore `bounds`).
    pub fn observe_with(&self, name: &str, bounds: &Histogram, v: f64) {
        if !self.inner.enabled {
            return;
        }
        self.with_map(|st| {
            let slot = st.entry(name.to_owned()).or_insert_with(|| Slot::Histogram(bounds.clone()));
            if let Slot::Histogram(h) = slot {
                h.observe(v);
            }
        });
    }

    /// Observes `v` into the histogram `name` with the default exponential
    /// bounds (1, 4, 16, … — 16 powers of 4).
    pub fn observe(&self, name: &str, v: f64) {
        if !self.inner.enabled {
            return;
        }
        self.observe_with(name, &Histogram::exponential(1.0, 4.0, 16), v);
    }

    /// Snapshot of every registered metric.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.with_map(|st| {
            let mut snap = MetricsSnapshot::default();
            for (name, slot) in st.iter() {
                match slot {
                    Slot::Counter(c) => {
                        snap.counters.insert(name.clone(), c.get());
                    }
                    Slot::Gauge(v) => {
                        snap.gauges.insert(name.clone(), *v);
                    }
                    Slot::Histogram(h) => {
                        snap.histograms.insert(name.clone(), h.clone());
                    }
                }
            }
            snap
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_across_handles() {
        let m = MetricsRegistry::new();
        let a = m.counter("x.hits");
        let b = m.counter("x.hits");
        a.add(3);
        b.inc();
        assert_eq!(m.snapshot().counters["x.hits"], 4);
    }

    #[test]
    fn counter_sub_clamps_at_zero() {
        let m = MetricsRegistry::new();
        let c = m.counter("server.teardowns");
        c.add(2);
        c.sub(1);
        assert_eq!(c.get(), 1);
        // The double-decrement bug: clamps at 0 instead of wrapping to
        // ~2^64.
        c.sub(5);
        assert_eq!(c.get(), 0);
        c.sub(1);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_add_saturates_at_max() {
        let c = Counter::default();
        c.add(u64::MAX - 1);
        c.add(10);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_decrement_below_zero_clamps() {
        let m = MetricsRegistry::new();
        m.gauge_add("server.inflight", 2.0);
        m.gauge_add("server.inflight", -1.0);
        assert!((m.snapshot().gauges["server.inflight"] - 1.0).abs() < f64::EPSILON);
        // Decrementing past zero clamps instead of going negative.
        m.gauge_add("server.inflight", -3.0);
        assert!(m.snapshot().gauges["server.inflight"].abs() < f64::EPSILON);
        // A never-set gauge starts from zero.
        m.gauge_add("server.queue", -1.0);
        assert!(m.snapshot().gauges["server.queue"].abs() < f64::EPSILON);
    }

    #[test]
    fn disabled_registry_exports_nothing() {
        let m = MetricsRegistry::disabled();
        let c = m.counter("ghost");
        c.add(99);
        m.add("ghost2", 1);
        m.gauge_set("g", 1.0);
        m.observe("h", 2.0);
        let snap = m.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
        // On-boundary values land in the bucket whose bound they equal
        // (bucket counts v <= bound).
        h.observe(1.0);
        h.observe(0.5);
        assert_eq!(h.counts, vec![2, 0, 0, 0]);
        // Just above a bound rolls into the next bucket.
        h.observe(1.0001);
        h.observe(10.0);
        assert_eq!(h.counts, vec![2, 2, 0, 0]);
        // Above every bound: the overflow bucket.
        h.observe(1e9);
        assert_eq!(h.counts, vec![2, 2, 0, 1]);
        assert_eq!(h.count, 5);
        assert!((h.sum - (1.0 + 0.5 + 1.0001 + 10.0 + 1e9)).abs() < 1e-3);
    }

    #[test]
    fn exponential_bounds_shape() {
        let h = Histogram::exponential(1.0, 2.0, 5);
        assert_eq!(h.bounds, vec![1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!(h.counts.len(), 6);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn non_ascending_bounds_rejected() {
        let _ = Histogram::new(&[1.0, 1.0]);
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let m = MetricsRegistry::new();
        m.add("server.sessions_admitted", 7);
        m.gauge_set("server.inflight", 1234.0);
        m.observe_with("ot.batch_slots", &Histogram::exponential(1.0, 4.0, 8), 20.0);
        let snap = m.snapshot();
        let doc = snap.to_json();
        let text = doc.to_string_pretty();
        let parsed = crate::json::Json::parse(&text).expect("emitted JSON parses");
        let back = MetricsSnapshot::from_json(&parsed).expect("schema matches");
        assert_eq!(back.counters, snap.counters);
        assert_eq!(back.gauges, snap.gauges);
        assert_eq!(back.histograms, snap.histograms);
    }

    #[test]
    fn current_schema_fixture_parses_and_other_versions_are_rejected() {
        // The committed fixture for the current schema, covering each
        // metric kind.
        let v5 = r#"{"metrics_version": 5,
                     "counters": {"dealer.starved_ms": 17, "server.sessions_admitted": 5},
                     "gauges": {"server.inflight": 3.0, "server.slo.e2e.p99": 41.5},
                     "histograms": {"server.queue_wait_ms":
                       {"bounds": [0.25, 0.5, 1.0], "counts": [4, 1, 0, 2],
                        "sum": 9.75, "count": 7}}}"#;
        let doc = crate::json::Json::parse(v5).unwrap();
        let snap = MetricsSnapshot::from_json(&doc).expect("v5 parses");
        assert_eq!(snap.counters["dealer.starved_ms"], 17);
        assert_eq!(snap.counters["server.sessions_admitted"], 5);
        assert!((snap.gauges["server.slo.e2e.p99"] - 41.5).abs() < f64::EPSILON);
        assert_eq!(snap.histograms["server.queue_wait_ms"].counts, vec![4, 1, 0, 2]);
        assert_eq!(snap.histograms["server.queue_wait_ms"].count, 7);
        for other in [0, 1, 4, 6, 9] {
            let text = format!(r#"{{"metrics_version": {other}, "counters": {{}}}}"#);
            let doc = crate::json::Json::parse(&text).unwrap();
            assert!(MetricsSnapshot::from_json(&doc).is_err(), "version {other} accepted");
        }
    }
}
