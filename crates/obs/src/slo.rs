//! Streaming SLO latency tracking for the inference server.
//!
//! Three latency classes are tracked per server:
//!
//! | class       | histogram                 | measures                       |
//! |-------------|---------------------------|--------------------------------|
//! | `admission` | `server.slo.admission_ms` | hello-accepted → run slot held |
//! | `online`    | `server.slo.online_ms`    | one online inference pass      |
//! | `e2e`       | `server.slo.e2e_ms`       | admission → session completed  |
//!
//! Every class shares the same **fixed log-spaced bucket edges**
//! ([`SLO_BUCKET_BOUNDS_MS`]), so recording an observation never
//! allocates after the first one and exporting is a fixed-size copy —
//! both matter because `observe` sits on the server's online path under
//! the `obs_overhead` gate. Quantile gauges
//! (`server.slo.<class>.p{50,90,99}`) are *not* maintained on the hot
//! path; [`SloTracker::recompute_gauges`] derives them from the bucket
//! counts by linear interpolation, and the admin endpoint calls it once
//! per `/metrics` scrape. An optional budget (`--slo-ms`) raises the
//! `server.slo_violations` counter whenever an end-to-end session
//! exceeds it.

use crate::metrics::{Counter, Histogram, MetricsRegistry};

/// Fixed upper bucket bounds (milliseconds) shared by every SLO
/// histogram: 0.25 ms · 2^k for k = 0..22, spanning 0.25 ms to ~17 min.
/// Fixed edges keep the export allocation-free and make histograms from
/// different runs mergeable bucket-by-bucket.
pub const SLO_BUCKET_BOUNDS_MS: [f64; 23] = [
    0.25,
    0.5,
    1.0,
    2.0,
    4.0,
    8.0,
    16.0,
    32.0,
    64.0,
    128.0,
    256.0,
    512.0,
    1024.0,
    2048.0,
    4096.0,
    8192.0,
    16384.0,
    32768.0,
    65536.0,
    131_072.0,
    262_144.0,
    524_288.0,
    1_048_576.0,
];

/// The latency class an observation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloClass {
    /// Admission wait: hello accepted until a run slot is held.
    Admission,
    /// One online inference pass (the latency a client sees per batch).
    Online,
    /// End-to-end: admission until clean session completion.
    EndToEnd,
}

impl SloClass {
    /// All classes, for scrape-time iteration.
    pub const ALL: [SloClass; 3] = [SloClass::Admission, SloClass::Online, SloClass::EndToEnd];

    /// The short class label used in metric names.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SloClass::Admission => "admission",
            SloClass::Online => "online",
            SloClass::EndToEnd => "e2e",
        }
    }

    /// The histogram name for this class.
    #[must_use]
    pub fn hist_name(self) -> &'static str {
        match self {
            SloClass::Admission => "server.slo.admission_ms",
            SloClass::Online => "server.slo.online_ms",
            SloClass::EndToEnd => "server.slo.e2e_ms",
        }
    }
}

/// Records latency observations and recomputes quantile gauges on
/// scrape. Cheap to clone; clones share the underlying registry.
#[derive(Debug, Clone)]
pub struct SloTracker {
    metrics: MetricsRegistry,
    template: Histogram,
    slo_ms: Option<f64>,
    violations: Counter,
}

impl SloTracker {
    /// A tracker recording into `metrics`. `slo_ms` is the optional
    /// end-to-end latency budget; sessions exceeding it bump
    /// `server.slo_violations`.
    #[must_use]
    pub fn new(metrics: &MetricsRegistry, slo_ms: Option<f64>) -> Self {
        SloTracker {
            metrics: metrics.clone(),
            template: Histogram::new(&SLO_BUCKET_BOUNDS_MS),
            slo_ms,
            violations: metrics.counter("server.slo_violations"),
        }
    }

    /// The configured end-to-end budget, if any.
    #[must_use]
    pub fn slo_ms(&self) -> Option<f64> {
        self.slo_ms
    }

    /// Records one latency observation for `class`. End-to-end
    /// observations over the budget raise `server.slo_violations`.
    pub fn observe(&self, class: SloClass, ms: f64) {
        self.metrics.observe_with(class.hist_name(), &self.template, ms);
        if class == SloClass::EndToEnd {
            if let Some(budget) = self.slo_ms {
                if ms > budget {
                    self.violations.inc();
                }
            }
        }
    }

    /// Recomputes the `server.slo.<class>.p{50,90,99}` gauges from the
    /// current histogram buckets. Called on scrape (and at export time),
    /// never on the hot path.
    pub fn recompute_gauges(&self) {
        let snap = self.metrics.snapshot();
        for class in SloClass::ALL {
            if let Some(h) = snap.histograms.get(class.hist_name()) {
                if h.count == 0 {
                    continue;
                }
                for (p, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
                    let name = format!("server.slo.{}.{}", class.label(), p);
                    self.metrics.gauge_set(&name, quantile(h, q));
                }
            }
        }
    }
}

/// Estimates the `q`-quantile (0 < q <= 1) of a histogram by linear
/// interpolation inside the bucket holding the target rank. The first
/// bucket interpolates from zero; ranks landing in the overflow bucket
/// report the last finite bound (the histogram cannot resolve beyond
/// it). An empty histogram reports 0.
#[must_use]
pub fn quantile(h: &Histogram, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let target = q.clamp(0.0, 1.0) * h.count as f64;
    let mut cum = 0u64;
    for (i, &c) in h.counts.iter().enumerate() {
        #[allow(clippy::cast_precision_loss)]
        let reach = (cum + c) as f64;
        if c > 0 && reach >= target {
            // Overflow bucket: the histogram cannot resolve beyond its
            // last finite bound.
            let Some(&hi) = h.bounds.get(i) else { return *h.bounds.last().unwrap_or(&0.0) };
            let lo = if i == 0 { 0.0 } else { h.bounds[i - 1] };
            #[allow(clippy::cast_precision_loss)]
            let frac = (target - cum as f64) / c as f64;
            return lo + (hi - lo) * frac.clamp(0.0, 1.0);
        }
        cum += c;
    }
    *h.bounds.last().unwrap_or(&0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_within_buckets() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        // 4 observations in (1, 2]: p50 → halfway through that bucket.
        for v in [1.2, 1.4, 1.6, 1.8] {
            h.observe(v);
        }
        let p50 = quantile(&h, 0.5);
        assert!((p50 - 1.5).abs() < 1e-9, "p50 = {p50}");
        assert!((quantile(&h, 1.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_edge_cases() {
        let h = Histogram::new(&[1.0, 2.0]);
        assert!(quantile(&h, 0.5).abs() < f64::EPSILON, "empty histogram → 0");
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.observe(100.0); // overflow bucket
        assert!((quantile(&h, 0.99) - 2.0).abs() < 1e-9, "overflow reports last bound");
    }

    #[test]
    fn tracker_records_and_recomputes_gauges() {
        let m = MetricsRegistry::new();
        let slo = SloTracker::new(&m, Some(10.0));
        for ms in [1.0, 2.0, 3.0, 50.0] {
            slo.observe(SloClass::Online, ms);
        }
        slo.observe(SloClass::EndToEnd, 5.0);
        slo.observe(SloClass::EndToEnd, 25.0); // over the 10 ms budget
        slo.recompute_gauges();
        let snap = m.snapshot();
        assert_eq!(snap.counters["server.slo_violations"], 1);
        assert_eq!(snap.histograms["server.slo.online_ms"].count, 4);
        assert!(snap.gauges.contains_key("server.slo.online.p50"));
        assert!(snap.gauges.contains_key("server.slo.e2e.p99"));
        let p99 = snap.gauges["server.slo.online.p99"];
        assert!(p99 > 32.0 && p99 <= 64.0, "p99 in the 50 ms bucket, got {p99}");
        // Admission never observed → no gauge invented for it.
        assert!(!snap.gauges.contains_key("server.slo.admission.p50"));
    }

    #[test]
    fn bucket_bounds_are_fixed_and_ascending() {
        assert!(SLO_BUCKET_BOUNDS_MS.windows(2).all(|w| w[0] < w[1]));
        let h = Histogram::new(&SLO_BUCKET_BOUNDS_MS);
        assert_eq!(h.counts.len(), SLO_BUCKET_BOUNDS_MS.len() + 1);
    }
}
