//! Prometheus-style text exposition for [`MetricsSnapshot`].
//!
//! This is the body served by the server's admin `GET /metrics` and
//! consumed by `cargo xtask watch`. The format follows the Prometheus
//! text conventions (`# TYPE` lines, cumulative `_bucket{le="…"}`
//! samples, `_sum`/`_count`) with one deliberate deviation: metric names
//! keep their dotted schema spelling (`server.queue_wait_ms`) instead of
//! being sanitised to underscores. Sanitising would be lossy — the whole
//! point of the exposition is that [`parse_text`] round-trips every name
//! and value back into the exact [`MetricsSnapshot`], histogram buckets
//! included, so the watcher and the schema-compat tests never chase two
//! namings of one metric.
//!
//! Values are rendered with Rust's shortest-round-trip float formatting,
//! so `parse_text(render_text(s)) == s` bit-for-bit for every finite
//! value the registry can hold.

use crate::metrics::{Histogram, MetricsSnapshot, METRICS_SCHEMA_VERSION};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders the snapshot as the text exposition body.
///
/// The first line is `# SCHEMA <version>` so scrapers can validate the
/// name schema before keying on any metric.
#[must_use]
pub fn render_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# SCHEMA {METRICS_SCHEMA_VERSION}");
    for (name, v) in &snap.counters {
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {v}");
    }
    for (name, v) in &snap.gauges {
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {v}");
    }
    for (name, h) in &snap.histograms {
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (bound, count) in h.bounds.iter().zip(&h.counts) {
            cumulative = cumulative.saturating_add(*count);
            let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
        }
        cumulative = cumulative.saturating_add(*h.counts.last().unwrap_or(&0));
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(out, "{name}_sum {}", h.sum);
        let _ = writeln!(out, "{name}_count {}", h.count);
    }
    out
}

/// The schema version declared by an exposition body, if any.
#[must_use]
pub fn text_schema_version(text: &str) -> Option<u64> {
    let first = text.lines().next()?;
    first.strip_prefix("# SCHEMA ")?.trim().parse().ok()
}

#[derive(Default)]
struct HistAccum {
    bounds: Vec<f64>,
    cumulative: Vec<u64>,
    inf: Option<u64>,
    sum: f64,
    count: u64,
}

/// Parses an exposition body produced by [`render_text`] back into a
/// snapshot. Inverse of [`render_text`]: every counter, gauge and
/// histogram (bounds, per-bucket counts, sum, count) is reconstructed
/// exactly.
///
/// # Errors
///
/// Returns a description of the first malformed line, unknown sample
/// (a sample with no preceding `# TYPE`), or unsupported schema version.
pub fn parse_text(text: &str) -> Result<MetricsSnapshot, String> {
    if let Some(v) = text_schema_version(text) {
        if v != METRICS_SCHEMA_VERSION {
            return Err(format!("exposition: unsupported schema version {v}"));
        }
    }
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut snap = MetricsSnapshot::default();
    let mut hists: BTreeMap<String, HistAccum> = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (name, kind) = (it.next(), it.next());
            match (name, kind) {
                (Some(n), Some(k)) => {
                    types.insert(n.to_owned(), k.to_owned());
                }
                _ => return Err(format!("exposition: malformed TYPE line {line:?}")),
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // comment / SCHEMA header
        }
        let (sample, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("exposition: malformed sample line {line:?}"))?;
        // Histogram samples carry suffixed names; try those first.
        if let Some((base, le)) = split_bucket(sample) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                let acc = hists.entry(base.to_owned()).or_default();
                let cum: u64 =
                    value.parse().map_err(|_| format!("exposition: bad bucket count {line:?}"))?;
                if le == "+Inf" {
                    acc.inf = Some(cum);
                } else {
                    let bound: f64 =
                        le.parse().map_err(|_| format!("exposition: bad bucket bound {line:?}"))?;
                    acc.bounds.push(bound);
                    acc.cumulative.push(cum);
                }
                continue;
            }
        }
        if let Some(base) = sample.strip_suffix("_sum") {
            if types.get(base).map(String::as_str) == Some("histogram") {
                hists.entry(base.to_owned()).or_default().sum =
                    value.parse().map_err(|_| format!("exposition: bad sum {line:?}"))?;
                continue;
            }
        }
        if let Some(base) = sample.strip_suffix("_count") {
            if types.get(base).map(String::as_str) == Some("histogram") {
                hists.entry(base.to_owned()).or_default().count =
                    value.parse().map_err(|_| format!("exposition: bad count {line:?}"))?;
                continue;
            }
        }
        match types.get(sample).map(String::as_str) {
            Some("counter") => {
                let v: u64 =
                    value.parse().map_err(|_| format!("exposition: bad counter {line:?}"))?;
                snap.counters.insert(sample.to_owned(), v);
            }
            Some("gauge") => {
                let v: f64 =
                    value.parse().map_err(|_| format!("exposition: bad gauge {line:?}"))?;
                snap.gauges.insert(sample.to_owned(), v);
            }
            _ => return Err(format!("exposition: sample {sample:?} has no TYPE declaration")),
        }
    }
    for (name, acc) in hists {
        let inf = acc.inf.ok_or_else(|| format!("exposition: histogram {name} missing +Inf"))?;
        if acc.bounds.is_empty() {
            return Err(format!("exposition: histogram {name} has no buckets"));
        }
        // De-accumulate the cumulative bucket counts back to per-bucket.
        let mut counts = Vec::with_capacity(acc.cumulative.len() + 1);
        let mut prev = 0u64;
        for &c in &acc.cumulative {
            counts.push(c.saturating_sub(prev));
            prev = c;
        }
        counts.push(inf.saturating_sub(prev));
        snap.histograms
            .insert(name, Histogram { bounds: acc.bounds, counts, sum: acc.sum, count: acc.count });
    }
    Ok(snap)
}

/// Splits `name_bucket{le="X"}` into `(name, X)`.
fn split_bucket(sample: &str) -> Option<(&str, &str)> {
    let (base, rest) = sample.split_once("_bucket{le=\"")?;
    let le = rest.strip_suffix("\"}")?;
    Some((base, le))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn exposition_round_trips_every_metric() {
        let m = MetricsRegistry::new();
        m.add("dealer.hits", 42);
        m.add("server.slo_violations", 1);
        m.gauge_set("server.inflight", 3.0);
        m.gauge_set("server.slo.e2e.p99", 41.517);
        m.gauge_set("server.drain_ms", 0.125);
        m.observe_with("server.queue_wait_ms", &Histogram::new(&[0.25, 0.5, 1.0]), 0.2);
        m.observe_with("server.queue_wait_ms", &Histogram::new(&[0.25, 0.5, 1.0]), 0.4);
        m.observe_with("server.queue_wait_ms", &Histogram::new(&[0.25, 0.5, 1.0]), 99.0);
        m.observe_with("engine.batch_size", &Histogram::exponential(1.0, 4.0, 6), 16.0);
        let snap = m.snapshot();
        let text = render_text(&snap);
        assert_eq!(text_schema_version(&text), Some(METRICS_SCHEMA_VERSION));
        let back = parse_text(&text).expect("rendered exposition parses");
        // No silent drops: every name and value survives, histogram
        // buckets included.
        assert_eq!(back.counters, snap.counters);
        assert_eq!(back.gauges, snap.gauges);
        assert_eq!(back.histograms, snap.histograms);
    }

    #[test]
    fn bucket_lines_are_cumulative() {
        let m = MetricsRegistry::new();
        let h = Histogram::new(&[1.0, 2.0]);
        m.observe_with("h.ms", &h, 0.5);
        m.observe_with("h.ms", &h, 1.5);
        m.observe_with("h.ms", &h, 9.0);
        let text = render_text(&m.snapshot());
        assert!(text.contains("h.ms_bucket{le=\"1\"} 1"));
        assert!(text.contains("h.ms_bucket{le=\"2\"} 2"));
        assert!(text.contains("h.ms_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("h.ms_count 3"));
    }

    #[test]
    fn unknown_sample_and_bad_version_rejected() {
        assert!(parse_text("orphan 3\n").is_err());
        for other in [0, METRICS_SCHEMA_VERSION - 1, METRICS_SCHEMA_VERSION + 1, 99] {
            assert!(parse_text(&format!("# SCHEMA {other}\n")).is_err(), "v{other} accepted");
        }
        // An empty but versioned body is a valid (empty) snapshot.
        let snap = parse_text(&format!("# SCHEMA {METRICS_SCHEMA_VERSION}\n")).unwrap();
        assert!(snap.counters.is_empty() && snap.histograms.is_empty());
    }
}
