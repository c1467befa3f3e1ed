//! Order statistics and the named-metric record every subcommand prints.

use aq2pnn_obs::json::Json;

/// Median, quartiles, tail and count of one sample.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// p95 when the sample has at least 200 values, else the maximum.
    pub tail: f64,
    pub n: usize,
}

/// Linear-interpolated quantile of a sorted, non-empty slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

impl Summary {
    /// Summarizes `values`; an empty sample is all-NaN with `n = 0`.
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary { median: f64::NAN, q1: f64::NAN, q3: f64::NAN, tail: f64::NAN, n: 0 };
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let tail = if v.len() >= 200 { quantile(&v, 0.95) } else { v[v.len() - 1] };
        Summary {
            median: quantile(&v, 0.5),
            q1: quantile(&v, 0.25),
            q3: quantile(&v, 0.75),
            tail,
            n: v.len(),
        }
    }

    /// A single measured value (counts, rates over the whole window).
    pub fn single(value: f64) -> Summary {
        Summary { median: value, q1: value, q3: value, tail: value, n: 1 }
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub s: Summary,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, s: Summary) -> Metric {
        Metric { name: name.into(), unit, s }
    }

    /// The one-line-per-metric stdout form.
    pub fn line(&self, workload: &str) -> String {
        format!(
            "{workload} {} = {:.6} {} (q1 {:.6}, q3 {:.6}, tail {:.6}, n {})",
            self.name, self.s.median, self.unit, self.s.q1, self.s.q3, self.s.tail, self.s.n
        )
    }

    /// The result-file form, quartiles included.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("value", self.s.median.into()),
            ("unit", self.unit.into()),
            ("q1", self.s.q1.into()),
            ("q3", self.s.q3.into()),
            ("tail", self.s.tail.into()),
            ("n", (self.s.n as u64).into()),
        ])
    }
}

/// `{"name": {"value": v, "unit": u}, …}` — the `metrics` member of the
/// result line the driver reads.
pub fn driver_metrics(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let body = Json::obj(vec![("value", m.s.median.into()), ("unit", m.unit.into())]);
                (m.name.clone(), body)
            })
            .collect(),
    )
}
