//! `compare BASE.json NEW.json`: one row per (workload, end-to-end metric).
//!
//! The metric names, directions and bounds come from `BENCHMARK.json`, the
//! same file the driver judges a later change by.

use aq2pnn_obs::json::Json;

/// One end-to-end metric of `BENCHMARK.json`.
struct Spec {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn specs() -> Result<Vec<Spec>, String> {
    let doc = load("BENCHMARK.json")?;
    let list =
        doc.get("end_to_end").and_then(Json::as_arr).ok_or("BENCHMARK.json: no end_to_end")?;
    list.iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_owned);
            Some(Spec {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<Spec>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_owned())
}

/// `(median, spread of the median)` of one metric in a result file. The
/// spread is the quartile distance over the median, scaled by `1/√n`: a
/// session-level quartile distance says how far single sessions scatter,
/// the median of `n` of them is that much steadier.
fn reading(entry: &Json, metric: &str) -> Option<(f64, f64)> {
    let m = entry.get("metrics")?.get(metric)?;
    let num = |k: &str| m.get(k).and_then(Json::as_f64);
    let (median, n) = (num("value")?, num("n")?);
    let spread = (num("q3")? - num("q1")?) / median / n.max(1.0).sqrt();
    Some((median, spread))
}

fn failed_share(entry: &Json) -> f64 {
    let num = |k: &str| entry.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    num("failed") / num("attempted").max(1.0)
}

/// Prints the table; exit code 1 on any `worse` row or a higher
/// `failed_share`, 2 when the files cannot be compared.
pub fn compare_main(base_path: &str, new_path: &str) -> i32 {
    let inputs = specs().and_then(|s| Ok((s, load(base_path)?, load(new_path)?)));
    let (specs, base, new) = match inputs {
        Ok(v) => v,
        Err(e) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    let Some(Json::Obj(workloads)) = base.get("end_to_end") else {
        eprintln!("compare: {base_path} holds no end_to_end results");
        return 2;
    };
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    let mut bad = 0usize;
    for (workload, base_entry) in workloads {
        let Some(new_entry) = new.get("end_to_end").and_then(|w| w.get(workload)) else {
            println!("{workload:<16} missing from {new_path}");
            bad += 1;
            continue;
        };
        for spec in &specs {
            let (Some((b, b_spread)), Some((n, n_spread))) =
                (reading(base_entry, &spec.name), reading(new_entry, &spec.name))
            else {
                println!("{workload:<16} {:<20} missing", spec.name);
                bad += 1;
                continue;
            };
            // A byte count is a property of the protocol, not a
            // measurement: any change to it is a change.
            let bound = if spec.unit == "B" { 0.0 } else { spec.bound };
            let ratio = n / b;
            let gain = if spec.lower_is_better { 1.0 - ratio } else { ratio - 1.0 };
            let verdict = if b_spread > bound || n_spread > bound {
                "unresolved"
            } else if gain < -bound {
                "worse"
            } else if gain > bound {
                "better"
            } else {
                "same"
            };
            bad += usize::from(verdict == "worse");
            println!(
                "{workload:<16} {:<20} {b:>14.4} {n:>14.4} {ratio:>9.4} {bound:>6.3}  {verdict} \
                 ({})",
                spec.name, spec.unit
            );
        }
        let (fb, fnew) = (failed_share(base_entry), failed_share(new_entry));
        let verdict = if fnew > fb { "worse" } else { "same" };
        bad += usize::from(fnew > fb);
        println!(
            "{workload:<16} {:<20} {fb:>14.4} {fnew:>14.4} {:>9} {:>6.3}  {verdict} (ratio)",
            "failed_share", "-", 0.0
        );
    }
    i32::from(bad > 0)
}
