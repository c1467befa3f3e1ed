//! Workspace task runner. Three tasks:
//!
//! ```text
//! cargo xtask lint             [--deny] [--json PATH] [--self-test]
//! cargo xtask lint-concurrency [--deny] [--json PATH] [--self-test]
//! ```
//!
//! run the `secrecy-lint` analyses over every protocol crate's `src/`
//! tree (`crates/*` minus `bench`, the lint itself and this runner):
//! `lint` is the secret-independence (taint) pass, `lint-concurrency`
//! the concurrency-soundness pass (lock-order cycles, blocking while
//! locked, condvar misuse, guard escapes). `--deny` exits nonzero on any
//! violation (CI mode); `--json` writes the machine-readable report;
//! `--self-test` runs the pass against its seeded good/bad fixtures
//! under `crates/secrecy-lint/fixtures/` and fails on any missing or
//! extra diagnostic.
//!
//! ```text
//! cargo xtask report PATH
//! ```
//!
//! rebuilds the paper-style per-layer cost report from a `trace.json`
//! emitted by a traced run (`private_mnist_service --trace DIR`); `PATH`
//! is the trace file or the directory containing it. A flight-recorder
//! dump (`flightrec-<stream>.json`, written by the server when a session
//! faults or is reaped) is detected by its top-level `flightrec` marker
//! and rendered as a per-session incident timeline instead.
//!
//! ```text
//! cargo xtask watch ADDR [--once] [--interval-ms N]
//! ```
//!
//! polls a running server's `--admin` endpoint and renders a one-screen
//! operational dashboard (health, session accounting, SLO quantiles,
//! dealer state, live session table). `--once` scrapes a single time
//! and exits — the shape CI uses to smoke-test a deployment.

use aq2pnn_obs::chrome::{parse_chrome_trace, ChromeEvent};
use aq2pnn_obs::json::Json;
use aq2pnn_obs::report::CostReport;
use aq2pnn_obs::ArgValue;
use aq2pnn_obs::{parse_text, quantile, MetricsSnapshot, SloClass};
use aq2pnn_transport::http_get;
use secrecy_lint::selftest::{self, Pass};
use secrecy_lint::{ConcLinter, Config, Linter, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Crates whose `src/` the lint skips: the lint and runner themselves
/// (no protocol data), and the bench harness (vendored baseline copies,
/// measurement-only code).
const SKIP_CRATES: &[&str] = &["bench", "secrecy-lint", "xtask"];

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = …/crates/xtask
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Which analysis pass a lint invocation drives.
fn pass_label(pass: Pass) -> &'static str {
    match pass {
        Pass::Secrecy => "secrecy-lint",
        Pass::Conc => "concurrency-lint",
    }
}

/// The `(violations, clean)` fixture pair for a pass.
fn fixtures_for(pass: Pass) -> (&'static str, &'static str) {
    match pass {
        Pass::Secrecy => ("fixtures/violations.rs", "fixtures/clean.rs"),
        Pass::Conc => ("fixtures/conc_violations.rs", "fixtures/conc_clean.rs"),
    }
}

fn lint_main(pass: Pass, args: &[String]) -> ExitCode {
    let deny = args.iter().any(|a| a == "--deny");
    let self_test = args.iter().any(|a| a == "--self-test");
    let json_path = args.iter().position(|a| a == "--json").and_then(|i| args.get(i + 1)).cloned();

    if self_test {
        return run_self_test(pass);
    }

    let root = workspace_root();
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        eprintln!("xtask: cannot read {}", crates_dir.display());
        return ExitCode::FAILURE;
    };
    let mut crate_dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if SKIP_CRATES.contains(&name) {
            continue;
        }
        collect_rs(&dir.join("src"), &mut files);
    }

    let mut secrecy = (pass == Pass::Secrecy).then(|| Linter::new(Config::aq2pnn()));
    let mut conc = (pass == Pass::Conc).then(ConcLinter::new);
    for path in &files {
        let Ok(src) = std::fs::read_to_string(path) else {
            eprintln!("xtask: cannot read {}", path.display());
            return ExitCode::FAILURE;
        };
        let rel = path.strip_prefix(&root).unwrap_or(path);
        let rel = rel.display().to_string();
        if let Some(l) = secrecy.as_mut() {
            l.add_file(&rel, &src);
        }
        if let Some(l) = conc.as_mut() {
            l.add_file(&rel, &src);
        }
    }
    let report: Report = match (secrecy, conc) {
        (Some(l), _) => l.run(),
        (_, Some(l)) => l.run(),
        _ => unreachable!(),
    };

    for v in &report.violations {
        println!("{}:{}: [{}] {}", v.file, v.line, v.rule.name(), v.message);
    }
    let used = report.allows.iter().filter(|a| a.used).count();
    println!(
        "{}: {} files, {} functions, {} violation(s), {}/{} allow annotation(s) used",
        pass_label(pass),
        report.files,
        report.functions,
        report.violations.len(),
        used,
        report.allows.len()
    );
    if let Some(p) = json_path {
        if let Err(e) = std::fs::write(&p, report.to_json()) {
            eprintln!("xtask: cannot write {p}: {e}");
            return ExitCode::FAILURE;
        }
        println!("{}: JSON report written to {p}", pass_label(pass));
    }
    if deny && !report.is_clean() {
        eprintln!("{}: violations present in --deny mode", pass_label(pass));
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Runs a pass against its seeded fixtures via the shared harness in
/// `secrecy_lint::selftest`: the violations fixture must produce exactly
/// its `expect:` markers, the clean fixture must produce nothing. A lint
/// that silently stopped firing would otherwise look identical to a
/// clean tree.
fn run_self_test(pass: Pass) -> ExitCode {
    let (bad, good) = fixtures_for(pass);
    let base = workspace_root().join("crates/secrecy-lint");
    let mut errors = Vec::new();
    for (name, clean) in [(bad, false), (good, true)] {
        let path = base.join(name);
        let Ok(src) = std::fs::read_to_string(&path) else {
            eprintln!("xtask: cannot read fixture {}", path.display());
            return ExitCode::FAILURE;
        };
        let errs = if clean {
            selftest::check_clean(pass, name, &src)
        } else {
            selftest::check_fixture(pass, name, &src)
        };
        let verdict = if errs.is_empty() { "ok" } else { "FAILED" };
        println!("self-test: {name}: {verdict}");
        errors.extend(errs);
    }
    if errors.is_empty() {
        println!("{} self-test passed", pass_label(pass));
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("self-test FAILED: {e}");
        }
        ExitCode::FAILURE
    }
}

/// `cargo xtask report PATH`: renders the per-layer cost table from a
/// Chrome `trace.json` (file, or a directory holding one).
fn report_main(args: &[String]) -> ExitCode {
    let Some(arg) = args.first() else {
        eprintln!("usage: cargo xtask report PATH  (trace.json or its directory)");
        return ExitCode::FAILURE;
    };
    let mut path = PathBuf::from(arg);
    if path.is_dir() {
        path.push("trace.json");
    }
    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xtask: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let doc = match Json::parse(&src) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("xtask: {} is not valid JSON: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    // A flight-recorder dump is a Chrome trace with extra top-level
    // markers; it describes one faulted session, not a layer-cost run.
    if doc.get("flightrec").is_some() {
        return flightrec_report(&doc, &path);
    }
    let events = match parse_chrome_trace(&doc) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("xtask: {} is not a valid Chrome trace: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    if events.is_empty() {
        eprintln!("xtask: {} holds no span events", path.display());
        return ExitCode::FAILURE;
    }
    println!("{}", CostReport::from_chrome(&events).render());
    // Sibling metrics.json (same --trace dir): summarize the
    // batched-service family when present. The service writes either a
    // bare snapshot or `{"party0": snapshot, "party1": snapshot}`.
    if let Some(dir) = path.parent() {
        let mpath = dir.join("metrics.json");
        if let Ok(src) = std::fs::read_to_string(&mpath) {
            if let Ok(doc) = Json::parse(&src) {
                let labeled: Vec<(String, &Json)> = if doc.get("metrics_version").is_some() {
                    vec![(String::new(), &doc)]
                } else if let Json::Obj(entries) = &doc {
                    entries.iter().map(|(k, v)| (format!("{k}: "), v)).collect()
                } else {
                    Vec::new()
                };
                for (label, sub) in labeled {
                    match MetricsSnapshot::from_json(sub) {
                        Ok(snap) => {
                            for line in metrics_summary(&snap) {
                                println!("{label}{line}");
                            }
                        }
                        Err(e) => eprintln!("xtask: {}: {e}", mpath.display()),
                    }
                }
            }
        }
    }
    ExitCode::SUCCESS
}

/// The combined dealer + server summary for one snapshot. A run that
/// recorded server metrics but no dealer family ran with the background
/// dealer off — say so explicitly rather than silently omitting the
/// line, so a report reader can tell "disabled" from "no data".
fn metrics_summary(snap: &MetricsSnapshot) -> Vec<String> {
    let server = server_summary(snap);
    let mut lines = Vec::new();
    match dealer_summary(snap) {
        Some(line) => lines.push(line),
        None if server.is_some() => lines.push("dealer: disabled".to_owned()),
        None => {}
    }
    lines.extend(server);
    lines.extend(slo_summary(snap));
    lines
}

/// One-line dealer/batch summary from a metrics snapshot, `None` when the
/// run recorded none of the v2 batched-service metrics.
fn dealer_summary(snap: &MetricsSnapshot) -> Option<String> {
    let hits = snap.counters.get("dealer.hits").copied();
    let misses = snap.counters.get("dealer.misses").copied();
    let generated = snap.counters.get("dealer.generated").copied();
    let batch = snap.histograms.get("engine.batch_size");
    if hits.is_none() && misses.is_none() && generated.is_none() && batch.is_none() {
        return None;
    }
    let (h, m) = (hits.unwrap_or(0), misses.unwrap_or(0));
    let total = h + m;
    #[allow(clippy::cast_precision_loss)]
    let hit_rate = if total == 0 { 0.0 } else { 100.0 * h as f64 / total as f64 };
    let mut line = format!(
        "dealer hits {h} / misses {m} ({hit_rate:.1}% hit), generated {}",
        generated.unwrap_or(0)
    );
    if let Some(hist) = batch {
        #[allow(clippy::cast_precision_loss)]
        let mean = if hist.count == 0 { 0.0 } else { hist.sum / hist.count as f64 };
        line.push_str(&format!(", {} batches (mean size {mean:.1})", hist.count));
    }
    if let Some(ms) = snap.counters.get("dealer.starved_ms").filter(|&&ms| ms > 0) {
        line.push_str(&format!(", starved {ms} ms"));
    }
    Some(line)
}

/// Per-class SLO quantile lines, empty when the run recorded
/// no `server.slo.*_ms` histograms.
fn slo_summary(snap: &MetricsSnapshot) -> Vec<String> {
    let mut lines = Vec::new();
    for class in SloClass::ALL {
        let Some(h) = snap.histograms.get(class.hist_name()) else { continue };
        if h.count == 0 {
            continue;
        }
        lines.push(format!(
            "slo {}: p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms ({} samples)",
            class.label(),
            quantile(h, 0.50),
            quantile(h, 0.90),
            quantile(h, 0.99),
            h.count
        ));
    }
    if let Some(&v) = snap.counters.get("server.slo_violations").filter(|&&v| v > 0) {
        lines.push(format!("slo violations: {v}"));
    }
    lines
}

/// Multi-tenant server summary from a metrics snapshot: one line of
/// `server.sessions_*` accounting, `None` when the run recorded no server
/// metrics.
fn server_summary(snap: &MetricsSnapshot) -> Option<String> {
    let c = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let families = ["admitted", "completed", "shed", "reaped", "rejected", "faulted"];
    if families.iter().all(|f| !snap.counters.contains_key(&format!("server.sessions_{f}"))) {
        return None;
    }
    let mut line = format!(
        "server sessions: admitted {}, completed {}, shed {}, reaped {}, rejected {}, faulted {}",
        c("server.sessions_admitted"),
        c("server.sessions_completed"),
        c("server.sessions_shed"),
        c("server.sessions_reaped"),
        c("server.sessions_rejected"),
        c("server.sessions_faulted"),
    );
    if let Some(ms) = snap.gauges.get("server.drain_ms") {
        line.push_str(&format!(" (drain {ms:.0} ms)"));
    }
    Some(line)
}

/// Renders a flight-recorder dump (one faulted/reaped session) as an
/// incident timeline: every span relative to the session epoch, plus the
/// drop count when the bounded ring wrapped.
fn flightrec_report(doc: &Json, path: &Path) -> ExitCode {
    let stream = doc.get("stream").and_then(Json::as_u64).unwrap_or(0);
    let dropped = doc.get("dropped").and_then(Json::as_u64).unwrap_or(0);
    let events = match parse_chrome_trace(doc) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("xtask: {} is not a valid flight recorder dump: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    println!("flight recorder: stream {stream}, {} event(s), {dropped} dropped", events.len());
    let mut sorted: Vec<&ChromeEvent> = events.iter().collect();
    sorted.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
    for e in &sorted {
        let args: Vec<String> = e
            .args
            .iter()
            .map(|(k, v)| match v {
                ArgValue::U64(n) => format!("{k}={n}"),
                ArgValue::F64(n) => format!("{k}={n}"),
                ArgValue::Str(s) => format!("{k}={s}"),
            })
            .collect();
        let args = if args.is_empty() { String::new() } else { format!("  [{}]", args.join(" ")) };
        println!(
            "  +{:>10.3} ms  {:>8.3} ms  {}/{}{args}",
            e.ts_us / 1_000.0,
            e.dur_us / 1_000.0,
            e.cat,
            e.name
        );
    }
    ExitCode::SUCCESS
}

/// `cargo xtask watch ADDR`: poll a server's `--admin` endpoint and
/// render the operational dashboard.
fn watch_main(args: &[String]) -> ExitCode {
    let Some(addr) = args.first().filter(|a| !a.starts_with("--")).cloned() else {
        eprintln!("usage: cargo xtask watch ADDR [--once] [--interval-ms N]");
        return ExitCode::FAILURE;
    };
    let once = args.iter().any(|a| a == "--once");
    let interval = args
        .iter()
        .position(|a| a == "--interval-ms")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000u64);
    let deadline = Duration::from_secs(2);
    loop {
        match scrape_dashboard(&addr, deadline) {
            Ok(dash) => print!("{dash}"),
            Err(e) => {
                eprintln!("xtask: watch {addr}: {e}");
                if once {
                    return ExitCode::FAILURE;
                }
            }
        }
        if once {
            return ExitCode::SUCCESS;
        }
        println!("---");
        std::thread::sleep(Duration::from_millis(interval));
    }
}

/// One scrape of `/healthz` + `/metrics` + `/sessions`, rendered as the
/// dashboard text. Split from `watch_main` so the render logic is
/// testable against canned exposition text.
fn scrape_dashboard(addr: &str, deadline: Duration) -> Result<String, String> {
    let health = http_get(addr, "/healthz", deadline).map_err(|e| format!("/healthz: {e}"))?;
    let metrics = http_get(addr, "/metrics", deadline).map_err(|e| format!("/metrics: {e}"))?;
    let snap = parse_text(&metrics).map_err(|e| format!("/metrics parse: {e}"))?;
    let sessions = http_get(addr, "/sessions", deadline).map_err(|e| format!("/sessions: {e}"))?;
    Ok(render_dashboard(health.trim(), &snap, &sessions))
}

/// The dashboard body from already-fetched pieces.
fn render_dashboard(health: &str, snap: &MetricsSnapshot, sessions: &str) -> String {
    let mut out = format!("health: {health}\n");
    let inflight = snap.gauges.get("server.inflight").copied().unwrap_or(0.0);
    out.push_str(&format!("inflight: {inflight:.0}\n"));
    for line in metrics_summary(snap) {
        out.push_str(&line);
        out.push('\n');
    }
    if let Some(h) = snap.histograms.get("server.queue_wait_ms").filter(|h| h.count > 0) {
        out.push_str(&format!(
            "queue wait: p50 {:.2} ms, p99 {:.2} ms ({} waits)\n",
            quantile(h, 0.50),
            quantile(h, 0.99),
            h.count
        ));
    }
    out.push_str(sessions);
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint_main(Pass::Secrecy, &args[1..]),
        Some("lint-concurrency") => lint_main(Pass::Conc, &args[1..]),
        Some("report") => report_main(&args[1..]),
        Some("watch") => watch_main(&args[1..]),
        _ => {
            eprintln!(
                "usage: cargo xtask lint             [--deny] [--json PATH] [--self-test]\n\
                 \x20      cargo xtask lint-concurrency [--deny] [--json PATH] [--self-test]\n\
                 \x20      cargo xtask report PATH\n\
                 \x20      cargo xtask watch ADDR       [--once] [--interval-ms N]"
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot shaped like a server run with the background dealer
    /// off: the server family is present, the dealer family absent.
    const SERVER_NO_DEALER: &str = r#"{
        "metrics_version": 5,
        "counters": {
            "server.sessions_admitted": 4,
            "server.sessions_completed": 4,
            "server.sessions_shed": 0,
            "server.sessions_reaped": 0,
            "server.sessions_rejected": 0,
            "server.sessions_faulted": 0
        },
        "gauges": {},
        "histograms": {}
    }"#;

    #[test]
    fn server_without_dealer_reports_dealer_disabled() {
        let doc = Json::parse(SERVER_NO_DEALER).expect("fixture json");
        let snap = MetricsSnapshot::from_json(&doc).expect("fixture snapshot");
        let lines = metrics_summary(&snap);
        assert_eq!(lines.first().map(String::as_str), Some("dealer: disabled"));
        assert!(
            lines.iter().any(|l| l.contains("admitted 4, completed 4")),
            "server accounting line missing: {lines:?}"
        );
    }

    #[test]
    fn dealer_metrics_suppress_the_disabled_line() {
        let doc = Json::parse(
            r#"{"metrics_version": 5,
                "counters": {"dealer.hits": 9, "dealer.misses": 1,
                             "server.sessions_admitted": 1},
                "gauges": {}, "histograms": {}}"#,
        )
        .expect("json");
        let snap = MetricsSnapshot::from_json(&doc).expect("snapshot");
        let lines = metrics_summary(&snap);
        assert!(lines[0].starts_with("dealer hits 9 / misses 1"), "{lines:?}");
        assert!(!lines.iter().any(|l| l == "dealer: disabled"), "{lines:?}");
    }

    #[test]
    fn pure_client_snapshot_stays_silent_about_the_dealer() {
        let doc = Json::parse(
            r#"{"metrics_version": 5,
                "counters": {"ot.batches": 12},
                "gauges": {}, "histograms": {}}"#,
        )
        .expect("json");
        let snap = MetricsSnapshot::from_json(&doc).expect("snapshot");
        assert!(metrics_summary(&snap).is_empty());
    }

    /// The SLO and queue-wait metrics schema v4 introduced, in a
    /// current-schema exposition.
    #[test]
    fn dashboard_renders_slo_and_queue_wait_from_v4_exposition() {
        let text = "# SCHEMA 5\n\
                    # TYPE server.inflight gauge\n\
                    server.inflight 2\n\
                    # TYPE server.sessions_admitted counter\n\
                    server.sessions_admitted 5\n\
                    # TYPE server.sessions_completed counter\n\
                    server.sessions_completed 3\n\
                    # TYPE server.slo.e2e_ms histogram\n\
                    server.slo.e2e_ms_bucket{le=\"0.25\"} 1\n\
                    server.slo.e2e_ms_bucket{le=\"0.5\"} 4\n\
                    server.slo.e2e_ms_bucket{le=\"+Inf\"} 4\n\
                    server.slo.e2e_ms_sum 1.5\n\
                    server.slo.e2e_ms_count 4\n\
                    # TYPE server.queue_wait_ms histogram\n\
                    server.queue_wait_ms_bucket{le=\"0.25\"} 2\n\
                    server.queue_wait_ms_bucket{le=\"+Inf\"} 2\n\
                    server.queue_wait_ms_sum 0.2\n\
                    server.queue_wait_ms_count 2\n";
        let snap = parse_text(text).expect("exposition parses");
        let dash = render_dashboard("ok", &snap, "stream age_ms\n7 12\n");
        assert!(dash.starts_with("health: ok\ninflight: 2\n"), "{dash}");
        assert!(dash.contains("slo e2e: p50 "), "{dash}");
        assert!(dash.contains("queue wait: p50 "), "{dash}");
        assert!(dash.contains("dealer: disabled"), "{dash}");
        assert!(dash.ends_with("stream age_ms\n7 12\n"), "{dash}");
    }
}
