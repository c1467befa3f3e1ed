//! Runs the selected workloads, prints every metric and keeps the result
//! file `benchmark/out/result-<seed>.json`.

use crate::load::{self, Case, Outcome, Workload, WORKLOADS};
use crate::models::{Fixture, LENET5};
use crate::stats::{driver_metrics, Metric, Summary};
use crate::{probe, trace, RunArgs, OUT_DIR};
use aq2pnn_obs::json::Json;
use std::path::Path;
use std::time::Instant;

/// A built model, kept while consecutive workloads use it: building
/// LeNet5 trains it, which takes seconds.
struct Built {
    model: &'static str,
    fixture: Fixture,
    build_s: f64,
}

fn run_workload(w: &'static Workload, built: &Built, args: &RunArgs) -> Result<Outcome, String> {
    let case = Case::new(w, &built.fixture, args.seed)?;
    if w.model == LENET5 {
        println!(
            "{} argmax_match_share = {:.4} ratio (vs plaintext QuantModel::forward)",
            w.name,
            case.argmax_match_share()
        );
    }
    if !args.trace {
        return load::end_to_end(&case, args.warmup(), args.window());
    }
    let mut outcome = trace::traced(&case, args)?;
    outcome.metrics.push(Metric::new("nn.model_build_s", "s", Summary::single(built.build_s)));
    outcome.metrics.extend(probe::all(args.seed)?);
    Ok(outcome)
}

/// The default subcommand. Exit code 0 only when every session of every
/// selected workload returned the reference logits and the provider's own
/// counts agree with ours.
pub fn run_main(args: &RunArgs) -> i32 {
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("benchmark: {OUT_DIR}: {e}");
        return 1;
    }
    let selected: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut entries = Vec::new();
    let mut line_metrics = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut built: Option<Built> = None;
    for w in &selected {
        if built.as_ref().is_none_or(|b| b.model != w.model) {
            let t0 = Instant::now();
            let fixture = Fixture::build(w.model, args.seed);
            let build_s = t0.elapsed().as_secs_f64();
            built = fixture.ok().map(|fixture| Built { model: w.model, fixture, build_s });
        }
        let outcome = built
            .as_ref()
            .ok_or_else(|| format!("cannot build model {}", w.model))
            .and_then(|b| run_workload(w, b, args));
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                eprintln!("benchmark: {}: {e}", w.name);
                return 1;
            }
        };
        for m in &outcome.metrics {
            println!("{}", m.line(w.name));
        }
        println!(
            "{} sessions attempted={} succeeded={} failed={}",
            w.name,
            outcome.attempted,
            outcome.attempted - outcome.failed,
            outcome.failed
        );
        for p in &outcome.problems {
            eprintln!("benchmark: {}: INCORRECT: {p}", w.name);
        }
        attempted += outcome.attempted;
        failed += outcome.failed;
        correct &= outcome.problems.is_empty();
        entries.push((w.name, workload_json(&outcome)));
        line_metrics.extend(outcome.metrics.into_iter().map(|mut m| {
            if selected.len() > 1 {
                m.name = format!("{}:{}", w.name, m.name);
            }
            m
        }));
    }
    if let Err(e) = write_result(args, entries) {
        eprintln!("benchmark: result file: {e}");
        return 1;
    }
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", driver_metrics(&line_metrics)),
    ]);
    println!("{}", line.to_string_compact());
    i32::from(!correct)
}

/// `probe`: the outside-in layer probes alone.
pub fn probe_main(args: &RunArgs) -> i32 {
    match probe::all(args.seed) {
        Ok(metrics) => {
            for m in &metrics {
                println!("{}", m.line("probe"));
            }
            0
        }
        Err(e) => {
            eprintln!("benchmark: probe: {e}");
            1
        }
    }
}

fn workload_json(o: &Outcome) -> Json {
    Json::obj(vec![
        ("attempted", o.attempted.into()),
        ("succeeded", (o.attempted - o.failed).into()),
        ("failed", o.failed.into()),
        ("correct", Json::Bool(o.problems.is_empty())),
        ("metrics", Json::Obj(o.metrics.iter().map(|m| (m.name.clone(), m.to_json())).collect())),
    ])
}

/// The host and settings a number was taken under.
fn header(args: &RunArgs) -> Json {
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown (not a git checkout)".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    // The flags come from the repository's cargo configuration; the build
    // cannot report them itself.
    let rustflags = std::fs::read_to_string(".cargo/config.toml")
        .ok()
        .and_then(|t| {
            t.lines().find(|l| l.trim_start().starts_with("rustflags")).map(str::to_owned)
        })
        .unwrap_or_default();
    let env = |k: &str| std::env::var(k).map_or(Json::Null, Json::from);
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Json::obj(vec![
        ("git_rev", git_rev.into()),
        ("nproc", (nproc as u64).into()),
        ("isa", aq2pnn_ring::IsaLevel::active().name().into()),
        ("rustflags", rustflags.trim().into()),
        ("RUSTFLAGS", env("RUSTFLAGS")),
        ("AQ2PNN_THREADS", env("AQ2PNN_THREADS")),
        ("AQ2PNN_ISA", env("AQ2PNN_ISA")),
        ("seed", args.seed.into()),
        ("window_s", args.window().as_secs_f64().into()),
        ("warmup_s", args.warmup().as_secs_f64().into()),
    ])
}

/// Writes `result-<seed>.json`, keeping the entries of workloads (and of
/// the other kind of run) an earlier invocation with this seed left there:
/// the driver runs one workload per invocation.
fn write_result(args: &RunArgs, entries: Vec<(&str, Json)>) -> Result<(), String> {
    let path = Path::new(OUT_DIR).join(format!("result-{}.json", args.seed));
    let (kind, other_kind) =
        if args.trace { ("per_layer", "end_to_end") } else { ("end_to_end", "per_layer") };
    let previous = std::fs::read_to_string(&path).ok().and_then(|t| Json::parse(&t).ok());
    let section = |key: &str| match previous.as_ref().and_then(|doc| doc.get(key)) {
        Some(Json::Obj(members)) => members.clone(),
        _ => Vec::new(),
    };
    let mut kept = section(kind);
    let other = Json::Obj(section(other_kind));
    for (name, entry) in entries {
        kept.retain(|(k, _)| k != name);
        kept.push((name.to_owned(), entry));
    }
    let doc = Json::obj(vec![("host", header(args)), (kind, Json::Obj(kept)), (other_kind, other)]);
    std::fs::write(&path, doc.to_string_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}
