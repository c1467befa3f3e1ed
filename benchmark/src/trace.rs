//! The traced run: where the time and bytes of a workload go.
//!
//! Kept apart from the end-to-end run, whose numbers are always taken with
//! tracing off. Three sources, all recorded from this crate's own calls:
//!
//! * both parties of the workload's (model, batch) in this process, over a
//!   loopback `TcpTransport` + `Session` pair with the public
//!   `PartyObs::enabled()` handles → `core.*` rows via `CostReport`;
//! * a short load against a provider started with `--admin`, scraped once
//!   at the end → `server.*` and `dealer.*` rows;
//! * a driver span around every call the driver makes, written with the
//!   spans of both parties as one Chrome trace.

use crate::load::{self, Case, Outcome, Workload, Q1_BITS};
use crate::stats::{Metric, Summary};
use crate::{RunArgs, OUT_DIR};
use aq2pnn::engine::BatchInput;
use aq2pnn::prepared::PreparedModel;
use aq2pnn::sim::{run_pair_over, PartyObs};
use aq2pnn::ProtocolConfig;
use aq2pnn_obs::chrome::chrome_trace;
use aq2pnn_obs::report::{CostReport, LayerRow, PartyCost};
use aq2pnn_obs::{parse_text, quantile, Tracer};
use aq2pnn_sharing::PartyId;
use aq2pnn_transport::{
    http_get, Endpoint, Session, SessionConfig, TcpConfig, TcpTransport, Transport,
};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Protocol stages the ledger reports (absent ones read 0).
const STAGES: [&str; 6] = ["gemm", "bnreq", "a2bm", "ot-flow", "reveal", "mux"];
/// Layer kinds the ledger aggregates per-layer rows into, with the span
/// name prefixes of each.
const KINDS: [(&str, &[&str]); 3] =
    [("linear", &["conv", "fc"]), ("abrelu", &["abrelu"]), ("maxpool", &["maxpool"])];

/// Both ends of a loopback TCP link, each under its own `Session`.
pub fn tcp_pair() -> Result<(Endpoint, Endpoint), String> {
    let listener = TcpTransport::listen("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let dialer = TcpTransport::connect(addr, TcpConfig::default()).map_err(|e| e.to_string())?;
    let end = |t: TcpTransport| {
        let session = Arc::new(Session::new(Arc::new(t), SessionConfig::default()));
        Endpoint::over_transport(session as Arc<dyn Transport>, Some(Duration::from_secs(20)))
    };
    Ok((end(dialer), end(listener)))
}

/// One party's view of an in-process service run.
struct PartyRun {
    logits: Vec<Vec<i64>>,
    online_ns: u64,
    total_bytes: u64,
}

/// Runs prepare + `⌈images/batch⌉` online passes as both parties over a
/// fresh loopback TCP pair; returns the user's view.
fn pair_run(case: &Case, obs: [PartyObs; 2]) -> Result<PartyRun, String> {
    let (e0, e1) = tcp_pair()?;
    let model = Arc::new(case.fixture.model.clone());
    let owned: Arc<Vec<Vec<f32>>> = Arc::new(case.images.iter().map(|i| i.to_vec()).collect());
    let batch = case.w.batch;
    let (user, provider) = run_pair_over(e0, e1, &ProtocolConfig::paper(Q1_BITS), move |ctx| {
        let o = &obs[usize::from(ctx.id == PartyId::ModelProvider)];
        ctx.set_obs(o.tracer.clone(), o.metrics.clone());
        let mut prepared = PreparedModel::prepare(ctx, &model).map_err(|e| e.to_string())?;
        let mut logits = Vec::with_capacity(owned.len());
        let started = Instant::now();
        for chunk in owned.chunks(batch) {
            let refs: Vec<&[f32]> = chunk.iter().map(Vec::as_slice).collect();
            let input = match ctx.id {
                PartyId::User => BatchInput::User(&refs),
                PartyId::ModelProvider => BatchInput::Provider { batch: chunk.len() },
            };
            logits.extend(prepared.run_batch(ctx, input).map_err(|e| e.to_string())?.logits);
        }
        let online_ns = started.elapsed().as_nanos() as u64;
        Ok::<_, String>(PartyRun { logits, online_ns, total_bytes: ctx.ep.stats().total_bytes() })
    });
    provider?;
    user
}

fn online(row: &LayerRow, pid: u64) -> PartyCost {
    row.online.get(&pid).copied().unwrap_or_default()
}

/// A ledger row of one traced run: name, unit, value.
type Row = (String, &'static str, f64);

/// The `core.*` rows of one traced pair run, plus the ledger's own
/// consistency checks (bytes exact, stage ms within 5 % of layer ms).
///
/// A row's time is that of the party that spent longer in it: in lockstep
/// 2PC that party is the row's blocking side (the provider in `gemm`, it
/// multiplies three matrices to the user's two), while the other books the
/// difference as a wait in its next row. So rows can add up to more than
/// the online time. Bytes and rounds are the same for both parties.
fn ledger(
    w: &Workload,
    report: &CostReport,
    channel_bytes: u64,
    problems: &mut Vec<String>,
) -> Vec<Row> {
    let images = w.images as f64;
    let mut out: Vec<Row> = Vec::new();
    if report.total_bytes(0) != channel_bytes {
        problems.push(format!(
            "ledger: layer bytes sum to {}, ChannelStats::total_bytes() is {channel_bytes}",
            report.total_bytes(0)
        ));
    }
    let slower = |of: &dyn Fn(u64) -> f64| of(0).max(of(1));
    for stage in STAGES {
        let ms = slower(&|pid| {
            report
                .rows
                .iter()
                .flat_map(|r| &r.stages)
                .filter(|s| s.name == stage)
                .filter_map(|s| s.online.get(&pid))
                .map(|c| c.ms)
                .sum()
        });
        // `+ 0.0`: the empty sum of a stage the model lacks is -0.0.
        out.push((format!("core.stage_ms.{stage}"), "ms", ms / images + 0.0));
    }
    for (kind, prefixes) in KINDS {
        let rows: Vec<&LayerRow> =
            report.rows.iter().filter(|r| prefixes.iter().any(|p| r.name.starts_with(p))).collect();
        let ms = slower(&|pid| rows.iter().map(|r| online(r, pid).ms).sum());
        let bytes: u64 = rows.iter().map(|r| online(r, 0).bytes).sum();
        let rounds: u64 = rows.iter().map(|r| online(r, 0).rounds).sum();
        out.push((format!("core.layer_ms.{kind}"), "ms", ms / images));
        out.push((format!("core.layer_bytes.{kind}"), "B", bytes as f64 / images));
        out.push((format!("core.layer_rounds.{kind}"), "count", rounds as f64 / images));
    }
    out.push(("core.prepare_ms".into(), "ms", slower(&|pid| report.offline_total(pid).ms)));
    out.push(("core.prepare_bytes".into(), "B", report.offline_total(0).bytes as f64));

    for pid in [0u64, 1] {
        let (mut layers, mut stages) = (0.0, 0.0);
        for row in report.rows.iter().filter(|r| !r.stages.is_empty()) {
            layers += online(row, pid).ms;
            stages +=
                row.stages.iter().filter_map(|s| s.online.get(&pid)).map(|c| c.ms).sum::<f64>();
        }
        if layers > 0.0 && (stages / layers - 1.0).abs() > 0.05 {
            problems.push(format!(
                "ledger: party {pid} stage ms sum to {stages:.3}, their layers to {layers:.3}"
            ));
        }
    }
    out
}

/// The single-layer rows of the run kept in the Chrome trace, and each
/// party's own split of its online time: printed, but not part of the
/// fixed metric set (layer names depend on the model).
fn print_layers(w: &Workload, report: &CostReport) {
    let images = w.images as f64;
    for row in &report.rows {
        let (u, p) = (online(row, 0), online(row, 1));
        println!(
            "{} core.layer.{}: user {:.3} ms, provider {:.3} ms, {} B, {} rounds per image",
            w.name,
            row.name,
            u.ms / images,
            p.ms / images,
            u.bytes as f64 / images,
            u.rounds as f64 / images
        );
    }
    for (pid, party) in [(0, "user"), (1, "provider")] {
        let share = |stages: &[&str]| -> f64 {
            let ms: f64 = report
                .rows
                .iter()
                .flat_map(|r| &r.stages)
                .filter(|s| stages.contains(&s.name.as_str()))
                .filter_map(|s| s.online.get(&pid))
                .map(|c| c.ms)
                .sum();
            ms / report.online_total(pid).ms
        };
        println!(
            "{} {party}'s online ms: gemm {:.3}, ot-flow+a2bm+reveal {:.3} of it",
            w.name,
            share(&["gemm"]),
            share(&["ot-flow", "a2bm", "reveal"])
        );
    }
}

/// The `server.*` rows from one `/metrics` scrape.
fn scrape(admin: &str) -> Result<Vec<Metric>, String> {
    let text = http_get(admin, "/metrics", Duration::from_secs(5)).map_err(|e| e.to_string())?;
    let snap = parse_text(&text)?;
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    let queue_wait = snap.histograms.get("server.queue_wait_ms").map_or(0.0, |h| quantile(h, 0.5));
    let mut out = vec![Metric::new("server.queue_wait_ms", "ms", Summary::single(queue_wait))];
    for field in ["completed", "shed", "faulted", "reaped"] {
        let name = format!("server.sessions_{field}");
        out.push(Metric::new(name.clone(), "count", Summary::single(counter(&name))));
    }
    // Counted only when sessions run a background dealer; the shipped
    // provider generates triples inline, so this reads 0 until that changes.
    out.push(Metric::new("dealer.starved_ms", "ms", Summary::single(counter("dealer.starved_ms"))));
    Ok(out)
}

/// Alternating untraced/traced pair runs the ledger takes its medians over.
const PAIR_ROUNDS: usize = 5;

pub fn traced(case: &Case, args: &RunArgs) -> Result<Outcome, String> {
    let w = case.w;
    // Created together so the three timelines of the Chrome trace share an
    // origin to within microseconds.
    let driver = Tracer::new();
    let kept_obs = [PartyObs::enabled(), PartyObs::enabled()];
    let mut problems = Vec::new();

    // 1. The provider as deployed, with its admin endpoint: a short load
    //    for the server-side rows. A third of the end-to-end window.
    let window = args.window() / 3;
    let (provider, _) = load::set_up(case, true, &driver)?;
    let load = load::run_load(&provider, case, window / 6, window, &driver);
    let mut metrics = vec![
        Metric::new("server.session_overhead_ms", "ms", load.session_overhead_ms()),
        Metric::new("server.rss_peak_mib", "MiB", Summary::single(provider.vm_hwm_mib()?)),
    ];
    let span = driver.begin("scrape_metrics", "driver");
    let scraped = scrape(provider.admin.as_deref().expect("spawned with --admin"));
    driver.end(span);
    metrics.extend(scraped?);
    let (attempted, failed) = load.conclude(provider, 1, &mut problems)?;

    // 2. Both parties in this process, untraced and traced in turn. Every
    //    traced run is ledgered; the last one is kept for the Chrome trace.
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut ledgers: Vec<Vec<Row>> = Vec::new();
    let mut kept = None;
    for round in 0..PAIR_ROUNDS {
        let ms = |r: &PartyRun| r.online_ns as f64 / 1e6 / w.images as f64;
        let span = driver.begin("pair_untraced", "driver");
        let plain = pair_run(case, [PartyObs::default(), PartyObs::default()])?;
        driver.end(span);
        plain_ms.push(ms(&plain));
        let obs = if round + 1 == PAIR_ROUNDS {
            kept_obs.clone()
        } else {
            [PartyObs::enabled(), PartyObs::enabled()]
        };
        let span = driver.begin("pair_traced", "driver");
        let run = pair_run(case, obs.clone())?;
        driver.end(span);
        traced_ms.push(ms(&run));
        if plain.logits != case.reference || run.logits != case.reference {
            problems.push("in-process pair over TCP returned wrong logits".into());
        }
        let spans = [obs[0].tracer.snapshot(), obs[1].tracer.snapshot()];
        let report = CostReport::from_spans(&[(0, &spans[0]), (1, &spans[1])]);
        ledgers.push(ledger(w, &report, run.total_bytes, &mut problems));
        kept = Some((spans, report));
    }
    let (spans, report) = kept.expect("PAIR_ROUNDS > 0");
    print_layers(w, &report);
    let median =
        |i: usize| Summary::of(&ledgers.iter().map(|rows| rows[i].2).collect::<Vec<f64>>());
    metrics.extend(
        ledgers[0]
            .iter()
            .enumerate()
            .map(|(i, (name, unit, _))| Metric::new(name, unit, median(i))),
    );
    let overhead = Summary::of(&traced_ms).median / Summary::of(&plain_ms).median - 1.0;
    metrics.push(Metric::new("obs.trace_overhead_share", "ratio", Summary::single(overhead)));

    // 3. One Chrome trace: party 0, party 1, and the driver as "party 2".
    let driver_spans = driver.snapshot();
    let doc = chrome_trace(&[(0, &spans[0]), (1, &spans[1]), (2, &driver_spans)]);
    let path = Path::new(OUT_DIR).join(format!("trace-{}.json", w.name));
    std::fs::write(&path, doc.to_string_compact())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{} trace written to {}", w.name, path.display());

    Ok(Outcome { metrics, attempted, failed, problems })
}
