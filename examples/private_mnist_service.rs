//! A privacy-preserving digit-classification service: the MLaaS scenario
//! of the paper's introduction, at LeNet5/MNIST scale.
//!
//! The *provider* trains LeNet5 on (synthetic) MNIST-like data and keeps
//! its weights private; the *user* submits private images. Neither side
//! reveals its secret; both learn only the logits. The example runs a
//! batch of secure inferences, reports accuracy parity with plaintext
//! inference, and estimates wall-clock link time on the paper's 1000 Mbps
//! LAN.
//!
//! ```sh
//! # Single process, in-memory link:
//! cargo run --release --example private_mnist_service
//!
//! # With the tracing/metrics layer on: emits trace.json (Chrome
//! # trace_event, load in chrome://tracing or Perfetto), metrics.json and
//! # the per-layer cost report into OUT/:
//! cargo run --release --example private_mnist_service -- --trace OUT --metrics
//! ```
//!
//! Both parties run in this process over the in-memory link. The
//! two-process deployment is the `aq2pnn-serve` / `aq2pnn-client` pair of
//! binaries (the `aq2pnn-server` crate): one provider process serving any
//! number of concurrent users over TCP.
//!
//! Progress lines go through the tracer's human log sink (stderr with
//! monotonic timestamps); `--quiet` silences them. The summary and the
//! cost report print to stdout. All telemetry carries **public structure
//! only** — layer names, shapes, ring widths, byte counts (DESIGN.md §10).

use aq2pnn::dealer::{DealerConfig, ExhaustionPolicy};
use aq2pnn::sim::{run_two_party_service, run_two_party_traced, PartyObs};
use aq2pnn::substrate::obs::chrome::chrome_trace;
use aq2pnn::substrate::obs::json::Json;
use aq2pnn::substrate::obs::report::CostReport;
use aq2pnn::substrate::obs::{LogSink, Tracer};
use aq2pnn::ProtocolConfig;
use aq2pnn_nn::data::SyntheticVision;
use aq2pnn_nn::quant::QuantModel;
use aq2pnn_nn::tensor::argmax_i64;
use aq2pnn_server::demo_model;
use aq2pnn_transport::{duplex, NetworkModel};
use std::path::{Path, PathBuf};

/// Builds the same deterministic dataset + trained/quantized model in any
/// process — the shared [`aq2pnn_server::demo_model`] recipe, so this
/// example, `aq2pnn-serve` and `aq2pnn-client` all derive identical
/// weights from the fixed seeds.
fn build_model(
    log: &Tracer,
    spec_name: &str,
) -> Result<(SyntheticVision, QuantModel), Box<dyn std::error::Error>> {
    log.info(format!("training {spec_name} on synthetic data (deterministic seeds)…"));
    demo_model(spec_name).map_err(Into::into)
}

fn usage() -> ! {
    eprintln!(
        "usage: private_mnist_service [--count N] [--batch B] [--dealer inline|background]\n\
         \x20                            [--model tiny|lenet5] [--trace DIR] [--metrics] [--quiet]\n\
         \n\
         Runs both parties in-process. The two-process deployment is\n\
         aq2pnn-serve + aq2pnn-client.\n\
         \n\
         --count N       number of test images to classify (default 10)\n\
         --batch B       images per batched online pass (default 1)\n\
         --dealer MODE   offline triple generation: inline (on the online\n\
         \x20               path, default) or background (pre-generated by\n\
         \x20               a dealer thread)\n\
         --model NAME    model to serve: tiny | lenet5 (default lenet5)\n\
         --trace DIR     write trace.json / metrics.json / report.txt into DIR\n\
         --metrics       print the metrics JSON to stdout\n\
         --quiet         suppress progress logging (summary still prints)"
    );
    std::process::exit(2)
}

struct Args {
    count: usize,
    batch: usize,
    background_dealer: bool,
    model: String,
    trace: Option<PathBuf>,
    metrics: bool,
    quiet: bool,
}

impl Args {
    /// The dealer pool to spawn, if any: depth covers two full batches.
    fn dealer_config(&self) -> Option<DealerConfig> {
        self.background_dealer.then(|| DealerConfig {
            depth: (2 * self.batch).max(8),
            policy: ExhaustionPolicy::GenerateInline,
        })
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        count: 10,
        batch: 1,
        background_dealer: false,
        model: "lenet5".into(),
        trace: None,
        metrics: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--count" => {
                args.count = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--batch" => {
                args.batch = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&b| b >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--dealer" => match it.next().as_deref() {
                Some("inline") => args.background_dealer = false,
                Some("background") => args.background_dealer = true,
                _ => usage(),
            },
            "--model" => args.model = it.next().unwrap_or_else(|| usage()),
            "--trace" => args.trace = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--metrics" => args.metrics = true,
            "--quiet" => args.quiet = true,
            _ => usage(),
        }
    }
    args
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args();

    // Progress goes through the tracer's human log sink: timestamped on
    // stderr by default, silenced by --quiet. A disabled tracer still
    // logs — span recording and progress logging are independent switches.
    let log = Tracer::disabled();
    if args.quiet {
        log.set_log_sink(LogSink::Silent);
    }

    let (data, model) = build_model(&log, &args.model)?;
    log.info(format!(
        "plaintext int8 accuracy {:.1}%",
        100.0 * model.accuracy(&data.test()[..50.min(data.test().len())])
    ));

    run_in_process(&data, &model, &args, &log)
}

/// Writes `trace.json`, `metrics.json` and `report.txt` into `dir`.
fn write_artifacts(
    dir: &Path,
    trace: &Json,
    metrics: &Json,
    report: &str,
    log: &Tracer,
) -> Result<(), Box<dyn std::error::Error>> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("trace.json"), trace.to_string_pretty())?;
    std::fs::write(dir.join("metrics.json"), metrics.to_string_pretty())?;
    std::fs::write(dir.join("report.txt"), report)?;
    log.info(format!(
        "observability artifacts written to {} (trace.json / metrics.json / report.txt)",
        dir.display()
    ));
    Ok(())
}

/// Single-process demo: both parties on threads over the in-memory link.
fn run_in_process(
    data: &SyntheticVision,
    model: &QuantModel,
    args: &Args,
    log: &Tracer,
) -> Result<(), Box<dyn std::error::Error>> {
    let cfg = ProtocolConfig::paper(16);
    let net_model = NetworkModel::paper_lan();
    let n = args.count.min(data.test().len());
    let obs_on = args.trace.is_some() || args.metrics;
    let (user_obs, provider_obs) = if obs_on {
        (PartyObs::enabled(), PartyObs::enabled())
    } else {
        (PartyObs::default(), PartyObs::default())
    };
    if args.quiet {
        // The dealer/calibration progress lines go through the party
        // tracers' log sinks, not the example's own.
        user_obs.tracer.set_log_sink(LogSink::Silent);
        provider_obs.tracer.set_log_sink(LogSink::Silent);
    }

    let mut secure_correct = 0;
    let mut plain_agree = 0;
    let mut total_bytes = 0u64;
    let mut total_msgs = 0u64;
    if args.batch > 1 || args.background_dealer {
        // Batched service path: one session, prepare-once, B images per
        // online pass, optional background dealer on both parties.
        log.info(format!(
            "batched service: batch {}, dealer {}",
            args.batch,
            if args.background_dealer { "background" } else { "inline" }
        ));
        let images: Vec<&[f32]> = data.test().iter().take(n).map(|s| s.image.as_slice()).collect();
        let (e0, e1) = duplex();
        let run = run_two_party_service(
            e0,
            e1,
            model,
            &cfg,
            &images,
            args.batch,
            args.dealer_config(),
            user_obs.clone(),
            provider_obs.clone(),
        )?;
        for (i, (s, logits)) in data.test().iter().take(n).zip(&run.logits).enumerate() {
            let pred = argmax_i64(logits);
            if pred == s.label {
                secure_correct += 1;
            }
            let plain = model.forward(&s.image)?;
            if pred == argmax_i64(&plain) {
                plain_agree += 1;
            }
            log.info(format!("inference {i}: predicted {pred} (label {})", s.label));
        }
        total_bytes = run.user_stats.total_bytes();
        total_msgs = run.user_stats.messages_sent + run.user_stats.messages_received;
    } else {
        for (i, s) in data.test().iter().take(n).enumerate() {
            let (e0, e1) = duplex();
            let run = run_two_party_traced(
                e0,
                e1,
                model,
                &cfg,
                &s.image,
                user_obs.clone(),
                provider_obs.clone(),
            )?;
            let pred = argmax_i64(&run.logits);
            if pred == s.label {
                secure_correct += 1;
            }
            let plain = model.forward(&s.image)?;
            if pred == argmax_i64(&plain) {
                plain_agree += 1;
            }
            total_bytes += run.user_stats.total_bytes();
            total_msgs += run.user_stats.messages_sent + run.user_stats.messages_received;
            log.info(format!("inference {i}: predicted {pred} (label {})", s.label));
        }
    }

    let per_inf_bytes = total_bytes / n as u64;
    let per_inf_msgs = total_msgs / n as u64;
    let link_secs = net_model.transfer_seconds(per_inf_bytes, per_inf_msgs);
    println!("\nsecure service over {n} private queries (Q1 = 2^{}):", cfg.q1_bits);
    println!("  secure accuracy        : {secure_correct}/{n}");
    println!("  agreement w/ plaintext : {plain_agree}/{n}");
    println!(
        "  communication          : {:.3} MiB per inference ({per_inf_msgs} msgs)",
        per_inf_bytes as f64 / (1024.0 * 1024.0)
    );
    println!("  est. link time @1 Gbps : {:.1} ms per inference", 1e3 * link_secs);

    if obs_on {
        let spans = [user_obs.tracer.snapshot(), provider_obs.tracer.snapshot()];
        let parties = [(0u32, &spans[0][..]), (1u32, &spans[1][..])];
        let report = CostReport::from_spans(&parties);
        let table = report.render();
        println!("\nper-layer cost report ({n} inference(s), both parties):\n{table}");
        let metrics = Json::obj(vec![
            ("party0", user_obs.metrics.snapshot().to_json()),
            ("party1", provider_obs.metrics.snapshot().to_json()),
        ]);
        if let Some(dir) = &args.trace {
            write_artifacts(dir, &chrome_trace(&parties), &metrics, &table, log)?;
        }
        if args.metrics {
            println!("{}", metrics.to_string_pretty());
        }
    }
    Ok(())
}
