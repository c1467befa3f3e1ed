//! The deployable multi-tenant provider process.
//!
//! Serves the deterministic demo models over TCP to any number of
//! concurrent `run_client` users, with bounded admission, deadlines and
//! graceful signal-driven drain:
//!
//! ```sh
//! aq2pnn-serve --listen 127.0.0.1:0 --model tiny --max-sessions 8
//! # SIGINT/SIGTERM → drain (shed new clients, finish in-flight ones)
//! # exit 0: drained clean   exit 3: drain budget expired, force-closed
//! ```
//!
//! The first stdout line is `listening on <addr>` (with the resolved
//! ephemeral port), which the spawned-process shutdown test keys on.

use aq2pnn::dealer::{DealerConfig, ExhaustionPolicy};
use aq2pnn_server::{
    demo_model, signal, InferenceServer, ModelRegistry, ServerConfig, ServerObs, TcpAcceptor,
};
use aq2pnn_transport::TcpConfig;
use std::io::Write;
use std::time::Duration;

struct Args {
    listen: String,
    model: String,
    max_sessions: usize,
    queue_depth: usize,
    background_dealer: bool,
    admission_ms: u64,
    io_ms: u64,
    idle_ms: u64,
    deadline_ms: u64,
    drain_ms: u64,
    admin: Option<String>,
    slo_ms: Option<u64>,
    flightrec_dir: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: aq2pnn-serve [--listen ADDR] [--model tiny|lenet5]\n\
         \x20                  [--max-sessions N] [--queue-depth N] [--dealer inline|background]\n\
         \x20                  [--admission-timeout-ms N] [--io-timeout-ms N]\n\
         \x20                  [--idle-timeout-ms N] [--session-deadline-ms N]\n\
         \x20                  [--drain-timeout-ms N]\n\
         \x20                  [--admin ADDR] [--slo-ms N] [--flightrec DIR]\n\
         \n\
         --admin ADDR    loopback-only live telemetry endpoint\n\
         \x20               (GET /metrics, /sessions, /healthz)\n\
         --slo-ms N      end-to-end latency budget (server.slo_violations)\n\
         --flightrec DIR per-session flight recorder; faulted/reaped\n\
         \x20               sessions dump flightrec-<stream>.json here\n\
         \n\
         exit codes: 0 drained clean, 2 usage, 3 drain budget expired"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: "127.0.0.1:0".into(),
        model: "tiny".into(),
        max_sessions: 4,
        queue_depth: 4,
        background_dealer: false,
        admission_ms: 5_000,
        io_ms: 60_000,
        idle_ms: 60_000,
        deadline_ms: 600_000,
        drain_ms: 10_000,
        admin: None,
        slo_ms: None,
        flightrec_dir: None,
    };
    let mut it = std::env::args().skip(1);
    let num = |it: &mut dyn Iterator<Item = String>| -> u64 {
        it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--listen" => args.listen = it.next().unwrap_or_else(|| usage()),
            "--model" => args.model = it.next().unwrap_or_else(|| usage()),
            "--max-sessions" => {
                args.max_sessions = usize::try_from(num(&mut it)).unwrap_or_else(|_| usage());
            }
            "--queue-depth" => {
                args.queue_depth = usize::try_from(num(&mut it)).unwrap_or_else(|_| usage());
            }
            "--dealer" => match it.next().as_deref() {
                Some("inline") => args.background_dealer = false,
                Some("background") => args.background_dealer = true,
                _ => usage(),
            },
            "--admission-timeout-ms" => args.admission_ms = num(&mut it),
            "--io-timeout-ms" => args.io_ms = num(&mut it),
            "--idle-timeout-ms" => args.idle_ms = num(&mut it),
            "--session-deadline-ms" => args.deadline_ms = num(&mut it),
            "--drain-timeout-ms" => args.drain_ms = num(&mut it),
            "--admin" => args.admin = Some(it.next().unwrap_or_else(|| usage())),
            "--slo-ms" => args.slo_ms = Some(num(&mut it)),
            "--flightrec" => args.flightrec_dir = Some(it.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    if args.max_sessions == 0 {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    signal::install_handlers();

    eprintln!("training demo model {:?} (deterministic seeds)…", args.model);
    let build_started = std::time::Instant::now();
    let (_data, model) = match demo_model(&args.model) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("aq2pnn-serve: {e}");
            std::process::exit(2);
        }
    };
    // Set-up splits into this build and everything up to `listening on`.
    eprintln!("model {:?} built in {} ms", args.model, build_started.elapsed().as_millis());
    let mut registry = ModelRegistry::new();
    registry.insert(args.model.clone(), model);

    let acceptor = match TcpAcceptor::bind(&args.listen, TcpConfig::default()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("aq2pnn-serve: {e}");
            std::process::exit(2);
        }
    };
    let addr = acceptor.local_addr().map_or_else(|_| args.listen.clone(), |a| a.to_string());

    let cfg = ServerConfig {
        max_sessions: args.max_sessions,
        queue_depth: args.queue_depth,
        admission_timeout: Duration::from_millis(args.admission_ms),
        io_deadline: Duration::from_millis(args.io_ms),
        session_deadline: Duration::from_millis(args.deadline_ms),
        idle_timeout: Duration::from_millis(args.idle_ms),
        drain_timeout: Duration::from_millis(args.drain_ms),
        dealer: args
            .background_dealer
            .then_some(DealerConfig { depth: 16, policy: ExhaustionPolicy::GenerateInline }),
        slo_ms: args.slo_ms,
        flightrec_dir: args.flightrec_dir.as_ref().map(std::path::PathBuf::from),
        ..ServerConfig::default()
    };
    // Live telemetry needs a recording registry; without it the admin
    // endpoint (and SLO tracking) would scrape an empty store.
    let obs = if args.admin.is_some() || args.slo_ms.is_some() {
        ServerObs { metrics: aq2pnn_obs::MetricsRegistry::new(), ..ServerObs::default() }
    } else {
        ServerObs::default()
    };
    let mut server = InferenceServer::start(Box::new(acceptor), cfg, registry, obs);
    let admin_addr = args.admin.as_ref().map(|a| match server.start_admin(a) {
        Ok(resolved) => resolved,
        Err(e) => {
            eprintln!("aq2pnn-serve: {e}");
            std::process::exit(2);
        }
    });

    // The ready line the process tests key on; flush so a piped reader
    // sees it immediately.
    println!("listening on {addr}");
    if let Some(admin) = admin_addr {
        println!("admin on {admin}");
    }
    let _ = std::io::stdout().flush();

    while !signal::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(20));
    }
    eprintln!("aq2pnn-serve: signal received, draining…");
    let report = server.drain();
    let c = server.counters();
    println!(
        "drain clean={} forced={} ms={} admitted={} completed={} shed={} reaped={}",
        report.clean, report.forced, report.drain_ms, c.admitted, c.completed, c.shed, c.reaped
    );
    std::process::exit(if report.clean { 0 } else { 3 });
}
