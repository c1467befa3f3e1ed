//! Chaos soak for the multi-tenant inference server (ISSUE: robustness).
//!
//! Every test here drives a real [`InferenceServer`] over the in-process
//! [`mem_acceptor`] harness with real concurrent clients, and asserts the
//! three core robustness properties end to end:
//!
//! 1. **Bit-identical isolation** — clients on clean or *recoverable*
//!    lossy links (drop/delay/duplicate/corrupt, repaired by the session
//!    layer) produce logits bit-identical to an unfaulted reference run,
//!    regardless of what other sessions' links are doing.
//! 2. **Typed failure** — faulted, shed, version-skewed and garbage
//!    clients get a typed error within a bounded deadline; nothing hangs.
//! 3. **Zero leakage** — after every scenario the server returns to zero
//!    active sessions and zero registered dealer lanes, and the clean
//!    sessions' per-stream `session.<id>.*` recovery counters stay at 0.
//!
//! Fault schedules are seeded and deterministic ([`FaultPlan`]); the seed
//! scan helper below pins schedules that keep the single unprotected raw
//! admission frame (the client `Hello`, send index 0) intact while
//! guaranteeing a corruption lands inside the reliability-protected
//! window, so no test depends on luck.
//!
//! The `#[ignore]`d matrix at the bottom is the heavy release-mode soak
//! run by the CI `fault-matrix` job via `--include-ignored`.

use aq2pnn::dealer::{DealerConfig, ExhaustionPolicy};
use aq2pnn_nn::quant::QuantModel;
use aq2pnn_obs::MetricsRegistry;
use aq2pnn_server::{
    demo_model, mem_acceptor, run_client, ClientConfig, ClientError, ClientRun, InferenceServer,
    MemConnector, ModelRegistry, ServerConfig, ServerObs,
};
use aq2pnn_transport::{
    session_metric_name, FaultAction, FaultPlan, FaultyTransport, Frame, FrameKind, SessionConfig,
};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One shared tiny demo model per test binary (training is the slow part).
fn fixture() -> &'static (Vec<Vec<f32>>, QuantModel) {
    static FIXTURE: OnceLock<(Vec<Vec<f32>>, QuantModel)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (data, model) = demo_model("tiny").expect("demo model");
        (data.test_images(), model)
    })
}

fn images(n: usize) -> Vec<&'static [f32]> {
    fixture().0.iter().take(n).map(Vec::as_slice).collect()
}

/// Session tuning shared by both sides: fast probes so lossy-link repair
/// and reaper tests converge quickly in debug builds.
fn fast_session() -> SessionConfig {
    SessionConfig { probe_interval: Duration::from_millis(25), ..SessionConfig::default() }
}

fn server_cfg() -> ServerConfig {
    ServerConfig {
        max_sessions: 4,
        queue_depth: 4,
        admission_timeout: Duration::from_secs(5),
        io_deadline: Duration::from_secs(30),
        session_deadline: Duration::from_secs(120),
        idle_timeout: Duration::from_secs(30),
        reap_interval: Duration::from_millis(10),
        drain_timeout: Duration::from_secs(10),
        session: fast_session(),
        dealer: None,
        ..ServerConfig::default()
    }
}

fn client_cfg() -> ClientConfig {
    ClientConfig {
        model: "tiny".into(),
        q1_bits: 16,
        batch: 1,
        session: fast_session(),
        admission_timeout: Duration::from_secs(5),
        io_deadline: Duration::from_secs(30),
    }
}

fn start(cfg: ServerConfig) -> (InferenceServer, MemConnector, MetricsRegistry) {
    let (acceptor, dial) = mem_acceptor();
    let metrics = MetricsRegistry::new();
    let mut registry = ModelRegistry::new();
    registry.insert("tiny", fixture().1.clone());
    let obs = ServerObs { metrics: metrics.clone(), ..ServerObs::default() };
    let server = InferenceServer::start(Box::new(acceptor), cfg, registry, obs);
    (server, dial, metrics)
}

fn clean_run(dial: &MemConnector, n: usize) -> Result<ClientRun, ClientError> {
    run_client(dial.connect().expect("connect"), &client_cfg(), &fixture().1, &images(n))
}

fn wait_until(what: &str, budget: Duration, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + budget;
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Scans seeds for a lossy plan that (a) passes the raw admission `Hello`
/// (send index 0 — the one frame outside session reliability) and
/// (b) corrupts at least one frame inside the first 15 sends, so the
/// server-side repair counters for this stream are *guaranteed* nonzero.
fn lossy_plan(seed0: u64) -> FaultPlan {
    let mut seed = seed0;
    loop {
        let plan = FaultPlan::lossy(seed);
        let hello_ok = plan.action(0) == FaultAction::Pass;
        let early_corrupt = (1..=15).any(|i| plan.action(i) == FaultAction::Corrupt);
        if hello_ok && early_corrupt {
            return plan;
        }
        seed = seed.wrapping_add(1);
    }
}

/// The fault-evidence fields every *clean* stream must keep at zero.
///
/// Deliberately NOT the full telemetry set: `naks_sent`, `retransmits`
/// and `duplicates` double as silence probes and can legitimately tick on
/// a healthy link whenever the peer is slow (concurrent debug-mode 2PC is
/// exactly that), whereas a CRC failure, a misrouted frame or a reconnect
/// can only come from actual link faults.
const RECOVERY_FIELDS: &[&str] = &["corrupt_frames", "misrouted", "reconnects"];

/// Asserts the server-side recovery counters for `stream` are all zero.
fn assert_stream_untouched(metrics: &MetricsRegistry, stream: u64) {
    let snap = metrics.snapshot();
    for field in RECOVERY_FIELDS {
        let name = session_metric_name(stream, field);
        let v = snap.counters.get(&name).copied().unwrap_or(0);
        assert_eq!(v, 0, "clean stream {stream} has nonzero {name} = {v}");
    }
}

fn assert_no_leaks(server: &InferenceServer) {
    wait_until("all sessions to unwind", Duration::from_secs(10), || server.active_sessions() == 0);
    assert_eq!(server.dealer_pools(), 0, "dealer lanes leaked");
}

// ---------------------------------------------------------------------------
// Clean concurrency: many tenants, one shared template + dealer hub.
// ---------------------------------------------------------------------------

#[test]
fn concurrent_clean_clients_complete_bit_identically() {
    let cfg = ServerConfig {
        dealer: Some(DealerConfig { depth: 8, policy: ExhaustionPolicy::GenerateInline }),
        ..server_cfg()
    };
    let (mut server, dial, _metrics) = start(cfg);

    let reference = clean_run(&dial, 2).expect("reference run");
    assert_eq!(reference.logits.len(), 2);

    let handles: Vec<_> = (0..4)
        .map(|_| {
            let dial = dial.clone();
            std::thread::spawn(move || clean_run(&dial, 2))
        })
        .collect();
    let mut streams = vec![reference.stream];
    for h in handles {
        let run = h.join().expect("client thread").expect("clean client");
        assert_eq!(run.logits, reference.logits, "concurrent clean run diverged");
        streams.push(run.stream);
    }
    streams.sort_unstable();
    streams.dedup();
    assert_eq!(streams.len(), 5, "stream IDs must be unique per session");

    assert_no_leaks(&server);
    let c = server.counters();
    assert_eq!(c.admitted, 5);
    assert_eq!(c.completed, 5);
    assert_eq!(c.shed, 0);
    assert_eq!(c.faulted, 0);
    assert_eq!(c.reaped, 0);
    let report = server.drain();
    assert!(report.clean, "nothing in flight, drain must be clean");
}

// ---------------------------------------------------------------------------
// Recoverable faults: lossy links repair to bit-identical logits, and the
// per-stream telemetry proves the faults never bled across sessions.
// ---------------------------------------------------------------------------

#[test]
fn lossy_links_recover_bit_identically_and_clean_streams_stay_untouched() {
    let (mut server, dial, metrics) = start(server_cfg());
    let reference = clean_run(&dial, 2).expect("reference run");

    let lossy = |seed0: u64| {
        let dial = dial.clone();
        std::thread::spawn(move || {
            let plan = lossy_plan(seed0);
            let link = Arc::new(FaultyTransport::new(dial.connect().expect("connect"), plan));
            let stats_probe = Arc::clone(&link);
            let out = run_client(link, &client_cfg(), &fixture().1, &images(2));
            (out, stats_probe.stats())
        })
    };
    let faulty = [lossy(0xC0A1), lossy(0xC0A2)];
    let clean = {
        let dial = dial.clone();
        std::thread::spawn(move || clean_run(&dial, 2))
    };

    let clean_out = clean.join().expect("clean thread").expect("clean client");
    assert_eq!(clean_out.logits, reference.logits);
    let mut lossy_streams = Vec::new();
    for h in faulty {
        let (out, stats) = h.join().expect("lossy thread");
        let run = out.expect("lossy link is recoverable, client must still succeed");
        assert_eq!(run.logits, reference.logits, "repaired run diverged from reference");
        assert!(stats.corrupted > 0, "seed scan guaranteed an early corrupt");
        lossy_streams.push(run.stream);
    }

    assert_no_leaks(&server);

    // Isolation: the faulted streams did repair work server-side, the
    // clean streams' recovery counters are untouched.
    let snap = metrics.snapshot();
    for stream in lossy_streams {
        let corrupt =
            snap.counters.get(&session_metric_name(stream, "corrupt_frames")).copied().unwrap_or(0);
        assert!(corrupt > 0, "server never saw the injected corruption on stream {stream}");
    }
    assert_stream_untouched(&metrics, reference.stream);
    assert_stream_untouched(&metrics, clean_out.stream);

    let c = server.counters();
    assert_eq!(c.completed, 4);
    assert_eq!(c.faulted, 0, "recoverable faults must not fault sessions");
    server.drain();
}

// ---------------------------------------------------------------------------
// Fatal faults: a mid-protocol disconnect is a typed error for that client
// and invisible to every other session.
// ---------------------------------------------------------------------------

#[test]
fn mid_protocol_disconnect_is_typed_and_isolated() {
    let (mut server, dial, metrics) = start(server_cfg());
    let reference = clean_run(&dial, 2).expect("reference run");

    let doomed = {
        let dial = dial.clone();
        std::thread::spawn(move || {
            // `MemTransport` cannot reconnect, so a cable pull at send #10
            // (well past admission, inside the protocol) is fatal.
            let plan = FaultPlan { disconnect_at: vec![10], ..FaultPlan::clean() };
            let link = Arc::new(FaultyTransport::new(dial.connect().expect("connect"), plan));
            run_client(link, &client_cfg(), &fixture().1, &images(2))
        })
    };
    let clean = {
        let dial = dial.clone();
        std::thread::spawn(move || clean_run(&dial, 2))
    };

    let err = doomed.join().expect("doomed thread").expect_err("disconnect must fail");
    assert!(
        matches!(err, ClientError::Transport(_)),
        "disconnect must surface as a typed transport error, got {err}"
    );
    let clean_out = clean.join().expect("clean thread").expect("unaffected client");
    assert_eq!(clean_out.logits, reference.logits, "bystander session diverged");

    assert_no_leaks(&server);
    assert_stream_untouched(&metrics, reference.stream);
    assert_stream_untouched(&metrics, clean_out.stream);
    let c = server.counters();
    assert_eq!(c.admitted, 3);
    assert_eq!(c.completed, 2);
    assert_eq!(
        c.faulted + c.rejected,
        1,
        "the disconnected session must be billed as a client fault"
    );
    assert_eq!(c.reaped, 0);
    server.drain();
}

// ---------------------------------------------------------------------------
// Slow-loris: a client that connects and goes silent is reaped on the idle
// deadline, its slot reclaimed, with live sessions unaffected.
// ---------------------------------------------------------------------------

#[test]
fn slow_loris_is_reaped_on_the_idle_deadline() {
    let cfg = ServerConfig {
        // Long admission timeout so the *reaper* (idle deadline), not the
        // admission recv timeout, is what must catch the loris.
        admission_timeout: Duration::from_secs(30),
        idle_timeout: Duration::from_millis(250),
        ..server_cfg()
    };
    let (mut server, dial, _metrics) = start(cfg);

    // The loris completes admission, then never speaks again.
    let loris = dial.connect().expect("connect");
    loris.send(Frame::control(FrameKind::Hello, 0, 0).encode().into()).expect("hello");
    let verdict = loris.recv(Some(Duration::from_secs(2))).expect("verdict");
    assert_eq!(Frame::decode(&verdict).expect("frame").kind, FrameKind::Hello);

    // A live client served while the loris squats proves no head-of-line
    // blocking.
    let run = clean_run(&dial, 1).expect("live client");
    assert_eq!(run.logits.len(), 1);

    wait_until("loris to be reaped", Duration::from_secs(5), || server.counters().reaped >= 1);
    assert_no_leaks(&server);
    let c = server.counters();
    assert_eq!(c.reaped, 1);
    assert_eq!(c.completed, 1);
    assert_eq!(c.faulted, 0, "a reaped session must not be billed as a client fault");
    drop(loris);
    server.drain();
}

// ---------------------------------------------------------------------------
// Overload: admission beyond max_sessions + queue_depth is a typed Shed
// answered immediately — never a hang, never a timeout-as-signal.
// ---------------------------------------------------------------------------

#[test]
fn overload_is_shed_with_a_typed_error_immediately() {
    let cfg = ServerConfig { max_sessions: 1, queue_depth: 0, ..server_cfg() };
    let (mut server, dial, _metrics) = start(cfg);

    let occupant = {
        let dial = dial.clone();
        std::thread::spawn(move || clean_run(&dial, 4))
    };
    wait_until("the occupant to be admitted", Duration::from_secs(5), || {
        server.counters().admitted == 1 && server.active_sessions() == 1
    });

    let started = Instant::now();
    let err = clean_run(&dial, 1).expect_err("second client must be declined");
    let elapsed = started.elapsed();
    assert_eq!(err, ClientError::Shed);
    assert!(
        elapsed < Duration::from_secs(2),
        "shed must be immediate, took {elapsed:?} (admission timeout is 5 s)"
    );

    let run = occupant.join().expect("occupant thread").expect("occupant completes");
    assert_eq!(run.logits.len(), 4);
    assert_no_leaks(&server);
    let c = server.counters();
    assert_eq!(c.shed, 1);
    assert_eq!(c.completed, 1);
    server.drain();
}

// ---------------------------------------------------------------------------
// Hostile admission traffic: garbage bytes and version-skewed peers are
// rejected as typed admission failures without collateral damage.
// ---------------------------------------------------------------------------

#[test]
fn garbage_and_version_skew_admissions_are_rejected_without_collateral() {
    let (mut server, dial, _metrics) = start(server_cfg());

    // Not a frame at all.
    let garbage = dial.connect().expect("connect");
    garbage.send(bytes::Bytes::from_static(b"GET / HTTP/1.1\r\n\r\n")).expect("send");
    wait_until("garbage to be rejected", Duration::from_secs(5), || {
        server.counters().rejected >= 1
    });

    // A well-formed frame from a v1 peer: version byte rewritten. The
    // version check precedes the checksum, so this is a typed
    // VersionMismatch server-side, not generic corruption.
    let skewed = dial.connect().expect("connect");
    let mut old = Frame::control(FrameKind::Hello, 0, 0).encode();
    old[2] = 1;
    skewed.send(old.into()).expect("send");
    wait_until("version skew to be rejected", Duration::from_secs(5), || {
        server.counters().rejected >= 2
    });

    // The server is unharmed: a real client still gets served.
    let run = clean_run(&dial, 1).expect("client after hostile traffic");
    assert_eq!(run.logits.len(), 1);
    assert_no_leaks(&server);
    let c = server.counters();
    assert_eq!(c.rejected, 2);
    assert_eq!(c.completed, 1);
    assert_eq!(c.faulted, 0);
    server.drain();
}

// An unknown model name is a typed rejection carried back to the client.
#[test]
fn unknown_model_requests_are_rejected_with_the_reason() {
    let (mut server, dial, _metrics) = start(server_cfg());
    let cfg = ClientConfig { model: "resnet152".into(), ..client_cfg() };
    let err = run_client(dial.connect().expect("connect"), &cfg, &fixture().1, &images(1))
        .expect_err("unknown model must be rejected");
    match err {
        ClientError::Rejected(reason) => assert!(reason.contains("resnet152"), "{reason}"),
        other => panic!("expected Rejected, got {other}"),
    }
    assert_no_leaks(&server);
    assert_eq!(server.counters().rejected, 1);
    server.drain();
}

// ---------------------------------------------------------------------------
// Live telemetry: concurrent admin scrapes during load return consistent
// schema-v4 snapshots without blocking any worker, and a reaped session
// leaves a parseable flight-recorder dump covering its final second.
// ---------------------------------------------------------------------------

/// A scraper thread hammering `/metrics`, `/sessions` and `/healthz`
/// until told to stop — but never fewer than [`MIN_SCRAPES`] rounds: the
/// load it scrapes under lasts only as long as the clients take, which
/// shrinks whenever the engine gets faster. Asserts every `/metrics` body
/// is schema-v4-valid and counters stay monotone across scrapes; panics
/// propagate through the join.
const MIN_SCRAPES: u64 = 3;

fn spawn_scraper(
    admin: std::net::SocketAddr,
    stop: Arc<std::sync::atomic::AtomicBool>,
) -> std::thread::JoinHandle<u64> {
    std::thread::spawn(move || {
        let deadline = Duration::from_secs(2);
        let mut scrapes = 0u64;
        let mut last_admitted = 0u64;
        while scrapes < MIN_SCRAPES || !stop.load(std::sync::atomic::Ordering::SeqCst) {
            let body = aq2pnn_transport::http_get(admin, "/metrics", deadline).expect("/metrics");
            assert_eq!(
                aq2pnn_obs::text_schema_version(&body),
                Some(aq2pnn_obs::METRICS_SCHEMA_VERSION),
                "scrape must declare the current schema"
            );
            let snap = aq2pnn_obs::parse_text(&body).expect("exposition parses");
            let admitted = snap.counters.get("server.sessions_admitted").copied().unwrap_or(0);
            assert!(admitted >= last_admitted, "admitted counter went backwards");
            last_admitted = admitted;
            if admitted > 0 {
                assert!(snap.gauges.contains_key("server.inflight"), "v4 inflight gauge missing");
            }
            let sessions =
                aq2pnn_transport::http_get(admin, "/sessions", deadline).expect("/sessions");
            assert!(sessions.starts_with("stream "), "sessions table must have its header");
            let health = aq2pnn_transport::http_get(admin, "/healthz", deadline).expect("/healthz");
            assert!(
                ["ok", "overloaded", "draining"].contains(&health.trim()),
                "unexpected health verdict {health:?}"
            );
            scrapes += 1;
            std::thread::sleep(Duration::from_millis(5));
        }
        scrapes
    })
}

#[test]
fn admin_scrapes_are_consistent_and_reaped_sessions_dump_flight_recorders() {
    let dir = std::env::temp_dir().join(format!("aq2pnn-flightrec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig {
        // Long admission timeout so the reaper's idle deadline is what
        // catches the loris (and attributes the dump).
        admission_timeout: Duration::from_secs(30),
        idle_timeout: Duration::from_millis(300),
        slo_ms: Some(60_000),
        flightrec_dir: Some(dir.clone()),
        ..server_cfg()
    };
    let (mut server, dial, _metrics) = start(cfg);
    let admin = server.start_admin("127.0.0.1:0").expect("admin endpoint");
    let reference = clean_run(&dial, 2).expect("reference run");

    // A loris completes admission, then goes silent until reaped.
    let loris = dial.connect().expect("connect");
    loris.send(Frame::control(FrameKind::Hello, 0, 0).encode().into()).expect("hello");
    let verdict = loris.recv(Some(Duration::from_secs(2))).expect("verdict");
    // The admission reply carries the assigned stream ID in `seq`
    // (control frames always have `stream == 0`).
    let loris_stream = Frame::decode(&verdict).expect("frame").seq;

    // Scrape concurrently while real clients run: the admin surface must
    // never block a session worker.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scraper = spawn_scraper(admin, Arc::clone(&stop));
    let handles: Vec<_> = (0..3)
        .map(|_| {
            let dial = dial.clone();
            std::thread::spawn(move || clean_run(&dial, 2))
        })
        .collect();
    for h in handles {
        let run = h.join().expect("client thread").expect("clean client under scraping");
        assert_eq!(run.logits, reference.logits, "scraping perturbed an inference");
    }
    wait_until("loris to be reaped", Duration::from_secs(5), || server.counters().reaped >= 1);
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let scrapes = scraper.join().expect("scraper thread");
    assert!(scrapes >= MIN_SCRAPES, "expected several successful scrapes, got {scrapes}");

    // The reaped loris left a parseable Chrome-trace dump whose events
    // cover the session's final second: the reaper's `reaping` stamp and
    // the terminal `reaped` event land within the last 1000 ms.
    let dump_path = dir.join(format!("flightrec-{loris_stream}.json"));
    wait_until("flight recorder dump", Duration::from_secs(5), || dump_path.exists());
    let text = std::fs::read_to_string(&dump_path).expect("read dump");
    let doc = aq2pnn_obs::json::Json::parse(&text).expect("dump is valid JSON");
    assert_eq!(doc.get("flightrec").and_then(aq2pnn_obs::json::Json::as_u64), Some(1));
    let events = aq2pnn_obs::chrome::parse_chrome_trace(&doc).expect("chrome-trace compatible");
    assert!(!events.is_empty());
    assert!(events.iter().all(|e| e.pid == loris_stream));
    assert!(events.iter().any(|e| e.name == "admitted"));
    let last = events.iter().fold(0.0f64, |m, e| m.max(e.ts_us + e.dur_us));
    let reaped = events.iter().find(|e| e.name == "reaped").expect("terminal reaped event");
    let reaping = events.iter().find(|e| e.name == "reaping").expect("reaper attribution event");
    assert!(last - reaped.ts_us <= 1_000_000.0, "terminal event must be in the final second");
    assert!(last - reaping.ts_us <= 1_000_000.0, "reaper stamp must be in the final second");

    // Clean completions leave no dumps behind.
    let dumps = std::fs::read_dir(&dir).expect("dump dir").count();
    assert_eq!(dumps, 1, "only the reaped session may dump");

    drop(loris);
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admin_rejects_non_loopback_binds_and_unknown_paths() {
    let (mut server, _dial, _metrics) = start(server_cfg());
    assert!(server.start_admin("0.0.0.0:0").is_err(), "admin must refuse non-loopback binds");
    let admin = server.start_admin("127.0.0.1:0").expect("loopback bind");
    let err = aq2pnn_transport::http_get(admin, "/secrets", Duration::from_secs(2))
        .expect_err("unknown paths are 404");
    assert!(format!("{err}").contains("404"), "{err}");
    server.drain();
}

// ---------------------------------------------------------------------------
// The heavy matrix: rounds of mixed clean / lossy / disconnect / loris
// clients under a dealer-enabled server. Release-mode CI soak
// (`fault-matrix` job, `--include-ignored`); far too slow for debug tier-1.
// ---------------------------------------------------------------------------

#[test]
#[ignore = "heavy soak; run in release via the CI fault-matrix job"]
fn chaos_matrix_soak() {
    let dir = std::env::temp_dir().join(format!("aq2pnn-soak-flightrec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig {
        max_sessions: 4,
        queue_depth: 8,
        idle_timeout: Duration::from_millis(400),
        admission_timeout: Duration::from_secs(30),
        dealer: Some(DealerConfig { depth: 8, policy: ExhaustionPolicy::GenerateInline }),
        slo_ms: Some(60_000),
        flightrec_dir: Some(dir.clone()),
        ..server_cfg()
    };
    let (mut server, dial, metrics) = start(cfg);
    let admin = server.start_admin("127.0.0.1:0").expect("admin endpoint");
    // Scrape the admin surface for the whole soak: every snapshot must
    // stay schema-v4-valid and monotone while chaos runs.
    let stop_scraper = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scraper = spawn_scraper(admin, Arc::clone(&stop_scraper));
    let reference = clean_run(&dial, 2).expect("reference run");

    for round in 0..3u64 {
        // A loris squats for this whole round.
        let loris = dial.connect().expect("connect");
        loris.send(Frame::control(FrameKind::Hello, 0, 0).encode().into()).expect("hello");
        let _ = loris.recv(Some(Duration::from_secs(2))).expect("verdict");

        // 2 clean + 3 lossy clients, all of which must complete
        // bit-identically, plus 1 disconnecting client that must fail typed.
        let mut recoverable = Vec::new();
        for _ in 0..2 {
            let dial = dial.clone();
            recoverable.push(std::thread::spawn(move || clean_run(&dial, 2)));
        }
        for i in 0..3u64 {
            let dial = dial.clone();
            recoverable.push(std::thread::spawn(move || {
                let plan = lossy_plan(0x5EED_0000 + round * 16 + i);
                let link = Arc::new(FaultyTransport::new(dial.connect().expect("connect"), plan));
                run_client(link, &client_cfg(), &fixture().1, &images(2))
            }));
        }
        let doomed = {
            let dial = dial.clone();
            std::thread::spawn(move || {
                let plan = FaultPlan { disconnect_at: vec![12 + round], ..FaultPlan::clean() };
                let link = Arc::new(FaultyTransport::new(dial.connect().expect("connect"), plan));
                run_client(link, &client_cfg(), &fixture().1, &images(2))
            })
        };

        for h in recoverable {
            let run = h.join().expect("client thread").expect("recoverable client");
            assert_eq!(run.logits, reference.logits, "round {round}: diverged");
        }
        let err = doomed.join().expect("doomed thread").expect_err("disconnect must fail");
        assert!(matches!(err, ClientError::Transport(_)), "round {round}: {err}");

        wait_until("round loris reap", Duration::from_secs(10), || {
            server.counters().reaped > round
        });
        drop(loris);
        assert_no_leaks(&server);
        // The known-clean reference stream stays untouched through every
        // round of chaos.
        assert_stream_untouched(&metrics, reference.stream);
    }

    let c = server.counters();
    assert_eq!(c.completed, 1 + 3 * 5, "reference + 5 recoverable per round");
    assert_eq!(c.reaped, 3);
    assert_eq!(c.faulted + c.rejected, 3, "one disconnect per round");

    stop_scraper.store(true, std::sync::atomic::Ordering::SeqCst);
    let scrapes = scraper.join().expect("scraper thread");
    assert!(scrapes >= 10, "the scraper must have run throughout the soak, got {scrapes}");
    // Every reaped loris left a parseable flight-recorder dump.
    let mut dumps = 0;
    for entry in std::fs::read_dir(&dir).expect("dump dir") {
        let text = std::fs::read_to_string(entry.expect("entry").path()).expect("read dump");
        let doc = aq2pnn_obs::json::Json::parse(&text).expect("dump parses");
        let events = aq2pnn_obs::chrome::parse_chrome_trace(&doc).expect("chrome-trace compatible");
        assert!(!events.is_empty());
        dumps += 1;
    }
    assert!(dumps >= 3, "each reaped loris must dump, got {dumps}");

    let report = server.drain();
    assert!(report.clean);
    let _ = std::fs::remove_dir_all(&dir);
}
