//! Dynamic leakage harness: transcript-uniformity and timing side-channel
//! checks complementing the static `secrecy-lint` pass.
//!
//! Two families of tests:
//!
//! 1. **Transcript homogeneity** — runs the batched secure comparison end
//!    to end under [`ReluMode::MaskedMux`] for two secret-input classes
//!    (a fixed plaintext vs. a fresh random plaintext per trial), captures
//!    every byte each party puts on the wire, and checks (a) the message
//!    count/size sequence is *identical* across classes and (b) a
//!    two-sample χ² test cannot distinguish the byte distributions. The
//!    two-sample form is deliberate: the wire format is structured
//!    (bit-packed codes, group elements mod p), so the transcript is not
//!    uniform over bytes — but its distribution must not depend on the
//!    plaintext.
//!
//! 2. **dudect-lite timing** — interleaved batched measurements of the
//!    branch-free kernels (`sign_from_codes`, the constant-time
//!    `Ring::pow` ladder) over a fixed-input class vs. a random-input
//!    class, percentile-cropped, compared with Welch's t-test. Thresholds
//!    and the retry policy are documented in `EXPERIMENTS.md`
//!    ("Leakage harness").

use aq2pnn::abrelu::{secure_sign, sign_from_codes};
use aq2pnn::engine::BatchInput;
use aq2pnn::prepared::PreparedModel;
use aq2pnn::sim::{run_pair, run_pair_over};
use aq2pnn::substrate::obs::{MetricsRegistry, Tracer};
use aq2pnn::{ProtocolConfig, ReluMode};
use aq2pnn_nn::data::SyntheticVision;
use aq2pnn_nn::float::FloatNet;
use aq2pnn_nn::quant::{QuantConfig, QuantModel};
use aq2pnn_nn::zoo;
use aq2pnn_ring::{ct, Ring, RingTensor};
use aq2pnn_sharing::{AShare, PartyId};
use aq2pnn_transport::{
    mem_pair, Endpoint, FaultPlan, FaultyTransport, Session, SessionConfig, Transport,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Transcript homogeneity
// ---------------------------------------------------------------------------

const Q1_BITS: u32 = 12;
const VALUES_PER_TRIAL: usize = 32;
const TRIALS: usize = 12;
/// Two-sample χ² threshold over ≤256 byte bins (df ≤ 255). Under the null
/// the statistic concentrates around df (σ ≈ √(2·df) ≈ 22.6); 400 is more
/// than six standard deviations out.
const CHI2_THRESHOLD: f64 = 400.0;

/// One party's outbound transcript for a trial: the raw bytes of every
/// message, in send order.
type Transcript = Vec<Vec<u8>>;

/// Runs one MaskedMux secure-sign execution on `vals` and returns both
/// parties' captured outbound transcripts.
fn captured_sign_run(vals: &[i64], trial: u64) -> (Transcript, Transcript) {
    captured_sign_run_obs(vals, trial, false)
}

/// [`captured_sign_run`] with optional tracing/metrics attached — the
/// observability layer must be wire-invisible, so transcripts captured
/// with and without it are compared byte for byte.
fn captured_sign_run_obs(vals: &[i64], trial: u64, traced: bool) -> (Transcript, Transcript) {
    let mut cfg = ProtocolConfig::paper(Q1_BITS);
    cfg.relu_mode = ReluMode::MaskedMux;
    // Fresh offline material per trial — the masks, not a fixed setup,
    // must be what hides the plaintext.
    cfg.setup_seed ^= 0x7261_1a00 + trial;
    let ring = cfg.q1();
    let t = RingTensor::from_signed(ring, vec![vals.len()], vals).expect("valid tensor");
    let mut share_rng = StdRng::seed_from_u64(0x5eed_0000 + trial);
    let (s0, s1) = AShare::share(&t, &mut share_rng);
    run_pair(&cfg, move |ctx| {
        if traced {
            ctx.set_obs(Tracer::new(), MetricsRegistry::new());
        }
        let mine = match ctx.id {
            PartyId::User => s0.clone(),
            PartyId::ModelProvider => s1.clone(),
        };
        ctx.ep.start_capture();
        secure_sign(ctx, &mine, ReluMode::MaskedMux).expect("secure_sign");
        ctx.ep.take_capture()
    })
}

/// Attaching the tracer/metrics layer must not change a single wire byte:
/// spans observe the channel, they never touch it. Byte-identical
/// transcripts (not just shapes) with observability on vs. off.
#[test]
fn tracing_does_not_change_the_wire_transcript() {
    let half = 1i64 << (Q1_BITS - 1);
    let vals: Vec<i64> = (0..VALUES_PER_TRIAL).map(|i| (i as i64 * 53 % half) - half / 2).collect();
    for trial in 0..3u64 {
        let plain = captured_sign_run_obs(&vals, 0x0b5_000 + trial, false);
        let traced = captured_sign_run_obs(&vals, 0x0b5_000 + trial, true);
        assert_eq!(plain, traced, "trial {trial}: tracing altered the wire transcript");
    }
}

/// Message-size sequence of a two-party transcript pair — the shape an
/// eavesdropper sees without reading any payload bit.
fn shape(t: &(Transcript, Transcript)) -> (Vec<usize>, Vec<usize>) {
    (t.0.iter().map(Vec::len).collect(), t.1.iter().map(Vec::len).collect())
}

fn byte_histogram(transcripts: &[(Transcript, Transcript)]) -> [u64; 256] {
    let mut h = [0u64; 256];
    for (a, b) in transcripts {
        for msg in a.iter().chain(b.iter()) {
            for &byte in msg {
                h[usize::from(byte)] += 1;
            }
        }
    }
    h
}

/// Pearson two-sample χ² homogeneity statistic over the byte histograms.
/// Bins empty in both samples contribute no term (and no degree of
/// freedom), so the statistic is conservative for narrow wire alphabets.
fn chi2_two_sample(a: &[u64; 256], b: &[u64; 256]) -> (f64, usize) {
    let ta: u64 = a.iter().sum();
    let tb: u64 = b.iter().sum();
    assert!(ta > 0 && tb > 0, "empty transcript");
    let (ka, kb) = ((tb as f64 / ta as f64).sqrt(), (ta as f64 / tb as f64).sqrt());
    let mut chi2 = 0.0;
    let mut df = 0usize;
    for i in 0..256 {
        let (ai, bi) = (a[i] as f64, b[i] as f64);
        if a[i] + b[i] == 0 {
            continue;
        }
        let d = ka * ai - kb * bi;
        chi2 += d * d / (ai + bi);
        df += 1;
    }
    (chi2, df.saturating_sub(1))
}

/// The same plaintext (class A) vs. a fresh random plaintext per trial
/// (class B): with fresh sharing/offline randomness each trial, the wire
/// bytes of the two classes must be statistically indistinguishable, and
/// the message shapes must be *exactly* equal.
#[test]
fn masked_mux_transcript_is_plaintext_independent() {
    let half = 1i64 << (Q1_BITS - 1);
    let fixed: Vec<i64> =
        (0..VALUES_PER_TRIAL).map(|i| (i as i64 * 37 % half) - half / 2).collect();

    let mut class_a = Vec::with_capacity(TRIALS);
    let mut class_b = Vec::with_capacity(TRIALS);
    for trial in 0..TRIALS as u64 {
        let mut rng = StdRng::seed_from_u64(0xb0b0 + trial);
        let random: Vec<i64> =
            (0..VALUES_PER_TRIAL).map(|_| rng.gen_range(-half / 2..half / 2)).collect();
        class_a.push(captured_sign_run(&fixed, trial));
        class_b.push(captured_sign_run(&random, trial));
    }

    // (b) shape equality: same message count and sizes for every trial of
    // both classes — the metadata channel carries zero plaintext signal.
    let reference = shape(&class_a[0]);
    for t in class_a.iter().chain(class_b.iter()) {
        assert_eq!(shape(t), reference, "transcript shape depends on the secret input");
    }

    // (a) byte-distribution homogeneity between the classes.
    let ha = byte_histogram(&class_a);
    let hb = byte_histogram(&class_b);
    let (chi2, df) = chi2_two_sample(&ha, &hb);
    eprintln!("fixed-vs-random transcript: chi2 = {chi2:.1}, df = {df}");
    assert!(df >= 64, "wire alphabet unexpectedly narrow: df = {df}");
    assert!(
        chi2 < CHI2_THRESHOLD,
        "transcript byte distributions differ between secret classes: \
         chi2 = {chi2:.1} over {df} df (threshold {CHI2_THRESHOLD})"
    );
}

/// The transcript must also be indistinguishable across *extreme* secret
/// classes: all-maximally-negative vs. all-maximally-positive inputs.
#[test]
fn masked_mux_transcript_hides_the_sign() {
    let half = 1i64 << (Q1_BITS - 1);
    let neg: Vec<i64> = vec![-half + 1; VALUES_PER_TRIAL];
    let pos: Vec<i64> = vec![half - 1; VALUES_PER_TRIAL];

    let mut class_a = Vec::with_capacity(TRIALS);
    let mut class_b = Vec::with_capacity(TRIALS);
    for trial in 0..TRIALS as u64 {
        class_a.push(captured_sign_run(&neg, 0x100 + trial));
        class_b.push(captured_sign_run(&pos, 0x100 + trial));
    }

    let reference = shape(&class_a[0]);
    for t in class_a.iter().chain(class_b.iter()) {
        assert_eq!(shape(t), reference, "transcript shape depends on the sign");
    }
    let (chi2, df) = chi2_two_sample(&byte_histogram(&class_a), &byte_histogram(&class_b));
    eprintln!("neg-vs-pos transcript: chi2 = {chi2:.1}, df = {df}");
    assert!(
        chi2 < CHI2_THRESHOLD,
        "sign classes distinguishable on the wire: chi2 = {chi2:.1} over {df} df"
    );
}

/// Like [`captured_sign_run`], but over a fault-injected session link:
/// the capture is the **true wire view** (session frames with their
/// headers), taken below the session layer.
///
/// The fault plan delays frames, the one in-order fault a TCP link shows
/// besides a disconnect. Delays move timing only, so the frame schedule
/// stays a deterministic function of the protocol.
fn captured_faulty_sign_run(vals: &[i64], trial: u64) -> (Transcript, Transcript) {
    let mut cfg = ProtocolConfig::paper(Q1_BITS);
    cfg.relu_mode = ReluMode::MaskedMux;
    cfg.setup_seed ^= 0x7261_1a00 + trial;
    let ring = cfg.q1();
    let t = RingTensor::from_signed(ring, vec![vals.len()], vals).expect("valid tensor");
    let mut share_rng = StdRng::seed_from_u64(0x5eed_0000 + trial);
    let (s0, s1) = AShare::share(&t, &mut share_rng);

    // Fault schedule depends only on the trial, never on the secret class,
    // so both classes see identical faults at identical frame indices.
    let plan = |side: u64| FaultPlan {
        seed: 0xfa11_7000 ^ (trial * 2 + side),
        delay_per_mille: 30,
        delay: Duration::from_micros(200),
        ..FaultPlan::default()
    };
    let scfg = SessionConfig;
    let (r0, r1) = mem_pair();
    let sess0 = Arc::new(Session::new(
        Arc::new(FaultyTransport::new(Arc::new(r0), plan(0))) as Arc<dyn Transport>,
        scfg,
    ));
    let sess1 = Arc::new(Session::new(
        Arc::new(FaultyTransport::new(Arc::new(r1), plan(1))) as Arc<dyn Transport>,
        scfg,
    ));
    sess0.start_wire_capture();
    sess1.start_wire_capture();
    let e0 = Endpoint::over_transport(Arc::clone(&sess0) as Arc<dyn Transport>, None);
    let e1 = Endpoint::over_transport(Arc::clone(&sess1) as Arc<dyn Transport>, None);
    run_pair_over(e0, e1, &cfg, move |ctx| {
        let mine = match ctx.id {
            PartyId::User => s0.clone(),
            PartyId::ModelProvider => s1.clone(),
        };
        secure_sign(ctx, &mine, ReluMode::MaskedMux).expect("secure_sign");
    });
    (sess0.take_wire_capture(), sess1.take_wire_capture())
}

/// Fixed vs. random secrets over a delaying link: the raw wire frames
/// (headers and all) must have identical shape across classes and
/// indistinguishable byte distributions — i.e. the session header fields
/// are a function of the message schedule, never of the secrets carried.
#[test]
fn session_fault_wire_transcript_is_plaintext_independent() {
    let half = 1i64 << (Q1_BITS - 1);
    let fixed: Vec<i64> =
        (0..VALUES_PER_TRIAL).map(|i| (i as i64 * 37 % half) - half / 2).collect();

    let mut class_a = Vec::with_capacity(TRIALS);
    let mut class_b = Vec::with_capacity(TRIALS);
    for trial in 0..TRIALS as u64 {
        let mut rng = StdRng::seed_from_u64(0xfa11_b0b0 + trial);
        let random: Vec<i64> =
            (0..VALUES_PER_TRIAL).map(|_| rng.gen_range(-half / 2..half / 2)).collect();
        class_a.push(captured_faulty_sign_run(&fixed, trial));
        class_b.push(captured_faulty_sign_run(&random, trial));
    }

    // Shape equality per trial: the same fault schedule produces the same
    // frame-size sequence whatever the plaintext. (Across trials the
    // schedules differ, so shapes are compared A-vs-B within each trial.)
    for (trial, (a, b)) in class_a.iter().zip(&class_b).enumerate() {
        assert_eq!(
            shape(a),
            shape(b),
            "trial {trial}: wire frame shape depends on the secret input"
        );
    }

    let (chi2, df) = chi2_two_sample(&byte_histogram(&class_a), &byte_histogram(&class_b));
    eprintln!("faulty-link fixed-vs-random wire transcript: chi2 = {chi2:.1}, df = {df}");
    assert!(df >= 64, "wire alphabet unexpectedly narrow: df = {df}");
    assert!(
        chi2 < CHI2_THRESHOLD,
        "wire transcripts differ between secret classes under faults: \
         chi2 = {chi2:.1} over {df} df (threshold {CHI2_THRESHOLD})"
    );
}

// ---------------------------------------------------------------------------
// Batched online-pass transcripts
// ---------------------------------------------------------------------------

/// Batched trials (each is two full prepared inferences, one per class).
const BATCH_TRIALS: usize = 8;
/// Images per batched pass.
const BATCH_B: usize = 2;

/// The trained model the batched-transcript checks run, built once.
fn batched_leakage_model() -> &'static QuantModel {
    static CELL: std::sync::OnceLock<QuantModel> = std::sync::OnceLock::new();
    CELL.get_or_init(|| {
        let data = SyntheticVision::tiny(4, 4021);
        let mut net = FloatNet::init(&zoo::tiny_cnn(4), 4022).expect("valid spec");
        net.train_epochs(&data, 2, 8, 0.05);
        QuantModel::quantize(&net, &data.calibration(16), &QuantConfig::int8())
            .expect("quantization succeeds")
    })
}

/// Captures both parties' outbound transcripts of one **batched** online
/// pass (`PreparedModel::run_batch` over `images`) under MaskedMux, with
/// fresh offline material per trial. The capture starts *after*
/// preparation: preparation is image-independent by construction, the
/// online pass is what must not leak the batch contents.
fn captured_batched_run(images: &[Vec<f32>], trial: u64) -> (Transcript, Transcript) {
    let mut cfg = ProtocolConfig::paper(16);
    cfg.relu_mode = ReluMode::MaskedMux;
    cfg.setup_seed ^= 0x6a7c_b100 + trial;
    let model = batched_leakage_model().clone();
    let images: Arc<Vec<Vec<f32>>> = Arc::new(images.to_vec());
    let b = images.len();
    run_pair(&cfg, move |ctx| {
        let mut prepared = PreparedModel::prepare(ctx, &model).expect("prepare");
        let refs: Vec<&[f32]> = images.iter().map(Vec::as_slice).collect();
        let input = match ctx.id {
            PartyId::User => BatchInput::User(&refs),
            PartyId::ModelProvider => BatchInput::Provider { batch: b },
        };
        ctx.ep.start_capture();
        prepared.run_batch(ctx, input).expect("batched inference");
        ctx.ep.take_capture()
    })
}

/// A fixed image batch vs. a fresh random batch per trial: the batched
/// online pass stacks all `B` images into shared GEMMs, and its wire
/// transcript must carry no signal about the batch contents — identical
/// message shapes and χ²-indistinguishable byte distributions, exactly
/// the guarantee the per-image transcript tests establish for `B = 1`.
#[test]
fn batched_online_transcript_is_image_independent() {
    let n_in = {
        let data = SyntheticVision::tiny(4, 4021);
        data.test()[0].image.len()
    };
    let fixed: Vec<Vec<f32>> = (0..BATCH_B)
        .map(|i| (0..n_in).map(|p| ((p + 7 * i) % 13) as f32 / 13.0).collect())
        .collect();

    let mut class_a = Vec::with_capacity(BATCH_TRIALS);
    let mut class_b = Vec::with_capacity(BATCH_TRIALS);
    for trial in 0..BATCH_TRIALS as u64 {
        let mut rng = StdRng::seed_from_u64(0xba7c_4000 + trial);
        let random: Vec<Vec<f32>> =
            (0..BATCH_B).map(|_| (0..n_in).map(|_| rng.gen_range(0.0f32..1.0)).collect()).collect();
        class_a.push(captured_batched_run(&fixed, trial));
        class_b.push(captured_batched_run(&random, trial));
    }

    // Shape equality: the batched message schedule (one exchange per
    // layer, sizes scaled by B) is public protocol structure, identical
    // for every trial of both classes.
    let reference = shape(&class_a[0]);
    for t in class_a.iter().chain(class_b.iter()) {
        assert_eq!(shape(t), reference, "batched transcript shape depends on the images");
    }

    let (chi2, df) = chi2_two_sample(&byte_histogram(&class_a), &byte_histogram(&class_b));
    eprintln!("batched fixed-vs-random transcript: chi2 = {chi2:.1}, df = {df}");
    assert!(df >= 64, "wire alphabet unexpectedly narrow: df = {df}");
    assert!(
        chi2 < CHI2_THRESHOLD,
        "batched transcript byte distributions differ between image classes: \
         chi2 = {chi2:.1} over {df} df (threshold {CHI2_THRESHOLD})"
    );
}

// ---------------------------------------------------------------------------
// Telemetry hygiene
// ---------------------------------------------------------------------------

/// Every event name the server's flight recorder may emit (plus the
/// Chrome metadata record). A dump containing any other name is treated
/// as a leak until it is reviewed and added here.
const FLIGHTREC_NAMES: &[&str] = &[
    "process_name",
    "admitted",
    "hello",
    "request",
    "queue_wait",
    "online_pass",
    "reaping",
    "reaped",
    "rejected",
    "faulted",
];
/// Allowed event categories ("" is the Chrome metadata record).
const FLIGHTREC_CATS: &[&str] = &["", "lifecycle", "slo"];
/// Allowed argument keys across all flight-recorder events.
const FLIGHTREC_ARG_KEYS: &[&str] =
    &["name", "stream", "reason", "model", "count", "batch", "q1_bits", "why"];

/// A telemetry string is *structural*: short, printable ASCII, no binary
/// or encoded payload can hide in it.
fn assert_structural_string(context: &str, s: &str) {
    assert!(s.len() <= 256, "{context}: suspiciously long string ({} bytes): {s:?}", s.len());
    assert!(
        s.chars().all(|c| (' '..='~').contains(&c)),
        "{context}: non-printable or non-ASCII bytes: {s:?}"
    );
}

/// Metric names are dotted identifiers; anything else in the exposition
/// name position means arbitrary data is flowing into the admin surface.
fn assert_metric_name(name: &str) {
    // A histogram bucket sample carries one `le` label with a numeric bound.
    let bare = name.split_once('{').map_or(name, |(n, rest)| {
        let label = rest.strip_suffix('}').unwrap_or_else(|| panic!("unterminated label: {name}"));
        let bound = label
            .strip_prefix("le=\"")
            .and_then(|b| b.strip_suffix('"'))
            .unwrap_or_else(|| panic!("unexpected label on {name}"));
        assert!(
            bound == "+Inf" || bound.parse::<f64>().is_ok(),
            "non-numeric bucket bound on {name}"
        );
        n
    });
    assert!(
        !bare.is_empty() && bare.chars().all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '_'),
        "metric name with unexpected characters: {name:?}"
    );
}

/// The `/metrics` body must be *only* names and numbers: a schema line,
/// `# TYPE` comments, and `name value` samples.
fn assert_metrics_body_hygienic(body: &str) {
    for line in body.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# SCHEMA ") {
            assert!(rest.parse::<u64>().is_ok(), "bad schema line: {line:?}");
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (name, kind) = (it.next().unwrap_or(""), it.next().unwrap_or(""));
            assert_metric_name(name);
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram") && it.next().is_none(),
                "bad TYPE line: {line:?}"
            );
        } else {
            let mut it = line.split_whitespace();
            let (name, value) = (it.next().unwrap_or(""), it.next().unwrap_or(""));
            assert_metric_name(name);
            assert!(value.parse::<f64>().is_ok(), "non-numeric sample value: {line:?}");
            assert!(it.next().is_none(), "trailing tokens on sample line: {line:?}");
        }
    }
}

/// The `/sessions` table: a fixed header, then numbers and a closed
/// state vocabulary — never request contents.
fn assert_sessions_body_hygienic(body: &str) {
    let mut lines = body.lines();
    assert_eq!(lines.next(), Some("stream age_ms idle_ms state"), "unexpected /sessions header");
    for row in lines.filter(|l| !l.is_empty()) {
        for (i, tok) in row.split_whitespace().enumerate() {
            if i == 3 {
                assert!(matches!(tok, "open" | "closing"), "unexpected state {tok:?} in {row:?}");
            } else {
                assert!(
                    tok.parse::<u64>().is_ok(),
                    "non-numeric /sessions field {tok:?} in {row:?}"
                );
            }
        }
    }
}

/// Walks a flight-recorder dump and asserts every event name, category,
/// argument key and argument value is structural (shapes, counts,
/// timings, short reason strings) — no share values, no wire payloads.
fn assert_flightrec_hygienic(doc: &aq2pnn_obs::json::Json) {
    use aq2pnn_obs::json::Json;
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("flightrec dump without traceEvents");
    };
    for ev in events {
        let name = ev.get("name").and_then(Json::as_str).expect("event name");
        assert!(FLIGHTREC_NAMES.contains(&name), "unreviewed flightrec event name {name:?}");
        let cat = ev.get("cat").and_then(Json::as_str).unwrap_or("");
        assert!(FLIGHTREC_CATS.contains(&cat), "unreviewed flightrec category {cat:?}");
        let Some(Json::Obj(args)) = ev.get("args") else { continue };
        for (key, value) in args {
            assert!(
                FLIGHTREC_ARG_KEYS.contains(&key.as_str()),
                "unreviewed flightrec arg key {key:?} on {name}"
            );
            match value {
                Json::Num(_) => {}
                Json::Str(s) => assert_structural_string(&format!("{name}.{key}"), s),
                other => panic!("non-scalar flightrec arg {key:?} on {name}: {other:?}"),
            }
        }
    }
}

/// End to end: a real server with the admin endpoint, SLO tracking and
/// flight recorder enabled serves one clean client and reaps one idle
/// loris; every admin response body and the resulting flightrec dump
/// must contain only public structure (names, numbers, shapes, counts,
/// timings) under the allowlists above.
#[test]
fn admin_surface_and_flightrec_dumps_carry_public_structure_only() {
    use aq2pnn_server::{
        demo_model, mem_acceptor, run_client, ClientConfig, InferenceServer, ModelRegistry,
        ServerConfig, ServerObs,
    };
    use aq2pnn_transport::{http_get, Frame, FrameKind};

    let dir = std::env::temp_dir().join(format!("aq2pnn-leak-flightrec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (data, model) = demo_model("tiny").expect("demo model");
    let mut registry = ModelRegistry::new();
    registry.insert("tiny", model.clone());
    let cfg = ServerConfig {
        max_sessions: 4,
        queue_depth: 4,
        admission_timeout: Duration::from_secs(30),
        idle_timeout: Duration::from_millis(300),
        reap_interval: Duration::from_millis(10),
        slo_ms: Some(60_000),
        flightrec_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let (acceptor, dial) = mem_acceptor();
    let obs = ServerObs { metrics: MetricsRegistry::new(), ..ServerObs::default() };
    let mut server = InferenceServer::start(Box::new(acceptor), cfg, registry, obs);
    let admin = server.start_admin("127.0.0.1:0").expect("admin endpoint");

    // One clean client (populates SLO histograms and session counters)…
    let images = data.test_images();
    let refs: Vec<&[f32]> = images.iter().take(1).map(Vec::as_slice).collect();
    let ccfg = ClientConfig {
        model: "tiny".into(),
        q1_bits: 16,
        batch: 1,
        admission_timeout: Duration::from_secs(30),
        io_deadline: Duration::from_secs(30),
    };
    run_client(dial.connect().expect("connect"), &ccfg, &model, &refs).expect("clean run");

    // …and one admitted-then-silent loris, reaped on the idle timeout.
    let loris = dial.connect().expect("connect");
    loris.send(Frame::control(FrameKind::Hello, 0, 0).encode().into()).expect("hello");
    let verdict = loris.recv(Some(Duration::from_secs(2))).expect("admission verdict");
    let loris_stream = Frame::decode(&verdict).expect("frame").seq;
    let dump_path = dir.join(format!("flightrec-{loris_stream}.json"));
    let deadline = Instant::now() + Duration::from_secs(20);
    while !dump_path.exists() {
        assert!(Instant::now() < deadline, "timed out waiting for the loris flightrec dump");
        std::thread::sleep(Duration::from_millis(10));
    }

    let deadline = Duration::from_secs(2);
    let metrics = http_get(admin, "/metrics", deadline).expect("/metrics");
    assert_metrics_body_hygienic(&metrics);
    let sessions = http_get(admin, "/sessions", deadline).expect("/sessions");
    assert_sessions_body_hygienic(&sessions);
    let health = http_get(admin, "/healthz", deadline).expect("/healthz");
    assert!(
        matches!(health.trim(), "ok" | "overloaded" | "draining"),
        "unexpected /healthz body: {health:?}"
    );

    let dump = std::fs::read_to_string(&dump_path).expect("read dump");
    let doc = aq2pnn_obs::json::Json::parse(&dump).expect("dump parses");
    assert_flightrec_hygienic(&doc);

    let _ = server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// dudect-lite timing
// ---------------------------------------------------------------------------

/// Samples per class per attempt.
const TIMING_SAMPLES: usize = 400;
/// Inner iterations batched into one sample (amortizes timer granularity).
const TIMING_BATCH: usize = 64;
/// Fraction of the slowest samples cropped per class before the t-test
/// (dudect's percentile pre-processing; strips scheduler/interrupt tails).
const CROP_FRACTION: f64 = 0.10;
/// |t| acceptance threshold. dudect flags a leak at |t| > 4.5 with millions
/// of samples; at our sample counts, honest constant-time code on a noisy
/// shared CI host still shows |t| of a few units, so the gate is
/// deliberately loose — it catches input-dependent *branches* (orders of
/// magnitude in t), not picosecond microarchitectural residue.
const T_THRESHOLD: f64 = 15.0;
/// Measurement attempts before declaring failure (fresh samples each time;
/// a single noisy attempt must not fail CI).
const TIMING_RETRIES: usize = 5;

/// Welch's t statistic between two sample sets.
fn welch_t(a: &[f64], b: &[f64]) -> f64 {
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let var =
        |s: &[f64], m: f64| s.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (s.len() - 1) as f64;
    let (ma, mb) = (mean(a), mean(b));
    let (va, vb) = (var(a, ma), var(b, mb));
    let denom = (va / a.len() as f64 + vb / b.len() as f64).sqrt();
    if denom == 0.0 {
        0.0
    } else {
        (ma - mb) / denom
    }
}

/// Drops the slowest `CROP_FRACTION` of samples.
fn crop(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|x, y| x.partial_cmp(y).expect("finite timings"));
    let keep = ((samples.len() as f64) * (1.0 - CROP_FRACTION)).ceil() as usize;
    samples.truncate(keep.max(2));
    samples
}

/// Interleaved fixed-vs-variable measurement of `f` over per-class input
/// pools; returns the cropped Welch t statistic. `inputs[class]` holds
/// `TIMING_SAMPLES` pre-generated input vectors; each sample times
/// `TIMING_BATCH` consecutive calls.
fn measure_classes<T, F: Fn(&T) -> u64>(inputs: &[Vec<T>; 2], f: F) -> f64 {
    let mut times: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    // Interleave A/B samples so slow drifts (thermal, frequency scaling)
    // hit both classes equally.
    for (ia, ib) in inputs[0].iter().zip(&inputs[1]) {
        for (class, input) in [(0, ia), (1, ib)] {
            let start = Instant::now();
            let mut acc = 0u64;
            for _ in 0..TIMING_BATCH {
                acc = acc.wrapping_add(f(black_box(input)));
            }
            let dt = start.elapsed().as_nanos() as f64;
            black_box(acc);
            times[class].push(dt);
        }
    }
    let [a, b] = times;
    welch_t(&crop(a), &crop(b))
}

/// Runs `attempt` up to [`TIMING_RETRIES`] times, passing if any attempt's
/// |t| clears the threshold; reports the best statistic on failure.
fn assert_constant_time(name: &str, mut attempt: impl FnMut() -> f64) {
    let mut best = f64::INFINITY;
    for _ in 0..TIMING_RETRIES {
        let t = attempt().abs();
        best = best.min(t);
        if t < T_THRESHOLD {
            eprintln!("{name}: |t| = {t:.2} (threshold {T_THRESHOLD})");
            return;
        }
    }
    panic!("{name}: timing distinguishes input classes, best |t| = {best:.1} over {TIMING_RETRIES} attempts (threshold {T_THRESHOLD})");
}

/// `sign_from_codes` must take the same time whether the comparison is
/// decided at the first group (random codes) or ties all the way down
/// (all-equal codes) — the classic first-difference `memcmp` leak.
#[test]
fn sign_from_codes_timing_is_input_independent() {
    const GROUPS: usize = 8;
    let mut rng = StdRng::seed_from_u64(0x00d0_dec7);
    let all_eq: Vec<Vec<u64>> =
        (0..TIMING_SAMPLES).map(|_| (0..GROUPS).map(|_| ct::cmp_code(3, 3)).collect()).collect();
    let random: Vec<Vec<u64>> = (0..TIMING_SAMPLES)
        .map(|_| {
            (0..GROUPS)
                .map(|_| ct::cmp_code(rng.gen_range(0u64..4), rng.gen_range(0u64..4)))
                .collect()
        })
        .collect();
    let inputs = [all_eq, random];
    assert_constant_time("sign_from_codes", || {
        measure_classes(&inputs, |codes: &Vec<u64>| u64::from(sign_from_codes(codes)))
    });
}

/// The `Ring::pow` square-and-multiply ladder must not leak the exponent's
/// Hamming weight or bit pattern: all-zero exponents vs. random exponents.
/// ℓ = 31 exercises the dynamic-width ladder.
#[test]
fn ring_pow_timing_is_exponent_independent() {
    ring_pow_timing_check(31, "Ring::pow (dyn ladder)", 0x90f1);
}

/// Same check on the ℓ = 24 monomorphized ladder — the width-specialized
/// path that serves the OT-flow exactly where the group LUT no longer
/// applies (ℓ > 20). The truncated trip count and the branch-free
/// high-exponent fold must stay exponent-independent.
#[test]
fn ring_pow_specialized_ladder_timing_is_exponent_independent() {
    ring_pow_timing_check(24, "Ring::pow (specialized ladder)", 0x90f2);
}

fn ring_pow_timing_check(bits: u32, name: &str, seed: u64) {
    let ring = Ring::new(bits);
    let mut rng = StdRng::seed_from_u64(seed);
    let zero_exp: Vec<(u64, u64)> =
        (0..TIMING_SAMPLES).map(|_| (ring.reduce(rng.gen()), 0u64)).collect();
    let rand_exp: Vec<(u64, u64)> =
        (0..TIMING_SAMPLES).map(|_| (ring.reduce(rng.gen()), rng.gen())).collect();
    let inputs = [zero_exp, rand_exp];
    assert_constant_time(name, || {
        measure_classes(&inputs, |&(base, exp): &(u64, u64)| ring.pow(base, exp))
    });
}
