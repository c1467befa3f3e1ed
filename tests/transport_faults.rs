//! Fault soak: full two-party inference over fault-injected links. A
//! link that is merely slow must complete with logits **bit-identical** to
//! the in-memory run; a link that fails must surface a typed error on both
//! parties, never a panic or a hang.
//!
//! The faults are the ones a TCP link can show userspace: delays, a torn
//! connection, and a peer that falls silent. (TCP never delivers a
//! dropped, duplicated or corrupted frame; the session layer's handling of
//! such frames from a wrong peer is tested in `session.rs` and
//! `server_chaos.rs`.) The always-on tests run `tiny_cnn` (fast in debug
//! builds); the LeNet5 soak is `#[ignore]`d and executed by the
//! release-mode CI fault-matrix job.

use aq2pnn::dealer::{DealerConfig, ExhaustionPolicy};
use aq2pnn::engine::{run_party, PartyInput};
use aq2pnn::sim::{
    run_pair_over, run_two_party, run_two_party_over, run_two_party_service, PartyObs,
};
use aq2pnn::substrate::ot::OtError;
use aq2pnn::{ProtocolConfig, ProtocolError};
use aq2pnn_nn::data::SyntheticVision;
use aq2pnn_nn::float::FloatNet;
use aq2pnn_nn::quant::{QuantConfig, QuantModel};
use aq2pnn_nn::zoo;
use aq2pnn_sharing::PartyId;
use aq2pnn_transport::{
    duplex, mem_pair, Bytes, Endpoint, FaultPlan, FaultyTransport, Session, SessionConfig,
    TcpConfig, TcpTransport, Transport, TransportError,
};
use std::sync::Arc;
use std::time::Duration;

fn trained_model(spec: &aq2pnn_nn::spec::ModelSpec, seed: u64) -> (QuantModel, SyntheticVision) {
    let data = SyntheticVision::tiny(4, seed);
    let mut net = FloatNet::init(spec, seed + 1).expect("valid spec");
    net.train_epochs(&data, 2, 8, 0.05);
    let q = QuantModel::quantize(&net, &data.calibration(16), &QuantConfig::int8())
        .expect("quantization succeeds");
    (q, data)
}

/// A seeded schedule that delays about one frame in twenty.
fn delay_plan(seed: u64) -> FaultPlan {
    FaultPlan { seed, delay_per_mille: 50, delay: Duration::from_millis(2), ..FaultPlan::clean() }
}

/// The transport error at the root of a protocol failure, wherever it
/// surfaced.
fn transport_root(err: &ProtocolError) -> Option<&TransportError> {
    match err {
        ProtocolError::Transport(t) | ProtocolError::Ot(OtError::Transport(t)) => Some(t),
        _ => None,
    }
}

/// Runs one inference as both parties and returns each party's own
/// outcome (the runners above return only the first error).
fn both_parties(
    e0: Endpoint,
    e1: Endpoint,
    model: &QuantModel,
    cfg: &ProtocolConfig,
    image: &[f32],
) -> [Result<Vec<i64>, ProtocolError>; 2] {
    let (model, image) = (model.clone(), image.to_vec());
    let (r0, r1) = run_pair_over(e0, e1, cfg, move |ctx| {
        let input = match ctx.id {
            PartyId::User => PartyInput::User(&image),
            PartyId::ModelProvider => PartyInput::Provider,
        };
        run_party(ctx, &model, input).map(|out| out.logits)
    });
    [r0, r1]
}

/// Endpoint pair with each side's raw link behind a fault proxy and a
/// session, and `deadline` on every receive. Returns the fault proxies too
/// so tests can assert the schedule fired.
fn faulty_endpoints(
    links: [Arc<dyn Transport>; 2],
    plans: [FaultPlan; 2],
    deadline: Option<Duration>,
) -> (Endpoint, Endpoint, [Arc<FaultyTransport>; 2]) {
    let [l0, l1] = links;
    let [p0, p1] = plans;
    let f0 = Arc::new(FaultyTransport::new(l0, p0));
    let f1 = Arc::new(FaultyTransport::new(l1, p1));
    let end = |f: &Arc<FaultyTransport>| {
        let session = Session::new(Arc::clone(f) as Arc<dyn Transport>, SessionConfig);
        Endpoint::over_transport(Arc::new(session), deadline)
    };
    (end(&f0), end(&f1), [f0, f1])
}

fn mem_links() -> [Arc<dyn Transport>; 2] {
    let (r0, r1) = mem_pair();
    [Arc::new(r0), Arc::new(r1)]
}

/// Both ends of a real TCP loopback connection.
fn tcp_links() -> [Arc<dyn Transport>; 2] {
    let listener = TcpTransport::listen("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound addr");
    let connector = TcpTransport::connect(addr, TcpConfig::default()).expect("dial loopback");
    [Arc::new(connector), Arc::new(listener)]
}

/// Delayed in-memory schedules: five seeds of delayed frames on both
/// sides. A slow link must not change the logits by a single bit.
#[test]
fn tiny_cnn_bit_identical_under_delay_schedules() {
    let (model, data) = trained_model(&zoo::tiny_cnn(4), 77);
    let cfg = ProtocolConfig::paper(16);
    let image = &data.test()[0].image;
    let baseline = run_two_party(&model, &cfg, image, 0).expect("clean run").logits;

    let mut total_delayed = 0u64;
    for seed in [1u64, 2, 3, 4, 5] {
        let plans = [delay_plan(seed), delay_plan(seed ^ 0xFFFF)];
        let (e0, e1, faults) = faulty_endpoints(mem_links(), plans, None);
        let run = run_two_party_over(e0, e1, &model, &cfg, image)
            .unwrap_or_else(|e| panic!("seed {seed}: inference failed under delays: {e}"));
        assert_eq!(run.logits, baseline, "seed {seed}: logits diverged under delays");
        total_delayed += faults.iter().map(|f| f.stats().delayed).sum::<u64>();
    }
    assert!(total_delayed > 0, "delay schedules never fired — soak is vacuous");
}

/// TCP loopback with a forced disconnect mid-inference: nothing
/// reconnects, and both parties end with a typed transport error.
#[test]
fn tiny_cnn_tcp_disconnect_is_a_typed_error_on_both_parties() {
    let (model, data) = trained_model(&zoo::tiny_cnn(4), 78);
    let cfg = ProtocolConfig::paper(16);
    let image = &data.test()[0].image;

    // A tiny_cnn inference sends ~23 session frames per party; cut the
    // user's link mid-run.
    let plans = [FaultPlan { disconnect_at: vec![8], ..FaultPlan::clean() }, FaultPlan::clean()];
    let (e0, e1, faults) = faulty_endpoints(tcp_links(), plans, Some(Duration::from_secs(20)));
    for (party, outcome) in both_parties(e0, e1, &model, &cfg, image).iter().enumerate() {
        let err = outcome.as_ref().expect_err("a cut link cannot complete an inference");
        assert_eq!(
            transport_root(err),
            Some(&TransportError::Disconnected),
            "party {party}: expected a typed disconnect, got: {err}"
        );
    }
    assert_eq!(faults[0].stats().disconnects, 1, "the planned disconnect must fire");
}

/// Clean TCP loopback run (no faults): sanity that the real socket path
/// alone is transparent to the protocol.
#[test]
fn tiny_cnn_tcp_loopback_clean_run_matches() {
    let (model, data) = trained_model(&zoo::tiny_cnn(4), 79);
    let cfg = ProtocolConfig::paper(16);
    let image = &data.test()[0].image;
    let baseline = run_two_party(&model, &cfg, image, 0).expect("clean run").logits;

    let plans = [FaultPlan::clean(), FaultPlan::clean()];
    let (e0, e1, _faults) = faulty_endpoints(tcp_links(), plans, None);
    let run = run_two_party_over(e0, e1, &model, &cfg, image).expect("tcp run");
    assert_eq!(run.logits, baseline);
}

/// A link that swallows every send: each party's peer falls silent.
struct BlackHole(Arc<dyn Transport>);

impl Transport for BlackHole {
    fn send(&self, _bytes: Bytes) -> Result<(), TransportError> {
        Ok(())
    }

    fn recv(&self, deadline: Option<Duration>) -> Result<Bytes, TransportError> {
        self.0.recv(deadline)
    }

    fn shutdown(&self) {
        self.0.shutdown();
    }

    fn descriptor(&self) -> String {
        format!("black-hole({})", self.0.descriptor())
    }
}

/// A silent peer must surface a typed `Timeout` through the whole engine
/// stack — not a panic, not a hang. The party that gives up first closes
/// its link, so the other party sees its own `Timeout` or, if the close
/// wins the race, `Disconnected`.
#[test]
fn dead_link_degrades_to_typed_error() {
    let (model, data) = trained_model(&zoo::tiny_cnn(4), 80);
    let cfg = ProtocolConfig::paper(16);
    let image = &data.test()[0].image;

    let [l0, l1] = mem_links();
    let links: [Arc<dyn Transport>; 2] = [Arc::new(BlackHole(l0)), Arc::new(BlackHole(l1))];
    let plans = [FaultPlan::clean(), FaultPlan::clean()];
    let (e0, e1, _faults) = faulty_endpoints(links, plans, Some(Duration::from_millis(200)));
    let outcomes = both_parties(e0, e1, &model, &cfg, image);
    let roots: Vec<Option<&TransportError>> = outcomes
        .iter()
        .map(|o| transport_root(o.as_ref().expect_err("a black-hole link cannot complete")))
        .collect();
    assert!(roots.contains(&Some(&TransportError::Timeout)), "no party timed out: {roots:?}");
    for root in &roots {
        assert!(
            matches!(root, Some(TransportError::Timeout | TransportError::Disconnected)),
            "expected a typed timeout or disconnect, got: {roots:?}"
        );
    }
}

/// Batched service pass with a **background dealer** over a delayed link:
/// the dealer is party-local offline machinery, so link timing must not
/// perturb the batched online pass — the chunked `run_batch` logits must
/// stay bit-identical to the clean in-memory service run. One seeded
/// schedule keeps the fault-matrix job's runtime in budget; the per-image
/// delay sweep above covers the seed space.
#[test]
#[ignore = "soak: release-mode CI fault-matrix job runs this"]
fn batched_dealer_service_bit_identical_under_delayed_link() {
    let (model, data) = trained_model(&zoo::tiny_cnn(4), 91);
    let cfg = ProtocolConfig::paper(16);
    let images: Vec<&[f32]> = data.test().iter().take(4).map(|s| s.image.as_slice()).collect();

    // Clean baseline with the *same* consumption pattern (batch 2, two
    // chunks): local truncation makes logits a function of the per-lane
    // triple stream position, so the baseline must batch identically.
    let (e0, e1) = duplex();
    let baseline = run_two_party_service(
        e0,
        e1,
        &model,
        &cfg,
        &images,
        2,
        None,
        PartyObs::default(),
        PartyObs::default(),
    )
    .expect("clean service run")
    .logits;

    let seed = 91u64;
    let plans = [delay_plan(seed), delay_plan(seed ^ 0xFFFF)];
    let (e0, e1, faults) = faulty_endpoints(mem_links(), plans, None);
    let dealer = DealerConfig { depth: 8, policy: ExhaustionPolicy::GenerateInline };
    let run = run_two_party_service(
        e0,
        e1,
        &model,
        &cfg,
        &images,
        2,
        Some(dealer),
        PartyObs::default(),
        PartyObs::default(),
    )
    .expect("dealer-backed service must survive the delayed link");
    assert_eq!(run.logits, baseline, "batched logits diverged under delays");
    let delayed: u64 = faults.iter().map(|f| f.stats().delayed).sum();
    assert!(delayed > 0, "delay schedule never fired — soak is vacuous");
}

/// Full LeNet5 soak over TCP loopback under five seeded delay schedules.
/// Heavy: run in release via `cargo test --release -- --include-ignored`
/// (the CI fault-matrix job).
#[test]
#[ignore = "heavy: release-mode CI fault-matrix job runs this"]
fn lenet5_tcp_soak_bit_identical_under_fault_matrix() {
    let data = SyntheticVision::mnist_like(2024);
    let mut net = FloatNet::init(&zoo::lenet5(), 9).expect("valid spec");
    net.train_epochs(&data, 1, 16, 0.05);
    let model = QuantModel::quantize(&net, &data.calibration(32), &QuantConfig::int8())
        .expect("quantization succeeds");
    let cfg = ProtocolConfig::paper(16);
    let image = &data.test()[0].image;
    let baseline = run_two_party(&model, &cfg, image, 0).expect("clean run").logits;

    for seed in [11u64, 22, 33, 44, 55] {
        let plans = [delay_plan(seed), delay_plan(seed ^ 0xABCD)];
        let (e0, e1, faults) = faulty_endpoints(tcp_links(), plans, None);
        let run = run_two_party_over(e0, e1, &model, &cfg, image)
            .unwrap_or_else(|e| panic!("seed {seed}: LeNet5 soak failed: {e}"));
        assert_eq!(run.logits, baseline, "seed {seed}: logits diverged under fault matrix");
        let delayed: u64 = faults.iter().map(|f| f.stats().delayed).sum();
        assert!(delayed > 0, "seed {seed}: schedule never fired");
    }
}
