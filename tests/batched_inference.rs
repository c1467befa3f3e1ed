//! Batched online pass: `PreparedModel::run_batch` over `B` images must
//! recover logits **bit-identical** to `B` sequential `run` calls on the
//! same prepared session — at every batch size, in both share-conversion
//! configs, and however many sessions run side by side — and the
//! background dealer must be a pure latency optimization: pooled triples produce the same logits as
//! inline generation, and a strict pool that runs dry surfaces the typed
//! [`ProtocolError::DealerExhausted`], never a panic or a desync.
//!
//! The bit-identity baseline is the *stream position* argument: a lane's
//! offline material is defined by its RNG stream, so triple `#k` serves
//! image `#k` whether the images arrive one per round-trip or stacked into
//! one batched GEMM. Both the sequential and the batched side therefore
//! prepare fresh (so both consume triples `0..B` of every lane) and the
//! logits must agree to the last bit.

use aq2pnn::dealer::{DealerConfig, DealerPool, ExhaustionPolicy, ExpandFn};
use aq2pnn::engine::{BatchInput, PartyInput};
use aq2pnn::prepared::PreparedModel;
use aq2pnn::sim::{run_pair, run_two_party_service, PartyObs};
use aq2pnn::{PartyContext, ProtocolConfig, ProtocolError};
use aq2pnn_nn::data::SyntheticVision;
use aq2pnn_nn::float::FloatNet;
use aq2pnn_nn::quant::{QuantConfig, QuantModel};
use aq2pnn_nn::zoo;
use aq2pnn_ring::{Ring, RingTensor};
use aq2pnn_sharing::dealer::TripleDealer;
use aq2pnn_sharing::PartyId;
use aq2pnn_transport::{duplex, ChannelStats};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One trained tiny CNN plus a pool of test images, built once for the
/// whole binary (training dominates these tests' cost).
fn model_and_images() -> &'static (QuantModel, Vec<Vec<f32>>) {
    static CELL: OnceLock<(QuantModel, Vec<Vec<f32>>)> = OnceLock::new();
    CELL.get_or_init(|| {
        let data = SyntheticVision::tiny(4, 41);
        let mut net = FloatNet::init(&zoo::tiny_cnn(4), 42).expect("valid spec");
        net.train_epochs(&data, 2, 8, 0.05);
        let model = QuantModel::quantize(&net, &data.calibration(16), &QuantConfig::int8())
            .expect("quantization succeeds");
        let images = data.test().iter().take(6).map(|s| s.image.clone()).collect();
        (model, images)
    })
}

/// `B` sequential `run` calls on one freshly prepared session: consumes
/// triples `0..B` of every lane, the same stream positions one batched
/// call uses.
fn sequential_logits(cfg: &ProtocolConfig, images: &[Vec<f32>]) -> Vec<Vec<i64>> {
    let model = model_and_images().0.clone();
    let images: Arc<Vec<Vec<f32>>> = Arc::new(images.to_vec());
    let (l0, l1) = run_pair(cfg, move |ctx| {
        let mut prepared = PreparedModel::prepare(ctx, &model).expect("prepare");
        images
            .iter()
            .map(|img| {
                let input = match ctx.id {
                    PartyId::User => PartyInput::User(img),
                    PartyId::ModelProvider => PartyInput::Provider,
                };
                prepared.run(ctx, input).expect("sequential run").logits
            })
            .collect::<Vec<_>>()
    });
    assert_eq!(l0, l1, "sequential parties desynced");
    l0
}

/// One `run_batch` over all of `images` on a freshly prepared session.
fn batched_logits(cfg: &ProtocolConfig, images: &[Vec<f32>]) -> Vec<Vec<i64>> {
    let model = model_and_images().0.clone();
    let images: Arc<Vec<Vec<f32>>> = Arc::new(images.to_vec());
    let b = images.len();
    let (l0, l1) = run_pair(cfg, move |ctx| {
        let mut prepared = PreparedModel::prepare(ctx, &model).expect("prepare");
        let refs: Vec<&[f32]> = images.iter().map(Vec::as_slice).collect();
        let input = match ctx.id {
            PartyId::User => BatchInput::User(&refs),
            PartyId::ModelProvider => BatchInput::Provider { batch: b },
        };
        prepared.run_batch(ctx, input).expect("batched run").logits
    });
    assert_eq!(l0, l1, "batched parties desynced");
    l0
}

/// The acceptance sweep: `run_batch(B)` logits equal `B` sequential runs
/// bit for bit, at several batch sizes and in both the paper config
/// (RevealedSign + local truncation) and the exact-conversion config.
#[test]
fn run_batch_matches_sequential_runs() {
    let images = &model_and_images().1;
    for (name, cfg) in [("paper", ProtocolConfig::paper(16)), ("exact", ProtocolConfig::exact(16))]
    {
        for b in [1usize, 2, 3, 5] {
            let seq = sequential_logits(&cfg, &images[..b]);
            let bat = batched_logits(&cfg, &images[..b]);
            assert_eq!(seq, bat, "cfg {name}, B = {b}: batched logits diverged from sequential");
        }
    }
}

/// Each party runs a session's online pass on one thread; concurrency
/// comes from serving sessions side by side. The number of threads busy
/// with other sessions changes *when* a session's rows are computed,
/// never *what* they hold: a B = 4 batched pass gives the same bits alone
/// and as one of four sessions running concurrently.
#[test]
fn run_batch_bit_identical_across_thread_counts() {
    let images = &model_and_images().1;
    let cfg = ProtocolConfig::paper(16);
    let baseline = sequential_logits(&cfg, &images[..4]);
    for sessions in [1usize, 4] {
        let results: Vec<Vec<Vec<i64>>> = std::thread::scope(|s| {
            let handles: Vec<_> =
                (0..sessions).map(|_| s.spawn(|| batched_logits(&cfg, &images[..4]))).collect();
            handles.into_iter().map(|h| h.join().expect("session thread")).collect()
        });
        for (k, got) in results.iter().enumerate() {
            assert_eq!(
                got, &baseline,
                "B = 4 batched logits changed in session {k} of {sessions} concurrent"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Chunked service runs agree with the per-image baseline for random
    /// chunk sizes: splitting 5 images into chunks of `b` consumes the
    /// same per-lane stream prefix, so the concatenated logits match.
    #[test]
    fn chunked_batches_match_sequential(b in 1usize..=5) {
        let images = &model_and_images().1;
        let cfg = ProtocolConfig::paper(16);
        let seq = sequential_logits(&cfg, &images[..5]);
        let model = model_and_images().0.clone();
        let refs: Vec<&[f32]> = images[..5].iter().map(Vec::as_slice).collect();
        let (e0, e1) = duplex();
        let run = run_two_party_service(
            e0, e1, &model, &cfg, &refs, b, None,
            PartyObs::default(), PartyObs::default(),
        ).expect("service run");
        prop_assert_eq!(&run.logits, &seq, "chunk size {} diverged", b);
    }
}

/// Bytes of every `offline`-prefixed phase, by phase label.
fn offline_phase_bytes(stats: &ChannelStats) -> Vec<(String, u64)> {
    stats
        .phases
        .iter()
        .filter(|(label, _)| label.starts_with("offline"))
        .map(|(label, phase)| (label.clone(), phase.total_bytes()))
        .collect()
}

/// A background dealer pool is transcript-invisible: pooled triples are
/// the same stream elements inline generation would draw, so a dealer-fed
/// service run recovers exactly the inline run's logits. Its batched
/// online passes also move no offline traffic: serving 4 images at
/// `batch = 2` leaves every `offline` phase exactly where serving 2 does.
#[test]
fn background_dealer_matches_inline_generation() {
    let (model, images) = model_and_images();
    let cfg = ProtocolConfig::paper(16);
    let dealer = DealerConfig { depth: 8, policy: ExhaustionPolicy::GenerateInline };
    let refs: Vec<&[f32]> = images[..4].iter().map(Vec::as_slice).collect();
    let service_run = |refs: &[&[f32]], dealer: Option<DealerConfig>| {
        let (e0, e1) = duplex();
        run_two_party_service(
            e0,
            e1,
            model,
            &cfg,
            refs,
            2,
            dealer,
            PartyObs::default(),
            PartyObs::default(),
        )
        .expect("service run")
    };

    let inline = service_run(&refs, None);
    let dealt = service_run(&refs, Some(dealer));
    assert_eq!(inline.logits, dealt.logits, "background dealer changed the recovered logits");

    let one_pass = service_run(&refs[..2], Some(dealer));
    for (party, one, two) in [
        ("user", &one_pass.user_stats, &dealt.user_stats),
        ("provider", &one_pass.provider_stats, &dealt.provider_stats),
    ] {
        let offline = offline_phase_bytes(one);
        assert!(offline.iter().any(|&(_, b)| b > 0), "{party}: prepare moved no offline bytes");
        assert_eq!(
            offline,
            offline_phase_bytes(two),
            "{party}: dealer-fed online passes carried offline-phase traffic"
        );
    }
}

/// A strict pool (`ExhaustionPolicy::Fail`) that runs dry must surface
/// the typed [`ProtocolError::DealerExhausted`] naming the starved layer
/// — not panic, not silently generate — and serve again once the refill
/// loop resumes and rewarms the queue.
#[test]
fn dealer_exhaustion_surfaces_typed_error() {
    const DEPTH: usize = 3;
    let cfg = ProtocolConfig::paper(16);
    let (e0, _e1) = duplex();
    let ctx = PartyContext::new(PartyId::User, e0, cfg, None);

    let mut dealer = TripleDealer::from_seed(0xd00d);
    let (lane, _b_share) = dealer.expanded_lane(PartyId::User, Ring::new(16), &[1, 4], &[4, 3]);
    let expand: ExpandFn = Box::new(RingTensor::clone);
    let pool = DealerPool::new(
        &ctx,
        vec![("fc0".to_string(), lane, expand)],
        DealerConfig { depth: DEPTH, policy: ExhaustionPolicy::Fail },
    );
    assert!(pool.wait_warm(Duration::from_secs(10)), "pool never warmed");
    pool.pause();

    let slot = &pool.slots()[0];
    for i in 0..DEPTH {
        slot.take().unwrap_or_else(|e| panic!("warm take {i} failed: {e}"));
    }
    let err = slot.take().expect_err("a drained strict pool must refuse the take");
    match err {
        ProtocolError::DealerExhausted { ref layer } => {
            assert_eq!(layer, "fc0", "exhaustion error names the wrong layer");
            assert!(err.to_string().contains("fc0"), "exhaustion message omits the layer: {err}");
        }
        other => panic!("expected DealerExhausted, got: {other}"),
    }

    // Recovery: resuming the refill loop rewarms the queue and takes
    // succeed again with the next elements of the lane's stream.
    pool.resume();
    assert!(pool.wait_warm(Duration::from_secs(10)), "pool never rewarmed after resume");
    slot.take().expect("rewarmed take succeeds");
}
