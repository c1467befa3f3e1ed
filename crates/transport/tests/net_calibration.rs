//! Calibration of the analytic [`NetworkModel`] against the *measured*
//! behavior of the real session-over-TCP stack on loopback.
//!
//! Two claims are kept honest here (details in EXPERIMENTS.md,
//! "NetworkModel calibration"):
//!
//! 1. **Bytes** — the per-message wire overhead of the deployed stack is
//!    exactly [`SESSION_WIRE_FRAMING_BYTES`] per frame (36-byte session
//!    header + 4-byte length prefix), measured from
//!    [`TcpTransport::wire_bytes`]: the session sends no frame of its own
//!    beyond the messages it carries. The model's
//!    per-message overhead constant must sit within 2× of the measured
//!    userspace framing plus nominal kernel headers.
//! 2. **Wall-clock** — an α–β model parameterized from two loopback
//!    measurements (small-message RTT → α, bulk one-way transfer → β)
//!    predicts the wall-clock of a fresh mixed workload to within a loose
//!    factor. The always-on bound is deliberately generous (shared CI
//!    hosts); the `#[ignore]`d strict variant runs in the release-mode CI
//!    fault-matrix job.

use aq2pnn_transport::{
    Bytes, NetworkModel, Session, SessionConfig, TcpConfig, TcpTransport, Transport,
    FRAME_HEADER_LEN, SESSION_WIRE_FRAMING_BYTES,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nominal Ethernet + IPv4 + TCP header bytes per segment, the quantity
/// the paper-LAN model's constant stands for (userspace cannot observe
/// these; loopback does not emit them).
const KERNEL_FRAMING_BYTES: u64 = 66;

struct TcpPair {
    a: Arc<Session>,
    b: Arc<Session>,
    a_raw: Arc<TcpTransport>,
}

fn tcp_session_pair() -> TcpPair {
    let listener = Arc::new(TcpTransport::listen("127.0.0.1:0").expect("bind loopback"));
    let addr = listener.local_addr().expect("addr");
    let connector =
        Arc::new(TcpTransport::connect(addr, TcpConfig::default()).expect("dial loopback"));
    TcpPair {
        a: Arc::new(Session::new(Arc::clone(&connector) as Arc<dyn Transport>, SessionConfig)),
        b: Arc::new(Session::new(Arc::clone(&listener) as Arc<dyn Transport>, SessionConfig)),
        a_raw: connector,
    }
}

/// Echo `rounds` ping-pong messages of `size` bytes; returns elapsed time.
fn ping_pong(pair: &TcpPair, rounds: usize, size: usize) -> Duration {
    let b = Arc::clone(&pair.b);
    let echo = std::thread::spawn(move || {
        for _ in 0..rounds {
            let msg = b.recv(Some(Duration::from_secs(20))).expect("echo recv");
            b.send(msg).expect("echo send");
        }
    });
    let start = Instant::now();
    for i in 0..rounds {
        pair.a.send(Bytes::from(vec![i as u8; size])).expect("ping send");
        pair.a.recv(Some(Duration::from_secs(20))).expect("pong recv");
    }
    let elapsed = start.elapsed();
    echo.join().expect("echo thread");
    elapsed
}

/// The measured per-message wire overhead must be exactly the
/// session+prefix framing, and the model constant must agree with
/// measurement + nominal kernel headers to within 2×.
#[test]
fn measured_wire_overhead_matches_the_model_constant() {
    let pair = tcp_session_pair();
    let rounds = 64usize;
    let size = 1000usize;
    ping_pong(&pair, rounds, size);

    let (sent, _) = pair.a_raw.wire_bytes();
    let payload = (rounds * size) as u64;
    assert_eq!(SESSION_WIRE_FRAMING_BYTES, FRAME_HEADER_LEN as u64 + 4);
    assert_eq!(
        sent,
        payload + rounds as u64 * SESSION_WIRE_FRAMING_BYTES,
        "wire bytes must be the payload plus {SESSION_WIRE_FRAMING_BYTES} B per message, \
         with no frame beyond the messages sent"
    );
    let overhead_per_msg = (sent - payload) / rounds as u64;

    // Model-vs-measurement: the deployed stack's true per-message cost is
    // measured userspace framing + nominal kernel headers. The calibrated
    // model (`with_session_framing`) must be within 2×.
    eprintln!("measured wire overhead: {overhead_per_msg} B/msg over {rounds} frames");
    let measured_total = overhead_per_msg + KERNEL_FRAMING_BYTES;
    let model = NetworkModel::paper_lan().with_session_framing().per_message_overhead_bytes;
    let ratio = model.max(measured_total) as f64 / model.min(measured_total) as f64;
    assert!(
        ratio <= 2.0,
        "model per-message overhead ({model} B) is {ratio:.2}x off the \
         measured {measured_total} B"
    );
}

/// Fits α (latency) and β (bandwidth) from loopback measurements, then
/// checks the fitted model predicts a fresh mixed workload's wall-clock
/// within `tolerance`×.
fn calibrate_and_check(tolerance: f64) {
    // α: small-message ping-pong; one round = 2 messages = 2 α.
    let pair = tcp_session_pair();
    let rounds = 200usize;
    let rtt_total = ping_pong(&pair, rounds, 16);
    let latency_s = rtt_total.as_secs_f64() / (rounds as f64 * 2.0);

    // β: bulk one-way transfer, receiver confirms completion once.
    let bulk_msgs = 48usize;
    let bulk_size = 1 << 18; // 256 KiB
    let b = Arc::clone(&pair.b);
    let sink = std::thread::spawn(move || {
        for _ in 0..bulk_msgs {
            b.recv(Some(Duration::from_secs(30))).expect("bulk recv");
        }
        b.send(Bytes::from_static(b"done")).expect("done send");
    });
    let start = Instant::now();
    for _ in 0..bulk_msgs {
        pair.a.send(Bytes::from(vec![0xA5; bulk_size])).expect("bulk send");
    }
    pair.a.recv(Some(Duration::from_secs(30))).expect("done recv");
    let bulk_elapsed = start.elapsed().as_secs_f64();
    sink.join().expect("sink thread");
    let bulk_bytes = (bulk_msgs * bulk_size) as u64;
    let bandwidth_bps = bulk_bytes as f64 * 8.0 / bulk_elapsed;

    let fitted = NetworkModel {
        bandwidth_bps,
        latency_s,
        per_message_overhead_bytes: SESSION_WIRE_FRAMING_BYTES,
    };

    // Fresh mixed workload: 64 ping-pongs of 8 KiB.
    let (wl_rounds, wl_size) = (64usize, 8192usize);
    let measured = ping_pong(&pair, wl_rounds, wl_size).as_secs_f64();
    let predicted = fitted.transfer_seconds((2 * wl_rounds * wl_size) as u64, 2 * wl_rounds as u64);
    let ratio = (measured / predicted).max(predicted / measured);
    eprintln!(
        "loopback fit: alpha = {:.1} us, beta = {:.2} Gbps; workload measured {:.3} ms, \
         predicted {:.3} ms (ratio {ratio:.2})",
        latency_s * 1e6,
        bandwidth_bps / 1e9,
        measured * 1e3,
        predicted * 1e3
    );
    assert!(
        ratio <= tolerance,
        "alpha-beta model off by {ratio:.1}x (tolerance {tolerance}x): \
         measured {measured:.4}s vs predicted {predicted:.4}s"
    );
}

/// Always-on sanity: the fitted α–β model is not grossly wrong. The bound
/// is loose because shared CI hosts jitter loopback timings heavily.
#[test]
fn fitted_alpha_beta_model_predicts_wall_clock_loosely() {
    calibrate_and_check(20.0);
}

/// Strict calibration, run by the release-mode CI fault-matrix job where
/// timing noise is lower and optimized code dominates syscall overhead
/// less.
#[test]
#[ignore = "timing-sensitive: release-mode CI fault-matrix job runs this"]
fn fitted_alpha_beta_model_predicts_wall_clock_strictly() {
    calibrate_and_check(6.0);
}
