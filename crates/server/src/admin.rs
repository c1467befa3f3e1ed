//! The loopback-only admin endpoint (DESIGN.md §14).
//!
//! A second listener, wholly separate from the inference port, serving
//! plaintext operational snapshots to `curl`, a shell `/dev/tcp`
//! redirect, or `cargo xtask watch`:
//!
//! * `GET /metrics`  — Prometheus-style text exposition of the whole
//!   [`aq2pnn_obs::MetricsRegistry`] (the current schema), with the
//!   `server.slo.*.p{50,90,99}` gauges recomputed on each scrape.
//! * `GET /sessions` — one row per live session: stream ID, age, idle
//!   time and link state.
//! * `GET /healthz`  — `ok`, `overloaded` (admission bound reached) or
//!   `draining`, always with status 200 (the body is the verdict).
//!
//! Requests are one line (`GET <path>`, trailing HTTP version ignored);
//! responses are minimal HTTP/1.0 with `Content-Length`, then close.
//! The listener refuses to bind non-loopback addresses: the admin
//! surface reports timings, shapes and counts only (never share
//! values — see the leakage harness), but it still has no business
//! being reachable off-host.
//!
//! Concurrency: the whole endpoint runs on one dedicated worker. Scrape
//! bodies are rendered from snapshots (`MetricsRegistry::snapshot`, one
//! scan of the `server.sessions` table under its leaf guard) so no socket
//! I/O ever happens under a lock, and no lock is ever held across another
//! lock — the admin thread adds zero edges to the server's lock-class
//! graph.

use crate::server::Inner;
use aq2pnn_obs::render_text;
use aq2pnn_parallel::sync::Ordering;
use aq2pnn_parallel::Worker;
use aq2pnn_transport::{LineReader, TransportError};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-connection request deadline: admin clients are local and send
/// one short line, so anything slower is a wedged peer.
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

/// Binds `addr` and spawns the admin worker. Fails unless the resolved
/// address is loopback.
pub(crate) fn spawn_admin(
    inner: &Arc<Inner>,
    addr: &str,
) -> Result<(SocketAddr, Worker), TransportError> {
    let listener = TcpListener::bind(addr)
        .map_err(|e| TransportError::Corrupt(format!("admin bind {addr}: {e}")))?;
    let resolved = listener
        .local_addr()
        .map_err(|e| TransportError::Corrupt(format!("admin local_addr: {e}")))?;
    if !resolved.ip().is_loopback() {
        return Err(TransportError::Corrupt(format!(
            "admin endpoint must bind a loopback address, got {resolved}"
        )));
    }
    listener
        .set_nonblocking(true)
        .map_err(|e| TransportError::Corrupt(format!("admin nonblocking: {e}")))?;
    inner.tracer.info(format!("server: admin endpoint on {resolved}"));
    let worker = Worker::spawn("aq2pnn-admin");
    {
        let inner = Arc::clone(inner);
        worker.submit(move || admin_loop(&inner, &listener));
    }
    Ok((resolved, worker))
}

/// Nonblocking accept + bounded poll, like the inference acceptor: the
/// admin loop stays responsive to shutdown without a waker fd.
fn admin_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    while !inner.stopping.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => serve_connection(inner, stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => {
                inner.tracer.info(format!("server: admin loop exiting: {e}"));
                return;
            }
        }
    }
}

/// One admin request end to end. Any parse or I/O failure just drops the
/// connection — the admin surface never takes the server down.
fn serve_connection(inner: &Arc<Inner>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut reader = LineReader::new(stream);
    let Ok(line) = reader.read_line(REQUEST_DEADLINE) else { return };
    let path = line
        .strip_prefix("GET ")
        .map(|rest| rest.split_whitespace().next().unwrap_or(""))
        .unwrap_or("");
    let (status, body) = match path {
        "/metrics" => (200, metrics_body(inner)),
        "/sessions" => (200, sessions_body(inner)),
        "/healthz" => (200, health_body(inner)),
        _ => (404, format!("unknown admin path {path:?}\n")),
    };
    let reason = if status == 200 { "OK" } else { "Not Found" };
    let response = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: text/plain; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = reader.write_all(response.as_bytes());
    let _ = reader.stream().shutdown(std::net::Shutdown::Both);
}

/// The `/metrics` body: recompute scrape-time gauges, then render the
/// full registry as text exposition.
fn metrics_body(inner: &Arc<Inner>) -> String {
    inner.set_active_gauge();
    inner.slo.recompute_gauges();
    render_text(&inner.metrics.snapshot())
}

/// The `/healthz` verdict.
fn health_body(inner: &Arc<Inner>) -> String {
    let verdict = if inner.draining.load(Ordering::SeqCst) {
        "draining"
    } else if inner.in_flight.load(Ordering::SeqCst) >= inner.capacity() {
        "overloaded"
    } else {
        "ok"
    };
    format!("{verdict}\n")
}

/// The `/sessions` table, rendered in one scan under the (leaf)
/// `server.sessions` guard; nothing in the scan blocks.
fn sessions_body(inner: &Arc<Inner>) -> String {
    let now = Instant::now();
    let sessions = inner.sessions.lock();
    let mut out = String::from("stream age_ms idle_ms state\n");
    for s in sessions.iter() {
        let age_ms =
            u64::try_from(now.duration_since(s.admitted_at).as_millis()).unwrap_or(u64::MAX);
        let idle_ms = u64::try_from(s.link.idle_for().as_millis()).unwrap_or(u64::MAX);
        let state = if s.link.was_closed() { "closing" } else { "open" };
        out.push_str(&format!("{} {age_ms} {idle_ms} {state}\n", s.stream));
    }
    out
}
