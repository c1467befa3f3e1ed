//! Multi-tenant two-party inference service (DESIGN.md §13).
//!
//! The MLaaS deployment shape of the paper's introduction: one *model
//! provider* process serves many concurrent *users*, each user a full
//! two-party secure-inference session. This crate supplies both halves:
//!
//! * [`InferenceServer`] — accepts connections from an [`Acceptor`],
//!   multiplexes each admitted client onto its own session stream (frame
//!   header v2 carries the stream ID), runs the 2PC protocol for every
//!   session on a dedicated [`aq2pnn_parallel::Worker`], and shares one
//!   background [`aq2pnn::dealer::DealerHub`] and one
//!   [`aq2pnn::prepared::PreparedTemplate`] cache across all of them.
//! * [`run_client`] — the thin user-side library: admission handshake,
//!   session establishment, request header, then secure inference over a
//!   [`aq2pnn::prepared::PreparedModel`].
//!
//! # Robustness model
//!
//! The server never trusts a client to behave:
//!
//! * **Bounded admission** — at most `max_sessions + queue_depth` clients
//!   are in flight; everyone else receives a typed `Shed` frame within the
//!   admission deadline and a clean close, never a hang
//!   ([`ClientError::Shed`] on the user side).
//! * **Deadlines** — a per-session wall-clock deadline and an idle timeout
//!   are enforced by a reaper thread that tears down the transport of any
//!   stalled session (slow-loris, black-holed peer, wedged client).
//! * **Fault isolation** — a client that disconnects mid-inference, sends
//!   garbage, or stalls is torn down and its dealer lanes reclaimed while
//!   every other session completes bit-identically. A peer that sends a
//!   frame a correct peer never sends (corrupt, replayed, out of sequence,
//!   another stream's) fails its own session with a typed error.
//! * **Graceful drain** — shutdown sheds new admissions, waits for
//!   in-flight sessions up to a drain budget, then force-closes stragglers
//!   and reports which of the two happened ([`DrainReport`]).
//! * **Live telemetry** — an optional loopback-only admin endpoint
//!   ([`InferenceServer::start_admin`]) serves `/metrics` (text exposition
//!   with SLO quantile gauges), `/sessions` and `/healthz`
//!   while the server runs; every session carries a bounded
//!   [`aq2pnn_obs::FlightRecorder`] that is dumped as
//!   `flightrec-<stream>.json` when the session faults or is reaped.
//!
//! All telemetry carries **public structure only** (stream IDs, counts,
//! shapes, timings) — see DESIGN.md §10.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod acceptor;
mod activity;
mod admin;
mod client;
mod proto;
mod registry;
mod server;
pub mod signal;

pub use acceptor::{mem_acceptor, Acceptor, MemAcceptor, MemConnector, TcpAcceptor};
pub use activity::ActivityTransport;
pub use client::{run_client, ClientConfig, ClientError, ClientRun};
pub use proto::{InferenceRequest, MAX_BATCH, MAX_IMAGES};
pub use registry::{demo_model, ModelRegistry, TemplateCache};
pub use server::{DrainReport, InferenceServer, ServerConfig, ServerCounters, ServerObs};
