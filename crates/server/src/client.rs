//! The user-side client library: admission, session, request, inference.

use crate::proto::{decode_reply, InferenceRequest};
use aq2pnn::engine::BatchInput;
use aq2pnn::prepared::PreparedModel;
use aq2pnn::{PartyContext, ProtocolConfig, ProtocolError};
use aq2pnn_nn::quant::QuantModel;
use aq2pnn_sharing::PartyId;
use aq2pnn_transport::{Endpoint, Frame, FrameKind, Session, Transport, TransportError};
use std::sync::Arc;
use std::time::Duration;

/// Client-side knobs for one service session.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Registry name of the model to request.
    pub model: String,
    /// Activation ring width ℓ1 to request (the ℓ-profile).
    pub q1_bits: u32,
    /// Images per batched online pass.
    pub batch: usize,
    /// How long to wait for the admission verdict. A shedding or dead
    /// server is a typed error within this bound — never a hang.
    pub admission_timeout: Duration,
    /// Per-receive deadline during the protocol (also covers time queued
    /// behind other sessions on a busy server).
    pub io_deadline: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            model: "lenet5".into(),
            q1_bits: 16,
            batch: 1,
            admission_timeout: Duration::from_secs(5),
            io_deadline: Duration::from_secs(60),
        }
    }
}

/// Typed failure modes of a client session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The server declined admission (overload or draining).
    Shed,
    /// The server speaks a different frame version.
    VersionMismatch {
        /// Our frame version.
        ours: u8,
        /// The server's frame version.
        theirs: u8,
    },
    /// The server rejected the request header (unknown model, bad
    /// geometry, queue overflow) with this reason.
    Rejected(String),
    /// The link failed (disconnect, timeout) or the server sent a frame a
    /// correct peer never sends (corrupt, out of sequence).
    Transport(TransportError),
    /// The 2PC protocol failed after establishment.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Shed => write!(f, "server shed the session (overload or drain)"),
            ClientError::VersionMismatch { ours, theirs } => {
                write!(f, "server frame version mismatch: we speak v{ours}, peer v{theirs}")
            }
            ClientError::Rejected(reason) => write!(f, "server rejected the request: {reason}"),
            ClientError::Transport(e) => write!(f, "transport failure: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol failure: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<TransportError> for ClientError {
    fn from(e: TransportError) -> Self {
        match e {
            TransportError::Shed => ClientError::Shed,
            TransportError::VersionMismatch { ours, theirs } => {
                ClientError::VersionMismatch { ours, theirs }
            }
            other => ClientError::Transport(other),
        }
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        use aq2pnn::substrate::ot::OtError;
        match e {
            // Unwrap transport-rooted failures wherever they surfaced —
            // a cable pull mid-OT is still a transport error to callers.
            ProtocolError::Transport(t) | ProtocolError::Ot(OtError::Transport(t)) => {
                ClientError::from(t)
            }
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

/// Result of a completed client session.
#[derive(Debug, Clone)]
pub struct ClientRun {
    /// Integer logits, one vector per image, in input order.
    pub logits: Vec<Vec<i64>>,
    /// The stream ID the server assigned this session.
    pub stream: u64,
    /// Application payload bytes this side sent + received.
    pub payload_bytes: u64,
    /// Wall-clock nanoseconds spent in the secure online passes (the
    /// lockstep `run_batch` loop), excluding admission, session setup and
    /// preparation — the interval the server-side observability gate
    /// measures.
    pub online_ns: u64,
}

/// Runs one full service session as the *user*: admission handshake,
/// request header, then `⌈images/batch⌉` secure online passes.
///
/// `model` is the public architecture + deterministic share setup both
/// parties derive from the fixed seeds (the example's stand-in for a real
/// deployment's offline phase); the images are this party's secret.
///
/// # Errors
///
/// Every failure is typed ([`ClientError`]) and bounded in time by
/// `cfg.admission_timeout` / `cfg.io_deadline` — a shedding, draining,
/// stalled or version-skewed server never hangs the caller.
pub fn run_client(
    link: Arc<dyn Transport>,
    cfg: &ClientConfig,
    model: &QuantModel,
    images: &[&[f32]],
) -> Result<ClientRun, ClientError> {
    if images.is_empty() {
        return Err(ClientError::Rejected("no images".into()));
    }
    let batch = cfg.batch.max(1);

    // 1. Admission on the raw link: Hello out, verdict in. A Shed frame
    //    or a version mismatch surfaces here as its typed error. The
    //    server sheds at accept time and then closes the link, which can
    //    beat our Hello onto the wire: a failed send still reads the
    //    queued verdict, so overload is reported as `Shed`, not as the
    //    closed link it left behind.
    let hello = link.send(Frame::control(FrameKind::Hello, 0, 0).encode().into());
    let verdict = match link.recv(Some(cfg.admission_timeout)) {
        Ok(v) => v,
        Err(e) => return Err(hello.err().unwrap_or(e).into()),
    };
    let frame = Frame::decode(&verdict)?;
    if frame.kind == FrameKind::Shed {
        return Err(ClientError::Shed);
    }
    hello?;
    let stream = match frame.kind {
        FrameKind::Hello if frame.seq > 0 => frame.seq,
        other => {
            return Err(ClientError::Transport(TransportError::Corrupt(format!(
                "admission reply was {other:?}"
            ))))
        }
    };

    // 2. Session on the assigned stream + request header.
    let session = Arc::new(Session::with_stream(Arc::clone(&link), stream));
    let req = InferenceRequest {
        model: cfg.model.clone(),
        q1_bits: cfg.q1_bits,
        batch: u32::try_from(batch).unwrap_or(u32::MAX),
        count: u32::try_from(images.len()).unwrap_or(u32::MAX),
    };
    session.send(req.encode().into())?;
    let reply = session.recv(Some(cfg.io_deadline))?;
    if let Err(reason) = decode_reply(&reply)? {
        return Err(ClientError::Rejected(reason));
    }

    // 3. The 2PC session proper, mirroring the server's lockstep.
    let ep =
        Endpoint::over_transport(Arc::clone(&session) as Arc<dyn Transport>, Some(cfg.io_deadline));
    let pcfg = ProtocolConfig::paper(cfg.q1_bits);
    let mut ctx = PartyContext::new(PartyId::User, ep, pcfg, None);
    let mut prepared = PreparedModel::prepare(&mut ctx, model)?;
    let mut logits = Vec::with_capacity(images.len());
    let online_started = std::time::Instant::now();
    for chunk in images.chunks(batch) {
        let out = prepared.run_batch(&mut ctx, BatchInput::User(chunk))?;
        logits.extend(out.logits);
    }
    #[allow(clippy::cast_possible_truncation)] // u64 ns ≈ 584 years
    let online_ns = online_started.elapsed().as_nanos() as u64;
    Ok(ClientRun { logits, stream, payload_bytes: ctx.ep.stats().total_bytes(), online_ns })
}
