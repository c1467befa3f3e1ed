//! The reliability layer: exactly-once, in-order delivery over any
//! [`Transport`], surviving drops, duplicates, corruption and full
//! disconnects.
//!
//! A [`Session`] numbers outgoing application messages with consecutive
//! sequence numbers, keeps a **bounded replay buffer** of frames the peer
//! has not yet acknowledged, and resynchronizes after failures:
//!
//! * **Loss** — the receiver notices (a gap when a later frame arrives, or
//!   silence past its probe interval) and sends a `Nak` carrying its
//!   cumulative ack; the sender retransmits everything from that point.
//! * **Duplication** — frames below the cumulative ack are discarded (and
//!   re-acked, so a lost `Ack` cannot wedge the sender's replay buffer).
//! * **Corruption** — the frame CRC fails, the frame is treated as lost.
//! * **Disconnect** — both sides run capped exponential backoff with
//!   deterministic jitter, re-establish the link ([`Transport::reconnect`]),
//!   exchange `Hello` frames advertising their counters, and the sender
//!   replays every unacknowledged frame. The protocol threads never die;
//!   the inference resumes from the exact message where the link failed,
//!   which is what makes a mid-inference disconnect invisible to the
//!   engine (same logits, bit for bit).
//!
//! A session is bound to one **stream ID** (0 for point-to-point links;
//! the server-assigned ID for multiplexed sessions). Every outgoing frame
//! is stamped with it, frames carrying a different ID are counted
//! ([`SessionTelemetry::misrouted`]) and discarded, and a typed `Shed`
//! frame or a peer speaking another frame version terminates the session
//! with the matching [`TransportError`] instead of a hang.
//!
//! Every header field an eavesdropper sees (kind, stream, seq, ack,
//! length) is a function of the message *schedule* — which both parties
//! already know — and of link faults, never of secret payloads. See
//! DESIGN.md §9.

use crate::frame::{Frame, FrameKind};
use crate::transport::Transport;
use crate::TransportError;
use aq2pnn_obs::{Counter, MetricsRegistry};
use bytes::Bytes;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Tuning knobs for a [`Session`].
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// How long a receive waits in silence before probing the peer with a
    /// `Nak` (which requests retransmission of anything we are missing).
    pub probe_interval: Duration,
    /// Consecutive silent probes before the session declares the link dead
    /// ([`TransportError::RetriesExhausted`]). Any received frame resets
    /// the count.
    pub max_probes: u32,
    /// First reconnect backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff cap.
    pub backoff_max: Duration,
    /// Reconnect attempts before giving up.
    pub max_reconnect_attempts: u32,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
    /// Replay buffer capacity in frames. A sender whose unacknowledged
    /// backlog reaches this bound solicits acks (`Ping`) instead of
    /// growing without limit.
    pub replay_capacity: usize,
    /// Send a standalone `Ack` after this many received data frames (acks
    /// also piggyback on every outgoing frame).
    pub ack_every: u64,
    /// Deadline for the `Hello` exchange after a reconnect.
    pub handshake_timeout: Duration,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            probe_interval: Duration::from_millis(200),
            max_probes: 300,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(500),
            max_reconnect_attempts: 10,
            jitter_seed: 0x5e55_10f1,
            replay_capacity: 1024,
            ack_every: 16,
            handshake_timeout: Duration::from_secs(2),
        }
    }
}

/// Counters describing how much repair work a session performed — the
/// soak tests assert these stay bounded under each fault schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionTelemetry {
    /// Data frames retransmitted (after `Nak`s or reconnect handshakes).
    pub retransmits: u64,
    /// Successful reconnect + resync handshakes.
    pub reconnects: u64,
    /// `Nak` probes sent.
    pub naks_sent: u64,
    /// Frames discarded with a failed checksum or malformed header.
    pub corrupt_frames: u64,
    /// Duplicate data frames discarded.
    pub duplicates: u64,
    /// Out-of-order (ahead-of-ack) data frames observed.
    pub gaps: u64,
    /// Backoff sleeps performed while reconnecting.
    pub backoff_sleeps: u64,
    /// Total milliseconds spent in backoff sleeps.
    pub backoff_ms: u64,
    /// Frames discarded because they carried another session's stream ID.
    pub misrouted: u64,
}

/// The live [`SessionTelemetry`] counters, kept **outside** the session
/// lock: [`Session::recv`] holds that lock for its whole wait, and an
/// operator's `/sessions` scrape must not stall behind a session parked
/// on a silent peer. Pure statistics — nothing is published through them
/// — so every access is `Relaxed`.
#[derive(Default)]
struct TelemetryCells {
    retransmits: AtomicU64,
    reconnects: AtomicU64,
    naks_sent: AtomicU64,
    corrupt_frames: AtomicU64,
    duplicates: AtomicU64,
    gaps: AtomicU64,
    backoff_sleeps: AtomicU64,
    backoff_ms: AtomicU64,
    misrouted: AtomicU64,
}

impl TelemetryCells {
    fn snapshot(&self) -> SessionTelemetry {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        SessionTelemetry {
            retransmits: get(&self.retransmits),
            reconnects: get(&self.reconnects),
            naks_sent: get(&self.naks_sent),
            corrupt_frames: get(&self.corrupt_frames),
            duplicates: get(&self.duplicates),
            gaps: get(&self.gaps),
            backoff_sleeps: get(&self.backoff_sleeps),
            backoff_ms: get(&self.backoff_ms),
            misrouted: get(&self.misrouted),
        }
    }
}

/// Metric handles mirroring [`SessionTelemetry`], incremented at the same
/// sites. Detached by default (handles count locally, nothing exported);
/// [`Session::attach_metrics`] rebinds them to a live registry under the
/// per-stream `session.*` names (see [`session_metric_name`]).
#[derive(Default, Clone)]
struct SessionMetrics {
    retransmits: Counter,
    reconnects: Counter,
    naks_sent: Counter,
    corrupt_frames: Counter,
    duplicates: Counter,
    gaps: Counter,
    backoff_sleeps: Counter,
    backoff_ms: Counter,
    misrouted: Counter,
}

/// Metric name for one session-recovery counter. Stream 0 keeps the
/// historical flat `session.<field>` names (schema v1/v2 dashboards stay
/// valid); multiplexed streams get `session.<id>.<field>` so one client's
/// retransmits never pollute another's counters — the per-stream
/// telemetry fix this PR's chaos soak asserts on.
#[must_use]
pub fn session_metric_name(stream: u64, field: &str) -> String {
    if stream == 0 {
        format!("session.{field}")
    } else {
        format!("session.{stream}.{field}")
    }
}

impl SessionMetrics {
    fn bound_to(reg: &MetricsRegistry, stream: u64) -> Self {
        let name = |field: &str| session_metric_name(stream, field);
        SessionMetrics {
            retransmits: reg.counter(&name("retransmits")),
            reconnects: reg.counter(&name("reconnects")),
            naks_sent: reg.counter(&name("naks_sent")),
            corrupt_frames: reg.counter(&name("corrupt_frames")),
            duplicates: reg.counter(&name("duplicates")),
            gaps: reg.counter(&name("gaps")),
            backoff_sleeps: reg.counter(&name("backoff_sleeps")),
            backoff_ms: reg.counter(&name("backoff_ms")),
            misrouted: reg.counter(&name("misrouted")),
        }
    }
}

/// Pairs each telemetry bump with its metric handle so the two views can
/// never drift apart.
macro_rules! note {
    ($($fn_name:ident => $field:ident),* $(,)?) => {
        impl SessionState {
            $(fn $fn_name(&mut self) {
                self.telemetry.$field.fetch_add(1, Ordering::Relaxed);
                self.metrics.$field.inc();
            })*
        }
    };
}

note! {
    note_retransmit => retransmits,
    note_reconnect => reconnects,
    note_nak => naks_sent,
    note_corrupt => corrupt_frames,
    note_duplicate => duplicates,
    note_gap => gaps,
    note_misrouted => misrouted,
}

impl SessionState {
    fn note_backoff(&mut self, slept: Duration) {
        let ms = u64::try_from(slept.as_millis()).unwrap_or(u64::MAX);
        self.telemetry.backoff_sleeps.fetch_add(1, Ordering::Relaxed);
        self.telemetry.backoff_ms.fetch_add(ms, Ordering::Relaxed);
        self.metrics.backoff_sleeps.inc();
        self.metrics.backoff_ms.add(ms);
    }
}

struct SessionState {
    next_send_seq: u64,
    next_recv_seq: u64,
    /// Highest cumulative ack received from the peer.
    peer_acked: u64,
    /// Unacknowledged data frames, oldest first: `(seq, payload)`.
    replay: VecDeque<(u64, Bytes)>,
    /// In-order application payloads received but not yet handed to the
    /// caller (e.g. drained while waiting for acks during send).
    inbox: VecDeque<Bytes>,
    recv_since_ack: u64,
    /// Shared with [`Session::telemetry`], which reads it without `st`.
    telemetry: Arc<TelemetryCells>,
    metrics: SessionMetrics,
    /// When `Some`, every frame written to the link (data, control,
    /// retransmissions alike) is appended — the eavesdropper's true wire
    /// view, used by the leakage harness.
    wire_capture: Option<Vec<Vec<u8>>>,
}

/// Reliable, resumable message channel over an unreliable [`Transport`].
///
/// `Session` itself implements [`Transport`], so an [`crate::Endpoint`]
/// can sit on top of it unchanged; byte accounting at the endpoint level
/// keeps counting application payloads only, exactly as over the
/// in-process link.
pub struct Session {
    link: Arc<dyn Transport>,
    cfg: SessionConfig,
    /// Stream ID stamped on every outgoing frame; frames tagged otherwise
    /// are misrouted and discarded.
    stream: u64,
    telemetry: Arc<TelemetryCells>,
    st: Mutex<SessionState>,
}

impl Drop for Session {
    /// Dropping the session closes the link so a peer blocked in `recv`
    /// observes `Disconnected` instead of hanging (mirrors
    /// [`crate::MemTransport`]'s drop behavior).
    fn drop(&mut self) {
        self.link.shutdown();
    }
}

/// splitmix64: deterministic jitter / fault-schedule hashing.
#[must_use]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Session {
    /// Wraps `link` in a reliability session on stream 0 (the
    /// point-to-point default).
    #[must_use]
    pub fn new(link: Arc<dyn Transport>, cfg: SessionConfig) -> Self {
        Session::with_stream(link, cfg, 0)
    }

    /// Wraps `link` in a reliability session bound to `stream` — the ID a
    /// multi-tenant server assigned at admission. Both ends of one logical
    /// session must agree on the ID; frames stamped otherwise are counted
    /// as misrouted and dropped.
    #[must_use]
    pub fn with_stream(link: Arc<dyn Transport>, cfg: SessionConfig, stream: u64) -> Self {
        let telemetry = Arc::new(TelemetryCells::default());
        Session {
            link,
            cfg,
            stream,
            telemetry: Arc::clone(&telemetry),
            st: Mutex::new(SessionState {
                next_send_seq: 0,
                next_recv_seq: 0,
                peer_acked: 0,
                replay: VecDeque::new(),
                inbox: VecDeque::new(),
                recv_since_ack: 0,
                telemetry,
                metrics: SessionMetrics::default(),
                wire_capture: None,
            }),
        }
    }

    /// Repair-work counters so far. Never waits for the session lock, so
    /// it is safe to call while another thread is blocked in `recv`.
    pub fn telemetry(&self) -> SessionTelemetry {
        self.telemetry.snapshot()
    }

    /// The stream ID this session stamps on its frames.
    #[must_use]
    pub fn stream(&self) -> u64 {
        self.stream
    }

    /// Binds the session's repair counters to `reg` under the per-stream
    /// `session.*` metric names (and replays counts accumulated before the
    /// attach, so the exported values always equal [`Self::telemetry`]).
    pub fn attach_metrics(&self, reg: &MetricsRegistry) {
        let mut st = self.lock();
        let m = SessionMetrics::bound_to(reg, self.stream);
        let t = self.telemetry.snapshot();
        m.retransmits.add(t.retransmits);
        m.reconnects.add(t.reconnects);
        m.naks_sent.add(t.naks_sent);
        m.corrupt_frames.add(t.corrupt_frames);
        m.duplicates.add(t.duplicates);
        m.gaps.add(t.gaps);
        m.backoff_sleeps.add(t.backoff_sleeps);
        m.backoff_ms.add(t.backoff_ms);
        m.misrouted.add(t.misrouted);
        st.metrics = m;
    }

    /// Starts capturing every frame written to the link (including
    /// retransmissions and control frames). Discards any prior capture.
    pub fn start_wire_capture(&self) {
        self.lock().wire_capture = Some(Vec::new());
    }

    /// Stops capturing and returns the frames in write order.
    pub fn take_wire_capture(&self) -> Vec<Vec<u8>> {
        self.lock().wire_capture.take().unwrap_or_default()
    }

    // sync: allow(guard-escape, "single poison-recovery point; callers hold st for one protocol op")
    fn lock(&self) -> MutexGuard<'_, SessionState> {
        self.st.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Writes one frame to the link (stamped with this session's stream
    /// ID), recording it in the wire capture. Link failure here is NOT
    /// recovered — callers decide (data frames are safe in the replay
    /// buffer; control frames are best-effort).
    fn write_frame(&self, st: &mut SessionState, frame: Frame) -> Result<(), TransportError> {
        let encoded = frame.on_stream(self.stream).encode();
        if let Some(cap) = &mut st.wire_capture {
            cap.push(encoded.clone());
        }
        self.link.send(Bytes::from(encoded))
    }

    /// Best-effort control frame: link errors are swallowed (the
    /// subsequent data-path operation will hit the same failure and drive
    /// recovery).
    fn write_control(&self, st: &mut SessionState, kind: FrameKind) {
        let ack = st.next_recv_seq;
        let _ = self.write_frame(st, Frame::control(kind, 0, ack));
    }

    /// Handles one decoded frame. Returns a payload when `frame` is the
    /// next in-order data frame; queues/discards otherwise.
    fn process_frame(
        &self,
        st: &mut SessionState,
        frame: Frame,
    ) -> Result<Option<Bytes>, TransportError> {
        // Another session's traffic leaked onto this link: count it and
        // drop it before it can disturb our sequencing state.
        if frame.stream != self.stream {
            st.note_misrouted();
            return Ok(None);
        }
        // A typed overload refusal from the server is terminal.
        if frame.kind == FrameKind::Shed {
            return Err(TransportError::Shed);
        }
        // Every frame carries a cumulative ack: prune the replay buffer.
        if frame.ack > st.peer_acked {
            if frame.ack > st.next_send_seq {
                return Err(TransportError::SequenceGap {
                    expected: st.next_send_seq,
                    got: frame.ack,
                });
            }
            st.peer_acked = frame.ack;
            while st.replay.front().is_some_and(|(s, _)| *s < frame.ack) {
                st.replay.pop_front();
            }
        }
        match frame.kind {
            FrameKind::Data => {
                if frame.seq == st.next_recv_seq {
                    st.next_recv_seq += 1;
                    st.recv_since_ack += 1;
                    if st.recv_since_ack >= self.cfg.ack_every {
                        st.recv_since_ack = 0;
                        self.write_control(st, FrameKind::Ack);
                    }
                    return Ok(Some(Bytes::from(frame.payload)));
                }
                if frame.seq < st.next_recv_seq {
                    // Duplicate (retransmission overlap): re-ack so the
                    // sender can prune.
                    st.note_duplicate();
                    self.write_control(st, FrameKind::Ack);
                } else {
                    // Gap: something before this frame was lost.
                    st.note_gap();
                    st.note_nak();
                    self.write_control(st, FrameKind::Nak);
                }
            }
            FrameKind::Ack => {}
            FrameKind::Nak => self.retransmit_from(st, frame.ack)?,
            FrameKind::Ping => self.write_control(st, FrameKind::Ack),
            FrameKind::Hello => {
                // Peer resynced without us noticing a disconnect: answer
                // and replay what it is missing.
                let hello = Frame::control(FrameKind::Hello, st.next_send_seq, st.next_recv_seq);
                let _ = self.write_frame(st, hello);
                self.retransmit_from(st, frame.ack)?;
            }
            // Handled above; kept for match exhaustiveness.
            FrameKind::Shed => return Err(TransportError::Shed),
        }
        Ok(None)
    }

    /// Retransmits every replay-buffered frame with `seq >= from`.
    fn retransmit_from(&self, st: &mut SessionState, from: u64) -> Result<(), TransportError> {
        if let Some((front, _)) = st.replay.front() {
            if from < *front {
                // The peer wants frames we no longer hold — unrecoverable.
                return Err(TransportError::SequenceGap { expected: *front, got: from });
            }
        }
        let ack = st.next_recv_seq;
        let frames: Vec<Frame> = st
            .replay
            .iter()
            .filter(|(s, _)| *s >= from)
            .map(|(s, p)| Frame::data(*s, ack, p.to_vec()))
            .collect();
        for f in frames {
            st.note_retransmit();
            // Best-effort: a failure here resurfaces on the data path.
            if self.write_frame(st, f).is_err() {
                break;
            }
        }
        Ok(())
    }

    /// Reads one frame with `deadline`, decoding and dispatching it.
    /// `Ok(Some(payload))` delivers application data; `Ok(None)` means a
    /// control/duplicate frame was absorbed.
    fn pump(
        &self,
        st: &mut SessionState,
        deadline: Duration,
    ) -> Result<Option<Bytes>, TransportError> {
        match self.link.recv(Some(deadline)) {
            Ok(bytes) => match Frame::decode(&bytes) {
                Ok(frame) => self.process_frame(st, frame),
                // An incompatible peer cannot be Nak'd into compliance:
                // every frame it ever sends will fail the same way.
                Err(e @ TransportError::VersionMismatch { .. }) => Err(e),
                Err(_) => {
                    // Treated as loss; the Nak asks for retransmission.
                    st.note_corrupt();
                    st.note_nak();
                    self.write_control(st, FrameKind::Nak);
                    Ok(None)
                }
            },
            Err(e) => Err(e),
        }
    }

    /// Capped exponential backoff with deterministic jitter, reconnect,
    /// `Hello` handshake, and replay of unacknowledged frames.
    fn reconnect_and_resync(&self, st: &mut SessionState) -> Result<(), TransportError> {
        if !self.link.supports_reconnect() {
            return Err(TransportError::Disconnected);
        }
        for attempt in 0..self.cfg.max_reconnect_attempts {
            let base = self
                .cfg
                .backoff_base
                .saturating_mul(1u32 << attempt.min(16))
                .min(self.cfg.backoff_max);
            let jitter_range = (base.as_millis() as u64 / 2).max(1);
            let jitter = splitmix64(self.cfg.jitter_seed ^ u64::from(attempt)) % jitter_range;
            let slept = base + Duration::from_millis(jitter);
            std::thread::sleep(slept);
            st.note_backoff(slept);
            if self.link.reconnect().is_err() {
                continue;
            }
            match self.handshake(st) {
                Ok(()) => {
                    st.note_reconnect();
                    return Ok(());
                }
                Err(e @ TransportError::SequenceGap { .. }) => return Err(e),
                Err(_) => {
                    // Stale backlog connection or lost Hello: tear the
                    // attempt down and retry from backoff.
                    self.link.shutdown();
                }
            }
        }
        Err(TransportError::RetriesExhausted(format!(
            "link did not come back after {} reconnect attempts",
            self.cfg.max_reconnect_attempts
        )))
    }

    /// One `Hello` exchange over a freshly reconnected link, followed by
    /// replay of everything the peer reports missing.
    fn handshake(&self, st: &mut SessionState) -> Result<(), TransportError> {
        let hello = Frame::control(FrameKind::Hello, st.next_send_seq, st.next_recv_seq);
        self.write_frame(st, hello)?;
        let deadline = Instant::now() + self.cfg.handshake_timeout;
        loop {
            let now = Instant::now();
            let Some(remaining) = deadline.checked_duration_since(now).filter(|d| !d.is_zero())
            else {
                return Err(TransportError::Timeout);
            };
            let bytes = self.link.recv(Some(remaining))?;
            let frame = match Frame::decode(&bytes) {
                Ok(f) => f,
                Err(e @ TransportError::VersionMismatch { .. }) => return Err(e),
                Err(_) => {
                    st.note_corrupt();
                    continue;
                }
            };
            if frame.stream != self.stream {
                st.note_misrouted();
                continue;
            }
            if frame.kind == FrameKind::Hello {
                if frame.ack > st.next_send_seq {
                    return Err(TransportError::SequenceGap {
                        expected: st.next_send_seq,
                        got: frame.ack,
                    });
                }
                st.peer_acked = st.peer_acked.max(frame.ack);
                while st.replay.front().is_some_and(|(s, _)| *s < frame.ack) {
                    st.replay.pop_front();
                }
                self.retransmit_from(st, frame.ack)?;
                return Ok(());
            }
            // Data/control from before the disconnect (stale in-flight
            // frames): process normally — in-order data is still valid.
            if let Some(payload) = self.process_frame(st, frame)? {
                st.inbox.push_back(payload);
            }
        }
    }

    /// Blocks until the peer acknowledges enough frames for the replay
    /// buffer to accept one more.
    fn wait_for_replay_room(&self, st: &mut SessionState) -> Result<(), TransportError> {
        let mut probes = 0u32;
        while st.replay.len() >= self.cfg.replay_capacity.max(1) {
            self.write_control(st, FrameKind::Ping);
            match self.pump(st, self.cfg.probe_interval) {
                Ok(Some(payload)) => st.inbox.push_back(payload),
                Ok(None) => {}
                Err(TransportError::Timeout) => {
                    probes += 1;
                    if probes > self.cfg.max_probes {
                        return Err(TransportError::RetriesExhausted(format!(
                            "replay buffer full ({} frames) and peer stopped acking",
                            st.replay.len()
                        )));
                    }
                }
                Err(TransportError::Disconnected) => self.reconnect_and_resync(st)?,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Blocks until the peer has acknowledged every data frame this
    /// session ever sent (the replay buffer is empty), probing with
    /// `Ping` and retransmitting the unacked tail as needed.
    ///
    /// Call this before dropping the session when the *peer* may still
    /// need the tail of the conversation: dropping closes the link, and a
    /// frame lost on the wire after the local side stops driving the
    /// protocol would otherwise be unrepairable — the peer would observe
    /// a disconnect instead of a recoverable loss.
    ///
    /// The first round only probes (no retransmission), so over a healthy
    /// link a flush never produces duplicate frames at the peer.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] when `budget` expires with frames still
    /// unacknowledged; link errors pass through. Callers that only flush
    /// opportunistically (the peer may already have torn the link down)
    /// can ignore the result.
    pub fn flush(&self, budget: Duration) -> Result<(), TransportError> {
        // sync: allow(blocking-while-locked, "the flush loop owns the session until the tail is acked; see send")
        let deadline = Instant::now() + budget;
        let mut st = self.lock();
        let mut first = true;
        while !st.replay.is_empty() {
            if !first {
                // A probe round came back (or timed out) without the tail
                // being acked: assume loss and replay from the peer's
                // last cumulative ack.
                let from = st.peer_acked;
                self.retransmit_from(&mut st, from)?;
            }
            first = false;
            self.write_control(&mut st, FrameKind::Ping);
            match self.pump(&mut st, self.cfg.probe_interval) {
                Ok(Some(payload)) => st.inbox.push_back(payload),
                Ok(None) | Err(TransportError::Timeout) => {}
                Err(e) => return Err(e),
            }
            if Instant::now() >= deadline && !st.replay.is_empty() {
                return Err(TransportError::Timeout);
            }
        }
        Ok(())
    }
}

impl Transport for Session {
    fn send(&self, bytes: Bytes) -> Result<(), TransportError> {
        // sync: allow(blocking-while-locked, "session state must stay locked across the reliability protocol; one session per connection, no cross-lock contention")
        let mut st = self.lock();
        self.wait_for_replay_room(&mut st)?;
        let seq = st.next_send_seq;
        st.next_send_seq += 1;
        st.replay.push_back((seq, bytes.clone()));
        let frame = Frame::data(seq, st.next_recv_seq, bytes.to_vec());
        match self.write_frame(&mut st, frame) {
            Ok(()) => Ok(()),
            Err(TransportError::Disconnected) => {
                // The frame sits in the replay buffer; resync replays it.
                self.reconnect_and_resync(&mut st)
            }
            Err(e) => Err(e),
        }
    }

    fn recv(&self, deadline: Option<Duration>) -> Result<Bytes, TransportError> {
        // sync: allow(blocking-while-locked, "the pump loop owns the session for the whole receive; see send")
        let mut st = self.lock();
        let overall = deadline.map(|d| Instant::now() + d);
        let mut probes = 0u32;
        loop {
            // Resync and replay-room waits may have parked payloads here.
            if let Some(payload) = st.inbox.pop_front() {
                return Ok(payload);
            }
            let mut step = self.cfg.probe_interval;
            if let Some(end) = overall {
                let now = Instant::now();
                let Some(remaining) = end.checked_duration_since(now).filter(|d| !d.is_zero())
                else {
                    return Err(TransportError::Timeout);
                };
                step = step.min(remaining);
            }
            match self.pump(&mut st, step) {
                Ok(Some(payload)) => return Ok(payload),
                Ok(None) => probes = 0,
                Err(TransportError::Timeout) => {
                    if overall.is_some_and(|end| Instant::now() >= end) {
                        return Err(TransportError::Timeout);
                    }
                    probes += 1;
                    if probes > self.cfg.max_probes {
                        return Err(TransportError::RetriesExhausted(format!(
                            "no frame received after {} probes of {:?}",
                            self.cfg.max_probes, self.cfg.probe_interval
                        )));
                    }
                    // Silence can mean a dropped frame: ask for anything
                    // we are missing.
                    st.note_nak();
                    self.write_control(&mut st, FrameKind::Nak);
                }
                Err(TransportError::Disconnected) => self.reconnect_and_resync(&mut st)?,
                Err(e) => return Err(e),
            }
        }
    }

    fn shutdown(&self) {
        self.link.shutdown();
    }

    fn reconnect(&self) -> Result<(), TransportError> {
        // sync: allow(blocking-while-locked, "resync rewrites sequencing state; the lock must span backoff + handshake")
        let mut st = self.lock();
        self.reconnect_and_resync(&mut st)
    }

    fn supports_reconnect(&self) -> bool {
        self.link.supports_reconnect()
    }

    fn descriptor(&self) -> String {
        format!("session({})", self.link.descriptor())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::mem_pair;

    fn session_pair(cfg: SessionConfig) -> (Session, Session) {
        let (a, b) = mem_pair();
        (Session::new(Arc::new(a), cfg), Session::new(Arc::new(b), cfg))
    }

    #[test]
    fn in_order_roundtrip() {
        let (a, b) = session_pair(SessionConfig::default());
        a.send(Bytes::from(vec![1])).unwrap();
        a.send(Bytes::from(vec![2, 2])).unwrap();
        assert_eq!(&b.recv(None).unwrap()[..], &[1]);
        assert_eq!(&b.recv(None).unwrap()[..], &[2, 2]);
        assert_eq!(a.telemetry().retransmits, 0);
    }

    #[test]
    fn flush_waits_for_the_tail_ack_without_duplicates() {
        let cfg =
            SessionConfig { probe_interval: Duration::from_millis(10), ..SessionConfig::default() };
        let (a, b) = session_pair(cfg);
        a.send(Bytes::from(vec![9])).unwrap();
        // The receiver pumps until the link closes (a peer still driving
        // the protocol), so the flush Ping gets its Ack.
        let reader = std::thread::spawn(move || {
            let first = b.recv(None).unwrap();
            while b.recv(Some(Duration::from_millis(200))).is_ok() {}
            (first, b.telemetry())
        });
        a.flush(Duration::from_secs(2)).unwrap();
        assert_eq!(a.telemetry().retransmits, 0, "healthy link must not replay");
        drop(a); // closes the link, releasing the reader
        let (first, tel) = reader.join().unwrap();
        assert_eq!(&first[..], &[9]);
        assert_eq!(tel.duplicates, 0, "flush over a healthy link sent duplicates");
    }

    #[test]
    fn flush_repairs_a_dropped_tail_frame() {
        use std::sync::atomic::{AtomicU64, Ordering};

        /// Swallows exactly one send (by outgoing index) — the tail-loss
        /// scenario `flush` exists for.
        struct DropNth {
            inner: Arc<dyn Transport>,
            n: u64,
            sent: AtomicU64,
        }
        impl Transport for DropNth {
            fn send(&self, bytes: Bytes) -> Result<(), TransportError> {
                if self.sent.fetch_add(1, Ordering::SeqCst) == self.n {
                    return Ok(());
                }
                self.inner.send(bytes)
            }
            fn recv(&self, deadline: Option<Duration>) -> Result<Bytes, TransportError> {
                self.inner.recv(deadline)
            }
            fn shutdown(&self) {
                self.inner.shutdown();
            }
            fn reconnect(&self) -> Result<(), TransportError> {
                self.inner.reconnect()
            }
            fn supports_reconnect(&self) -> bool {
                self.inner.supports_reconnect()
            }
            fn descriptor(&self) -> String {
                format!("drop-nth({})", self.inner.descriptor())
            }
        }

        let cfg =
            SessionConfig { probe_interval: Duration::from_millis(10), ..SessionConfig::default() };
        let (raw_a, raw_b) = mem_pair();
        // Outgoing sends: 0 = data [1], 1 = data [2] (dropped tail).
        let lossy = DropNth { inner: Arc::new(raw_a), n: 1, sent: AtomicU64::new(0) };
        let a = Session::new(Arc::new(lossy), cfg);
        let b = Session::new(Arc::new(raw_b), cfg);
        a.send(Bytes::from(vec![1])).unwrap();
        a.send(Bytes::from(vec![2])).unwrap();
        let reader = std::thread::spawn(move || {
            let one = b.recv(None).unwrap();
            let two = b.recv(None).unwrap();
            while b.recv(Some(Duration::from_millis(200))).is_ok() {}
            (one, two)
        });
        // Without the flush, dropping `a` here would strand frame [2]
        // forever; with it, the Ping solicits an Ack exposing the gap and
        // the tail is replayed.
        a.flush(Duration::from_secs(5)).unwrap();
        assert!(a.telemetry().retransmits >= 1, "the dropped tail must be replayed");
        drop(a);
        let (one, two) = reader.join().unwrap();
        assert_eq!(&one[..], &[1]);
        assert_eq!(&two[..], &[2]);
    }

    #[test]
    fn recv_deadline_surfaces_timeout() {
        let cfg =
            SessionConfig { probe_interval: Duration::from_millis(10), ..SessionConfig::default() };
        let (a, _b) = session_pair(cfg);
        assert_eq!(a.recv(Some(Duration::from_millis(30))), Err(TransportError::Timeout));
    }

    #[test]
    fn silence_exhausts_probes() {
        let cfg = SessionConfig {
            probe_interval: Duration::from_millis(5),
            max_probes: 3,
            ..SessionConfig::default()
        };
        let (a, _b) = session_pair(cfg);
        assert!(matches!(a.recv(None), Err(TransportError::RetriesExhausted(_))));
    }

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn attached_metrics_mirror_telemetry() {
        let cfg = SessionConfig {
            probe_interval: Duration::from_millis(5),
            max_probes: 2,
            ..SessionConfig::default()
        };
        let (a, b) = session_pair(cfg);
        // One Nak accrues before the registry exists…
        let _ = a.recv(Some(Duration::from_millis(20)));
        let pre_naks = a.telemetry().naks_sent;
        let reg = MetricsRegistry::new();
        a.attach_metrics(&reg);
        // …and more afterwards; the export must equal the full telemetry.
        let _ = a.recv(Some(Duration::from_millis(20)));
        b.send(Bytes::from(vec![7])).unwrap();
        a.recv(None).unwrap();
        let t = a.telemetry();
        assert!(t.naks_sent > pre_naks || pre_naks > 0);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["session.naks_sent"], t.naks_sent);
        assert_eq!(snap.counters["session.retransmits"], t.retransmits);
        assert_eq!(snap.counters["session.reconnects"], t.reconnects);
        assert_eq!(snap.counters["session.backoff_sleeps"], t.backoff_sleeps);
    }

    /// `/sessions` reads a session's counters while its worker is parked
    /// in `recv` on a silent peer; `recv` holds the session lock for its
    /// whole wait, so the read must not need it. The link signals when the
    /// session has entered its (locked) receive and then stays silent
    /// until released — before the counters left the lock, `telemetry`
    /// returned only after the receive gave up.
    #[test]
    fn telemetry_does_not_wait_for_an_in_flight_recv() {
        use std::sync::mpsc::{channel, Receiver, Sender};

        struct Parked {
            entered: Sender<()>,
            release: Mutex<Receiver<()>>,
        }
        impl Transport for Parked {
            fn send(&self, _bytes: Bytes) -> Result<(), TransportError> {
                Ok(())
            }
            fn recv(&self, _deadline: Option<Duration>) -> Result<Bytes, TransportError> {
                let _ = self.entered.send(());
                let _ = self.release.lock().unwrap().recv_timeout(Duration::from_secs(5));
                Err(TransportError::Timeout)
            }
            fn shutdown(&self) {}
            fn descriptor(&self) -> String {
                "parked".into()
            }
        }

        let (entered_tx, entered) = channel();
        let (release, release_rx) = channel();
        let link = Parked { entered: entered_tx, release: Mutex::new(release_rx) };
        let session = Arc::new(Session::new(Arc::new(link), SessionConfig::default()));
        let worker = {
            let session = Arc::clone(&session);
            std::thread::spawn(move || session.recv(Some(Duration::from_secs(5))))
        };
        entered.recv().expect("session entered its receive");
        assert_eq!(session.telemetry(), SessionTelemetry::default());
        // Still parked: the read came back while `recv` held the lock.
        assert!(!worker.is_finished(), "telemetry waited out the receive");
        release.send(()).expect("link still parked");
        drop(release);
        assert!(worker.join().unwrap().is_err(), "the silent link never delivers");
    }

    #[test]
    fn mismatched_stream_frames_are_counted_and_dropped() {
        let cfg =
            SessionConfig { probe_interval: Duration::from_millis(10), ..SessionConfig::default() };
        let (raw_a, raw_b) = mem_pair();
        let (raw_a, raw_b) = (Arc::new(raw_a), Arc::new(raw_b));
        let a = Session::with_stream(raw_a, cfg, 7);
        // A frame from stream 9 must not advance stream 7's sequencing.
        raw_b.send(Bytes::from(Frame::data(0, 0, vec![1]).on_stream(9).encode())).unwrap();
        assert_eq!(a.recv(Some(Duration::from_millis(40))), Err(TransportError::Timeout));
        assert_eq!(a.telemetry().misrouted, 1);
        // The right stream still delivers.
        raw_b.send(Bytes::from(Frame::data(0, 0, vec![2]).on_stream(7).encode())).unwrap();
        assert_eq!(&a.recv(None).unwrap()[..], &[2]);
    }

    #[test]
    fn shed_frame_surfaces_typed_error() {
        let (raw_a, raw_b) = mem_pair();
        let a = Session::with_stream(Arc::new(raw_a), SessionConfig::default(), 3);
        raw_b
            .send(Bytes::from(Frame::control(FrameKind::Shed, 0, 0).on_stream(3).encode()))
            .unwrap();
        assert_eq!(a.recv(None), Err(TransportError::Shed));
    }

    #[test]
    fn per_stream_metrics_use_namespaced_names() {
        let cfg = SessionConfig {
            probe_interval: Duration::from_millis(5),
            max_probes: 2,
            ..SessionConfig::default()
        };
        let (raw_a, _raw_b) = mem_pair();
        let a = Session::with_stream(Arc::new(raw_a), cfg, 42);
        let reg = MetricsRegistry::new();
        a.attach_metrics(&reg);
        let _ = a.recv(Some(Duration::from_millis(20)));
        let snap = reg.snapshot();
        assert!(snap.counters.contains_key("session.42.naks_sent"));
        assert!(!snap.counters.contains_key("session.naks_sent"));
    }

    #[test]
    fn replay_prunes_on_piggybacked_acks() {
        let (a, b) = session_pair(SessionConfig::default());
        for i in 0..5u8 {
            a.send(Bytes::from(vec![i])).unwrap();
        }
        for _ in 0..5 {
            b.recv(None).unwrap();
        }
        // b replies; its frame acks everything a sent.
        b.send(Bytes::from(vec![9])).unwrap();
        a.recv(None).unwrap();
        let st = a.lock();
        assert!(st.replay.is_empty(), "replay still holds {} frames", st.replay.len());
        assert_eq!(st.peer_acked, 5);
    }
}
