//! The [`Endpoint`] accounting layer: phase-labeled byte/round counters
//! over any [`Transport`].
//!
//! An `Endpoint` counts **application payload bytes** — the quantity the
//! paper's tables report and the INST-Q compiler predicts. Session framing
//! and TCP length prefixes live *below* this layer (see
//! [`crate::Session`]), so `compiled bytes == measured bytes` holds over a
//! TCP link exactly as it does in-process.

use crate::transport::{mem_pair, Transport};
use crate::{pack_bits, packed_len, unpack_bits, ChannelStats, TransportError};
use aq2pnn_parallel::sync::Mutex;
use bytes::Bytes;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

#[derive(Default)]
struct EndpointState {
    stats: ChannelStats,
    phase: String,
    receiving: bool,
    /// When `Some`, every sent message's bytes are appended here — the
    /// transcript-uniformity leakage harness reads the raw wire view an
    /// eavesdropper (or the peer) would observe.
    capture: Option<Vec<Vec<u8>>>,
}

/// One end of a bidirectional party-to-party channel.
///
/// Endpoints are cheap to clone (`Arc` internals) so a party can hand the
/// same link to several protocol modules; counters are shared across clones.
///
/// All sends are counted against the endpoint's current *phase* label (see
/// [`Endpoint::set_phase`]), enabling the operator-wise communication
/// profiling of paper Table 5.
#[derive(Clone)]
pub struct Endpoint {
    link: Arc<dyn Transport>,
    state: Arc<Mutex<EndpointState>>,
    /// Deadline applied by [`Endpoint::recv`] when set; `None` blocks
    /// forever, matching the historical in-process behavior.
    default_deadline: Option<Duration>,
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.lock();
        f.debug_struct("Endpoint")
            .field("link", &self.link.descriptor())
            .field("phase", &state.phase)
            .field("bytes_sent", &state.stats.bytes_sent)
            .field("bytes_received", &state.stats.bytes_received)
            .finish()
    }
}

/// Restores an endpoint's previous phase label on drop.
/// Created by [`Endpoint::phase_scope`].
#[must_use = "dropping the guard immediately restores the previous phase"]
pub struct PhaseGuard {
    ep: Endpoint,
    prev: String,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        self.ep.set_phase(std::mem::take(&mut self.prev));
    }
}

/// Creates a connected pair of [`Endpoint`]s — the 2PC link between party
/// *i* and party *j* — over an in-process transport.
#[must_use]
pub fn duplex() -> (Endpoint, Endpoint) {
    duplex_with_timeout(None)
}

/// Like [`duplex`], but every [`Endpoint::recv`] applies `timeout` as its
/// deadline, turning a silently hung protocol thread into a typed
/// [`TransportError::Timeout`].
#[must_use]
pub fn duplex_with_timeout(timeout: Option<Duration>) -> (Endpoint, Endpoint) {
    let (a, b) = mem_pair();
    (Endpoint::over_transport(Arc::new(a), timeout), Endpoint::over_transport(Arc::new(b), timeout))
}

impl Endpoint {
    /// Wraps an arbitrary [`Transport`] (a [`crate::Session`] over TCP, a
    /// [`crate::FaultyTransport`], …) in the accounting layer. Protocol
    /// code upward is oblivious to what carries its bytes.
    #[must_use]
    pub fn over_transport(link: Arc<dyn Transport>, default_deadline: Option<Duration>) -> Self {
        Endpoint { link, state: Arc::new(Mutex::new(EndpointState::default())), default_deadline }
    }

    /// Description of the underlying link (for diagnostics).
    #[must_use]
    pub fn link_descriptor(&self) -> String {
        self.link.descriptor()
    }

    /// Labels subsequent traffic with `phase` for per-operator accounting.
    pub fn set_phase(&self, phase: impl Into<String>) {
        self.state.lock().phase = phase.into();
    }

    /// The current phase label.
    #[must_use]
    pub fn phase(&self) -> String {
        self.state.lock().phase.clone()
    }

    /// Switches to `phase` and returns a guard that restores the previous
    /// label when dropped. Unlike a manual `set_phase` save/restore pair,
    /// scopes nest safely (LIFO) and survive early returns — the fix for
    /// misattribution when e.g. an offline weight-mask opening runs inside
    /// an online layer phase and something unwinds midway.
    pub fn phase_scope(&self, phase: impl Into<String>) -> PhaseGuard {
        let prev = {
            let mut st = self.state.lock();
            std::mem::replace(&mut st.phase, phase.into())
        };
        PhaseGuard { ep: self.clone(), prev }
    }

    /// Snapshot of the accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> ChannelStats {
        self.state.lock().stats.clone()
    }

    /// Cheap scalar totals (no per-phase map clone) — the delta source for
    /// per-span byte attribution.
    #[must_use]
    pub fn totals(&self) -> crate::ChannelTotals {
        self.state.lock().stats.totals()
    }

    /// Resets all counters (phase label is kept).
    pub fn reset_stats(&self) {
        let mut st = self.state.lock();
        st.stats = ChannelStats::default();
        st.receiving = false;
    }

    /// Starts capturing the raw bytes of every subsequent send. Any
    /// previously captured transcript is discarded.
    ///
    /// The capture is the eavesdropper's view of this endpoint's outbound
    /// traffic; the leakage harness compares captures across secret inputs
    /// to check the transcript carries no plaintext-dependent signal.
    pub fn start_capture(&self) {
        self.state.lock().capture = Some(Vec::new());
    }

    /// Stops capturing and returns the captured messages (in send order).
    /// Returns an empty list if capture was never started.
    #[must_use]
    pub fn take_capture(&self) -> Vec<Vec<u8>> {
        self.state.lock().capture.take().unwrap_or_default()
    }

    /// Sends a raw byte message to the peer.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Disconnected`] if the peer dropped, or any
    /// error surfaced by the underlying link.
    pub fn send(&self, bytes: Bytes) -> Result<(), TransportError> {
        // Deliver first, account after: a failed send reached neither the
        // wire nor the eavesdropper, so it must not move counters, flip the
        // round direction, or enter the transcript capture.
        let len = bytes.len() as u64;
        let captured = {
            let st = self.state.lock();
            st.capture.is_some().then(|| bytes.to_vec())
        };
        self.link.send(bytes)?;
        let mut st = self.state.lock();
        let was_receiving = st.receiving;
        st.receiving = false;
        let phase = st.phase.clone();
        st.stats.record_send(&phase, len, was_receiving);
        if let (Some(cap), Some(raw)) = (&mut st.capture, captured) {
            cap.push(raw);
        }
        Ok(())
    }

    /// Receives the next raw byte message from the peer, blocking at most
    /// for the endpoint's default deadline (forever when none was set).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Disconnected`] if the peer dropped,
    /// [`TransportError::Timeout`] when a default deadline expires.
    pub fn recv(&self) -> Result<Bytes, TransportError> {
        self.recv_deadline(self.default_deadline)
    }

    /// Receives the next raw byte message, blocking at most until
    /// `deadline` (forever when `None`).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Timeout`] when the deadline expires,
    /// [`TransportError::Disconnected`] if the peer dropped.
    pub fn recv_deadline(&self, deadline: Option<Duration>) -> Result<Bytes, TransportError> {
        let bytes = self.link.recv(deadline)?;
        let mut st = self.state.lock();
        st.receiving = true;
        let phase = st.phase.clone();
        st.stats.record_recv(&phase, bytes.len() as u64);
        Ok(bytes)
    }

    /// Sends `elems` bit-packed at `bits` per element — the FPGA wire format
    /// (`⌈n·bits/8⌉` bytes).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Disconnected`] if the peer dropped.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `1..=64`.
    pub fn send_bits(&self, elems: &[u64], bits: u32) -> Result<(), TransportError> {
        self.send(Bytes::from(pack_bits(elems, bits)))
    }

    /// Receives `count` elements bit-packed at `bits` per element.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Disconnected`] if the peer dropped, or
    /// [`TransportError::Corrupt`] when the received message is shorter
    /// than the packed length — a framing desync, not a panic.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `1..=64`.
    pub fn recv_bits(&self, bits: u32, count: usize) -> Result<Vec<u64>, TransportError> {
        let bytes = self.recv()?;
        let need = packed_len(bits, count);
        if bytes.len() < need {
            return Err(TransportError::Corrupt(format!(
                "bit-packed message too short: got {} bytes, expected {need} \
                 ({count} elems at {bits} bits)",
                bytes.len()
            )));
        }
        Ok(unpack_bits(&bytes, bits, count))
    }

    /// Simultaneous exchange: sends `elems` and receives the peer's `count`
    /// elements, both bit-packed at `bits`.
    ///
    /// This is the "Data Exchange" step of the paper's workflow (Step 5 /
    /// mask reveal in Beaver multiplication) where both parties transmit at
    /// once.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Disconnected`] if the peer dropped.
    pub fn exchange_bits(
        &self,
        elems: &[u64],
        bits: u32,
        count: usize,
    ) -> Result<Vec<u64>, TransportError> {
        self.send_bits(elems, bits)?;
        self.recv_bits(bits, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_roundtrip() {
        let (a, b) = duplex();
        a.send(Bytes::from_static(b"hello")).unwrap();
        assert_eq!(&b.recv().unwrap()[..], b"hello");
        assert_eq!(a.stats().bytes_sent, 5);
        assert_eq!(b.stats().bytes_received, 5);
    }

    #[test]
    fn bits_roundtrip_counts_packed_bytes() {
        let (a, b) = duplex();
        a.send_bits(&[1, 2, 3, 4], 12).unwrap();
        assert_eq!(b.recv_bits(12, 4).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(a.stats().bytes_sent, 6); // 48 bits
    }

    #[test]
    fn disconnect_detected() {
        let (a, b) = duplex();
        drop(b);
        assert_eq!(a.send(Bytes::from_static(b"x")), Err(TransportError::Disconnected));
        assert_eq!(a.recv(), Err(TransportError::Disconnected));
    }

    #[test]
    fn default_deadline_times_out() {
        let (a, _b) = duplex_with_timeout(Some(Duration::from_millis(5)));
        assert_eq!(a.recv(), Err(TransportError::Timeout));
    }

    #[test]
    fn recv_deadline_overrides() {
        let (a, b) = duplex();
        assert_eq!(a.recv_deadline(Some(Duration::from_millis(5))), Err(TransportError::Timeout));
        b.send(Bytes::from_static(b"late")).unwrap();
        assert_eq!(&a.recv_deadline(Some(Duration::from_millis(100))).unwrap()[..], b"late");
    }

    #[test]
    fn short_bits_message_is_corrupt_not_panic() {
        let (a, b) = duplex();
        a.send(Bytes::from_static(b"\x01")).unwrap(); // 1 byte
        let err = b.recv_bits(16, 4).unwrap_err(); // needs 8 bytes
        assert!(matches!(err, TransportError::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn rounds_count_direction_flips() {
        let (a, b) = duplex();
        // a: send, recv, send => 2 rounds initiated by a (first send from
        // idle state counts 0; a send after a receive counts 1).
        a.send(Bytes::from_static(b"1")).unwrap();
        b.recv().unwrap();
        b.send(Bytes::from_static(b"2")).unwrap();
        a.recv().unwrap();
        a.send(Bytes::from_static(b"3")).unwrap();
        b.recv().unwrap();
        assert_eq!(a.stats().rounds, 1);
        assert_eq!(b.stats().rounds, 1);
    }

    #[test]
    fn phases_attribute_traffic() {
        let (a, b) = duplex();
        a.set_phase("conv");
        a.send_bits(&[0; 8], 16).unwrap();
        a.set_phase("relu");
        a.send_bits(&[0; 4], 16).unwrap();
        b.recv().unwrap();
        b.recv().unwrap();
        let st = a.stats();
        assert_eq!(st.phase("conv").bytes_sent, 16);
        assert_eq!(st.phase("relu").bytes_sent, 8);
    }

    #[test]
    fn failed_send_is_not_counted_or_captured() {
        // Regression: a send that never reached the wire used to move the
        // byte/message counters, flip the round direction, and land in the
        // leakage-harness capture.
        let (a, b) = duplex();
        a.start_capture();
        a.send(Bytes::from_static(b"ok")).unwrap();
        b.recv().unwrap();
        drop(b);
        assert_eq!(a.send(Bytes::from_static(b"lost")), Err(TransportError::Disconnected));
        let st = a.stats();
        assert_eq!(st.bytes_sent, 2, "failed send must not count bytes");
        assert_eq!(st.messages_sent, 1, "failed send must not count a message");
        assert_eq!(a.take_capture(), vec![b"ok".to_vec()], "failed send must not be captured");
    }

    #[test]
    fn phase_scopes_nest_and_restore() {
        let (a, b) = duplex();
        a.set_phase("conv0");
        {
            let _offline = a.phase_scope("offline-f");
            a.send(Bytes::from_static(b"mask")).unwrap();
            {
                let _inner = a.phase_scope("offline-f/resync");
                a.send(Bytes::from_static(b"rs")).unwrap();
            }
            // Inner scope restored the outer offline label, not "conv0".
            assert_eq!(a.phase(), "offline-f");
            a.send(Bytes::from_static(b"mask2")).unwrap();
        }
        assert_eq!(a.phase(), "conv0");
        a.send(Bytes::from_static(b"x")).unwrap();
        for _ in 0..4 {
            b.recv().unwrap();
        }
        let st = a.stats();
        assert_eq!(st.phase("offline-f").bytes_sent, 9);
        assert_eq!(st.phase("offline-f/resync").bytes_sent, 2);
        assert_eq!(st.phase("conv0").bytes_sent, 1);
    }

    #[test]
    fn per_phase_rounds_attribute_to_sending_phase() {
        let (a, b) = duplex();
        let t = std::thread::spawn(move || {
            b.recv().unwrap();
            b.send(Bytes::from_static(b"r")).unwrap();
            b.recv().unwrap();
        });
        a.set_phase("gemm");
        a.send(Bytes::from_static(b"q")).unwrap();
        a.recv().unwrap();
        a.set_phase("abrelu");
        a.send(Bytes::from_static(b"s")).unwrap(); // flip happens here
        t.join().unwrap();
        let st = a.stats();
        assert_eq!(st.rounds, 1);
        assert_eq!(st.phase("abrelu").rounds, 1, "round charged to the sending phase");
        assert_eq!(st.phase("gemm").rounds, 0);
    }

    #[test]
    fn totals_match_stats() {
        let (a, b) = duplex();
        a.send(Bytes::from_static(b"abc")).unwrap();
        b.recv().unwrap();
        b.send(Bytes::from_static(b"d")).unwrap();
        a.recv().unwrap();
        assert_eq!(a.totals(), a.stats().totals());
        assert_eq!(a.totals().total_bytes(), 4);
    }

    #[test]
    fn exchange_on_two_threads() {
        let (a, b) = duplex();
        let t = std::thread::spawn(move || b.exchange_bits(&[9, 8], 8, 2).unwrap());
        let got_a = a.exchange_bits(&[1, 2], 8, 2).unwrap();
        let got_b = t.join().unwrap();
        assert_eq!(got_a, vec![9, 8]);
        assert_eq!(got_b, vec![1, 2]);
    }

    #[test]
    fn clones_share_counters() {
        let (a, b) = duplex();
        let a2 = a.clone();
        a.send(Bytes::from_static(b"xy")).unwrap();
        a2.send(Bytes::from_static(b"z")).unwrap();
        b.recv().unwrap();
        b.recv().unwrap();
        assert_eq!(a.stats().bytes_sent, 3);
        assert_eq!(a.stats().messages_sent, 2);
    }

    #[test]
    fn reset_clears() {
        let (a, b) = duplex();
        a.send(Bytes::from_static(b"abc")).unwrap();
        b.recv().unwrap();
        a.reset_stats();
        assert_eq!(a.stats(), ChannelStats::default());
    }
}
