//! The session layer: stream-stamped, sequence-checked, checksummed frames
//! over any [`Transport`].
//!
//! TCP is the only reliability mechanism on the served link: it never
//! hands userspace a dropped, duplicated, reordered or bit-flipped frame.
//! A [`Session`] therefore repairs nothing. It stamps every outgoing
//! message into a Data [`Frame`] with its stream ID and the next
//! consecutive sequence number, and checks every incoming frame. Whatever
//! a correct peer over TCP cannot produce is a typed error scoped to this
//! session:
//!
//! * a frame that fails the CRC, or any other header check, is
//!   [`TransportError::Corrupt`];
//! * a frame stamped with another stream ID is [`TransportError::Corrupt`];
//! * a Data frame whose `seq` is not the next one (a replay, a skip) is
//!   [`TransportError::SequenceGap`];
//! * a `Shed` frame is [`TransportError::Shed`], and a peer speaking
//!   another frame version is [`TransportError::VersionMismatch`].
//!
//! A lost link is the transport's [`TransportError::Disconnected`]. The
//! session ends there; a client that wants another try dials again and
//! starts a new session.
//!
//! One thread sends and one thread receives at a time. The session holds
//! nothing across a blocking link call, so the two never wait for each
//! other here (the link below may still serialize them). Concurrent sends
//! on one session have no defined order, and the peer reports a
//! reordering as a [`TransportError::SequenceGap`].
//!
//! Every header field an eavesdropper sees (kind, stream, seq, length) is
//! a function of the message *schedule*, which both parties already know,
//! never of secret payloads. See DESIGN.md §9.

use crate::frame::{Frame, FrameKind};
use crate::transport::Transport;
use crate::TransportError;
use bytes::Bytes;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// The configuration of a [`Session`]. A session has no knobs; the type
/// remains so that [`Session::new`] keeps its signature.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionConfig;

/// A checked message channel over a [`Transport`].
///
/// `Session` itself implements [`Transport`], so an [`crate::Endpoint`]
/// can sit on top of it unchanged; byte accounting at the endpoint level
/// keeps counting application payloads only, exactly as over the
/// in-process link.
pub struct Session {
    link: Arc<dyn Transport>,
    /// Stream ID stamped on every outgoing frame and required on every
    /// incoming one.
    stream: u64,
    next_send_seq: AtomicU64,
    next_recv_seq: AtomicU64,
    /// When `Some`, every frame written to the link is appended: the
    /// eavesdropper's true wire view, used by the leakage harness.
    wire_capture: Mutex<Option<Vec<Vec<u8>>>>,
}

impl Drop for Session {
    /// Dropping the session closes the link so a peer blocked in `recv`
    /// observes `Disconnected` instead of hanging (mirrors
    /// [`crate::MemTransport`]'s drop behavior).
    fn drop(&mut self) {
        self.link.shutdown();
    }
}

impl Session {
    /// Wraps `link` in a session on stream 0 (the point-to-point default).
    #[must_use]
    pub fn new(link: Arc<dyn Transport>, _cfg: SessionConfig) -> Self {
        Session::with_stream(link, 0)
    }

    /// Wraps `link` in a session bound to `stream`, the ID a multi-tenant
    /// server assigned at admission. Both ends of one logical session must
    /// agree on the ID; a frame stamped otherwise ends the session.
    #[must_use]
    pub fn with_stream(link: Arc<dyn Transport>, stream: u64) -> Self {
        Session {
            link,
            stream,
            next_send_seq: AtomicU64::new(0),
            next_recv_seq: AtomicU64::new(0),
            wire_capture: Mutex::new(None),
        }
    }

    /// The stream ID this session stamps on its frames.
    #[must_use]
    pub fn stream(&self) -> u64 {
        self.stream
    }

    /// Starts capturing every frame written to the link. Discards any
    /// prior capture.
    pub fn start_wire_capture(&self) {
        *self.capture() = Some(Vec::new());
    }

    /// Stops capturing and returns the frames in write order.
    pub fn take_wire_capture(&self) -> Vec<Vec<u8>> {
        self.capture().take().unwrap_or_default()
    }

    // sync: allow(guard-escape, "single poison-recovery point; callers hold the capture for one push or take")
    fn capture(&self) -> std::sync::MutexGuard<'_, Option<Vec<Vec<u8>>>> {
        self.wire_capture.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Checks one incoming frame against this session: its stream, its
    /// kind, and its place in the sequence.
    fn accept(&self, frame: Frame) -> Result<Bytes, TransportError> {
        if frame.stream != self.stream {
            return Err(TransportError::Corrupt(format!(
                "frame for stream {} on stream {}",
                frame.stream, self.stream
            )));
        }
        match frame.kind {
            FrameKind::Data => {}
            FrameKind::Shed => return Err(TransportError::Shed),
            FrameKind::Hello => {
                return Err(TransportError::Corrupt("Hello frame inside a session".into()))
            }
        }
        let expected = self.next_recv_seq.load(Ordering::Relaxed);
        if frame.seq != expected {
            return Err(TransportError::SequenceGap { expected, got: frame.seq });
        }
        self.next_recv_seq.store(expected + 1, Ordering::Relaxed);
        Ok(frame.payload)
    }
}

impl Transport for Session {
    fn send(&self, bytes: Bytes) -> Result<(), TransportError> {
        let seq = self.next_send_seq.fetch_add(1, Ordering::Relaxed);
        let encoded = Frame::encode_data(self.stream, seq, &bytes);
        {
            // Scoped: the capture guard is released before the blocking send.
            let mut capture = self.capture();
            if let Some(cap) = capture.as_mut() {
                cap.push(encoded.clone());
            }
        }
        self.link.send(Bytes::from(encoded))
    }

    fn recv(&self, deadline: Option<Duration>) -> Result<Bytes, TransportError> {
        let bytes = self.link.recv(deadline)?;
        self.accept(Frame::decode(&bytes)?)
    }

    fn shutdown(&self) {
        self.link.shutdown();
    }

    fn descriptor(&self) -> String {
        format!("session({})", self.link.descriptor())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::mem_pair;

    /// A session on stream 7 and the raw link its peer writes to.
    fn session_and_raw_peer() -> (Session, Arc<dyn Transport>) {
        let (a, b) = mem_pair();
        (Session::with_stream(Arc::new(a), 7), Arc::new(b))
    }

    fn inject(raw: &Arc<dyn Transport>, frame: &[u8]) {
        raw.send(Bytes::from(frame.to_vec())).unwrap();
    }

    #[test]
    fn in_order_roundtrip() {
        let (a, b) = mem_pair();
        let (a, b) =
            (Session::new(Arc::new(a), SessionConfig), Session::new(Arc::new(b), SessionConfig));
        a.send(Bytes::from(vec![1])).unwrap();
        a.send(Bytes::from(vec![2, 2])).unwrap();
        assert_eq!(&b.recv(None).unwrap()[..], &[1]);
        assert_eq!(&b.recv(None).unwrap()[..], &[2, 2]);
        b.send(Bytes::from(vec![3])).unwrap();
        assert_eq!(&a.recv(None).unwrap()[..], &[3]);
    }

    #[test]
    fn recv_deadline_surfaces_timeout() {
        let (a, _b) = session_and_raw_peer();
        assert_eq!(a.recv(Some(Duration::from_millis(30))), Err(TransportError::Timeout));
    }

    #[test]
    fn bit_flipped_frame_is_corrupt() {
        let (a, raw) = session_and_raw_peer();
        let mut frame = Frame::data(0, vec![1, 2, 3]).on_stream(7).encode();
        let last = frame.len() - 1;
        frame[last] ^= 0x10;
        inject(&raw, &frame);
        assert!(matches!(a.recv(None), Err(TransportError::Corrupt(_))));
    }

    #[test]
    fn replayed_data_frame_is_a_sequence_gap() {
        let (a, raw) = session_and_raw_peer();
        let frame = Frame::data(0, vec![1]).on_stream(7).encode();
        inject(&raw, &frame);
        inject(&raw, &frame);
        assert_eq!(&a.recv(None).unwrap()[..], &[1]);
        assert_eq!(a.recv(None), Err(TransportError::SequenceGap { expected: 1, got: 0 }));
    }

    #[test]
    fn skipped_seq_is_a_sequence_gap() {
        let (a, raw) = session_and_raw_peer();
        inject(&raw, &Frame::data(1, vec![1]).on_stream(7).encode());
        assert_eq!(a.recv(None), Err(TransportError::SequenceGap { expected: 0, got: 1 }));
    }

    #[test]
    fn foreign_stream_frame_is_corrupt() {
        let (a, raw) = session_and_raw_peer();
        inject(&raw, &Frame::data(0, vec![1]).on_stream(9).encode());
        assert!(matches!(a.recv(None), Err(TransportError::Corrupt(_))));
    }

    #[test]
    fn old_ack_kind_is_corrupt() {
        // Kind byte 1 was the standalone Ack of frame version 2; the kind
        // check precedes the CRC, so no checksum fix-up is needed.
        let (a, raw) = session_and_raw_peer();
        let mut frame = Frame::control(FrameKind::Data, 0, 0).on_stream(7).encode();
        frame[3] = 1;
        inject(&raw, &frame);
        assert!(matches!(a.recv(None), Err(TransportError::Corrupt(_))));
    }

    #[test]
    fn shed_frame_surfaces_typed_error() {
        let (raw_a, raw_b) = mem_pair();
        let a = Session::with_stream(Arc::new(raw_a), 3);
        raw_b
            .send(Bytes::from(Frame::control(FrameKind::Shed, 0, 0).on_stream(3).encode()))
            .unwrap();
        assert_eq!(a.recv(None), Err(TransportError::Shed));
    }

    /// A session holds nothing across a blocking receive: a send issued
    /// while another thread waits in `recv` on a silent peer goes out at
    /// once.
    #[test]
    fn send_does_not_wait_for_an_in_flight_recv() {
        use std::sync::mpsc::{channel, Sender};

        /// Signals once when the session enters its receive.
        struct Announcing {
            inner: crate::MemTransport,
            entered: Mutex<Option<Sender<()>>>,
        }
        impl Transport for Announcing {
            fn send(&self, bytes: Bytes) -> Result<(), TransportError> {
                self.inner.send(bytes)
            }
            fn recv(&self, deadline: Option<Duration>) -> Result<Bytes, TransportError> {
                if let Some(entered) = self.entered.lock().unwrap().take() {
                    let _ = entered.send(());
                }
                self.inner.recv(deadline)
            }
            fn shutdown(&self) {
                self.inner.shutdown();
            }
            fn descriptor(&self) -> String {
                "announcing".into()
            }
        }

        let (a, raw) = mem_pair();
        let (entered_tx, entered) = channel();
        let link = Announcing { inner: a, entered: Mutex::new(Some(entered_tx)) };
        let session = Arc::new(Session::with_stream(Arc::new(link), 7));
        let waiter = {
            let session = Arc::clone(&session);
            std::thread::spawn(move || session.recv(Some(Duration::from_secs(5))))
        };
        entered.recv().expect("the session entered its receive");
        session.send(Bytes::from(vec![4])).unwrap();
        let frame = Frame::decode(&raw.recv(Some(Duration::from_secs(1))).unwrap()).unwrap();
        assert_eq!((frame.stream, frame.seq, &frame.payload[..]), (7, 0, &[4][..]));
        assert!(!waiter.is_finished(), "the receive returned before its peer spoke");
        raw.send(Bytes::from(Frame::data(0, vec![5]).on_stream(7).encode())).unwrap();
        assert_eq!(&waiter.join().unwrap().unwrap()[..], &[5]);
    }
}
