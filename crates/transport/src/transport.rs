//! The [`Transport`] trait — the pluggable link beneath an
//! [`crate::Endpoint`] — and the in-process [`MemTransport`].
//!
//! A `Transport` moves opaque byte messages between the two parties, in
//! order and intact, until the link fails; after that every call reports
//! a typed error. Both implementations give this guarantee: TCP by its own
//! retransmission, the in-process [`MemTransport`] by construction. Nothing
//! above a transport repairs a link. The [`crate::Session`] layer stamps
//! and checks frames, so a peer that breaks the order anyway is a typed
//! error; [`crate::duplex`] uses the in-process link directly.

use crate::TransportError;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A bidirectional, message-oriented link to the peer party.
///
/// Implementations must be usable from several threads (`Send + Sync`);
/// the [`crate::Endpoint`] above serializes protocol traffic but clones
/// may issue concurrent calls.
pub trait Transport: Send + Sync {
    /// Sends one opaque message to the peer.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] when the link is down, or any
    /// implementation-specific failure.
    fn send(&self, bytes: Bytes) -> Result<(), TransportError>;

    /// Receives the next message, blocking at most until `deadline`
    /// (forever when `None`).
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] when the deadline expires,
    /// [`TransportError::Disconnected`] when the link is down.
    fn recv(&self, deadline: Option<Duration>) -> Result<Bytes, TransportError>;

    /// Tears the link down for good. The peer observes
    /// [`TransportError::Disconnected`].
    fn shutdown(&self);

    /// Human-readable description for diagnostics (`mem`, `tcp:…`).
    fn descriptor(&self) -> String;
}

enum Msg {
    Frame(Bytes),
    Closed,
}

/// One side of an in-process transport pair: reliable, ordered, unbounded.
///
/// This is the crossbeam-backed channel that has always modeled the two
/// ZCU104 boards' link, now behind the [`Transport`] trait. It supports
/// [`Transport::shutdown`]: both sides then observe `Disconnected`.
pub struct MemTransport {
    tx: Sender<Msg>,
    rx: Receiver<Msg>,
    /// Loopback sender into our own queue: lets `shutdown` wake a blocked
    /// local `recv`, and `recv` re-arm the closed marker it consumed.
    self_tx: Sender<Msg>,
    closed: Arc<AtomicBool>,
}

/// Creates a connected in-process transport pair.
#[must_use]
pub fn mem_pair() -> (MemTransport, MemTransport) {
    let (atx, brx) = unbounded();
    let (btx, arx) = unbounded();
    let closed = Arc::new(AtomicBool::new(false));
    let a = MemTransport {
        tx: atx.clone(),
        rx: arx,
        self_tx: btx.clone(),
        closed: Arc::clone(&closed),
    };
    let b = MemTransport { tx: btx, rx: brx, self_tx: atx, closed };
    (a, b)
}

impl Drop for MemTransport {
    /// Dropping one side closes the pair: the loopback sender keeps the
    /// peer's queue alive, so without an explicit close marker the peer
    /// would block forever instead of observing `Disconnected`.
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl MemTransport {
    fn handle_msg(&self, msg: Msg) -> Result<Bytes, TransportError> {
        match msg {
            Msg::Frame(b) => Ok(b),
            Msg::Closed => {
                // Re-arm so later receives (and clones) fail too.
                let _ = self.self_tx.send(Msg::Closed);
                Err(TransportError::Disconnected)
            }
        }
    }
}

impl Transport for MemTransport {
    fn send(&self, bytes: Bytes) -> Result<(), TransportError> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(TransportError::Disconnected);
        }
        self.tx.send(Msg::Frame(bytes)).map_err(|_| TransportError::Disconnected)
    }

    fn recv(&self, deadline: Option<Duration>) -> Result<Bytes, TransportError> {
        match deadline {
            None => {
                let msg = self.rx.recv().map_err(|_| TransportError::Disconnected)?;
                self.handle_msg(msg)
            }
            Some(d) => match self.rx.recv_timeout(d) {
                Ok(msg) => self.handle_msg(msg),
                Err(RecvTimeoutError::Timeout) => Err(TransportError::Timeout),
                Err(RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected),
            },
        }
    }

    fn shutdown(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let _ = self.tx.send(Msg::Closed);
        let _ = self.self_tx.send(Msg::Closed);
    }

    fn descriptor(&self) -> String {
        "mem".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_deadline() {
        let (a, b) = mem_pair();
        a.send(Bytes::from(vec![1, 2, 3])).unwrap();
        assert_eq!(&b.recv(None).unwrap()[..], &[1, 2, 3]);
        assert_eq!(b.recv(Some(Duration::from_millis(5))), Err(TransportError::Timeout));
    }

    #[test]
    fn drop_peer_disconnects() {
        let (a, b) = mem_pair();
        drop(b);
        assert_eq!(a.send(Bytes::from(vec![0])), Err(TransportError::Disconnected));
        assert_eq!(a.recv(None), Err(TransportError::Disconnected));
    }

    #[test]
    fn shutdown_wakes_both_sides_persistently() {
        let (a, b) = mem_pair();
        let waiter = std::thread::spawn(move || b.recv(None));
        std::thread::sleep(Duration::from_millis(10));
        a.shutdown();
        assert_eq!(waiter.join().unwrap(), Err(TransportError::Disconnected));
        assert_eq!(a.recv(Some(Duration::from_millis(5))), Err(TransportError::Disconnected));
        assert_eq!(a.send(Bytes::from(vec![0])), Err(TransportError::Disconnected));
    }
}
