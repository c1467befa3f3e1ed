//! Last-activity tracking around a raw transport, feeding the reaper.

use aq2pnn_transport::{Bytes, Transport, TransportError};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wraps a transport and stamps a monotonic last-activity clock on every
/// **successful receive** — evidence the peer is alive. Sends are
/// deliberately not stamped: our own traffic says nothing about whether
/// the peer still answers, and counting it would keep a black-holed
/// client alive. The server's reaper reads the clock
/// to find idle (slow-loris) sessions; [`Self::close`] marks a
/// reaper-initiated teardown so the session worker can attribute the
/// resulting `Disconnected` to the deadline rather than to the client.
pub struct ActivityTransport {
    inner: Arc<dyn Transport>,
    /// Milliseconds since `epoch` of the most recent activity.
    last_ms: AtomicU64,
    /// Set once the server side tore the link down (reaper or drain).
    closed: AtomicBool,
    epoch: Instant,
}

impl ActivityTransport {
    /// Wraps `inner`; the activity clock starts "just now".
    #[must_use]
    pub fn new(inner: Arc<dyn Transport>) -> ActivityTransport {
        ActivityTransport {
            inner,
            last_ms: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            epoch: Instant::now(),
        }
    }

    fn stamp(&self) {
        let ms = u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX);
        self.last_ms.store(ms, Ordering::Relaxed);
    }

    /// Time since the last successful receive (peer-observed liveness).
    #[must_use]
    pub fn idle_for(&self) -> Duration {
        let now = u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX);
        Duration::from_millis(now.saturating_sub(self.last_ms.load(Ordering::Relaxed)))
    }

    /// Server-initiated teardown (reaper deadline, drain force-close).
    /// Distinguishable from a client fault via [`Self::was_closed`].
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.inner.shutdown();
    }

    /// Whether [`Self::close`] ran.
    #[must_use]
    pub fn was_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }
}

impl Transport for ActivityTransport {
    fn send(&self, bytes: Bytes) -> Result<(), TransportError> {
        self.inner.send(bytes)
    }

    fn recv(&self, deadline: Option<Duration>) -> Result<Bytes, TransportError> {
        let got = self.inner.recv(deadline)?;
        self.stamp();
        Ok(got)
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }

    fn descriptor(&self) -> String {
        format!("activity({})", self.inner.descriptor())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aq2pnn_transport::mem_pair;

    #[test]
    fn traffic_resets_the_idle_clock_and_close_is_attributed() {
        let (a, b) = mem_pair();
        let a = ActivityTransport::new(Arc::new(a));
        std::thread::sleep(Duration::from_millis(20));
        assert!(a.idle_for() >= Duration::from_millis(10));
        // Our own sends are NOT activity (the peer may be dead); only
        // receiving from the peer resets the clock.
        a.send(Bytes::from_static(b"x")).unwrap();
        assert!(a.idle_for() >= Duration::from_millis(10));
        assert_eq!(&b.recv(Some(Duration::from_millis(50))).unwrap()[..], b"x");
        b.send(Bytes::from_static(b"y")).unwrap();
        assert_eq!(&a.recv(Some(Duration::from_millis(50))).unwrap()[..], b"y");
        assert!(a.idle_for() < Duration::from_millis(10));
        assert!(!a.was_closed());
        a.close();
        assert!(a.was_closed());
        assert_eq!(b.recv(Some(Duration::from_millis(50))), Err(TransportError::Disconnected));
    }
}
