//! Pluggable connection sources for the server's accept loop.
//!
//! The accept loop owns its [`Acceptor`] exclusively (`&mut self`), so
//! implementations need no internal locking. [`TcpAcceptor`] serves real
//! deployments; [`MemAcceptor`]/[`MemConnector`] give tests and benches an
//! in-process many-client harness over [`aq2pnn_transport::MemTransport`].

use aq2pnn_transport::{mem_pair, TcpConfig, TcpTransport, Transport, TransportError};
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A source of freshly connected client transports.
pub trait Acceptor: Send {
    /// Waits up to `deadline` for the next client connection.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] when no client arrived in time (the
    /// accept loop treats this as "poll again"), or
    /// [`TransportError::Disconnected`] when the underlying listener is
    /// gone (the accept loop exits).
    fn accept(&mut self, deadline: Duration) -> Result<Arc<dyn Transport>, TransportError>;

    /// Human-readable description for diagnostics.
    fn descriptor(&self) -> String;
}

/// Accepts clients on a TCP listening socket.
pub struct TcpAcceptor {
    listener: TcpListener,
    cfg: TcpConfig,
}

impl TcpAcceptor {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`]-mapped bind failures.
    pub fn bind(addr: &str, cfg: TcpConfig) -> Result<TcpAcceptor, TransportError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| TransportError::Corrupt(format!("bind {addr}: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| TransportError::Corrupt(format!("nonblocking: {e}")))?;
        Ok(TcpAcceptor { listener, cfg })
    }

    /// The bound local address (the ephemeral port after `bind(":0")`).
    ///
    /// # Errors
    ///
    /// Mapped OS failures querying the socket name.
    pub fn local_addr(&self) -> Result<SocketAddr, TransportError> {
        self.listener.local_addr().map_err(|e| TransportError::Corrupt(format!("local_addr: {e}")))
    }
}

impl Acceptor for TcpAcceptor {
    fn accept(&mut self, deadline: Duration) -> Result<Arc<dyn Transport>, TransportError> {
        // Nonblocking accept + bounded poll: the accept loop stays
        // responsive to shutdown without dedicating a waker fd.
        let until = Instant::now() + deadline;
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let t = TcpTransport::from_accepted(stream, self.cfg)?;
                    return Ok(Arc::new(t));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= until {
                        return Err(TransportError::Timeout);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => {
                    return Err(TransportError::Corrupt(format!("accept: {e}")));
                }
            }
        }
    }

    fn descriptor(&self) -> String {
        match self.listener.local_addr() {
            Ok(a) => format!("tcp-listener:{a}"),
            Err(_) => "tcp-listener".into(),
        }
    }
}

/// In-process acceptor end: the server side of [`mem_acceptor`].
pub struct MemAcceptor {
    rx: mpsc::Receiver<Arc<dyn Transport>>,
}

/// In-process dialer end: clones are handed to client threads.
#[derive(Clone)]
pub struct MemConnector {
    tx: mpsc::Sender<Arc<dyn Transport>>,
}

/// Builds a connected in-process acceptor/connector pair.
#[must_use]
pub fn mem_acceptor() -> (MemAcceptor, MemConnector) {
    let (tx, rx) = mpsc::channel();
    (MemAcceptor { rx }, MemConnector { tx })
}

impl MemConnector {
    /// Dials the server: returns the client half of a fresh in-memory
    /// link whose server half is queued for the accept loop.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] when the server side is gone.
    pub fn connect(&self) -> Result<Arc<dyn Transport>, TransportError> {
        let (client, server) = mem_pair();
        self.tx
            .send(Arc::new(server) as Arc<dyn Transport>)
            .map_err(|_| TransportError::Disconnected)?;
        Ok(Arc::new(client))
    }
}

impl Acceptor for MemAcceptor {
    fn accept(&mut self, deadline: Duration) -> Result<Arc<dyn Transport>, TransportError> {
        match self.rx.recv_timeout(deadline) {
            Ok(t) => Ok(t),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(TransportError::Timeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected),
        }
    }

    fn descriptor(&self) -> String {
        "mem-acceptor".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aq2pnn_transport::Bytes;

    #[test]
    fn mem_acceptor_hands_out_connected_pairs() {
        let (mut acc, dial) = mem_acceptor();
        assert!(matches!(acc.accept(Duration::from_millis(5)), Err(TransportError::Timeout)));
        let client = dial.connect().unwrap();
        let server = acc.accept(Duration::from_millis(100)).unwrap();
        client.send(Bytes::from_static(b"hi")).unwrap();
        assert_eq!(&server.recv(Some(Duration::from_millis(100))).unwrap()[..], b"hi");
        drop(dial);
        assert!(matches!(acc.accept(Duration::from_millis(5)), Err(TransportError::Disconnected)));
    }

    #[test]
    fn tcp_acceptor_accepts_a_dialer() {
        let mut acc = TcpAcceptor::bind("127.0.0.1:0", TcpConfig::default()).unwrap();
        let addr = acc.local_addr().unwrap();
        assert!(matches!(acc.accept(Duration::from_millis(5)), Err(TransportError::Timeout)));
        let client = TcpTransport::connect(addr, TcpConfig::default()).unwrap();
        let server = acc.accept(Duration::from_secs(2)).unwrap();
        client.send(Bytes::from_static(b"ping")).unwrap();
        assert_eq!(&server.recv(Some(Duration::from_secs(2))).unwrap()[..], b"ping");
    }
}
