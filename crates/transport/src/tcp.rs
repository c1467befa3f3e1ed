//! Real TCP transport (std, loopback-tested) with connect/read/write
//! deadlines.
//!
//! Wire format: each message is `[len: u32 LE][bytes]`. The transport is
//! deliberately dumb — no sequencing, no integrity, no retransmission of
//! its own: TCP already delivers the byte stream in order and intact, and
//! the [`crate::Session`] layer on top checks each frame. This type only
//! (a) moves delimited messages over one socket and (b) turns socket
//! failures into typed [`TransportError`]s.
//!
//! A transport holds **one** connection for its whole life: dialed by
//! [`TcpTransport::connect`], accepted once by [`TcpTransport::listen`]
//! (lazily, on first use), or handed over by an external accept loop via
//! [`TcpTransport::from_accepted`]. Once that connection breaks, every
//! call returns [`TransportError::Disconnected`]. A client that wants
//! another try dials a new transport and starts a new session.

use crate::transport::Transport;
use crate::TransportError;
use bytes::Bytes;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Hard cap on one wire message (length prefix value).
const MAX_WIRE_MSG: usize = 128 << 20;
/// Poll granularity while waiting in `accept`.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Socket-level timeouts and options for a [`TcpTransport`].
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Deadline for one dial attempt (connector side).
    pub connect_timeout: Duration,
    /// Deadline for one accept attempt (listener side).
    pub accept_timeout: Duration,
    /// Socket write timeout; a stalled peer fails the link instead of
    /// blocking forever.
    pub write_timeout: Option<Duration>,
    /// Disable Nagle's algorithm (the protocol is latency-bound on many
    /// small round trips).
    pub nodelay: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            connect_timeout: Duration::from_secs(2),
            accept_timeout: Duration::from_secs(2),
            write_timeout: Some(Duration::from_secs(10)),
            nodelay: true,
        }
    }
}

/// An established connection plus the resumable read state for the frame
/// in progress — a receive that hits its deadline mid-frame keeps the
/// partial bytes and continues on the next call instead of desyncing the
/// stream.
struct Conn {
    stream: TcpStream,
    hdr: [u8; 4],
    hdr_got: usize,
    body: Vec<u8>,
    body_got: usize,
    have_len: bool,
}

impl Conn {
    /// Applies `cfg`'s socket options to a fresh connection.
    fn new(stream: TcpStream, cfg: &TcpConfig) -> Result<Self, TransportError> {
        stream.set_nodelay(cfg.nodelay).map_err(TransportError::from)?;
        stream.set_write_timeout(cfg.write_timeout).map_err(TransportError::from)?;
        Ok(Conn { stream, hdr: [0; 4], hdr_got: 0, body: Vec::new(), body_got: 0, have_len: false })
    }
}

/// The life of a transport's one connection.
enum Link {
    /// Bound by [`TcpTransport::listen`]; the peer is accepted on first use.
    Listening(TcpListener),
    Open(Conn),
    /// The connection failed or was shut down; it never comes back.
    Closed,
}

/// A [`Transport`] over one `std::net::TcpStream`.
pub struct TcpTransport {
    cfg: TcpConfig,
    /// The bound address of a listening transport.
    listen_addr: Option<SocketAddr>,
    descriptor: String,
    state: Mutex<Link>,
    /// A `try_clone` of the connection's socket. [`Transport::shutdown`]
    /// closes it *without* taking `state`: `recv`/`send` hold the state
    /// lock for the whole blocking socket operation, so a shutdown that
    /// queued on that lock would stall for the reader's full deadline
    /// instead of waking it. Lock order: `state` before `shadow` (shadow
    /// is a leaf).
    shadow: Mutex<Option<TcpStream>>,
    wire_sent: AtomicU64,
    wire_received: AtomicU64,
}

impl TcpTransport {
    fn with_link(
        cfg: TcpConfig,
        listen_addr: Option<SocketAddr>,
        descriptor: String,
        link: Link,
    ) -> Self {
        let shadow = match &link {
            Link::Open(conn) => conn.stream.try_clone().ok(),
            _ => None,
        };
        TcpTransport {
            cfg,
            listen_addr,
            descriptor,
            state: Mutex::new(link),
            shadow: Mutex::new(shadow),
            wire_sent: AtomicU64::new(0),
            wire_received: AtomicU64::new(0),
        }
    }

    /// Binds `addr` and waits for the peer to dial. The accept itself
    /// happens lazily on first use, so binding never blocks.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] if the address cannot be bound.
    pub fn listen(addr: impl ToSocketAddrs) -> Result<Self, TransportError> {
        let listener = TcpListener::bind(addr).map_err(TransportError::from)?;
        let local = listener.local_addr().map_err(TransportError::from)?;
        let descriptor = format!("tcp-listen:{local}");
        Ok(Self::with_link(
            TcpConfig::default(),
            Some(local),
            descriptor,
            Link::Listening(listener),
        ))
    }

    /// Dials `addr` (eagerly, with `cfg.connect_timeout`).
    ///
    /// # Errors
    ///
    /// [`TransportError`] if resolution or the dial fails.
    pub fn connect(addr: impl ToSocketAddrs, cfg: TcpConfig) -> Result<Self, TransportError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(TransportError::from)?
            .next()
            .ok_or_else(|| TransportError::Io("address resolved to nothing".into()))?;
        let stream =
            TcpStream::connect_timeout(&addr, cfg.connect_timeout).map_err(TransportError::from)?;
        let conn = Conn::new(stream, &cfg)?;
        Ok(Self::with_link(cfg, None, format!("tcp-connect:{addr}"), Link::Open(conn)))
    }

    /// Wraps a socket that an external accept loop already established —
    /// the per-client transport inside a multi-tenant server.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] if the socket options cannot be applied.
    pub fn from_accepted(stream: TcpStream, cfg: TcpConfig) -> Result<Self, TransportError> {
        let conn = Conn::new(stream, &cfg)?;
        Ok(Self::with_link(cfg, None, "tcp-accepted".into(), Link::Open(conn)))
    }

    /// The bound address (listener side; useful with port 0).
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] on a transport not made by [`Self::listen`].
    pub fn local_addr(&self) -> Result<SocketAddr, TransportError> {
        self.listen_addr.ok_or_else(|| TransportError::Io("not a listening transport".into()))
    }

    /// Raw bytes moved over the socket (sent, received) including the
    /// 4-byte length prefixes — the measured ground truth the
    /// [`crate::NetworkModel`] calibration compares against.
    pub fn wire_bytes(&self) -> (u64, u64) {
        (self.wire_sent.load(Ordering::Relaxed), self.wire_received.load(Ordering::Relaxed))
    }

    // sync: allow(guard-escape, "single poison-recovery point; callers hold st for one framed message")
    fn lock(&self) -> std::sync::MutexGuard<'_, Link> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The open connection, accepting the peer first if this transport is
    /// still listening.
    fn conn<'a>(&self, st: &'a mut Link) -> Result<&'a mut Conn, TransportError> {
        if let Link::Listening(listener) = st {
            let conn = Conn::new(self.accept(listener)?, &self.cfg)?;
            let clone = conn.stream.try_clone().ok();
            *self.shadow.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = clone;
            *st = Link::Open(conn);
        }
        match st {
            Link::Open(conn) => Ok(conn),
            _ => Err(TransportError::Disconnected),
        }
    }

    /// Waits up to `cfg.accept_timeout` for the peer to dial.
    fn accept(&self, listener: &TcpListener) -> Result<TcpStream, TransportError> {
        listener.set_nonblocking(true).map_err(TransportError::from)?;
        let deadline = Instant::now() + self.cfg.accept_timeout;
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    stream.set_nonblocking(false).map_err(TransportError::from)?;
                    return Ok(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(TransportError::Timeout);
                    }
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) => return Err(TransportError::from(e)),
            }
        }
    }

    fn fail_conn(st: &mut Link) {
        if let Link::Open(c) = std::mem::replace(st, Link::Closed) {
            let _ = c.stream.shutdown(Shutdown::Both);
        }
    }

    /// Reads as much as possible of `buf[*got..]`, honoring `deadline`.
    fn read_some(
        stream: &mut TcpStream,
        buf: &mut [u8],
        got: &mut usize,
        deadline: Option<Instant>,
    ) -> Result<(), TransportError> {
        while *got < buf.len() {
            let timeout = match deadline {
                None => None,
                Some(d) => {
                    let now = Instant::now();
                    let Some(rem) = d.checked_duration_since(now).filter(|r| !r.is_zero()) else {
                        return Err(TransportError::Timeout);
                    };
                    Some(rem)
                }
            };
            stream.set_read_timeout(timeout).map_err(TransportError::from)?;
            match stream.read(&mut buf[*got..]) {
                Ok(0) => return Err(TransportError::Disconnected),
                Ok(n) => *got += n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Err(TransportError::Timeout)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(TransportError::from(e)),
            }
        }
        Ok(())
    }
}

impl Transport for TcpTransport {
    fn send(&self, bytes: Bytes) -> Result<(), TransportError> {
        // sync: allow(blocking-while-locked, "the socket lives inside the state; framing requires exclusive stream access")
        let mut st = self.lock();
        let len = bytes.len();
        if len > MAX_WIRE_MSG {
            return Err(TransportError::Io(format!("message of {len} bytes exceeds wire cap")));
        }
        let res = {
            let conn = self.conn(&mut st)?;
            conn.stream
                .write_all(&(len as u32).to_le_bytes())
                .and_then(|()| conn.stream.write_all(&bytes))
                .and_then(|()| conn.stream.flush())
        };
        match res {
            Ok(()) => {
                self.wire_sent.fetch_add(4 + len as u64, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                // A partial write desyncs the stream delimiting; the
                // connection is unusable regardless of the error kind.
                Self::fail_conn(&mut st);
                let mapped = TransportError::from(e);
                Err(if mapped == TransportError::Timeout {
                    TransportError::Disconnected
                } else {
                    mapped
                })
            }
        }
    }

    fn recv(&self, deadline: Option<Duration>) -> Result<Bytes, TransportError> {
        // sync: allow(blocking-while-locked, "reads must own the stream to keep length-prefixed frames intact")
        let mut st = self.lock();
        let abs_deadline = deadline.map(|d| Instant::now() + d);
        loop {
            let conn = self.conn(&mut st)?;
            if conn.have_len {
                let mut body = std::mem::take(&mut conn.body);
                let mut got = conn.body_got;
                let res = Self::read_some(&mut conn.stream, &mut body, &mut got, abs_deadline);
                conn.body_got = got;
                match res {
                    Ok(()) => {
                        conn.have_len = false;
                        conn.hdr_got = 0;
                        conn.body_got = 0;
                        self.wire_received.fetch_add(4 + body.len() as u64, Ordering::Relaxed);
                        return Ok(Bytes::from(body));
                    }
                    Err(TransportError::Timeout) => {
                        conn.body = body;
                        return Err(TransportError::Timeout);
                    }
                    Err(e) => {
                        Self::fail_conn(&mut st);
                        return Err(e);
                    }
                }
            } else {
                let mut got = conn.hdr_got;
                let res = Self::read_some(&mut conn.stream, &mut conn.hdr, &mut got, abs_deadline);
                conn.hdr_got = got;
                match res {
                    Ok(()) => {
                        let len = u32::from_le_bytes(conn.hdr) as usize;
                        if len > MAX_WIRE_MSG {
                            // The stream delimiting itself is gone.
                            Self::fail_conn(&mut st);
                            return Err(TransportError::Corrupt(format!(
                                "wire length {len} exceeds cap"
                            )));
                        }
                        conn.have_len = true;
                        conn.body = vec![0; len];
                        conn.body_got = 0;
                    }
                    Err(TransportError::Timeout) => return Err(TransportError::Timeout),
                    Err(e) => {
                        Self::fail_conn(&mut st);
                        return Err(e);
                    }
                }
            }
        }
    }

    fn shutdown(&self) {
        // Close the socket through the shadow handle FIRST, without the
        // state lock: a peer blocked inside `recv` (which holds that lock
        // for its whole deadline) is woken immediately instead of the
        // shutdown queueing behind it — the server's reaper and drain
        // force-close rely on this being prompt.
        let shadow = {
            // Scoped so the leaf `shadow` guard is released before the
            // `state` lock below — the only acquisition order is state →
            // shadow (see `conn`), never the reverse.
            self.shadow.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take()
        };
        if let Some(s) = shadow {
            let _ = s.shutdown(Shutdown::Both);
        }
        Self::fail_conn(&mut self.lock());
    }

    fn descriptor(&self) -> String {
        self.descriptor.clone()
    }
}
