//! Real TCP transport (std, loopback-tested) with connect/read/write
//! deadlines and explicit reconnect.
//!
//! Wire format: each message is `[len: u32 LE][bytes]`. The transport is
//! deliberately dumb — no sequencing, no integrity, no retransmission.
//! Reliability across disconnects is the [`crate::Session`] layer's job;
//! this type only (a) moves delimited messages over a socket, (b) turns
//! socket failures into typed [`TransportError`]s, and (c) can tear down
//! and re-establish the connection on request.
//!
//! One side is the **listener** (binds, accepts, re-accepts after a drop),
//! the other the **connector** (dials, re-dials). After a connection
//! breaks, both sides return [`TransportError::Disconnected`] until
//! [`Transport::reconnect`] succeeds — an intervening silent re-dial would
//! lose frames without the session handshake noticing.

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

enum Role {
    Listener(TcpListener),
    Connector(SocketAddr),
    /// A socket handed over by an external accept loop (the multi-tenant
    /// server's acceptor). There is nothing to re-establish: once the
    /// connection breaks, it stays broken and the session above surfaces a
    /// typed error instead of reconnecting.
    Accepted,
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
    fn new(stream: TcpStream) -> Self {
        Conn { stream, hdr: [0; 4], hdr_got: 0, body: Vec::new(), body_got: 0, have_len: false }
    }
}

struct TcpState {
    conn: Option<Conn>,
    /// Set once a connection existed and then failed: send/recv refuse
    /// with `Disconnected` until an explicit `reconnect`.
    broken: bool,
}

/// A [`Transport`] over one `std::net::TcpStream`.
pub struct TcpTransport {
    role: Role,
    cfg: TcpConfig,
    state: Mutex<TcpState>,
    /// A `try_clone` of the current connection's socket, refreshed on
    /// every (re)establish. [`Transport::shutdown`] closes it *without*
    /// taking `state`: `recv`/`send` hold the state lock for the whole
    /// blocking socket operation, so a shutdown that queued on that lock
    /// would stall for the reader's full deadline instead of waking it.
    /// Lock order: `state` before `shadow` (shadow is a leaf).
    shadow: Mutex<Option<TcpStream>>,
    wire_sent: AtomicU64,
    wire_received: AtomicU64,
}

impl TcpTransport {
    /// Binds `addr` and waits for the peer to dial (the accept itself
    /// happens lazily on first use or [`Transport::reconnect`], so binding
    /// never blocks).
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] if the address cannot be bound.
    pub fn listen(addr: impl ToSocketAddrs) -> Result<Self, TransportError> {
        let listener = TcpListener::bind(addr).map_err(TransportError::from)?;
        Ok(TcpTransport {
            role: Role::Listener(listener),
            cfg: TcpConfig::default(),
            state: Mutex::new(TcpState { conn: None, broken: false }),
            shadow: Mutex::new(None),
            wire_sent: AtomicU64::new(0),
            wire_received: AtomicU64::new(0),
        })
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
        let t = TcpTransport {
            role: Role::Connector(addr),
            cfg,
            state: Mutex::new(TcpState { conn: None, broken: false }),
            shadow: Mutex::new(None),
            wire_sent: AtomicU64::new(0),
            wire_received: AtomicU64::new(0),
        };
        // Dial before taking the state lock — the mutex must never be
        // held across connection establishment (it blocks on the network).
        let conn = t.establish()?;
        t.stash_shadow(&conn.stream);
        t.lock().conn = Some(conn);
        Ok(t)
    }

    /// Wraps a socket that an external accept loop already established —
    /// the per-client transport inside a multi-tenant server. The
    /// transport cannot reconnect ([`Transport::supports_reconnect`] is
    /// false): the client owns re-dialing, and a fresh dial lands on a
    /// fresh accepted transport.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] if the socket options cannot be applied.
    pub fn from_accepted(stream: TcpStream, cfg: TcpConfig) -> Result<Self, TransportError> {
        stream.set_nodelay(cfg.nodelay).map_err(TransportError::from)?;
        stream.set_write_timeout(cfg.write_timeout).map_err(TransportError::from)?;
        let shadow = stream.try_clone().ok();
        Ok(TcpTransport {
            role: Role::Accepted,
            cfg,
            state: Mutex::new(TcpState { conn: Some(Conn::new(stream)), broken: false }),
            shadow: Mutex::new(shadow),
            wire_sent: AtomicU64::new(0),
            wire_received: AtomicU64::new(0),
        })
    }

    /// The bound address (listener side; useful with port 0).
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] on a connector-side call or socket failure.
    pub fn local_addr(&self) -> Result<SocketAddr, TransportError> {
        match &self.role {
            Role::Listener(l) => l.local_addr().map_err(TransportError::from),
            Role::Connector(_) => Err(TransportError::Io("connector has no listen addr".into())),
            Role::Accepted => Err(TransportError::Io("accepted socket has no listen addr".into())),
        }
    }

    /// Raw bytes moved over the socket (sent, received) including the
    /// 4-byte length prefixes — the measured ground truth the
    /// [`crate::NetworkModel`] calibration compares against.
    pub fn wire_bytes(&self) -> (u64, u64) {
        (self.wire_sent.load(Ordering::Relaxed), self.wire_received.load(Ordering::Relaxed))
    }

    /// Publishes the wire-byte counters as `tcp.wire_tx_bytes` /
    /// `tcp.wire_rx_bytes` gauges. Comparing these against the endpoint's
    /// payload totals exposes the framing + retransmission overhead of the
    /// whole session stack.
    pub fn publish_wire_gauges(&self, reg: &aq2pnn_obs::MetricsRegistry) {
        let (tx, rx) = self.wire_bytes();
        #[allow(clippy::cast_precision_loss)]
        {
            reg.gauge_set("tcp.wire_tx_bytes", tx as f64);
            reg.gauge_set("tcp.wire_rx_bytes", rx as f64);
        }
    }

    // sync: allow(guard-escape, "single poison-recovery point; callers hold st for one framed message")
    fn lock(&self) -> std::sync::MutexGuard<'_, TcpState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Refreshes the out-of-band shutdown handle for the current socket.
    /// A failed `try_clone` leaves it `None` (shutdown then degrades to
    /// waiting on the state lock — correct, just not prompt).
    fn stash_shadow(&self, stream: &TcpStream) {
        let clone = stream.try_clone().ok();
        *self.shadow.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = clone;
    }

    /// One connection-establishment attempt for this role.
    fn establish(&self) -> Result<Conn, TransportError> {
        let stream = match &self.role {
            // The external accept loop owns establishment; this transport
            // only ever holds the one socket it was born with.
            Role::Accepted => return Err(TransportError::Disconnected),
            Role::Connector(addr) => TcpStream::connect_timeout(addr, self.cfg.connect_timeout)
                .map_err(TransportError::from)?,
            Role::Listener(listener) => {
                listener.set_nonblocking(true).map_err(TransportError::from)?;
                let deadline = Instant::now() + self.cfg.accept_timeout;
                loop {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            stream.set_nonblocking(false).map_err(TransportError::from)?;
                            break stream;
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
        };
        stream.set_nodelay(self.cfg.nodelay).map_err(TransportError::from)?;
        stream.set_write_timeout(self.cfg.write_timeout).map_err(TransportError::from)?;
        Ok(Conn::new(stream))
    }

    /// Connection for the current operation: present, or (only before the
    /// first failure) established on demand.
    fn ensure_conn(&self, st: &mut TcpState) -> Result<(), TransportError> {
        if st.conn.is_none() {
            if st.broken {
                return Err(TransportError::Disconnected);
            }
            let conn = self.establish()?;
            self.stash_shadow(&conn.stream);
            st.conn = Some(conn);
        }
        Ok(())
    }

    fn fail_conn(st: &mut TcpState) {
        if let Some(c) = st.conn.take() {
            let _ = c.stream.shutdown(Shutdown::Both);
        }
        st.broken = true;
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
        self.ensure_conn(&mut st)?;
        let len = bytes.len();
        if len > MAX_WIRE_MSG {
            return Err(TransportError::Io(format!("message of {len} bytes exceeds wire cap")));
        }
        let res = {
            let conn = st.conn.as_mut().expect("ensured above");
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
        self.ensure_conn(&mut st)?;
        let abs_deadline = deadline.map(|d| Instant::now() + d);
        loop {
            let conn = st.conn.as_mut().ok_or(TransportError::Disconnected)?;
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
            // shadow (see `stash_shadow`), never the reverse.
            self.shadow.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take()
        };
        if let Some(s) = shadow {
            let _ = s.shutdown(Shutdown::Both);
        }
        Self::fail_conn(&mut self.lock());
    }

    fn reconnect(&self) -> Result<(), TransportError> {
        // Establish outside the state borrow so a slow accept doesn't hold
        // partial state; swap in atomically afterwards.
        let conn = self.establish()?;
        let mut st = self.lock();
        if let Some(old) = st.conn.take() {
            let _ = old.stream.shutdown(Shutdown::Both);
        }
        self.stash_shadow(&conn.stream);
        st.conn = Some(conn);
        st.broken = false;
        Ok(())
    }

    fn supports_reconnect(&self) -> bool {
        !matches!(self.role, Role::Accepted)
    }

    fn descriptor(&self) -> String {
        match &self.role {
            Role::Listener(l) => {
                format!(
                    "tcp-listen:{}",
                    l.local_addr().map_or_else(|_| "?".into(), |a| a.to_string())
                )
            }
            Role::Connector(a) => format!("tcp-connect:{a}"),
            Role::Accepted => "tcp-accepted".into(),
        }
    }
}
