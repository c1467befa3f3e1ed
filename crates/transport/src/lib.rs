//! Two-party communication substrate for AQ2PNN.
//!
//! The AQ2PNN evaluation (paper Sec. 6) treats **communication volume** as a
//! first-class metric: every table reports MiB exchanged, and the central
//! claim is that adaptive bit-widths shrink it. This crate therefore makes
//! byte accounting exact and unavoidable:
//!
//! * [`duplex`] builds an in-process bidirectional channel pair
//!   (crossbeam-backed) emulating the two ZCU104 boards' Ethernet link.
//! * Every [`Endpoint`] counts bytes, messages and communication rounds per
//!   *phase* (e.g. `"2pc-conv2d"`, `"abrelu"`), so the operator-wise
//!   profiling of Table 5 falls out of the counters.
//! * Ring elements are **bit-packed** ([`pack_bits`]/[`unpack_bits`]): `n`
//!   elements of an `ℓ`-bit ring serialize to `⌈n·ℓ/8⌉` bytes, exactly the
//!   FPGA wire format. A 14-bit model really does send 14/16 of the bytes a
//!   16-bit model sends — this is what reproduces the communication columns
//!   of Tables 7/8.
//! * [`NetworkModel`] converts (bytes, messages) into wall-clock seconds for
//!   a given bandwidth/latency, defaulting to the paper's 1000 Mbps LAN.
//!
//! # Transport stack
//!
//! Deployed two-party inference runs over a real link. TCP is its one
//! reliability mechanism; nothing above it repairs a link, and every
//! failure is a typed error scoped to one session. The stack (bottom to
//! top):
//!
//! * [`Transport`] — the pluggable raw link: [`MemTransport`] (in-process)
//!   or [`TcpTransport`] (loopback/LAN, one connection per transport).
//! * [`FaultyTransport`] — a deterministic fault-injection proxy driven by a
//!   seeded [`FaultPlan`] (delay and disconnect-at-N, the faults a TCP
//!   link can show).
//! * [`Session`] — stream-stamped, sequence-numbered, CRC-32-checksummed
//!   [`Frame`]s. A corrupt, replayed, skipped or foreign frame is a typed
//!   [`TransportError`], never a repair.
//! * [`Endpoint`] — phase-labeled byte accounting over any of the above.
//!   It counts application payloads only, so `compiled bytes == measured
//!   bytes` holds whatever framing the layers below add.
//!
//! # Example
//!
//! ```
//! use aq2pnn_transport::{duplex, NetworkModel};
//!
//! let (a, b) = duplex();
//! a.set_phase("demo");
//! a.send_bits(&[0b1010, 0b0101], 4)?;        // two 4-bit elements: 1 byte
//! let got = b.recv_bits(4, 2)?;
//! assert_eq!(got, vec![0b1010, 0b0101]);
//! assert_eq!(a.stats().bytes_sent, 1);
//!
//! let net = NetworkModel::paper_lan();
//! let secs = net.transfer_seconds(1 << 20, 10);
//! assert!(secs > 0.0);
//! # Ok::<(), aq2pnn_transport::TransportError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod error;
mod fault;
mod frame;
mod line;
mod network;
mod packing;
mod session;
#[cfg(test)]
mod simd;
mod stats;
mod tcp;
mod transport;

pub use bytes::Bytes;
pub use channel::{duplex, duplex_with_timeout, Endpoint, PhaseGuard};
pub use error::TransportError;
pub use fault::{FaultAction, FaultPlan, FaultStats, FaultyTransport};
pub use frame::{Crc32, Frame, FrameKind, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD};
pub use line::{http_get, LineReader, MAX_LINE_LEN};
pub use network::{NetworkModel, SESSION_WIRE_FRAMING_BYTES};
pub use packing::{
    pack_bits, pack_bits_reference, packed_len, unpack_bits, unpack_bits_at, unpack_bits_reference,
};
pub use session::{Session, SessionConfig};
pub use stats::{ChannelStats, ChannelTotals, PhaseStats};
pub use tcp::{TcpConfig, TcpTransport};
pub use transport::{mem_pair, MemTransport, Transport};
