//! The transport failure model.

use std::error::Error;
use std::fmt;

/// Errors surfaced by the transport layer.
///
/// The in-process [`crate::duplex`] link can only ever report
/// [`Disconnected`](TransportError::Disconnected); the fallible transports
/// ([`crate::TcpTransport`], [`crate::Session`], [`crate::FaultyTransport`])
/// use the full set. Every protocol layer above propagates these as
/// `Result` — a failed link must never panic a party.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The other endpoint disconnected (dropped, or the underlying link
    /// failed) before/while communicating.
    Disconnected,
    /// A receive deadline expired before a message arrived.
    Timeout,
    /// A frame failed validation (bad magic, kind, length, checksum, or a
    /// foreign stream ID). The string describes what was malformed — it
    /// derives from frame *metadata*, never from payload contents.
    Corrupt(String),
    /// The session received a Data frame out of sequence: a replayed or a
    /// skipped `seq`, which a correct peer over TCP never sends.
    SequenceGap {
        /// The sequence number this side expected next.
        expected: u64,
        /// The sequence number actually observed.
        got: u64,
    },
    /// An OS-level I/O failure that is not a clean disconnect or timeout.
    Io(String),
    /// The peer speaks a different frame-format version (e.g. a version-2
    /// peer that still expects acks). Terminal: the two sides do not speak
    /// the same protocol.
    VersionMismatch {
        /// The frame version this side encodes.
        ours: u8,
        /// The version byte observed on the wire.
        theirs: u8,
    },
    /// The server refused admission: it is at its configured session bound
    /// and answered with a typed `Shed` frame instead of serving (or
    /// hanging). Terminal for this connection; the client may retry later
    /// against a fresh connection.
    Shed,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "peer endpoint disconnected"),
            TransportError::Timeout => write!(f, "receive deadline expired"),
            TransportError::Corrupt(what) => write!(f, "corrupt frame: {what}"),
            TransportError::SequenceGap { expected, got } => {
                write!(f, "out-of-sequence frame: expected {expected}, got {got}")
            }
            TransportError::Io(what) => write!(f, "transport i/o failure: {what}"),
            TransportError::VersionMismatch { ours, theirs } => {
                write!(f, "frame version mismatch: we speak v{ours}, peer sent v{theirs}")
            }
            TransportError::Shed => write!(f, "server shed the session: admission bound reached"),
        }
    }
}

impl Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::TimedOut | ErrorKind::WouldBlock => TransportError::Timeout,
            ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
            | ErrorKind::UnexpectedEof
            | ErrorKind::NotConnected => TransportError::Disconnected,
            _ => TransportError::Io(e.kind().to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_error_classification() {
        use std::io::{Error, ErrorKind};
        assert_eq!(
            TransportError::from(Error::new(ErrorKind::TimedOut, "t")),
            TransportError::Timeout
        );
        assert_eq!(
            TransportError::from(Error::new(ErrorKind::BrokenPipe, "p")),
            TransportError::Disconnected
        );
        assert!(matches!(
            TransportError::from(Error::new(ErrorKind::PermissionDenied, "d")),
            TransportError::Io(_)
        ));
    }
}
