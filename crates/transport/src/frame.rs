//! The session frame format: length-prefixed, sequence-numbered,
//! checksummed, stream-tagged.
//!
//! Every message the [`crate::Session`] layer puts on a link is one frame:
//!
//! ```text
//! offset  size  field
//!      0     2  magic 0xA2 0x2F
//!      2     1  format version (currently 3)
//!      3     1  kind (Data = 0, Hello = 3, Shed = 5)
//!      4     8  stream (LE) — session/stream ID for server-side demux
//!     12     8  seq    (LE) — Data: this frame's sequence number
//!     20     8  ack    (LE) — reserved, written as 0
//!     28     4  payload length (LE)
//!     32     4  CRC-32 (IEEE) over header[0..32] ++ payload
//!     36     …  payload
//! ```
//!
//! The sequence number counts **Data** frames only; control frames carry
//! `seq = 0`, except the admission `Hello` reply, which carries the
//! assigned stream ID there. The CRC turns a mangled frame into a typed
//! [`TransportError::Corrupt`] instead of protocol desynchronization.
//!
//! Version 3 keeps version 2's layout byte for byte. Version 2 carried a
//! cumulative ack in the `ack` field and Ack, Nak and Ping kinds (bytes
//! 1, 2 and 4) for in-session repair; version 3 has none of them, so a
//! version-2 peer, which would wait for acks, gets the typed
//! [`TransportError::VersionMismatch`] instead of a hang. The same holds
//! for version 1 (a 28-byte header without the stream field). The `Shed`
//! kind is the server's typed overload reply: "not admitted, go away";
//! carrying the refusal in-band means an overloaded server never answers
//! with a hang.
//!
//! Frame *payloads* are secret carriers (shares, masked openings, OT
//! ciphertexts). Header metadata — kind, stream, seq, length — is
//! observable by design and must therefore never depend on secrets; see
//! DESIGN.md §9.

use crate::TransportError;
use bytes::Bytes;

/// Frame header length in bytes.
pub const FRAME_HEADER_LEN: usize = 36;

/// Hard cap on a frame payload (64 MiB): a corrupted or hostile length
/// field must not drive an unbounded allocation.
pub const MAX_FRAME_PAYLOAD: usize = 64 << 20;

const MAGIC: [u8; 2] = [0xA2, 0x2F];
const VERSION: u8 = 3;

/// What a frame means to the session layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Application payload at sequence number `seq`.
    Data,
    /// The admission handshake: a client's first Hello carries stream 0,
    /// the server's reply carries the assigned stream ID in `seq`.
    Hello,
    /// Typed overload refusal: the server is over its admission bound and
    /// will not serve this connection. Receiving one is terminal for the
    /// session ([`TransportError::Shed`]).
    Shed,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Data => 0,
            FrameKind::Hello => 3,
            FrameKind::Shed => 5,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0 => FrameKind::Data,
            3 => FrameKind::Hello,
            5 => FrameKind::Shed,
            _ => return None,
        })
    }
}

/// A decoded session frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame kind.
    pub kind: FrameKind,
    /// Session/stream ID. 0 for point-to-point links; server-admitted
    /// sessions stamp every frame with the ID assigned at admission.
    pub stream: u64,
    /// Data sequence number (0 for control frames, except the admission
    /// `Hello` reply, which carries the assigned stream ID).
    pub seq: u64,
    /// Reserved (version 2's cumulative ack); sessions write 0.
    pub ack: u64,
    /// Application payload (empty for control frames). A decoded frame's
    /// payload is a slice of the received buffer, not a copy.
    pub payload: Bytes,
}

impl Frame {
    /// Builds a control frame (no payload, stream 0).
    #[must_use]
    pub fn control(kind: FrameKind, seq: u64, ack: u64) -> Self {
        Frame { kind, stream: 0, seq, ack, payload: Bytes::from_static(&[]) }
    }

    /// Builds a data frame (stream 0).
    #[must_use]
    pub fn data(seq: u64, payload: Vec<u8>) -> Self {
        Frame { kind: FrameKind::Data, stream: 0, seq, ack: 0, payload: payload.into() }
    }

    /// Returns the frame re-stamped onto `stream`.
    #[must_use]
    pub fn on_stream(mut self, stream: u64) -> Self {
        self.stream = stream;
        self
    }

    /// Serializes the frame (header + checksum + payload).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        encode_parts(self.kind, self.stream, self.seq, self.ack, &self.payload)
    }

    /// Serializes a Data frame on `stream` straight from a borrowed
    /// payload: the bytes of `Frame::data(seq, payload).on_stream(stream)
    /// .encode()`, with the payload copied once, into the frame.
    #[must_use]
    pub fn encode_data(stream: u64, seq: u64, payload: &[u8]) -> Vec<u8> {
        encode_parts(FrameKind::Data, stream, seq, 0, payload)
    }

    /// Parses and validates one frame. The payload is kept as a slice of
    /// `bytes`, so decoding copies nothing.
    ///
    /// # Errors
    ///
    /// [`TransportError::VersionMismatch`] when the version byte is not
    /// ours (e.g. a version-2 peer that still expects acks); [`TransportError::Corrupt`] when
    /// the magic, kind, length or checksum is wrong. The error text names
    /// the malformed *field*; it never echoes payload bytes.
    pub fn decode(bytes: &Bytes) -> Result<Frame, TransportError> {
        if bytes.len() < FRAME_HEADER_LEN {
            return Err(TransportError::Corrupt(format!(
                "frame shorter than header: {} < {FRAME_HEADER_LEN} bytes",
                bytes.len()
            )));
        }
        if bytes[..2] != MAGIC {
            return Err(TransportError::Corrupt("bad magic".into()));
        }
        if bytes[2] != VERSION {
            return Err(TransportError::VersionMismatch { ours: VERSION, theirs: bytes[2] });
        }
        let Some(kind) = FrameKind::from_byte(bytes[3]) else {
            return Err(TransportError::Corrupt(format!("unknown kind {}", bytes[3])));
        };
        let stream = u64::from_le_bytes(bytes[4..12].try_into().expect("8 bytes"));
        let seq = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        let ack = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(bytes[28..32].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_PAYLOAD {
            return Err(TransportError::Corrupt(format!("payload length {len} exceeds cap")));
        }
        if bytes.len() != FRAME_HEADER_LEN + len {
            return Err(TransportError::Corrupt(format!(
                "length field {len} disagrees with frame size {}",
                bytes.len()
            )));
        }
        let stored_crc = u32::from_le_bytes(bytes[32..36].try_into().expect("4 bytes"));
        let mut crc = Crc32::new();
        crc.update(&bytes[..32]);
        crc.update(&bytes[FRAME_HEADER_LEN..]);
        if crc.finish() != stored_crc {
            return Err(TransportError::Corrupt("checksum mismatch".into()));
        }
        Ok(Frame { kind, stream, seq, ack, payload: bytes.slice(FRAME_HEADER_LEN..) })
    }
}

/// Header, checksum and payload of one frame, in one allocation.
fn encode_parts(kind: FrameKind, stream: u64, seq: u64, ack: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind.to_byte());
    out.extend_from_slice(&stream.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&ack.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&out[..32]);
    crc.update(payload);
    out.extend_from_slice(&crc.finish().to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Incremental CRC-32 (IEEE 802.3 polynomial, reflected), slice-by-8:
/// eight bytes per step through eight lookup tables, the tail byte by
/// byte through the first.
pub struct Crc32 {
    state: u32,
}

/// `CRC_TABLES[0]` is the classic bytewise table; `CRC_TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, so eight lookups, one
/// per byte of a little-endian word, advance the state by eight bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

impl Crc32 {
    /// Fresh checksum state.
    #[must_use]
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
            let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// Final checksum value.
    #[must_use]
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(bytes: &[u8]) -> Result<Frame, TransportError> {
        Frame::decode(&Bytes::from(bytes.to_vec()))
    }

    #[test]
    fn decoded_payload_is_a_slice_of_the_received_buffer() {
        let wire = Bytes::from(Frame::data(3, vec![9, 8, 7]).encode());
        let frame = Frame::decode(&wire).unwrap();
        assert_eq!(&frame.payload[..], &[9, 8, 7]);
        assert_eq!(frame.payload.as_ptr(), wire[FRAME_HEADER_LEN..].as_ptr());
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32("123456789") = 0xCBF43926, the standard check value.
        let mut c = Crc32::new();
        c.update(b"123456789");
        assert_eq!(c.finish(), 0xCBF4_3926);
    }

    /// The one-table, byte-at-a-time CRC the sliced update must equal.
    fn bytewise_crc(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(0xFFFF_FFFFu32, |crc, &b| {
            CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8)
        })
    }

    #[test]
    fn sliced_crc_equals_the_bytewise_reference() {
        let data: Vec<u8> =
            (0..300u32).map(|i| (i.wrapping_mul(0x9E37_79B1) >> 13) as u8).collect();
        for len in 0..=data.len() {
            let mut c = Crc32::new();
            c.update(&data[..len]);
            assert_eq!(c.finish(), bytewise_crc(&data[..len]), "length {len}");
        }
        let want = bytewise_crc(&data);
        for split in 0..=data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), want, "split at {split}");
        }
    }

    #[test]
    fn roundtrip_data_and_control() {
        let d = Frame::data(42, vec![1, 2, 3, 250]);
        assert_eq!(decode(&d.encode()).unwrap(), d);
        let c = Frame::control(FrameKind::Hello, 9, 0);
        assert_eq!(decode(&c.encode()).unwrap(), c);
        let s = Frame::control(FrameKind::Shed, 0, 0);
        assert_eq!(decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn stream_id_roundtrips() {
        let d = Frame::data(5, vec![7; 9]).on_stream(0xDEAD_BEEF_CAFE);
        let back = decode(&d.encode()).unwrap();
        assert_eq!(back.stream, 0xDEAD_BEEF_CAFE);
        assert_eq!(back, d);
    }

    #[test]
    fn encode_data_matches_encoding_a_built_frame() {
        for payload in [Vec::new(), vec![1, 2, 3, 250], (0..=255).collect()] {
            let built = Frame::data(9, payload.clone()).on_stream(0xDEAD_BEEF_CAFE).encode();
            assert_eq!(Frame::encode_data(0xDEAD_BEEF_CAFE, 9, &payload), built);
        }
    }

    #[test]
    fn empty_payload_roundtrip() {
        let d = Frame::data(0, Vec::new());
        assert_eq!(decode(&d.encode()).unwrap(), d);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let encoded = Frame::data(7, (0..64).collect()).on_stream(3).encode();
        for i in 0..encoded.len() {
            for bit in 0..8 {
                let mut bad = encoded.clone();
                bad[i] ^= 1 << bit;
                assert!(decode(&bad).is_err(), "flip of byte {i} bit {bit} went undetected");
            }
        }
    }

    #[test]
    fn version_one_peer_rejected_with_typed_error() {
        // A version-1 frame (28-byte header, no stream field) must decode
        // to VersionMismatch, not be misparsed as current fields.
        let mut v1 = Vec::new();
        v1.extend_from_slice(&MAGIC);
        v1.push(1); // old version byte
        v1.push(0); // Data
        v1.extend_from_slice(&7u64.to_le_bytes()); // seq
        v1.extend_from_slice(&3u64.to_le_bytes()); // ack
        v1.extend_from_slice(&4u32.to_le_bytes()); // len
        let mut crc = Crc32::new();
        crc.update(&v1);
        crc.update(&[1, 2, 3, 4]);
        v1.extend_from_slice(&crc.finish().to_le_bytes());
        v1.extend_from_slice(&[1, 2, 3, 4]);
        // Pad so the length check isn't what trips first.
        while v1.len() < FRAME_HEADER_LEN {
            v1.push(0);
        }
        assert_eq!(decode(&v1), Err(TransportError::VersionMismatch { ours: 3, theirs: 1 }));
    }

    #[test]
    fn version_two_peer_rejected_with_typed_error() {
        // A version-2 frame has our layout, but its sender waits for acks
        // this version never sends.
        let mut v2 = Frame::data(0, vec![1]).encode();
        v2[2] = 2;
        assert_eq!(decode(&v2), Err(TransportError::VersionMismatch { ours: 3, theirs: 2 }));
    }

    #[test]
    fn truncation_and_padding_detected() {
        let encoded = Frame::data(1, vec![9; 16]).encode();
        assert!(decode(&encoded[..encoded.len() - 1]).is_err());
        let mut padded = encoded;
        padded.push(0);
        assert!(decode(&padded).is_err());
        assert!(decode(&[]).is_err());
    }

    #[test]
    fn oversized_length_field_rejected_without_allocation() {
        let mut encoded = Frame::data(1, vec![0; 8]).encode();
        encoded[28..32].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&encoded), Err(TransportError::Corrupt(_))));
    }
}
