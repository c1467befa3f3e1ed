//! The service's application protocol: admission frames and the request
//! header. Everything here is **public structure** (model names, ring
//! widths, batch geometry) — no image or weight data crosses in the
//! clear.
//!
//! # Admission (raw transport, before any session exists)
//!
//! ```text
//! user  → provider   Hello  (stream 0, seq 0)          "may I come in?"
//! provider → user    Hello  (stream 0, seq = <id>)     admitted on stream <id>
//!                  | Shed   (stream 0)                  overload / draining
//! ```
//!
//! Both frames use the current (v3) wire format, so an older peer is
//! rejected with [`TransportError::VersionMismatch`] before any state is
//! allocated.
//! After admission both sides construct `Session::with_stream(<id>)` and
//! all further traffic is stream-stamped and sequence-checked.
//!
//! # Request header (first message on the established session)
//!
//! ```text
//! user  → provider   [model_len u16][model utf8][q1_bits u32][batch u32][count u32]
//! provider → user    [0u8]                       accepted
//!                  | [1u8][msg_len u16][msg]     rejected (typed reason)
//! ```

use aq2pnn_transport::TransportError;

/// Largest batch a server accepts per online pass.
pub const MAX_BATCH: u32 = 256;
/// Largest total image count a server accepts per session.
pub const MAX_IMAGES: u32 = 100_000;

/// A parsed session request: which model to serve and the batch geometry
/// both parties will run in lockstep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferenceRequest {
    /// Registry name of the model to serve.
    pub model: String,
    /// Activation ring width ℓ1 (the ℓ-profile half of the template cache
    /// key).
    pub q1_bits: u32,
    /// Images per batched online pass.
    pub batch: u32,
    /// Total images in the session; the final pass covers the remainder.
    pub count: u32,
}

impl InferenceRequest {
    /// Serializes the request header.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let name = self.model.as_bytes();
        let mut out = Vec::with_capacity(2 + name.len() + 12);
        out.extend_from_slice(&u16::try_from(name.len().min(0xFFFF)).unwrap_or(0).to_le_bytes());
        out.extend_from_slice(&name[..name.len().min(0xFFFF)]);
        out.extend_from_slice(&self.q1_bits.to_le_bytes());
        out.extend_from_slice(&self.batch.to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        out
    }

    /// Parses a request header.
    ///
    /// # Errors
    ///
    /// [`TransportError::Corrupt`] on any malformed header (truncated,
    /// non-UTF-8 name, trailing bytes) — the server counts this against
    /// the sender and tears the session down.
    pub fn decode(bytes: &[u8]) -> Result<InferenceRequest, TransportError> {
        let fail = |what: &str| TransportError::Corrupt(format!("request header: {what}"));
        if bytes.len() < 2 {
            return Err(fail("truncated length"));
        }
        let name_len = usize::from(u16::from_le_bytes([bytes[0], bytes[1]]));
        let rest = &bytes[2..];
        if rest.len() != name_len + 12 {
            return Err(fail("length mismatch"));
        }
        let model = std::str::from_utf8(&rest[..name_len])
            .map_err(|_| fail("model name not UTF-8"))?
            .to_owned();
        let word = |off: usize| {
            u32::from_le_bytes([
                rest[name_len + off],
                rest[name_len + off + 1],
                rest[name_len + off + 2],
                rest[name_len + off + 3],
            ])
        };
        Ok(InferenceRequest { model, q1_bits: word(0), batch: word(4), count: word(8) })
    }

    /// Validates the geometry bounds that hold for *any* model; the server
    /// additionally checks the model name against its registry.
    ///
    /// # Errors
    ///
    /// A human-readable reason, sent back verbatim in the rejection reply.
    pub fn validate(&self) -> Result<(), String> {
        if !(6..=48).contains(&self.q1_bits) {
            return Err(format!("q1_bits {} outside 6..=48", self.q1_bits));
        }
        if self.batch == 0 || self.batch > MAX_BATCH {
            return Err(format!("batch {} outside 1..={MAX_BATCH}", self.batch));
        }
        if self.count == 0 || self.count > MAX_IMAGES {
            return Err(format!("count {} outside 1..={MAX_IMAGES}", self.count));
        }
        Ok(())
    }
}

/// Serializes the accept/reject reply to a request header.
#[must_use]
pub fn encode_reply(result: &Result<(), String>) -> Vec<u8> {
    match result {
        Ok(()) => vec![0u8],
        Err(msg) => {
            let m = msg.as_bytes();
            let len = m.len().min(0xFFFF);
            let mut out = Vec::with_capacity(3 + len);
            out.push(1u8);
            out.extend_from_slice(&u16::try_from(len).unwrap_or(0).to_le_bytes());
            out.extend_from_slice(&m[..len]);
            out
        }
    }
}

/// Parses the accept/reject reply.
///
/// # Errors
///
/// [`TransportError::Corrupt`] on a malformed reply.
pub fn decode_reply(bytes: &[u8]) -> Result<Result<(), String>, TransportError> {
    let fail = |what: &str| TransportError::Corrupt(format!("request reply: {what}"));
    match bytes.first() {
        Some(0) if bytes.len() == 1 => Ok(Ok(())),
        Some(1) if bytes.len() >= 3 => {
            let len = usize::from(u16::from_le_bytes([bytes[1], bytes[2]]));
            if bytes.len() != 3 + len {
                return Err(fail("length mismatch"));
            }
            let msg =
                std::str::from_utf8(&bytes[3..]).map_err(|_| fail("reason not UTF-8"))?.to_owned();
            Ok(Err(msg))
        }
        _ => Err(fail("unknown tag or truncated")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips() {
        let req = InferenceRequest { model: "lenet5".into(), q1_bits: 14, batch: 4, count: 33 };
        assert_eq!(InferenceRequest::decode(&req.encode()).unwrap(), req);
        assert!(req.validate().is_ok());
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        assert!(InferenceRequest::decode(&[]).is_err());
        assert!(InferenceRequest::decode(&[9, 0, 1, 2]).is_err());
        let mut ok =
            InferenceRequest { model: "m".into(), q1_bits: 16, batch: 1, count: 1 }.encode();
        ok.push(0xFF); // trailing byte
        assert!(InferenceRequest::decode(&ok).is_err());
    }

    #[test]
    fn bounds_are_enforced() {
        let mut req = InferenceRequest { model: "m".into(), q1_bits: 16, batch: 1, count: 1 };
        assert!(req.validate().is_ok());
        req.q1_bits = 50;
        assert!(req.validate().is_err());
        req.q1_bits = 16;
        req.batch = 0;
        assert!(req.validate().is_err());
        req.batch = 1;
        req.count = MAX_IMAGES + 1;
        assert!(req.validate().is_err());
    }

    #[test]
    fn reply_roundtrips() {
        assert_eq!(decode_reply(&encode_reply(&Ok(()))).unwrap(), Ok(()));
        let rej = encode_reply(&Err("no such model".into()));
        assert_eq!(decode_reply(&rej).unwrap(), Err("no such model".to_owned()));
        assert!(decode_reply(&[]).is_err());
        assert!(decode_reply(&[7]).is_err());
    }
}
