//! Analytic network timing model.

/// Converts measured traffic into wall-clock link time.
///
/// The paper connects the two ZCU104 boards "with Ethernet LAN at a
/// bandwidth of 1000 Mbps" (Sec. 6). Transfer time is modeled as
/// `messages · latency + (bytes + messages · overhead) · 8 / bandwidth`,
/// the standard α–β cost model.
///
/// Because the number of handshakes stays constant when the feature-map
/// size grows, throughput degrades sub-linearly with input scaling — the
/// observation of paper Sec. 6.4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Link bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// One-way per-message latency in seconds (propagation + handshake).
    pub latency_s: f64,
    /// Framing overhead per message in bytes (Ethernet + IP + TCP headers).
    pub per_message_overhead_bytes: u64,
}

/// Per-message framing the session stack itself adds on a real socket:
/// the 36-byte session frame header plus the 4-byte TCP transport length
/// prefix, 40 bytes. Measured ground truth via
/// [`crate::TcpTransport::wire_bytes`]; see the `net_calibration` test and
/// EXPERIMENTS.md ("NetworkModel calibration").
pub const SESSION_WIRE_FRAMING_BYTES: u64 = (crate::FRAME_HEADER_LEN as u64) + 4;

impl NetworkModel {
    /// The paper's setup: 1000 Mbps LAN, ~50 µs effective per-message
    /// latency, standard ~66-byte Ethernet/IP/TCP framing.
    #[must_use]
    pub fn paper_lan() -> Self {
        NetworkModel {
            bandwidth_bps: 1_000_000_000.0,
            latency_s: 50e-6,
            per_message_overhead_bytes: 66,
        }
    }

    /// The same link, but as seen by the deployed session transport: each
    /// message additionally carries [`SESSION_WIRE_FRAMING_BYTES`] of
    /// checksummed session framing on top of the kernel's Ethernet/IP/TCP
    /// headers. Calibrated against measured [`crate::TcpTransport`] wire
    /// bytes (the `net_calibration` test keeps this constant honest).
    #[must_use]
    pub fn with_session_framing(mut self) -> Self {
        self.per_message_overhead_bytes += SESSION_WIRE_FRAMING_BYTES;
        self
    }

    /// An ideal link: infinite bandwidth, zero latency. Useful to isolate
    /// compute time in ablations.
    #[must_use]
    pub fn ideal() -> Self {
        NetworkModel { bandwidth_bps: f64::INFINITY, latency_s: 0.0, per_message_overhead_bytes: 0 }
    }

    /// Seconds to move `bytes` of payload split over `messages` messages.
    #[must_use]
    pub fn transfer_seconds(&self, bytes: u64, messages: u64) -> f64 {
        let framed = bytes + messages * self.per_message_overhead_bytes;
        messages as f64 * self.latency_s + framed as f64 * 8.0 / self.bandwidth_bps
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        Self::paper_lan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_lan_bandwidth_dominates_large_transfers() {
        let net = NetworkModel::paper_lan();
        // 1 GiB over one message ≈ 8.6 s at 1 Gbps.
        let t = net.transfer_seconds(1 << 30, 1);
        assert!(t > 8.0 && t < 9.0, "{t}");
    }

    #[test]
    fn latency_dominates_many_small_messages() {
        let net = NetworkModel::paper_lan();
        let t = net.transfer_seconds(1000, 1000);
        assert!(t > 0.04, "{t}"); // ≥ 1000 × 50 µs
    }

    #[test]
    fn ideal_is_free() {
        assert_eq!(NetworkModel::ideal().transfer_seconds(1 << 30, 1 << 20), 0.0);
    }

    #[test]
    fn default_is_paper_lan() {
        assert_eq!(NetworkModel::default(), NetworkModel::paper_lan());
    }

    #[test]
    fn session_framing_raises_overhead_only() {
        let base = NetworkModel::paper_lan();
        let framed = base.with_session_framing();
        assert_eq!(
            framed.per_message_overhead_bytes,
            base.per_message_overhead_bytes + SESSION_WIRE_FRAMING_BYTES
        );
        assert_eq!(framed.bandwidth_bps, base.bandwidth_bps);
        assert!(framed.transfer_seconds(1000, 10) > base.transfer_seconds(1000, 10));
    }
}
