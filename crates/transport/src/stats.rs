//! Per-endpoint, per-phase communication accounting.

use std::collections::BTreeMap;

/// Counters for one labelled protocol phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Bytes written to the wire during this phase.
    pub bytes_sent: u64,
    /// Bytes read from the wire during this phase.
    pub bytes_received: u64,
    /// Messages written during this phase.
    pub messages_sent: u64,
    /// Messages read during this phase.
    pub messages_received: u64,
    /// Direction flips receive→send attributed to this phase. A flip is
    /// charged to the phase active at the **send** that completes it —
    /// the send pays the round-trip latency, so its phase owns the round.
    pub rounds: u64,
}

impl PhaseStats {
    /// Total traffic (both directions) in bytes.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }
}

/// Aggregate communication statistics of one [`crate::Endpoint`].
///
/// A *round* is counted each time the direction of traffic flips from
/// receiving to sending — the round-trip count that multiplies the link
/// latency in the [`crate::NetworkModel`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Total bytes sent.
    pub bytes_sent: u64,
    /// Total bytes received.
    pub bytes_received: u64,
    /// Total messages sent.
    pub messages_sent: u64,
    /// Total messages received.
    pub messages_received: u64,
    /// Direction flips receive→send (communication rounds initiated).
    pub rounds: u64,
    /// Per-phase breakdown, keyed by the label passed to
    /// [`crate::Endpoint::set_phase`].
    pub phases: BTreeMap<String, PhaseStats>,
}

/// Scalar totals of one endpoint — a cheap `Copy` snapshot (no per-phase
/// map clone) for delta accounting on hot paths, e.g. per-span byte
/// attribution in the tracing layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelTotals {
    /// Total bytes sent.
    pub bytes_sent: u64,
    /// Total bytes received.
    pub bytes_received: u64,
    /// Total messages sent.
    pub messages_sent: u64,
    /// Total messages received.
    pub messages_received: u64,
    /// Direction flips receive→send.
    pub rounds: u64,
}

impl ChannelTotals {
    /// Total traffic (both directions) in bytes.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }

    /// Component-wise difference `self − earlier` (saturating, so a stats
    /// reset between snapshots yields zeros instead of wrapping).
    #[must_use]
    pub fn since(&self, earlier: &ChannelTotals) -> ChannelTotals {
        ChannelTotals {
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            bytes_received: self.bytes_received.saturating_sub(earlier.bytes_received),
            messages_sent: self.messages_sent.saturating_sub(earlier.messages_sent),
            messages_received: self.messages_received.saturating_sub(earlier.messages_received),
            rounds: self.rounds.saturating_sub(earlier.rounds),
        }
    }
}

impl ChannelStats {
    /// Total traffic (both directions) in bytes.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }

    /// The scalar totals (drops the per-phase breakdown).
    #[must_use]
    pub fn totals(&self) -> ChannelTotals {
        ChannelTotals {
            bytes_sent: self.bytes_sent,
            bytes_received: self.bytes_received,
            messages_sent: self.messages_sent,
            messages_received: self.messages_received,
            rounds: self.rounds,
        }
    }

    /// Total traffic in mebibytes — the paper's communication unit.
    #[must_use]
    pub fn total_mib(&self) -> f64 {
        self.total_bytes() as f64 / (1024.0 * 1024.0)
    }

    /// Stats for one phase (zeros if the phase never ran).
    #[must_use]
    pub fn phase(&self, name: &str) -> PhaseStats {
        self.phases.get(name).copied().unwrap_or_default()
    }

    /// Total traffic excluding phases labelled with an `offline` prefix —
    /// the *online* communication the paper's tables report (the weight
    /// mask `F` is pre-deployed, paper Sec. 4.1.2).
    #[must_use]
    pub fn online_total_bytes(&self) -> u64 {
        self.phases
            .iter()
            .filter(|(k, _)| !k.starts_with("offline"))
            .map(|(_, p)| p.total_bytes())
            .sum()
    }

    /// Online traffic in mebibytes.
    #[must_use]
    pub fn online_total_mib(&self) -> f64 {
        self.online_total_bytes() as f64 / (1024.0 * 1024.0)
    }

    pub(crate) fn record_send(&mut self, phase: &str, bytes: u64, was_receiving: bool) {
        self.bytes_sent += bytes;
        self.messages_sent += 1;
        let p = self.phases.entry(phase.to_owned()).or_default();
        if was_receiving {
            self.rounds += 1;
            p.rounds += 1;
        }
        p.bytes_sent += bytes;
        p.messages_sent += 1;
    }

    pub(crate) fn record_recv(&mut self, phase: &str, bytes: u64) {
        self.bytes_received += bytes;
        self.messages_received += 1;
        let p = self.phases.entry(phase.to_owned()).or_default();
        p.bytes_received += bytes;
        p.messages_received += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_accumulation() {
        let mut s = ChannelStats::default();
        s.record_send("conv", 100, false);
        s.record_recv("conv", 50);
        s.record_send("relu", 10, true);
        assert_eq!(s.bytes_sent, 110);
        assert_eq!(s.bytes_received, 50);
        assert_eq!(s.rounds, 1);
        assert_eq!(s.phase("conv").total_bytes(), 150);
        assert_eq!(s.phase("relu").bytes_sent, 10);
        assert_eq!(s.phase("never"), PhaseStats::default());
    }

    #[test]
    fn direction_flip_attributes_round_to_sending_phase() {
        let mut s = ChannelStats::default();
        // Receive under "conv", then send under "relu": the flip is paid by
        // the send, so the round belongs to "relu", not "conv".
        s.record_send("conv", 10, false);
        s.record_recv("conv", 10);
        s.record_send("relu", 10, true);
        assert_eq!(s.rounds, 1);
        assert_eq!(s.phase("relu").rounds, 1);
        assert_eq!(s.phase("conv").rounds, 0);
    }

    #[test]
    fn direction_flip_in_unlabeled_phase_is_not_lost() {
        // Regression: flips inside the default ("") phase used to vanish
        // from the per-phase view entirely — only the global counter moved.
        let mut s = ChannelStats::default();
        s.record_recv("", 4);
        s.record_send("", 4, true);
        assert_eq!(s.rounds, 1);
        assert_eq!(s.phase("").rounds, 1);
        let phase_rounds: u64 = s.phases.values().map(|p| p.rounds).sum();
        assert_eq!(phase_rounds, s.rounds, "per-phase rounds must sum to the global count");
    }

    #[test]
    fn totals_snapshot_and_delta() {
        let mut s = ChannelStats::default();
        s.record_send("a", 100, false);
        let before = s.totals();
        s.record_recv("a", 40);
        s.record_send("b", 60, true);
        let delta = s.totals().since(&before);
        assert_eq!(delta.bytes_sent, 60);
        assert_eq!(delta.bytes_received, 40);
        assert_eq!(delta.rounds, 1);
        assert_eq!(delta.total_bytes(), 100);
        // Saturation: delta against a later snapshot yields zeros.
        assert_eq!(before.since(&s.totals()), ChannelTotals::default());
    }

    #[test]
    fn mib_conversion() {
        let s = ChannelStats { bytes_sent: 1 << 20, ..Default::default() };
        assert!((s.total_mib() - 1.0).abs() < 1e-12);
    }
}
