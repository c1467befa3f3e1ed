//! Protocol configuration.

/// How 2PC-BNReQ truncates shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncationMode {
    /// SecureML-style local truncation — what the hardware does. Off by
    /// ±1 LSB, with a rare (`≈|x|/2^ℓ`) catastrophic wrap.
    Local,
    /// Idealized exact truncation via dealer resharing — correctness
    /// baseline and ablation reference.
    Exact,
}

/// How shares are widened from the activation carrier `Q1` to the MAC ring
/// `Q2` (paper Fig. 8 step ④).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtensionMode {
    /// Local sign extension of each share — the paper's method; fails per
    /// element with probability `≈|x|/2^{Q1}`.
    Local,
    /// Idealized exact extension via dealer resharing.
    Exact,
}

/// How activations are carried between operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineMode {
    /// Activation shares stay on the wide MAC ring `Q2` end to end;
    /// ABReLU *narrows* them to `Q1` for the comparison (narrowing shares
    /// is always exact) and the `Q1` width only determines the comparison
    /// wire format. No per-activation share extension ever happens, so
    /// accuracy degrades **deterministically** — exactly when a value
    /// overflows `±2^{Q1−1}` — matching the paper's reported
    /// flat-then-cliff behaviour (Tables 7–8). Default.
    StayWide,
    /// The literal Fig. 8 reading: activations are truncated onto the
    /// `Q1` carrier after BNReQ and *sign-extended* back to `Q2` before
    /// each convolution. Every extension fails per element with
    /// probability `≈|x|/2^{Q1}`; at realistic activation counts this
    /// compounds into a large accuracy loss even at the recommended
    /// headroom — the ablation quantifying why the stay-wide structure is
    /// the consistent interpretation.
    NarrowActivations,
}

/// What happens to the comparison outcome at the end of ABReLU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReluMode {
    /// Paper-faithful: the receiver derives the sign bits and sends the
    /// `T_m` mask to the sender (paper Fig. 4 / OUT-MSK buffer); both
    /// parties then zero the non-positive share elements locally. Cheapest;
    /// reveals the activation sign pattern to both parties.
    RevealedSign,
    /// Hardened extension: only the comparison receiver learns the signs;
    /// the ReLU output is re-shared through an OT-based multiplexer so the
    /// sender learns nothing. Costs one extra `(1,2)`-OT with `Q2`-bit
    /// messages per activation.
    MaskedMux,
}

/// Whether ABReLU fetches all bit-group comparisons at once or lazily.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReluRounds {
    /// One OT round covering every group — latency-optimal.
    Single,
    /// Two rounds: the quadrant groups (top 2 bits) first, then the
    /// remaining groups only for values the quadrant did not decide
    /// (paper Sec. 4.4 red ①/②) — communication-optimal.
    Lazy,
}

/// Full configuration of a secure-inference session.
///
/// `q1_bits` is the activation carrier — "the number of output bits sent to
/// ABReLU", the knob swept in paper Tables 7–8. `q2_bits` is the MAC ring
/// the convolutions accumulate on (paper: `Q2 = Q1 + 16`, the Fig. 9
/// plaintext accumulator expansion).
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolConfig {
    /// Activation-carrier ring width `ℓ1` (`Q1 = 2^{ℓ1}`).
    pub q1_bits: u32,
    /// MAC ring width `ℓ2` (`Q2 = 2^{ℓ2}`).
    pub q2_bits: u32,
    /// Share truncation strategy for BNReQ.
    pub truncation: TruncationMode,
    /// Share extension strategy for ring-size extension.
    pub extension: ExtensionMode,
    /// ABReLU output handling.
    pub relu_mode: ReluMode,
    /// ABReLU OT scheduling.
    pub relu_rounds: ReluRounds,
    /// Activation carrying structure.
    pub pipeline: PipelineMode,
    /// Seed for the shared protocol setup (labels, dealer, masks). Both
    /// parties must agree on it.
    pub setup_seed: u64,
}

impl ProtocolConfig {
    /// Paper-faithful configuration at a given ABReLU bit-width:
    /// `Q2 = Q1 + 16`, local truncation/extension, revealed sign mask,
    /// single-round OT.
    ///
    /// # Panics
    ///
    /// Panics if `q1_bits` is not in `6..=48`.
    #[must_use]
    pub fn paper(q1_bits: u32) -> Self {
        assert!((6..=48).contains(&q1_bits), "q1 must be in 6..=48 bits");
        ProtocolConfig {
            q1_bits,
            q2_bits: q1_bits + 16,
            truncation: TruncationMode::Local,
            extension: ExtensionMode::Local,
            relu_mode: ReluMode::RevealedSign,
            relu_rounds: ReluRounds::Single,
            pipeline: PipelineMode::StayWide,
            setup_seed: 0xa92b_1ba5_eed5,
        }
    }

    /// Exact configuration: idealized truncation/extension so the 2PC
    /// output is bit-identical to the plaintext quantized model (used by
    /// correctness tests).
    ///
    /// # Panics
    ///
    /// Panics if `q1_bits` is not in `6..=48`.
    #[must_use]
    pub fn exact(q1_bits: u32) -> Self {
        ProtocolConfig {
            truncation: TruncationMode::Exact,
            extension: ExtensionMode::Exact,
            ..Self::paper(q1_bits)
        }
    }

    /// The activation-carrier ring.
    #[must_use]
    pub fn q1(&self) -> aq2pnn_ring::Ring {
        aq2pnn_ring::Ring::new(self.q1_bits)
    }

    /// The MAC ring.
    #[must_use]
    pub fn q2(&self) -> aq2pnn_ring::Ring {
        aq2pnn_ring::Ring::new(self.q2_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = ProtocolConfig::paper(16);
        assert_eq!(c.q2_bits, 32);
        assert_eq!(c.truncation, TruncationMode::Local);
        assert_eq!(c.relu_mode, ReluMode::RevealedSign);
    }

    #[test]
    fn exact_overrides_share_ops() {
        let c = ProtocolConfig::exact(16);
        assert_eq!(c.truncation, TruncationMode::Exact);
        assert_eq!(c.extension, ExtensionMode::Exact);
        assert_eq!(c.q2_bits, 32);
    }

    #[test]
    #[should_panic(expected = "q1 must be")]
    fn rejects_tiny_rings() {
        let _ = ProtocolConfig::paper(4);
    }
}
