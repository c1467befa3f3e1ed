//! Hardware configuration of the simulated accelerator.

use aq2pnn_transport::NetworkModel;

/// How compute and communication interleave when estimating latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overlap {
    /// Compute and transfer fully overlap (the paper's "continuous
    /// transmission and computation", Sec. 6.4): latency = max(…).
    Full,
    /// Strictly serialized: latency = sum(…). Conservative bound.
    None,
}

/// The simulated accelerator's parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwConfig {
    /// Fabric clock in Hz (ZCU104 design: 200 MHz).
    pub clock_hz: f64,
    /// AS-GEMM array input-channel parallelism.
    pub block_in: usize,
    /// AS-GEMM array output-channel parallelism.
    pub block_out: usize,
    /// AS-ALU lanes (elements per cycle).
    pub alu_lanes: u64,
    /// SCM cycles to process one OT slot (table lookup + XOR).
    pub cycles_per_ot_slot: u64,
    /// Cycles per modular exponentiation (LUT-backed, pipelined).
    pub cycles_per_modexp: u64,
    /// DRAM bytes streamed per cycle (LOAD/STORE modules).
    pub dram_bytes_per_cycle: u64,
    /// Compute/communication overlap policy.
    pub overlap: Overlap,
    /// The party-to-party link.
    pub network: NetworkModel,
}

impl HwConfig {
    /// The paper's platform: two ZCU104 boards at 200 MHz, a 16×16
    /// AS-GEMM array (1536 DSPs ≈ 256 C-C multiplication units), and the
    /// 1000 Mbps LAN modeled at its *effective* goodput.
    ///
    /// Calibration (documented in EXPERIMENTS.md): the paper's large-model
    /// throughputs are communication-bound and consistent with ≈250 Mbps
    /// effective transfer (e.g. Table 7's ResNet18 @16-bit: 246 MiB at
    /// 0.243 fps ⇒ ≈250 Mbps one-way) — the realistic TCP goodput of the
    /// PS-side Ethernet once the ARM cores do protocol processing. The
    /// ≈1.3 ms per-message latency is calibrated on the LeNet5 row.
    #[must_use]
    pub fn zcu104() -> Self {
        HwConfig {
            clock_hz: 200e6,
            block_in: 16,
            block_out: 16,
            alu_lanes: 16,
            cycles_per_ot_slot: 1,
            cycles_per_modexp: 4,
            dram_bytes_per_cycle: 16,
            overlap: Overlap::Full,
            network: NetworkModel {
                bandwidth_bps: 250_000_000.0,
                latency_s: 1.3e-3,
                per_message_overhead_bytes: 66,
            },
        }
    }

    /// An idealized variant with a zero-latency link — isolates fabric
    /// compute time in ablations.
    #[must_use]
    pub fn zcu104_ideal_link(mut self) -> Self {
        self.network = NetworkModel::ideal();
        self
    }
}

impl Default for HwConfig {
    fn default() -> Self {
        Self::zcu104()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zcu104_defaults() {
        let hw = HwConfig::zcu104();
        assert_eq!(hw.clock_hz, 200e6);
        assert_eq!(hw.block_in * hw.block_out, 256);
        assert_eq!(hw.overlap, Overlap::Full);
    }

    #[test]
    fn ideal_link_zeroes_network() {
        let hw = HwConfig::zcu104().zcu104_ideal_link();
        assert_eq!(hw.network.transfer_seconds(1 << 30, 100), 0.0);
    }
}
