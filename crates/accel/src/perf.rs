//! End-to-end performance estimation from compiled programs.

use crate::hw::{HwConfig, Overlap};
use crate::power::{party_watts, utilization_for_macs};
use crate::resources::aq2pnn_total;
use aq2pnn::instq::{Instr, Program};

/// Performance estimate for one inference of one program — a Table 4 row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfReport {
    /// Fabric compute time (s), both pipelines.
    pub compute_s: f64,
    /// Link time (s): online bytes + per-message latency.
    pub comm_s: f64,
    /// End-to-end latency per inference (s), per the overlap policy.
    pub latency_s: f64,
    /// Throughput at batch 1.
    pub fps: f64,
    /// Online communication (both directions), MiB.
    pub comm_mib: f64,
    /// Per-party board power (W).
    pub party_watts: f64,
    /// Energy efficiency fps / (2 × party W) — the paper's metric.
    pub efficiency: f64,
}

/// Fabric cycles for one instruction.
#[must_use]
pub fn instr_cycles(instr: &Instr, hw: &HwConfig) -> u64 {
    match instr {
        Instr::LoadWeights { elems, bits } => {
            let bytes = elems * u64::from(*bits).div_ceil(8);
            bytes.div_ceil(hw.dram_bytes_per_cycle)
        }
        Instr::Gemm { m, k, n } => {
            // II = 1 per output row per (block_in, block_out) tile; the
            // three ring products of Eq. 1 pipeline through the same array.
            let tiles = k.div_ceil(hw.block_in as u64) * n.div_ceil(hw.block_out as u64);
            m * tiles
        }
        Instr::Alu { elems, .. } => elems.div_ceil(hw.alu_lanes),
        Instr::Compare { values, groups, slots } => {
            // Per value: encrypt `slots` codes (table lookup + XOR) and run
            // `groups` LUT exponentiations.
            values * (slots * hw.cycles_per_ot_slot + u64::from(*groups) * hw.cycles_per_modexp)
        }
        Instr::Exchange { .. } => 0,
    }
}

/// Estimates one inference of `program` on `hw`.
#[must_use]
pub fn estimate(program: &Program, hw: &HwConfig) -> PerfReport {
    let cycles: u64 = program.instrs.iter().map(|i| instr_cycles(i, hw)).sum();
    let compute_s = cycles as f64 / hw.clock_hz;

    // Online traffic only (the offline weight-mask opening is pre-deployed).
    let online_bytes = program.online_total_bytes();
    let msgs = program.online_messages();
    // Full-duplex link: each direction carries roughly half the bytes; the
    // message latency is paid per round (≈ per message in our schedule).
    let comm_s = hw.network.transfer_seconds(online_bytes / 2, msgs / 2);

    let latency_s = match hw.overlap {
        Overlap::Full => compute_s.max(comm_s),
        Overlap::None => compute_s + comm_s,
    };
    let fps = 1.0 / latency_s;
    let watts = party_watts(&aq2pnn_total(hw), utilization_for_macs(program.gemm_macs()));
    PerfReport {
        compute_s,
        comm_s,
        latency_s,
        fps,
        comm_mib: online_bytes as f64 / (1024.0 * 1024.0),
        party_watts: watts,
        efficiency: fps / (2.0 * watts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aq2pnn::instq::compile_spec;
    use aq2pnn::ProtocolConfig;
    use aq2pnn_nn::zoo;

    fn report(spec: &aq2pnn_nn::spec::ModelSpec, bits: u32) -> PerfReport {
        let cfg = ProtocolConfig::paper(bits);
        let p = compile_spec(spec, &cfg).expect("spec compiles");
        estimate(&p, &HwConfig::zcu104())
    }

    #[test]
    fn lenet_throughput_near_paper() {
        // Paper Table 4: LeNet5 at 16.68 fps. The network calibration
        // targets this row; accept a 2x band.
        let r = report(&zoo::lenet5(), 16);
        assert!((8.0..34.0).contains(&r.fps), "LeNet5 fps {}", r.fps);
    }

    #[test]
    fn model_size_orders_throughput() {
        let lenet = report(&zoo::lenet5(), 16);
        let alex = report(&zoo::alexnet_mnist(), 16);
        let vgg_c = report(&zoo::vgg16_cifar(), 16);
        let rn50 = report(&zoo::resnet50_imagenet(), 16);
        let vgg_i = report(&zoo::vgg16_imagenet(), 16);
        assert!(lenet.fps > alex.fps, "{} vs {}", lenet.fps, alex.fps);
        assert!(alex.fps > vgg_c.fps);
        assert!(vgg_c.fps > rn50.fps);
        assert!(rn50.fps > vgg_i.fps, "ResNet50 {} vs VGG16-IN {}", rn50.fps, vgg_i.fps);
    }

    #[test]
    fn efficiency_uses_both_parties() {
        let r = report(&zoo::lenet5(), 16);
        assert!((r.efficiency - r.fps / (2.0 * r.party_watts)).abs() < 1e-12);
        assert!((7.0..8.0).contains(&r.party_watts));
    }

    #[test]
    fn narrower_rings_run_faster() {
        let wide = report(&zoo::resnet18_imagenet(), 32);
        let narrow = report(&zoo::resnet18_imagenet(), 16);
        assert!(narrow.latency_s < wide.latency_s);
        assert!(narrow.comm_mib < wide.comm_mib);
    }

    #[test]
    fn ideal_link_leaves_compute_only() {
        let cfg = ProtocolConfig::paper(16);
        let p = compile_spec(&zoo::lenet5(), &cfg).unwrap();
        let hw = HwConfig::zcu104().zcu104_ideal_link();
        let r = estimate(&p, &hw);
        assert!((r.latency_s - r.compute_s).abs() < 1e-12);
    }

    #[test]
    fn gemm_cycles_tile_formula() {
        let hw = HwConfig::zcu104();
        let c = instr_cycles(&Instr::Gemm { m: 100, k: 32, n: 32 }, &hw);
        assert_eq!(c, 100 * 2 * 2);
    }
}
