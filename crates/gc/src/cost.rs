//! Cost accounting for garbled circuits — the numbers behind the
//! GC-vs-ABReLU comparison (paper Sec. 2.2).

use crate::circuit::Circuit;

/// Size of one wire label in bytes.
pub const LABEL_BYTES: u64 = 16;

/// Communication/size profile of garbling + evaluating a circuit once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcCost {
    /// Total wires in the circuit (the paper's "67.9 K wires" metric).
    pub wires: u64,
    /// AND gates (each ships a 4-row table).
    pub and_gates: u64,
    /// XOR gates (free).
    pub xor_gates: u64,
    /// Bytes for the garbled tables.
    pub table_bytes: u64,
    /// Bytes for the garbler's own input labels.
    pub garbler_input_bytes: u64,
    /// Bytes for the evaluator's input labels, delivered via OT — counted
    /// as 2 labels per bit (the standard 1-of-2 OT payload).
    pub evaluator_ot_bytes: u64,
}

impl GcCost {
    /// Profiles a circuit.
    #[must_use]
    pub fn of(circ: &Circuit) -> Self {
        let and_gates = circ.and_count() as u64;
        GcCost {
            wires: circ.wires as u64,
            and_gates,
            xor_gates: circ.xor_count() as u64,
            table_bytes: and_gates * 4 * LABEL_BYTES,
            garbler_input_bytes: circ.inputs_a.len() as u64 * LABEL_BYTES,
            evaluator_ot_bytes: circ.inputs_b.len() as u64 * 2 * LABEL_BYTES,
        }
    }

    /// Total bytes on the wire for one evaluation.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.table_bytes + self.garbler_input_bytes + self.evaluator_ot_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::relu_on_shares;

    #[test]
    fn relu_cost_structure() {
        let c = relu_on_shares(16);
        let cost = GcCost::of(&c);
        assert_eq!(cost.and_gates, 31);
        assert_eq!(cost.table_bytes, 31 * 64);
        assert_eq!(cost.garbler_input_bytes, 16 * 16);
        assert_eq!(cost.evaluator_ot_bytes, 16 * 32);
        assert!(cost.total_bytes() > 2500);
    }

    #[test]
    fn cost_grows_with_width() {
        let c16 = GcCost::of(&relu_on_shares(16));
        let c32 = GcCost::of(&relu_on_shares(32));
        assert!(c32.total_bytes() > 2 * c16.total_bytes() - 200);
        assert!(c32.wires > c16.wires);
    }
}
