//! Point-and-permute garbling with free XOR.

use crate::circuit::{Circuit, Gate, WireId};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A 128-bit wire label.
pub type Label = [u64; 2];

fn xor_label(a: Label, b: Label) -> Label {
    [a[0] ^ b[0], a[1] ^ b[1]]
}

fn lsb(l: Label) -> bool {
    l[0] & 1 == 1
}

/// KDF: hashes two labels and a gate id into a label-sized pad.
///
/// Built on seeded ChaCha via `StdRng` — deterministic and collision-
/// scattered, sufficient for a cost/correctness baseline (not hardened).
#[must_use]
pub fn hash(a: Label, b: Label, gate: u64) -> Label {
    let seed = a[0].rotate_left(17).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ a[1].rotate_left(33)
        ^ b[0].wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
        ^ b[1].rotate_left(49)
        ^ gate.wrapping_mul(0x1656_67b1_9e37_79f9);
    let mut rng = StdRng::seed_from_u64(seed);
    [rng.next_u64(), rng.next_u64()]
}

/// A garbled AND-gate table: four rows indexed by the inputs' permute bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GarbledTable {
    /// Rows indexed `2·p_a + p_b`.
    pub rows: [Label; 4],
}

/// The garbler's output: tables, input label pairs, output decode info.
///
/// `Debug` is implemented manually below and redacts `delta` and the wire
/// labels — knowing the free-XOR offset decodes every wire of the circuit.
#[derive(Clone)]
pub struct Garbled {
    /// Free-XOR global offset `R` (lsb forced to 1).
    pub delta: Label,
    /// Zero-labels for every wire.
    pub zero_labels: Vec<Label>,
    /// Tables for AND gates, in gate order.
    pub tables: Vec<GarbledTable>,
    /// The circuit's wires count (for evaluators).
    pub wires: usize,
}

impl std::fmt::Debug for Garbled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Garbled")
            .field("delta", &"<redacted>")
            .field("zero_labels", &"<redacted>")
            .field("tables", &self.tables.len())
            .field("wires", &self.wires)
            .finish()
    }
}

impl Garbled {
    /// The label of `wire` carrying bit `bit`.
    #[must_use]
    pub fn label(&self, wire: WireId, bit: bool) -> Label {
        if bit {
            xor_label(self.zero_labels[wire], self.delta)
        } else {
            self.zero_labels[wire]
        }
    }

    /// Transfer size of the garbled circuit in bytes: AND tables only
    /// (free XOR), 4 rows × 16 bytes.
    #[must_use]
    pub fn table_bytes(&self) -> u64 {
        self.tables.len() as u64 * 4 * 16
    }
}

/// Garbles a circuit.
///
/// # Panics
///
/// Panics if the circuit references out-of-range wires.
#[must_use]
pub fn garble(circ: &Circuit, rng: &mut StdRng) -> Garbled {
    let mut delta: Label = [rng.gen(), rng.gen()];
    delta[0] |= 1; // permute-bit offset
    let mut zero_labels: Vec<Label> = vec![[0, 0]; circ.wires];
    // Constants and inputs get fresh labels.
    for l in &mut zero_labels {
        *l = [rng.gen(), rng.gen()];
    }
    let mut tables = Vec::with_capacity(circ.and_count());
    for (gid, g) in circ.gates.iter().enumerate() {
        match *g {
            Gate::Xor { a, b, out } => {
                zero_labels[out] = xor_label(zero_labels[a], zero_labels[b]);
            }
            Gate::And { a, b, out } => {
                let out_zero: Label = [rng.gen(), rng.gen()];
                zero_labels[out] = out_zero;
                let mut rows = [[0u64; 2]; 4];
                for bit_a in [false, true] {
                    for bit_b in [false, true] {
                        let la =
                            if bit_a { xor_label(zero_labels[a], delta) } else { zero_labels[a] };
                        let lb =
                            if bit_b { xor_label(zero_labels[b], delta) } else { zero_labels[b] };
                        let out_bit = bit_a & bit_b;
                        let lo = if out_bit { xor_label(out_zero, delta) } else { out_zero };
                        let row = 2 * usize::from(lsb(la)) + usize::from(lsb(lb));
                        rows[row] = xor_label(hash(la, lb, gid as u64), lo);
                    }
                }
                tables.push(GarbledTable { rows });
            }
        }
    }
    Garbled { delta, zero_labels, tables, wires: circ.wires }
}

/// Selects the active input labels for a plaintext input assignment
/// `(a_bits, b_bits)` — in a real deployment party B's labels arrive via
/// OT; here the selection is done directly for cost/correctness testing.
#[must_use]
pub fn select_input_labels(garbled: &Garbled, inputs: &(Vec<bool>, Vec<bool>)) -> InputLabels {
    InputLabels { a: inputs.0.clone(), b: inputs.1.clone(), garbled_delta: garbled.delta }
}

/// The active input-bit assignment (labels are derived inside the
/// evaluator entry point, mirroring label transfer).
#[derive(Clone)]
pub struct InputLabels {
    /// Party A bits.
    pub a: Vec<bool>,
    /// Party B bits.
    pub b: Vec<bool>,
    /// Copied delta (internal).
    pub garbled_delta: Label,
}

/// `Debug` redacts the plaintext input bits and the free-XOR offset; only
/// the (public) input widths are printed.
impl std::fmt::Debug for InputLabels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InputLabels")
            .field("a_len", &self.a.len())
            .field("b_len", &self.b.len())
            .field("bits", &"<redacted>")
            .field("garbled_delta", &"<redacted>")
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::relu_on_shares;

    #[test]
    fn free_xor_labels_consistent() {
        let circ = relu_on_shares(8);
        let mut rng = StdRng::seed_from_u64(3);
        let g = garble(&circ, &mut rng);
        // XOR gate output-zero-label = XOR of input zero labels.
        for gate in &circ.gates {
            if let Gate::Xor { a, b, out } = *gate {
                assert_eq!(g.zero_labels[out], xor_label(g.zero_labels[a], g.zero_labels[b]));
            }
        }
    }

    #[test]
    fn table_bytes_formula() {
        let circ = relu_on_shares(16);
        let mut rng = StdRng::seed_from_u64(4);
        let g = garble(&circ, &mut rng);
        assert_eq!(g.table_bytes(), circ.and_count() as u64 * 64);
    }

    #[test]
    fn labels_differ_per_bit() {
        let circ = relu_on_shares(8);
        let mut rng = StdRng::seed_from_u64(5);
        let g = garble(&circ, &mut rng);
        let w = circ.inputs_a[0];
        assert_ne!(g.label(w, false), g.label(w, true));
        assert_eq!(xor_label(g.label(w, false), g.label(w, true)), g.delta);
    }
}
