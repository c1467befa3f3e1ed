//! Boolean circuits and builders.

/// Wire identifier.
pub type WireId = usize;

/// A gate in a boolean circuit. NOT is expressed as XOR with the constant
/// one wire so that free-XOR covers it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// `out = a ⊕ b` (free under free-XOR garbling).
    Xor {
        /// Left input.
        a: WireId,
        /// Right input.
        b: WireId,
        /// Output wire.
        out: WireId,
    },
    /// `out = a ∧ b` (costs a garbled table).
    And {
        /// Left input.
        a: WireId,
        /// Right input.
        b: WireId,
        /// Output wire.
        out: WireId,
    },
}

/// A boolean circuit over two parties' bit inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Circuit {
    /// Total wires. Wires `0` and `1` are the constants 0 and 1.
    pub wires: usize,
    /// Garbler's input wires (party A).
    pub inputs_a: Vec<WireId>,
    /// Evaluator's input wires (party B).
    pub inputs_b: Vec<WireId>,
    /// Gates in topological order.
    pub gates: Vec<Gate>,
    /// Output wires, LSB first.
    pub outputs: Vec<WireId>,
}

impl Circuit {
    /// Number of AND gates (the garbling cost driver).
    #[must_use]
    pub fn and_count(&self) -> usize {
        self.gates.iter().filter(|g| matches!(g, Gate::And { .. })).count()
    }

    /// Number of XOR gates (free under free-XOR).
    #[must_use]
    pub fn xor_count(&self) -> usize {
        self.gates.len() - self.and_count()
    }

    /// Evaluates the circuit in the clear (reference semantics).
    ///
    /// # Panics
    ///
    /// Panics if input lengths disagree with the circuit.
    #[must_use]
    pub fn eval_plain(&self, a_bits: &[bool], b_bits: &[bool]) -> Vec<bool> {
        assert_eq!(a_bits.len(), self.inputs_a.len(), "party A input width");
        assert_eq!(b_bits.len(), self.inputs_b.len(), "party B input width");
        let mut w = vec![false; self.wires];
        w[1] = true;
        for (wire, &bit) in self.inputs_a.iter().zip(a_bits) {
            w[*wire] = bit;
        }
        for (wire, &bit) in self.inputs_b.iter().zip(b_bits) {
            w[*wire] = bit;
        }
        for g in &self.gates {
            match *g {
                Gate::Xor { a, b, out } => w[out] = w[a] ^ w[b],
                Gate::And { a, b, out } => w[out] = w[a] & w[b],
            }
        }
        self.outputs.iter().map(|&o| w[o]).collect()
    }
}

/// Incremental circuit builder.
#[derive(Debug, Default)]
pub struct Builder {
    wires: usize,
    gates: Vec<Gate>,
}

impl Builder {
    /// Creates a builder with the two constant wires allocated.
    #[must_use]
    pub fn new() -> Self {
        Builder { wires: 2, gates: Vec::new() }
    }

    /// The constant-0 wire.
    #[must_use]
    pub fn zero(&self) -> WireId {
        0
    }

    /// The constant-1 wire.
    #[must_use]
    pub fn one(&self) -> WireId {
        1
    }

    /// Allocates a fresh input wire.
    pub fn input(&mut self) -> WireId {
        let w = self.wires;
        self.wires += 1;
        w
    }

    /// `a ⊕ b`.
    pub fn xor(&mut self, a: WireId, b: WireId) -> WireId {
        let out = self.wires;
        self.wires += 1;
        self.gates.push(Gate::Xor { a, b, out });
        out
    }

    /// `a ∧ b`.
    pub fn and(&mut self, a: WireId, b: WireId) -> WireId {
        let out = self.wires;
        self.wires += 1;
        self.gates.push(Gate::And { a, b, out });
        out
    }

    /// `¬a` (XOR with constant 1 — free).
    pub fn not(&mut self, a: WireId) -> WireId {
        self.xor(a, 1)
    }

    /// `a ∨ b = ¬(¬a ∧ ¬b)`.
    pub fn or(&mut self, a: WireId, b: WireId) -> WireId {
        let na = self.not(a);
        let nb = self.not(b);
        let n = self.and(na, nb);
        self.not(n)
    }

    /// `sel ? t : f` per bit.
    pub fn mux(&mut self, sel: WireId, t: WireId, f: WireId) -> WireId {
        // f ⊕ sel·(t ⊕ f): one AND per bit.
        let d = self.xor(t, f);
        let sd = self.and(sel, d);
        self.xor(f, sd)
    }

    /// Ripple-carry addition of two little-endian bit vectors mod `2^n`.
    /// One AND per bit position (the carry MAJ via the free-XOR trick).
    ///
    /// # Panics
    ///
    /// Panics if the operands differ in width.
    pub fn add(&mut self, a: &[WireId], b: &[WireId]) -> Vec<WireId> {
        assert_eq!(a.len(), b.len(), "adder operand width");
        let mut carry = self.zero();
        let mut out = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let axc = self.xor(a[i], carry);
            let bxc = self.xor(b[i], carry);
            let s = self.xor(axc, b[i]);
            out.push(s);
            if i + 1 < a.len() {
                // carry' = carry ⊕ ((a⊕carry)(b⊕carry))
                let t = self.and(axc, bxc);
                carry = self.xor(carry, t);
            }
        }
        out
    }

    /// Finalizes into a [`Circuit`].
    #[must_use]
    pub fn finish(
        self,
        inputs_a: Vec<WireId>,
        inputs_b: Vec<WireId>,
        outputs: Vec<WireId>,
    ) -> Circuit {
        Circuit { wires: self.wires, inputs_a, inputs_b, gates: self.gates, outputs }
    }
}

/// Builds the ℓ-bit GC-ReLU over additive shares: inputs are party A's
/// share and party B's share (little-endian bits), output is
/// `relu((x_a + x_b) mod 2^ℓ)`.
///
/// Structure: an ℓ-bit ripple-carry adder reconstructs `x` inside the
/// circuit, the MSB is the sign, and every output bit is `x_i ∧ ¬sign`.
#[must_use]
pub fn relu_on_shares(bits: u32) -> Circuit {
    let n = bits as usize;
    let mut b = Builder::new();
    let a_in: Vec<WireId> = (0..n).map(|_| b.input()).collect();
    let b_in: Vec<WireId> = (0..n).map(|_| b.input()).collect();
    let sum = b.add(&a_in, &b_in);
    let sign = sum[n - 1];
    let keep = b.not(sign);
    let outputs: Vec<WireId> = sum.iter().map(|&s| b.and(keep, s)).collect();
    b.finish(a_in, b_in, outputs)
}

/// Builds an ℓ-bit unsigned millionaires' comparator: output bit is
/// `a < b` for the two parties' private values.
#[must_use]
pub fn less_than(bits: u32) -> Circuit {
    let n = bits as usize;
    let mut b = Builder::new();
    let a_in: Vec<WireId> = (0..n).map(|_| b.input()).collect();
    let b_in: Vec<WireId> = (0..n).map(|_| b.input()).collect();
    // lt_i = (¬a_i ∧ b_i) ∨ ((a_i == b_i) ∧ lt_{i-1}), from LSB up.
    let mut lt = b.zero();
    for i in 0..n {
        let eq = {
            let x = b.xor(a_in[i], b_in[i]);
            b.not(x)
        };
        let na = b.not(a_in[i]);
        let here = b.and(na, b_in[i]);
        let carry = b.and(eq, lt);
        lt = b.or(here, carry);
    }
    b.finish(a_in, b_in, vec![lt])
}

/// Encodes the two parties' ℓ-bit values as circuit input bit vectors
/// (little-endian), for a circuit whose inputs are `ℓ + ℓ` bits.
#[must_use]
pub fn encode_inputs(circ: &Circuit, a: u64, b: u64, bits: u32) -> (Vec<bool>, Vec<bool>) {
    let to_bits = |v: u64| (0..bits).map(|i| (v >> i) & 1 == 1).collect::<Vec<_>>();
    let _ = circ;
    (to_bits(a), to_bits(b))
}

/// Decodes a little-endian bit vector to u64.
#[must_use]
pub fn bits_to_u64(bits: &[bool]) -> u64 {
    bits.iter().enumerate().fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adder_matches_wrapping_add() {
        let n = 8u32;
        let mut b = Builder::new();
        let a_in: Vec<WireId> = (0..n).map(|_| b.input()).collect();
        let b_in: Vec<WireId> = (0..n).map(|_| b.input()).collect();
        let sum = b.add(&a_in, &b_in);
        let circ = b.finish(a_in, b_in, sum);
        for (x, y) in [(0u64, 0u64), (255, 1), (100, 156), (77, 33), (128, 128)] {
            let (xa, xb) = encode_inputs(&circ, x, y, 8);
            let out = circ.eval_plain(&xa, &xb);
            assert_eq!(bits_to_u64(&out), (x + y) & 0xff, "{x}+{y}");
        }
    }

    #[test]
    fn relu_on_shares_plain_semantics() {
        let circ = relu_on_shares(8);
        for x in [-128i64, -3, -1, 0, 1, 77, 127] {
            let enc = (x as u64) & 0xff;
            for r in [0u64, 17, 200, 255] {
                let (xa, xb) = encode_inputs(&circ, r, enc.wrapping_sub(r) & 0xff, 8);
                let out = bits_to_u64(&circ.eval_plain(&xa, &xb));
                let expect = if x > 0 { x as u64 } else { 0 };
                assert_eq!(out, expect, "x={x} r={r}");
            }
        }
    }

    #[test]
    fn less_than_exhaustive_4bit() {
        let circ = less_than(4);
        for a in 0..16u64 {
            for b in 0..16u64 {
                let (xa, xb) = encode_inputs(&circ, a, b, 4);
                assert_eq!(circ.eval_plain(&xa, &xb)[0], a < b, "{a} < {b}");
            }
        }
    }

    #[test]
    fn relu_gate_counts_scale_linearly() {
        let c16 = relu_on_shares(16);
        let c32 = relu_on_shares(32);
        // Adder: ℓ−1 ANDs; gating: ℓ ANDs → ~2ℓ.
        assert_eq!(c16.and_count(), 15 + 16);
        assert_eq!(c32.and_count(), 31 + 32);
        assert!(c32.wires > c16.wires);
    }
}
