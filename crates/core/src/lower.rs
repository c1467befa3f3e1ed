//! Lowering: the order the engine runs a model's operators in.
//!
//! The engine does not execute a model in spec order. It applies one
//! rewrite, **pool before ReLU**: `relu(maxpool(x)) = maxpool(relu(x))`
//! (both are monotone), so every adjacent `ReLU, MaxPool` pair runs as
//! `MaxPool, ReLU` and the secure sign of the ReLU covers the pooled map —
//! `stride²`× fewer elements through the comparison protocol, the dominant
//! online cost — at no accuracy cost (DESIGN.md §7.6).
//!
//! [`Lowering::order`] is the only definition of that order. Every walker
//! that executes, costs or numbers layers — [`crate::prepared`]'s template
//! build, [`crate::instq`]'s compilers, [`crate::planner`] — iterates its
//! output, recursing into residual branches the same way, so layer indices
//! (`conv0, maxpool1, abrelu2, …`) follow execution order everywhere. Both
//! parties derive it from the same public `(model, config)` pair.
//!
//! The rewrite is gated on the planner's headroom rule
//! ([`crate::planner::headroom_ok`]): a tournament over *signed*
//! pre-activations compares `a − b` on the `Q1` view, one bit wider than a
//! difference of ReLU outputs. With the paper's `+4` bits of headroom that
//! bit is free; below it the swap would move the low-bit accuracy cliff
//! (Tables 7–8), so spec order is kept there.

use crate::planner::headroom_ok;
use aq2pnn_nn::quant::QuantOp;
use aq2pnn_nn::spec::OpSpec;

/// The two operator kinds the lowering reorders, over both op
/// representations the crate walks: [`QuantOp`] (the engine, the planner,
/// [`crate::instq::compile`]) and [`OpSpec`] (weight-free cost modelling,
/// [`crate::instq::compile_spec`]).
pub trait ReluPoolOp {
    /// Whether this operator is a ReLU.
    fn is_relu(&self) -> bool;
    /// Whether this operator is a max pooling.
    fn is_max_pool(&self) -> bool;
}

impl ReluPoolOp for QuantOp {
    fn is_relu(&self) -> bool {
        matches!(self, QuantOp::Relu)
    }
    fn is_max_pool(&self) -> bool {
        matches!(self, QuantOp::MaxPool { .. })
    }
}

impl ReluPoolOp for OpSpec {
    fn is_relu(&self) -> bool {
        matches!(self, OpSpec::ReLU)
    }
    fn is_max_pool(&self) -> bool {
        matches!(self, OpSpec::MaxPool { .. })
    }
}

/// The engine's execution order for one `(model, config)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lowering {
    pool_before_relu: bool,
}

impl Lowering {
    /// The lowering for activations of `act_bits` value bits compared on a
    /// `q1_bits` carrier: pool before ReLU exactly when the headroom rule
    /// holds.
    #[must_use]
    pub fn new(q1_bits: u32, act_bits: u32) -> Self {
        Lowering { pool_before_relu: headroom_ok(q1_bits, act_bits) }
    }

    /// One op list (the model's top level or a residual branch) in
    /// execution order: spec order with every adjacent `ReLU, MaxPool`
    /// pair swapped. Borrows the ops — weights are never copied. Walkers
    /// call it again on each residual branch they descend into.
    #[must_use]
    pub fn order<T: ReluPoolOp>(self, ops: &[T]) -> Vec<&T> {
        let mut out: Vec<&T> = ops.iter().collect();
        if self.pool_before_relu {
            let mut i = 0;
            while i + 1 < out.len() {
                if out[i].is_relu() && out[i + 1].is_max_pool() {
                    out.swap(i, i + 1);
                    i += 2;
                } else {
                    i += 1;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use OpSpec::{Flatten, MaxPool, ReLU};

    const POOL: OpSpec = MaxPool { k: 2, stride: 2, pad: 0 };

    #[test]
    fn swaps_adjacent_pairs_only_with_headroom() {
        let ops = [ReLU, POOL, Flatten, ReLU, ReLU, POOL, POOL];
        let lowered = Lowering::new(16, 8).order(&ops);
        let want = [&POOL, &ReLU, &Flatten, &ReLU, &POOL, &ReLU, &POOL];
        assert_eq!(lowered, want);
        // Below the headroom rule the spec order is the execution order.
        let kept = Lowering::new(7, 8).order(&ops);
        assert_eq!(kept, ops.iter().collect::<Vec<_>>());
        // The boundary is the planner's: 8 value bits + 4 of headroom.
        assert!(Lowering::new(12, 8).pool_before_relu);
        assert!(!Lowering::new(11, 8).pool_before_relu);
    }
}
