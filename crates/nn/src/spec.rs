//! Shape-level model specifications.
//!
//! A [`ModelSpec`] describes an architecture independent of its weights:
//! operator list, shapes, and derived cost figures (MACs, parameters,
//! ReLU/comparison counts). Everything downstream — float initialization,
//! quantization, the 2PC engine, the FPGA simulator's per-layer timing,
//! and communication estimates — is driven by the same spec, so the full
//! ImageNet-scale architectures (paper Tables 4–8) can be costed even where
//! running them functionally would need the real dataset.

use crate::NnError;
use std::fmt;

/// Shape of an activation flowing between operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TensorShape {
    /// Channel × height × width feature map.
    Chw(usize, usize, usize),
    /// Flat vector.
    Flat(usize),
}

impl TensorShape {
    /// Total element count.
    #[must_use]
    pub fn elements(self) -> usize {
        match self {
            TensorShape::Chw(c, h, w) => c * h * w,
            TensorShape::Flat(n) => n,
        }
    }
}

impl fmt::Display for TensorShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorShape::Chw(c, h, w) => write!(f, "{c}x{h}x{w}"),
            TensorShape::Flat(n) => write!(f, "{n}"),
        }
    }
}

/// One operator in a model spec. Input channel/feature counts are inferred
/// during shape propagation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpSpec {
    /// 2D convolution (square kernel) with bias.
    Conv2d {
        /// Output channels.
        out_c: usize,
        /// Kernel size.
        k: usize,
        /// Stride.
        stride: usize,
        /// Zero padding on each side.
        pad: usize,
    },
    /// Fully-connected layer with bias.
    Linear {
        /// Output features.
        out: usize,
    },
    /// Batch normalization over channels (folded into `BNReQ` when
    /// quantized, paper Sec. 5.1).
    BatchNorm,
    /// Rectified linear unit — `ABReLU` in the ciphertext domain.
    ReLU,
    /// Max pooling (comparison-based in 2PC; expensive, paper Sec. 6.5).
    MaxPool {
        /// Window size.
        k: usize,
        /// Stride.
        stride: usize,
        /// Zero padding on each side (padding participates with -inf).
        pad: usize,
    },
    /// Average pooling (AS-ALU only in 2PC; cheap).
    AvgPool {
        /// Window size.
        k: usize,
        /// Stride.
        stride: usize,
        /// Zero padding on each side.
        pad: usize,
    },
    /// Global average pooling to `C×1×1`.
    GlobalAvgPool,
    /// Flattens a feature map to a vector.
    Flatten,
    /// Residual block: `out = main(x) + shortcut(x)`; an empty shortcut is
    /// the identity.
    Residual {
        /// Main branch operators.
        main: Vec<OpSpec>,
        /// Shortcut branch operators (empty = identity).
        shortcut: Vec<OpSpec>,
    },
}

/// Coarse operator category used by cost models and the 2PC compiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Convolution (AS-GEMM bound).
    Conv,
    /// Fully connected (AS-GEMM bound).
    Linear,
    /// Batch norm / re-quantization (AS-ALU bound).
    BatchNorm,
    /// ReLU (Sec-COMM bound).
    Relu,
    /// Max pooling (Sec-COMM bound).
    MaxPool,
    /// Average pooling (AS-ALU bound).
    AvgPool,
    /// Global average pooling (AS-ALU bound).
    GlobalAvgPool,
    /// Residual addition (AS-ALU bound).
    Add,
    /// Layout-only op.
    Flatten,
}

/// Derived per-layer cost record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerCost {
    /// Hierarchical label, e.g. `"block3.main.conv1"`.
    pub label: String,
    /// Operator category.
    pub kind: LayerKind,
    /// Multiply-accumulate count.
    pub macs: u64,
    /// Elements entering the operator.
    pub input_elems: u64,
    /// Elements leaving the operator.
    pub output_elems: u64,
    /// Weight (and bias) parameter count.
    pub weight_elems: u64,
    /// Secure comparisons the operator needs in 2PC (ReLU: one per output;
    /// MaxPool: `k·k − 1` per output).
    pub comparisons: u64,
}

/// A complete architecture description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSpec {
    /// Human-readable name, e.g. `"resnet18-imagenet"`.
    pub name: String,
    /// Input activation shape.
    pub input: TensorShape,
    /// Operator list.
    pub ops: Vec<OpSpec>,
}

impl ModelSpec {
    /// Propagates shapes through the network; returns the shape after each
    /// top-level operator.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] if an operator cannot accept its
    /// inferred input shape.
    pub fn infer_shapes(&self) -> Result<Vec<TensorShape>, NnError> {
        let mut shapes = Vec::with_capacity(self.ops.len());
        let mut cur = self.input;
        for (i, op) in self.ops.iter().enumerate() {
            cur = infer_op(op, cur, &format!("op{i}"))?;
            shapes.push(cur);
        }
        Ok(shapes)
    }

    /// The final output shape.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] on shape-inference failure.
    pub fn output_shape(&self) -> Result<TensorShape, NnError> {
        Ok(*self.infer_shapes()?.last().unwrap_or(&self.input))
    }

    /// Per-layer cost records, depth-first through residual blocks.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] on shape-inference failure.
    pub fn layer_costs(&self) -> Result<Vec<LayerCost>, NnError> {
        let mut out = Vec::new();
        let mut cur = self.input;
        for (i, op) in self.ops.iter().enumerate() {
            cur = cost_op(op, cur, &format!("op{i}"), &mut out)?;
        }
        Ok(out)
    }

    /// Total multiply-accumulates for one inference.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] on shape-inference failure.
    pub fn total_macs(&self) -> Result<u64, NnError> {
        Ok(self.layer_costs()?.iter().map(|l| l.macs).sum())
    }

    /// Total parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] on shape-inference failure.
    pub fn total_params(&self) -> Result<u64, NnError> {
        Ok(self.layer_costs()?.iter().map(|l| l.weight_elems).sum())
    }

    /// Total secure comparisons (ReLU + MaxPool) — the Sec-COMM workload.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] on shape-inference failure.
    pub fn total_comparisons(&self) -> Result<u64, NnError> {
        Ok(self.layer_costs()?.iter().map(|l| l.comparisons).sum())
    }

    /// Replaces every MaxPool with an AvgPool of the same geometry — the
    /// Sec. 6.5 structural optimization (Tables 6–8).
    #[must_use]
    pub fn with_avg_pooling(&self) -> ModelSpec {
        fn swap(ops: &[OpSpec]) -> Vec<OpSpec> {
            ops.iter()
                .map(|op| match op {
                    OpSpec::MaxPool { k, stride, pad } => {
                        OpSpec::AvgPool { k: *k, stride: *stride, pad: *pad }
                    }
                    OpSpec::Residual { main, shortcut } => {
                        OpSpec::Residual { main: swap(main), shortcut: swap(shortcut) }
                    }
                    other => other.clone(),
                })
                .collect()
        }
        ModelSpec {
            name: format!("{}-avgpool", self.name),
            input: self.input,
            ops: swap(&self.ops),
        }
    }
}

fn pool_out(h: usize, k: usize, stride: usize, pad: usize) -> usize {
    (h + 2 * pad - k) / stride + 1
}

fn infer_op(op: &OpSpec, input: TensorShape, label: &str) -> Result<TensorShape, NnError> {
    let invalid = |msg: String| Err(NnError::InvalidSpec(format!("{label}: {msg}")));
    match op {
        OpSpec::Conv2d { out_c, k, stride, pad } => match input {
            TensorShape::Chw(_, h, w) => {
                if h + 2 * pad < *k || w + 2 * pad < *k {
                    return invalid(format!("conv k={k} larger than padded input {h}x{w}"));
                }
                let oh = (h + 2 * pad - k) / stride + 1;
                let ow = (w + 2 * pad - k) / stride + 1;
                Ok(TensorShape::Chw(*out_c, oh, ow))
            }
            TensorShape::Flat(_) => invalid("conv needs a CHW input".into()),
        },
        OpSpec::Linear { out } => match input {
            TensorShape::Flat(_) => Ok(TensorShape::Flat(*out)),
            TensorShape::Chw(..) => invalid("linear needs a flat input (insert Flatten)".into()),
        },
        OpSpec::BatchNorm | OpSpec::ReLU => Ok(input),
        OpSpec::MaxPool { k, stride, pad } | OpSpec::AvgPool { k, stride, pad } => match input {
            TensorShape::Chw(c, h, w) => {
                if h + 2 * pad < *k || w + 2 * pad < *k {
                    return invalid(format!("pool k={k} larger than padded input {h}x{w}"));
                }
                Ok(TensorShape::Chw(
                    c,
                    pool_out(h, *k, *stride, *pad),
                    pool_out(w, *k, *stride, *pad),
                ))
            }
            TensorShape::Flat(_) => invalid("pool needs a CHW input".into()),
        },
        OpSpec::GlobalAvgPool => match input {
            TensorShape::Chw(c, _, _) => Ok(TensorShape::Chw(c, 1, 1)),
            TensorShape::Flat(_) => invalid("global pool needs a CHW input".into()),
        },
        OpSpec::Flatten => Ok(TensorShape::Flat(input.elements())),
        OpSpec::Residual { main, shortcut } => {
            let mut m = input;
            for (i, sub) in main.iter().enumerate() {
                m = infer_op(sub, m, &format!("{label}.main.{i}"))?;
            }
            let mut s = input;
            for (i, sub) in shortcut.iter().enumerate() {
                s = infer_op(sub, s, &format!("{label}.shortcut.{i}"))?;
            }
            if m != s {
                return invalid(format!("residual branch shapes differ: {m} vs {s}"));
            }
            Ok(m)
        }
    }
}

fn cost_op(
    op: &OpSpec,
    input: TensorShape,
    label: &str,
    out: &mut Vec<LayerCost>,
) -> Result<TensorShape, NnError> {
    let output = infer_op(op, input, label)?;
    let (in_e, out_e) = (input.elements() as u64, output.elements() as u64);
    match op {
        OpSpec::Conv2d { out_c, k, .. } => {
            let in_c = match input {
                TensorShape::Chw(c, _, _) => c,
                TensorShape::Flat(_) => unreachable!("validated by infer_op"),
            };
            let macs = out_e * (in_c * k * k) as u64;
            let weights = (out_c * in_c * k * k + out_c) as u64;
            out.push(LayerCost {
                label: label.to_owned(),
                kind: LayerKind::Conv,
                macs,
                input_elems: in_e,
                output_elems: out_e,
                weight_elems: weights,
                comparisons: 0,
            });
        }
        OpSpec::Linear { out: o } => {
            let macs = in_e * *o as u64;
            out.push(LayerCost {
                label: label.to_owned(),
                kind: LayerKind::Linear,
                macs,
                input_elems: in_e,
                output_elems: out_e,
                weight_elems: macs + *o as u64,
                comparisons: 0,
            });
        }
        OpSpec::BatchNorm => out.push(LayerCost {
            label: label.to_owned(),
            kind: LayerKind::BatchNorm,
            macs: in_e,
            input_elems: in_e,
            output_elems: out_e,
            weight_elems: 2 * channels(input) as u64,
            comparisons: 0,
        }),
        OpSpec::ReLU => out.push(LayerCost {
            label: label.to_owned(),
            kind: LayerKind::Relu,
            macs: 0,
            input_elems: in_e,
            output_elems: out_e,
            weight_elems: 0,
            comparisons: out_e,
        }),
        OpSpec::MaxPool { k, .. } => out.push(LayerCost {
            label: label.to_owned(),
            kind: LayerKind::MaxPool,
            macs: 0,
            input_elems: in_e,
            output_elems: out_e,
            weight_elems: 0,
            comparisons: out_e * (k * k - 1) as u64,
        }),
        OpSpec::AvgPool { k, .. } => out.push(LayerCost {
            label: label.to_owned(),
            kind: LayerKind::AvgPool,
            macs: out_e * (k * k) as u64,
            input_elems: in_e,
            output_elems: out_e,
            weight_elems: 0,
            comparisons: 0,
        }),
        OpSpec::GlobalAvgPool => out.push(LayerCost {
            label: label.to_owned(),
            kind: LayerKind::GlobalAvgPool,
            macs: in_e,
            input_elems: in_e,
            output_elems: out_e,
            weight_elems: 0,
            comparisons: 0,
        }),
        OpSpec::Flatten => out.push(LayerCost {
            label: label.to_owned(),
            kind: LayerKind::Flatten,
            macs: 0,
            input_elems: in_e,
            output_elems: out_e,
            weight_elems: 0,
            comparisons: 0,
        }),
        OpSpec::Residual { main, shortcut } => {
            let mut cur = input;
            for (i, sub) in main.iter().enumerate() {
                cur = cost_op(sub, cur, &format!("{label}.main.{i}"), out)?;
            }
            let mut s = input;
            for (i, sub) in shortcut.iter().enumerate() {
                s = cost_op(sub, s, &format!("{label}.shortcut.{i}"), out)?;
            }
            out.push(LayerCost {
                label: format!("{label}.add"),
                kind: LayerKind::Add,
                macs: out_e,
                input_elems: 2 * out_e,
                output_elems: out_e,
                weight_elems: 0,
                comparisons: 0,
            });
        }
    }
    Ok(output)
}

fn channels(shape: TensorShape) -> usize {
    match shape {
        TensorShape::Chw(c, _, _) => c,
        TensorShape::Flat(n) => n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lenet_like() -> ModelSpec {
        ModelSpec {
            name: "test".into(),
            input: TensorShape::Chw(1, 28, 28),
            ops: vec![
                OpSpec::Conv2d { out_c: 6, k: 5, stride: 1, pad: 2 },
                OpSpec::ReLU,
                OpSpec::MaxPool { k: 2, stride: 2, pad: 0 },
                OpSpec::Conv2d { out_c: 16, k: 5, stride: 1, pad: 0 },
                OpSpec::ReLU,
                OpSpec::MaxPool { k: 2, stride: 2, pad: 0 },
                OpSpec::Flatten,
                OpSpec::Linear { out: 120 },
                OpSpec::ReLU,
                OpSpec::Linear { out: 10 },
            ],
        }
    }

    #[test]
    fn shape_inference_lenet() {
        let s = lenet_like();
        let shapes = s.infer_shapes().unwrap();
        assert_eq!(shapes[0], TensorShape::Chw(6, 28, 28));
        assert_eq!(shapes[2], TensorShape::Chw(6, 14, 14));
        assert_eq!(shapes[3], TensorShape::Chw(16, 10, 10));
        assert_eq!(shapes[5], TensorShape::Chw(16, 5, 5));
        assert_eq!(shapes[6], TensorShape::Flat(400));
        assert_eq!(s.output_shape().unwrap(), TensorShape::Flat(10));
    }

    #[test]
    fn conv_macs_formula() {
        let s = ModelSpec {
            name: "c".into(),
            input: TensorShape::Chw(3, 8, 8),
            ops: vec![OpSpec::Conv2d { out_c: 4, k: 3, stride: 1, pad: 1 }],
        };
        let c = &s.layer_costs().unwrap()[0];
        // 4 out-ch × 8×8 out-pix × 3 in-ch × 9 taps
        assert_eq!(c.macs, 4 * 64 * 27);
        assert_eq!(c.weight_elems, (4 * 3 * 9 + 4) as u64);
    }

    #[test]
    fn comparisons_count_relu_and_maxpool() {
        let s = lenet_like();
        let relu: u64 = s
            .layer_costs()
            .unwrap()
            .iter()
            .filter(|l| l.kind == LayerKind::Relu)
            .map(|l| l.comparisons)
            .sum();
        // ReLUs: 6*28*28 + 16*10*10 + 120 = 4704 + 1600 + 120.
        assert_eq!(relu, 4704 + 1600 + 120);
        let pool: u64 = s
            .layer_costs()
            .unwrap()
            .iter()
            .filter(|l| l.kind == LayerKind::MaxPool)
            .map(|l| l.comparisons)
            .sum();
        // 2×2 maxpool: 3 comparisons per output.
        assert_eq!(pool, 3 * (6 * 14 * 14 + 16 * 5 * 5));
    }

    #[test]
    fn residual_shapes_must_agree() {
        let bad = ModelSpec {
            name: "bad".into(),
            input: TensorShape::Chw(4, 8, 8),
            ops: vec![OpSpec::Residual {
                main: vec![OpSpec::Conv2d { out_c: 8, k: 3, stride: 1, pad: 1 }],
                shortcut: vec![],
            }],
        };
        assert!(matches!(bad.infer_shapes(), Err(NnError::InvalidSpec(_))));
    }

    #[test]
    fn residual_with_projection_ok() {
        let good = ModelSpec {
            name: "good".into(),
            input: TensorShape::Chw(4, 8, 8),
            ops: vec![OpSpec::Residual {
                main: vec![
                    OpSpec::Conv2d { out_c: 8, k: 3, stride: 2, pad: 1 },
                    OpSpec::BatchNorm,
                    OpSpec::ReLU,
                    OpSpec::Conv2d { out_c: 8, k: 3, stride: 1, pad: 1 },
                ],
                shortcut: vec![OpSpec::Conv2d { out_c: 8, k: 1, stride: 2, pad: 0 }],
            }],
        };
        assert_eq!(good.output_shape().unwrap(), TensorShape::Chw(8, 4, 4));
        // Costs include both branches plus the add.
        let kinds: Vec<LayerKind> = good.layer_costs().unwrap().iter().map(|l| l.kind).collect();
        assert!(kinds.contains(&LayerKind::Add));
        assert_eq!(kinds.iter().filter(|k| **k == LayerKind::Conv).count(), 3);
    }

    #[test]
    fn avg_pool_swap() {
        let s = lenet_like().with_avg_pooling();
        assert!(s.name.ends_with("-avgpool"));
        assert_eq!(s.total_comparisons().unwrap(), 4704 + 1600 + 120); // only ReLUs remain
    }

    #[test]
    fn invalid_pool_rejected() {
        let s = ModelSpec {
            name: "p".into(),
            input: TensorShape::Chw(1, 2, 2),
            ops: vec![OpSpec::MaxPool { k: 3, stride: 1, pad: 0 }],
        };
        assert!(s.infer_shapes().is_err());
    }
}
