//! Post-training quantization and integer inference.
//!
//! Follows the paper's scheme (Sec. 5.1, after HAWQ-v3): symmetric
//! per-layer scales, BatchNorm folded into the preceding convolution, and
//! re-quantization by a **dyadic** multiplier — scale factor `I_m` and
//! truncation bits `I_e`, so that `y = (acc · I_m) >> I_e`. Dyadic requant
//! is what makes the ciphertext version possible: `BNReQ` becomes one P-C
//! multiplication plus a share truncation on the ring (paper Fig. 8 step ⑦).
//!
//! Two inference paths exist:
//!
//! * [`QuantModel::forward`] — the plaintext quantized model of Fig. 9(a):
//!   exact integer arithmetic with saturating activation clipping.
//! * [`QuantModel::forward_ring`] — the ciphertext-domain *pipeline
//!   simulation* of Fig. 9(c) in the stay-wide structure the engine uses:
//!   values live wrapped on the MAC ring `Q2`; ABReLU and max-pool
//!   decisions are made on the value's low `Q1` bits (the deterministic
//!   accuracy cliff of Tables 7–8 / Figs. 10–11); SecureML-style
//!   truncation noise (±1 LSB plus a rare `≈|x|/2^{Q2}` wrap) is injected
//!   stochastically. `forward_ring_exact` is the noise-free variant that
//!   the integration tests prove bit-identical to the real 2PC engine.

use crate::float::{FloatNet, Fnv1a, Layer};
use crate::spec::TensorShape;
use crate::tensor::argmax_i64;
use crate::NnError;
use aq2pnn_ring::Ring;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Quantization hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantConfig {
    /// Weight bit-width (paper: 8).
    pub weight_bits: u32,
    /// Activation bit-width of the plaintext quantized model (paper: 8,
    /// carried on a 12-bit ring which is then extended to 16).
    pub act_bits: u32,
    /// Bit-width of the dyadic multiplier `I_m`.
    pub mult_bits: u32,
}

impl QuantConfig {
    /// The paper's default: INT8 weights and activations, 16-bit `I_m`.
    #[must_use]
    pub fn int8() -> Self {
        QuantConfig { weight_bits: 8, act_bits: 8, mult_bits: 16 }
    }
}

/// A dyadic re-quantization factor `I_m / 2^{I_e}` (paper Sec. 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Requant {
    /// The integer multiplier `I_m`.
    pub mult: i64,
    /// The truncation bit count `I_e`.
    pub shift: u32,
}

impl Requant {
    /// Identity requantization.
    #[must_use]
    pub fn identity() -> Self {
        Requant { mult: 1, shift: 0 }
    }

    /// Best dyadic approximation of a positive real ratio with a
    /// `mult_bits`-bit multiplier.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Quantization`] if `ratio` is not finite and
    /// positive.
    pub fn from_ratio(ratio: f64, mult_bits: u32) -> Result<Self, NnError> {
        if !(ratio.is_finite() && ratio > 0.0) {
            return Err(NnError::Quantization(format!("requant ratio {ratio} must be positive")));
        }
        let target = 1i64 << (mult_bits - 1);
        let mut shift = 0u32;
        let mut scaled = ratio;
        while (scaled.round() as i64) < target / 2 && shift < 62 {
            scaled *= 2.0;
            shift += 1;
        }
        while scaled.round() as i64 >= target && shift > 0 {
            scaled /= 2.0;
            shift -= 1;
        }
        if scaled.round() as i64 >= target {
            return Err(NnError::Quantization(format!("requant ratio {ratio} too large")));
        }
        Ok(Requant { mult: scaled.round().max(1.0) as i64, shift })
    }

    /// Applies the requantization with flooring shift — the semantics of
    /// the 2PC truncation.
    #[must_use]
    pub fn apply(&self, acc: i64) -> i64 {
        (acc.wrapping_mul(self.mult)) >> self.shift
    }

    /// The real ratio this dyadic pair approximates.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.mult as f64 / (1u64 << self.shift) as f64
    }
}

/// One operator of a quantized model. Weights are BN-folded integers.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantOp {
    /// Convolution + folded BN + requantization (`2PC-Conv2D` + `2PC-BNReQ`).
    Conv2d {
        /// Input channels.
        in_c: usize,
        /// Output channels.
        out_c: usize,
        /// Kernel size.
        k: usize,
        /// Stride.
        stride: usize,
        /// Padding.
        pad: usize,
        /// Input spatial dims.
        in_hw: (usize, usize),
        /// Output spatial dims.
        out_hw: (usize, usize),
        /// Quantized weights `[out_c × in_c × k × k]`.
        w: Vec<i64>,
        /// Quantized bias (at accumulator scale).
        bias: Vec<i64>,
        /// Output requantization.
        requant: Requant,
    },
    /// Fully connected + requantization.
    Linear {
        /// Input features.
        in_f: usize,
        /// Output features.
        out_f: usize,
        /// Quantized weights `[out_f × in_f]`.
        w: Vec<i64>,
        /// Quantized bias (at accumulator scale).
        bias: Vec<i64>,
        /// Output requantization.
        requant: Requant,
    },
    /// ReLU (→ ABReLU in 2PC).
    Relu,
    /// Max pooling (→ SCM comparisons in 2PC).
    MaxPool {
        /// Window.
        k: usize,
        /// Stride.
        stride: usize,
        /// Padding.
        pad: usize,
        /// Channels.
        c: usize,
        /// Input spatial dims.
        in_hw: (usize, usize),
        /// Output spatial dims.
        out_hw: (usize, usize),
    },
    /// Average pooling: sum then dyadic division (AS-ALU only in 2PC).
    AvgPool {
        /// Window.
        k: usize,
        /// Stride.
        stride: usize,
        /// Padding.
        pad: usize,
        /// Channels.
        c: usize,
        /// Input spatial dims.
        in_hw: (usize, usize),
        /// Output spatial dims.
        out_hw: (usize, usize),
        /// Dyadic `1/k²`.
        requant: Requant,
    },
    /// Global average pooling: sum then dyadic division.
    GlobalAvgPool {
        /// Channels.
        c: usize,
        /// Input spatial dims.
        in_hw: (usize, usize),
        /// Dyadic `1/(h·w)`.
        requant: Requant,
    },
    /// Layout change only.
    Flatten,
    /// Pure rescale between activation scales (AS-ALU mul + truncate).
    Rescale {
        /// The dyadic scale change.
        requant: Requant,
    },
    /// Residual block; both branches are requantized to a common output
    /// scale before the add.
    Residual {
        /// Main branch.
        main: Vec<QuantOp>,
        /// Shortcut branch (already includes its rescale; empty means the
        /// identity was rescaled via `shortcut_rescale`).
        shortcut: Vec<QuantOp>,
    },
}

/// A quantized model: integer ops plus input/output scales.
#[derive(Debug, Clone)]
pub struct QuantModel {
    /// Architecture name (from the spec).
    pub name: String,
    /// Input shape.
    pub input_shape: TensorShape,
    /// The operator list.
    pub ops: Vec<QuantOp>,
    /// Input activation scale (float = int × scale).
    pub input_scale: f32,
    /// Output logit scale.
    pub output_scale: f32,
    /// Activation bit-width.
    pub act_bits: u32,
    /// Weight bit-width.
    pub weight_bits: u32,
}

fn qmax(bits: u32) -> i64 {
    (1i64 << (bits - 1)) - 1
}

/// Quantizes a float image with a public input scale, clamping to the
/// signed `bits`-bit range — the standalone form of
/// [`QuantModel::quantize_input`], usable without holding the full model
/// (e.g. by a prepared-model runner that only retains the scale).
#[must_use]
pub fn quantize_image(image: &[f32], input_scale: f32, act_bits: u32) -> Vec<i64> {
    let q = qmax(act_bits);
    image.iter().map(|&v| ((v / input_scale).round() as i64).clamp(-q - 1, q)).collect()
}

impl QuantModel {
    /// Quantizes a trained float network using calibration images to set
    /// the activation scales (post-training quantization, paper Sec. 5.1).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Quantization`] on degenerate calibration ranges
    /// and [`NnError::InvalidSpec`] for unsupported structures (e.g. a
    /// BatchNorm not preceded by a convolution).
    pub fn quantize(
        net: &FloatNet,
        calibration: &[Vec<f32>],
        cfg: &QuantConfig,
    ) -> Result<QuantModel, NnError> {
        if calibration.is_empty() {
            return Err(NnError::Quantization("empty calibration set".into()));
        }
        // Collect per-layer max-abs activations (DFS order, residual adds
        // get their own entry).
        let mut net = net.clone();
        let mut ranges: Vec<f32> = Vec::new();
        let mut input_max = 0f32;
        for img in calibration {
            input_max = input_max.max(img.iter().fold(0f32, |m, &v| m.max(v.abs())));
            let mut local = Vec::new();
            let _ = collect_ranges(&mut net.layers, img.clone(), &mut local);
            if ranges.is_empty() {
                ranges = local;
            } else {
                for (r, l) in ranges.iter_mut().zip(local) {
                    *r = r.max(l);
                }
            }
        }
        let input_scale = scale_for(input_max, cfg.act_bits)?;

        let mut idx = 0usize;
        let (ops, output_scale) =
            quantize_layers(&net.layers, &ranges, &mut idx, input_scale, cfg)?;
        Ok(QuantModel {
            name: net.spec().name.clone(),
            input_shape: net.spec().input,
            ops,
            input_scale,
            output_scale,
            act_bits: cfg.act_bits,
            weight_bits: cfg.weight_bits,
        })
    }

    /// Quantizes a float image to the model's integer input domain.
    #[must_use]
    pub fn quantize_input(&self, image: &[f32]) -> Vec<i64> {
        quantize_image(image, self.input_scale, self.act_bits)
    }

    /// Plaintext integer inference: quantize input, run ops, return integer
    /// logits.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the image has the wrong size.
    pub fn forward(&self, image: &[f32]) -> Result<Vec<i64>, NnError> {
        self.forward_int(&self.quantize_input(image))
    }

    /// Integer inference from an already-quantized input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the input has the wrong size.
    pub fn forward_int(&self, input: &[i64]) -> Result<Vec<i64>, NnError> {
        if input.len() != self.input_shape.elements() {
            return Err(NnError::ShapeMismatch {
                op: "forward_int".into(),
                expected: vec![self.input_shape.elements()],
                actual: vec![input.len()],
            });
        }
        let clip = qmax(self.act_bits);
        Ok(run_ops(&self.ops, input.to_vec(), &mut Saturate { clip }))
    }

    /// Ciphertext-pipeline simulation (see module docs): activations on a
    /// `q1_bits` carrier ring, extended to `q2_bits` for convolution, with
    /// the local share-extension and share-truncation failure modes
    /// injected stochastically at their analytic rates.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the image has the wrong size.
    pub fn forward_ring(
        &self,
        image: &[f32],
        q1_bits: u32,
        q2_bits: u32,
        seed: u64,
    ) -> Result<Vec<i64>, NnError> {
        if image.len() != self.input_shape.elements() {
            return Err(NnError::ShapeMismatch {
                op: "forward_ring".into(),
                expected: vec![self.input_shape.elements()],
                actual: vec![image.len()],
            });
        }
        let mut sim = RingSim {
            q1: Ring::new(q1_bits),
            q2: Ring::new(q2_bits),
            rng: StdRng::seed_from_u64(seed),
        };
        let input = self.quantize_input(image);
        // Wrap the input onto the carrier ring first.
        let x: Vec<i64> = input.iter().map(|&v| sim.wrap_q1(v)).collect();
        Ok(run_ops(&self.ops, x, &mut sim))
    }

    /// Deterministic ciphertext-ring reference: like the 2PC engine with
    /// exact share conversions — accumulators wrap on `Q2 = 2^{q2_bits}`,
    /// activations wrap on `Q1 = 2^{q1_bits}`, no stochastic failures.
    /// Bit-identical to `aq2pnn`'s engine under `ProtocolConfig::exact`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the image has the wrong size.
    pub fn forward_ring_exact(
        &self,
        image: &[f32],
        q1_bits: u32,
        q2_bits: u32,
    ) -> Result<Vec<i64>, NnError> {
        if image.len() != self.input_shape.elements() {
            return Err(NnError::ShapeMismatch {
                op: "forward_ring_exact".into(),
                expected: vec![self.input_shape.elements()],
                actual: vec![image.len()],
            });
        }
        let mut policy = WrapExact { q1: Ring::new(q1_bits), q2: Ring::new(q2_bits) };
        let input = self.quantize_input(image);
        let x: Vec<i64> = input.iter().map(|&v| policy.on_activation(v)).collect();
        Ok(run_ops(&self.ops, x, &mut policy))
    }

    /// A stable digest (FNV-1a) of the integer weights, biases, dyadic
    /// requant factors and input/output scales, in op order — the
    /// quantized counterpart of [`FloatNet::fingerprint`].
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fn walk(ops: &[QuantOp], h: &mut Fnv1a) {
            let requant = |h: &mut Fnv1a, r: &Requant| {
                h.bytes(&r.mult.to_le_bytes());
                h.bytes(&r.shift.to_le_bytes());
            };
            for op in ops {
                match op {
                    QuantOp::Conv2d { w, bias, requant: r, .. }
                    | QuantOp::Linear { w, bias, requant: r, .. } => {
                        for v in w.iter().chain(bias) {
                            h.bytes(&v.to_le_bytes());
                        }
                        requant(h, r);
                    }
                    QuantOp::AvgPool { requant: r, .. }
                    | QuantOp::GlobalAvgPool { requant: r, .. }
                    | QuantOp::Rescale { requant: r } => requant(h, r),
                    QuantOp::Residual { main, shortcut } => {
                        walk(main, h);
                        walk(shortcut, h);
                    }
                    QuantOp::Relu | QuantOp::MaxPool { .. } | QuantOp::Flatten => {}
                }
            }
        }
        let mut h = Fnv1a::default();
        h.f32s(&[self.input_scale, self.output_scale]);
        walk(&self.ops, &mut h);
        h.0
    }

    /// Top-1 accuracy of plaintext integer inference.
    #[must_use]
    pub fn accuracy(&self, samples: &[crate::data::Sample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let correct = samples
            .iter()
            .filter(|s| self.forward(&s.image).map(|l| argmax_i64(&l) == s.label).unwrap_or(false))
            .count();
        correct as f64 / samples.len() as f64
    }

    /// Top-1 accuracy of the ciphertext-pipeline simulation at the given
    /// ring widths.
    #[must_use]
    pub fn accuracy_ring(&self, samples: &[crate::data::Sample], q1: u32, q2: u32) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let correct = samples
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                self.forward_ring(&s.image, q1, q2, *i as u64)
                    .map(|l| argmax_i64(&l) == s.label)
                    .unwrap_or(false)
            })
            .count();
        correct as f64 / samples.len() as f64
    }
}

fn scale_for(max_abs: f32, bits: u32) -> Result<f32, NnError> {
    if !max_abs.is_finite() || max_abs <= 0.0 {
        return Err(NnError::Quantization(format!("degenerate activation range {max_abs}")));
    }
    Ok(max_abs / qmax(bits) as f32)
}

/// Runs the float layers, recording max-abs after every layer (and after
/// residual adds). Must visit layers in exactly the order
/// [`quantize_layers`] walks them.
fn collect_ranges(layers: &mut [Layer], x: Vec<f32>, out: &mut Vec<f32>) -> Vec<f32> {
    let mut cur = x;
    for l in layers {
        cur = match l {
            Layer::Residual { main, shortcut } => {
                let m = collect_ranges(main, cur.clone(), out);
                let s = if shortcut.is_empty() { cur } else { collect_ranges(shortcut, cur, out) };
                let sum: Vec<f32> = m.iter().zip(&s).map(|(a, b)| a + b).collect();
                out.push(max_abs(&sum));
                sum
            }
            other => {
                let y = forward_eval(other, cur);
                out.push(max_abs(&y));
                y
            }
        };
    }
    cur
}

fn forward_eval(l: &mut Layer, x: Vec<f32>) -> Vec<f32> {
    // Reuse the float stack's inference path through a one-layer slice.
    crate::float::forward_one_eval(l, x)
}

fn max_abs(xs: &[f32]) -> f32 {
    xs.iter().fold(0f32, |m, &v| m.max(v.abs()))
}

/// Walks float layers and calibration ranges, emitting quantized ops.
/// Returns the ops and the output activation scale.
fn quantize_layers(
    layers: &[Layer],
    ranges: &[f32],
    idx: &mut usize,
    in_scale: f32,
    cfg: &QuantConfig,
) -> Result<(Vec<QuantOp>, f32), NnError> {
    let mut ops = Vec::new();
    let mut scale = in_scale;
    let mut i = 0usize;
    while i < layers.len() {
        match &layers[i] {
            Layer::Conv2d { in_c, out_c, k, stride, pad, in_hw, out_hw, w, b, .. } => {
                // Fold a directly-following BatchNorm.
                let (wf, bf, consumed) =
                    if let Some(Layer::BatchNorm {
                        gamma, beta, running_mean, running_var, ..
                    }) = layers.get(i + 1)
                    {
                        let mut wf = w.clone();
                        let mut bf = b.clone();
                        let fan = in_c * k * k;
                        for oc in 0..*out_c {
                            let inv = gamma[oc] / (running_var[oc] + 1e-5).sqrt();
                            for wi in &mut wf[oc * fan..(oc + 1) * fan] {
                                *wi *= inv;
                            }
                            bf[oc] = (bf[oc] - running_mean[oc]) * inv + beta[oc];
                        }
                        (wf, bf, 2)
                    } else {
                        (w.clone(), b.clone(), 1)
                    };
                // Output range: after BN if folded.
                let out_range = ranges[*idx + consumed - 1];
                *idx += consumed;
                let out_scale = scale_for(out_range, cfg.act_bits)?;
                let w_scale = scale_for(max_abs(&wf).max(1e-12), cfg.weight_bits)?;
                let wq: Vec<i64> = wf.iter().map(|&v| (v / w_scale).round() as i64).collect();
                let bq: Vec<i64> =
                    bf.iter().map(|&v| (v / (w_scale * scale)).round() as i64).collect();
                let requant =
                    Requant::from_ratio(f64::from(w_scale * scale / out_scale), cfg.mult_bits)?;
                ops.push(QuantOp::Conv2d {
                    in_c: *in_c,
                    out_c: *out_c,
                    k: *k,
                    stride: *stride,
                    pad: *pad,
                    in_hw: *in_hw,
                    out_hw: *out_hw,
                    w: wq,
                    bias: bq,
                    requant,
                });
                scale = out_scale;
                i += consumed;
            }
            Layer::Linear { in_f, out_f, w, b, .. } => {
                let out_range = ranges[*idx];
                *idx += 1;
                let out_scale = scale_for(out_range, cfg.act_bits)?;
                let w_scale = scale_for(max_abs(w).max(1e-12), cfg.weight_bits)?;
                let wq: Vec<i64> = w.iter().map(|&v| (v / w_scale).round() as i64).collect();
                let bq: Vec<i64> =
                    b.iter().map(|&v| (v / (w_scale * scale)).round() as i64).collect();
                let requant =
                    Requant::from_ratio(f64::from(w_scale * scale / out_scale), cfg.mult_bits)?;
                ops.push(QuantOp::Linear { in_f: *in_f, out_f: *out_f, w: wq, bias: bq, requant });
                scale = out_scale;
                i += 1;
            }
            Layer::BatchNorm { .. } => {
                return Err(NnError::InvalidSpec(
                    "BatchNorm must directly follow a convolution for BNReQ folding".into(),
                ));
            }
            Layer::Relu { .. } => {
                *idx += 1;
                ops.push(QuantOp::Relu);
                i += 1;
            }
            Layer::MaxPool { k, stride, pad, c, in_hw, out_hw, .. } => {
                *idx += 1;
                ops.push(QuantOp::MaxPool {
                    k: *k,
                    stride: *stride,
                    pad: *pad,
                    c: *c,
                    in_hw: *in_hw,
                    out_hw: *out_hw,
                });
                i += 1;
            }
            Layer::AvgPool { k, stride, pad, c, in_hw, out_hw } => {
                *idx += 1;
                let requant = Requant::from_ratio(1.0 / (*k * *k) as f64, cfg.mult_bits)?;
                ops.push(QuantOp::AvgPool {
                    k: *k,
                    stride: *stride,
                    pad: *pad,
                    c: *c,
                    in_hw: *in_hw,
                    out_hw: *out_hw,
                    requant,
                });
                i += 1;
            }
            Layer::GlobalAvgPool { c, in_hw } => {
                *idx += 1;
                let requant = Requant::from_ratio(1.0 / (in_hw.0 * in_hw.1) as f64, cfg.mult_bits)?;
                ops.push(QuantOp::GlobalAvgPool { c: *c, in_hw: *in_hw, requant });
                i += 1;
            }
            Layer::Flatten => {
                *idx += 1;
                ops.push(QuantOp::Flatten);
                i += 1;
            }
            Layer::Residual { main, shortcut } => {
                let (main_ops, main_scale) = quantize_layers(main, ranges, idx, scale, cfg)?;
                let (mut short_ops, short_scale) = if shortcut.is_empty() {
                    (Vec::new(), scale)
                } else {
                    quantize_layers(shortcut, ranges, idx, scale, cfg)?
                };
                // The add's calibrated output scale.
                let add_range = ranges[*idx];
                *idx += 1;
                let out_scale = scale_for(add_range, cfg.act_bits)?;
                let mut main_ops = main_ops;
                main_ops.push(QuantOp::Rescale {
                    requant: Requant::from_ratio(f64::from(main_scale / out_scale), cfg.mult_bits)?,
                });
                short_ops.push(QuantOp::Rescale {
                    requant: Requant::from_ratio(
                        f64::from(short_scale / out_scale),
                        cfg.mult_bits,
                    )?,
                });
                ops.push(QuantOp::Residual { main: main_ops, shortcut: short_ops });
                scale = out_scale;
                i += 1;
            }
        }
    }
    Ok((ops, scale))
}

/// Post-accumulation / post-requant value policy — saturating (plaintext)
/// or ring-wrapping with failure injection (ciphertext simulation).
trait ValuePolicy {
    /// Applied to each accumulator before requantization.
    fn on_accum(&mut self, acc: i64) -> i64;
    /// Applied to each value after requantization.
    fn on_activation(&mut self, v: i64) -> i64;
    /// Applied to each value entering a MAC-heavy op (ring extension point).
    fn on_extend(&mut self, v: i64) -> i64;
    /// Applied to each residual-add output (carrier-ring wrap point).
    fn on_residual(&mut self, v: i64) -> i64 {
        v
    }
    /// The ReLU decision — ABReLU compares the value's low `Q1` bits, so
    /// ring policies evaluate the sign of the *narrowed* value.
    fn relu_positive(&mut self, v: i64) -> bool {
        v > 0
    }
    /// The max-pool pairwise decision (`a` wins over `b`), likewise made
    /// on the narrowed difference in the ciphertext domain.
    fn max_prefer_first(&mut self, a: i64, b: i64) -> bool {
        a > b
    }
}

struct Saturate {
    clip: i64,
}

impl ValuePolicy for Saturate {
    fn on_accum(&mut self, acc: i64) -> i64 {
        acc
    }
    fn on_activation(&mut self, v: i64) -> i64 {
        v.clamp(-self.clip - 1, self.clip)
    }
    fn on_extend(&mut self, v: i64) -> i64 {
        v
    }
}

/// Deterministic ciphertext-ring reference for the (default) stay-wide
/// pipeline: values live wrapped on `Q2`; ABReLU / max-pool decisions are
/// made on the value's low `Q1` bits; share conversions are exact. This
/// is bit-identical to the 2PC engine configured with
/// `ProtocolConfig::exact(q1)` — the integration tests assert it.
struct WrapExact {
    q1: Ring,
    q2: Ring,
}

impl WrapExact {
    fn wrap2(&self, v: i64) -> i64 {
        self.q2.decode_signed(self.q2.encode_signed_wrapping(v))
    }
    fn narrow1(&self, v: i64) -> i64 {
        self.q1.decode_signed(self.q1.encode_signed_wrapping(v))
    }
}

impl ValuePolicy for WrapExact {
    fn on_accum(&mut self, acc: i64) -> i64 {
        self.wrap2(acc)
    }
    fn on_activation(&mut self, v: i64) -> i64 {
        self.wrap2(v)
    }
    fn on_extend(&mut self, v: i64) -> i64 {
        v
    }
    fn on_residual(&mut self, v: i64) -> i64 {
        self.wrap2(v)
    }
    fn relu_positive(&mut self, v: i64) -> bool {
        self.narrow1(v) > 0
    }
    fn max_prefer_first(&mut self, a: i64, b: i64) -> bool {
        self.narrow1(a.wrapping_sub(b)) > 0
    }
}

/// The ciphertext-pipeline simulator (Fig. 9(c) with failure injection).
struct RingSim {
    q1: Ring,
    q2: Ring,
    rng: StdRng,
}

impl RingSim {
    fn wrap_q1(&self, v: i64) -> i64 {
        self.q1.decode_signed(self.q1.encode_signed_wrapping(v))
    }
    fn wrap_q2(&self, v: i64) -> i64 {
        self.q2.decode_signed(self.q2.encode_signed_wrapping(v))
    }
}

impl ValuePolicy for RingSim {
    fn on_accum(&mut self, acc: i64) -> i64 {
        // The accumulator lives on Q2: overflow wraps deterministically.
        self.wrap_q2(acc)
    }

    fn on_activation(&mut self, v: i64) -> i64 {
        // Stay-wide pipeline: the value remains on Q2 after BNReQ.
        // SecureML local truncation adds ±1 LSB half the time, plus a
        // rare catastrophic wrap with probability ≈ |v|/Q2 (the BNReQ
        // widening/truncation failure mass).
        let mut v = self.wrap_q2(v);
        if self.rng.gen::<bool>() {
            let delta = if self.rng.gen::<bool>() { 1 } else { -1 };
            v = self.wrap_q2(v + delta);
        }
        let p = (v.unsigned_abs() + 1) as f64 / self.q2.modulus() as f64;
        if self.rng.gen::<f64>() < p {
            let half = 1i64 << (self.q2.bits() - 1);
            v = self.wrap_q2(v + if v >= 0 { -half } else { half });
        }
        v
    }

    fn on_residual(&mut self, v: i64) -> i64 {
        self.wrap_q2(v)
    }

    fn on_extend(&mut self, v: i64) -> i64 {
        // Stay-wide: no per-activation share extension ever happens.
        v
    }

    fn relu_positive(&mut self, v: i64) -> bool {
        // ABReLU compares the low Q1 bits — the deterministic cliff.
        self.wrap_q1(v) > 0
    }

    fn max_prefer_first(&mut self, a: i64, b: i64) -> bool {
        self.wrap_q1(a.wrapping_sub(b)) > 0
    }
}

#[allow(clippy::too_many_lines)]
fn run_ops<P: ValuePolicy>(ops: &[QuantOp], mut x: Vec<i64>, policy: &mut P) -> Vec<i64> {
    for op in ops {
        x = match op {
            QuantOp::Conv2d { in_c, out_c, k, stride, pad, in_hw, out_hw, w, bias, requant } => {
                let xin: Vec<i64> = x.iter().map(|&v| policy.on_extend(v)).collect();
                let (ih, iw) = *in_hw;
                let (oh, ow) = *out_hw;
                let mut out = vec![0i64; *out_c * oh * ow];
                for oc in 0..*out_c {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut acc = bias[oc];
                            for ic in 0..*in_c {
                                for ky in 0..*k {
                                    let iy = (oy * *stride + ky) as i64 - *pad as i64;
                                    if iy < 0 || iy >= ih as i64 {
                                        continue;
                                    }
                                    for kx in 0..*k {
                                        let ix = (ox * *stride + kx) as i64 - *pad as i64;
                                        if ix < 0 || ix >= iw as i64 {
                                            continue;
                                        }
                                        acc += w[((oc * *in_c + ic) * *k + ky) * *k + kx]
                                            * xin[(ic * ih + iy as usize) * iw + ix as usize];
                                    }
                                }
                            }
                            let acc = policy.on_accum(acc);
                            out[(oc * oh + oy) * ow + ox] =
                                policy.on_activation(requant.apply(acc));
                        }
                    }
                }
                out
            }
            QuantOp::Linear { in_f, out_f, w, bias, requant } => {
                let xin: Vec<i64> = x.iter().map(|&v| policy.on_extend(v)).collect();
                let mut out = vec![0i64; *out_f];
                for of in 0..*out_f {
                    let mut acc = bias[of];
                    for (wi, xi) in w[of * *in_f..(of + 1) * *in_f].iter().zip(&xin) {
                        acc += wi * xi;
                    }
                    let acc = policy.on_accum(acc);
                    out[of] = policy.on_activation(requant.apply(acc));
                }
                out
            }
            QuantOp::Relu => {
                x.into_iter().map(|v| if policy.relu_positive(v) { v } else { 0 }).collect()
            }
            QuantOp::MaxPool { k, stride, pad, c, in_hw, out_hw } => {
                // Same pairing tournament the 2PC engine runs, so ring
                // policies agree bit for bit even when comparisons wrap.
                let (ih, iw) = *in_hw;
                let (oh, ow) = *out_hw;
                let mut out = vec![0i64; *c * oh * ow];
                for ch in 0..*c {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut window = Vec::with_capacity(*k * *k);
                            for ky in 0..*k {
                                let iy = (oy * *stride + ky) as i64 - *pad as i64;
                                if iy < 0 || iy >= ih as i64 {
                                    continue;
                                }
                                for kx in 0..*k {
                                    let ix = (ox * *stride + kx) as i64 - *pad as i64;
                                    if ix < 0 || ix >= iw as i64 {
                                        continue;
                                    }
                                    window.push(x[(ch * ih + iy as usize) * iw + ix as usize]);
                                }
                            }
                            while window.len() > 1 {
                                let mut next = Vec::with_capacity(window.len() / 2 + 1);
                                for pair in window.chunks(2) {
                                    if pair.len() == 2 {
                                        let first = policy.max_prefer_first(pair[0], pair[1]);
                                        next.push(if first { pair[0] } else { pair[1] });
                                    } else {
                                        next.push(pair[0]);
                                    }
                                }
                                window = next;
                            }
                            out[(ch * oh + oy) * ow + ox] = window[0];
                        }
                    }
                }
                out
            }
            QuantOp::AvgPool { k, stride, pad, c, in_hw, out_hw, requant } => {
                let (ih, iw) = *in_hw;
                let (oh, ow) = *out_hw;
                let mut out = vec![0i64; *c * oh * ow];
                for ch in 0..*c {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut acc = 0i64;
                            for ky in 0..*k {
                                let iy = (oy * *stride + ky) as i64 - *pad as i64;
                                if iy < 0 || iy >= ih as i64 {
                                    continue;
                                }
                                for kx in 0..*k {
                                    let ix = (ox * *stride + kx) as i64 - *pad as i64;
                                    if ix < 0 || ix >= iw as i64 {
                                        continue;
                                    }
                                    acc += x[(ch * ih + iy as usize) * iw + ix as usize];
                                }
                            }
                            out[(ch * oh + oy) * ow + ox] =
                                policy.on_activation(requant.apply(acc));
                        }
                    }
                }
                out
            }
            QuantOp::GlobalAvgPool { c, in_hw, requant } => {
                let n = in_hw.0 * in_hw.1;
                (0..*c)
                    .map(|ch| {
                        let acc: i64 = x[ch * n..(ch + 1) * n].iter().sum();
                        policy.on_activation(requant.apply(acc))
                    })
                    .collect()
            }
            QuantOp::Flatten => x,
            QuantOp::Rescale { requant } => {
                x.into_iter().map(|v| policy.on_activation(requant.apply(v))).collect()
            }
            QuantOp::Residual { main, shortcut } => {
                let m = run_ops(main, x.clone(), policy);
                let s = run_ops(shortcut, x, policy);
                m.iter().zip(&s).map(|(a, b)| policy.on_residual(a + b)).collect()
            }
        };
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticVision;
    use crate::zoo;

    fn trained_tiny() -> (FloatNet, SyntheticVision) {
        let data = SyntheticVision::tiny(4, 21);
        let mut net = FloatNet::init(&zoo::tiny_cnn(4), 22).unwrap();
        net.train_epochs(&data, 4, 8, 0.05);
        (net, data)
    }

    #[test]
    fn requant_from_ratio_accuracy() {
        for &r in &[0.5f64, 0.001, 0.9999, 1.0, 3.25, 1e-6] {
            let q = Requant::from_ratio(r, 16).unwrap();
            let rel = (q.ratio() - r).abs() / r;
            assert!(rel < 1e-3, "ratio {r}: dyadic {} off by {rel}", q.ratio());
        }
        assert!(Requant::from_ratio(0.0, 16).is_err());
        assert!(Requant::from_ratio(f64::NAN, 16).is_err());
    }

    #[test]
    fn requant_apply_is_floor() {
        let q = Requant { mult: 3, shift: 2 }; // ×0.75
        assert_eq!(q.apply(4), 3);
        assert_eq!(q.apply(-4), -3);
        assert_eq!(q.apply(-5), -4); // floor(-3.75)
    }

    #[test]
    fn quantized_model_close_to_float() {
        let (mut net, data) = trained_tiny();
        let q = QuantModel::quantize(&net, &data.calibration(32), &QuantConfig::int8()).unwrap();
        // Agreement on argmax between float and int8 inference.
        let mut agree = 0;
        let n = 64;
        for s in data.test().iter().take(n) {
            let f = net.forward(&s.image);
            let fi = f.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let fa = f.iter().position(|&v| v == fi).unwrap();
            let qa = argmax_i64(&q.forward(&s.image).unwrap());
            if fa == qa {
                agree += 1;
            }
        }
        assert!(f64::from(agree) / n as f64 > 0.85, "argmax agreement {agree}/{n}");
    }

    #[test]
    fn quantized_accuracy_tracks_float() {
        let (mut net, data) = trained_tiny();
        let facc = net.accuracy(data.test());
        let q = QuantModel::quantize(&net, &data.calibration(32), &QuantConfig::int8()).unwrap();
        let qacc = q.accuracy(data.test());
        assert!(facc > 0.6, "float model too weak: {facc}");
        assert!(qacc > facc - 0.12, "int8 accuracy {qacc} vs float {facc}");
    }

    #[test]
    fn residual_model_quantizes_and_runs() {
        let data = SyntheticVision::tiny(4, 31);
        let mut net = FloatNet::init(&zoo::tiny_resnet(4), 32).unwrap();
        net.train_epochs(&data, 2, 8, 0.03);
        let q = QuantModel::quantize(&net, &data.calibration(16), &QuantConfig::int8()).unwrap();
        let out = q.forward(&data.test()[0].image).unwrap();
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn ring_sim_wide_ring_matches_plaintext_mostly() {
        let (net, data) = trained_tiny();
        let q = QuantModel::quantize(&net, &data.calibration(32), &QuantConfig::int8()).unwrap();
        // 20/28-bit rings: failure probabilities are negligible.
        let base = q.accuracy(data.test());
        let ring = q.accuracy_ring(data.test(), 20, 28);
        assert!((base - ring).abs() < 0.06, "plaintext {base} vs wide-ring {ring}");
    }

    #[test]
    fn ring_sim_narrow_ring_collapses() {
        // The Tables 7/8 cliff: once the carrier cannot hold the value
        // range (INT8 needs 8 bits; at 7 every |x| ≥ 64 wraps in the
        // ABReLU comparison), accuracy collapses deterministically.
        let (net, data) = trained_tiny();
        let q = QuantModel::quantize(&net, &data.calibration(32), &QuantConfig::int8()).unwrap();
        let wide = q.accuracy_ring(data.test(), 20, 28);
        let narrow = q.accuracy_ring(data.test(), 7, 15);
        assert!(
            narrow < wide - 0.15,
            "expected collapse: wide-ring {wide} vs narrow-ring {narrow}"
        );
    }

    #[test]
    fn ring_sim_degradation_is_monotone_in_carrier_width() {
        // Sweeping the carrier from wide to narrow should not *improve*
        // accuracy (allowing small stochastic wiggle).
        let (net, data) = trained_tiny();
        let q = QuantModel::quantize(&net, &data.calibration(32), &QuantConfig::int8()).unwrap();
        let samples = &data.test()[..64];
        let accs: Vec<f64> =
            [22u32, 16, 10, 7].iter().map(|&b| q.accuracy_ring(samples, b, b + 12)).collect();
        assert!(accs[0] >= accs[2] - 0.08, "{accs:?}");
        assert!(accs[0] >= accs[3] - 0.08, "{accs:?}");
    }

    #[test]
    fn input_quantization_clamps() {
        let (net, data) = trained_tiny();
        let q = QuantModel::quantize(&net, &data.calibration(8), &QuantConfig::int8()).unwrap();
        let big = vec![100f32; q.input_shape.elements()];
        let qi = q.quantize_input(&big);
        assert!(qi.iter().all(|v| (-128..=127).contains(v)));
    }

    #[test]
    fn empty_calibration_rejected() {
        let (net, _) = trained_tiny();
        assert!(matches!(
            QuantModel::quantize(&net, &[], &QuantConfig::int8()),
            Err(NnError::Quantization(_))
        ));
    }
}
