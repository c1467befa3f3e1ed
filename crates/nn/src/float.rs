//! Float networks with forward and backward passes.
//!
//! [`FloatNet`] instantiates a [`ModelSpec`] with He-initialized weights
//! and supports SGD training — the "model provider trains in the plaintext
//! domain" half of the paper's pipeline (Fig. 8 step ①). The layer set
//! matches the spec language: Conv2d, Linear, BatchNorm (spatial statistics
//! in training mode), ReLU, Max/Avg pooling, global pooling, flatten and
//! residual blocks.
//!
//! Training is single-sample and fully deterministic in its seeds, and the
//! kernels keep it bit-stable under one invariant: **every accumulator
//! receives the same additions, in the same order, as the direct
//! single-output loop** (for a convolution output: its bias, then `w·x`
//! over `(ic, ky, kx)` with padding taps skipped; for a weight gradient:
//! `x·go` over output positions in row-major order, `go == 0` skipped; for
//! an input gradient: `w·go` over `(oc, oy, ox)`). Only the loop nest
//! around each accumulator is free. The kernels use that freedom to run
//! many independent accumulators per instruction — channel-minor register
//! blocks for convolutions, interleaved rows for fully connected layers —
//! and never reassociate, fuse (`mul_add`) or thread a sum. The trained
//! bits are pinned by `crates/nn/tests/training_fingerprints.rs` (and, at
//! full size, by `aq2pnn-server`'s demo-model fingerprints): client and
//! provider derive their weights independently, so a kernel change that
//! moves one bit is a protocol-visible change.

use crate::data::{Sample, SyntheticVision};
use crate::spec::{ModelSpec, OpSpec, TensorShape};
use crate::NnError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Batch-norm numerical floor.
const BN_EPS: f32 = 1e-5;
/// Running-statistics momentum.
const BN_MOMENTUM: f32 = 0.1;

/// One instantiated layer with parameters, gradients and backward caches.
#[derive(Debug, Clone)]
pub(crate) enum Layer {
    Conv2d {
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        in_hw: (usize, usize),
        out_hw: (usize, usize),
        w: Vec<f32>,
        b: Vec<f32>,
        dw: Vec<f32>,
        db: Vec<f32>,
        cache_in: Vec<f32>,
    },
    Linear {
        in_f: usize,
        out_f: usize,
        w: Vec<f32>,
        b: Vec<f32>,
        dw: Vec<f32>,
        db: Vec<f32>,
        cache_in: Vec<f32>,
    },
    BatchNorm {
        c: usize,
        spatial: usize,
        gamma: Vec<f32>,
        beta: Vec<f32>,
        dgamma: Vec<f32>,
        dbeta: Vec<f32>,
        running_mean: Vec<f32>,
        running_var: Vec<f32>,
        cache_xhat: Vec<f32>,
        cache_inv_std: Vec<f32>,
    },
    Relu {
        cache_mask: Vec<bool>,
    },
    MaxPool {
        k: usize,
        stride: usize,
        pad: usize,
        c: usize,
        in_hw: (usize, usize),
        out_hw: (usize, usize),
        cache_argmax: Vec<usize>,
    },
    AvgPool {
        k: usize,
        stride: usize,
        pad: usize,
        c: usize,
        in_hw: (usize, usize),
        out_hw: (usize, usize),
    },
    GlobalAvgPool {
        c: usize,
        in_hw: (usize, usize),
    },
    Flatten,
    Residual {
        main: Vec<Layer>,
        shortcut: Vec<Layer>,
    },
}

/// A float network instantiated from a [`ModelSpec`].
#[derive(Debug, Clone)]
pub struct FloatNet {
    spec: ModelSpec,
    pub(crate) layers: Vec<Layer>,
}

impl FloatNet {
    /// Builds the network with He-initialized weights from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] if the spec fails shape inference.
    pub fn init(spec: &ModelSpec, seed: u64) -> Result<Self, NnError> {
        spec.infer_shapes()?; // validate up front
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(spec.ops.len());
        let mut shape = spec.input;
        for op in &spec.ops {
            let (layer, out) = build_layer(op, shape, &mut rng)?;
            layers.push(layer);
            shape = out;
        }
        Ok(FloatNet { spec: spec.clone(), layers })
    }

    /// The spec this network was built from.
    #[must_use]
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// Inference forward pass (BatchNorm uses running statistics).
    #[must_use]
    pub fn forward(&mut self, image: &[f32]) -> Vec<f32> {
        forward_layers(&mut self.layers, image.to_vec(), false)
    }

    /// Training forward pass (BatchNorm uses spatial batch statistics and
    /// caches for backward).
    #[must_use]
    pub fn forward_train(&mut self, image: &[f32]) -> Vec<f32> {
        forward_layers(&mut self.layers, image.to_vec(), true)
    }

    /// Backpropagates `grad` (∂loss/∂logits), accumulating parameter
    /// gradients.
    pub fn backward(&mut self, grad: &[f32]) {
        backward_layers(&mut self.layers, grad.to_vec(), false);
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for l in &mut self.layers {
            zero_layer(l);
        }
    }

    /// Applies one SGD step `w ← w − lr·dw`.
    pub fn sgd_step(&mut self, lr: f32) {
        for l in &mut self.layers {
            step_layer(l, lr);
        }
    }

    /// Cross-entropy of logits against a label, plus ∂loss/∂logits.
    #[must_use]
    pub fn softmax_ce(logits: &[f32], label: usize) -> (f32, Vec<f32>) {
        let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = logits.iter().map(|&v| (v - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        let probs: Vec<f32> = exps.iter().map(|&e| e / sum).collect();
        let loss = -(probs[label].max(1e-12)).ln();
        let mut grad = probs;
        grad[label] -= 1.0;
        (loss, grad)
    }

    /// Trains for `epochs` passes of minibatch SGD; returns the final
    /// epoch's mean loss.
    pub fn train_epochs(
        &mut self,
        data: &SyntheticVision,
        epochs: usize,
        batch: usize,
        lr: f32,
    ) -> f32 {
        let mut rng = StdRng::seed_from_u64(0xda7a);
        let mut last_loss = f32::NAN;
        let n = data.train().len();
        for _ in 0..epochs {
            let mut order: Vec<usize> = (0..n).collect();
            // Fisher-Yates shuffle.
            for i in (1..n).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let mut epoch_loss = 0.0f32;
            for chunk in order.chunks(batch) {
                self.zero_grads();
                for &idx in chunk {
                    let s = &data.train()[idx];
                    let logits = self.forward_train(&s.image);
                    let (loss, grad) = Self::softmax_ce(&logits, s.label);
                    epoch_loss += loss;
                    self.backward(&grad);
                }
                self.sgd_step(lr / chunk.len() as f32);
            }
            last_loss = epoch_loss / n as f32;
        }
        last_loss
    }

    /// A stable digest (FNV-1a over `f32::to_bits`) of every parameter and
    /// BatchNorm running statistic, in layer order. Training is
    /// deterministic in its seeds, so this pins the trained bits: a kernel
    /// change that reorders a single float addition changes it.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fn walk(layers: &[Layer], h: &mut Fnv1a) {
            for l in layers {
                match l {
                    Layer::Conv2d { w, b, .. } | Layer::Linear { w, b, .. } => {
                        h.f32s(w);
                        h.f32s(b);
                    }
                    Layer::BatchNorm { gamma, beta, running_mean, running_var, .. } => {
                        for t in [gamma, beta, running_mean, running_var] {
                            h.f32s(t);
                        }
                    }
                    Layer::Residual { main, shortcut } => {
                        walk(main, h);
                        walk(shortcut, h);
                    }
                    _ => {}
                }
            }
        }
        let mut h = Fnv1a::default();
        walk(&self.layers, &mut h);
        h.0
    }

    /// Top-1 accuracy over a sample set.
    #[must_use]
    pub fn accuracy(&mut self, samples: &[Sample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let correct = samples
            .iter()
            .filter(|s| {
                let logits = self.forward(&s.image);
                crate::tensor::argmax_i64(
                    &logits.iter().map(|&v| (v * 1e6) as i64).collect::<Vec<_>>(),
                ) == s.label
            })
            .count();
        correct as f64 / samples.len() as f64
    }
}

/// 64-bit FNV-1a, fed little-endian words; the digest behind
/// [`FloatNet::fingerprint`] and [`crate::quant::QuantModel::fingerprint`].
pub(crate) struct Fnv1a(pub(crate) u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub(crate) fn f32s(&mut self, v: &[f32]) {
        for x in v {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }
}

fn he_normal(rng: &mut StdRng, fan_in: usize) -> f32 {
    // Box–Muller.
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
    z * (2.0 / fan_in as f32).sqrt()
}

fn build_layer(
    op: &OpSpec,
    input: TensorShape,
    rng: &mut StdRng,
) -> Result<(Layer, TensorShape), NnError> {
    let out = {
        // reuse spec inference via a one-op spec
        let tmp = ModelSpec { name: String::new(), input, ops: vec![op.clone()] };
        tmp.output_shape()?
    };
    let layer = match (op, input, out) {
        (
            OpSpec::Conv2d { out_c, k, stride, pad },
            TensorShape::Chw(ic, ih, iw),
            TensorShape::Chw(_, oh, ow),
        ) => {
            let fan_in = ic * k * k;
            let w = (0..out_c * fan_in).map(|_| he_normal(rng, fan_in)).collect();
            Layer::Conv2d {
                in_c: ic,
                out_c: *out_c,
                k: *k,
                stride: *stride,
                pad: *pad,
                in_hw: (ih, iw),
                out_hw: (oh, ow),
                w,
                b: vec![0.0; *out_c],
                dw: vec![0.0; out_c * fan_in],
                db: vec![0.0; *out_c],
                cache_in: Vec::new(),
            }
        }
        (OpSpec::Linear { out: of }, TensorShape::Flat(inf), _) => Layer::Linear {
            in_f: inf,
            out_f: *of,
            w: (0..of * inf).map(|_| he_normal(rng, inf)).collect(),
            b: vec![0.0; *of],
            dw: vec![0.0; of * inf],
            db: vec![0.0; *of],
            cache_in: Vec::new(),
        },
        (OpSpec::BatchNorm, TensorShape::Chw(c, h, w), _) => Layer::BatchNorm {
            c,
            spatial: h * w,
            gamma: vec![1.0; c],
            beta: vec![0.0; c],
            dgamma: vec![0.0; c],
            dbeta: vec![0.0; c],
            running_mean: vec![0.0; c],
            running_var: vec![1.0; c],
            cache_xhat: Vec::new(),
            cache_inv_std: Vec::new(),
        },
        (OpSpec::BatchNorm, TensorShape::Flat(_), _) => {
            return Err(NnError::InvalidSpec("BatchNorm on flat activations unsupported".into()))
        }
        (OpSpec::ReLU, ..) => Layer::Relu { cache_mask: Vec::new() },
        (
            OpSpec::MaxPool { k, stride, pad },
            TensorShape::Chw(c, ih, iw),
            TensorShape::Chw(_, oh, ow),
        ) => Layer::MaxPool {
            k: *k,
            stride: *stride,
            pad: *pad,
            c,
            in_hw: (ih, iw),
            out_hw: (oh, ow),
            cache_argmax: Vec::new(),
        },
        (
            OpSpec::AvgPool { k, stride, pad },
            TensorShape::Chw(c, ih, iw),
            TensorShape::Chw(_, oh, ow),
        ) => Layer::AvgPool {
            k: *k,
            stride: *stride,
            pad: *pad,
            c,
            in_hw: (ih, iw),
            out_hw: (oh, ow),
        },
        (OpSpec::GlobalAvgPool, TensorShape::Chw(c, h, w), _) => {
            Layer::GlobalAvgPool { c, in_hw: (h, w) }
        }
        (OpSpec::Flatten, ..) => Layer::Flatten,
        (OpSpec::Residual { main, shortcut }, shape, _) => {
            let mut ml = Vec::new();
            let mut cur = shape;
            for sub in main {
                let (l, o) = build_layer(sub, cur, rng)?;
                ml.push(l);
                cur = o;
            }
            let mut sl = Vec::new();
            let mut scur = shape;
            for sub in shortcut {
                let (l, o) = build_layer(sub, scur, rng)?;
                sl.push(l);
                scur = o;
            }
            Layer::Residual { main: ml, shortcut: sl }
        }
        (op, input, _) => {
            return Err(NnError::InvalidSpec(format!("cannot build {op:?} on input {input}")))
        }
    };
    Ok((layer, out))
}

/// Inference-mode forward through a single (non-residual) layer — used by
/// the quantizer's calibration pass, which handles residuals itself.
pub(crate) fn forward_one_eval(l: &mut Layer, x: Vec<f32>) -> Vec<f32> {
    forward_layer(l, x, false)
}

fn forward_layers(layers: &mut [Layer], mut x: Vec<f32>, train: bool) -> Vec<f32> {
    for l in layers {
        x = forward_layer(l, x, train);
    }
    x
}

#[allow(clippy::too_many_lines)]
fn forward_layer(l: &mut Layer, x: Vec<f32>, train: bool) -> Vec<f32> {
    match l {
        Layer::Conv2d { in_c, out_c, k, stride, pad, in_hw, out_hw, w, b, cache_in, .. } => {
            let win = Window { k: *k, stride: *stride, pad: *pad, in_hw: *in_hw, out_hw: *out_hw };
            let out = conv_forward(&win, *in_c, *out_c, w, b, &x);
            if train {
                *cache_in = x;
            }
            out
        }
        Layer::Linear { in_f, w, b, cache_in, .. } => {
            let out = linear_forward(*in_f, w, b, &x);
            if train {
                *cache_in = x;
            }
            out
        }
        Layer::BatchNorm {
            c,
            spatial,
            gamma,
            beta,
            running_mean,
            running_var,
            cache_xhat,
            cache_inv_std,
            ..
        } => {
            let n = *spatial as f32;
            let mut out = vec![0.0f32; x.len()];
            if train {
                cache_xhat.resize(x.len(), 0.0);
                cache_inv_std.resize(*c, 0.0);
            }
            for ch in 0..*c {
                let slice = &x[ch * spatial.to_owned()..(ch + 1) * *spatial];
                let (mean, var) = if train {
                    let mean: f32 = slice.iter().sum::<f32>() / n;
                    let var: f32 = slice.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
                    running_mean[ch] = (1.0 - BN_MOMENTUM) * running_mean[ch] + BN_MOMENTUM * mean;
                    running_var[ch] = (1.0 - BN_MOMENTUM) * running_var[ch] + BN_MOMENTUM * var;
                    (mean, var)
                } else {
                    (running_mean[ch], running_var[ch])
                };
                let inv_std = 1.0 / (var + BN_EPS).sqrt();
                if train {
                    cache_inv_std[ch] = inv_std;
                }
                for (i, &v) in slice.iter().enumerate() {
                    let xhat = (v - mean) * inv_std;
                    if train {
                        cache_xhat[ch * spatial.to_owned() + i] = xhat;
                    }
                    out[ch * spatial.to_owned() + i] = gamma[ch] * xhat + beta[ch];
                }
            }
            out
        }
        Layer::Relu { cache_mask } => {
            if train {
                *cache_mask = x.iter().map(|&v| v > 0.0).collect();
            }
            x.into_iter().map(|v| v.max(0.0)).collect()
        }
        Layer::MaxPool { k, stride, pad, c, in_hw, out_hw, cache_argmax } => {
            let win = Window { k: *k, stride: *stride, pad: *pad, in_hw: *in_hw, out_hw: *out_hw };
            let (out, argmax) = max_pool_forward(&win, *c, &x);
            if train {
                *cache_argmax = argmax;
            }
            out
        }
        Layer::AvgPool { k, stride, pad, c, in_hw, out_hw } => {
            let win = Window { k: *k, stride: *stride, pad: *pad, in_hw: *in_hw, out_hw: *out_hw };
            avg_pool_forward(&win, *c, &x)
        }
        Layer::GlobalAvgPool { c, in_hw } => {
            let n = (in_hw.0 * in_hw.1) as f32;
            (0..*c)
                .map(|ch| {
                    x[ch * in_hw.0 * in_hw.1..(ch + 1) * in_hw.0 * in_hw.1].iter().sum::<f32>() / n
                })
                .collect()
        }
        Layer::Flatten => x,
        Layer::Residual { main, shortcut } => {
            let m = forward_layers(main, x.clone(), train);
            let s = if shortcut.is_empty() { x } else { forward_layers(shortcut, x, train) };
            m.iter().zip(&s).map(|(a, b)| a + b).collect()
        }
    }
}

/// Backpropagates through `layers`. With `need_input_grad == false` the
/// first layer's input gradient is not computed (an empty vector is
/// returned instead): the network input has no parameters to update.
fn backward_layers(layers: &mut [Layer], mut g: Vec<f32>, need_input_grad: bool) -> Vec<f32> {
    for (i, l) in layers.iter_mut().enumerate().rev() {
        g = backward_layer(l, g, need_input_grad || i > 0);
    }
    g
}

#[allow(clippy::too_many_lines)]
fn backward_layer(l: &mut Layer, g: Vec<f32>, need_input_grad: bool) -> Vec<f32> {
    match l {
        Layer::Conv2d {
            in_c, out_c, k, stride, pad, in_hw, out_hw, w, dw, db, cache_in, ..
        } => {
            let win = Window { k: *k, stride: *stride, pad: *pad, in_hw: *in_hw, out_hw: *out_hw };
            conv_param_grads(&win, *in_c, *out_c, cache_in, &g, dw, db);
            if need_input_grad {
                conv_input_grad(&win, *in_c, w, &g)
            } else {
                Vec::new()
            }
        }
        Layer::Linear { in_f, w, dw, db, cache_in, .. } => {
            for ((&go, d), drow) in g.iter().zip(db.iter_mut()).zip(dw.chunks_exact_mut(*in_f)) {
                *d += go;
                for (dv, &xv) in drow.iter_mut().zip(cache_in.iter()) {
                    *dv += xv * go;
                }
            }
            if !need_input_grad {
                return Vec::new();
            }
            let mut gin = vec![0.0f32; *in_f];
            for (&go, row) in g.iter().zip(w.chunks_exact(*in_f)) {
                for (gi, &wv) in gin.iter_mut().zip(row) {
                    *gi += wv * go;
                }
            }
            gin
        }
        Layer::BatchNorm {
            c, spatial, gamma, dgamma, dbeta, cache_xhat, cache_inv_std, ..
        } => {
            let n = *spatial as f32;
            let mut gin = vec![0.0f32; g.len()];
            for ch in 0..*c {
                let base = ch * *spatial;
                let gslice = &g[base..base + *spatial];
                let xhat = &cache_xhat[base..base + *spatial];
                let sum_g: f32 = gslice.iter().sum();
                let sum_gx: f32 = gslice.iter().zip(xhat).map(|(a, b)| a * b).sum();
                dbeta[ch] += sum_g;
                dgamma[ch] += sum_gx;
                let scale = gamma[ch] * cache_inv_std[ch];
                for i in 0..*spatial {
                    gin[base + i] = scale * (gslice[i] - sum_g / n - xhat[i] * sum_gx / n);
                }
            }
            gin
        }
        Layer::Relu { cache_mask } => {
            g.into_iter().zip(cache_mask.iter()).map(|(v, &m)| if m { v } else { 0.0 }).collect()
        }
        Layer::MaxPool { c, in_hw, cache_argmax, .. } => {
            let mut gin = vec![0.0f32; *c * in_hw.0 * in_hw.1];
            for (&go, &i) in g.iter().zip(cache_argmax.iter()) {
                gin[i] += go;
            }
            gin
        }
        Layer::AvgPool { k, stride, pad, c, in_hw, out_hw } => {
            let win = Window { k: *k, stride: *stride, pad: *pad, in_hw: *in_hw, out_hw: *out_hw };
            avg_pool_backward(&win, *c, &g)
        }
        Layer::GlobalAvgPool { c, in_hw } => {
            let n = in_hw.0 * in_hw.1;
            let mut gin = vec![0.0f32; *c * n];
            for ch in 0..*c {
                let go = g[ch] / n as f32;
                for v in &mut gin[ch * n..(ch + 1) * n] {
                    *v = go;
                }
            }
            gin
        }
        Layer::Flatten => g,
        Layer::Residual { main, shortcut } => {
            let gm = backward_layers(main, g.clone(), need_input_grad);
            let gs =
                if shortcut.is_empty() { g } else { backward_layers(shortcut, g, need_input_grad) };
            gm.iter().zip(&gs).map(|(a, b)| a + b).collect()
        }
    }
}

// ---------------------------------------------------------------------------
// Kernels. Each accumulator receives exactly the additions of the direct
// single-output loop, in the same order (see the module docs); only the
// loop nest around it changes, so that inner loops are branch-free and
// contiguous and the compiler can vectorise across independent outputs.
// ---------------------------------------------------------------------------

/// Sliding-window geometry of one convolution or pooling layer.
struct Window {
    k: usize,
    stride: usize,
    pad: usize,
    in_hw: (usize, usize),
    out_hw: (usize, usize),
}

impl Window {
    /// Output rows `oy` whose input row `oy·stride + ky − pad` exists.
    fn rows(&self, ky: usize) -> Range<usize> {
        out_range(ky, self.stride, self.pad, self.in_hw.0, self.out_hw.0)
    }

    /// Output columns `ox` whose input column `ox·stride + kx − pad` exists.
    fn cols(&self, kx: usize) -> Range<usize> {
        out_range(kx, self.stride, self.pad, self.in_hw.1, self.out_hw.1)
    }

    /// Kernel rows `ky` that land inside the input for output row `oy`.
    fn row_taps(&self, oy: usize) -> Range<usize> {
        tap_range(oy, self.k, self.stride, self.pad, self.in_hw.0)
    }

    /// Kernel columns `kx` that land inside the input for output column `ox`.
    fn col_taps(&self, ox: usize) -> Range<usize> {
        tap_range(ox, self.k, self.stride, self.pad, self.in_hw.1)
    }

    /// Input rows under output row `oy`'s window, clipped to the input.
    fn in_rows(&self, oy: usize) -> Range<usize> {
        in_span(oy, self.k, self.stride, self.pad, self.in_hw.0)
    }

    /// Input columns under output column `ox`'s window, clipped to the input.
    fn in_cols(&self, ox: usize) -> Range<usize> {
        in_span(ox, self.k, self.stride, self.pad, self.in_hw.1)
    }
}

/// Outputs `o < out_len` with `o·stride + off − pad` in `0..in_len`.
fn out_range(off: usize, stride: usize, pad: usize, in_len: usize, out_len: usize) -> Range<usize> {
    let lo = pad.saturating_sub(off).div_ceil(stride).min(out_len);
    let hi = (in_len + pad).checked_sub(off + 1).map_or(0, |last| last / stride + 1);
    lo..hi.min(out_len).max(lo)
}

/// Inputs `o·stride + off − pad` for `off < k`, clipped to `0..in_len`.
fn in_span(o: usize, k: usize, stride: usize, pad: usize, in_len: usize) -> Range<usize> {
    let lo = (o * stride).saturating_sub(pad).min(in_len);
    lo..(o * stride + k).saturating_sub(pad).min(in_len).max(lo)
}

/// Offsets `off < k` with `o·stride + off − pad` in `0..in_len`.
fn tap_range(o: usize, k: usize, stride: usize, pad: usize, in_len: usize) -> Range<usize> {
    let start = o * stride;
    let lo = pad.saturating_sub(start).min(k);
    lo..(in_len + pad).saturating_sub(start).min(k).max(lo)
}

/// Output channels per register block in the convolution kernels.
const LANES: usize = 8;

/// Copies `src` (`rows × cols`, row-major) into channel-minor blocks:
/// `dst[(blk · cols + c) · LANES + lane] = src[blk · LANES + lane][c]`,
/// zero in the lanes past `rows`.
fn to_lane_blocks(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut dst = vec![0.0f32; rows.div_ceil(LANES) * cols * LANES];
    for (r, row) in src.chunks_exact(cols).enumerate() {
        let blk = &mut dst[r / LANES * cols * LANES..];
        for (c, &v) in row.iter().enumerate() {
            blk[c * LANES + r % LANES] = v;
        }
    }
    dst
}

/// Inverse of [`to_lane_blocks`]: fills `dst` (`rows × cols`) back from
/// its channel-minor blocks.
fn from_lane_blocks(src: &[f32], dst: &mut [f32], cols: usize) {
    for (r, row) in dst.chunks_exact_mut(cols).enumerate() {
        let blk = &src[r / LANES * cols * LANES..];
        for (c, d) in row.iter_mut().enumerate() {
            *d = blk[c * LANES + r % LANES];
        }
    }
}

/// Convolution forward. Each output starts at its bias and adds `w·x`
/// over `(ic, ky, kx)` in order, padding taps skipped. The kernel runs
/// that exact sequence for [`LANES`] output channels at once (weights laid
/// out channel-minor, so every tap is one vector multiply-add into a
/// register block) and, where a row's outputs use the whole kernel width,
/// for [`COLS`] neighbouring outputs at once to hide the add latency.
fn conv_forward(
    win: &Window,
    in_c: usize,
    out_c: usize,
    w: &[f32],
    b: &[f32],
    x: &[f32],
) -> Vec<f32> {
    let (oh, ow) = win.out_hw;
    let k = win.k;
    let fan = in_c * k * k;
    let w_blocks = to_lane_blocks(w, out_c, fan);
    let full_width = win.cols(0).start..win.cols(k - 1).end;
    let mut out = vec![0.0f32; out_c * oh * ow];
    for (blk, wb) in w_blocks.chunks_exact(fan * LANES).enumerate() {
        let oc0 = blk * LANES;
        let bias: [f32; LANES] = std::array::from_fn(|j| b.get(oc0 + j).copied().unwrap_or(0.0));
        let mut store = |oy: usize, ox: usize, acc: &[f32; LANES]| {
            for (j, &a) in acc.iter().enumerate().take(out_c - oc0) {
                out[((oc0 + j) * oh + oy) * ow + ox] = a;
            }
        };
        for oy in 0..oh {
            let mut ox = 0;
            while ox < ow {
                if full_width.contains(&ox) && ox + COLS <= full_width.end {
                    let acc = conv_outputs::<COLS>(win, x, wb, bias, (oy, ox), 0..k);
                    for (p, a) in acc.iter().enumerate() {
                        store(oy, ox + p, a);
                    }
                    ox += COLS;
                } else {
                    let [acc] = conv_outputs::<1>(win, x, wb, bias, (oy, ox), win.col_taps(ox));
                    store(oy, ox, &acc);
                    ox += 1;
                }
            }
        }
    }
    out
}

/// Neighbouring outputs per step of [`conv_forward`].
const COLS: usize = 4;

/// Outputs `(oy, ox0 + p)` for `p < P` of one [`LANES`] channel block,
/// all of which use kernel columns `taps_x`.
fn conv_outputs<const P: usize>(
    win: &Window,
    x: &[f32],
    wb: &[f32],
    bias: [f32; LANES],
    (oy, ox0): (usize, usize),
    taps_x: Range<usize>,
) -> [[f32; LANES]; P] {
    let (ih, iw) = win.in_hw;
    let (k, s, pad) = (win.k, win.stride, win.pad);
    let mut acc = [bias; P];
    if taps_x.is_empty() {
        return acc; // the window lies wholly in the padding
    }
    let ix0 = ox0 * s + taps_x.start - pad;
    for (xc, wc) in x.chunks_exact(ih * iw).zip(wb.chunks_exact(k * k * LANES)) {
        for ky in win.row_taps(oy) {
            let xrow = &xc[(oy * s + ky - pad) * iw + ix0..];
            let wrow = &wc[(ky * k + taps_x.start) * LANES..][..taps_x.len() * LANES];
            for (t, wl) in wrow.chunks_exact(LANES).enumerate() {
                for (p, a) in acc.iter_mut().enumerate() {
                    let xv = xrow[p * s + t];
                    for (av, &wv) in a.iter_mut().zip(wl) {
                        *av += wv * xv;
                    }
                }
            }
        }
    }
    acc
}

/// Convolution weight and bias gradients. Each `dw` entry adds `x·go` over
/// output positions `(oy, ox)` in order, skipping `go == 0`, exactly as
/// the direct loop does. The positions are walked once per weight tap for
/// [`LANES`] output channels at once, `go` and `dw` laid out
/// channel-minor (output- and weight-sized scratch).
fn conv_param_grads(
    win: &Window,
    in_c: usize,
    out_c: usize,
    x: &[f32],
    g: &[f32],
    dw: &mut [f32],
    db: &mut [f32],
) {
    let (ih, iw) = win.in_hw;
    let (oh, ow) = win.out_hw;
    let k = win.k;
    let fan = in_c * k * k;
    for (d, plane) in db.iter_mut().zip(g.chunks_exact(oh * ow)) {
        for &go in plane {
            *d = if go == 0.0 { *d } else { *d + go };
        }
    }
    let g_blocks = to_lane_blocks(g, out_c, oh * ow);
    let mut dw_blocks = to_lane_blocks(dw, out_c, fan);
    let (grouped, kk) = (in_c / 4 * 4, k * k);
    for (dwb, gb) in
        dw_blocks.chunks_exact_mut(fan * LANES).zip(g_blocks.chunks_exact(oh * ow * LANES))
    {
        let (x4, x1) = x.split_at(grouped * ih * iw);
        let (dw4, dw1) = dwb.split_at_mut(grouped * kk * LANES);
        conv_weight_taps::<4>(win, x4, gb, dw4);
        conv_weight_taps::<1>(win, x1, gb, dw1);
    }
    from_lane_blocks(&dw_blocks, dw, fan);
}

/// The weight-gradient chains of `G` input channels at a time, for one
/// block of [`LANES`] output channels. Channels share every tap's valid
/// positions, so their `G` register-resident chains advance in lockstep
/// and hide each other's add latency.
fn conv_weight_taps<const G: usize>(win: &Window, x: &[f32], gb: &[f32], dwb: &mut [f32]) {
    let (ih, iw) = win.in_hw;
    let ow = win.out_hw.1;
    let (k, s, pad) = (win.k, win.stride, win.pad);
    let kk = k * k;
    for (xg, dwg) in x.chunks_exact(G * ih * iw).zip(dwb.chunks_exact_mut(G * kk * LANES)) {
        for ky in 0..k {
            let rows = win.rows(ky);
            for kx in 0..k {
                let cols = win.cols(kx);
                if rows.is_empty() || cols.is_empty() {
                    continue;
                }
                let t = ky * k + kx;
                let mut acc: [[f32; LANES]; G] =
                    std::array::from_fn(|c| std::array::from_fn(|j| dwg[(c * kk + t) * LANES + j]));
                for oy in rows.clone() {
                    let x0 = (oy * s + ky - pad) * iw + cols.start * s + kx - pad;
                    let grow = &gb[(oy * ow + cols.start) * LANES..(oy * ow + cols.end) * LANES];
                    for (n, gl) in grow.chunks_exact(LANES).enumerate() {
                        for (c, a) in acc.iter_mut().enumerate() {
                            let xv = xg[c * ih * iw + x0 + n * s];
                            for (av, &go) in a.iter_mut().zip(gl) {
                                *av = if go == 0.0 { *av } else { *av + xv * go };
                            }
                        }
                    }
                }
                for (c, a) in acc.iter().enumerate() {
                    dwg[(c * kk + t) * LANES..(c * kk + t + 1) * LANES].copy_from_slice(a);
                }
            }
        }
    }
}

/// Convolution input gradient. Each input pixel adds `w·go` over
/// `(oc, oy, ox)` in order, skipping `go == 0`; one output reaches a pixel
/// through at most one tap. The kernel walks outputs in that order and
/// scatters each into its window for [`LANES`] input channels at once,
/// weights and gradient laid out channel-minor.
fn conv_input_grad(win: &Window, in_c: usize, w: &[f32], g: &[f32]) -> Vec<f32> {
    let (ih, iw) = win.in_hw;
    let (oh, ow) = win.out_hw;
    let (k, s, pad) = (win.k, win.stride, win.pad);
    let kk = k * k;
    let blocks = in_c.div_ceil(LANES);
    let w_blocks: Vec<f32> =
        w.chunks_exact(in_c * kk).flat_map(|wo| to_lane_blocks(wo, in_c, kk)).collect();
    let mut gin_blocks = vec![0.0f32; blocks * ih * iw * LANES];
    for (wo, gplane) in w_blocks.chunks_exact(blocks * kk * LANES).zip(g.chunks_exact(oh * ow)) {
        for (wb, gb) in
            wo.chunks_exact(kk * LANES).zip(gin_blocks.chunks_exact_mut(ih * iw * LANES))
        {
            for (oy, grow) in gplane.chunks_exact(ow).enumerate() {
                let taps_y = win.row_taps(oy);
                for (ox, &go) in grow.iter().enumerate() {
                    let taps_x = win.col_taps(ox);
                    if go == 0.0 || taps_x.is_empty() {
                        continue;
                    }
                    let ix0 = ox * s + taps_x.start - pad;
                    let n = taps_x.len() * LANES;
                    for ky in taps_y.clone() {
                        let wrow = &wb[(ky * k + taps_x.start) * LANES..][..n];
                        let irow = &mut gb[((oy * s + ky - pad) * iw + ix0) * LANES..][..n];
                        for (gi, &wv) in irow.iter_mut().zip(wrow) {
                            *gi += wv * go;
                        }
                    }
                }
            }
        }
    }
    let mut gin = vec![0.0f32; in_c * ih * iw];
    from_lane_blocks(&gin_blocks, &mut gin, ih * iw);
    gin
}

/// Fully connected forward: each output is its bias plus `w·x` over the
/// inputs in order. Eight rows run at once — eight independent chains,
/// each in its own order — instead of one latency-bound chain at a time.
fn linear_forward(in_f: usize, w: &[f32], b: &[f32], x: &[f32]) -> Vec<f32> {
    fn rows<const R: usize>(w: &[f32], x: &[f32], out: &mut [f32]) {
        let in_f = x.len();
        for (acc, block) in out.chunks_exact_mut(R).zip(w.chunks_exact(R * in_f)) {
            let mut a: [f32; R] = std::array::from_fn(|r| acc[r]);
            let row: [&[f32]; R] = std::array::from_fn(|r| &block[r * in_f..(r + 1) * in_f]);
            for (i, &xv) in x.iter().enumerate() {
                for (av, wr) in a.iter_mut().zip(&row) {
                    *av += wr[i] * xv;
                }
            }
            acc.copy_from_slice(&a);
        }
    }
    const R: usize = 8;
    let x = &x[..in_f];
    let mut out = b.to_vec();
    let split = out.len() / R * R;
    let (head, tail) = out.split_at_mut(split);
    rows::<R>(&w[..split * in_f], x, head);
    rows::<1>(&w[split * in_f..], x, tail);
    out
}

/// Max pooling forward: each output scans its in-bounds window in
/// `(ky, kx)` order and keeps the first strict maximum. Returns the
/// outputs and the flat input index of every maximum.
fn max_pool_forward(win: &Window, c: usize, x: &[f32]) -> (Vec<f32>, Vec<usize>) {
    let (ih, iw) = win.in_hw;
    let (oh, ow) = win.out_hw;
    let mut out = Vec::with_capacity(c * oh * ow);
    let mut argmax = Vec::with_capacity(c * oh * ow);
    for (ch, xc) in x.chunks_exact(ih * iw).enumerate() {
        for oy in 0..oh {
            for ox in 0..ow {
                let cols = win.in_cols(ox);
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0usize;
                for iy in win.in_rows(oy) {
                    let row = iy * iw;
                    for (ix, &v) in cols.clone().zip(&xc[row + cols.start..row + cols.end]) {
                        let better = v > best;
                        best = if better { v } else { best };
                        best_idx = if better { ch * ih * iw + row + ix } else { best_idx };
                    }
                }
                out.push(best);
                argmax.push(best_idx);
            }
        }
    }
    (out, argmax)
}

/// Average pooling forward: each output sums its in-bounds window in
/// `(ky, kx)` order, then scales by `1/k²`.
fn avg_pool_forward(win: &Window, c: usize, x: &[f32]) -> Vec<f32> {
    let (ih, iw) = win.in_hw;
    let (oh, ow) = win.out_hw;
    let norm = 1.0 / ((win.k * win.k) as f32);
    let mut out = Vec::with_capacity(c * oh * ow);
    for xc in x.chunks_exact(ih * iw) {
        for oy in 0..oh {
            for ox in 0..ow {
                let cols = win.in_cols(ox);
                let mut acc = 0.0f32;
                for iy in win.in_rows(oy) {
                    for &v in &xc[iy * iw + cols.start..iy * iw + cols.end] {
                        acc += v;
                    }
                }
                out.push(acc * norm);
            }
        }
    }
    out
}

/// Average pooling input gradient: every in-bounds window pixel adds
/// `go/k²`, outputs in `(oy, ox)` order.
fn avg_pool_backward(win: &Window, c: usize, g: &[f32]) -> Vec<f32> {
    let (ih, iw) = win.in_hw;
    let (oh, ow) = win.out_hw;
    let norm = 1.0 / ((win.k * win.k) as f32);
    let mut gin = vec![0.0f32; c * ih * iw];
    for (gc, gplane) in gin.chunks_exact_mut(ih * iw).zip(g.chunks_exact(oh * ow)) {
        for oy in 0..oh {
            for ox in 0..ow {
                let go = gplane[oy * ow + ox] * norm;
                let cols = win.in_cols(ox);
                for iy in win.in_rows(oy) {
                    for v in &mut gc[iy * iw + cols.start..iy * iw + cols.end] {
                        *v += go;
                    }
                }
            }
        }
    }
    gin
}

fn zero_layer(l: &mut Layer) {
    match l {
        Layer::Conv2d { dw, db, .. } | Layer::Linear { dw, db, .. } => {
            dw.iter_mut().for_each(|v| *v = 0.0);
            db.iter_mut().for_each(|v| *v = 0.0);
        }
        Layer::BatchNorm { dgamma, dbeta, .. } => {
            dgamma.iter_mut().for_each(|v| *v = 0.0);
            dbeta.iter_mut().for_each(|v| *v = 0.0);
        }
        Layer::Residual { main, shortcut } => {
            main.iter_mut().for_each(zero_layer);
            shortcut.iter_mut().for_each(zero_layer);
        }
        _ => {}
    }
}

fn step_layer(l: &mut Layer, lr: f32) {
    match l {
        Layer::Conv2d { w, b, dw, db, .. } | Layer::Linear { w, b, dw, db, .. } => {
            for (wi, di) in w.iter_mut().zip(dw.iter()) {
                *wi -= lr * di;
            }
            for (bi, di) in b.iter_mut().zip(db.iter()) {
                *bi -= lr * di;
            }
        }
        Layer::BatchNorm { gamma, beta, dgamma, dbeta, .. } => {
            for (gi, di) in gamma.iter_mut().zip(dgamma.iter()) {
                *gi -= lr * di;
            }
            for (bi, di) in beta.iter_mut().zip(dbeta.iter()) {
                *bi -= lr * di;
            }
        }
        Layer::Residual { main, shortcut } => {
            main.iter_mut().for_each(|l| step_layer(l, lr));
            shortcut.iter_mut().for_each(|l| step_layer(l, lr));
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticVision;
    use crate::zoo;

    #[test]
    fn forward_shapes() {
        let mut net = FloatNet::init(&zoo::tiny_cnn(4), 1).unwrap();
        let x = vec![0.1f32; 3 * 16 * 16];
        assert_eq!(net.forward(&x).len(), 4);
        let mut lenet = FloatNet::init(&zoo::lenet5(), 1).unwrap();
        assert_eq!(lenet.forward(&vec![0.0; 28 * 28]).len(), 10);
    }

    #[test]
    fn residual_net_forward() {
        let mut net = FloatNet::init(&zoo::tiny_resnet(4), 2).unwrap();
        assert_eq!(net.forward(&vec![0.2f32; 3 * 16 * 16]).len(), 4);
    }

    #[test]
    fn softmax_ce_gradient_sums_to_zero() {
        let (loss, grad) = FloatNet::softmax_ce(&[1.0, 2.0, -1.0], 1);
        assert!(loss > 0.0);
        assert!(grad.iter().sum::<f32>().abs() < 1e-6);
        assert!(grad[1] < 0.0);
    }

    /// Finite-difference gradient check on small conv+fc nets: stride-1
    /// and stride-2 padded convolutions, max pooling and padded average
    /// pooling, probed through conv and linear weights. A probe on the
    /// first conv checks every input gradient above it.
    #[test]
    fn gradients_match_finite_differences() {
        let cases = [
            (
                ModelSpec {
                    name: "gc".into(),
                    input: TensorShape::Chw(1, 5, 5),
                    ops: vec![
                        OpSpec::Conv2d { out_c: 2, k: 3, stride: 1, pad: 1 },
                        OpSpec::ReLU,
                        OpSpec::MaxPool { k: 2, stride: 2, pad: 0 },
                        OpSpec::Flatten,
                        OpSpec::Linear { out: 3 },
                    ],
                },
                vec![(0, 4), (4, 7)],
            ),
            (
                ModelSpec {
                    name: "gc-stride2-avg".into(),
                    input: TensorShape::Chw(2, 7, 7),
                    ops: vec![
                        OpSpec::Conv2d { out_c: 3, k: 3, stride: 1, pad: 1 },
                        OpSpec::ReLU,
                        OpSpec::Conv2d { out_c: 4, k: 3, stride: 2, pad: 1 },
                        OpSpec::AvgPool { k: 3, stride: 2, pad: 1 },
                        OpSpec::Flatten,
                        OpSpec::Linear { out: 3 },
                    ],
                },
                vec![(0, 10), (0, 40), (2, 31), (5, 5)],
            ),
        ];
        for (spec, probes) in cases {
            let mut net = FloatNet::init(&spec, 3).unwrap();
            let n = spec.input.elements();
            let x: Vec<f32> = (0..n).map(|i| (i as f32 / n as f32) - 0.4).collect();
            let label = 2;

            net.zero_grads();
            let logits = net.forward_train(&x);
            let (_, grad) = FloatNet::softmax_ce(&logits, label);
            net.backward(&grad);

            let eps = 1e-3f32;
            for (layer, idx) in probes {
                let (analytic, w) = match &mut net.layers[layer] {
                    Layer::Conv2d { dw, w, .. } | Layer::Linear { dw, w, .. } => (dw[idx], w[idx]),
                    _ => unreachable!(),
                };
                let mut loss_at = |v: f32| {
                    if let Layer::Conv2d { w, .. } | Layer::Linear { w, .. } =
                        &mut net.layers[layer]
                    {
                        w[idx] = v;
                    }
                    let logits = net.forward_train(&x);
                    FloatNet::softmax_ce(&logits, label).0
                };
                let numeric = (loss_at(w + eps) - loss_at(w - eps)) / (2.0 * eps);
                loss_at(w);
                assert!(
                    (analytic - numeric).abs() < 2e-2,
                    "{}: layer {layer} weight {idx}: grad {analytic} vs fd {numeric}",
                    spec.name
                );
            }
        }
    }

    /// Windows wholly inside the padding (`pad ≥ k`) are empty sums: the
    /// border outputs of a padded 1×1 convolution are exactly its bias, and
    /// backward skips them.
    #[test]
    fn padding_only_windows_are_empty_sums() {
        let spec = ModelSpec {
            name: "pad".into(),
            input: TensorShape::Chw(1, 2, 2),
            ops: vec![
                OpSpec::Conv2d { out_c: 2, k: 3, stride: 1, pad: 1 },
                OpSpec::Conv2d { out_c: 1, k: 1, stride: 1, pad: 2 },
                OpSpec::Flatten,
                OpSpec::Linear { out: 2 },
            ],
        };
        let mut net = FloatNet::init(&spec, 1).unwrap();
        let out = forward_layer(&mut net.layers[1], vec![1.0; 8], false);
        let Layer::Conv2d { w, b, .. } = &net.layers[1] else { unreachable!() };
        for (i, &v) in out.iter().enumerate() {
            let inside = (2..4).contains(&(i / 6)) && (2..4).contains(&(i % 6));
            assert_eq!(v, if inside { b[0] + w[0] + w[1] } else { b[0] }, "output {i}");
        }
        net.zero_grads();
        let logits = net.forward_train(&[0.5, -0.5, 1.0, 0.25]);
        net.backward(&FloatNet::softmax_ce(&logits, 0).1);
        let Layer::Conv2d { dw, .. } = &net.layers[1] else { unreachable!() };
        assert!(dw.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let data = SyntheticVision::tiny(4, 11);
        let mut net = FloatNet::init(&zoo::tiny_cnn(4), 5).unwrap();
        let before = net.accuracy(data.test());
        let loss0 = net.train_epochs(&data, 1, 8, 0.05);
        let loss1 = net.train_epochs(&data, 3, 8, 0.05);
        assert!(loss1 < loss0, "loss did not decrease: {loss0} -> {loss1}");
        let after = net.accuracy(data.test());
        assert!(after > before.max(0.5), "accuracy {before} -> {after}");
    }

    use crate::spec::{ModelSpec, OpSpec, TensorShape};
}
