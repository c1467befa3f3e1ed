//! Deterministic synthetic vision datasets.
//!
//! The paper trains/evaluates on MNIST, CIFAR10 and ImageNet. Those corpora
//! are not available offline, so this module generates *synthetic* stand-ins
//! (see DESIGN.md): each class gets a smooth random prototype (a sum of
//! low-frequency sinusoids per channel) and samples are noisy, shifted
//! renderings of their class prototype. The datasets are deterministic in
//! their seed, linearly non-trivial, and hard enough that accuracy responds
//! to quantization error — which is what the bit-width experiments need.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One labelled image in CHW layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Pixel data, `c·h·w` floats roughly in `[-1, 1]`.
    pub image: Vec<f32>,
    /// Class index.
    pub label: usize,
}

/// A deterministic synthetic classification dataset.
#[derive(Debug, Clone)]
pub struct SyntheticVision {
    classes: usize,
    shape: (usize, usize, usize),
    train: Vec<Sample>,
    test: Vec<Sample>,
}

impl SyntheticVision {
    /// Generates a dataset with the given geometry.
    ///
    /// `noise` is the per-pixel Gaussian noise σ added on top of the class
    /// prototype (`≈0.3` gives a learnable-but-not-trivial task).
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0` or any dimension is zero.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn generate(
        classes: usize,
        c: usize,
        h: usize,
        w: usize,
        n_train: usize,
        n_test: usize,
        noise: f32,
        seed: u64,
    ) -> Self {
        assert!(classes > 0 && c > 0 && h > 0 && w > 0, "degenerate dataset geometry");
        let mut rng = StdRng::seed_from_u64(seed);
        let prototypes: Vec<Vec<f32>> =
            (0..classes).map(|_| prototype(c, h, w, &mut rng)).collect();
        let make = |n: usize, rng: &mut StdRng| -> Vec<Sample> {
            (0..n)
                .map(|i| {
                    let label = i % classes;
                    let image = render(&prototypes[label], c, h, w, noise, rng);
                    Sample { image, label }
                })
                .collect()
        };
        let train = make(n_train, &mut rng);
        let test = make(n_test, &mut rng);
        SyntheticVision { classes, shape: (c, h, w), train, test }
    }

    /// A 3×16×16 dataset matching [`crate::zoo::tiny_cnn`] (512 train / 128
    /// test samples).
    #[must_use]
    pub fn tiny(classes: usize, seed: u64) -> Self {
        Self::generate(classes, 3, 16, 16, 512, 128, 0.3, seed)
    }

    /// A 1×28×28, 10-class dataset matching [`crate::zoo::lenet5`].
    #[must_use]
    pub fn mnist_like(seed: u64) -> Self {
        Self::generate(10, 1, 28, 28, 800, 200, 0.3, seed)
    }

    /// A 3×16×16 dataset whose class signal lives in a few **sparse
    /// spikes** (bright pixels at class-specific, jittered locations) on a
    /// noisy background. Peak-detection tasks are where max pooling beats
    /// average pooling — the mechanism behind paper Table 6.
    #[must_use]
    pub fn spiky(classes: usize, seed: u64) -> Self {
        assert!(classes > 0, "degenerate dataset geometry");
        let (c, h, w) = (3usize, 16usize, 16usize);
        let mut rng = StdRng::seed_from_u64(seed);
        // Per class: 4 spike sites (channel, y, x).
        let sites: Vec<Vec<(usize, usize, usize)>> = (0..classes)
            .map(|_| {
                (0..4)
                    .map(|_| {
                        (rng.gen_range(0..c), rng.gen_range(2..h - 2), rng.gen_range(2..w - 2))
                    })
                    .collect()
            })
            .collect();
        let make = |n: usize, rng: &mut StdRng| -> Vec<Sample> {
            (0..n)
                .map(|i| {
                    let label = i % classes;
                    let mut image: Vec<f32> =
                        (0..c * h * w).map(|_| gaussian(rng) * 0.25).collect();
                    for &(sc, sy, sx) in &sites[label] {
                        let jy = (sy as i64 + rng.gen_range(-1i64..=1)) as usize % h;
                        let jx = (sx as i64 + rng.gen_range(-1i64..=1)) as usize % w;
                        image[(sc * h + jy) * w + jx] = 1.4 + gaussian(rng) * 0.1;
                    }
                    Sample { image, label }
                })
                .collect()
        };
        let train = make(512, &mut rng);
        let test = make(128, &mut rng);
        SyntheticVision { classes, shape: (c, h, w), train, test }
    }

    /// Number of classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Image shape `(c, h, w)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize, usize) {
        self.shape
    }

    /// Training split.
    #[must_use]
    pub fn train(&self) -> &[Sample] {
        &self.train
    }

    /// Test split.
    #[must_use]
    pub fn test(&self) -> &[Sample] {
        &self.test
    }

    /// The first `n` training images — the post-training-quantization
    /// calibration set (paper Sec. 5.1 "characterizes the distribution of
    /// run-time activation").
    #[must_use]
    pub fn calibration(&self, n: usize) -> Vec<Vec<f32>> {
        self.train.iter().take(n).map(|s| s.image.clone()).collect()
    }

    /// All test images without labels.
    #[must_use]
    pub fn test_images(&self) -> Vec<Vec<f32>> {
        self.test.iter().map(|s| s.image.clone()).collect()
    }
}

/// Smooth random prototype: a few random sinusoids per channel.
fn prototype(c: usize, h: usize, w: usize, rng: &mut StdRng) -> Vec<f32> {
    let mut img = vec![0.0f32; c * h * w];
    for ch in 0..c {
        let waves: Vec<(f32, f32, f32, f32)> = (0..4)
            .map(|_| {
                (
                    rng.gen_range(0.5..2.5),                   // fx
                    rng.gen_range(0.5..2.5),                   // fy
                    rng.gen_range(0.0..std::f32::consts::TAU), // phase
                    rng.gen_range(0.4..1.0),                   // amplitude
                )
            })
            .collect();
        for y in 0..h {
            for x in 0..w {
                let mut v = 0.0f32;
                for &(fx, fy, p, a) in &waves {
                    let t = fx * x as f32 / w as f32 + fy * y as f32 / h as f32;
                    v += a * (std::f32::consts::TAU * t + p).sin();
                }
                img[ch * h * w + y * w + x] = v / 2.0;
            }
        }
    }
    img
}

/// Renders a noisy, slightly shifted instance of a prototype.
fn render(proto: &[f32], c: usize, h: usize, w: usize, noise: f32, rng: &mut StdRng) -> Vec<f32> {
    let (dy, dx) = (rng.gen_range(-1i64..=1), rng.gen_range(-1i64..=1));
    let gain = rng.gen_range(0.85..1.15f32);
    let mut img = vec![0.0f32; c * h * w];
    for ch in 0..c {
        for y in 0..h {
            for x in 0..w {
                let sy = (y as i64 + dy).rem_euclid(h as i64) as usize;
                let sx = (x as i64 + dx).rem_euclid(w as i64) as usize;
                let base = proto[ch * h * w + sy * w + sx] * gain;
                img[ch * h * w + y * w + x] = (base + gaussian(rng) * noise).clamp(-1.5, 1.5);
            }
        }
    }
    img
}

/// Standard normal via Box–Muller.
fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let a = SyntheticVision::tiny(4, 1);
        let b = SyntheticVision::tiny(4, 1);
        assert_eq!(a.train()[0], b.train()[0]);
        let c = SyntheticVision::tiny(4, 2);
        assert_ne!(a.train()[0].image, c.train()[0].image);
    }

    #[test]
    fn splits_and_labels() {
        let d = SyntheticVision::tiny(4, 3);
        assert_eq!(d.train().len(), 512);
        assert_eq!(d.test().len(), 128);
        assert!(d.train().iter().all(|s| s.label < 4));
        // Balanced labels.
        let count0 = d.train().iter().filter(|s| s.label == 0).count();
        assert_eq!(count0, 128);
    }

    #[test]
    fn pixels_bounded() {
        let d = SyntheticVision::mnist_like(5);
        for s in d.train().iter().take(10) {
            assert_eq!(s.image.len(), 28 * 28);
            assert!(s.image.iter().all(|v| v.abs() <= 1.5));
        }
    }

    #[test]
    fn classes_are_separable_by_prototype_distance() {
        // Nearest-prototype classification on clean prototypes should beat
        // chance by a wide margin — the dataset is learnable.
        let d = SyntheticVision::tiny(4, 7);
        // Estimate per-class means from train, classify test by nearest mean.
        let (c, h, w) = d.shape();
        let n = c * h * w;
        let mut means = vec![vec![0.0f32; n]; 4];
        let mut counts = [0usize; 4];
        for s in d.train() {
            counts[s.label] += 1;
            for (m, &v) in means[s.label].iter_mut().zip(&s.image) {
                *m += v;
            }
        }
        for (m, &cnt) in means.iter_mut().zip(&counts) {
            for v in m.iter_mut() {
                *v /= cnt as f32;
            }
        }
        let mut correct = 0;
        for s in d.test() {
            let mut best = (f32::INFINITY, 0usize);
            for (k, m) in means.iter().enumerate() {
                let dist: f32 = m.iter().zip(&s.image).map(|(a, b)| (a - b).powi(2)).sum();
                if dist < best.0 {
                    best = (dist, k);
                }
            }
            if best.1 == s.label {
                correct += 1;
            }
        }
        let acc = f64::from(correct) / d.test().len() as f64;
        assert!(acc > 0.6, "nearest-mean accuracy only {acc}");
    }

    #[test]
    fn spiky_dataset_properties() {
        let d = SyntheticVision::spiky(8, 3);
        assert_eq!(d.classes(), 8);
        assert_eq!(d.train().len(), 512);
        assert_eq!(d.shape(), (3, 16, 16));
        // Every sample carries at least one strong spike.
        for s in d.train().iter().take(20) {
            let max = s.image.iter().fold(f32::MIN, |m, &v| m.max(v));
            assert!(max > 1.0, "spike missing: max {max}");
        }
        // Deterministic.
        let e = SyntheticVision::spiky(8, 3);
        assert_eq!(d.train()[0], e.train()[0]);
    }

    #[test]
    fn calibration_subset() {
        let d = SyntheticVision::tiny(4, 9);
        assert_eq!(d.calibration(16).len(), 16);
        assert_eq!(d.calibration(16)[0], d.train()[0].image);
    }
}
