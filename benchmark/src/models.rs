//! The two benchmark models and their seed-selected inputs.
//!
//! Both processes build a model from fixed seeds, so provider and client
//! derive identical weight shares without exchanging them. `--seed` only
//! selects which images a session sends.

use aq2pnn_nn::data::SyntheticVision;
use aq2pnn_nn::float::FloatNet;
use aq2pnn_nn::quant::{QuantConfig, QuantModel};
use aq2pnn_nn::spec::{ModelSpec, OpSpec, TensorShape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Registry name of the LeNet5 demo model (`aq2pnn-serve --model lenet5`).
pub const LENET5: &str = "lenet5";
/// Registry name of the VGG16-CIFAR tail served by our own `provider`.
pub const VGGTAIL: &str = "vggtail";

/// Seed of the dataset `vggtail` is calibrated on (weights use `9`, like
/// `demo_model`).
const VGGTAIL_DATA_SEED: u64 = 2024;

/// Channel width of `vggtail`. The conv5 block of `zoo::vgg16_cifar` is 512
/// wide, but its 9.4 MB weight-mask opening cannot cross real TCP: both
/// parties `send` before they `recv` (`Endpoint::exchange_bits`), and two
/// simultaneous blocking writes above what the kernel buffers (between
/// 3.5 and 4 MiB on loopback here) deadlock until the 10 s write timeout
/// breaks the link. 256 keeps every message at 2.25 MiB.
const VGGTAIL_C: usize = 256;

/// The conv5 block + classifier of `zoo::vgg16_cifar` at width
/// [`VGGTAIL_C`]: 3×[conv 3×3 pad 1, ReLU], MaxPool 2, FC 512, ReLU, FC 10
/// on a 2×2 input. The linear-dominated workload: 2304 MACs per ReLU
/// element, against 150 in LeNet5's conv2.
fn vggtail_spec() -> ModelSpec {
    use OpSpec::{Conv2d, Flatten, Linear, MaxPool, ReLU};
    let conv = Conv2d { out_c: VGGTAIL_C, k: 3, stride: 1, pad: 1 };
    ModelSpec {
        name: "vgg16-cifar10-tail".into(),
        input: TensorShape::Chw(VGGTAIL_C, 2, 2),
        ops: vec![
            conv.clone(),
            ReLU,
            conv.clone(),
            ReLU,
            conv,
            ReLU,
            MaxPool { k: 2, stride: 2, pad: 0 },
            Flatten,
            Linear { out: 512 },
            ReLU,
            Linear { out: 10 },
        ],
    }
}

fn vggtail_data(seed: u64) -> SyntheticVision {
    SyntheticVision::generate(10, VGGTAIL_C, 2, 2, 8, 32, 0.3, seed)
}

/// Untrained `vggtail`, quantized on 8 synthetic calibration images.
/// Training would not change the work the protocol does.
pub fn vggtail_model() -> Result<QuantModel, String> {
    let net = FloatNet::init(&vggtail_spec(), 9).map_err(|e| e.to_string())?;
    let calib = vggtail_data(VGGTAIL_DATA_SEED).calibration(8);
    QuantModel::quantize(&net, &calib, &QuantConfig::int8()).map_err(|e| e.to_string())
}

/// A model plus the image pool `--seed` draws from.
pub struct Fixture {
    pub model: QuantModel,
    pool: Vec<Vec<f32>>,
}

impl Fixture {
    /// Builds the model registered under `name` the way its provider does.
    pub fn build(name: &str, seed: u64) -> Result<Fixture, String> {
        match name {
            LENET5 => {
                let (data, model) = aq2pnn_server::demo_model(LENET5)?;
                Ok(Fixture { model, pool: data.test_images() })
            }
            VGGTAIL => {
                // The pool itself comes from the seed: there is no trained
                // task here, any input exercises the same schedule.
                let pool = vggtail_data(seed ^ 0x7a11).test_images();
                Ok(Fixture { model: vggtail_model()?, pool })
            }
            other => Err(format!("unknown model {other}")),
        }
    }

    /// The `n` images a session sends under `seed` (distinct pool entries).
    pub fn images(&self, seed: u64, n: usize) -> Vec<&[f32]> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut idx: Vec<usize> = (0..self.pool.len()).collect();
        for i in 0..n.min(idx.len()) {
            let j = rng.gen_range(i..idx.len());
            idx.swap(i, j);
        }
        idx.iter().take(n).map(|&i| self.pool[i].as_slice()).collect()
    }
}
