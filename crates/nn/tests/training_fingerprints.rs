//! Pins the trained bits of the float training stack.
//!
//! Every `nn::float` kernel must give each accumulator the same additions
//! in the same order, so a deterministic training run produces the same
//! `f32` bit patterns whatever loop shape computes them. These digests
//! were captured with the direct-convolution kernels and must never move:
//! a kernel rewrite that reassociates one sum fails here. The sets are
//! reduced so the suite stays quick in debug builds; the full-size demo
//! models are pinned by `crates/server/tests/demo_fingerprints.rs`.

use aq2pnn_nn::data::SyntheticVision;
use aq2pnn_nn::float::FloatNet;
use aq2pnn_nn::quant::{QuantConfig, QuantModel};
use aq2pnn_nn::spec::ModelSpec;
use aq2pnn_nn::zoo;

/// Trains `spec` for one epoch on `data` and returns the float and the
/// quantized model's digests.
fn trained(spec: &ModelSpec, data: &SyntheticVision) -> (u64, u64) {
    let mut net = FloatNet::init(spec, 9).unwrap();
    net.train_epochs(data, 1, 16, 0.05);
    let q = QuantModel::quantize(&net, &data.calibration(8), &QuantConfig::int8()).unwrap();
    (net.fingerprint(), q.fingerprint())
}

fn small_rgb(seed: u64) -> SyntheticVision {
    SyntheticVision::generate(4, 3, 16, 16, 48, 8, 0.3, seed)
}

#[test]
fn lenet5_training_is_bit_stable() {
    let data = SyntheticVision::generate(10, 1, 28, 28, 48, 8, 0.3, 2024);
    assert_eq!(trained(&zoo::lenet5(), &data), (16519306649878069032, 2786922063993055142));
}

#[test]
fn tiny_cnn_training_is_bit_stable() {
    assert_eq!(
        trained(&zoo::tiny_cnn(4), &small_rgb(2024)),
        (6349738908862454248, 10465618239092015744)
    );
}

#[test]
fn tiny_resnet_training_is_bit_stable() {
    assert_eq!(
        trained(&zoo::tiny_resnet(4), &small_rgb(2025)),
        (12069209218200739392, 2913374389974531209)
    );
}

#[test]
fn tiny_cnn_avgpool_training_is_bit_stable() {
    assert_eq!(
        trained(&zoo::tiny_cnn_avgpool(4), &small_rgb(2026)),
        (7630266640061850452, 18107724384897841754)
    );
}
