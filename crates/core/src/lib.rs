//! # AQ2PNN — two-party privacy-preserving DNN inference with adaptive quantization
//!
//! A from-scratch Rust reproduction of *AQ2PNN: Enabling Two-party
//! Privacy-Preserving Deep Neural Network Inference with Adaptive
//! Quantization* (Luo et al., [MICRO '23]). Two parties — a **user**
//! holding a private input image and a **model provider** holding private
//! weights — jointly run quantized DNN inference so that neither learns the
//! other's secret, with every activation carried on an adaptively-sized
//! ring `Z_{2^ℓ}` to cut communication.
//!
//! This crate is the protocol layer; the substrates live in sibling crates
//! and are re-exported under [`substrate`]:
//!
//! | piece | where |
//! |---|---|
//! | ring arithmetic, share extension analysis | `aq2pnn-ring` |
//! | channels + exact byte accounting | `aq2pnn-transport` |
//! | additive/binary shares, Beaver triples, A2B bit grouping | `aq2pnn-sharing` |
//! | the DH OT-flow (paper Eqs. 2–5) | `aq2pnn-ot` |
//! | quantized models (HAWQ-v3-style BNReQ) | `aq2pnn-nn` |
//!
//! What this crate adds — the paper's contribution:
//!
//! * [`gemm`] — **AS-GEMM** (paper Eq. 1 / Fig. 2): Beaver-triple
//!   ciphertext×ciphertext matrix multiplication.
//! * [`ops`] — 2PC-Conv2D (im2col + AS-GEMM), 2PC-Linear, **2PC-BNReQ**
//!   (P-C multiply + share truncation), pooling and residual adds.
//! * [`abrelu`] — **ABReLU** (paper Sec. 4.4): ReLU without garbled
//!   circuits, via quadrant detection on the top two bits and the
//!   OT-flow group-comparison (SCM, paper Eq. 6 / Figs. 5–7).
//! * [`engine`] — the end-to-end secure inference engine executing an
//!   `aq2pnn_nn::quant::QuantModel` between two parties, with per-operator
//!   communication phases.
//! * [`prepared`] — the offline/online split for repeated inference: a
//!   [`prepared::PreparedModel`] holds weight shares, opened weight masks
//!   and resident triple lanes, so repeated runs pay only the per-input
//!   online cost.
//! * [`planner`] — the adaptive quantization plan: per-layer ring sizes
//!   `Q1` (activation carrier / ABReLU wire width) and `Q2` (MAC ring).
//! * [`lower`] — the one definition of the engine's execution order
//!   (pool before ReLU), shared by every walker that runs, costs or
//!   numbers layers.
//! * [`instq`] — the INST Q compiler (paper Sec. 4.1.1): lowers a model to
//!   the accelerator instruction stream consumed by the FPGA simulator.
//! * [`sim`] — two-thread harness running both parties over an in-process
//!   duplex link, used by tests, examples and benches. The `_over`
//!   variants ([`sim::run_two_party_over`], [`sim::run_pair_over`]) accept
//!   caller-supplied endpoints, so the same protocol code runs unchanged
//!   over a TCP loopback session or a fault-injected link (see
//!   `aq2pnn_transport`'s session stack and `tests/transport_faults.rs`).
//!
//! # Quickstart
//!
//! ```
//! use aq2pnn::{sim, ProtocolConfig};
//! use aq2pnn_nn::{data::SyntheticVision, float::FloatNet, quant::{QuantConfig, QuantModel}, zoo};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Provider side: train + quantize a model (plaintext domain).
//! let data = SyntheticVision::tiny(4, 42);
//! let mut net = FloatNet::init(&zoo::tiny_cnn(4), 7)?;
//! net.train_epochs(&data, 1, 8, 0.05);
//! let model = QuantModel::quantize(&net, &data.calibration(16), &QuantConfig::int8())?;
//!
//! // Run one private inference between two in-process parties.
//! let cfg = ProtocolConfig::exact(16);
//! let out = sim::run_two_party(&model, &cfg, &data.test()[0].image, 1)?;
//! assert_eq!(out.logits.len(), 4);
//! # Ok(())
//! # }
//! ```
//!
//! [MICRO '23]: https://doi.org/10.1145/3613424.3614297

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abrelu;
mod config;
pub mod dealer;
pub mod engine;
mod error;
pub mod gemm;
pub mod instq;
pub mod lower;
pub mod ops;
mod oracle;
mod party;
pub mod planner;
pub mod prepared;
pub mod sim;
#[cfg(test)]
mod simd;

pub use config::{
    ExtensionMode, PipelineMode, ProtocolConfig, ReluMode, ReluRounds, TruncationMode,
};
pub use error::ProtocolError;
pub use oracle::{IdealOp, IdealOracle};
pub use party::{IoSpan, PartyContext};

/// Re-exports of the substrate crates, so downstream users need only one
/// dependency.
pub mod substrate {
    pub use aq2pnn_nn as nn;
    pub use aq2pnn_obs as obs;
    pub use aq2pnn_ot as ot;
    pub use aq2pnn_ring as ring;
    pub use aq2pnn_sharing as sharing;
    pub use aq2pnn_transport as transport;
}
