//! Dynamic-width ring arithmetic for AQ2PNN.
//!
//! Everything in the AQ2PNN protocol ([MICRO '23]) happens on an unsigned
//! integer ring `Z_Q` with `Q = 2^ℓ` (paper Definition 1). Unlike CPU/GPU
//! frameworks that are pinned to 32- or 64-bit rings by their instruction
//! set, the FPGA design picks `ℓ` *per layer stage* — that adaptivity is the
//! paper's core idea, and this crate is the substrate that makes it cheap:
//! a [`Ring`] is a tiny copyable descriptor (`ℓ` + a bit mask) and all
//! arithmetic is masked `u64` operations.
//!
//! The crate provides:
//!
//! * [`Ring`] — modular arithmetic on `Z_{2^ℓ}` for any `1 ≤ ℓ ≤ 64`,
//!   including the two's-complement signed codec used throughout the paper
//!   (Fig. 3 "encode with 2's complement method").
//! * [`RingTensor`] — a shaped container of ring elements with elementwise
//!   and indexing helpers, the unit of data moved between protocol buffers.
//! * [`extend`] — ring-size extension (`Q1 = 2^12 → Q2 = 2^16` in Fig. 8),
//!   both the paper's local sign-extension and the exact analysis used to
//!   bound its failure probability.
//! * [`ct`] — branch-free comparison/selection primitives the protocol
//!   crates use wherever a computation touches secret share values, so
//!   local timing stays share-independent (see DESIGN.md §"Secrecy
//!   discipline").
//! * [`isa`] / [`simd`] — runtime CPU-feature detection and the GEMM
//!   `axpy` kernels: scalar references plus AVX2/AVX-512 u32/u64 kernels
//!   (DESIGN.md §7.4).
//!
//! # Example
//!
//! ```
//! use aq2pnn_ring::Ring;
//!
//! let q1 = Ring::new(12); // Z_{2^12}
//! let x = q1.encode_signed(-74);
//! assert_eq!(q1.decode_signed(x), -74);
//!
//! // Additive shares wrap around the ring modulus.
//! let r = 0x5a5 & q1.mask();
//! let (xi, xj) = (r, q1.sub(x, r));
//! assert_eq!(q1.add(xi, xj), x);
//! ```
//!
//! [MICRO '23]: https://doi.org/10.1145/3613424.3614297

// `deny`, not `forbid`: the u32/u64 GEMM `axpy` kernels in `simd::x86`
// opt back in with a module-local `#![allow(unsafe_code)]` and carry the
// safety argument (feature-checked safe wrappers, asserted length
// contracts) documented there and in DESIGN.md §7.4. Everything else in
// the crate stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod ct;
mod error;
pub mod extend;
pub mod isa;
mod ring;
pub mod simd;
mod tensor;

pub use error::{RingError, ShapeError};
pub use isa::IsaLevel;
pub use ring::Ring;
pub use tensor::RingTensor;

/// The paper's headroom rule of thumb (Sec. 5.1): an `ℓ`-bit plaintext model
/// is carried on a `2^{ℓ+4}` ring, e.g. 12-bit values on a 16-bit ring.
pub const HEADROOM_BITS: u32 = 4;
