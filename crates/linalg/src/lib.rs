//! Dense matrices and vectors over prime fields and `f64`, with the
//! kernels run by the workers of the cluster substrate.
//!
//! The AVCC workload is dominated by two shapes of computation:
//!
//! * the **worker kernel** — matrix–vector products `X̃ w` and transpose
//!   products `X̃ᵀ e` over the finite field (the two rounds of the logistic
//!   regression protocol, §IV-A of the paper), and
//! * the **master-side kernels** — encoding (linear combinations of data
//!   blocks), Freivalds verification (vector–matrix and dot products) and
//!   decoding (small linear solves / interpolation).
//!
//! [`Matrix`] is a simple row-major dense container generic over the element
//! type; [`field_ops`] provides the two serial field kernels (the executors
//! in `avcc_sim` fan workers out, one kernel call per worker), and
//! [`real_ops`] provides the `f64` reference kernels plus the quantization
//! bridge used by the ML layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod field_ops;
pub mod matrix;
pub mod real_ops;

pub use field_ops::{mat_vec, matt_vec};
pub use matrix::Matrix;
pub use real_ops::{quantize_matrix, real_mat_vec, real_mat_vec_into, real_matt_vec};
