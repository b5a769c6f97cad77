//! The machine-learning workload of the paper: binary logistic regression
//! trained with full-batch gradient descent, plus the quantized two-round
//! protocol that makes it compatible with coded computing over a finite field.
//!
//! * [`dataset`] — a synthetic GISETTE-like binary classification dataset
//!   (the real GISETTE data is not redistributable here; see the `avcc-ml`
//!   entry of ARCHITECTURE.md's *Crate map*). Features are
//!   non-negative integers bounded like GISETTE pixel counts, so the paper's
//!   field-size analysis carries over unchanged.
//! * [`logistic`] — the centralized reference implementation: sigmoid,
//!   cross-entropy, full-batch gradient descent, accuracy. Used both as the
//!   single-machine baseline and for the master-side (real-domain) steps of
//!   the distributed protocol.
//! * [`quantized`] — the fixed-point pipeline of §IV-A/§V: quantize the model
//!   weights (`l = 5` bits), run round 1 (`z = Xw`) over the field, dequantize,
//!   apply the sigmoid and form the error vector in the real domain, quantize
//!   it, run round 2 (`g = Xᵀe`) over the field, dequantize and update.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod logistic;
pub mod quantized;

pub use dataset::{Dataset, DatasetConfig};
pub use logistic::{accuracy, cross_entropy, sigmoid, FeatureScaler, LogisticModel, TrainConfig};
pub use quantized::QuantizedProtocol;
