//! Information-theoretic verifiable computing for matrix operations —
//! Freivalds' algorithm, as used by AVCC to detect Byzantine workers.
//!
//! The paper's key observation (§IV) is that for matrix–vector workloads the
//! master can check a worker's result *individually and cheaply*: with a
//! one-time secret key `r` (a uniformly random vector) and the precomputed
//! product `s = r·X̃`, the claimed result `ẑ = X̃w` is accepted iff
//! `s·w = r·ẑ`. The check costs `O(m + d)` arithmetic operations versus
//! `O(m·d/K)` for recomputing, and a wrong result slips through with
//! probability at most `1/q` (about `3·10⁻⁸` in the paper's 25-bit field).
//! Repeating the check with `t` independent keys drives the soundness error
//! to `q⁻ᵗ`.
//!
//! * [`keys`] — [`MatVecKey`]: key generation (`s = rᵀ·A`, eq. 6 / eq. 7,
//!   one key per worker per round matrix) and the check itself (eq. 8 /
//!   eq. 9).
//! * [`freivalds`] — [`combine_with_powers`], the σ-combination that folds an
//!   `m`-function round into one check per worker.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod freivalds;
pub mod keys;

pub use freivalds::combine_with_powers;
pub use keys::{KeyGenConfig, MatVecKey};
