//! Coded computing: the Lagrange Coded Computing (LCC) encoder and decoder,
//! with the privacy padding and feasibility rules of the AVCC paper.
//!
//! The coding layer answers three questions:
//!
//! 1. **How is the dataset encoded?** [`encoder::LagrangeEncoder`] implements
//!    the paper's eq. (12)–(13): the `K` data blocks and `T` uniformly random
//!    pads are interpolated through the β-points and the encoder hands worker
//!    `i` the evaluation `X̃_i = u(α_i)`. With `T = 0` and systematic α-points
//!    this is exactly an `(N, K)` MDS / Reed–Solomon code: Fig. 1's `(3, 2)`
//!    illustration is `EncodedDataset::encode` under
//!    `SchemeConfig::linear(3, 2, 1, 0)`, and the uncoded baseline's split
//!    is the `(K, K)` code, whose shares are the row bands themselves.
//! 2. **How many workers are needed?** [`scheme::SchemeConfig`] captures
//!    `(N, K, S, M, T)` and checks the LCC bound `N ≥ K + T + S + 2M`
//!    (eq. 1) and the AVCC bound `N ≥ K + T + S + M` (eq. 2).
//! 3. **How are results decoded?** [`decoder::LagrangeDecoder`] interpolates
//!    `f(u(z))` from worker evaluations: erasure-only decoding (what AVCC
//!    needs, since Byzantine results have already been discarded by the
//!    verifier) and error-correcting decoding (what the LCC baseline needs to
//!    identify Byzantine workers without verification), which locates them
//!    with the screen below and erasure-decodes the rest.
//!
//! A fourth question — **are the returned blocks even consistent?** — is
//! answered before any of the above runs: [`screen::DualCodeword`] checks all
//! responder blocks for RS-codeword membership at once with a SCRAPE-style
//! random dual-codeword inner product (`O(R·width)` per check, escape
//! probability `(1/q)^k`), and on failure localizes the corrupted workers by
//! syndrome power sums. The AVCC engine runs it pre-decode so screened-out
//! workers become plain erasures; the LCC baseline's error-correcting decode
//! runs it as its error locator.
//!
//! A fifth concern sits on top: **how often is the dataset encoded?**
//! [`dataset::EncodedDataset`] owns the coded partitions (and the decoder
//! that inverts them) once, so many per-function engine sessions —
//! and the multi-function batched rounds built on them — amortize a single
//! encode instead of re-encoding per computation. Its `encode` is the one
//! way a matrix becomes shares.
//!
//! # Encode/decode paths
//!
//! One point layout, [`points::EvaluationPoints::standard`] (consecutive
//! integers; systematic at `T = 0`, disjoint at `T > 0`), and one algorithm
//! per step:
//!
//! | Path | Cost per coordinate | Requires | Chosen when |
//! |---|---|---|---|
//! | Lagrange matrix | `O((K+T)·N)` encode — `(N−K)·K` at `T = 0`, where the first `K` shares are copies — and `O(B·R)` decode (`R` responders, `B` output blocks) | nothing — any field, any responder subset | always (`P25`: `train_*`, `serve_mixed`; the systematic `P64` `(12, 8)` code of `matmul_batch`) |
//! | Dual-codeword screen (pre-decode) | `O(R·width)` per dual vector | strictly more than threshold responders; `O(R²)` dual weights + Horner `Q`-evaluation per screen | always, before verify/decode, when the responder count leaves dual redundancy ([`screen::DualCodeword`]) |
//!
//! The decode basis is built once per survivor set by
//! [`decoder::LagrangeDecoder::prepare`] and applied to each of a batched
//! round's `m` functions; nothing is kept between rounds. Encode and decode
//! share one vectorized substrate: Lagrange linear combinations run on
//! [`avcc_field::WideAccumulator`] lanes with one shared batch inversion per
//! basis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod decoder;
pub mod encoder;
mod lagrange;
mod linear;
#[cfg(test)]
mod mds;
pub mod points;
pub mod scheme;
pub mod screen;

/// Lagrange interpolation and dense linear solving over prime fields: the
/// algebra under the encoder, the decoder and the screen.
///
/// * [`LagrangeBasis`](poly::LagrangeBasis) evaluates the Lagrange basis at
///   the worker points `α_i` (the encoding matrix `U_{j,i} = ℓ_j(α_i)` of
///   `u(z) = Σ X_j ℓ_j(z) + Σ W_j ℓ_j(z)`, paper eq. 12–13) and at the
///   β-points (the erasure decode's interpolation basis);
///   [`interpolate_eval`](poly::interpolate_eval) evaluates an interpolant
///   at one point, the reference the encoder's tests check shares against.
/// * [`solve`](poly::solve) is the dense Gaussian elimination the
///   dual-codeword screen's error locator runs on; [`rank`](poly::rank)
///   checks the T-privacy condition.
pub mod poly {
    pub use crate::lagrange::{interpolate_eval, LagrangeBasis};
    pub use crate::linear::{rank, solve, LinearSolveError};
}

pub use dataset::EncodedDataset;
pub use decoder::{DecodeError, LagrangeDecoder, PreparedDecode};
pub use encoder::LagrangeEncoder;
pub use points::EvaluationPoints;
pub use scheme::{SchemeConfig, SchemeError};
pub use screen::{DualCodeword, ScreenError, ScreenOutcome, ScreenReport};
