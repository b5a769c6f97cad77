//! Polynomials, Lagrange interpolation, linear solving and Reed–Solomon error
//! decoding over prime fields.
//!
//! This crate provides the algebraic machinery behind both coding layers of
//! the AVCC reproduction:
//!
//! * The **MDS / Lagrange encoders** (crate `avcc-coding`) build the encoding
//!   polynomial `u(z) = Σ X_j ℓ_j(z) + Σ W_j ℓ_j(z)` from Lagrange basis
//!   monomials ([`lagrange`]) and evaluate it at the worker points `α_i`.
//! * The **decoders** interpolate `f(u(z))` from worker evaluations:
//!   erasure-only decoding is plain Lagrange interpolation
//!   ([`lagrange::interpolate`]), while the LCC baseline's Byzantine
//!   tolerance needs *error-correcting* decoding, implemented here as the
//!   Berlekamp–Welch algorithm ([`reed_solomon::BerlekampWelch`]) on top of a
//!   dense Gaussian-elimination solver ([`linear::solve`]).
//! * When the field is NTT-friendly and the evaluation points sit in a
//!   power-of-two multiplicative subgroup, both directions collapse to
//!   `O(n log n)` number-theoretic transforms ([`ntt::NttPlan`]) — the fast
//!   paths of the coding layer.
//! * When the points are in subgroup position but some workers are *missing*
//!   (stragglers, evicted Byzantine workers), the surviving points are no
//!   longer a full coset. The [`fast`] polynomial arithmetic (NTT
//!   multiplication, Newton division) and the [`subproduct`] tree
//!   ([`subproduct::SubproductTree`] / [`subproduct::TreeInterpolator`])
//!   still give `O(n log² n)` multipoint evaluation and interpolation over
//!   *arbitrary* point subsets — the decoder's straggler path.
//!
//! All algorithms are written generically over [`avcc_field::PrimeField`];
//! the fast-arithmetic layer is additionally specialized to concrete
//! [`avcc_field::Fp`] coefficients so it can reach the NTT machinery, and
//! degrades to the schoolbook algorithms on fields without NTT metadata.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod fast;
pub mod lagrange;
pub mod linear;
pub mod ntt;
pub mod reed_solomon;
pub mod subproduct;

pub use dense::Polynomial;
pub use fast::NTT_MUL_THRESHOLD;
pub use lagrange::{evaluate_basis_at, interpolate, interpolate_eval, LagrangeBasis};
pub use linear::{mat_vec, rank, solve, LinearSolveError};
pub use ntt::{root_of_unity, NttPlan, NTT_LANES};
pub use reed_solomon::{BerlekampWelch, RsDecodeError, RsDecoded};
pub use subproduct::{SubproductTree, TreeInterpolator};
