//! Polynomials, Lagrange interpolation and linear solving over prime fields.
//!
//! This crate provides the algebraic machinery behind both coding layers of
//! the AVCC reproduction:
//!
//! * The **MDS / Lagrange encoders** (crate `avcc-coding`) build the encoding
//!   polynomial `u(z) = Σ X_j ℓ_j(z) + Σ W_j ℓ_j(z)` from Lagrange basis
//!   monomials ([`lagrange`]) and evaluate it at the worker points `α_i`.
//! * The **decoders** interpolate `f(u(z))` from worker evaluations:
//!   erasure decoding is plain Lagrange interpolation
//!   ([`lagrange::interpolate`]), and the dual-codeword screen that locates
//!   Byzantine workers solves its error-locator system with a dense
//!   Gaussian-elimination solver ([`linear::solve`]).
//!
//! Dense polynomials ([`dense::Polynomial`]) carry the arithmetic both need.
//! All algorithms are written generically over [`avcc_field::PrimeField`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod lagrange;
pub mod linear;

pub use dense::Polynomial;
pub use lagrange::{evaluate_basis_at, interpolate, interpolate_eval, LagrangeBasis};
pub use linear::{mat_vec, rank, solve, LinearSolveError};
