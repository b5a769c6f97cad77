//! Lagrange interpolation and linear solving over prime fields.
//!
//! This crate provides the algebraic machinery behind the coding layer of
//! the AVCC reproduction (crate `avcc-coding`):
//!
//! * The **Lagrange encoder and decoder** evaluate the Lagrange basis
//!   ([`lagrange::LagrangeBasis`]) at the worker points `α_i` (the encoding
//!   matrix `U_{j,i} = ℓ_j(α_i)` of `u(z) = Σ X_j ℓ_j(z) + Σ W_j ℓ_j(z)`)
//!   and at the β-points (the erasure decode's interpolation basis).
//! * The **dual-codeword screen** that locates Byzantine workers solves its
//!   error-locator system with a dense Gaussian-elimination solver
//!   ([`linear::solve`]); [`linear::rank`] checks the T-privacy condition.
//!
//! [`lagrange::interpolate_eval`] evaluates an interpolant at one point, the
//! reference the encoder's tests check shares against. All algorithms are
//! written generically over [`avcc_field::PrimeField`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lagrange;
pub mod linear;

pub use lagrange::{interpolate_eval, LagrangeBasis};
pub use linear::{rank, solve, LinearSolveError};
