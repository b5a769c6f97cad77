//! Prime-field arithmetic, signed embedding and fixed-point quantization.
//!
//! This crate is the lowest-level substrate of the AVCC reproduction. Every
//! other crate (coding, verification, the ML workload, the cluster simulator)
//! operates on elements of a prime field `F_q`, exactly as the paper does:
//! the dataset and the model weights are quantized to integers, embedded into
//! `F_q` and all distributed computation happens over the field so that
//! Lagrange/MDS coding and Freivalds verification are information-theoretically
//! sound.
//!
//! # Contents
//!
//! * [`Fp`] — a `u64`-backed prime-field element, generic over a
//!   [`PrimeModulus`] marker type. The paper's field `q = 2^25 − 39` is
//!   available as [`F25`]; the NTT-friendly Goldilocks field
//!   `q = 2^64 − 2^32 + 1` as [`F64`] for the bulk encode/decode paths, and a
//!   tiny field [`F251`] is provided for exhaustive tests.
//! * [`reduce`] — the specialized wide-reduction backends behind every
//!   multiply (see *Reduction strategy* below).
//! * [`batch`] — slice-level kernels: `axpy`, dot products with lazy
//!   reduction, the [`WideAccumulator`] engine of the encoder and
//!   decoder, Montgomery batch inversion.
//! * [`quantize`] — fixed-point quantization between `f64` and `F_q` using the
//!   two's-complement style signed embedding described in §V of the paper
//!   (values above `(q−1)/2` represent negative numbers), together with
//!   overflow analysis helpers implementing the paper's
//!   `d·(q−1)² ≤ 2^63 − 1` constraint.
//! * [`rng`] — sampling of uniformly random field elements, vectors and
//!   matrices (used for Lagrange privacy padding and Freivalds keys).
//!
//! # Reduction strategy
//!
//! Every *one-shot* multiply funnels through [`PrimeModulus::reduce_wide`],
//! which maps a full-range `u128` to the canonical representative without
//! hardware division:
//!
//! | Modulus | Backend | Cost per reduction |
//! |---------|---------|--------------------|
//! | `2^25 − 39` ([`P25`]) | pseudo-Mersenne fold (`2^25 ≡ 39`) | 3 folds + 1 conditional subtract for inputs `< 2^64` (any product of canonical values); a loop sheds ≈19.7 bits/fold above that |
//! | `2^64 − 2^32 + 1` ([`P64`], Goldilocks) | `ε = 2^32 − 1` fold (`2^64 ≡ ε`, `2^96 ≡ −1`) | 1 borrow-corrected subtract + 1 32×32 multiply + 1 carry-corrected add + 1 conditional subtract; `WIDE_BATCH = 1` — a `u128` holds one product — so the dot-product kernels let the sum wrap and count the carries instead of reducing per product (below); the field's payoff is the `2^32` two-adicity that unlocks the NTT encode/decode paths |
//! | `251` ([`P251`]) and any other | Barrett with `μ = ⌊2^128/q⌋` | 1 high-128 multiply + ≤ 2 conditional subtracts |
//!
//! # Backend selection per workload shape
//!
//! *Chains* — sequences of dependent multiplies (`pow` ladders, Fermat
//! inversions, batch-inversion sweeps, NTT twiddle products, power series) —
//! additionally choose between the canonical backend above and the
//! Montgomery domain (the raw [`PrimeModulus::mul_redc`] /
//! [`PrimeModulus::to_montgomery`] hooks over [`reduce::redc`]: lift once,
//! multiply with the three-multiply REDC step, lower once), selected at
//! compile time by the [`PrimeModulus::MONTGOMERY_CHAINS`] flag:
//!
//! | Modulus | One-shot products / lazy sums | Long chains | Why |
//! |---------|-------------------------------|-------------|-----|
//! | [`P25`] | pseudo-Mersenne fold | fold (opted out) | the 3-fold reduction is cheaper than the 3-multiply REDC step; lazy sums run in narrow `u64` lanes of 32 × 32 → 64-bit products, which vectorize, collapsed once per 16 384 products |
//! | [`P64`] | Goldilocks ε-fold | **Montgomery** | `WIDE_BATCH = 1` forces a reduction per chained product; REDC keeps Fermat's 64-squaring ladder and the NTT butterflies (twiddles pre-converted once per plan) in-domain |
//! | [`P251`] (and any structureless prime) | Barrett | **Montgomery** | Barrett's 128×128 high multiply per product loses to REDC on any chain longer than the two domain conversions (no end-to-end workload selects this field; it exists for exhaustive soundness tests) |
//!
//! Opting in is an empirical decision, not a soundness one: REDC is correct
//! for every odd modulus. The `P64` route is the one an end-to-end workload
//! exercises: without it `matmul_batch` `op_ms_p50` is 5.6 % worse on 8 of 8
//! alternating pairs (`avcc-e2e/E2E.md` names the workloads).
//!
//! # Overflow bounds (lazy reduction)
//!
//! The batch and linalg kernels ([`batch::dot`], `avcc_linalg::mat_vec`, the
//! vector-lane [`WideAccumulator`]) do not reduce per product. They use one
//! of two lane kinds, chosen per modulus at compile time by
//! [`batch::narrow_lanes`]:
//!
//! * **`q ≤ 2^32`** (`q = 2^25 − 39`, `q = 251`): every residue fits a `u32`,
//!   products are `< 2^64`, and the lane is a `u64` — the paper's own
//!   64-bit accumulator, and the width at which the multiply-adds vectorize.
//!   A lane holding one canonical carry-in absorbs
//!   [`batch::narrow_batch`]` = ⌊(2^64 − q) / (q−1)²⌋` products before it
//!   could overflow (16 384 for the 25-bit field), so the kernels collapse it
//!   with one reduction per that many products — once per lane for the
//!   GISETTE dimension `d = 5000`, where the paper's §V constraint
//!   `d·(q−1)² ≤ 2^63 − 1` asks for none. [`batch::dot`] and
//!   `avcc_linalg::mat_vec` read these residues from field elements or from
//!   `u32`s ([`Residue`]) with one loop body; a socket worker stores its
//!   block and inputs as `u32`.
//! * **Larger moduli**: products of canonical Goldilocks values reach
//!   `2^128 − 2^97`, so a `u128` holds one of them
//!   ([`PrimeModulus::WIDE_BATCH`]` = 1`). Collapsing that often
//!   would mean a reduction per product; the kernels instead let the `u128`
//!   **wrap and count the carries** ([`CarryAccumulator`]): the true sum is
//!   `sum + carries·2^128`, and `2^128 mod q` is the
//!   [`PrimeModulus::MONT_R2`] every modulus already carries, so each
//!   accumulator is reduced exactly once, however long the vector.
//!
//! Every kernel checks its bounds at **compile time** via inline-`const`
//! evaluations of [`batch::assert_wide_batch`] and
//! [`batch::assert_narrow_batch`], so an unsound modulus is a build error,
//! not a run-time overflow.
//!
//! # Example
//!
//! ```
//! use avcc_field::{F25, PrimeField};
//!
//! let a = F25::from_u64(123_456);
//! let b = F25::from_u64(789);
//! assert_eq!((a * b) / b, a);
//! assert_eq!(a - a, F25::ZERO);
//! assert_eq!(a.pow(F25::MODULUS - 1), F25::ONE); // Fermat's little theorem
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod fp;
pub mod quantize;
pub mod reduce;
pub mod rng;
pub mod spans;

pub use batch::{
    batch_inverse, dot, slice_axpy, CarryAccumulator, Residue, WideAccumulator, DOT_LANES,
};
pub use fp::{power_series, Fp, NttModulus, PrimeField, PrimeModulus, P25, P251, P64};
pub use quantize::{QuantError, Quantizer, SignedEmbedding};
pub use rng::{random_element, random_matrix, random_vector};
pub use spans::{map_spans, span_threads};

/// The field used throughout the paper: `q = 2^25 − 39`, the largest 25-bit
/// prime. With the GISETTE-like feature dimension `d = 5000` the worst-case
/// inner product satisfies `d (q−1)^2 ≤ 2^63 − 1`, so accumulation fits in a
/// 64-bit register (the kernels' `u64` lanes collapse once per 16 384
/// products, so any `d` is safe).
pub type F25 = Fp<P25>;

/// The NTT-friendly Goldilocks field, `q = 2^64 − 2^32 + 1`, whose `2^32`
/// two-adicity lets the coding layer place evaluation points in a
/// multiplicative subgroup and encode/decode in `O(N log N)` per coordinate.
pub type F64 = Fp<P64>;

/// A tiny field (`q = 251`) used by exhaustive unit tests and to demonstrate
/// the `1/q` soundness error of Freivalds verification empirically.
pub type F251 = Fp<P251>;
