//! Coded computing: MDS and Lagrange Coded Computing (LCC) encoders and
//! decoders, with the privacy padding and feasibility rules of the AVCC paper.
//!
//! The coding layer answers three questions:
//!
//! 1. **How is the dataset encoded?** [`encoder::LagrangeEncoder`] implements
//!    the paper's eq. (12)–(13): the `K` data blocks and `T` uniformly random
//!    pads are interpolated through the β-points and the encoder hands worker
//!    `i` the evaluation `X̃_i = u(α_i)`. With `T = 0` and systematic α-points
//!    this is exactly an `(N, K)` MDS / Reed–Solomon code
//!    ([`mds::MdsCode`], the illustration of Fig. 1).
//! 2. **How many workers are needed?** [`scheme::SchemeConfig`] captures
//!    `(N, K, S, M, T, deg f)` and checks the LCC bound
//!    `N ≥ (K+T−1)·deg f + S + 2M + 1` (eq. 1) and the AVCC bound
//!    `N ≥ (K+T−1)·deg f + S + M + 1` (eq. 2).
//! 3. **How are results decoded?** [`decoder::LagrangeDecoder`] interpolates
//!    `f(u(z))` from worker evaluations: erasure-only decoding (what AVCC
//!    needs, since Byzantine results have already been discarded by the
//!    verifier) and error-correcting decoding via Berlekamp–Welch on
//!    worker fingerprints (what the LCC baseline needs to identify Byzantine
//!    workers without verification).
//!
//! A fourth question — **are the returned blocks even consistent?** — is
//! answered before any of the above runs: [`screen::DualCodeword`] checks all
//! responder blocks for RS-codeword membership at once with a SCRAPE-style
//! random dual-codeword inner product (`O(R·width)` per check, escape
//! probability `(1/q)^k`), and on failure localizes the corrupted workers by
//! syndrome power sums instead of full Berlekamp–Welch error decoding. The
//! AVCC engine runs it pre-decode so screened-out workers become plain
//! erasures.
//!
//! A fifth concern sits on top: **how often is the dataset encoded?**
//! [`dataset::EncodedDataset`] owns the coded partitions (and the decoder
//! that inverts them) once, so many per-function engine sessions —
//! and the multi-function batched rounds built on them — amortize a single
//! encode instead of re-encoding per computation.
//!
//! # Encode/decode path selection
//!
//! Every encode and decode picks between algebraically identical
//! implementations by one observable property, the point layout:
//!
//! | Path | Cost per coordinate | Requires | Chosen when |
//! |---|---|---|---|
//! | Lagrange matrix | `O((K+T)·N)` encode — `(N−K)·K` at `T = 0`, where the first `K` shares are copies — and `O(B·R)` decode (`R` responders, `B` output blocks) | nothing — any field, any points, any responder subset | points not in subgroup position (`P25`: `train_*`, `serve_mixed`; the systematic `P64` `(12, 8)` code of `matmul_batch`); also the tests' correctness oracle, [`decoder::LagrangeDecoder::decode_erasure_lagrange`] |
//! | NTT (encode) | `O(N log N)` | field with declared two-adicity ([`avcc_field::NttModulus`], e.g. `F64`), `K+T` a power of two, points in subgroup position ([`points::EvaluationPoints`] `subgroup`/`auto` constructors) | all conditions hold; `auto` places the points there when `T > 0` or the transforms are cheaper than the systematic parity shares |
//! | Subproduct tree (decode) | `O(R log² R)` | subgroup position as above; works for **any** surviving subset of ≥ threshold workers | points in subgroup position |
//! | Dual-codeword screen (pre-decode) | `O(R·width)` per dual vector | strictly more than threshold responders; `O(R²)` dual weights + Horner `Q`-evaluation per screen on any layout | always, before verify/decode, when the responder count leaves dual redundancy ([`screen::DualCodeword`]) |
//!
//! The β-points (interpolation) sit in an order-`(K+T)` multiplicative
//! subgroup and the α-points (workers) on a generator-shifted coset, so the
//! two sets never collide; encode is then an inverse NTT over the subgroup
//! followed by a coset-scaled forward NTT. The decoder interpolates `f(u)`
//! from the first threshold verified α-points with a subproduct tree
//! ([`avcc_poly::TreeInterpolator`]), folds the coefficients mod `z^B − 1`
//! and forward-NTTs to the β-points. The basis (tree or dense rows) is built
//! once per survivor set by [`decoder::LagrangeDecoder::prepare`] and
//! applied to each of a batched round's `m` functions; nothing is kept
//! between rounds. Correctness never depends on which path runs: both are
//! exact, and the tests assert them bit-identical.
//!
//! Both paths share the same vectorized substrate: Lagrange linear
//! combinations run on [`avcc_field::WideAccumulator`] lanes with one
//! shared batch inversion per decode, and the NTT butterflies are
//! lane-unrolled with per-plan Montgomery twiddles (`avcc_poly::ntt`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod decoder;
pub mod encoder;
pub mod mds;
pub mod points;
pub mod scheme;
pub mod screen;

pub use dataset::EncodedDataset;
pub use decoder::{DecodeError, LagrangeDecoder, PreparedDecode};
pub use encoder::{EncodedShare, LagrangeEncoder};
pub use mds::MdsCode;
pub use points::{EvaluationPoints, SubgroupLayout};
pub use scheme::{SchemeConfig, SchemeError};
pub use screen::{DualCodeword, ScreenError, ScreenOutcome, ScreenReport};
