//! SCRAPE-style dual-codeword Byzantine screening (pre-decode).
//!
//! Workers return `Ỹ_i = f(u(α_i))` — evaluations of a polynomial of degree
//! at most `threshold − 1` (the recovery threshold is `K + T`).
//! Whenever strictly more than `threshold` workers respond, the received
//! vectors carry redundancy that can be checked *before* any Freivalds
//! verification or decoding: the evaluation code is an `[R, threshold]`
//! Reed–Solomon code over the responder points, and its dual is spanned by
//! the vectors `(u_i · Q(α_i))_i` for polynomials `Q` of degree
//! `< ν = R − threshold`, where `u_i = ∏_{j≠i} (α_i − α_j)^{-1}` are the
//! Lagrange-derivative weights over the responder set (the SCRAPE test of
//! Cascudo–David, used by Optrand-PVSS's `ensure_degree`; see SNIPPETS.md).
//!
//! **Membership** ([`DualCodeword::screen`]): sample a uniformly random `Q`
//! and form the width-wide syndrome `s = Σ_i u_i·Q(α_i)·Ỹ_i` in one
//! `O(R·width)` accumulator pass. Honest rounds give `s = 0` identically.
//! For any corruption of at most `R − threshold` responders the error vector
//! is *not* a codeword (the code is MDS with minimum distance
//! `R − threshold + 1`), so `s` vanishes with probability at most `1/q` over
//! the choice of `Q` — the Schwartz–Zippel bound; `k` independent dual
//! vectors push the escape probability to `(1/q)^k`. The weights cost
//! `O(R²)` multiplies plus one shared batch inversion per screen, and `Q` is
//! evaluated at the responder points by Horner's rule — a few microseconds
//! at the fleet sizes in use, so nothing is cached.
//!
//! **Localization**: when membership fails, the corrupted workers are found
//! from syndromes. This is the workspace's one Reed–Solomon error locator:
//! the AVCC engine runs it before verification, and the LCC baseline's
//! [`crate::decoder::LagrangeDecoder::decode_with_errors`] runs it before
//! its erasure decode. Collapse each responder vector to a scalar
//! fingerprint `φ_i = ⟨Ỹ_i, ρ⟩` for a random `ρ`; the scalar syndromes
//! `S_m = Σ_i u_i·α_i^m·φ_i` for `m < ν` are blind to the honest codeword
//! (sum-of-residues: `Σ_i u_i·α_i^m·P(α_i) = 0` whenever
//! `m + deg P ≤ R − 2`) and equal the power sums `Σ_{i∈E} η_i·α_i^m` of the
//! corrupted positions. A Peterson–Gorenstein–Zierler solve on the Hankel
//! system of those power sums recovers the error-locator polynomial for up
//! to `⌊ν/2⌋` corrupted workers; its roots among the responder α-points name
//! the workers, and the location is *validated* by re-screening the
//! remaining responders (always possible: removing `t ≤ ν/2` workers leaves
//! `≥ threshold + t` of them). A fingerprint collision (`⟨error_i, ρ⟩ = 0`)
//! only costs a retry with a fresh `ρ`; after [`SCREEN_RETRIES`] failed
//! attempts the screen reports [`ScreenOutcome::Unlocalized`] and the caller
//! falls back to its existing verification path.
//!
//! **Soundness model**: the screen checks consistency *among responders*.
//! Membership is sound for any corruption of at most `ν = R − threshold`
//! responders: a non-zero error of that weight is never a codeword.
//! *Localization* is weaker. The error-locator solve is unique only up to
//! `⌊ν/2⌋` corrupted responders, and the AVCC bound `N ≥ threshold + S + M`
//! does not keep the liars below that radius: `b ≤ M` liars among `R`
//! responders may number anywhere up to `ν`. Liars who know the public
//! α-points can add `e(α_i)` for a polynomial `e` of degree `< threshold`
//! that vanishes on all honest responders but `t` of them; the round then
//! sits `t` errors from the codeword `c + e`, and the screen names those `t`
//! *honest* workers, and its re-screen confirms them. That framing works
//! whenever `⌈ν/2⌉ + 1 ≤ b ≤ ν` (ROADMAP finding 2).
//!
//! What a caller does with a localization is its own decision. The AVCC
//! engine never acts on the screen alone: the workers it localizes are
//! suspects, Freivalds-checked after every other arrival, and only a failed
//! check convicts one. Inside the radius a located liar so costs no honest
//! wait; beyond it a framed honest worker passes its check and still counts
//! toward the threshold, and the liars fail theirs. The LCC baseline's
//! [`crate::decoder::LagrangeDecoder::decode_with_errors`] trusts the
//! locator by design, so beyond its designed `M` it can decode a wrong
//! product and blame honest workers.

use avcc_field::{dot, random_vector, Fp, PrimeField, PrimeModulus};
use rand::Rng;

use crate::linear::{self, LinearSolveError};
use crate::points::EvaluationPoints;
use crate::scheme::SchemeConfig;

/// Fresh-fingerprint attempts before localization gives up and reports
/// [`ScreenOutcome::Unlocalized`]. Each retry fails only on a fingerprint
/// collision (probability ≤ `t/q` per attempt), so four attempts make a
/// spurious `Unlocalized` astronomically unlikely while bounding the work.
pub const SCREEN_RETRIES: usize = 4;

/// Errors raised by [`DualCodeword::screen`] — malformed rounds, mirroring
/// the decoder's validation so engines can treat both uniformly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScreenError {
    /// Too few responders for the dual code to be nontrivial: screening
    /// needs strictly more than the recovery threshold.
    NotScreenable {
        /// Responders provided.
        responders: usize,
        /// Minimum responders required (`threshold + 1`).
        required: usize,
    },
    /// The same worker index appears twice.
    DuplicateWorker {
        /// The repeated worker index.
        worker: usize,
    },
    /// A worker index outside `[0, N)`.
    UnknownWorker {
        /// The offending index.
        worker: usize,
    },
    /// Result vectors disagree in length.
    ShapeMismatch,
    /// No results were supplied at all (the block width is undefined).
    EmptyRound,
}

impl std::fmt::Display for ScreenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScreenError::NotScreenable {
                responders,
                required,
            } => write!(
                f,
                "not screenable: {responders} responders, at least {required} required"
            ),
            ScreenError::DuplicateWorker { worker } => {
                write!(f, "worker {worker} supplied more than one result")
            }
            ScreenError::UnknownWorker { worker } => write!(f, "unknown worker index {worker}"),
            ScreenError::ShapeMismatch => write!(f, "result vectors disagree in length"),
            ScreenError::EmptyRound => write!(f, "no results supplied"),
        }
    }
}

impl std::error::Error for ScreenError {}

/// What the screen concluded about a round of responder blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScreenOutcome {
    /// Every dual-vector syndrome vanished: the blocks lie on one
    /// degree-`threshold − 1` polynomial (up to the documented `(1/q)^k`
    /// escape probability).
    Clean,
    /// Membership failed and the corrupted responders were localized and
    /// validated (worker indices, ascending).
    Corrupted {
        /// The localized corrupted workers.
        workers: Vec<usize>,
    },
    /// Membership failed but localization did not converge (more corrupted
    /// responders than `⌊ν/2⌋`, or repeated fingerprint collisions). The
    /// caller must fall back to its existing verification path.
    Unlocalized,
}

/// The result of one [`DualCodeword::screen`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScreenReport {
    /// The conclusion (see [`ScreenOutcome`]).
    pub outcome: ScreenOutcome,
    /// Independent dual vectors checked (the `k` in the `(1/q)^k` bound).
    pub vectors: usize,
    /// Field multiply–accumulate operations spent, for the engines' op
    /// accounting (deterministic given the inputs and rng stream).
    pub macs: u64,
}

/// The dual-codeword screen bound to a scheme configuration and its
/// evaluation points (must match the encoder's, exactly like the decoder).
#[derive(Debug, Clone)]
pub struct DualCodeword<M: PrimeModulus> {
    config: SchemeConfig,
    points: EvaluationPoints<M>,
}

impl<M: PrimeModulus> DualCodeword<M> {
    /// Creates a screen on [`EvaluationPoints::standard`] points — the points
    /// independently constructed encoders and decoders use for `config`.
    pub fn new(config: SchemeConfig) -> Self {
        DualCodeword {
            config,
            points: EvaluationPoints::standard(config.partitions, config.colluding, config.workers),
        }
    }

    /// The scheme configuration.
    pub fn config(&self) -> &SchemeConfig {
        &self.config
    }

    /// `true` iff a round with `responders` results carries enough
    /// redundancy to screen: the dual code is nontrivial only when
    /// `responders > threshold`.
    pub fn screenable(&self, responders: usize) -> bool {
        responders > self.config.recovery_threshold() && responders <= self.config.workers
    }

    /// The largest corrupted-worker set localization can name with
    /// `responders` results: `⌊(responders − threshold)/2⌋` (the PGZ locator
    /// needs two power sums per error). With exactly `threshold + 1`
    /// responders the screen still *detects* corruption but cannot localize.
    pub fn max_locatable(&self, responders: usize) -> usize {
        responders.saturating_sub(self.config.recovery_threshold()) / 2
    }

    /// Screens a round of responder blocks for RS-codeword membership with
    /// `vectors ≥ 1` independent dual vectors, localizing corrupted workers
    /// on failure. See the module docs for the algorithm and the
    /// `(1/q)^vectors` escape bound.
    ///
    /// `results` maps worker indices to their returned vectors `Ỹ_i`;
    /// strictly more than the recovery threshold of them must be present
    /// ([`ScreenError::NotScreenable`] otherwise — the caller should skip
    /// screening and keep its existing path).
    pub fn screen<R: Rng + ?Sized>(
        &self,
        results: &[(usize, Vec<Fp<M>>)],
        vectors: usize,
        rng: &mut R,
    ) -> Result<ScreenReport, ScreenError> {
        assert!(vectors >= 1, "need at least one dual vector");
        self.validate(results)?;
        let ordered = Self::sorted_by_worker(results);
        let alphas: Vec<Fp<M>> = ordered
            .iter()
            .map(|(worker, _)| self.points.alpha()[*worker])
            .collect();
        let weights = dual_weights(&alphas);
        let mut macs = 0u64;

        let mut clean = true;
        for _ in 0..vectors {
            if !self.membership_pass(&ordered, &alphas, &weights, rng, &mut macs) {
                clean = false;
                break;
            }
        }
        if clean {
            return Ok(ScreenReport {
                outcome: ScreenOutcome::Clean,
                vectors,
                macs,
            });
        }

        let outcome = match self.localize(&ordered, &alphas, &weights, rng, &mut macs) {
            Some(workers) => ScreenOutcome::Corrupted { workers },
            None => ScreenOutcome::Unlocalized,
        };
        Ok(ScreenReport {
            outcome,
            vectors,
            macs,
        })
    }

    /// One membership pass: sample a random dual polynomial `Q` (degree
    /// `< ν`), evaluate it at the responder α-points, and check that the
    /// syndrome `Σ_i u_i·Q(α_i)·Ỹ_i` vanishes in every coordinate.
    fn membership_pass<R: Rng + ?Sized>(
        &self,
        ordered: &[&(usize, Vec<Fp<M>>)],
        alphas: &[Fp<M>],
        weights: &[Fp<M>],
        rng: &mut R,
        macs: &mut u64,
    ) -> bool {
        let responders = ordered.len();
        let dual_dim = responders - self.config.recovery_threshold();
        let width = ordered[0].1.len();
        let coefficients: Vec<Fp<M>> = random_vector(rng, dual_dim);
        let mut accumulator = avcc_field::WideAccumulator::<M>::new(width);
        for (((_, vector), &weight), &alpha) in ordered.iter().zip(weights).zip(alphas) {
            accumulator.axpy(weight * horner(&coefficients, alpha), vector);
        }
        *macs += (responders * width + responders * dual_dim) as u64;
        accumulator
            .finish()
            .into_iter()
            .all(|value| value == Fp::<M>::ZERO)
    }

    /// Localizes the corrupted responders after a failed membership pass.
    /// Returns the worker indices (ascending) when a locator of `t ≤ ⌊ν/2⌋`
    /// roots is found *and* the remaining responders re-screen clean; `None`
    /// when localization does not converge within [`SCREEN_RETRIES`] fresh
    /// fingerprints.
    fn localize<R: Rng + ?Sized>(
        &self,
        ordered: &[&(usize, Vec<Fp<M>>)],
        alphas: &[Fp<M>],
        weights: &[Fp<M>],
        rng: &mut R,
        macs: &mut u64,
    ) -> Option<Vec<usize>> {
        let responders = ordered.len();
        let dual_dim = responders - self.config.recovery_threshold();
        let max_errors = dual_dim / 2;
        if max_errors == 0 {
            return None;
        }
        let width = ordered[0].1.len();
        for _ in 0..SCREEN_RETRIES {
            // Fingerprint the round: scalar syndromes of ⟨Ỹ_i, ρ⟩ are power
            // sums of the corrupted positions (module docs).
            let rho: Vec<Fp<M>> = random_vector(rng, width);
            let fingerprints: Vec<Fp<M>> = ordered
                .iter()
                .map(|(_, vector)| dot(vector, &rho))
                .collect();
            let mut syndromes = vec![Fp::<M>::ZERO; dual_dim];
            let mut powers = vec![Fp::<M>::ONE; responders];
            for syndrome in syndromes.iter_mut() {
                let mut sum = Fp::<M>::ZERO;
                for (position, (&weight, &phi)) in weights.iter().zip(&fingerprints).enumerate() {
                    sum += weight * phi * powers[position];
                    powers[position] *= alphas[position];
                }
                *syndrome = sum;
            }
            if syndromes.iter().all(|&s| s == Fp::<M>::ZERO) {
                // Every corrupted vector dotted to zero against ρ — retry.
                continue;
            }
            *macs += (responders * width + responders * dual_dim) as u64;
            if let Some(positions) = self.solve_locator(&syndromes, alphas, max_errors, macs) {
                // Validate: the remaining responders must screen clean
                // (always ≥ threshold + t of them after removing t ≤ ν/2).
                let remaining: Vec<&(usize, Vec<Fp<M>>)> = ordered
                    .iter()
                    .enumerate()
                    .filter(|(position, _)| !positions.contains(position))
                    .map(|(_, entry)| *entry)
                    .collect();
                let remaining_alphas: Vec<Fp<M>> = remaining
                    .iter()
                    .map(|(worker, _)| self.points.alpha()[*worker])
                    .collect();
                let remaining_weights = dual_weights(&remaining_alphas);
                if self.membership_pass(
                    &remaining,
                    &remaining_alphas,
                    &remaining_weights,
                    rng,
                    macs,
                ) {
                    let mut workers: Vec<usize> = positions.iter().map(|&p| ordered[p].0).collect();
                    workers.sort_unstable();
                    return Some(workers);
                }
            }
        }
        None
    }

    /// The Peterson–Gorenstein–Zierler step: from the `ν` scalar syndromes,
    /// solve the `t × t` Hankel system for the error-locator coefficients
    /// (largest `t ≤ max_errors` first, decrementing past singular systems)
    /// and accept a locator only when it has exactly `t` roots among the
    /// responder α-points. Returns responder *positions*.
    fn solve_locator(
        &self,
        syndromes: &[Fp<M>],
        alphas: &[Fp<M>],
        max_errors: usize,
        macs: &mut u64,
    ) -> Option<Vec<usize>> {
        for t in (1..=max_errors).rev() {
            let mut hankel = Vec::with_capacity(t * t);
            for row in 0..t {
                for column in 0..t {
                    hankel.push(syndromes[row + column]);
                }
            }
            let rhs: Vec<Fp<M>> = (0..t).map(|row| -syndromes[row + t]).collect();
            let lambda = match linear::solve(&hankel, &rhs, t) {
                Ok(solution) => solution,
                Err(LinearSolveError::Singular) => continue,
                Err(LinearSolveError::DimensionMismatch { .. }) => {
                    unreachable!("locator system dimensions are consistent by construction")
                }
            };
            *macs += (t * t * t + alphas.len() * t) as u64;
            // Λ(z) = z^t + λ_{t−1}·z^{t−1} + … + λ_0; its roots among the
            // responder points name the corrupted workers.
            let positions: Vec<usize> = alphas
                .iter()
                .enumerate()
                .filter(|(_, &alpha)| {
                    let mut value = Fp::<M>::ONE;
                    for &coefficient in lambda.iter().rev() {
                        value = value * alpha + coefficient;
                    }
                    // Horner over [λ_0 … λ_{t−1}, 1] descending: the seed ONE
                    // is the monic leading coefficient.
                    value == Fp::<M>::ZERO
                })
                .map(|(position, _)| position)
                .collect();
            if positions.len() == t {
                return Some(positions);
            }
        }
        None
    }

    /// Sorts results by worker index (arrival order must not matter).
    fn sorted_by_worker(results: &[(usize, Vec<Fp<M>>)]) -> Vec<&(usize, Vec<Fp<M>>)> {
        let mut ordered: Vec<&(usize, Vec<Fp<M>>)> = results.iter().collect();
        ordered.sort_unstable_by_key(|(worker, _)| *worker);
        ordered
    }

    /// Structural validation, mirroring the decoder's.
    fn validate(&self, results: &[(usize, Vec<Fp<M>>)]) -> Result<(), ScreenError> {
        if results.is_empty() {
            return Err(ScreenError::EmptyRound);
        }
        let mut seen = vec![false; self.config.workers];
        let width = results[0].1.len();
        for (worker, vector) in results {
            if *worker >= self.config.workers {
                return Err(ScreenError::UnknownWorker { worker: *worker });
            }
            if seen[*worker] {
                return Err(ScreenError::DuplicateWorker { worker: *worker });
            }
            seen[*worker] = true;
            if vector.len() != width {
                return Err(ScreenError::ShapeMismatch);
            }
        }
        if !self.screenable(results.len()) {
            return Err(ScreenError::NotScreenable {
                responders: results.len(),
                required: self.config.recovery_threshold() + 1,
            });
        }
        Ok(())
    }
}

/// The dual weights `u_i = ∏_{j≠i}(α_i − α_j)^{-1}` over a responder point
/// set: `O(R²)` multiplies and one shared batch inversion.
fn dual_weights<M: PrimeModulus>(alphas: &[Fp<M>]) -> Vec<Fp<M>> {
    let mut products = vec![Fp::<M>::ONE; alphas.len()];
    for (i, &alpha_i) in alphas.iter().enumerate() {
        for (j, &alpha_j) in alphas.iter().enumerate() {
            if i != j {
                products[i] *= alpha_i - alpha_j;
            }
        }
    }
    Fp::<M>::batch_inverse(&products)
}

/// Evaluates the polynomial with ascending `coefficients` at `point`.
fn horner<M: PrimeModulus>(coefficients: &[Fp<M>], point: Fp<M>) -> Fp<M> {
    let mut value = Fp::<M>::ZERO;
    for &coefficient in coefficients.iter().rev() {
        value = value * point + coefficient;
    }
    value
}
