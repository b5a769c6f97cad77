//! The Lagrange / MDS decoder (paper §IV-B, step 4).
//!
//! Workers return `Ỹ_i = f(X̃_i) = f(u(α_i))`, i.e. evaluations of the
//! composed polynomial `f(u(z))` of degree at most `K + T − 1` (`f` is
//! linear). The master
//! recovers the desired outputs `Y_k = f(X_k) = f(u(β_k))` by interpolation.
//! Two decoding modes are provided:
//!
//! * [`LagrangeDecoder::decode_erasure`] — what **AVCC** uses: every supplied
//!   result has already passed Freivalds verification, so the decoder only
//!   needs the recovery threshold `K + T` of them and performs a
//!   plain coordinate-wise interpolation (implemented as one linear
//!   combination per output block, with coefficients shared across all
//!   coordinates).
//! * [`LagrangeDecoder::decode_with_errors`] — what the **LCC baseline**
//!   uses: up to `max_errors` of the supplied results may be arbitrary
//!   garbage. The decoder *locates* the corrupted workers with the
//!   dual-codeword screen ([`crate::screen::DualCodeword`], the same locator
//!   AVCC runs before verification), which re-checks every set it names by
//!   re-screening the remaining workers, then erasure-decodes from those
//!   remaining workers. The located workers (ascending) are reported so the
//!   caller can mark them Byzantine. When the screen cannot localize, or names
//!   more than `max_errors` workers, the decode fails with
//!   [`DecodeError::TooManyErrors`].
//!
//! Erasure decoding is *prepare once, apply many*: everything that depends
//! only on **which** workers supplied results — not on the values they
//! returned — is built by [`LagrangeDecoder::prepare`] into a
//! [`PreparedDecode`], which is then applied to any number of result sets
//! from those workers (the `m` functions of a batched round share one
//! prepare). The decoder itself holds no state between calls. The basis is
//! the dense Lagrange combination, `O(K·R)` per coordinate: a worker sitting
//! exactly on a β-point (a systematic share) hands its vector through, every
//! other output block is one combination of the first threshold lanes.
//! [`PreparedDecode::macs`] reports what an apply runs — the modeled clock
//! charges the decode from it, not from a formula of its own.

use avcc_field::{Fp, PrimeModulus};
use rand::Rng;

use crate::lagrange::LagrangeBasis;
use crate::points::EvaluationPoints;
use crate::scheme::SchemeConfig;
use crate::screen::{DualCodeword, ScreenError, ScreenOutcome};

/// Errors raised during decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer results than the recovery threshold (erasure mode) or than the
    /// threshold plus `2·max_errors` (error-correcting mode).
    NotEnoughResults {
        /// Results provided.
        provided: usize,
        /// Results required.
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
    /// Error-correcting decoding could not find a consistent codeword within
    /// the error budget.
    TooManyErrors,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::NotEnoughResults { provided, required } => {
                write!(
                    f,
                    "not enough results: {provided} provided, {required} required"
                )
            }
            DecodeError::DuplicateWorker { worker } => {
                write!(f, "worker {worker} supplied more than one result")
            }
            DecodeError::UnknownWorker { worker } => write!(f, "unknown worker index {worker}"),
            DecodeError::ShapeMismatch => write!(f, "result vectors disagree in length"),
            DecodeError::TooManyErrors => {
                write!(
                    f,
                    "could not find a consistent codeword within the error budget"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// The result of error-correcting decoding: the `K` output blocks plus the
/// worker indices identified as corrupted.
pub type DecodedWithErrors<M> = (Vec<Vec<Fp<M>>>, Vec<usize>);

/// The decoder bound to a scheme configuration and its evaluation points.
#[derive(Debug, Clone)]
pub struct LagrangeDecoder<M: PrimeModulus> {
    config: SchemeConfig,
    points: EvaluationPoints<M>,
}

/// What a decode needs beyond the result values, built by
/// [`LagrangeDecoder::prepare`] for one survivor set: systematic hits plus
/// one Lagrange coefficient row per interpolated block, in the order the
/// workers were supplied.
#[derive(Debug)]
struct Basis<M: PrimeModulus> {
    /// For each data block `k`: the position of a worker sitting exactly on
    /// `β_k` (its vector *is* the output), if any.
    systematic: Vec<Option<usize>>,
    /// `ℓ_j(β_k)` rows for the non-systematic blocks, ascending `k`.
    rows: Vec<Vec<Fp<M>>>,
    /// The non-zero coefficients across `rows`: the multiply–accumulates
    /// [`PreparedDecode::apply`] runs per lane element.
    terms: usize,
}

/// An erasure decode prepared for one survivor set: apply it to the result
/// lanes of those workers, once per function.
#[derive(Debug)]
pub struct PreparedDecode<'a, M: PrimeModulus> {
    decoder: &'a LagrangeDecoder<M>,
    /// How many workers were supplied to `prepare`; the basis covers the
    /// first `recovery_threshold()` of them.
    supplied: usize,
    basis: Basis<M>,
}

impl<M: PrimeModulus> LagrangeDecoder<M> {
    /// Creates a decoder on [`EvaluationPoints::standard`] points — the
    /// points an independently constructed
    /// [`crate::encoder::LagrangeEncoder`] uses for the same `config`.
    pub fn new(config: SchemeConfig) -> Self {
        LagrangeDecoder {
            config,
            points: EvaluationPoints::standard(config.partitions, config.colluding, config.workers),
        }
    }

    /// The scheme configuration.
    pub fn config(&self) -> &SchemeConfig {
        &self.config
    }

    /// The recovery threshold `K + T`.
    pub fn recovery_threshold(&self) -> usize {
        self.config.recovery_threshold()
    }

    /// Builds the interpolation basis for the survivor set `workers` (at
    /// least the recovery threshold of distinct, verified workers; the first
    /// threshold of them are used). The returned [`PreparedDecode`] decodes
    /// any number of result sets from exactly these workers.
    pub fn prepare(&self, workers: &[usize]) -> Result<PreparedDecode<'_, M>, DecodeError> {
        let threshold = self.recovery_threshold();
        self.validate_workers(workers, threshold)?;
        let alphas: Vec<Fp<M>> = workers[..threshold]
            .iter()
            .map(|&worker| self.points.alpha()[worker])
            .collect();
        Ok(PreparedDecode {
            decoder: self,
            supplied: workers.len(),
            basis: self.build_basis(alphas),
        })
    }

    /// Erasure decoding from verified results.
    ///
    /// `results` maps worker indices to their returned vectors `Ỹ_i`; at least
    /// the recovery threshold of them must be present. Returns the `K` output
    /// blocks `Y_1, …, Y_K` (each the same length as the worker vectors).
    /// One [`LagrangeDecoder::prepare`] plus one [`PreparedDecode::apply`].
    pub fn decode_erasure(
        &self,
        results: &[(usize, Vec<Fp<M>>)],
    ) -> Result<Vec<Vec<Fp<M>>>, DecodeError> {
        let workers: Vec<usize> = results.iter().map(|(worker, _)| *worker).collect();
        let lanes: Vec<&[Fp<M>]> = results.iter().map(|(_, v)| v.as_slice()).collect();
        self.prepare(&workers)?.apply(&lanes)
    }

    /// Builds the basis: systematic hits and the Lagrange rows for the
    /// interpolated blocks. One basis construction (with its batch-inverted
    /// barycentric weights) and one shared `evaluate_at_many` batch inversion
    /// cover all `K` blocks.
    fn build_basis(&self, alphas: Vec<Fp<M>>) -> Basis<M> {
        // Systematic fast path per block: a selected worker sitting exactly
        // on β_k already holds the output.
        let systematic: Vec<Option<usize>> = (0..self.config.partitions)
            .map(|k| {
                let beta = self.points.beta()[k];
                alphas.iter().position(|&alpha| alpha == beta)
            })
            .collect();
        let interpolated_betas: Vec<Fp<M>> = systematic
            .iter()
            .enumerate()
            .filter(|(_, hit)| hit.is_none())
            .map(|(k, _)| self.points.beta()[k])
            .collect();
        // A survivor set holding every systematic share interpolates nothing
        // and needs no barycentric weights.
        let rows = if interpolated_betas.is_empty() {
            Vec::new()
        } else {
            LagrangeBasis::new(alphas).evaluate_at_many(&interpolated_betas)
        };
        let terms = rows
            .iter()
            .flatten()
            .filter(|&&coefficient| coefficient != Fp::<M>::ZERO)
            .count();
        Basis {
            systematic,
            rows,
            terms,
        }
    }

    /// Error-correcting decoding: tolerates up to `max_errors` arbitrarily
    /// corrupted results among `results`. Returns the `K` output blocks and
    /// the worker indices (ascending) identified as corrupted.
    ///
    /// With exactly the recovery threshold of results (`max_errors = 0`)
    /// there is no redundancy to check and the results are erasure-decoded.
    /// Otherwise one [`DualCodeword::screen`] pass locates the corrupted
    /// workers and the others are erasure-decoded, in the order given; a
    /// round the screen cannot localize, or one naming more than
    /// `max_errors` workers, fails with [`DecodeError::TooManyErrors`].
    pub fn decode_with_errors<R: Rng + ?Sized>(
        &self,
        results: &[(usize, Vec<Fp<M>>)],
        max_errors: usize,
        rng: &mut R,
    ) -> Result<DecodedWithErrors<M>, DecodeError> {
        let threshold = self.recovery_threshold();
        let required = threshold + 2 * max_errors;
        let workers: Vec<usize> = results.iter().map(|(worker, _)| *worker).collect();
        self.validate_workers(&workers, required)?;
        let width = results[0].1.len();
        if results.iter().any(|(_, vector)| vector.len() != width) {
            return Err(DecodeError::ShapeMismatch);
        }
        if results.len() == threshold {
            return Ok((self.decode_erasure(results)?, Vec::new()));
        }

        let report = DualCodeword::new(self.config)
            .screen(results, 1, rng)
            .map_err(|error| match error {
                ScreenError::NotScreenable {
                    responders,
                    required,
                } => DecodeError::NotEnoughResults {
                    provided: responders,
                    required,
                },
                ScreenError::EmptyRound => DecodeError::NotEnoughResults {
                    provided: 0,
                    required,
                },
                ScreenError::DuplicateWorker { worker } => DecodeError::DuplicateWorker { worker },
                ScreenError::UnknownWorker { worker } => DecodeError::UnknownWorker { worker },
                ScreenError::ShapeMismatch => DecodeError::ShapeMismatch,
            })?;
        let located = match report.outcome {
            ScreenOutcome::Clean => Vec::new(),
            ScreenOutcome::Corrupted { workers } if workers.len() <= max_errors => workers,
            ScreenOutcome::Corrupted { .. } | ScreenOutcome::Unlocalized => {
                return Err(DecodeError::TooManyErrors)
            }
        };
        let clean: Vec<(usize, Vec<Fp<M>>)> = results
            .iter()
            .filter(|(worker, _)| !located.contains(worker))
            .cloned()
            .collect();
        Ok((self.decode_erasure(&clean)?, located))
    }

    /// Checks a survivor list: enough of them, all in `[0, N)`, no repeats.
    fn validate_workers(&self, workers: &[usize], required: usize) -> Result<(), DecodeError> {
        if workers.len() < required {
            return Err(DecodeError::NotEnoughResults {
                provided: workers.len(),
                required,
            });
        }
        let mut seen = vec![false; self.config.workers];
        for &worker in workers {
            if worker >= self.config.workers {
                return Err(DecodeError::UnknownWorker { worker });
            }
            if seen[worker] {
                return Err(DecodeError::DuplicateWorker { worker });
            }
            seen[worker] = true;
        }
        Ok(())
    }
}

impl<M: PrimeModulus> PreparedDecode<'_, M> {
    /// The multiply–accumulates one [`apply`](Self::apply) to lanes of
    /// `width` elements performs: every non-zero coefficient of an
    /// interpolated block's row, once per element. A systematic survivor's
    /// vector is handed through and costs nothing, so a survivor set holding
    /// every systematic share decodes for 0.
    pub fn macs(&self, width: usize) -> u64 {
        (self.basis.terms * width) as u64
    }

    /// Decodes one result set: `lanes[i]` is the vector returned by the
    /// `i`-th worker given to [`LagrangeDecoder::prepare`]. Returns the `K`
    /// output blocks, each as long as the lanes.
    ///
    /// Fails with [`DecodeError::ShapeMismatch`] unless there is exactly one
    /// lane per prepared worker and all lanes share a length.
    pub fn apply(&self, lanes: &[&[Fp<M>]]) -> Result<Vec<Vec<Fp<M>>>, DecodeError> {
        let width = lanes.first().map_or(0, |lane| lane.len());
        if lanes.len() != self.supplied || lanes.iter().any(|lane| lane.len() != width) {
            return Err(DecodeError::ShapeMismatch);
        }
        let lanes = &lanes[..self.decoder.recovery_threshold()];
        let mut basis_rows = self.basis.rows.iter();
        Ok(self
            .basis
            .systematic
            .iter()
            .map(|hit| {
                if let Some(position) = hit {
                    return lanes[*position].to_vec();
                }
                let coefficients = basis_rows
                    .next()
                    .expect("one basis row per interpolated β-point");
                // One lazy-reduction pass over the selected workers: the u128
                // lanes absorb one product per worker and reduce once at the
                // end.
                let mut block = avcc_field::WideAccumulator::<M>::new(width);
                for (lane, &coefficient) in lanes.iter().zip(coefficients.iter()) {
                    if coefficient != Fp::<M>::ZERO {
                        block.axpy(coefficient, lane);
                    }
                }
                block.finish()
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EncodedDataset;
    use avcc_field::{PrimeField, F25, P25};
    use avcc_linalg::{mat_vec, Matrix};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The per-block outputs a decode must reproduce, every worker's result
    /// and the decoder of the code.
    type Round<M> = (
        Vec<Vec<Fp<M>>>,
        Vec<(usize, Vec<Fp<M>>)>,
        LagrangeDecoder<M>,
    );

    /// A full encode → worker-compute round for a linear map (matrix–vector
    /// product) over `K` blocks of 4 × 6.
    fn round<M: PrimeModulus>(config: SchemeConfig, seed: u64) -> Round<M> {
        let mut rng = StdRng::seed_from_u64(seed);
        let (rows, cols) = (4 * config.partitions, 6);
        let matrix = Matrix::from_vec(rows, cols, avcc_field::random_matrix(&mut rng, rows, cols));
        let w: Vec<Fp<M>> = avcc_field::random_vector(&mut rng, cols);
        let dataset = EncodedDataset::<M>::encode(&matrix, config, &mut rng);
        let expected = mat_vec(&matrix, &w).chunks(4).map(<[_]>::to_vec).collect();
        let results = dataset
            .shares()
            .iter()
            .enumerate()
            .map(|(worker, share)| (worker, mat_vec(share, &w)))
            .collect();
        (expected, results, dataset.decoder().clone())
    }

    #[test]
    fn erasure_decoding_from_all_workers() {
        let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
        let (expected, results, decoder) = round::<P25>(config, 1);
        let outputs = decoder.decode_erasure(&results).unwrap();
        assert_eq!(outputs, expected);
    }

    #[test]
    fn erasure_decoding_from_any_threshold_subset() {
        let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
        let (expected, results, decoder) = round::<P25>(config, 2);
        // Drop the first three workers (as if they straggled).
        let subset = results[3..].to_vec();
        let outputs = decoder.decode_erasure(&subset).unwrap();
        assert_eq!(outputs, expected);
    }

    #[test]
    fn erasure_decoding_with_privacy_pads() {
        let config = SchemeConfig::new(8, 3, 1, 0, 2).unwrap();
        let (expected, results, decoder) = round::<P25>(config, 3);
        // Threshold is K + T = 3 + 2 = 5.
        assert_eq!(decoder.recovery_threshold(), 5);
        let subset = results[2..7].to_vec();
        let outputs = decoder.decode_erasure(&subset).unwrap();
        assert_eq!(outputs, expected);
    }

    #[test]
    fn erasure_decoding_requires_threshold_results() {
        let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
        let (_, results, decoder) = round::<P25>(config, 4);
        let subset = results[..8].to_vec();
        assert_eq!(
            decoder.decode_erasure(&subset),
            Err(DecodeError::NotEnoughResults {
                provided: 8,
                required: 9
            })
        );
    }

    #[test]
    fn duplicate_and_unknown_workers_are_rejected() {
        let config = SchemeConfig::linear(6, 3, 2, 1).unwrap();
        let (_, results, decoder) = round::<P25>(config, 5);
        let mut duplicated = results.clone();
        duplicated[1] = duplicated[0].clone();
        assert_eq!(
            decoder.decode_erasure(&duplicated),
            Err(DecodeError::DuplicateWorker { worker: 0 })
        );
        let mut unknown = results.clone();
        unknown[0].0 = 99;
        assert_eq!(
            decoder.decode_erasure(&unknown),
            Err(DecodeError::UnknownWorker { worker: 99 })
        );
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let config = SchemeConfig::linear(6, 3, 2, 1).unwrap();
        let (_, mut results, decoder) = round::<P25>(config, 6);
        results[2].1.pop();
        assert_eq!(
            decoder.decode_erasure(&results),
            Err(DecodeError::ShapeMismatch)
        );
    }

    #[test]
    fn error_correcting_decode_locates_byzantine_workers() {
        // LCC-style: (N=12, K=9, S=1, M=1) needs 9 + 1 + 2 = 12 workers.
        let config = SchemeConfig::linear(12, 9, 1, 1).unwrap();
        let (expected, mut results, decoder) = round::<P25>(config, 7);
        // Corrupt worker 4's vector (constant attack).
        for value in results[4].1.iter_mut() {
            *value = F25::from_u64(3);
        }
        // Drop one straggler (worker 11), leaving N - S = 11 results.
        results.truncate(11);
        let mut rng = StdRng::seed_from_u64(70);
        let (outputs, corrupted) = decoder.decode_with_errors(&results, 1, &mut rng).unwrap();
        assert_eq!(outputs, expected);
        assert_eq!(corrupted, vec![4]);
    }

    #[test]
    fn error_correcting_decode_with_two_errors() {
        let config = SchemeConfig::linear(14, 9, 1, 2).unwrap();
        let (expected, mut results, decoder) = round::<P25>(config, 8);
        for value in results[0].1.iter_mut() {
            *value = -*value; // reverse-value attack
        }
        for value in results[7].1.iter_mut() {
            *value += F25::from_u64(1234);
        }
        let mut rng = StdRng::seed_from_u64(80);
        let (outputs, corrupted) = decoder.decode_with_errors(&results, 2, &mut rng).unwrap();
        assert_eq!(outputs, expected);
        let mut corrupted_sorted = corrupted;
        corrupted_sorted.sort_unstable();
        assert_eq!(corrupted_sorted, vec![0, 7]);
    }

    #[test]
    fn error_correcting_decode_needs_two_extra_per_error() {
        let config = SchemeConfig::linear(12, 9, 1, 1).unwrap();
        let (_, results, decoder) = round::<P25>(config, 9);
        // Only 10 results available but 9 + 2*1 = 11 required.
        let subset = results[..10].to_vec();
        let mut rng = StdRng::seed_from_u64(90);
        assert_eq!(
            decoder.decode_with_errors(&subset, 1, &mut rng),
            Err(DecodeError::NotEnoughResults {
                provided: 10,
                required: 11
            })
        );
    }

    #[test]
    fn error_correcting_decode_reports_overload() {
        let config = SchemeConfig::linear(12, 9, 1, 1).unwrap();
        let (expected, mut results, decoder) = round::<P25>(config, 10);
        // Corrupt three workers but only budget one error: the decoder must
        // either refuse or at least fail to reproduce the clean outputs (the
        // attack exceeds the code's correction capability by design).
        for index in [1, 5, 9] {
            for value in results[index].1.iter_mut() {
                *value = F25::from_u64(7);
            }
        }
        let mut rng = StdRng::seed_from_u64(100);
        match decoder.decode_with_errors(&results, 1, &mut rng) {
            Err(DecodeError::TooManyErrors) => {}
            Ok((outputs, _)) => assert_ne!(outputs, expected),
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn clean_results_report_no_corruption() {
        let config = SchemeConfig::linear(12, 9, 1, 1).unwrap();
        let (expected, results, decoder) = round::<P25>(config, 11);
        let mut rng = StdRng::seed_from_u64(110);
        let (outputs, corrupted) = decoder.decode_with_errors(&results, 1, &mut rng).unwrap();
        assert_eq!(outputs, expected);
        assert!(corrupted.is_empty());
    }

    #[test]
    fn error_correcting_decode_never_names_more_than_the_budget() {
        // ν = 16 − 8 = 8 lets the screen alone localize four workers; with a
        // budget of one, two located workers are beyond the design.
        let config = SchemeConfig::linear(16, 8, 0, 1).unwrap();
        let (_, mut results, decoder) = round::<P25>(config, 12);
        for index in [3, 10] {
            for value in results[index].1.iter_mut() {
                *value += F25::from_u64(5);
            }
        }
        let mut rng = StdRng::seed_from_u64(120);
        assert_eq!(
            decoder.decode_with_errors(&results, 1, &mut rng),
            Err(DecodeError::TooManyErrors)
        );
    }

    #[test]
    fn error_correcting_decode_with_no_budget() {
        let config = SchemeConfig::linear(12, 9, 1, 1).unwrap();
        let (expected, mut results, decoder) = round::<P25>(config, 13);
        let mut rng = StdRng::seed_from_u64(130);
        // Exactly the threshold: nothing to check, an exact erasure decode.
        let (outputs, corrupted) = decoder
            .decode_with_errors(&results[..9], 0, &mut rng)
            .unwrap();
        assert_eq!(outputs, expected);
        assert!(corrupted.is_empty());
        // One result over the threshold detects a corruption it may not
        // locate.
        for value in results[2].1.iter_mut() {
            *value = -*value;
        }
        assert_eq!(
            decoder.decode_with_errors(&results[..10], 0, &mut rng),
            Err(DecodeError::TooManyErrors)
        );
    }

    mod goldilocks {
        use super::*;
        use avcc_field::{F64, P64};

        #[test]
        fn any_threshold_subset_decodes_exactly() {
            let config = SchemeConfig::linear(16, 8, 4, 2).unwrap();
            let (expected, results, decoder) = round::<P64>(config, 22);
            // With or without stragglers — here the first three of the
            // systematic workers — the decode reproduces the product.
            let full = decoder.decode_erasure(&results).unwrap();
            let subset = results[3..].to_vec();
            let partial = decoder.decode_erasure(&subset).unwrap();
            assert_eq!(full, expected);
            assert_eq!(partial, expected);
        }

        #[test]
        fn one_prepare_decodes_many_result_sets_in_any_worker_order() {
            let config = SchemeConfig::linear(16, 8, 4, 2).unwrap();
            let (expected, results, decoder) = round::<P64>(config, 27);
            assert_eq!(decoder.recovery_threshold(), 8);
            let subset = &results[2..10];
            let workers: Vec<usize> = subset.iter().map(|(worker, _)| *worker).collect();
            let lanes: Vec<&[F64]> = subset.iter().map(|(_, v)| v.as_slice()).collect();
            let prepared = decoder.prepare(&workers).unwrap();
            // The basis depends on the survivor set only: a second result
            // set from the same workers (here, every value doubled) decodes
            // through the same prepare.
            assert_eq!(prepared.apply(&lanes).unwrap(), expected);
            let doubled: Vec<Vec<F64>> = subset
                .iter()
                .map(|(_, v)| v.iter().map(|&x| x + x).collect())
                .collect();
            let doubled_lanes: Vec<&[F64]> = doubled.iter().map(Vec::as_slice).collect();
            let doubled_expected: Vec<Vec<F64>> = expected
                .iter()
                .map(|block| block.iter().map(|&x| x + x).collect())
                .collect();
            assert_eq!(prepared.apply(&doubled_lanes).unwrap(), doubled_expected);
            // Arrival order does not change the decode.
            let mut shuffled = subset.to_vec();
            shuffled.reverse();
            assert_eq!(decoder.decode_erasure(&shuffled).unwrap(), expected);
            // Lanes must match the prepared workers one for one.
            assert_eq!(prepared.apply(&lanes[1..]), Err(DecodeError::ShapeMismatch));
            let mut ragged = lanes.clone();
            ragged[3] = &ragged[3][1..];
            assert_eq!(prepared.apply(&ragged), Err(DecodeError::ShapeMismatch));
        }

        #[test]
        fn private_round_trips_on_goldilocks() {
            // K + T = 8, N = 16: threshold 8 ≤ 16.
            let config = SchemeConfig::new(16, 6, 2, 2, 2).unwrap();
            let (expected, results, decoder) = round::<P64>(config, 24);
            let outputs = decoder.decode_erasure(&results).unwrap();
            assert_eq!(outputs, expected);
        }

        #[test]
        fn error_correcting_decode_locates_a_corruption_on_goldilocks() {
            // LCC-style on F64: locate the corruption with the screen, then
            // erasure-decode the clean subset.
            let config = SchemeConfig::linear(16, 8, 2, 2).unwrap();
            let (expected, mut results, decoder) = round::<P64>(config, 25);
            for value in results[5].1.iter_mut() {
                *value = -*value;
            }
            let mut rng = StdRng::seed_from_u64(250);
            let (outputs, corrupted) = decoder.decode_with_errors(&results, 2, &mut rng).unwrap();
            assert_eq!(outputs, expected);
            assert_eq!(corrupted, vec![5]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_any_threshold_subset_decodes(seed in any::<u64>(), drop_count in 0usize..3) {
            let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
            let (expected, results, decoder) = round::<P25>(config, seed);
            let subset = results[drop_count..].to_vec();
            let outputs = decoder.decode_erasure(&subset).unwrap();
            prop_assert_eq!(outputs, expected);
        }

        #[test]
        fn prop_single_corruption_is_always_located(seed in any::<u64>(), victim in 0usize..12) {
            let config = SchemeConfig::linear(12, 9, 1, 1).unwrap();
            let (expected, mut results, decoder) = round::<P25>(config, seed);
            for value in results[victim].1.iter_mut() {
                *value += F25::from_u64(999);
            }
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
            let (outputs, corrupted) = decoder.decode_with_errors(&results, 1, &mut rng).unwrap();
            prop_assert_eq!(outputs, expected);
            prop_assert_eq!(corrupted, vec![victim]);
        }
    }
}
