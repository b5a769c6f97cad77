//! Job descriptions and results for the serving layer.
//!
//! A job is a complete unit of master-side work: either a full training run
//! (many iterations, each two distributed rounds) or a one-shot coded
//! matrix–vector product (a single round). The scheduler interleaves the
//! *rounds* of different jobs on the fleet; the job is the unit of admission,
//! completion and accounting.

use avcc_coding::SchemeConfig;
use avcc_core::{ExperimentConfig, SchemeFailure, TrainingReport};
use avcc_field::{Fp, PrimeModulus};
use avcc_linalg::Matrix;
use avcc_sim::metrics::JobMetrics;

/// Identifier assigned at submission, unique within one [`crate::Scheduler`].
pub type JobId = usize;

/// One unit of work submitted to the serving layer.
#[derive(Debug, Clone)]
pub enum JobSpec<M: PrimeModulus> {
    /// A full distributed training run: every iteration's two rounds pass
    /// through the fleet, exactly as `DistributedTrainer::train` would run
    /// them on its own executor.
    Training(ExperimentConfig),
    /// A one-shot AVCC-coded matrix–vector product: encode, one round on the
    /// fleet, verify and decode — served as a [`JobSpec::MatMulBatch`] of one.
    CodedMatVec {
        /// The matrix to encode across the fleet's workers.
        matrix: Matrix<Fp<M>>,
        /// The broadcast input vector (`matrix.cols()` entries).
        input: Vec<Fp<M>>,
        /// The coding configuration `(N, K, S, M, T)`.
        coding: SchemeConfig,
        /// RNG seed for encoding pads and verification keys.
        seed: u64,
    },
    /// A multi-function matmul: `m` input vectors served against **one**
    /// shared encoded dataset. The matrix is encoded once, every worker task
    /// carries all `m` inputs, and one batched Freivalds pass (with
    /// per-function fallback) verifies the whole batch — amortizing the
    /// encode and the Lagrange-basis setup that [`JobSpec::CodedMatVec`]
    /// pays per product. Outputs are bit-identical to `m` independent
    /// `CodedMatVec` jobs with the same seed.
    MatMulBatch {
        /// The matrix to encode once across the fleet's workers.
        matrix: Matrix<Fp<M>>,
        /// The `m` broadcast input vectors (`matrix.cols()` entries each).
        inputs: Vec<Vec<Fp<M>>>,
        /// The coding configuration `(N, K, S, M, T)`.
        coding: SchemeConfig,
        /// RNG seed for encoding pads and verification keys.
        seed: u64,
    },
}

impl<M: PrimeModulus> JobSpec<M> {
    /// Starts a builder for a coded matmul job over `matrix` with one input
    /// vector — extend it with [`MatMulJobBuilder::with_batch`] to serve
    /// many functions over the same encoded dataset.
    ///
    /// Defaults: the paper's `(N = 12, K = 9, S = 2, M = 1)` linear coding
    /// and seed `0`.
    pub fn matmul(matrix: Matrix<Fp<M>>, input: Vec<Fp<M>>) -> MatMulJobBuilder<M> {
        MatMulJobBuilder {
            matrix,
            inputs: vec![input],
            coding: SchemeConfig::linear(12, 9, 2, 1)
                .expect("the paper's default coding configuration is feasible"),
            seed: 0,
        }
    }
}

/// Builder returned by [`JobSpec::matmul`]: configures the coding scheme,
/// the input batch and the seed before producing a [`JobSpec`].
#[derive(Debug, Clone)]
pub struct MatMulJobBuilder<M: PrimeModulus> {
    matrix: Matrix<Fp<M>>,
    inputs: Vec<Vec<Fp<M>>>,
    coding: SchemeConfig,
    seed: u64,
}

impl<M: PrimeModulus> MatMulJobBuilder<M> {
    /// Uses the given coding configuration instead of the paper default.
    pub fn with_scheme(mut self, coding: SchemeConfig) -> Self {
        self.coding = coding;
        self
    }

    /// Replaces the input set with a batch of `m` input vectors, all served
    /// against the one shared encoded dataset.
    ///
    /// # Panics
    /// Panics if `inputs` is empty.
    pub fn with_batch(mut self, inputs: Vec<Vec<Fp<M>>>) -> Self {
        assert!(!inputs.is_empty(), "a matmul job needs at least one input");
        self.inputs = inputs;
        self
    }

    /// Seeds the encoding pads and verification keys. Two jobs with the same
    /// matrix, coding and seed encode identically, which is what makes a
    /// batch comparable to its independent single-function equivalents.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Produces the job: a [`JobSpec::CodedMatVec`] for a single input, a
    /// [`JobSpec::MatMulBatch`] for `m > 1`.
    pub fn build(self) -> JobSpec<M> {
        let MatMulJobBuilder {
            matrix,
            mut inputs,
            coding,
            seed,
        } = self;
        if inputs.len() == 1 {
            JobSpec::CodedMatVec {
                matrix,
                input: inputs.pop().expect("one input"),
                coding,
                seed,
            }
        } else {
            JobSpec::MatMulBatch {
                matrix,
                inputs,
                coding,
                seed,
            }
        }
    }
}

/// What a finished job produced.
#[derive(Debug, Clone)]
pub enum JobOutput<M: PrimeModulus> {
    /// The training report of a [`JobSpec::Training`] job.
    Training(Box<TrainingReport>),
    /// The decoded product of a [`JobSpec::CodedMatVec`] job.
    MatVec(Vec<Fp<M>>),
    /// The decoded per-function products of a [`JobSpec::MatMulBatch`] job,
    /// in input order.
    MatVecBatch(Vec<Vec<Fp<M>>>),
    /// The job aborted with a scheme-level failure (e.g. a round could not be
    /// decoded even with every dispatched result in hand).
    Failed(SchemeFailure),
}

impl<M: PrimeModulus> JobOutput<M> {
    /// `true` iff the job aborted instead of completing.
    pub fn is_failed(&self) -> bool {
        matches!(self, JobOutput::Failed(_))
    }
}

/// A job the scheduler has finished with, successfully or not.
#[derive(Debug, Clone)]
pub struct CompletedJob<M: PrimeModulus> {
    /// The id [`crate::Scheduler::submit`] returned for this job.
    pub id: JobId,
    /// The job's result.
    pub output: JobOutput<M>,
    /// Queue-wait and throughput accounting for this job.
    pub metrics: JobMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;
    use avcc_field::{PrimeField, F25, P25};

    fn small_matrix() -> Matrix<F25> {
        Matrix::from_vec(4, 2, (0..8).map(F25::from_u64).collect())
    }

    fn input(offset: u64) -> Vec<F25> {
        vec![F25::from_u64(offset), F25::from_u64(offset + 1)]
    }

    #[test]
    fn builder_defaults_to_a_single_function_job() {
        let spec = JobSpec::<P25>::matmul(small_matrix(), input(0)).build();
        let JobSpec::CodedMatVec {
            coding,
            seed,
            input: built_input,
            ..
        } = spec
        else {
            panic!("one input must build a CodedMatVec job");
        };
        assert_eq!(seed, 0);
        assert_eq!(built_input, input(0));
        assert_eq!((coding.workers, coding.partitions), (12, 9));
    }

    #[test]
    fn builder_with_batch_builds_a_batched_job() {
        let coding = SchemeConfig::linear(12, 8, 2, 1).unwrap();
        let spec = JobSpec::<P25>::matmul(small_matrix(), input(0))
            .with_batch(vec![input(0), input(2), input(4)])
            .with_scheme(coding)
            .with_seed(7)
            .build();
        let JobSpec::MatMulBatch {
            inputs,
            coding: built,
            seed,
            ..
        } = spec
        else {
            panic!("three inputs must build a MatMulBatch job");
        };
        assert_eq!(inputs.len(), 3);
        assert_eq!(seed, 7);
        assert_eq!(built.partitions, 8);
    }

    #[test]
    fn builder_with_batch_of_one_stays_single_function() {
        let spec = JobSpec::<P25>::matmul(small_matrix(), input(0))
            .with_batch(vec![input(9)])
            .build();
        assert!(matches!(spec, JobSpec::CodedMatVec { .. }));
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn builder_rejects_an_empty_batch() {
        let _ = JobSpec::<P25>::matmul(small_matrix(), input(0)).with_batch(Vec::new());
    }
}
