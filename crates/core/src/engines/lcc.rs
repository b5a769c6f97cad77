//! The LCC baseline engine (paper §II-A and the evaluation's main comparator).
//!
//! The data is Lagrange/MDS encoded over all `N` workers. The master has to
//! wait for the first `N − S` results before it can do anything — Byzantine
//! workers are only identified *during* Reed–Solomon error decoding, which is
//! why LCC cannot start processing early and why each Byzantine worker costs
//! two extra workers (eq. 1). The error locator is the dual-codeword screen
//! ([`avcc_coding::DualCodeword`], through
//! [`avcc_coding::LagrangeDecoder::decode_with_errors`]): it names up to `M`
//! corrupted results, re-checks them by re-screening the rest, and the rest
//! are erasure-decoded.
//!
//! When the actual number of corrupted results exceeds the designed `M`, real
//! LCC decoders produce an incorrect reconstruction; this engine reproduces
//! that behaviour by falling back to an erasure decode over the (possibly
//! corrupted) fastest results, which is what degrades the LCC accuracy curves
//! in Fig. 3(b)/(d).

use std::sync::Arc;

use avcc_coding::decoder::DecodeError;
use avcc_coding::{EncodedDataset, SchemeConfig};
use avcc_field::{Fp, PrimeModulus};
use avcc_linalg::Matrix;
use avcc_sim::cluster::NetworkModel;
use avcc_sim::executor::WorkerOutcome;
use avcc_sim::metrics::OpCounts;
use rand::rngs::StdRng;
use rand::Rng;

use crate::engines::MatVecEngine;
use crate::rounds::{
    detect_stragglers, field_vector_bytes, waiting_costs, BatchExecution, BatchRoundTask,
    SchemeFailure,
};

/// The LCC distributed matrix–vector engine: a per-function session over a
/// shared [`EncodedDataset`].
#[derive(Debug, Clone)]
pub struct LccMatVec<M: PrimeModulus> {
    dataset: Arc<EncodedDataset<M>>,
}

impl<M: PrimeModulus> LccMatVec<M> {
    /// Opens an LCC session over an already-encoded dataset; the encode was
    /// paid once when the dataset was built and is shared with every other
    /// session over the same `Arc`.
    ///
    /// # Panics
    /// Panics if the dataset is not Lagrange-coded.
    pub fn over(dataset: Arc<EncodedDataset<M>>) -> Self {
        assert!(
            dataset.is_coded(),
            "LCC requires a Lagrange-coded dataset; use EncodedDataset::encode"
        );
        LccMatVec { dataset }
    }

    /// Encodes the matrix for the given scheme configuration — the
    /// single-function convenience wrapper around [`EncodedDataset::encode`]
    /// plus [`LccMatVec::over`]. Rows not divisible by `config.partitions`
    /// are zero-padded and the decoded output trimmed back.
    pub fn new<R: Rng + ?Sized>(matrix: &Matrix<Fp<M>>, config: SchemeConfig, rng: &mut R) -> Self {
        Self::over(Arc::new(EncodedDataset::encode(matrix, config, rng)))
    }

    /// The shared encoded dataset this session dispatches against.
    pub fn dataset(&self) -> &Arc<EncodedDataset<M>> {
        &self.dataset
    }

    /// The scheme configuration.
    pub fn config(&self) -> &SchemeConfig {
        self.dataset.scheme().expect("LCC dataset is coded")
    }

    /// Total size of the encoded data shipped to the workers, in bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.dataset.encoded_bytes()
    }
}

impl<M: PrimeModulus> MatVecEngine<M> for LccMatVec<M> {
    fn name(&self) -> &'static str {
        "lcc"
    }

    fn workers(&self) -> usize {
        self.dataset.workers()
    }

    fn min_results(&self) -> usize {
        self.config().lcc_wait_count()
    }

    fn dispatch_batch(&self, inputs: &[Vec<Fp<M>>]) -> Vec<BatchRoundTask<M>> {
        BatchRoundTask::for_shares(self.dataset.shares(), inputs)
    }

    fn collect_batch(
        &mut self,
        inputs: &[Vec<Fp<M>>],
        outcomes: &[WorkerOutcome<Vec<Vec<Fp<M>>>>],
        network: &NetworkModel,
        _time_scale: f64,
        rng: &mut StdRng,
    ) -> Result<BatchExecution<M>, SchemeFailure> {
        assert!(!inputs.is_empty(), "batched round needs at least one input");
        let functions = inputs.len();
        let cols = inputs[0].len();
        let observed_stragglers = detect_stragglers(outcomes);
        let config = *self.config();
        let block_rows = self.dataset.block_rows();

        // LCC can only start decoding once N - S results are in.
        let wait_count = config.lcc_wait_count().min(outcomes.len());
        let threshold = config.recovery_threshold();
        if wait_count < threshold {
            return Err(SchemeFailure::NotEnoughResults {
                available: wait_count,
                required: threshold,
            });
        }
        let used: Vec<_> = outcomes[..wait_count].iter().collect();

        // LCC has no per-arrival check to batch: each function is error-
        // decoded independently (Byzantine identification is a decode-side
        // by-product), with detections unioned across the batch in
        // first-located order.
        let decoder = self.dataset.decoder().expect("LCC dataset is coded");
        let mut outputs = Vec::with_capacity(functions);
        let mut detected_byzantine: Vec<usize> = Vec::new();
        for function in 0..functions {
            let results: Vec<(usize, Vec<Fp<M>>)> = used
                .iter()
                .map(|o| (o.worker, o.payload[function].clone()))
                .collect();
            let decoded = decoder.decode_with_errors(&results, config.byzantine, rng);
            let (blocks, detected) = match decoded {
                Ok(outcome) => outcome,
                Err(DecodeError::TooManyErrors) => {
                    // Beyond the designed correction capability: a real
                    // decoder emits an incorrect reconstruction. Erasure-
                    // decode the fastest threshold results, corrupted or not.
                    (decoder.decode_erasure(&results[..threshold])?, Vec::new())
                }
                Err(other) => return Err(other.into()),
            };
            for worker in detected {
                if !detected_byzantine.contains(&worker) {
                    detected_byzantine.push(worker);
                }
            }
            let mut output = Vec::with_capacity(config.partitions * block_rows);
            for block in blocks {
                output.extend(block);
            }
            output.truncate(self.dataset.output_rows());
            outputs.push(output);
        }

        // The modelled Reed–Solomon decode cost: an interpolation through all
        // `wait_count` results plus a `wait_count²` syndrome/locator term over
        // an erasure decode, once per function. It models the decode the
        // paper charges LCC, not the screen's own multiply count.
        let ops = OpCounts {
            worker_macs: (block_rows * functions * cols) as u64,
            verify_macs: 0,
            decode_macs: (functions
                * (block_rows * wait_count * config.partitions + wait_count * wait_count))
                as u64,
        };
        let costs = waiting_costs(
            &used,
            network,
            field_vector_bytes(functions * cols),
            config.workers,
            &ops,
        );
        Ok(BatchExecution {
            outputs,
            costs,
            ops,
            used_workers: used.iter().map(|o| o.worker).collect(),
            detected_byzantine,
            observed_stragglers,
            // LCC has no pre-decode screen: Byzantine workers surface through
            // error decoding, not screening.
            screened_workers: Vec::new(),
            // LCC decoding identifies workers, not functions: localization is
            // a verification-side capability AVCC adds.
            corrupted_functions: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avcc_field::{F25, P25};
    use avcc_linalg::mat_vec;
    use avcc_sim::attack::{AttackModel, ByzantineSpec};
    use avcc_sim::cluster::ClusterProfile;
    use avcc_sim::executor::VirtualExecutor;
    use rand::SeedableRng;

    /// A matrix, one round's inputs (a batch of one) and their products.
    fn setup() -> (Matrix<F25>, Vec<Vec<F25>>, Vec<Vec<F25>>) {
        let mut rng = StdRng::seed_from_u64(1);
        let matrix = Matrix::from_vec(18, 6, avcc_field::random_matrix(&mut rng, 18, 6));
        let input = avcc_field::random_vector(&mut rng, 6);
        let expected = vec![mat_vec(&matrix, &input)];
        (matrix, vec![input], expected)
    }

    #[test]
    fn clean_round_decodes_from_fastest_results() {
        let (matrix, inputs, expected) = setup();
        let config = SchemeConfig::linear(12, 9, 1, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut engine = LccMatVec::<P25>::new(&matrix, config, &mut rng);
        let mut executor = VirtualExecutor::new(ClusterProfile::uniform(12));
        let round = engine
            .execute_batch(&inputs, &mut executor, &ByzantineSpec::none(), &mut rng)
            .unwrap();
        assert_eq!(round.outputs, expected);
        assert_eq!(round.used_workers.len(), 11); // N - S
        assert!(round.detected_byzantine.is_empty());
    }

    #[test]
    fn single_byzantine_worker_is_corrected_and_identified() {
        let (matrix, inputs, expected) = setup();
        let config = SchemeConfig::linear(12, 9, 1, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut engine = LccMatVec::<P25>::new(&matrix, config, &mut rng);
        // Uniform workers arrive in worker order: LCC decodes from workers
        // 0..=10, the liar among them.
        let mut executor = VirtualExecutor::new(ClusterProfile::uniform(12));
        let byzantine = ByzantineSpec::new([5], AttackModel::reverse());
        let round = engine
            .execute_batch(&inputs, &mut executor, &byzantine, &mut rng)
            .unwrap();
        assert_eq!(round.outputs, expected);
        assert_eq!(round.detected_byzantine, vec![5]);
    }

    #[test]
    fn byzantine_workers_beyond_the_design_corrupt_the_output() {
        let (matrix, inputs, expected) = setup();
        // Designed for M = 1 only; corrupt two workers. Uniform workers
        // arrive in worker order, so both liars are among the eleven results
        // LCC waits for, and among the nine its fallback erasure decode uses.
        let config = SchemeConfig::linear(12, 9, 1, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut engine = LccMatVec::<P25>::new(&matrix, config, &mut rng);
        let mut executor = VirtualExecutor::new(ClusterProfile::uniform(12));
        let byzantine = ByzantineSpec::new([2, 5], AttackModel::constant());
        let round = engine
            .execute_batch(&inputs, &mut executor, &byzantine, &mut rng)
            .unwrap();
        assert_ne!(round.outputs, expected, "LCC beyond capability should err");
        assert!(round.detected_byzantine.is_empty());
    }

    #[test]
    fn straggler_is_not_waited_for() {
        let (matrix, inputs, expected) = setup();
        let config = SchemeConfig::linear(12, 9, 1, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut engine = LccMatVec::<P25>::new(&matrix, config, &mut rng);
        let profile = ClusterProfile::uniform(12).with_stragglers(&[3], 300.0);
        let mut executor = VirtualExecutor::new(profile);
        let round = engine
            .execute_batch(&inputs, &mut executor, &ByzantineSpec::none(), &mut rng)
            .unwrap();
        assert_eq!(round.outputs, expected);
        assert!(
            !round.used_workers.contains(&3),
            "straggler should be excluded"
        );
        assert!(round.observed_stragglers.contains(&3));
    }

    #[test]
    fn encoded_bytes_accounts_all_shares() {
        let (matrix, _, _) = setup();
        let config = SchemeConfig::linear(12, 9, 1, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let engine = LccMatVec::<P25>::new(&matrix, config, &mut rng);
        assert_eq!(engine.encoded_bytes(), 12 * 2 * 6 * 8);
    }
}
