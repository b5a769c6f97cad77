//! The uncoded baseline (paper §V): no redundancy, no integrity protection.
//!
//! The data matrix is split into `K` row bands, one per participating worker
//! (the paper uses 9 of the 12 nodes): the `(K, K)` Lagrange code at `T = 0`,
//! whose systematic shares are the bands themselves. The master must wait
//! for **every** worker — a single straggler delays the whole round — and a
//! Byzantine worker's corrupted block flows straight into the reconstructed
//! product, which is what degrades the uncoded accuracy curves in Fig. 3.

use std::sync::Arc;

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

/// The uncoded distributed matrix–vector engine: a per-function session over
/// a shared [`EncodedDataset`] of the `(K, K)` code.
#[derive(Debug, Clone)]
pub struct UncodedMatVec<M: PrimeModulus> {
    dataset: Arc<EncodedDataset<M>>,
}

impl<M: PrimeModulus> UncodedMatVec<M> {
    /// Opens an uncoded session over an already-encoded dataset.
    ///
    /// # Panics
    /// Panics unless the dataset's code is `(K, K)` at `T = 0`: the uncoded
    /// baseline reassembles its output by concatenating the shares, which
    /// only that code's shares — the row bands — allow.
    pub fn over(dataset: Arc<EncodedDataset<M>>) -> Self {
        let scheme = dataset.scheme();
        assert!(
            scheme.workers == scheme.partitions && scheme.colluding == 0,
            "the uncoded engine needs the (K, K) code at T = 0, not {scheme}"
        );
        UncodedMatVec { dataset }
    }

    /// Splits the matrix into `partitions` row bands — the single-function
    /// convenience wrapper around [`EncodedDataset::encode`] under
    /// `SchemeConfig::linear(K, K, 0, 0)` plus [`UncodedMatVec::over`]. At
    /// `T = 0` the encode draws nothing from `rng`. Rows not divisible by
    /// `partitions` are zero-padded and the output trimmed back.
    ///
    /// # Panics
    /// Panics if `partitions` is zero.
    pub fn new<R: Rng + ?Sized>(matrix: &Matrix<Fp<M>>, partitions: usize, rng: &mut R) -> Self {
        let config = SchemeConfig::linear(partitions, partitions, 0, 0)
            .expect("the uncoded baseline needs at least one partition");
        Self::over(Arc::new(EncodedDataset::encode(matrix, config, rng)))
    }

    /// The shared dataset this session dispatches against.
    pub fn dataset(&self) -> &Arc<EncodedDataset<M>> {
        &self.dataset
    }

    /// The per-block row count.
    pub fn block_rows(&self) -> usize {
        self.dataset.block_rows()
    }
}

impl<M: PrimeModulus> MatVecEngine<M> for UncodedMatVec<M> {
    fn name(&self) -> &'static str {
        "uncoded"
    }

    fn workers(&self) -> usize {
        self.dataset.workers()
    }

    fn min_results(&self) -> usize {
        self.dataset.workers()
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
        _rng: &mut StdRng,
    ) -> Result<BatchExecution<M>, SchemeFailure> {
        assert!(!inputs.is_empty(), "batched round needs at least one input");
        let functions = inputs.len();
        let cols = inputs[0].len();
        let workers = self.dataset.workers();
        let block_rows = self.dataset.block_rows();
        if outcomes.len() < workers {
            return Err(SchemeFailure::NotEnoughResults {
                available: outcomes.len(),
                required: workers,
            });
        }
        let observed_stragglers = detect_stragglers(outcomes);
        // Reassembly (concatenation in block order, trimmed of the padding
        // rows) is the uncoded "decode".
        let mut outputs = vec![vec![Fp::<M>::ZERO; workers * block_rows]; functions];
        for outcome in outcomes {
            let start = outcome.worker * block_rows;
            for (function, part) in outcome.payload.iter().enumerate() {
                outputs[function][start..start + block_rows].copy_from_slice(part);
            }
        }
        for output in &mut outputs {
            output.truncate(self.dataset.output_rows());
        }

        // No verification and no real decode: reassembly is data movement,
        // not multiply–accumulate work, so the master is charged nothing.
        let ops = OpCounts {
            worker_macs: (block_rows * functions * cols) as u64,
            verify_macs: 0,
            decode_macs: 0,
        };
        // The master needs every result, so it pays for the slowest worker.
        let used: Vec<_> = outcomes.iter().collect();
        let costs = waiting_costs(
            &used,
            network,
            field_vector_bytes(functions * cols),
            workers,
            &ops,
        );
        Ok(BatchExecution {
            outputs,
            costs,
            ops,
            used_workers: outcomes.iter().map(|o| o.worker).collect(),
            detected_byzantine: Vec::new(),
            observed_stragglers,
            screened_workers: Vec::new(),
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

    /// A matrix and one round's inputs (a batch of one).
    fn setup(rows: usize, cols: usize) -> (Matrix<F25>, Vec<Vec<F25>>) {
        let mut rng = StdRng::seed_from_u64(1);
        let matrix = Matrix::from_vec(rows, cols, avcc_field::random_matrix(&mut rng, rows, cols));
        let input = avcc_field::random_vector(&mut rng, cols);
        (matrix, vec![input])
    }

    #[test]
    fn honest_round_reconstructs_the_product() {
        let (matrix, inputs) = setup(18, 5);
        let expected = mat_vec(&matrix, &inputs[0]);
        let mut rng = StdRng::seed_from_u64(2);
        let mut engine = UncodedMatVec::<P25>::new(&matrix, 9, &mut rng);
        let mut executor = VirtualExecutor::new(ClusterProfile::uniform(9));
        let round = engine
            .execute_batch(&inputs, &mut executor, &ByzantineSpec::none(), &mut rng)
            .unwrap();
        assert_eq!(round.outputs[0], expected);
        assert_eq!(round.used_workers.len(), 9);
        assert!(round.detected_byzantine.is_empty());
    }

    #[test]
    fn byzantine_corruption_silently_pollutes_the_output() {
        let (matrix, inputs) = setup(12, 4);
        let expected = mat_vec(&matrix, &inputs[0]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut engine = UncodedMatVec::<P25>::new(&matrix, 6, &mut rng);
        let mut executor = VirtualExecutor::new(ClusterProfile::uniform(6));
        let byzantine = ByzantineSpec::new([2], AttackModel::constant());
        let round = engine
            .execute_batch(&inputs, &mut executor, &byzantine, &mut rng)
            .unwrap();
        assert_ne!(
            round.outputs[0], expected,
            "corruption should reach the output"
        );
        // The uncoded scheme has no way to notice.
        assert!(round.detected_byzantine.is_empty());
        // Untouched blocks are still correct.
        assert_eq!(round.outputs[0][..4], expected[..4]);
    }

    #[test]
    fn straggler_inflates_the_round_cost() {
        let (matrix, inputs) = setup(12, 4);
        let mut rng = StdRng::seed_from_u64(4);
        let mut engine = UncodedMatVec::<P25>::new(&matrix, 6, &mut rng);
        let mut fast = VirtualExecutor::new(ClusterProfile::uniform(6));
        let mut slow =
            VirtualExecutor::new(ClusterProfile::uniform(6).with_stragglers(&[0], 200.0));
        let mut compute = |executor: &mut VirtualExecutor| {
            engine
                .execute_batch(&inputs, executor, &ByzantineSpec::none(), &mut rng)
                .unwrap()
                .costs
                .compute
        };
        let (fast_compute, slow_compute) = (compute(&mut fast), compute(&mut slow));
        // A 2 × 4 block per worker is 8 MACs at the modeled rate; the round
        // waits for the ×200 straggler.
        assert_eq!(fast_compute, 8.0 * avcc_sim::SECONDS_PER_MAC);
        assert_eq!(slow_compute, fast_compute * 200.0);
    }

    #[test]
    fn indivisible_rows_decode_exactly_and_trim() {
        // 22 rows over K = 6 are bands of 4 rows, the last holding the two
        // real rows left and two zero rows; 9 rows over K = 4 are bands of 3,
        // the last all padding. The output is the product, padding cut off.
        for (rows, partitions) in [(22, 6), (9, 4)] {
            let (matrix, inputs) = setup(rows, 4);
            let mut rng = StdRng::seed_from_u64(5);
            let mut engine = UncodedMatVec::<P25>::new(&matrix, partitions, &mut rng);
            assert_eq!(engine.block_rows(), rows.div_ceil(partitions));
            let mut executor = VirtualExecutor::new(ClusterProfile::uniform(partitions));
            let round = engine
                .execute_batch(&inputs, &mut executor, &ByzantineSpec::none(), &mut rng)
                .unwrap();
            assert_eq!(
                round.outputs[0],
                mat_vec(&matrix, &inputs[0]),
                "{rows} rows"
            );
            assert_eq!(round.ops.decode_macs, 0);
        }
    }
}
