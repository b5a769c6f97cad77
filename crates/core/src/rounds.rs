//! Shared round-execution types and helpers used by every scheme engine.
//!
//! One "round" is `m ≥ 1` distributed matrix–vector products over one set of
//! blocks: broadcast the input vectors, have every worker multiply each with
//! its (coded or raw) block, and reconstruct the full products at the master.
//! A training round is the batch of one. The engines differ in how many
//! results they wait for and how they establish integrity; the bookkeeping —
//! who was used, who straggled, what each phase cost — is common and lives
//! here.

use std::sync::Arc;

use avcc_field::{Fp, PrimeModulus};
use avcc_linalg::{mat_vec, Matrix};
use avcc_sim::executor::WorkerOutcome;
use avcc_sim::metrics::{IterationCosts, OpCounts};
use avcc_sim::{NetworkModel, SECONDS_PER_MAC};

/// One worker's share of a dispatched round: the (coded or raw) matrix block
/// the worker holds plus the `m` broadcast input vectors it is applied to —
/// the multi-function shape `X̃·w₁ … X̃·wₘ` that amortizes a single encode.
///
/// Both halves sit behind [`Arc`]s, so the task is cheap to clone and `Send`
/// — an engine can hand the same round out to the [`crate::distributed`]
/// wire bridge or to a multi-job fleet scheduler that runs it on another
/// thread, without the task borrowing the engine (the master needs the
/// engine back, mutably, to collect the results while the tasks are still
/// in flight).
#[derive(Debug, Clone)]
pub struct BatchRoundTask<M: PrimeModulus> {
    /// The worker this task is addressed to.
    pub worker: usize,
    matrix: Arc<Matrix<Fp<M>>>,
    inputs: Arc<Vec<Vec<Fp<M>>>>,
}

impl<M: PrimeModulus> BatchRoundTask<M> {
    /// A task multiplying `matrix` by each of `inputs` at `worker`.
    pub fn new(worker: usize, matrix: Arc<Matrix<Fp<M>>>, inputs: Arc<Vec<Vec<Fp<M>>>>) -> Self {
        BatchRoundTask {
            worker,
            matrix,
            inputs,
        }
    }

    /// One round's tasks over a dataset's per-worker `shares`: worker `i`
    /// gets `shares[i]` and all of `inputs` (shared behind one `Arc`). What
    /// every engine's `dispatch_batch` is.
    pub fn for_shares(shares: &[Arc<Matrix<Fp<M>>>], inputs: &[Vec<Fp<M>>]) -> Vec<Self> {
        let inputs = Arc::new(inputs.to_vec());
        shares
            .iter()
            .enumerate()
            .map(|(worker, share)| Self::new(worker, Arc::clone(share), Arc::clone(&inputs)))
            .collect()
    }

    /// Runs the worker's computation: one block–vector product per function,
    /// in function order.
    pub fn run(&self) -> Vec<Vec<Fp<M>>> {
        self.inputs
            .iter()
            .map(|input| mat_vec(&self.matrix, input))
            .collect()
    }

    /// Number of functions (input vectors) in the batch.
    pub fn functions(&self) -> usize {
        self.inputs.len()
    }

    /// The worker's (coded or raw) matrix block, behind the engine's `Arc`.
    ///
    /// The shared handle (rather than the matrix itself) is exposed so a wire
    /// bridge can both serialize the block *and* fingerprint it by pointer
    /// identity — two dispatches over the same encoded dataset share the
    /// `Arc`, so an unchanged fingerprint proves the blocks already installed
    /// on remote workers are still current.
    pub fn matrix(&self) -> &Arc<Matrix<Fp<M>>> {
        &self.matrix
    }

    /// The `m` broadcast input vectors of this task, in function order.
    pub fn inputs(&self) -> &[Vec<Fp<M>>] {
        &self.inputs
    }
}

/// The outcome of one round: `m` reconstructed products over the shared
/// encoded dataset, plus the common round bookkeeping.
#[derive(Debug, Clone)]
pub struct BatchExecution<M: PrimeModulus> {
    /// The reconstructed per-function products, in function order (each of
    /// length = rows of the full matrix).
    pub outputs: Vec<Vec<Fp<M>>>,
    /// Cost breakdown charged to this round. Compute and communication are
    /// paid once for the whole batch; verification and decoding reflect the
    /// batched check and the `m` per-function decodes.
    pub costs: IterationCosts,
    /// Deterministic operation counts for this round.
    pub ops: OpCounts,
    /// Workers whose results the master actually used for reconstruction.
    pub used_workers: Vec<usize>,
    /// Workers identified as Byzantine during this round.
    pub detected_byzantine: Vec<usize>,
    /// Workers observed to straggle in this round.
    pub observed_stragglers: Vec<usize>,
    /// Workers evicted by the pre-decode dual-codeword screen (run on the
    /// σ-combined claims — see the AVCC engine). Always a subset of
    /// `detected_byzantine`.
    pub screened_workers: Vec<usize>,
    /// Function indices localized as corrupted after a worker failed the
    /// batched check or the screen (sorted, deduplicated): by the
    /// per-function fallback when `m > 1`, by the failed check itself when
    /// there is one function. Empty whenever every examined worker passed.
    pub corrupted_functions: Vec<usize>,
}

/// Errors an engine can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemeFailure {
    /// Not enough usable results to reconstruct the product.
    NotEnoughResults {
        /// Usable results available.
        available: usize,
        /// Results required.
        required: usize,
    },
    /// Decoding failed (propagated from the coding layer).
    DecodeFailed {
        /// Human-readable description.
        details: String,
    },
}

impl std::fmt::Display for SchemeFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemeFailure::NotEnoughResults {
                available,
                required,
            } => write!(
                f,
                "not enough usable worker results: {available} available, {required} required"
            ),
            SchemeFailure::DecodeFailed { details } => write!(f, "decoding failed: {details}"),
        }
    }
}

impl std::error::Error for SchemeFailure {}

impl From<avcc_coding::decoder::DecodeError> for SchemeFailure {
    fn from(error: avcc_coding::decoder::DecodeError) -> Self {
        SchemeFailure::DecodeFailed {
            details: error.to_string(),
        }
    }
}

/// Multiplier above the median arrival time beyond which a worker counts as
/// an *observed* straggler (the adaptive controller's input `S_t`).
pub const STRAGGLER_DETECTION_FACTOR: f64 = 3.0;

/// Identifies observed stragglers from a round's *compute* times: every worker
/// whose compute time exceeds `STRAGGLER_DETECTION_FACTOR ×` the median. The
/// network component is excluded because it is shared by all workers and would
/// otherwise mask compute-side stragglers on small tasks.
pub fn detect_stragglers<T>(outcomes: &[WorkerOutcome<T>]) -> Vec<usize> {
    if outcomes.is_empty() {
        return Vec::new();
    }
    let mut compute_times: Vec<f64> = outcomes.iter().map(|o| o.compute_seconds).collect();
    compute_times.sort_by(|a, b| a.partial_cmp(b).expect("finite compute times"));
    let median = compute_times[compute_times.len() / 2];
    let threshold = median * STRAGGLER_DETECTION_FACTOR;
    outcomes
        .iter()
        .filter(|o| o.compute_seconds > threshold)
        .map(|o| o.worker)
        .collect()
}

/// `true` iff a worker's payload has the dispatched shape: one vector per
/// function, each as long as the worker's block has rows. Anything else is
/// dropped before verification — a worker chooses its payload's shape, and
/// the Freivalds keys and the decoder assume it.
pub(crate) fn has_dispatched_shape<T>(payload: &[Vec<T>], functions: usize, rows: usize) -> bool {
    payload.len() == functions && payload.iter().all(|part| part.len() == rows)
}

/// Assembles a round's cost: compute and communication from the subset of
/// outcomes the master actually waited for, plus the cost of broadcasting the
/// input vector to every worker; verification and decoding are the master's
/// `ops` at [`SECONDS_PER_MAC`], the rate worker compute is modeled at.
pub fn waiting_costs<T>(
    used: &[&WorkerOutcome<T>],
    network: &NetworkModel,
    broadcast_bytes: usize,
    workers: usize,
    ops: &OpCounts,
) -> IterationCosts {
    let compute = used
        .iter()
        .map(|o| o.compute_seconds)
        .fold(0.0f64, f64::max);
    let receive = used
        .iter()
        .map(|o| o.network_seconds)
        .fold(0.0f64, f64::max);
    // The master sends the input vector to every worker before the round; the
    // sends happen back to back on its single link.
    let broadcast = network.transfer_seconds(broadcast_bytes) * workers as f64;
    IterationCosts {
        compute,
        communication: receive + broadcast,
        verification: ops.verify_macs as f64 * SECONDS_PER_MAC,
        decoding: ops.decode_macs as f64 * SECONDS_PER_MAC,
        reconfiguration: 0.0,
    }
}

/// Modeled size of a field vector in bytes: 8 per element, a `u64`
/// representative. The network model stands for the paper's testbed; the
/// socket runtime's wire sends a 25-bit residue in 4.
pub fn field_vector_bytes(len: usize) -> usize {
    len * 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use avcc_field::F25;

    fn outcome(worker: usize, compute: f64, network: f64) -> WorkerOutcome<Vec<F25>> {
        WorkerOutcome {
            worker,
            payload: Vec::new(),
            compute_seconds: compute,
            network_seconds: network,
            arrival_seconds: compute + network,
            corrupted: false,
        }
    }

    #[test]
    fn straggler_detection_flags_late_workers() {
        let outcomes = vec![
            outcome(0, 1.0, 0.1),
            outcome(1, 1.1, 0.1),
            outcome(2, 0.9, 0.1),
            outcome(3, 10.0, 0.1),
        ];
        assert_eq!(detect_stragglers(&outcomes), vec![3]);
    }

    #[test]
    fn no_stragglers_in_a_homogeneous_round() {
        let outcomes = vec![
            outcome(0, 1.0, 0.1),
            outcome(1, 1.2, 0.1),
            outcome(2, 0.8, 0.1),
        ];
        assert!(detect_stragglers(&outcomes).is_empty());
    }

    #[test]
    fn empty_round_has_no_stragglers() {
        let outcomes: Vec<WorkerOutcome<Vec<F25>>> = Vec::new();
        assert!(detect_stragglers(&outcomes).is_empty());
    }

    #[test]
    fn waiting_costs_take_worst_case_over_used_workers() {
        let a = outcome(0, 2.0, 0.2);
        let b = outcome(1, 3.0, 0.1);
        let network = NetworkModel::default();
        let ops = OpCounts {
            worker_macs: 1,
            verify_macs: 10,
            decode_macs: 0,
        };
        let costs = waiting_costs(&[&a, &b], &network, 800, 4, &ops);
        assert!((costs.compute - 3.0).abs() < 1e-12);
        assert!(costs.communication > 0.2);
        assert_eq!(costs.verification, 10.0 * SECONDS_PER_MAC);
        assert_eq!(costs.decoding, 0.0);
    }

    #[test]
    fn field_vector_bytes_counts_eight_per_element() {
        assert_eq!(field_vector_bytes(100), 800);
    }

    #[test]
    fn scheme_failures_render_useful_messages() {
        let failure = SchemeFailure::NotEnoughResults {
            available: 3,
            required: 9,
        };
        assert!(failure.to_string().contains("3 available"));
        let failure = SchemeFailure::DecodeFailed {
            details: "boom".to_string(),
        };
        assert!(failure.to_string().contains("boom"));
    }
}
