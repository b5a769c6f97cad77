//! The wire bridge: the one way a round reaches an [`Executor`] — the
//! trainer's own `VirtualExecutor`, real threads, or real sockets.
//!
//! The executor trait is modulus-erased (blocks and vectors travel as `u64`
//! representatives, because closures cannot cross a process boundary), so
//! this module owns the two conversions:
//!
//! * **down**: a round's tasks become one wire [`Block`] per worker
//!   (installed once per channel) plus per-round input vectors;
//! * **up**: modulus-erased outcomes come back as canonical `u64`s, are
//!   validated back into field elements (non-canonical payloads drop the
//!   worker — the wire layer's invariant, never silently reduced), and the
//!   Byzantine corruption is applied **master-side on arrival**, so fault
//!   injection is executor-independent.
//!
//! Block installation is keyed by *pointer identity* of the engines' shared
//! dataset `Arc`s: dispatching twice over the same encoded dataset reuses the
//! resident remote blocks (rounds then move only input/output vectors, the
//! paper's "data is distributed once" assumption), while an adaptation that
//! re-encodes to a smaller `(N, K)` swaps the `Arc`s — the new blocks are
//! shipped before the next round, which is precisely the re-distribution cost
//! the adaptive controller charges. A channel owns one wire job id for life,
//! so the re-shipped blocks *replace* the superseded ones on the master's
//! respawn cache and on every worker.
//!
//! On top of the runner sits the one iteration driver: [`train_distributed`]
//! runs it on a caller's executor, [`DistributedTrainer::train`] on the
//! trainer's own.

use std::sync::Arc;

use avcc_field::{Fp, PrimeField, PrimeModulus};
use avcc_linalg::Matrix;
use avcc_sim::attack::ByzantineSpec;
use avcc_sim::executor::{Executor, ExecutorError, WorkerOutcome};
use avcc_sim::wire::Block;

use crate::driver::DistributedTrainer;
use crate::report::{IterationRecord, TrainingReport};
use crate::rounds::{has_dispatched_shape, BatchRoundTask, RoundTask, SchemeFailure};

/// Arrival-ordered outcomes of one batched round: per worker, one field
/// vector per function.
pub type BatchOutcomes<M> = Vec<WorkerOutcome<Vec<Vec<Fp<M>>>>>;

/// Errors from running the pipeline over an executor: either the scheme
/// itself failed (not enough usable results, decode failure) or the executor
/// did (unknown job, spawn failure).
#[derive(Debug)]
pub enum DistributedError {
    /// A scheme-level failure (the same errors `train` produces).
    Scheme(SchemeFailure),
    /// An executor-level failure (job bookkeeping, worker spawn).
    Executor(ExecutorError),
}

impl std::fmt::Display for DistributedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistributedError::Scheme(e) => write!(f, "scheme failure: {e}"),
            DistributedError::Executor(e) => write!(f, "executor failure: {e}"),
        }
    }
}

impl std::error::Error for DistributedError {}

impl From<SchemeFailure> for DistributedError {
    fn from(e: SchemeFailure) -> Self {
        DistributedError::Scheme(e)
    }
}

impl From<ExecutorError> for DistributedError {
    fn from(e: ExecutorError) -> Self {
        DistributedError::Executor(e)
    }
}

/// Folds an executor-level failure into the scheme-failure shape callers of
/// `train()` and the serving layer already handle (an executor that cannot
/// run a round cannot decode one).
impl From<DistributedError> for SchemeFailure {
    fn from(error: DistributedError) -> Self {
        match error {
            DistributedError::Scheme(failure) => failure,
            DistributedError::Executor(error) => SchemeFailure::DecodeFailed {
                details: format!("executor failure: {error}"),
            },
        }
    }
}

/// Serializes one worker's matrix block into its wire form.
fn block_of<M: PrimeModulus>(matrix: &Matrix<Fp<M>>) -> Block {
    Block {
        modulus: M::MODULUS,
        rows: matrix.rows() as u32,
        cols: matrix.cols() as u32,
        elements: matrix.data().iter().map(|&v| v.to_u64()).collect(),
    }
}

/// Lowers a field vector to its canonical `u64` representatives.
fn lower<M: PrimeModulus>(v: &[Fp<M>]) -> Vec<u64> {
    v.iter().map(|&x| x.to_u64()).collect()
}

/// Lifts one function's worth of wire output back into field elements, or
/// `None` if any value is non-canonical (`≥ q`) — the wire invariant says
/// such a payload is corrupt and must drop the worker, never be reduced.
fn lift<M: PrimeModulus>(v: &[u64]) -> Option<Vec<Fp<M>>> {
    if v.iter().any(|&x| x >= M::MODULUS) {
        return None;
    }
    Some(v.iter().map(|&x| Fp::<M>::from_u64(x)).collect())
}

/// Drives modulus-typed rounds over a modulus-erased [`Executor`], caching
/// block installation per channel (see the module docs).
///
/// A *channel* is one logical dispatch stream (e.g. "round 1 of this
/// trainer"). Its index is the wire job id its blocks live under.
#[derive(Debug, Default)]
pub struct WireRunner {
    /// Per channel, the `Arc` pointer identity of each worker's block at
    /// install time (`None` = nothing installed yet).
    installed: Vec<Option<Vec<usize>>>,
    next_round: u64,
}

impl WireRunner {
    /// A fresh runner with no blocks installed anywhere.
    pub fn new() -> Self {
        WireRunner::default()
    }

    /// Makes sure the executor has the current blocks for `channel`
    /// installed, shipping them only when the dataset changed (or was never
    /// installed). Returns the wire job id to run rounds under.
    fn ensure_installed<M: PrimeModulus>(
        &mut self,
        executor: &mut dyn Executor,
        channel: usize,
        matrices: &[&Arc<Matrix<Fp<M>>>],
    ) -> Result<u64, ExecutorError> {
        if self.installed.len() <= channel {
            self.installed.resize(channel + 1, None);
        }
        let job = channel as u64;
        let fingerprint: Vec<usize> = matrices.iter().map(|m| Arc::as_ptr(m) as usize).collect();
        if self.installed[channel].as_ref() != Some(&fingerprint) {
            let blocks: Vec<Block> = matrices.iter().map(|m| block_of(m)).collect();
            executor.install_blocks(job, &blocks)?;
            self.installed[channel] = Some(fingerprint);
        }
        Ok(job)
    }

    /// Runs one round (`tasks[i]`, carrying `m` inputs, addressed to worker
    /// `i`): install (if the dataset changed), run the lowered inputs on the
    /// executor, keep the outcomes of the dispatched shape (`m` outputs of
    /// the block's row count each, all canonical), apply the Byzantine
    /// corruption to every function — a
    /// corrupted node does not selectively spare sub-results — and sort by
    /// arrival: the shape the engines' `collect_batch` expects.
    pub fn run_batch_round<M: PrimeModulus>(
        &mut self,
        executor: &mut dyn Executor,
        channel: usize,
        tasks: &[BatchRoundTask<M>],
        byzantine: &ByzantineSpec,
    ) -> Result<BatchOutcomes<M>, ExecutorError> {
        let matrices: Vec<_> = tasks.iter().map(BatchRoundTask::matrix).collect();
        let job = self.ensure_installed(executor, channel, &matrices)?;
        let round = self.next_round;
        self.next_round += 1;
        let inputs: Vec<Vec<Vec<u64>>> = tasks
            .iter()
            .map(|t| t.inputs().iter().map(|v| lower(v)).collect())
            .collect();
        let functions = tasks.first().map_or(0, BatchRoundTask::functions);
        let raw = executor.execute_round(job, round, &inputs)?;
        let mut outcomes: BatchOutcomes<M> = raw
            .into_iter()
            .filter_map(|outcome| {
                let rows = tasks.get(outcome.worker)?.matrix().rows();
                if !has_dispatched_shape(&outcome.payload, functions, rows) {
                    return None;
                }
                let mut payload = outcome
                    .payload
                    .iter()
                    .map(|part| lift::<M>(part))
                    .collect::<Option<Vec<_>>>()?;
                let mut corrupted = false;
                for part in payload.iter_mut() {
                    corrupted |= byzantine.corrupt(outcome.worker, part);
                }
                Some(WorkerOutcome {
                    corrupted,
                    ..outcome.map_payload(|_| payload)
                })
            })
            .collect();
        outcomes.sort_by(|a, b| {
            a.arrival_seconds
                .partial_cmp(&b.arrival_seconds)
                .expect("finite arrival times")
        });
        Ok(outcomes)
    }

    /// Runs one single-function round — a batch of one — and unwraps each
    /// payload: the shape
    /// [`DistributedTrainer::collect_round1`]/`collect_round2` and the
    /// engines' `collect` expect.
    pub fn run_round<M: PrimeModulus>(
        &mut self,
        executor: &mut dyn Executor,
        channel: usize,
        tasks: &[RoundTask<M>],
        byzantine: &ByzantineSpec,
    ) -> Result<Vec<WorkerOutcome<Vec<Fp<M>>>>, ExecutorError> {
        let batch: Vec<BatchRoundTask<M>> = tasks.iter().cloned().map(Into::into).collect();
        let outcomes = self.run_batch_round(executor, channel, &batch, byzantine)?;
        Ok(outcomes
            .into_iter()
            .map(|outcome| outcome.map_payload(|mut parts| parts.remove(0)))
            .collect())
    }
}

/// Channel index used for a trainer's round-1 dispatches.
const CHANNEL_ROUND1: usize = 0;
/// Channel index used for a trainer's round-2 dispatches.
const CHANNEL_ROUND2: usize = 1;

/// Runs the trainer's full configured training loop on `executor`: what
/// [`DistributedTrainer::train`] does on the trainer's own executor, producing
/// a bit-identical model trajectory for any executor whose outcomes carry the
/// same values (all of them — the compute path is the same
/// `avcc_linalg::mat_vec` kernel everywhere, and decode is exact).
///
/// Blocks ship to the workers once up front (and again only after a dynamic
/// re-coding swaps the datasets); each round then moves one input vector per
/// worker down and one output vector per worker back.
///
/// # Graceful degradation under churn
///
/// When a round comes back below the recovery threshold (churned workers
/// absent), the driver does not error: it **parks** the round — re-dispatching
/// the same tasks, each dispatch advancing the executor's round clock so
/// churned workers may have rejoined by the retry — up to the trainer's
/// [stall budget](DistributedTrainer::stall_budget). Exhausting the budget
/// [shrink-recodes](DistributedTrainer::shrink_to_fit) to a smaller `K` that
/// fits the workers actually responding and restarts the iteration on the
/// new code. Decode is exact, so neither path perturbs the model trajectory.
pub fn train_distributed<M: PrimeModulus>(
    trainer: &mut DistributedTrainer<M>,
    executor: &mut dyn Executor,
) -> Result<TrainingReport, DistributedError> {
    let mut runner = WireRunner::new();
    let mut report = TrainingReport::new(trainer.scheme().label(), trainer.scenario_label());
    let mut cumulative = 0.0;
    for iteration in 0..trainer.iterations() {
        let record =
            run_iteration_parked(trainer, executor, &mut runner, iteration, &mut cumulative)?;
        report.push(record);
    }
    Ok(report)
}

/// The iteration driver: both rounds of one training iteration on
/// `executor`, each inside the park / resume / shrink loop (see
/// [`train_distributed`]); a shrink-recode restarts the iteration on the new
/// code. On `Err` the trainer's pipeline is reset.
pub(crate) fn run_iteration_parked<M: PrimeModulus>(
    trainer: &mut DistributedTrainer<M>,
    executor: &mut dyn Executor,
    runner: &mut WireRunner,
    iteration: usize,
    cumulative: &mut f64,
) -> Result<IterationRecord, DistributedError> {
    let result = (|| loop {
        let tasks = trainer.encode_round1();
        let Some(tasks) = run_parked_round(
            trainer,
            executor,
            runner,
            CHANNEL_ROUND1,
            iteration,
            &tasks,
            |trainer, outcomes| trainer.collect_round1(outcomes),
        )?
        else {
            continue;
        };
        let record = run_parked_round(
            trainer,
            executor,
            runner,
            CHANNEL_ROUND2,
            iteration,
            &tasks,
            |trainer, outcomes| trainer.collect_round2(iteration, outcomes, cumulative),
        )?;
        if let Some(record) = record {
            return Ok(record);
        }
    })();
    if result.is_err() {
        trainer.reset_pipeline();
    }
    result
}

/// Dispatches `tasks` until `collect` accepts a round: a below-threshold
/// round is re-dispatched or shrink-recoded as
/// [`DistributedTrainer::park_or_shrink`] decides. `Ok(None)` means the
/// trainer shrink-recoded and the iteration must restart.
fn run_parked_round<M: PrimeModulus, T>(
    trainer: &mut DistributedTrainer<M>,
    executor: &mut dyn Executor,
    runner: &mut WireRunner,
    channel: usize,
    iteration: usize,
    tasks: &[RoundTask<M>],
    mut collect: impl FnMut(
        &mut DistributedTrainer<M>,
        &[WorkerOutcome<Vec<Fp<M>>>],
    ) -> Result<T, SchemeFailure>,
) -> Result<Option<T>, DistributedError> {
    let byzantine = trainer.byzantine().clone();
    let mut stalls = 0usize;
    loop {
        let outcomes = runner.run_round(executor, channel, tasks, &byzantine)?;
        match collect(trainer, &outcomes) {
            Ok(collected) => {
                trainer.note_resumed(iteration, &mut stalls, outcomes.len());
                return Ok(Some(collected));
            }
            Err(failure) => {
                if trainer.park_or_shrink(iteration, &mut stalls, failure)? {
                    return Ok(None);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{SchemeKind, TrainerConfig};
    use crate::problem::TrainingProblem;
    use avcc_coding::SchemeConfig;
    use avcc_field::P25;
    use avcc_ml::dataset::{Dataset, DatasetConfig};
    use avcc_sim::attack::AttackModel;
    use avcc_sim::cluster::ClusterProfile;
    use avcc_sim::executor::{ThreadedExecutor, VirtualExecutor};

    fn small_problem() -> TrainingProblem {
        let dataset = Dataset::gisette_like(DatasetConfig {
            train_samples: 180,
            test_samples: 60,
            features: 27,
            informative: 9,
            ..DatasetConfig::default()
        });
        TrainingProblem::from_dataset(&dataset, 9)
    }

    /// A (12, 9, S=2, M=1) trainer with ×10 `stragglers` and one
    /// constant-attack Byzantine worker.
    fn make_trainer(
        scheme: SchemeKind,
        stragglers: &[usize],
        byzantine: usize,
    ) -> DistributedTrainer<P25> {
        DistributedTrainer::new(
            small_problem(),
            ClusterProfile::uniform(12).with_stragglers(stragglers, 10.0),
            ByzantineSpec::new([byzantine], AttackModel::constant()),
            TrainerConfig {
                iterations: 6,
                time_scale: 1.0,
                ..TrainerConfig::paper_defaults(scheme, SchemeConfig::linear(12, 9, 2, 1).unwrap())
            },
            "bridge-test",
        )
    }

    /// The per-iteration `(accuracy, loss)` trajectory — f64-exact equality
    /// certifies bit-identical models at every step.
    fn trajectory(report: &TrainingReport) -> Vec<(f64, f64)> {
        report
            .iterations
            .iter()
            .map(|r| (r.test_accuracy, r.train_loss))
            .collect()
    }

    #[test]
    fn train_distributed_on_threaded_executor_matches_train() {
        let mut oracle = make_trainer(SchemeKind::StaticVcc, &[0], 3);
        let oracle_report = oracle.train().unwrap();

        let mut trainer = make_trainer(SchemeKind::StaticVcc, &[0], 3);
        let mut executor = ThreadedExecutor::new(trainer.cluster().clone());
        executor.sleep_per_slowdown_unit = 0.002;
        let report = train_distributed(&mut trainer, &mut executor).unwrap();

        assert_eq!(trajectory(&report), trajectory(&oracle_report));
        assert_eq!(trainer.model().weights, oracle.model().weights);
    }

    #[test]
    fn adaptation_ships_new_blocks_before_the_next_round() {
        // Straggler pressure beyond the (S=2) budget forces a re-encode; the
        // runner must detect the swapped dataset Arcs and ship new blocks
        // instead of letting workers compute on stale ones (which decode
        // would reject as garbage).
        let mut trainer = make_trainer(SchemeKind::Avcc, &[0, 1, 2], 4);
        let mut executor = VirtualExecutor::new(trainer.cluster().clone());
        let report = train_distributed(&mut trainer, &mut executor).unwrap();
        assert!(report.reconfiguration_count() >= 1);
        assert!(trainer.current_coding().workers < 12);
        assert!(report.final_accuracy() > 0.5);
    }

    #[test]
    fn non_canonical_payloads_drop_the_worker() {
        // Forge an executor outcome with an out-of-field value: the lift must
        // reject it rather than reduce it into a plausible-looking element.
        assert_eq!(
            lift::<P25>(&[0, 1, P25::MODULUS - 1]).map(|v| v.len()),
            Some(3)
        );
        assert!(lift::<P25>(&[0, P25::MODULUS]).is_none());
        assert!(lift::<P25>(&[u64::MAX]).is_none());
    }
}
