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
use std::time::Duration;

use avcc_field::{map_spans, span_threads, Fp, PrimeField, PrimeModulus};
use avcc_linalg::Matrix;
use avcc_sim::attack::ByzantineSpec;
use avcc_sim::executor::{Executor, ExecutorError, RawOutcome, RoundPoll, WorkerOutcome};
use avcc_sim::wire::Block;

use crate::driver::{DistributedTrainer, TrainingRound};
use crate::report::{IterationRecord, TrainingReport};
use crate::rounds::{
    has_dispatched_shape, BatchRoundTask, SchemeFailure, STRAGGLER_DETECTION_FACTOR,
};

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

/// One wire [`Block`] per matrix: the elements lowered to their canonical
/// `u64`s, one span of blocks per core when the blocks are bulk (the
/// conversions share nothing), inline when they are small.
///
/// Every block's buffer is reserved here, on the calling thread, and only
/// filled on the spans': memory a short-lived thread allocates stays with
/// that thread's allocator arena after both are gone (`train_quiet` read
/// 2.3 MiB more resident that way).
fn blocks_of<M: PrimeModulus>(matrices: &[&Arc<Matrix<Fp<M>>>]) -> Vec<Block> {
    let mut blocks: Vec<Block> = matrices
        .iter()
        .map(|matrix| Block {
            modulus: M::MODULUS,
            rows: matrix.rows() as u32,
            cols: matrix.cols() as u32,
            elements: Vec::with_capacity(matrix.len()),
        })
        .collect();
    let elements = matrices.iter().map(|matrix| matrix.len()).sum();
    let threads = span_threads(matrices.len(), elements);
    let pairs = blocks.iter_mut().zip(matrices).collect();
    map_spans(pairs, threads, |(block, matrix): (&mut Block, _)| {
        block
            .elements
            .extend(matrix.data().iter().map(|&v| v.to_u64()));
    });
    blocks
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
/// block installation per channel (see the module docs). Every round is a
/// batch of `m ≥ 1` functions; a training round is the batch of one.
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
            executor.install_blocks(job, &blocks_of(matrices))?;
            self.installed[channel] = Some(fingerprint);
        }
        Ok(job)
    }

    /// Runs one round (`tasks[i]`, carrying `m` inputs, addressed to worker
    /// `i`) and hands its arrivals to `collect` — the one round body; every
    /// other way to run a round is this with a different `quorum` and
    /// `collect`.
    ///
    /// Install (if the dataset changed), submit the lowered inputs, then poll.
    /// Each arrival is kept only if it has the dispatched shape (`m` outputs
    /// of the block's row count each, all canonical), gets the Byzantine
    /// corruption applied to every function — a corrupted node does not
    /// selectively spare sub-results — and joins the arrival-sorted
    /// `outcomes`: the shape the engines' `collect_batch` expects.
    ///
    /// The round **closes** — `collect(outcomes, late)` is first attempted,
    /// `late` being the workers still awaited — when nobody is awaited, or,
    /// given a `quorum`, once at least that many results are in and
    /// [`STRAGGLER_DETECTION_FACTOR`] × their median arrival time has passed
    /// since submit (on the executor's clock, the one arrival times are
    /// measured on): the master waits for every worker that is not a
    /// straggler by `detect_stragglers`' own yardstick, and for nobody else
    /// (the paper's §IV-B: decode from the fastest results, never wait for a
    /// straggler). If `collect` then reports
    /// [`SchemeFailure::NotEnoughResults`] while workers are still awaited —
    /// a Byzantine payload inside a short prefix — it is retried at each new
    /// arrival; it must leave `outcomes` intact when it fails. Its final
    /// verdict is the inner result, and the round's ticket is retired either
    /// way, so results that arrive later are discarded by the executor.
    ///
    /// An executor without real split-phase rounds returns everything on the
    /// first poll, so `collect` runs exactly once, on exactly the outcomes a
    /// blocking `execute_round` returns.
    pub fn run_streaming_round<M: PrimeModulus, T>(
        &mut self,
        executor: &mut dyn Executor,
        channel: usize,
        tasks: &[BatchRoundTask<M>],
        byzantine: &ByzantineSpec,
        quorum: Option<usize>,
        mut collect: impl FnMut(&mut BatchOutcomes<M>, &[usize]) -> Result<T, SchemeFailure>,
    ) -> Result<Result<T, SchemeFailure>, ExecutorError> {
        let matrices: Vec<_> = tasks.iter().map(BatchRoundTask::matrix).collect();
        let job = self.ensure_installed(executor, channel, &matrices)?;
        let round = self.next_round;
        self.next_round += 1;
        let inputs: Vec<Vec<Vec<u64>>> = tasks
            .iter()
            .map(|t| t.inputs().iter().map(|v| lower(v)).collect())
            .collect();
        let functions = tasks.first().map_or(0, BatchRoundTask::functions);
        let admit = |outcome: RawOutcome| {
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
        };

        let mut ticket = executor.submit_round(job, round, &inputs)?;
        let mut outcomes: BatchOutcomes<M> = Vec::with_capacity(tasks.len());
        let mut closed = false;
        let mut wait = None;
        let verdict = loop {
            let RoundPoll {
                arrivals,
                pending: late,
                elapsed_seconds,
            } = executor.poll_round(&mut ticket, wait);
            let grew = !arrivals.is_empty();
            if grew {
                outcomes.extend(arrivals.into_iter().filter_map(&admit));
                outcomes.sort_by(|a, b| a.arrival_seconds.total_cmp(&b.arrival_seconds));
            }
            wait = None;
            if !late.is_empty() {
                // Someone is still awaited. Before the round has closed, that
                // is fine until a quorum is in and its patience has run out;
                // after, only a new arrival is worth another attempt.
                let quorate = quorum.is_some_and(|quorum| outcomes.len() >= quorum.max(1));
                if !quorate || (closed && !grew) {
                    continue;
                }
                if !closed {
                    let median = outcomes[outcomes.len() / 2].arrival_seconds;
                    let patience = STRAGGLER_DETECTION_FACTOR * median;
                    // Whole nanoseconds, or none: a wait that rounds to zero
                    // would poll without letting any time pass.
                    let remaining = Duration::try_from_secs_f64(patience - elapsed_seconds);
                    if let Some(remaining) = remaining.ok().filter(|wait| !wait.is_zero()) {
                        wait = Some(remaining);
                        continue;
                    }
                }
            }
            closed = true;
            match collect(&mut outcomes, &late) {
                Err(SchemeFailure::NotEnoughResults { .. }) if !late.is_empty() => {}
                verdict => break verdict,
            }
        };
        executor.retire_round(ticket);
        Ok(verdict)
    }

    /// Runs one round to the end — every dispatched worker answered or was
    /// evicted — and returns all outcomes:
    /// [`run_streaming_round`](Self::run_streaming_round) that never closes
    /// early. For callers that collect on their own (the staged trainer API,
    /// the benchmark harness).
    pub fn run_batch_round<M: PrimeModulus>(
        &mut self,
        executor: &mut dyn Executor,
        channel: usize,
        tasks: &[BatchRoundTask<M>],
        byzantine: &ByzantineSpec,
    ) -> Result<BatchOutcomes<M>, ExecutorError> {
        let all = |outcomes: &mut BatchOutcomes<M>, _: &[usize]| Ok(std::mem::take(outcomes));
        let outcomes = self.run_streaming_round(executor, channel, tasks, byzantine, None, all)?;
        Ok(outcomes.unwrap_or_default())
    }

    /// [`run_batch_round`](Self::run_batch_round) under the name the
    /// benchmark harness binds (by name, never by type). Harness
    /// compatibility; remove at the next `benchmark` re-bind.
    pub fn run_round<M: PrimeModulus>(
        &mut self,
        executor: &mut dyn Executor,
        channel: usize,
        tasks: &[BatchRoundTask<M>],
        byzantine: &ByzantineSpec,
    ) -> Result<BatchOutcomes<M>, ExecutorError> {
        self.run_batch_round(executor, channel, tasks, byzantine)
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
            TrainingRound::Round1,
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
            TrainingRound::Round2,
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

/// Dispatches `tasks` until `collect` accepts a round. Each dispatch is one
/// [`WireRunner::run_streaming_round`] that closes once the round's engine
/// can decode; what it did not wait for is reported to the trainer
/// ([`DistributedTrainer::set_late_hint`]) before every collect. `collect`
/// reads the runner's outcomes by reference, so a failed attempt leaves them
/// intact for the retry at the next arrival. A round that stays below
/// threshold with nobody left to wait for is re-dispatched or shrink-recoded
/// as [`DistributedTrainer::park_or_shrink`] decides.
/// `Ok(None)` means the trainer shrink-recoded and the iteration must
/// restart.
fn run_parked_round<M: PrimeModulus, T>(
    trainer: &mut DistributedTrainer<M>,
    executor: &mut dyn Executor,
    runner: &mut WireRunner,
    round: TrainingRound,
    iteration: usize,
    tasks: &[BatchRoundTask<M>],
    mut collect: impl FnMut(
        &mut DistributedTrainer<M>,
        &[WorkerOutcome<Vec<Vec<Fp<M>>>>],
    ) -> Result<T, SchemeFailure>,
) -> Result<Option<T>, DistributedError> {
    let channel = match round {
        TrainingRound::Round1 => CHANNEL_ROUND1,
        TrainingRound::Round2 => CHANNEL_ROUND2,
    };
    let byzantine = trainer.byzantine().clone();
    let mut stalls = 0usize;
    loop {
        let quorum = trainer.round_min_results(round);
        let collected = runner.run_streaming_round(
            executor,
            channel,
            tasks,
            &byzantine,
            Some(quorum),
            |outcomes, late| {
                trainer.set_late_hint(late);
                let collected = collect(trainer, outcomes)?;
                Ok((collected, outcomes.len()))
            },
        )?;
        match collected {
            Ok((collected, responded)) => {
                trainer.note_resumed(iteration, &mut stalls, responded);
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
    use avcc_sim::executor::{RoundTicket, ThreadedExecutor, VirtualExecutor};

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
    fn a_socket_fleet_charges_the_master_on_the_modeled_clock() {
        // Worker seconds on a real fleet are measured; the master's are not:
        // its verification and decoding are the iteration's op counts at the
        // one modeled rate, whatever executor ran the round.
        use avcc_sim::socket::{SocketConfig, SocketExecutor, WorkerBackend};
        use avcc_sim::SECONDS_PER_MAC;
        let mut trainer = make_trainer(SchemeKind::Avcc, &[], 3);
        let config = SocketConfig {
            backend: WorkerBackend::InProcess,
            ..SocketConfig::default()
        };
        let mut fleet = SocketExecutor::with_config(trainer.cluster().clone(), config).unwrap();
        let report = train_distributed(&mut trainer, &mut fleet).unwrap();
        let close = |seconds: f64, macs: u64| {
            let modeled = macs as f64 * SECONDS_PER_MAC;
            (seconds - modeled).abs() <= 1e-12 * modeled
        };
        for record in &report.iterations {
            assert!(record.ops.verify_macs > 0 && record.ops.decode_macs > 0);
            assert!(
                close(record.costs.verification, record.ops.verify_macs),
                "{record:?}"
            );
            assert!(
                close(record.costs.decoding, record.ops.decode_macs),
                "{record:?}"
            );
        }
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

    /// A split-phase test double. Each round runs to the end on the wrapped
    /// executor at submit; its results are then revealed wave by wave:
    /// `waves[i]` names the workers the `i`-th *open-ended* poll reveals (once
    /// the script runs out, everybody left). A poll with a time limit lets
    /// exactly that much time pass on the round's (virtual) clock and reveals
    /// nothing — the script, not the host, decides who is late.
    struct ScriptedExecutor {
        inner: VirtualExecutor,
        waves: Vec<Vec<usize>>,
        next_wave: usize,
        elapsed_seconds: f64,
        held: Vec<RawOutcome>,
        /// Who was still awaited each time a round was retired.
        retired_with_pending: Vec<Vec<usize>>,
    }

    impl ScriptedExecutor {
        fn new(inner: VirtualExecutor, waves: &[&[usize]]) -> Self {
            ScriptedExecutor {
                inner,
                waves: waves.iter().map(|wave| wave.to_vec()).collect(),
                next_wave: 0,
                elapsed_seconds: 0.0,
                held: Vec::new(),
                retired_with_pending: Vec::new(),
            }
        }

        fn pending(&self) -> Vec<usize> {
            let mut pending: Vec<usize> = self.held.iter().map(|o| o.worker).collect();
            pending.sort_unstable();
            pending
        }
    }

    impl Executor for ScriptedExecutor {
        fn workers(&self) -> usize {
            self.inner.workers()
        }
        fn profile(&self) -> &ClusterProfile {
            Executor::profile(&self.inner)
        }
        fn install_blocks(&mut self, job: u64, blocks: &[Block]) -> Result<(), ExecutorError> {
            self.inner.install_blocks(job, blocks)
        }
        fn execute_round(
            &mut self,
            job: u64,
            round: u64,
            inputs: &[Vec<Vec<u64>>],
        ) -> Result<Vec<RawOutcome>, ExecutorError> {
            self.inner.execute_round(job, round, inputs)
        }
        fn submit_round(
            &mut self,
            job: u64,
            round: u64,
            inputs: &[Vec<Vec<u64>>],
        ) -> Result<RoundTicket, ExecutorError> {
            (self.next_wave, self.elapsed_seconds) = (0, 0.0);
            self.inner.submit_round(job, round, inputs)
        }
        fn poll_round(&mut self, ticket: &mut RoundTicket, wait: Option<Duration>) -> RoundPoll {
            self.held
                .extend(self.inner.poll_round(ticket, None).arrivals);
            let mut arrivals = Vec::new();
            match wait {
                Some(wait) => self.elapsed_seconds += wait.as_secs_f64(),
                None => {
                    let wave = self.waves.get(self.next_wave);
                    self.next_wave += 1;
                    let (revealed, held) = std::mem::take(&mut self.held)
                        .into_iter()
                        .partition(|o| wave.is_none_or(|wave| wave.contains(&o.worker)));
                    (arrivals, self.held) = (revealed, held);
                }
            }
            RoundPoll {
                arrivals,
                pending: self.pending(),
                elapsed_seconds: self.elapsed_seconds,
            }
        }
        fn retire_round(&mut self, ticket: RoundTicket) {
            self.retired_with_pending.push(self.pending());
            self.held.clear();
            self.inner.retire_round(ticket);
        }
    }

    #[test]
    fn a_short_prefix_is_retried_at_each_new_arrival_and_the_rest_is_not_awaited() {
        use crate::engines::{AvccMatVec, MatVecEngine};
        use avcc_linalg::mat_vec;
        use rand::SeedableRng;

        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let matrix = Matrix::from_vec(18, 6, avcc_field::random_matrix::<P25, _>(&mut rng, 18, 6));
        let input = avcc_field::random_vector::<P25, _>(&mut rng, 6);
        let coding = SchemeConfig::linear(12, 9, 2, 1).unwrap();
        let mut engine = AvccMatVec::new(&matrix, coding, Default::default(), &mut rng);
        // The first nine results include worker 3's forgery: a quorum, but
        // one verified result short. Worker 9 completes it; 10 and 11 are
        // never waited for.
        let fleet = VirtualExecutor::new(ClusterProfile::uniform(12));
        let first_nine: Vec<usize> = (0..9).collect();
        let mut executor = ScriptedExecutor::new(fleet, &[&first_nine, &[9], &[10], &[11]]);
        let byzantine = ByzantineSpec::new([3], AttackModel::constant());
        let round = engine
            .execute_batch(
                std::slice::from_ref(&input),
                &mut executor,
                &byzantine,
                &mut rng,
            )
            .unwrap();
        assert_eq!(round.outputs[0], mat_vec(&matrix, &input));
        assert_eq!(round.detected_byzantine, [3]);
        let mut used = round.used_workers.clone();
        used.sort_unstable();
        assert_eq!(used, [0, 1, 2, 4, 5, 6, 7, 8, 9]);
        assert!([10, 11]
            .iter()
            .all(|late| round.observed_stragglers.contains(late)));
        assert_eq!(executor.retired_with_pending, [[10, 11]]);
    }

    #[test]
    fn a_forger_inside_the_first_quorum_is_retried_past_on_the_training_path() {
        // Every round's first nine results include worker 3's forgery: the
        // trainer's collect fails one verified result short, and must be
        // retried on the same outcomes plus worker 9's. StaticVcc, so no
        // adaptation re-indexes the fleet between rounds.
        let mut oracle = make_trainer(SchemeKind::StaticVcc, &[], 3);
        let oracle_report = oracle.train().unwrap();

        let mut trainer = make_trainer(SchemeKind::StaticVcc, &[], 3);
        let fleet = VirtualExecutor::new(trainer.cluster().clone());
        let first_nine: Vec<usize> = (0..9).collect();
        let mut executor = ScriptedExecutor::new(fleet, &[&first_nine, &[9], &[10], &[11]]);
        let report = train_distributed(&mut trainer, &mut executor).unwrap();

        assert_eq!(trajectory(&report), trajectory(&oracle_report));
        assert_eq!(executor.retired_with_pending.len(), 2 * report.len());
        assert!(executor
            .retired_with_pending
            .iter()
            .all(|late| late == &[10, 11]));
        for record in &report.iterations {
            assert_eq!(record.detected_byzantine, [3], "{record:?}");
        }
    }

    #[test]
    fn controllers_see_a_cut_off_straggler_as_they_see_a_late_one() {
        let make = || {
            DistributedTrainer::<P25>::new(
                small_problem(),
                ClusterProfile::uniform(12).with_stragglers(&[0], 10.0),
                ByzantineSpec::none(),
                TrainerConfig {
                    iterations: 6,
                    ..TrainerConfig::paper_defaults(
                        SchemeKind::Avcc,
                        SchemeConfig::linear(12, 9, 2, 1).unwrap(),
                    )
                },
                "bridge-test",
            )
        };
        // Waited for, worker 0 is late by its own compute time.
        let mut oracle = make();
        let oracle_report = oracle.train().unwrap();

        // Cut off, it never answers before its round is retired.
        let mut trainer = make();
        let fleet = VirtualExecutor::new(trainer.cluster().clone());
        let everyone_else: Vec<usize> = (1..12).collect();
        let mut executor = ScriptedExecutor::new(fleet, &[&everyone_else, &[0]]);
        let report = train_distributed(&mut trainer, &mut executor).unwrap();

        assert_eq!(trajectory(&report), trajectory(&oracle_report));
        assert_eq!(executor.retired_with_pending.len(), 2 * report.len());
        assert!(executor
            .retired_with_pending
            .iter()
            .all(|late| late == &[0]));
        for report in [&report, &oracle_report] {
            for record in &report.iterations {
                assert!(record.observed_stragglers.contains(&0), "{record:?}");
            }
        }
        // A ×10 straggler inside the S = 2 budget never re-encodes the
        // paper's code, whether it was cut off or waited for.
        let initial = SchemeConfig::linear(12, 9, 2, 1).unwrap();
        for (report, trainer) in [(&report, &trainer), (&oracle_report, &oracle)] {
            assert_eq!(report.reconfiguration_count(), 0);
            assert_eq!(trainer.current_coding(), &initial);
        }
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
