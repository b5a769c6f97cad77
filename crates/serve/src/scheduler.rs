//! The serving scheduler: admission control plus a round-pipelined master
//! loop over the shared fleet.
//!
//! The scheduler owns a bounded submission queue and a fixed number of
//! in-flight slots. Its [`Scheduler::run`] loop is the master of every
//! admitted job at once, driving each through the staged round state machine
//!
//! ```text
//! Encode → Dispatch → Compute (on the fleet) → Verify/Decode → Update
//! ```
//!
//! with the master-side stages of *different jobs* overlapping each other's
//! compute stages. Concretely, one pass of the loop admits queued jobs into
//! free slots, drains every worker result that has arrived, and runs the
//! collect stage of any job whose round has enough arrivals — each collect
//! immediately encodes and dispatches the job's next round, so the fleet
//! never waits on the master for longer than one collect.
//!
//! Two properties the tests pin down:
//!
//! * **Determinism** — a job's final model is bit-identical to the
//!   synchronous driver's, whatever the fleet width or arrival order,
//!   because every scheme decodes the exact product from any sufficient set
//!   of honest results (the Byzantine corruption itself is a deterministic
//!   function of the worker index).
//! * **Retry on short prefixes** — engine collects are retryable: when an
//!   exactly-threshold prefix contains a corrupted result, the collect fails
//!   without consuming state and the scheduler simply waits for one more
//!   arrival, failing the job only when every dispatched result is in.

use std::collections::VecDeque;
use std::fmt;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use avcc_coding::SchemeConfig;
use avcc_core::distributed::BatchOutcomes;
use avcc_core::rounds::field_vector_bytes;
use avcc_core::CodedMatVec;
use avcc_core::{
    BatchRoundTask, DistributedTrainer, MatVecEngine, SchemeFailure, TrainingReport, TrainingRound,
};
use avcc_field::{Fp, PrimeModulus};
use avcc_linalg::Matrix;
use avcc_sim::churn::{ChurnSchedule, ChurnState};
use avcc_sim::cluster::NetworkModel;
use avcc_sim::executor::{slowdown_sleep_seconds, WorkerOutcome};
use avcc_sim::metrics::{JobMetrics, ServingMetrics};
use avcc_verify::KeyGenConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fleet::Fleet;
use crate::job::{CompletedJob, JobId, JobOutput, JobSpec};

/// Admission and pacing knobs of one scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Jobs allowed in flight simultaneously (the pipeline depth). `1`
    /// degenerates to a synchronous one-job-at-a-time schedule.
    pub max_in_flight: usize,
    /// Jobs allowed in the submission queue; [`Scheduler::submit`] rejects
    /// with [`AdmissionError::QueueFull`] beyond this (backpressure).
    pub queue_capacity: usize,
    /// Real seconds a fleet task sleeps per unit of straggler slowdown (see
    /// [`slowdown_sleep_seconds`]) — how the fleet realizes the cluster
    /// profile's stragglers in wall-clock time.
    pub sleep_per_slowdown_unit: f64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_in_flight: 4,
            queue_capacity: 64,
            sleep_per_slowdown_unit: 0.002,
        }
    }
}

impl SchedulerConfig {
    /// One job at a time: the baseline the pipelined schedule is benchmarked
    /// against.
    pub fn synchronous() -> Self {
        SchedulerConfig {
            max_in_flight: 1,
            ..SchedulerConfig::default()
        }
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The submission queue is at capacity; retry after `run` drains it.
    QueueFull {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull { capacity } => {
                write!(f, "submission queue is full ({capacity} jobs)")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Everything one [`Scheduler::run`] produced.
#[derive(Debug, Clone)]
pub struct ServingReport<M: PrimeModulus> {
    /// Every job that finished, ordered by id.
    pub jobs: Vec<CompletedJob<M>>,
    /// Fleet-level throughput and occupancy accounting.
    pub metrics: ServingMetrics,
}

impl<M: PrimeModulus> ServingReport<M> {
    /// The completed job with the given id, if it was part of this run.
    pub fn job(&self, id: JobId) -> Option<&CompletedJob<M>> {
        self.jobs.iter().find(|job| job.id == id)
    }
}

/// A submitted-but-not-yet-admitted job.
struct PendingJob<M: PrimeModulus> {
    id: JobId,
    spec: JobSpec<M>,
    submitted_at: Instant,
}

/// One worker task queued for the fleet's slot threads.
struct FleetTask<M: PrimeModulus> {
    slot: usize,
    serial: u64,
    /// Real seconds of straggler sleep after the product.
    sleep: f64,
    task: BatchRoundTask<M>,
}

/// One worker result in flight from the fleet back to the master.
struct TaskMessage<M: PrimeModulus> {
    slot: usize,
    serial: u64,
    worker: usize,
    payload: Vec<Vec<Fp<M>>>,
    compute_seconds: f64,
}

/// The master-side driver of one admitted job.
enum JobEngine<M: PrimeModulus> {
    Training {
        trainer: Box<DistributedTrainer<M>>,
        report: Box<TrainingReport>,
        iteration: usize,
        cumulative: f64,
        round: TrainingRound,
    },
    /// `m` products over one encode; a `CodedMatVec` job is the batch of one
    /// (`single`), unwrapped into [`JobOutput::MatVec`] at completion.
    MatVecBatch {
        engine: Box<CodedMatVec<M>>,
        inputs: Vec<Vec<Fp<M>>>,
        rng: StdRng,
        single: bool,
    },
}

/// A job occupying an in-flight slot, with its current round's bookkeeping.
struct ActiveJob<M: PrimeModulus> {
    id: JobId,
    engine: JobEngine<M>,
    /// Tag of the round currently on the fleet; results from earlier rounds
    /// of this slot (or earlier occupants) carry older serials and are
    /// discarded as stale.
    serial: u64,
    /// Tasks dispatched for the current round.
    dispatched: usize,
    /// Arrivals the next collect attempt waits for (raised after a retryable
    /// collect failure).
    needed: usize,
    /// Arrival-ordered results of the current round.
    outcomes: BatchOutcomes<M>,
    round_started_at: Instant,
    admitted_at: Instant,
    metrics: JobMetrics,
    /// The current round's tasks (cheap to clone: both halves sit behind
    /// `Arc`s), set by whoever prepares a round and kept so a parked round
    /// can be re-dispatched verbatim.
    tasks: Vec<BatchRoundTask<M>>,
    /// Consecutive re-dispatches of the current parked round.
    stalls: usize,
}

impl<M: PrimeModulus> ActiveJob<M> {
    fn network(&self) -> NetworkModel {
        match &self.engine {
            JobEngine::Training { trainer, .. } => trainer.cluster().network,
            JobEngine::MatVecBatch { .. } => NetworkModel::default(),
        }
    }

    /// Applies the job's Byzantine corruption to every function of a
    /// payload, as [`avcc_core::WireRunner`] does.
    fn corrupt(&self, worker: usize, payload: &mut [Vec<Fp<M>>]) -> bool {
        match &self.engine {
            JobEngine::Training { trainer, .. } => {
                let mut corrupted = false;
                for part in payload {
                    corrupted |= trainer.byzantine().corrupt(worker, part);
                }
                corrupted
            }
            JobEngine::MatVecBatch { .. } => false,
        }
    }

    /// Every worker's effective slowdown right now — snapshotted per
    /// dispatch, so a later adaptation (worker eviction) cannot skew a round
    /// already in flight. One-shot products run on nominal workers;
    /// stragglers and attacks are the training scenarios' concern.
    fn slowdowns(&self) -> Vec<f64> {
        match &self.engine {
            JobEngine::Training { trainer, .. } => {
                let workers = trainer.cluster().workers();
                workers.iter().map(|w| w.effective_slowdown()).collect()
            }
            JobEngine::MatVecBatch { .. } => vec![1.0; self.tasks.len()],
        }
    }
}

/// What one master step did to a collectable job.
enum Step<M: PrimeModulus> {
    /// Put the job's `tasks` on the fleet: the next round after a successful
    /// collect, or a parked round again — one that came back below the
    /// recovery threshold with every dispatched result in (churned workers
    /// absent) is re-dispatched unchanged while the stall budget lasts; each
    /// dispatch advances the churn clock, so absent workers may have rejoined.
    Continue,
    /// The collect failed on a short prefix; wait for one more arrival.
    Wait,
    /// The job finished (successfully or not).
    Done(JobOutput<M>),
}

/// The multi-job serving scheduler. Submit jobs, then [`Scheduler::run`] them
/// to completion on a [`Fleet`].
pub struct Scheduler<M: PrimeModulus> {
    config: SchedulerConfig,
    pending: VecDeque<PendingJob<M>>,
    next_id: JobId,
    churn: Option<ChurnState>,
}

impl<M: PrimeModulus> Scheduler<M> {
    /// A scheduler with the given admission configuration.
    pub fn new(config: SchedulerConfig) -> Self {
        Scheduler {
            config,
            pending: VecDeque::new(),
            next_id: 0,
            churn: None,
        }
    }

    /// Injects a churn schedule over the *logical* worker fleet (the worker
    /// indices jobs dispatch to; any of the [`Fleet`]'s slots may run any
    /// worker's task). The
    /// schedule's clock is the global dispatch counter: every dispatched
    /// round — including re-dispatches of parked rounds — advances it one
    /// tick, so the scheduling is deterministic and wall-clock-free.
    ///
    /// While a worker is down (or inside a corrupt window — the in-process
    /// fleet has no wire checksums, so a corrupting worker is simply not
    /// dispatched to), its tasks are skipped; a stalled worker's sleep is
    /// scaled by the stall multiplier. Training rounds that fall below the
    /// recovery threshold park and re-dispatch up to the trainer's stall
    /// budget, then shrink-recode; see [`DistributedTrainer::shrink_to_fit`].
    pub fn set_churn(&mut self, schedule: ChurnSchedule, workers: usize) {
        self.churn = Some(ChurnState::new(schedule, workers));
    }

    /// The scheduler's configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Number of jobs queued and not yet admitted.
    pub fn pending_jobs(&self) -> usize {
        self.pending.len()
    }

    /// Queues a job, returning its id, or rejects it when the queue is at
    /// capacity (the backpressure signal: retry after a `run`).
    pub fn submit(&mut self, spec: JobSpec<M>) -> Result<JobId, AdmissionError> {
        if self.pending.len() >= self.config.queue_capacity {
            return Err(AdmissionError::QueueFull {
                capacity: self.config.queue_capacity,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push_back(PendingJob {
            id,
            spec,
            submitted_at: Instant::now(),
        });
        Ok(id)
    }

    /// Runs every queued job to completion on the fleet and reports.
    ///
    /// The loop keeps at most [`SchedulerConfig::max_in_flight`] jobs active.
    /// Worker tasks execute on the fleet's `width` slot threads, which live
    /// for this call and take tasks from one queue in dispatch order;
    /// everything master-side (encoding, verification, decoding, model
    /// updates, admission) runs on the calling thread, interleaved across
    /// jobs.
    pub fn run(&mut self, fleet: &Fleet) -> ServingReport<M> {
        let run_started = Instant::now();
        let mut metrics = ServingMetrics {
            fleet_width: fleet.width(),
            ..ServingMetrics::default()
        };
        let mut jobs: Vec<CompletedJob<M>> = Vec::new();
        let mut slots: Vec<Option<ActiveJob<M>>> = (0..self.config.max_in_flight.max(1))
            .map(|_| None)
            .collect();
        let (tx, rx) = mpsc::channel::<TaskMessage<M>>();
        let (queue, queued) = mpsc::channel::<FleetTask<M>>();
        let queued = Mutex::new(queued);
        let mut next_serial: u64 = 0;
        let sleep_per_unit = self.config.sleep_per_slowdown_unit;
        let churn = &mut self.churn;
        let pending = &mut self.pending;

        std::thread::scope(|scope| {
            for _ in 0..fleet.width() {
                let (queued, tx) = (&queued, tx.clone());
                scope.spawn(move || run_slot(queued, &tx));
            }
            // The one way a round reaches the fleet — a job's first round, its
            // next round, or a parked round again: a fresh serial (one tick of
            // the churn clock), an empty arrival list, `job.tasks` dispatched.
            let mut launch = |slot: usize, job: &mut ActiveJob<M>| {
                job.serial = next_serial;
                next_serial += 1;
                if let Some(churn) = churn.as_mut() {
                    churn.advance_to(job.serial);
                }
                job.outcomes.clear();
                job.round_started_at = Instant::now();
                job.dispatched = dispatch_round(
                    &queue,
                    slot,
                    job.serial,
                    sleep_per_unit,
                    job.tasks.clone(),
                    &job.slowdowns(),
                    churn.as_ref(),
                );
                job.needed = job.needed.min(job.dispatched);
            };
            loop {
                let mut progressed = false;

                // Admission: move queued jobs into free slots and dispatch
                // their first rounds.
                for (slot, entry) in slots.iter_mut().enumerate() {
                    if entry.is_some() {
                        continue;
                    }
                    let Some(pending) = pending.pop_front() else {
                        break;
                    };
                    match start_job(pending) {
                        Ok(mut job) => {
                            launch(slot, &mut job);
                            *entry = Some(job);
                        }
                        Err(completed) => {
                            metrics.record_job(&completed.metrics, completed.output.is_failed());
                            jobs.push(completed);
                        }
                    }
                    progressed = true;
                }

                // Drain every result that has arrived, without blocking.
                while let Ok(message) = rx.try_recv() {
                    progressed |= deliver(message, &mut slots, &mut metrics);
                }

                // Master steps: collect any round with enough arrivals, then
                // immediately dispatch that job's next round.
                for (slot, entry) in slots.iter_mut().enumerate() {
                    let Some(mut job) = entry.take() else {
                        continue;
                    };
                    if job.outcomes.len() < job.needed {
                        *entry = Some(job);
                        continue;
                    }
                    match step(&mut job) {
                        Step::Continue => {
                            launch(slot, &mut job);
                            *entry = Some(job);
                            progressed = true;
                        }
                        Step::Wait => {
                            *entry = Some(job);
                        }
                        Step::Done(output) => {
                            job.metrics.active_seconds = job.admitted_at.elapsed().as_secs_f64();
                            metrics.record_job(&job.metrics, output.is_failed());
                            jobs.push(CompletedJob {
                                id: job.id,
                                output,
                                metrics: job.metrics,
                            });
                            progressed = true;
                        }
                    }
                }

                if pending.is_empty() && slots.iter().all(Option::is_none) {
                    break;
                }

                // Nothing to do until another result lands: block briefly.
                // The slot threads keep computing meanwhile.
                if !progressed {
                    if let Ok(message) = rx.recv_timeout(Duration::from_millis(50)) {
                        deliver(message, &mut slots, &mut metrics);
                    }
                }
            }
            // Closing the queue lets the slot threads exit once they have run
            // what is still on it.
            drop(queue);
        });

        // Straggler tasks of already-collected rounds finish before the
        // scope exits; their slot time still counts toward occupancy.
        while let Ok(message) = rx.try_recv() {
            metrics.busy_worker_seconds += message.compute_seconds;
        }

        metrics.span_seconds = run_started.elapsed().as_secs_f64();
        jobs.sort_by_key(|job| job.id);
        ServingReport { jobs, metrics }
    }
}

/// Builds the master-side driver for a freshly admitted job, its first
/// round's tasks ready to launch, or completes it immediately
/// (zero-iteration training).
fn start_job<M: PrimeModulus>(pending: PendingJob<M>) -> Result<ActiveJob<M>, CompletedJob<M>> {
    let queue_wait_seconds = pending.submitted_at.elapsed().as_secs_f64();
    let metrics = JobMetrics {
        queue_wait_seconds,
        ..JobMetrics::default()
    };
    let (engine, tasks, needed) = match pending.spec {
        JobSpec::Training(config) => {
            let mut trainer = Box::new(config.build_trainer::<M>());
            let report = Box::new(TrainingReport::new(
                trainer.scheme().label(),
                trainer.scenario_label(),
            ));
            if trainer.iterations() == 0 {
                return Err(CompletedJob {
                    id: pending.id,
                    output: JobOutput::Training(report),
                    metrics,
                });
            }
            let tasks = trainer.encode_round1();
            let needed = trainer.round_min_results(TrainingRound::Round1);
            (
                JobEngine::Training {
                    trainer,
                    report,
                    iteration: 0,
                    cumulative: 0.0,
                    round: TrainingRound::Round1,
                },
                tasks,
                needed,
            )
        }
        // A single product is a batch of one.
        JobSpec::CodedMatVec {
            matrix,
            input,
            coding,
            seed,
        } => start_matmul(&matrix, vec![input], coding, seed, true),
        JobSpec::MatMulBatch {
            matrix,
            inputs,
            coding,
            seed,
        } => start_matmul(&matrix, inputs, coding, seed, false),
    };
    let now = Instant::now();
    Ok(ActiveJob {
        id: pending.id,
        engine,
        serial: 0,
        dispatched: tasks.len(),
        needed,
        outcomes: Vec::new(),
        round_started_at: now,
        admitted_at: now,
        metrics,
        tasks,
        stalls: 0,
    })
}

/// The driver and single round of a one-shot product job: one encode and one
/// key set shared by the `m` inputs.
fn start_matmul<M: PrimeModulus>(
    matrix: &Matrix<Fp<M>>,
    inputs: Vec<Vec<Fp<M>>>,
    coding: SchemeConfig,
    seed: u64,
    single: bool,
) -> (JobEngine<M>, Vec<BatchRoundTask<M>>, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let engine = Box::new(CodedMatVec::new(
        matrix,
        coding,
        KeyGenConfig { repetitions: 1 },
        &mut rng,
    ));
    let tasks = engine.dispatch_batch(&inputs);
    let needed = engine.min_results();
    let engine = JobEngine::MatVecBatch {
        engine,
        inputs,
        rng,
        single,
    };
    (engine, tasks, needed)
}

/// Queues one round's tasks for the fleet, each tagged with its worker's
/// straggler sleep. Tasks addressed to churned-down (or corrupt-window)
/// workers are skipped entirely — those workers are silently absent from the
/// round. Returns the number of tasks dispatched.
fn dispatch_round<M: PrimeModulus>(
    queue: &Sender<FleetTask<M>>,
    slot: usize,
    serial: u64,
    sleep_per_unit: f64,
    tasks: Vec<BatchRoundTask<M>>,
    slowdowns: &[f64],
    churn: Option<&ChurnState>,
) -> usize {
    let mut count = 0;
    for task in tasks {
        let worker = task.worker;
        if let Some(churn) = churn {
            if churn.is_down(worker) || churn.is_corrupting(worker) {
                continue;
            }
        }
        count += 1;
        let slowdown = slowdowns.get(worker).copied().unwrap_or(1.0)
            * churn.map_or(1.0, |c| c.slowdown_multiplier(worker));
        let sleep = slowdown_sleep_seconds(slowdown, sleep_per_unit);
        // The receiving end lives as long as `Scheduler::run`.
        let _ = queue.send(FleetTask {
            slot,
            serial,
            sleep,
            task,
        });
    }
    count
}

/// One fleet slot: takes queued tasks one at a time until the queue closes.
/// Each computes its share product, sleeps out its worker's straggler
/// slowdown, and sends the tagged result back to the scheduler.
fn run_slot<M: PrimeModulus>(
    queued: &Mutex<Receiver<FleetTask<M>>>,
    results: &Sender<TaskMessage<M>>,
) {
    loop {
        // The guard is a temporary of this statement: the lock is released
        // before the task runs.
        let Ok(next) = queued.lock().expect("fleet queue lock poisoned").recv() else {
            return;
        };
        let started = Instant::now();
        let payload = next.task.run();
        if next.sleep > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(next.sleep));
        }
        let compute_seconds = started.elapsed().as_secs_f64();
        // The receiving end lives as long as `Scheduler::run`.
        let _ = results.send(TaskMessage {
            slot: next.slot,
            serial: next.serial,
            worker: next.task.worker,
            payload,
            compute_seconds,
        });
    }
}

/// Routes one arrived result to its round, applying the job's Byzantine
/// corruption and network model on the way (the same master-side accounting
/// [`avcc_sim::executor::ThreadedExecutor`] performs for a single round).
/// Stale results — from rounds already collected — only count toward slot
/// occupancy. Returns `true` iff the result joined a live round.
fn deliver<M: PrimeModulus>(
    message: TaskMessage<M>,
    slots: &mut [Option<ActiveJob<M>>],
    metrics: &mut ServingMetrics,
) -> bool {
    metrics.busy_worker_seconds += message.compute_seconds;
    let Some(job) = slots[message.slot].as_mut() else {
        return false;
    };
    if job.serial != message.serial {
        return false;
    }
    let mut payload = message.payload;
    let corrupted = job.corrupt(message.worker, &mut payload);
    let elements = payload.iter().map(Vec::len).sum();
    let network_seconds = job.network().transfer_seconds(field_vector_bytes(elements));
    let arrival_seconds = job.round_started_at.elapsed().as_secs_f64() + network_seconds;
    job.outcomes.push(WorkerOutcome {
        worker: message.worker,
        payload,
        compute_seconds: message.compute_seconds,
        network_seconds,
        arrival_seconds,
        corrupted,
    });
    true
}

/// Runs the collect stage of a job whose round has enough arrivals, and
/// prepares the next round. Collect failures on a short prefix raise the
/// arrival target instead of failing the job (the engines guarantee a failed
/// collect consumes no state). With every dispatched result already in, a
/// training round parks or shrink-recodes as
/// [`DistributedTrainer::park_or_shrink`] decides — re-dispatching the same
/// round while the stall budget lasts (the churn clock advances per dispatch,
/// so absent workers may rejoin), then restarting the iteration on a smaller
/// `K` — and a one-shot job fails.
fn step<M: PrimeModulus>(job: &mut ActiveJob<M>) -> Step<M> {
    let failure = match collect_stage(job) {
        Ok(step) => return step,
        Err(failure) => failure,
    };
    if job.outcomes.len() < job.dispatched {
        job.needed = job.outcomes.len() + 1;
        return Step::Wait;
    }
    let JobEngine::Training {
        trainer,
        iteration,
        round,
        ..
    } = &mut job.engine
    else {
        return Step::Done(JobOutput::Failed(failure));
    };
    let SchemeFailure::NotEnoughResults { required, .. } = failure else {
        return Step::Done(JobOutput::Failed(failure));
    };
    match trainer.park_or_shrink(*iteration, &mut job.stalls, failure) {
        // Parked: the same tasks again.
        Ok(false) => {
            job.needed = required;
            Step::Continue
        }
        // Shrink-recoded: restart the iteration on the new code.
        Ok(true) => {
            *round = TrainingRound::Round1;
            job.needed = trainer.round_min_results(TrainingRound::Round1);
            job.tasks = trainer.encode_round1();
            Step::Continue
        }
        Err(failure) => Step::Done(JobOutput::Failed(failure)),
    }
}

/// The collect half of [`step`]: `Ok` is what a successful collect leads to,
/// `Err` the engine's failure with the job's state untouched.
fn collect_stage<M: PrimeModulus>(job: &mut ActiveJob<M>) -> Result<Step<M>, SchemeFailure> {
    match &mut job.engine {
        JobEngine::Training {
            trainer,
            report,
            iteration,
            cumulative,
            round,
        } => match round {
            TrainingRound::Round1 => {
                job.tasks = trainer.collect_round1(&job.outcomes)?;
                trainer.note_resumed(*iteration, &mut job.stalls, job.outcomes.len());
                job.metrics.rounds += 1;
                *round = TrainingRound::Round2;
                job.needed = trainer.round_min_results(TrainingRound::Round2);
                Ok(Step::Continue)
            }
            TrainingRound::Round2 => {
                let record = trainer.collect_round2(*iteration, &job.outcomes, cumulative)?;
                trainer.note_resumed(*iteration, &mut job.stalls, job.outcomes.len());
                job.metrics.rounds += 1;
                job.metrics.ops = job.metrics.ops.combined(&record.ops);
                job.metrics.screened_workers += record.screened_workers.len() as u64;
                report.push(record);
                *iteration += 1;
                if *iteration >= trainer.iterations() {
                    let finished = std::mem::replace(report, Box::new(TrainingReport::new("", "")));
                    return Ok(Step::Done(JobOutput::Training(finished)));
                }
                job.tasks = trainer.encode_round1();
                *round = TrainingRound::Round1;
                job.needed = trainer.round_min_results(TrainingRound::Round1);
                Ok(Step::Continue)
            }
        },
        JobEngine::MatVecBatch {
            engine,
            inputs,
            rng,
            single,
        } => {
            let mut execution =
                engine.collect_batch(inputs, &job.outcomes, &NetworkModel::default(), 1.0, rng)?;
            job.metrics.rounds += 1;
            job.metrics.ops = job.metrics.ops.combined(&execution.ops);
            job.metrics.screened_workers += execution.screened_workers.len() as u64;
            Ok(Step::Done(if *single {
                JobOutput::MatVec(execution.outputs.remove(0))
            } else {
                JobOutput::MatVecBatch(execution.outputs)
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avcc_core::{ExperimentConfig, FaultScenario};
    use avcc_field::{PrimeField, P25};
    use avcc_linalg::mat_vec;
    use avcc_ml::dataset::DatasetConfig;
    use avcc_sim::attack::AttackModel;
    use rand::Rng;

    type F = avcc_field::F25;

    fn quick_training(scheme: avcc_core::SchemeKind, iterations: usize) -> ExperimentConfig {
        let scenario = FaultScenario::paper(1, 1, AttackModel::constant());
        let mut config = match scheme {
            avcc_core::SchemeKind::Uncoded => ExperimentConfig::paper_uncoded(scenario),
            avcc_core::SchemeKind::Lcc => ExperimentConfig::paper_lcc(scenario),
            _ => ExperimentConfig::paper_avcc(2, 1, scenario),
        };
        config.iterations = iterations;
        config.dataset = DatasetConfig {
            train_samples: 180,
            test_samples: 60,
            features: 27,
            informative: 9,
            ..DatasetConfig::default()
        };
        config
    }

    #[test]
    fn submit_rejects_past_queue_capacity() {
        let mut scheduler = Scheduler::<P25>::new(SchedulerConfig {
            queue_capacity: 2,
            ..SchedulerConfig::default()
        });
        let spec = || JobSpec::Training(quick_training(avcc_core::SchemeKind::Avcc, 1));
        assert_eq!(scheduler.submit(spec()), Ok(0));
        assert_eq!(scheduler.submit(spec()), Ok(1));
        assert_eq!(
            scheduler.submit(spec()),
            Err(AdmissionError::QueueFull { capacity: 2 })
        );
        assert_eq!(scheduler.pending_jobs(), 2);
    }

    #[test]
    fn admission_error_is_a_readable_error() {
        let error = AdmissionError::QueueFull { capacity: 8 };
        assert!(error.to_string().contains("8"));
        let _: &dyn std::error::Error = &error;
    }

    #[test]
    fn synchronous_config_runs_one_job_at_a_time() {
        let config = SchedulerConfig::synchronous();
        assert_eq!(config.max_in_flight, 1);
        assert!(config.queue_capacity > 1);
    }

    #[test]
    fn training_job_matches_the_synchronous_driver() {
        // The per-iteration accuracy/loss trajectory is a function of the
        // model weights alone, so f64 equality here certifies bit-identical
        // models between the pipelined scheduler and `train()`.
        let config = quick_training(avcc_core::SchemeKind::Avcc, 3);
        let oracle = config.build_trainer::<P25>().train().unwrap();

        let fleet = Fleet::new(2);
        let mut scheduler = Scheduler::<P25>::new(SchedulerConfig::default());
        let id = scheduler.submit(JobSpec::Training(config)).unwrap();
        let report = scheduler.run(&fleet);

        assert_eq!(report.metrics.jobs_completed, 1);
        assert_eq!(report.metrics.jobs_failed, 0);
        let job = report.job(id).expect("job must be reported");
        let JobOutput::Training(served) = &job.output else {
            panic!("training job must produce a training report");
        };
        assert_eq!(served.len(), oracle.len());
        for (served, oracle) in served.iterations.iter().zip(&oracle.iterations) {
            assert_eq!(served.test_accuracy, oracle.test_accuracy);
            assert_eq!(served.train_loss, oracle.train_loss);
        }
        // Two rounds per iteration, op counts accumulated across all of them.
        assert_eq!(job.metrics.rounds, 2 * oracle.len());
        assert!(job.metrics.ops.total() > 0);
    }

    #[test]
    fn matvec_job_decodes_the_exact_product() {
        let mut rng = StdRng::seed_from_u64(7);
        let rows = 24;
        let cols = 10;
        let matrix = Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|_| F::from_u64(rng.gen_range(0..F::MODULUS)))
                .collect::<Vec<F>>(),
        );
        let input: Vec<F> = (0..cols)
            .map(|_| F::from_u64(rng.gen_range(0..F::MODULUS)))
            .collect();
        let expected = mat_vec(&matrix, &input);

        let fleet = Fleet::new(2);
        let mut scheduler = Scheduler::<P25>::new(SchedulerConfig::default());
        let id = scheduler
            .submit(JobSpec::CodedMatVec {
                matrix,
                input,
                coding: SchemeConfig::linear(12, 8, 2, 1).unwrap(),
                seed: 99,
            })
            .unwrap();
        let report = scheduler.run(&fleet);
        let JobOutput::MatVec(output) = &report.job(id).unwrap().output else {
            panic!("matvec job must produce a product");
        };
        assert_eq!(output, &expected);
        assert_eq!(report.metrics.rounds_total, 1);
    }

    #[test]
    fn zero_iteration_training_completes_immediately() {
        let fleet = Fleet::new(1);
        let mut scheduler = Scheduler::<P25>::new(SchedulerConfig::default());
        let id = scheduler
            .submit(JobSpec::Training(quick_training(
                avcc_core::SchemeKind::Avcc,
                0,
            )))
            .unwrap();
        let report = scheduler.run(&fleet);
        let JobOutput::Training(served) = &report.job(id).unwrap().output else {
            panic!("training job must produce a training report");
        };
        assert_eq!(served.len(), 0);
        assert_eq!(report.metrics.jobs_completed, 1);
    }

    #[test]
    fn serving_metrics_account_for_queue_and_occupancy() {
        let fleet = Fleet::new(2);
        let mut scheduler = Scheduler::<P25>::new(SchedulerConfig::default());
        for _ in 0..3 {
            scheduler
                .submit(JobSpec::Training(quick_training(
                    avcc_core::SchemeKind::Uncoded,
                    2,
                )))
                .unwrap();
        }
        let report = scheduler.run(&fleet);
        assert_eq!(report.metrics.jobs_completed, 3);
        assert_eq!(report.metrics.rounds_total, 3 * 2 * 2);
        assert!(report.metrics.span_seconds > 0.0);
        assert!(report.metrics.busy_worker_seconds > 0.0);
        assert!(report.metrics.pipeline_occupancy() > 0.0);
        assert!(report.metrics.jobs_per_second() > 0.0);
        // Jobs were all submitted before the run, so the later ones waited.
        assert!(report.metrics.queue_wait_total_seconds >= 0.0);
        for job in &report.jobs {
            assert!(job.metrics.active_seconds > 0.0);
            assert!(job.metrics.rounds_per_second() > 0.0);
        }
    }

    #[test]
    fn a_fleet_computes_at_most_width_tasks_at_once() {
        // Three uncoded jobs, each with two ×8 stragglers sleeping 14 ms per
        // task: sleeps dominate, and up to six of them want a slot at once.
        // Summed task time fits inside `span × width` only if no more than
        // `width` tasks ever ran together.
        for width in [1, 2] {
            let mut scheduler = Scheduler::<P25>::new(SchedulerConfig::default());
            for _ in 0..3 {
                let mut config = quick_training(avcc_core::SchemeKind::Uncoded, 2);
                config.scenario = FaultScenario::paper(2, 0, AttackModel::None);
                scheduler.submit(JobSpec::Training(config)).unwrap();
            }
            let metrics = scheduler.run(&Fleet::new(width)).metrics;
            assert_eq!(metrics.jobs_completed, 3);
            // The raw sum: `pipeline_occupancy` clamps at 1.
            let capacity = metrics.span_seconds * width as f64;
            assert!(
                metrics.busy_worker_seconds <= capacity * (1.0 + 1e-6),
                "width {width}: {} busy slot-seconds in {capacity} available",
                metrics.busy_worker_seconds
            );
        }
    }
}
