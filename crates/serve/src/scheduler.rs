//! The serving scheduler: admission control plus one thread per in-flight
//! job over the shared fleet.
//!
//! The scheduler owns a bounded submission queue. Its [`Scheduler::run`]
//! starts [`SchedulerConfig::max_in_flight`] job threads next to the fleet's
//! slot threads. Each job thread takes the next queued job, in submission
//! order, and steps its `Job` to completion through the one job loop
//! [`crate::serve_distributed`] runs too —
//!
//! ```text
//! Encode → Dispatch → Compute (on the fleet) → Verify/Decode → Update
//! ```
//!
//! — so the master-side stages of *different jobs* overlap each other's
//! compute stages. A fleet round queues the job's tasks, each carrying a
//! sender of that round's own reply channel and a weak handle on the round's
//! token, and collects once enough results are in. When the round ends its
//! token and its receiver go: a task still queued is skipped, and a
//! straggler that answers late answers nobody. A round that is short with
//! nothing left to arrive goes to `Job::stall`: a training run parks (the
//! same tasks again, then `required` arrivals awaited) or shrink-recodes; a
//! product job fails. A task that panics is a result that never comes, so
//! its round ends that way too, in bounded time.
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
//!   without consuming state and the round simply waits for one more
//!   arrival, stalling only when nothing more can arrive.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use avcc_core::rounds::field_vector_bytes;
use avcc_core::{BatchRoundTask, SchemeFailure, Stall};
use avcc_field::{Fp, PrimeModulus};
use avcc_sim::churn::{ChurnSchedule, ChurnState};
use avcc_sim::cluster::ClusterProfile;
use avcc_sim::executor::{slowdown_sleep_seconds, WorkerOutcome};
use avcc_sim::metrics::ServingMetrics;

use crate::fleet::Fleet;
use crate::job::{CompletedJob, Job, JobId, JobSpec};

/// Real seconds a fleet task sleeps per unit of straggler slowdown (see
/// [`slowdown_sleep_seconds`]) — how the fleet realizes the cluster
/// profile's stragglers in wall-clock time.
const SLEEP_PER_SLOWDOWN_UNIT: f64 = 0.002;

/// Admission knobs of one scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Jobs allowed in flight simultaneously (the pipeline depth). `1`
    /// degenerates to a synchronous one-job-at-a-time schedule.
    pub max_in_flight: usize,
    /// Jobs allowed in the submission queue; [`Scheduler::submit`] rejects
    /// with [`AdmissionError::QueueFull`] beyond this (backpressure).
    pub queue_capacity: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_in_flight: 4,
            queue_capacity: 64,
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
    /// Real seconds of straggler sleep after the product.
    sleep: f64,
    task: BatchRoundTask<M>,
    /// The reply channel of the round that dispatched the task.
    reply: Sender<TaskMessage<M>>,
    /// The token of that round, alive while the round is.
    round: Weak<()>,
}

/// One worker result on its way back to its round.
struct TaskMessage<M: PrimeModulus> {
    worker: usize,
    payload: Vec<Vec<Fp<M>>>,
    compute_seconds: f64,
}

/// The churn schedule of one run and its clock, shared by the job threads.
struct ChurnClock<'a> {
    state: Option<&'a mut ChurnState>,
    /// Rounds dispatched so far in this run.
    ticks: u64,
}

impl ChurnClock<'_> {
    /// Advances the clock one tick — one dispatched round — and returns the
    /// schedule's state at it.
    fn tick(&mut self) -> Option<&ChurnState> {
        let tick = self.ticks;
        self.ticks += 1;
        let state = self.state.as_deref_mut()?;
        state.advance_to(tick);
        Some(state)
    }
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
    /// budget, then shrink-recode; see [`avcc_core::TrainingRun::stall`].
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
    /// [`SchedulerConfig::max_in_flight`] job threads each serve one queued
    /// job at a time, master side included (encoding, verification,
    /// decoding, model updates). Worker tasks execute on the fleet's `width`
    /// slot threads, which take them from one queue in dispatch order. All
    /// of these threads live for this call.
    pub fn run(&mut self, fleet: &Fleet) -> ServingReport<M> {
        let run_started = Instant::now();
        let depth = self.config.max_in_flight.max(1);
        let pending = Mutex::new(&mut self.pending);
        let churn = Mutex::new(ChurnClock {
            state: self.churn.as_mut(),
            ticks: 0,
        });
        let (pending, churn) = (&pending, &churn);
        let (queue, queued) = mpsc::channel::<FleetTask<M>>();
        let queued = Mutex::new(queued);

        let (mut jobs, busy_worker_seconds) = std::thread::scope(|scope| {
            let slots: Vec<_> = (0..fleet.width())
                .map(|_| scope.spawn(|| run_slot(&queued)))
                .collect();
            let servers: Vec<_> = (0..depth)
                .map(|_| {
                    let queue = queue.clone();
                    scope.spawn(move || serve_jobs(pending, &queue, churn))
                })
                .collect();
            // The slot threads exit once every job thread has dropped its
            // sender and the queue is empty.
            drop(queue);
            let jobs: Vec<CompletedJob<M>> = servers
                .into_iter()
                .flat_map(|server| server.join().expect("a job thread panicked"))
                .collect();
            let busy: f64 = slots
                .into_iter()
                .map(|slot| slot.join().expect("a slot thread panicked"))
                .sum();
            (jobs, busy)
        });

        jobs.sort_by_key(|job| job.id);
        let mut metrics = ServingMetrics {
            fleet_width: fleet.width(),
            busy_worker_seconds,
            ..ServingMetrics::default()
        };
        for job in &jobs {
            metrics.record_job(&job.metrics, job.output.is_failed());
        }
        metrics.span_seconds = run_started.elapsed().as_secs_f64();
        ServingReport { jobs, metrics }
    }
}

/// One job thread: serves queued jobs one at a time, in submission order,
/// until none is left (queue wait ends when the job is taken).
fn serve_jobs<M: PrimeModulus>(
    pending: &Mutex<&mut VecDeque<PendingJob<M>>>,
    queue: &Sender<FleetTask<M>>,
    churn: &Mutex<ChurnClock<'_>>,
) -> Vec<CompletedJob<M>> {
    let mut served = Vec::new();
    loop {
        // The guard is a temporary of this statement: the lock is released
        // before the job runs.
        let Some(next) = pending.lock().expect("job queue lock poisoned").pop_front() else {
            return served;
        };
        let job = Job::new(next.spec, next.submitted_at.elapsed().as_secs_f64());
        // Arrivals a parked round waits for when it is dispatched again.
        let mut parked = None;
        served.push(job.serve(next.id, |job| {
            let needed = parked.take().unwrap_or_else(|| job.min_results());
            let tasks = job.tasks().to_vec();
            parked = fleet_round(job, tasks, needed, queue, churn)?;
            Ok(())
        }));
    }
}

/// One round of `job` on the fleet: ticks the churn clock, queues `tasks`
/// with this round's reply channel and token, and collects once `needed`
/// results are in. Returns the arrivals the next round waits for if this one
/// parked.
///
/// The scheduler names no late workers: on a fleet narrower than the job, a
/// task that has not answered is queued, not straggling.
fn fleet_round<M: PrimeModulus>(
    job: &mut Job<M>,
    tasks: Vec<BatchRoundTask<M>>,
    needed: usize,
    queue: &Sender<FleetTask<M>>,
    churn: &Mutex<ChurnClock<'_>>,
) -> Result<Option<usize>, SchemeFailure> {
    let started = Instant::now();
    let (reply, arrivals) = mpsc::channel();
    // Dropped on return, when the round is over.
    let token = Arc::new(());
    let dispatched = {
        let mut clock = churn.lock().expect("churn clock lock poisoned");
        dispatch_round(queue, &reply, &token, tasks, job.fleet().0, clock.tick())
    };
    drop(reply);
    let mut needed = needed.min(dispatched);
    let mut outcomes = Vec::new();
    let mut closed = false;
    loop {
        while outcomes.len() < needed && !closed {
            match arrivals.recv() {
                Ok(message) => outcomes.push(arrival(job, message, started)),
                // Every task has run; the ones missing panicked.
                Err(_) => closed = true,
            }
        }
        match job.collect(&outcomes, &[]) {
            Ok(()) => return Ok(None),
            // A short prefix (a corrupt result inside it): one more arrival
            // may complete it.
            Err(_) if !closed && outcomes.len() < dispatched => needed = outcomes.len() + 1,
            // Nothing more can arrive: the same tasks again, or round 1 on
            // a smaller code.
            Err(failure) => {
                return match job.stall(failure)? {
                    Stall::Parked { required } => Ok(Some(required)),
                    Stall::ShrinkRecoded => Ok(None),
                }
            }
        }
    }
}

/// Queues one round's tasks for the fleet, each tagged with its worker's
/// straggler sleep and the round's reply channel and token. Tasks addressed
/// to churned-down (or corrupt-window) workers are skipped entirely — those
/// workers are silently absent from the round. Returns the number of tasks
/// dispatched.
fn dispatch_round<M: PrimeModulus>(
    queue: &Sender<FleetTask<M>>,
    reply: &Sender<TaskMessage<M>>,
    token: &Arc<()>,
    tasks: Vec<BatchRoundTask<M>>,
    cluster: &ClusterProfile,
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
        let slowdown = cluster
            .workers()
            .get(worker)
            .map_or(1.0, |w| w.effective_slowdown())
            * churn.map_or(1.0, |c| c.slowdown_multiplier(worker));
        let sleep = slowdown_sleep_seconds(slowdown, SLEEP_PER_SLOWDOWN_UNIT);
        // The slot threads live as long as `Scheduler::run`.
        let _ = queue.send(FleetTask {
            sleep,
            task,
            reply: reply.clone(),
            round: Arc::downgrade(token),
        });
    }
    count
}

/// One fleet slot: runs queued tasks one at a time until the queue closes,
/// and returns the seconds it was busy. Each task computes its share
/// product, sleeps out its worker's straggler slowdown, and sends the result
/// to its round. A task whose round is already over is skipped: no product,
/// no sleep, no busy time. A task that panics sends nothing, and the slot
/// goes on.
fn run_slot<M: PrimeModulus>(queued: &Mutex<Receiver<FleetTask<M>>>) -> f64 {
    let mut busy_seconds = 0.0;
    loop {
        // The guard is a temporary of this statement: the lock is released
        // before the task runs.
        let Ok(next) = queued.lock().expect("fleet queue lock poisoned").recv() else {
            return busy_seconds;
        };
        if next.round.strong_count() == 0 {
            continue;
        }
        let started = Instant::now();
        let payload = panic::catch_unwind(AssertUnwindSafe(|| next.task.run()));
        if next.sleep > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(next.sleep));
        }
        let compute_seconds = started.elapsed().as_secs_f64();
        busy_seconds += compute_seconds;
        if let Ok(payload) = payload {
            // A round that is over has dropped its receiver: the result is
            // discarded.
            let _ = next.reply.send(TaskMessage {
                worker: next.task.worker,
                payload,
                compute_seconds,
            });
        }
    }
}

/// One arrived result as its round sees it: the job's Byzantine corruption
/// and network model applied (the same master-side accounting
/// [`avcc_sim::executor::ThreadedExecutor`] performs for a single round).
fn arrival<M: PrimeModulus>(
    job: &Job<M>,
    message: TaskMessage<M>,
    round_started: Instant,
) -> WorkerOutcome<Vec<Vec<Fp<M>>>> {
    let TaskMessage {
        worker,
        mut payload,
        compute_seconds,
    } = message;
    let (cluster, byzantine) = job.fleet();
    let mut corrupted = false;
    for part in payload.iter_mut() {
        corrupted |= byzantine.corrupt(worker, part);
    }
    let elements = payload.iter().map(Vec::len).sum();
    let network_seconds = cluster
        .network
        .transfer_seconds(field_vector_bytes(elements));
    WorkerOutcome {
        worker,
        payload,
        compute_seconds,
        network_seconds,
        arrival_seconds: round_started.elapsed().as_secs_f64() + network_seconds,
        corrupted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobOutput;
    use avcc_coding::SchemeConfig;
    use avcc_core::{ExperimentConfig, FaultScenario};
    use avcc_field::{PrimeField, P25};
    use avcc_linalg::{mat_vec, Matrix};
    use avcc_ml::dataset::DatasetConfig;
    use avcc_sim::attack::AttackModel;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

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

    #[test]
    fn a_panicking_task_is_a_missing_result_not_a_hang() {
        // One slot, and worker 0's task first in its queue: a product with an
        // input one entry short, so `mat_vec` asserts. The round waits for
        // every task, so only the end of its reply channel ends the wait, and
        // only a slot that outlives the panic runs the other eleven tasks. A
        // watchdog thread turns a hang into a failure.
        let mut rng = StdRng::seed_from_u64(13);
        let (rows, cols) = (16, 6);
        let matrix = Matrix::from_vec(rows, cols, avcc_field::random_matrix(&mut rng, rows, cols));
        let input: Vec<F> = avcc_field::random_vector(&mut rng, cols);
        let expected = mat_vec(&matrix, &input);
        let broken = BatchRoundTask::for_shares(
            &[Arc::new(Matrix::from_vec(1, cols, vec![F::ZERO; cols]))],
            &[vec![F::ZERO; cols - 1]],
        )
        .remove(0);
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let job = Job::new(
                JobSpec::CodedMatVec {
                    matrix,
                    input,
                    coding: SchemeConfig::linear(12, 8, 2, 1).unwrap(),
                    seed: 3,
                },
                0.0,
            );
            let (queue, queued) = mpsc::channel();
            let queued = Mutex::new(queued);
            let churn = Mutex::new(ChurnClock {
                state: None,
                ticks: 0,
            });
            std::thread::scope(|scope| {
                let slot = scope.spawn(|| run_slot(&queued));
                let mut rounds = 0;
                let completed = job.serve(0, |job| {
                    rounds += 1;
                    let mut tasks = job.tasks().to_vec();
                    tasks[0] = broken.clone();
                    let every_task = tasks.len();
                    fleet_round(job, tasks, every_task, &queue, &churn).map(drop)
                });
                drop(queue);
                let busy_seconds = slot.join().expect("the slot survives its task's panic");
                let _ = done.send((completed, rounds, busy_seconds));
            });
        });
        let (completed, rounds, busy_seconds) = finished
            .recv_timeout(Duration::from_secs(60))
            .expect("a round with a panicking task must end");
        assert_eq!(rounds, 1);
        assert!(busy_seconds > 0.0);
        let JobOutput::MatVec(product) = &completed.output else {
            panic!(
                "eleven results decode the product, got {:?}",
                completed.output
            );
        };
        assert_eq!(product, &expected);
    }

    #[test]
    fn a_slot_skips_a_task_whose_round_is_over() {
        // A straggler's task, still queued when its round collected: had the
        // slot run it, it would have slept 50 ms.
        let share = Arc::new(Matrix::from_vec(1, 2, vec![F::ONE; 2]));
        let task = BatchRoundTask::for_shares(&[share], &[vec![F::ONE; 2]]).remove(0);
        let (reply, arrivals) = mpsc::channel();
        let (queue, queued) = mpsc::channel();
        let token = Arc::new(());
        let round = Arc::downgrade(&token);
        let sleep = 0.05;
        let stale = FleetTask {
            sleep,
            task,
            reply,
            round,
        };
        queue.send(stale).unwrap();
        drop((token, queue));
        assert_eq!(run_slot(&Mutex::new(queued)), 0.0);
        let nothing = arrivals.try_recv().map(|message| message.worker);
        assert_eq!(nothing, Err(mpsc::TryRecvError::Disconnected));
    }
}
