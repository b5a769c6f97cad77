//! The serving scheduler: admission control plus a round-pipelined master
//! loop over the shared fleet.
//!
//! The scheduler owns a bounded submission queue and a fixed number of
//! in-flight slots. Its [`Scheduler::run`] loop is the master of every
//! admitted job at once, stepping each one's `Job` — the state
//! [`crate::serve_distributed`] steps too —
//!
//! ```text
//! Encode → Dispatch → Compute (on the fleet) → Verify/Decode → Update
//! ```
//!
//! with the master-side stages of *different jobs* overlapping each other's
//! compute stages. Concretely, one pass of the loop admits queued jobs into
//! free slots, drains every worker result that has arrived, and collects
//! any job whose round has enough arrivals — each collect immediately
//! dispatches the job's next round, so the fleet never waits on the master
//! for longer than one collect. A round that is short with every result in
//! goes to `Job::stall`: a training run parks (the same tasks again, then
//! `required` arrivals awaited) or shrink-recodes; a product job fails.
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

use avcc_core::distributed::BatchOutcomes;
use avcc_core::rounds::field_vector_bytes;
use avcc_core::{BatchRoundTask, Stall};
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

/// A job occupying an in-flight slot, with its current round's bookkeeping.
struct ActiveJob<M: PrimeModulus> {
    id: JobId,
    job: Job<M>,
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
        let churn = &mut self.churn;
        let pending = &mut self.pending;

        std::thread::scope(|scope| {
            for _ in 0..fleet.width() {
                let (queued, tx) = (&queued, tx.clone());
                scope.spawn(move || run_slot(queued, &tx));
            }
            // The one way a round reaches the fleet — a job's first round, its
            // next round, or a parked round again: a fresh serial (one tick of
            // the churn clock), an empty arrival list, the job's tasks
            // dispatched.
            let mut launch = |slot: usize, active: &mut ActiveJob<M>| {
                active.serial = next_serial;
                next_serial += 1;
                if let Some(churn) = churn.as_mut() {
                    churn.advance_to(active.serial);
                }
                active.outcomes.clear();
                active.round_started_at = Instant::now();
                active.dispatched = dispatch_round(
                    &queue,
                    slot,
                    active.serial,
                    active.job.tasks().to_vec(),
                    active.job.fleet().0,
                    churn.as_ref(),
                );
                active.needed = active.needed.min(active.dispatched);
            };
            loop {
                let mut progressed = false;

                // Admission: move queued jobs into free slots and dispatch
                // their first rounds (a zero-iteration training job has none
                // and completes at once).
                for (slot, entry) in slots.iter_mut().enumerate() {
                    if entry.is_some() {
                        continue;
                    }
                    let Some(pending) = pending.pop_front() else {
                        break;
                    };
                    progressed = true;
                    let queue_wait_seconds = pending.submitted_at.elapsed().as_secs_f64();
                    let job = Job::new(pending.spec, queue_wait_seconds);
                    if job.is_finished() {
                        let completed = job.complete(pending.id, None);
                        metrics.record_job(&completed.metrics, completed.output.is_failed());
                        jobs.push(completed);
                        continue;
                    }
                    let mut active = ActiveJob {
                        id: pending.id,
                        needed: job.min_results(),
                        job,
                        serial: 0,
                        dispatched: 0,
                        outcomes: Vec::new(),
                        round_started_at: Instant::now(),
                    };
                    launch(slot, &mut active);
                    *entry = Some(active);
                }

                // Drain every result that has arrived, without blocking.
                while let Ok(message) = rx.try_recv() {
                    progressed |= deliver(message, &mut slots, &mut metrics);
                }

                // Master steps: collect any round with enough arrivals, then
                // immediately dispatch that job's next round. The scheduler
                // names no late workers: on a fleet narrower than the job, a
                // task that has not arrived is queued, not straggling.
                for (slot, entry) in slots.iter_mut().enumerate() {
                    let Some(active) = entry.as_mut() else {
                        continue;
                    };
                    if active.outcomes.len() < active.needed {
                        continue;
                    }
                    let next = match active.job.collect(&active.outcomes, &[]) {
                        Ok(()) if active.job.is_finished() => Err(None),
                        Ok(()) => Ok(active.job.min_results()),
                        // A short prefix (a corrupt result inside it): one
                        // more arrival may complete it.
                        Err(_) if active.outcomes.len() < active.dispatched => {
                            active.needed = active.outcomes.len() + 1;
                            continue;
                        }
                        // Every dispatched result is in: the same tasks
                        // again, or round 1 on a smaller code.
                        Err(failure) => match active.job.stall(failure) {
                            Ok(Stall::Parked { required }) => Ok(required),
                            Ok(Stall::ShrinkRecoded) => Ok(active.job.min_results()),
                            Err(failure) => Err(Some(failure)),
                        },
                    };
                    progressed = true;
                    match next {
                        Ok(needed) => {
                            active.needed = needed;
                            launch(slot, active);
                        }
                        Err(failure) => {
                            let done = entry.take().expect("the slot holds the job");
                            let completed = done.job.complete(done.id, failure);
                            metrics.record_job(&completed.metrics, completed.output.is_failed());
                            jobs.push(completed);
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

/// Queues one round's tasks for the fleet, each tagged with its worker's
/// straggler sleep. Tasks addressed to churned-down (or corrupt-window)
/// workers are skipped entirely — those workers are silently absent from the
/// round. Returns the number of tasks dispatched.
fn dispatch_round<M: PrimeModulus>(
    queue: &Sender<FleetTask<M>>,
    slot: usize,
    serial: u64,
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
    let Some(active) = slots[message.slot].as_mut() else {
        return false;
    };
    if active.serial != message.serial {
        return false;
    }
    let mut payload = message.payload;
    let (cluster, byzantine) = active.job.fleet();
    let mut corrupted = false;
    for part in payload.iter_mut() {
        corrupted |= byzantine.corrupt(message.worker, part);
    }
    let elements = payload.iter().map(Vec::len).sum();
    let network_seconds = cluster
        .network
        .transfer_seconds(field_vector_bytes(elements));
    let arrival_seconds = active.round_started_at.elapsed().as_secs_f64() + network_seconds;
    active.outcomes.push(WorkerOutcome {
        worker: message.worker,
        payload,
        compute_seconds: message.compute_seconds,
        network_seconds,
        arrival_seconds,
        corrupted,
    });
    true
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
}
