//! Job descriptions, the admitted job, and results for the serving layer.
//!
//! A job is a complete unit of master-side work: either a full training run
//! (many iterations, each two distributed rounds) or a batch of coded
//! matrix–vector products (a single round). The scheduler's job threads
//! share the fleet, so the *rounds* of different jobs interleave on it; the
//! job is the unit of admission, completion and accounting.
//!
//! A [`JobSpec`] becomes one `Job`, whatever runs its rounds:
//! [`crate::serve_distributed`] over a wire executor and the
//! [`crate::Scheduler`] over its fleet step it through the same `Job::serve`
//! loop and the same `collect` / `stall`.

use std::time::Instant;

use avcc_coding::SchemeConfig;
use avcc_core::{
    BatchRoundTask, CodedMatVec, DistributedTrainer, ExperimentConfig, MatVecEngine, SchemeFailure,
    Stall, TrainingReport, TrainingRun,
};
use avcc_field::{Fp, PrimeModulus};
use avcc_linalg::Matrix;
use avcc_sim::attack::ByzantineSpec;
use avcc_sim::cluster::ClusterProfile;
use avcc_sim::executor::WorkerOutcome;
use avcc_sim::metrics::{JobMetrics, OpCounts};
use avcc_verify::KeyGenConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Identifier assigned at submission, unique within one [`crate::Scheduler`].
pub type JobId = usize;

/// One unit of work submitted to the serving layer.
#[derive(Debug, Clone)]
pub enum JobSpec<M: PrimeModulus> {
    /// A full distributed training run: every iteration's two rounds pass
    /// through the fleet, exactly as `DistributedTrainer::train` runs them
    /// on a `VirtualExecutor`.
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

/// An admitted job: the master-side state of one [`JobSpec`] and its
/// [`JobMetrics`]. [`Job::serve`] steps it through rounds run by its caller:
/// each takes [`Job::tasks`] and hands the arrivals to [`Job::collect`], and
/// a round that comes back short with nobody left to wait for goes to
/// [`Job::stall`].
pub(crate) struct Job<M: PrimeModulus> {
    work: Work<M>,
    metrics: JobMetrics,
    admitted_at: Instant,
}

/// What a job computes.
enum Work<M: PrimeModulus> {
    /// A training run over the trainer it steps.
    Training {
        trainer: Box<DistributedTrainer<M>>,
        run: TrainingRun<M>,
    },
    /// `m` products over one encode and one key set.
    Products(Box<Products<M>>),
    /// A product job whose inputs do not fit its matrix: it runs no round
    /// and completes as this failure.
    Rejected(SchemeFailure),
}

/// The one round of a product job.
struct Products<M: PrimeModulus> {
    engine: CodedMatVec<M>,
    inputs: Vec<Vec<Fp<M>>>,
    rng: StdRng,
    tasks: Vec<BatchRoundTask<M>>,
    /// A [`JobSpec::CodedMatVec`]: the batch of one, unwrapped at the end.
    single: bool,
    /// Products are served on nominal, honest workers.
    fleet: (ClusterProfile, ByzantineSpec),
    /// The decoded products, once the round is collected.
    outputs: Option<Vec<Vec<Fp<M>>>>,
}

impl<M: PrimeModulus> Work<M> {
    /// The product job over `matrix` for `inputs`: one encode and one key
    /// set, drawn from `seed` — or, unless there is at least one input and
    /// every input has `matrix.cols()` entries, the job's failure.
    fn products(
        matrix: &Matrix<Fp<M>>,
        inputs: Vec<Vec<Fp<M>>>,
        coding: SchemeConfig,
        seed: u64,
        single: bool,
    ) -> Self {
        if inputs.is_empty() || inputs.iter().any(|input| input.len() != matrix.cols()) {
            let lengths: Vec<usize> = inputs.iter().map(Vec::len).collect();
            return Work::Rejected(SchemeFailure::DecodeFailed {
                details: format!(
                    "a product job needs at least one input of {} entries, got input lengths {lengths:?}",
                    matrix.cols()
                ),
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let engine = CodedMatVec::new(matrix, coding, KeyGenConfig { repetitions: 1 }, &mut rng);
        let tasks = engine.dispatch_batch(&inputs);
        let fleet = (ClusterProfile::uniform(tasks.len()), ByzantineSpec::none());
        Work::Products(Box::new(Products {
            engine,
            inputs,
            rng,
            tasks,
            single,
            fleet,
            outputs: None,
        }))
    }
}

impl<M: PrimeModulus> Job<M> {
    /// Builds the job for `spec` — the trainer and its run, or the encoded
    /// and keyed products — with its first round's tasks ready. A product
    /// job with no input, or with an input that is not `matrix.cols()` long,
    /// is finished at once and completes as a [`JobOutput::Failed`].
    pub(crate) fn new(spec: JobSpec<M>, queue_wait_seconds: f64) -> Self {
        let admitted_at = Instant::now();
        let work = match spec {
            JobSpec::Training(config) => {
                let mut trainer = Box::new(config.build_trainer::<M>());
                let run = TrainingRun::new(&mut trainer);
                Work::Training { trainer, run }
            }
            JobSpec::CodedMatVec {
                matrix,
                input,
                coding,
                seed,
            } => Work::products(&matrix, vec![input], coding, seed, true),
            JobSpec::MatMulBatch {
                matrix,
                inputs,
                coding,
                seed,
            } => Work::products(&matrix, inputs, coding, seed, false),
        };
        let metrics = JobMetrics {
            queue_wait_seconds,
            ..JobMetrics::default()
        };
        Job {
            work,
            metrics,
            admitted_at,
        }
    }

    /// Whether the job has nothing left to run (a zero-iteration training
    /// job never had anything).
    fn is_finished(&self) -> bool {
        match &self.work {
            Work::Training { run, .. } => run.is_finished(),
            Work::Products(products) => products.outputs.is_some(),
            Work::Rejected(_) => true,
        }
    }

    /// The next round's tasks, one per worker.
    pub(crate) fn tasks(&self) -> &[BatchRoundTask<M>] {
        match &self.work {
            Work::Training { run, .. } => run.tasks(),
            Work::Products(products) => &products.tasks,
            Work::Rejected(_) => &[],
        }
    }

    /// The wire channel of the next round (see
    /// [`avcc_core::WireRunner::run_streaming_round`]).
    pub(crate) fn channel(&self) -> usize {
        match &self.work {
            Work::Training { run, .. } => run.channel(),
            Work::Products(_) | Work::Rejected(_) => 0,
        }
    }

    /// Arrivals the next round's collect needs before it can succeed.
    pub(crate) fn min_results(&self) -> usize {
        match &self.work {
            Work::Training { trainer, run } => trainer.round_min_results(run.round()),
            Work::Products(products) => products.engine.min_results(),
            Work::Rejected(_) => 0,
        }
    }

    /// The fleet as the job models it: the cluster profile (network, one
    /// straggler slowdown per slot, fixed for the job's life) and what its
    /// Byzantine workers send.
    pub(crate) fn fleet(&self) -> (&ClusterProfile, &ByzantineSpec) {
        match &self.work {
            Work::Training { trainer, .. } => (trainer.cluster(), trainer.byzantine()),
            Work::Products(products) => (&products.fleet.0, &products.fleet.1),
            Work::Rejected(_) => unreachable!("a rejected job is finished and runs no round"),
        }
    }

    /// Collects the round in flight from its arrival-ordered `outcomes`
    /// (`late`: the workers the caller stopped waiting for, see
    /// [`TrainingRun::collect`]) and counts it. On `Err` nothing changed,
    /// so the call may be retried with more outcomes.
    pub(crate) fn collect(
        &mut self,
        outcomes: &[WorkerOutcome<Vec<Vec<Fp<M>>>>],
        late: &[usize],
    ) -> Result<(), SchemeFailure> {
        let (ops, screened) = match &mut self.work {
            Work::Training { trainer, run } => match run.collect(trainer, outcomes, late)? {
                Some(record) => (record.ops, record.screened_workers.len()),
                None => (OpCounts::default(), 0),
            },
            Work::Products(products) => {
                let Products {
                    engine,
                    inputs,
                    rng,
                    fleet,
                    ..
                } = &mut **products;
                let network = fleet.0.network;
                let execution = engine.collect_batch(inputs, outcomes, &network, 1.0, rng)?;
                products.outputs = Some(execution.outputs);
                (execution.ops, execution.screened_workers.len())
            }
            Work::Rejected(failure) => return Err(failure.clone()),
        };
        self.metrics.rounds += 1;
        self.metrics.ops = self.metrics.ops.combined(&ops);
        self.metrics.screened_workers += screened as u64;
        Ok(())
    }

    /// Handles a round that came back short with every dispatched result in:
    /// a training run parks or shrink-recodes ([`TrainingRun::stall`]); a
    /// product job has no smaller code to fall back on and fails.
    pub(crate) fn stall(&mut self, failure: SchemeFailure) -> Result<Stall, SchemeFailure> {
        match &mut self.work {
            Work::Training { trainer, run } => run.stall(trainer, failure),
            Work::Products(_) | Work::Rejected(_) => Err(failure),
        }
    }

    /// The one job loop: steps the job to completion, one `round` at a time,
    /// and completes it as `id` with its output. `round` runs and collects
    /// the next round (or stalls it, see [`Job::stall`]); its first `Err`
    /// fails the job.
    pub(crate) fn serve(
        mut self,
        id: JobId,
        mut round: impl FnMut(&mut Self) -> Result<(), SchemeFailure>,
    ) -> CompletedJob<M> {
        let mut failure = None;
        while failure.is_none() && !self.is_finished() {
            failure = round(&mut self).err();
        }
        let output = match (failure, self.work) {
            (Some(failure), _) | (None, Work::Rejected(failure)) => JobOutput::Failed(failure),
            (None, Work::Training { run, .. }) => JobOutput::Training(Box::new(run.into_report())),
            (None, Work::Products(products)) => {
                let mut outputs = products.outputs.expect("a finished job has its products");
                if products.single {
                    JobOutput::MatVec(outputs.remove(0))
                } else {
                    JobOutput::MatVecBatch(outputs)
                }
            }
        };
        let metrics = JobMetrics {
            active_seconds: self.admitted_at.elapsed().as_secs_f64(),
            ..self.metrics
        };
        CompletedJob {
            id,
            output,
            metrics,
        }
    }
}
