//! Serving jobs over a wire [`Executor`] — the socket-fleet counterpart of
//! the in-process [`crate::Scheduler`].
//!
//! [`serve_distributed`] runs a list of [`JobSpec`]s against any executor
//! implementing the modulus-erased trait: the in-process engines for tests,
//! or `avcc_sim::SocketExecutor` for a real multi-process TCP/UDS fleet. Jobs
//! run to completion one at a time (round pipelining across jobs remains the
//! in-process scheduler's specialty; the wire fleet's concurrency is *within*
//! a round, across worker processes), but every job's result is bit-identical
//! to the scheduler's for the same spec — all decode paths are exact.
//!
//! Every job takes the one round path: a training job is
//! `train_distributed`, a product job — one input or `m` — is one
//! [`MatVecEngine::execute_batch`]. Each job ships its blocks under the same
//! small set of wire job ids, replacing its predecessor's, so a long call
//! holds one job's blocks at a time on the master and on the workers.
//!
//! On an executor with real split-phase rounds (the socket fleet) neither
//! path waits for stragglers: a round closes once its engine can decode and
//! everybody who is not ≥ 3× the median late has answered, so a coded job's
//! rounds cost the fast workers' time, not the slowest worker's. A job may
//! therefore *start* while a straggler still computes a task of its
//! predecessor under the very wire ids the new job reuses; the executor keeps
//! the two apart (one task in flight per worker, results matched to the task
//! last sent). The uncoded scheme needs every block, so its rounds still wait
//! for the straggler — including, at most once per job, for a stale task it
//! is finishing first.
//!
//! Worker evictions (corrupt frames, disconnects, deadline blowouts) surface
//! as absent outcomes, which the engines absorb through the same straggler
//! tolerance they were designed around; a job fails only when the surviving
//! results genuinely cannot reconstruct the product.

use std::time::Instant;

use avcc_coding::SchemeConfig;
use avcc_core::distributed::train_distributed;
use avcc_core::engines::AvccMatVec;
use avcc_core::{MatVecEngine, SchemeFailure};
use avcc_field::{Fp, PrimeModulus};
use avcc_linalg::Matrix;
use avcc_sim::attack::ByzantineSpec;
use avcc_sim::executor::Executor;
use avcc_sim::metrics::JobMetrics;
use avcc_verify::KeyGenConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::job::{CompletedJob, JobOutput, JobSpec};

/// Runs every job on `executor`, in submission order, returning one
/// [`CompletedJob`] per spec (ids are the spec's index). See the module docs
/// for semantics.
pub fn serve_distributed<M: PrimeModulus>(
    specs: Vec<JobSpec<M>>,
    executor: &mut dyn Executor,
) -> Vec<CompletedJob<M>> {
    let mut completed = Vec::with_capacity(specs.len());
    for (id, spec) in specs.into_iter().enumerate() {
        let started = Instant::now();
        let mut metrics = JobMetrics::default();
        let output = match spec {
            JobSpec::Training(config) => {
                let mut trainer = config.build_trainer::<M>();
                match train_distributed(&mut trainer, executor) {
                    Ok(report) => {
                        metrics.rounds = report.len() * 2;
                        for record in &report.iterations {
                            metrics.ops = metrics.ops.combined(&record.ops);
                            metrics.screened_workers += record.screened_workers.len() as u64;
                        }
                        JobOutput::Training(Box::new(report))
                    }
                    Err(error) => JobOutput::Failed(error.into()),
                }
            }
            // A single product is a batch of one.
            JobSpec::CodedMatVec {
                matrix,
                input,
                coding,
                seed,
            } => matmul_batch(&matrix, &[input], coding, seed, executor, &mut metrics)
                .map(|mut outputs| JobOutput::MatVec(outputs.remove(0)))
                .unwrap_or_else(JobOutput::Failed),
            JobSpec::MatMulBatch {
                matrix,
                inputs,
                coding,
                seed,
            } => matmul_batch(&matrix, &inputs, coding, seed, executor, &mut metrics)
                .map(JobOutput::MatVecBatch)
                .unwrap_or_else(JobOutput::Failed),
        };
        metrics.active_seconds = started.elapsed().as_secs_f64();
        completed.push(CompletedJob {
            id,
            output,
            metrics,
        });
    }
    completed
}

/// One one-shot job: encode `matrix`, key it, and run its `inputs` as a
/// single batched round on `executor` (the `m` functions share one encode
/// and one key set). Every one-shot job ships its blocks under the same wire
/// job id, replacing its predecessor's.
fn matmul_batch<M: PrimeModulus>(
    matrix: &Matrix<Fp<M>>,
    inputs: &[Vec<Fp<M>>],
    coding: SchemeConfig,
    seed: u64,
    executor: &mut dyn Executor,
    metrics: &mut JobMetrics,
) -> Result<Vec<Vec<Fp<M>>>, SchemeFailure> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut engine = AvccMatVec::new(matrix, coding, KeyGenConfig { repetitions: 1 }, &mut rng);
    let execution = engine.execute_batch(inputs, executor, &ByzantineSpec::none(), &mut rng)?;
    metrics.rounds = 1;
    metrics.ops = execution.ops;
    metrics.screened_workers = execution.screened_workers.len() as u64;
    Ok(execution.outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use avcc_core::{ExperimentConfig, FaultScenario};
    use avcc_field::{PrimeField, P25};
    use avcc_linalg::mat_vec;
    use avcc_ml::dataset::DatasetConfig;
    use avcc_sim::attack::AttackModel;
    use avcc_sim::cluster::ClusterProfile;
    use avcc_sim::executor::{ExecutorError, ThreadedExecutor, WorkerOutcome};
    use avcc_sim::wire::Block;

    fn matrix(rows: usize, cols: usize, seed: u64) -> Matrix<Fp<P25>> {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|i| Fp::<P25>::from_u64(seed.wrapping_mul(i as u64 + 3) % 1000))
                .collect(),
        )
    }

    fn input(cols: usize, seed: u64) -> Vec<Fp<P25>> {
        (0..cols)
            .map(|i| Fp::<P25>::from_u64(seed.wrapping_add(i as u64) % 997))
            .collect()
    }

    #[test]
    fn matvec_and_batch_jobs_decode_the_exact_products() {
        let coding = SchemeConfig::linear(12, 9, 2, 1).unwrap();
        let m = matrix(18, 6, 11);
        let single_in = input(6, 1);
        let batch_ins = vec![input(6, 2), input(6, 3), input(6, 4)];
        let specs = vec![
            JobSpec::CodedMatVec {
                matrix: m.clone(),
                input: single_in.clone(),
                coding,
                seed: 7,
            },
            JobSpec::MatMulBatch {
                matrix: m.clone(),
                inputs: batch_ins.clone(),
                coding,
                seed: 7,
            },
        ];
        let mut executor = ThreadedExecutor::new(ClusterProfile::uniform(12));
        let completed = serve_distributed(specs, &mut executor);
        assert_eq!(completed.len(), 2);

        let JobOutput::MatVec(product) = &completed[0].output else {
            panic!(
                "job 0 must be a matvec result, got {:?}",
                completed[0].output
            );
        };
        assert_eq!(product, &mat_vec(&m, &single_in));

        let JobOutput::MatVecBatch(products) = &completed[1].output else {
            panic!("job 1 must be a batch result");
        };
        assert_eq!(products.len(), 3);
        for (got, want) in products
            .iter()
            .zip(batch_ins.iter().map(|v| mat_vec(&m, v)))
        {
            assert_eq!(got, &want);
        }
        assert!(completed.iter().all(|job| job.metrics.rounds == 1));
    }

    /// Passes every call through to a `ThreadedExecutor`, recording each
    /// `install_blocks` as `(job, blocks shipped)`.
    struct CountingExecutor {
        inner: ThreadedExecutor,
        installs: Vec<(u64, usize)>,
    }

    impl CountingExecutor {
        fn new(profile: ClusterProfile) -> Self {
            let mut inner = ThreadedExecutor::new(profile);
            inner.sleep_per_slowdown_unit = 0.002;
            CountingExecutor {
                inner,
                installs: Vec::new(),
            }
        }

        fn distinct_jobs(&self) -> Vec<u64> {
            let mut jobs: Vec<u64> = self.installs.iter().map(|&(job, _)| job).collect();
            jobs.sort_unstable();
            jobs.dedup();
            jobs
        }
    }

    impl Executor for CountingExecutor {
        fn workers(&self) -> usize {
            self.inner.workers()
        }
        fn profile(&self) -> &ClusterProfile {
            Executor::profile(&self.inner)
        }
        fn install_blocks(&mut self, job: u64, blocks: &[Block]) -> Result<(), ExecutorError> {
            self.installs.push((job, blocks.len()));
            self.inner.install_blocks(job, blocks)
        }
        fn execute_round(
            &mut self,
            job: u64,
            round: u64,
            inputs: &[Vec<Vec<u64>>],
        ) -> Result<Vec<WorkerOutcome<Vec<Vec<u64>>>>, ExecutorError> {
            self.inner.execute_round(job, round, inputs)
        }
    }

    fn training(scenario: FaultScenario, iterations: usize) -> ExperimentConfig {
        let mut config = ExperimentConfig::paper_avcc(2, 1, scenario);
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
    fn a_channel_owns_one_job_id_across_re_encodes() {
        // Three stragglers plus a Byzantine worker exceed the (S=2, M=1)
        // budget, so the controller evicts and re-encodes mid-run. The new
        // blocks must ship under the channels' own two job ids — replacing
        // the superseded blocks instead of stranding them under fresh ids.
        let scenario = FaultScenario::paper(3, 1, AttackModel::constant());
        let mut trainer = training(scenario, 6).build_trainer::<P25>();
        let mut executor = CountingExecutor::new(trainer.cluster().clone());
        let report = train_distributed(&mut trainer, &mut executor).unwrap();
        assert!(report.reconfiguration_count() >= 1);
        let installs = &executor.installs;
        assert_eq!(installs[..2], [(0, 12), (1, 12)], "the initial code");
        assert_eq!(
            installs.last(),
            Some(&(1, trainer.current_coding().workers)),
            "the re-encoded round-2 blocks ship before the next round"
        );
        assert_eq!(executor.distinct_jobs(), [0, 1]);
    }

    #[test]
    fn job_ids_do_not_grow_with_the_number_of_jobs() {
        // Every job re-ships its blocks under the same few wire job ids, so a
        // long call strands nothing on the master's respawn cache or on the
        // workers: 20 jobs touch exactly the ids 4 jobs touch.
        let distinct_jobs = |jobs: usize| {
            let coding = SchemeConfig::linear(12, 9, 2, 1).unwrap();
            let specs = (0..jobs as u64)
                .map(|job| match job % 4 {
                    0 => JobSpec::Training(training(FaultScenario::none(), 1)),
                    1 => JobSpec::CodedMatVec {
                        matrix: matrix(18, 6, job),
                        input: input(6, job),
                        coding,
                        seed: job,
                    },
                    _ => JobSpec::MatMulBatch {
                        matrix: matrix(18, 6, job),
                        inputs: vec![input(6, 1), input(6, 2)],
                        coding,
                        seed: job,
                    },
                })
                .collect();
            let mut executor = CountingExecutor::new(ClusterProfile::uniform(12));
            let completed = serve_distributed::<P25>(specs, &mut executor);
            assert!(completed.iter().all(|job| !job.output.is_failed()));
            assert!(executor.installs.len() >= jobs, "every job ships blocks");
            executor.distinct_jobs()
        };
        assert_eq!(distinct_jobs(4), distinct_jobs(20));
    }
}
