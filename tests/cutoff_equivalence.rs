//! A round that closes without its stragglers must change nothing but the
//! time it takes: on a real socket fleet whose worker 0 is eight times slower
//! than the rest, every product entry point — `serve_distributed`, the
//! engines' `execute`, `train_distributed` — stops waiting for worker 0 once
//! it can decode, and every output stays bit-identical to its oracle.
//!
//! Everything asserted here is timing-independent: values, detected sets and
//! counters (the cutoff *happened*), never a duration. The fleet is the
//! in-process UDS backend — the full wire protocol, no worker binary needed.

use avcc::coding::SchemeConfig;
use avcc::core::{
    train_distributed, AvccMatVec, DistributedTrainer, ExperimentConfig, FaultScenario,
    MatVecEngine, SchemeKind, TrainingReport, UncodedMatVec,
};
use avcc::field::{Fp, P25};
use avcc::linalg::{mat_vec, Matrix};
use avcc::ml::dataset::DatasetConfig;
use avcc::serve::{serve_distributed, CompletedJob, JobOutput, JobSpec};
use avcc::sim::attack::{AttackModel, ByzantineSpec};
use avcc::sim::churn::ChurnEventKind;
use avcc::sim::cluster::ClusterProfile;
use avcc::sim::executor::{Executor, ExecutorError, RawOutcome};
use avcc::sim::socket::{SocketConfig, SocketExecutor, SocketMetrics, Transport};
use avcc::sim::wire::Block;
use avcc::verify::KeyGenConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

type F = Fp<P25>;

/// Twelve workers over UDS; worker 0, eight times slower than the rest,
/// sleeps `7 × sleep_per_slowdown_unit` on every task, the others answer in
/// well under a millisecond.
fn straggling_fleet_sleeping(sleep_per_slowdown_unit: f64) -> SocketExecutor {
    SocketExecutor::with_config(
        ClusterProfile::uniform(12).with_stragglers(&[0], 8.0),
        SocketConfig {
            transport: Transport::Uds,
            sleep_per_slowdown_unit,
            ..SocketConfig::default()
        },
    )
    .expect("in-process UDS fleet")
}

/// The benchmark's fleet: worker 0 sleeps 14 ms per task.
fn straggling_fleet() -> SocketExecutor {
    straggling_fleet_sleeping(0.002)
}

/// The same fleet behind an executor that forwards only the blocking round,
/// so the provided split-phase methods wait for every worker: what the master
/// did before it could cut a round off.
struct Blocking(SocketExecutor);

impl Executor for Blocking {
    fn workers(&self) -> usize {
        self.0.workers()
    }
    fn profile(&self) -> &ClusterProfile {
        self.0.profile()
    }
    fn install_blocks(&mut self, job: u64, blocks: &[Block]) -> Result<(), ExecutorError> {
        self.0.install_blocks(job, blocks)
    }
    fn execute_round(
        &mut self,
        job: u64,
        round: u64,
        inputs: &[Vec<Vec<u64>>],
    ) -> Result<Vec<RawOutcome>, ExecutorError> {
        self.0.execute_round(job, round, inputs)
    }
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<F> {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_vec(rows, cols, avcc::field::random_matrix(&mut rng, rows, cols))
}

fn random_vector(len: usize, seed: u64) -> Vec<F> {
    avcc::field::random_vector(&mut StdRng::seed_from_u64(seed), len)
}

fn training(mut config: ExperimentConfig, seed: u64) -> ExperimentConfig {
    config.iterations = 3;
    config.time_scale = 1.0;
    config.seed = seed;
    config.dataset = DatasetConfig {
        train_samples: 180,
        test_samples: 60,
        features: 27,
        informative: 9,
        seed,
        ..DatasetConfig::default()
    };
    config
}

fn trajectory(report: &TrainingReport) -> Vec<(u64, u64)> {
    report
        .iterations
        .iter()
        .map(|r| (r.test_accuracy.to_bits(), r.train_loss.to_bits()))
        .collect()
}

/// `[MatMulBatch, Training(uncoded), MatMulBatch, Training(AVCC)]`, seeded.
fn job_list(seed: u64) -> Vec<JobSpec<P25>> {
    let scenario = || FaultScenario::paper(1, 0, AttackModel::None);
    let matmul = |seed: u64| JobSpec::MatMulBatch {
        matrix: random_matrix(18, 6, seed),
        inputs: (0..3).map(|f| random_vector(6, seed * 10 + f)).collect(),
        coding: SchemeConfig::linear(12, 9, 2, 1).unwrap(),
        seed,
    };
    vec![
        matmul(seed),
        JobSpec::Training(training(
            ExperimentConfig::paper_uncoded(scenario()),
            seed + 1,
        )),
        matmul(seed + 2),
        JobSpec::Training(training(
            ExperimentConfig::paper_avcc(2, 1, scenario()),
            seed + 3,
        )),
    ]
}

/// Checks every job against its oracle and that nobody was accused of lying
/// on a fleet with no liar. Returns each training job's re-encode count.
fn check_against_oracles(specs: &[JobSpec<P25>], completed: &[CompletedJob<P25>]) -> Vec<usize> {
    assert_eq!(completed.len(), specs.len());
    let mut reconfigurations = Vec::new();
    for (spec, job) in specs.iter().zip(completed) {
        match (spec, &job.output) {
            (JobSpec::Training(config), JobOutput::Training(report)) => {
                let oracle = config.build_trainer::<P25>().train().expect("oracle");
                assert_eq!(trajectory(report), trajectory(&oracle), "job {}", job.id);
                assert_eq!(report.len(), config.iterations, "job {} completed", job.id);
                for record in &report.iterations {
                    assert!(record.detected_byzantine.is_empty(), "job {}", job.id);
                }
                reconfigurations.push(report.reconfiguration_count());
            }
            (JobSpec::MatMulBatch { matrix, inputs, .. }, JobOutput::MatVecBatch(products)) => {
                let expected: Vec<Vec<F>> = inputs.iter().map(|x| mat_vec(matrix, x)).collect();
                assert_eq!(products, &expected, "job {}", job.id);
                assert_eq!(job.metrics.screened_workers, 0, "job {}", job.id);
            }
            (_, output) => panic!("job {}: unexpected output {output:?}", job.id),
        }
    }
    reconfigurations
}

/// For runs in which some round *waited* for worker 0 after another had
/// closed without it: before worker 0 can answer the round that waits, the
/// master must have received — and discarded — its answer to the one that
/// did not.
fn assert_the_cutoff_happened(metrics: &SocketMetrics) {
    assert!(
        metrics.stale_frames > 0,
        "worker 0's late results must have been discarded as stale: {metrics:?}"
    );
    assert_eq!(metrics.evictions, 0, "lateness is not a fault: {metrics:?}");
}

#[test]
fn serving_a_job_mix_without_waiting_for_the_straggler_matches_every_oracle() {
    // The list twice in one call: every job after the first starts while
    // worker 0 still sleeps on a task of its predecessor, under wire ids
    // (job 0, round 0) its predecessor also used.
    let specs: Vec<JobSpec<P25>> = job_list(11).into_iter().chain(job_list(21)).collect();

    let mut fleet = straggling_fleet();
    let completed = serve_distributed(specs.clone(), &mut fleet);
    let reconfigurations = check_against_oracles(&specs, &completed);
    let metrics = fleet.metrics();
    assert_the_cutoff_happened(&metrics);
    assert!(
        metrics.tasks_dropped > 0,
        "tasks queued for worker 0 by rounds that closed without it are never sent: {metrics:?}"
    );

    let mut blocking = Blocking(straggling_fleet());
    let completed = serve_distributed(specs.clone(), &mut blocking);
    let blocking_reconfigurations = check_against_oracles(&specs, &completed);
    let blocking_metrics = blocking.0.metrics();
    assert_eq!(
        (
            blocking_metrics.stale_frames,
            blocking_metrics.tasks_dropped
        ),
        (0, 0),
        "a master that waits for everyone discards nothing"
    );
    // Cutting rounds off only ever *removes* traffic. (A noise-triggered
    // re-encode ships 12 extra blocks; compare like with like.)
    if reconfigurations == blocking_reconfigurations {
        assert!(
            metrics.frames_sent <= blocking_metrics.frames_sent,
            "{metrics:?} vs {blocking_metrics:?}"
        );
    }
}

#[test]
fn a_late_share_of_one_matrix_is_not_taken_for_a_block_of_the_next() {
    // The aliasing trap in its sharpest form. Both rounds are wire
    // (job 0, round 0) and both payloads are one 2-element vector, so a
    // master that matched results by their echo would accept worker 0's late
    // coded share of `a·x` as raw block 0 of `b·x` — and the uncoded scheme
    // verifies nothing.
    let a = random_matrix(18, 6, 1);
    let b = random_matrix(18, 6, 2);
    let x = random_vector(6, 3);
    let mut rng = StdRng::seed_from_u64(4);
    // One coded round is all this test has, and everything below is vacuous
    // unless that round closes without worker 0 — so worker 0 sleeps 140 ms:
    // the other eleven would have to take 47 ms for the master to wait.
    let mut fleet = straggling_fleet_sleeping(0.02);
    let quiet = ByzantineSpec::none();

    let coding = SchemeConfig::linear(12, 9, 2, 1).unwrap();
    let mut coded = AvccMatVec::new(&a, coding, KeyGenConfig::default(), &mut rng);
    let first = coded.execute(&x, &mut fleet, &quiet, &mut rng).unwrap();
    assert_eq!(first.output, mat_vec(&a, &x));
    assert!(first.detected_byzantine.is_empty());
    assert!(first.observed_stragglers.contains(&0));

    let mut uncoded = UncodedMatVec::new(&b, 9);
    let second = uncoded.execute(&x, &mut fleet, &quiet, &mut rng).unwrap();
    assert_eq!(second.output, mat_vec(&b, &x));
    assert_eq!(second.used_workers.len(), 9, "it waited for worker 0");

    let metrics = fleet.metrics();
    assert_the_cutoff_happened(&metrics);

    let mut blocking = Blocking(straggling_fleet_sleeping(0.02));
    let mut coded = AvccMatVec::new(&a, coding, KeyGenConfig::default(), &mut rng);
    coded.execute(&x, &mut blocking, &quiet, &mut rng).unwrap();
    uncoded
        .execute(&x, &mut blocking, &quiet, &mut rng)
        .unwrap();
    assert!(metrics.frames_sent <= blocking.0.metrics().frames_sent);
}

#[test]
fn training_past_a_straggler_and_a_liar_matches_train() {
    let scenario = FaultScenario::paper(1, 1, AttackModel::reverse());
    let liar = scenario.byzantine[0];
    let mut config = training(ExperimentConfig::paper_avcc(2, 1, scenario), 31);
    config.iterations = 6;
    let build = || -> DistributedTrainer<P25> { config.build_trainer() };
    assert_eq!(build().scheme(), SchemeKind::Avcc);

    let oracle = build().train().expect("oracle");
    let mut trainer = build();
    let mut fleet = straggling_fleet();
    let report = train_distributed(&mut trainer, &mut fleet).expect("socket run");

    assert_eq!(trajectory(&report), trajectory(&oracle));
    assert!(report.total_detections() > 0, "the liar is caught");
    for record in &report.iterations {
        assert!(
            record.detected_byzantine.iter().all(|&w| w == liar),
            "only the liar lies: {record:?}"
        );
        assert!(
            record.observed_stragglers.contains(&0),
            "cut off or waited for, worker 0 is seen to straggle: {record:?}"
        );
    }
    // The blocking run of this configuration on this fleet parks nothing
    // and shrinks nothing; neither may this one.
    assert!(
        !trainer.fleet_events().iter().any(|event| matches!(
            event.kind,
            ChurnEventKind::Parked | ChurnEventKind::ShrinkRecoded
        )),
        "{:?}",
        trainer.fleet_events()
    );
    // No round here ever waits for worker 0, so whether its first late
    // answer is in before the job ends is the host's business; that later
    // rounds found it busy and never sent it their tasks is not.
    let metrics = fleet.metrics();
    assert!(metrics.tasks_dropped > 0, "{metrics:?}");
    assert_eq!(metrics.evictions, 0, "lateness is not a fault: {metrics:?}");
}
