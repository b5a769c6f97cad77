//! End-to-end acceptance of the multi-process runtime: real `avcc-worker`
//! child processes (via `CARGO_BIN_EXE_avcc-worker`), real TCP/UDS sockets,
//! the full wire protocol — driving the paper's flagship workloads and
//! matching the in-process oracle bit for bit, while surviving a worker kill
//! and a corrupted frame mid-job.

use std::path::PathBuf;
use std::time::Duration;

use avcc::core::distributed::WireRunner;
use avcc::core::{
    train_distributed, DistributedTrainer, SchemeKind, TrainerConfig, TrainingProblem,
    TrainingReport,
};
use avcc::field::{Fp, PrimeField, P25};
use avcc::linalg::{mat_vec, Matrix};
use avcc::ml::dataset::{Dataset, DatasetConfig};
use avcc::sim::attack::{AttackModel, ByzantineSpec};
use avcc::sim::cluster::ClusterProfile;
use avcc::sim::executor::{Executor, ThreadedExecutor};
use avcc::sim::socket::{SocketConfig, SocketExecutor, Transport, WorkerBackend};
use avcc::sim::wire::FaultKind;
use avcc_coding::SchemeConfig;
use avcc_serve::{serve_distributed, JobOutput, JobSpec};

fn worker_binary() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_avcc-worker"))
}

fn process_fleet(workers: usize, transport: Transport) -> SocketExecutor {
    SocketExecutor::with_config(
        ClusterProfile::uniform(workers),
        SocketConfig {
            transport,
            backend: WorkerBackend::Process {
                binary: worker_binary(),
            },
            connect_timeout: Duration::from_secs(30),
            round_timeout: Duration::from_secs(30),
            ..SocketConfig::default()
        },
    )
    .expect("spawn the worker fleet")
}

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

fn make_trainer_with(scheme: SchemeKind, byzantine: ByzantineSpec) -> DistributedTrainer<P25> {
    DistributedTrainer::new(
        small_problem(),
        ClusterProfile::uniform(12),
        byzantine,
        TrainerConfig {
            iterations: 4,
            ..TrainerConfig::paper_defaults(scheme, SchemeConfig::linear(12, 9, 2, 1).unwrap())
        },
        "socket-acceptance",
    )
}

fn make_trainer() -> DistributedTrainer<P25> {
    make_trainer_with(SchemeKind::Avcc, ByzantineSpec::none())
}

/// Trains over `fleet` through the trainer's staged API, every round through
/// [`WireRunner::run_batch_round`] — which waits until all twelve workers have
/// answered or been evicted — calling `before` ahead of each iteration.
fn train_waiting_for_all(
    trainer: &mut DistributedTrainer<P25>,
    fleet: &mut SocketExecutor,
    mut before: impl FnMut(usize, &mut SocketExecutor),
) -> TrainingReport {
    let mut report = TrainingReport::new(trainer.scheme().label(), trainer.scenario_label());
    let mut runner = WireRunner::new();
    let mut cumulative = 0.0;
    for iteration in 0..trainer.iterations() {
        before(iteration, fleet);
        let round1_tasks = trainer.encode_round1();
        let byzantine = trainer.byzantine().clone();
        let round1 = runner
            .run_batch_round(fleet, 0, &round1_tasks, &byzantine)
            .expect("round 1 over the fleet");
        let round2_tasks = trainer.collect_round1(&round1).expect("collect round 1");
        let round2 = runner
            .run_batch_round(fleet, 1, &round2_tasks, &byzantine)
            .expect("round 2 over the fleet");
        let record = trainer
            .collect_round2(iteration, &round2, &mut cumulative)
            .expect("collect round 2");
        report.push(record);
    }
    report
}

fn trajectory(report: &TrainingReport) -> Vec<(f64, f64)> {
    report
        .iterations
        .iter()
        .map(|r| (r.test_accuracy, r.train_loss))
        .collect()
}

/// GISETTE-style training over a real TCP fleet of 12 worker *processes*,
/// with one worker killed and one corrupted frame injected mid-job: the
/// model trajectory must stay bit-identical to the in-process oracle —
/// evictions look like stragglers, and exact decode erases them.
#[test]
fn training_over_tcp_processes_survives_kill_and_corruption() {
    let mut oracle = make_trainer();
    let oracle_report = oracle.train().expect("oracle training");

    let mut trainer = make_trainer();
    let mut fleet = process_fleet(12, Transport::Tcp);
    let report = train_waiting_for_all(&mut trainer, &mut fleet, |iteration, fleet| {
        if iteration == 1 {
            // Mid-job worker death: a real SIGKILL to the child process.
            fleet.kill_worker(2);
        }
        if iteration == 2 {
            // Mid-job corruption: worker 5's next result frame is flipped
            // post-checksum; the master must catch it by CRC and evict.
            fleet.inject_fault(5, FaultKind::CorruptPayload).unwrap();
        }
    });

    // Bit-identical model despite the kill and the corrupted frame.
    assert_eq!(trainer.model().weights, oracle.model().weights);
    assert_eq!(trajectory(&report), trajectory(&oracle_report));

    // The faults really happened and were really recovered from. The
    // between-rounds kill is healed by the reconnect path (respawn, no
    // eviction recorded); the mid-round corruption must evict.
    let metrics = fleet.metrics();
    assert!(metrics.evictions >= 1, "the corrupted frame must evict");
    assert!(metrics.respawns >= 2, "both workers must be respawned");
}

/// A batched matmul job served over real UDS worker processes decodes the
/// exact products, even with a corrupted frame injected into the round.
#[test]
fn batched_matmul_over_uds_processes_is_exact() {
    let rows = 18;
    let cols = 6;
    let matrix = Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| Fp::<P25>::from_u64((i as u64).wrapping_mul(37) % 1009))
            .collect(),
    );
    let inputs: Vec<Vec<Fp<P25>>> = (0..3)
        .map(|f| {
            (0..cols)
                .map(|i| Fp::<P25>::from_u64((f * 100 + i) as u64 + 1))
                .collect()
        })
        .collect();
    let expected: Vec<Vec<Fp<P25>>> = inputs.iter().map(|v| mat_vec(&matrix, v)).collect();

    let mut fleet = process_fleet(12, Transport::Uds);
    fleet.inject_fault(3, FaultKind::BadCrc).unwrap();
    let specs = vec![JobSpec::MatMulBatch {
        matrix,
        inputs,
        coding: SchemeConfig::linear(12, 9, 2, 1).unwrap(),
        seed: 7,
    }];
    let completed = serve_distributed(specs, &mut fleet);
    assert_eq!(completed.len(), 1);
    let JobOutput::MatVecBatch(products) = &completed[0].output else {
        panic!("batch job must decode, got {:?}", completed[0].output);
    };
    assert_eq!(products, &expected);
    // The job's round closed as soon as it could decode, which on a busy host
    // is before worker 3's broken frame is in. One more round on the job's
    // blocks (wire job 0), waited for in full, meets it for certain.
    let idle_inputs = vec![vec![vec![0u64; cols]]; 12];
    fleet
        .execute_round(0, 1, &idle_inputs)
        .expect("the job's blocks are still resident");
    assert!(fleet.metrics().evictions >= 1, "the bad CRC must evict");
}

/// A worker *process* returning Byzantine-corrupted blocks (master-side
/// spec — the same injection path the in-process executors use) is caught
/// by the engines' pre-decode dual-codeword screen: every round of every
/// iteration reports it in `screened_workers`, its Freivalds check (run
/// after every other arrival's) rejects it, it never reaches the decoder,
/// and the training trajectory is bit-identical to the same run over the
/// in-process `ThreadedExecutor`.
#[test]
fn screened_training_over_processes_matches_threaded_executor() {
    // StaticVcc: the adaptive controller would evict the worker after the
    // first detection, and there would be nothing left to screen.
    let make = || {
        make_trainer_with(
            SchemeKind::StaticVcc,
            ByzantineSpec::new([3], AttackModel::constant()),
        )
    };

    // Wait-for-all rounds: the strict per-round assertion below needs the
    // liar among the arrivals of *every* round, which a round that closes as
    // soon as it can decode does not promise.
    let mut socket_trainer = make();
    let mut fleet = process_fleet(12, Transport::Tcp);
    let socket_report = train_waiting_for_all(&mut socket_trainer, &mut fleet, |_, _| {});

    let mut oracle_trainer = make();
    let mut threaded = ThreadedExecutor::new(ClusterProfile::uniform(12));
    let oracle_report = train_distributed(&mut oracle_trainer, &mut threaded).expect("oracle run");

    // Bit-identical models and trajectories across the process boundary.
    assert_eq!(
        socket_trainer.model().weights,
        oracle_trainer.model().weights
    );
    assert_eq!(trajectory(&socket_report), trajectory(&oracle_report));

    // All 12 workers answer every round (12 > threshold 9), so the screen
    // runs and localizes exactly the corrupted worker, on both executors.
    assert_eq!(socket_report.len(), 4);
    for report in [&socket_report, &oracle_report] {
        for record in &report.iterations {
            assert_eq!(record.screened_workers, vec![3]);
            assert_eq!(record.detected_byzantine, vec![3]);
        }
    }
}

/// The worker binary rejects malformed invocations instead of hanging.
#[test]
fn worker_binary_usage_errors_are_clean() {
    let status = std::process::Command::new(worker_binary())
        .arg("--bogus")
        .status()
        .expect("run the worker binary");
    assert_eq!(status.code(), Some(2));

    let status = std::process::Command::new(worker_binary())
        .args(["--connect", "tcp:127.0.0.1:1", "--worker", "0"])
        .status()
        .expect("run the worker binary");
    assert_eq!(status.code(), Some(1), "unreachable master must fail fast");
}
