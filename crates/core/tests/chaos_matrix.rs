//! The chaos harness (PR10): differential fault-injection matrix over the
//! distributed training pipeline.
//!
//! Every recoverable [`ChaosSchedule`] — crash, stall, corrupt-then-rejoin,
//! network flap, each hitting one or two workers — must leave the trained
//! model **bit-identical** to the quiet-fleet oracle. The comparator is the per-iteration
//! `(test_accuracy, train_loss)` trajectory: both are deterministic `f64`
//! functions of the model weights, so exact equality across every iteration
//! certifies bit-identical models.
//!
//! Why this invariant holds (and must keep holding): decode recovers the
//! *exact* field product from any sufficient subset of honest results,
//! whatever `(N, K, T)` the fleet is currently coded for, and corrupted
//! payloads are dropped before decode. Churn, parking and shrink-recoding
//! change *which* results decode — never the decoded values.

use avcc_coding::SchemeConfig;
use avcc_core::{
    train_distributed, DistributedTrainer, SchemeKind, TrainerConfig, TrainingProblem,
    TrainingReport,
};
use avcc_field::P25;
use avcc_ml::dataset::{Dataset, DatasetConfig};
use avcc_sim::attack::ByzantineSpec;
use avcc_sim::churn::{ChaosSchedule, ChurnEventKind, ChurnSchedule};
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

fn make_trainer() -> DistributedTrainer<P25> {
    trainer_for(SchemeKind::Avcc, SchemeConfig::linear(12, 9, 2, 1).unwrap())
}

fn trainer_for(scheme: SchemeKind, coding: SchemeConfig) -> DistributedTrainer<P25> {
    DistributedTrainer::new(
        small_problem(),
        ClusterProfile::uniform(12),
        ByzantineSpec::none(),
        TrainerConfig {
            iterations: 6,
            ..TrainerConfig::paper_defaults(scheme, coding)
        },
        "chaos",
    )
}

/// The per-iteration `(accuracy, loss)` trajectory.
fn trajectory(report: &TrainingReport) -> Vec<(f64, f64)> {
    report
        .iterations
        .iter()
        .map(|r| (r.test_accuracy, r.train_loss))
        .collect()
}

/// Runs the quiet-fleet oracle.
fn oracle() -> Vec<(f64, f64)> {
    let mut trainer = make_trainer();
    let mut executor = VirtualExecutor::new(trainer.cluster().clone());
    let report = train_distributed(&mut trainer, &mut executor).unwrap();
    trajectory(&report)
}

/// Runs one chaos schedule and returns the trajectory.
fn chaos_run(schedule: ChurnSchedule) -> Vec<(f64, f64)> {
    chaos_run_on(&mut make_trainer(), schedule)
}

/// Runs one chaos schedule on `trainer` and returns the trajectory.
fn chaos_run_on(trainer: &mut DistributedTrainer<P25>, schedule: ChurnSchedule) -> Vec<(f64, f64)> {
    let mut executor = VirtualExecutor::new(trainer.cluster().clone());
    executor.set_churn(schedule);
    let report = train_distributed(trainer, &mut executor)
        .expect("every recoverable schedule must train to completion");
    trajectory(&report)
}

#[test]
fn chaos_matrix_is_bit_identical_to_the_quiet_fleet_oracle() {
    // {crash, stall, corrupt-then-rejoin, flap} × {1, 2 workers}: every cell
    // must reproduce the quiet oracle's model exactly. Faults land at round 2 (mid-iteration-1) so
    // both the round-1 and round-2 collects see perturbed fleets across the
    // run. All schedules stay above the recovery threshold (12 − 2 = 10 ≥ 9
    // responders), so no cell needs to park — parking has its own test.
    let worker_sets: [&[usize]; 2] = [&[5], &[5, 11]];
    let quiet = oracle();
    for workers in worker_sets {
        let schedules = [
            ("crash", ChaosSchedule::crash(workers, 2)),
            ("stall", ChaosSchedule::stall(workers, 2, 3, 25.0)),
            (
                "corrupt-then-rejoin",
                ChaosSchedule::corrupt_then_rejoin(workers, 2, 3),
            ),
            ("flap", ChaosSchedule::flap(workers, 2, 3)),
        ];
        for (name, schedule) in schedules {
            assert_eq!(
                chaos_run(schedule),
                quiet,
                "{name} × {workers:?} diverged from the oracle"
            );
        }
    }
}

#[test]
fn chaos_schedules_replay_identically_on_the_threaded_executor() {
    // The same churn schedule on the concurrent executor: arrival *order*
    // differs run to run, but the round clock (not wall-clock) drives the
    // churn windows, so the model must still match the oracle exactly.
    let quiet = oracle();
    let mut trainer = make_trainer();
    let mut executor = ThreadedExecutor::new(trainer.cluster().clone());
    executor.sleep_per_slowdown_unit = 0.0005;
    executor.set_churn(ChaosSchedule::flap(&[3, 7], 2, 3));
    let report = train_distributed(&mut trainer, &mut executor).unwrap();
    assert_eq!(trajectory(&report), quiet);
}

#[test]
fn below_threshold_fleet_parks_then_resumes_on_rejoin() {
    // Four workers flap out before the first dispatch: only 8 responders
    // remain, below the threshold of 9, so the driver must park the round
    // and re-dispatch until the flap window closes — and the trajectory must
    // still equal the quiet oracle's.
    let quiet = oracle();
    let mut trainer = make_trainer();
    let mut executor = VirtualExecutor::new(trainer.cluster().clone());
    executor.set_churn(ChaosSchedule::flap(&[0, 1, 2, 3], 0, 3));
    let report = train_distributed(&mut trainer, &mut executor)
        .expect("a below-threshold fleet must park, not error");
    assert_eq!(trajectory(&report), quiet);

    let kinds: Vec<ChurnEventKind> = trainer.fleet_events().iter().map(|e| e.kind).collect();
    assert!(
        kinds.contains(&ChurnEventKind::Parked),
        "the round must have parked: {kinds:?}"
    );
    assert!(
        kinds.contains(&ChurnEventKind::Resumed),
        "the parked round must have resumed: {kinds:?}"
    );
    assert!(
        !kinds.contains(&ChurnEventKind::ShrinkRecoded),
        "a rejoin inside the stall budget must not shrink the code: {kinds:?}"
    );
}

#[test]
fn exhausted_stall_budget_shrink_recodes_instead_of_erroring() {
    // A permanent crash of four workers leaves 8 responders — below the
    // threshold of 9, forever. The stall budget runs out and the driver must
    // shrink-recode (K 9 → 8 fits 8 responders) rather than fail; decode
    // stays exact, so the trajectory still matches the quiet oracle.
    let quiet = oracle();
    let mut trainer = make_trainer();
    let mut executor = VirtualExecutor::new(trainer.cluster().clone());
    executor.set_churn(ChaosSchedule::crash(&[0, 1, 2, 3], 2));
    let report = train_distributed(&mut trainer, &mut executor)
        .expect("an exhausted stall budget must shrink-recode, not error");
    assert_eq!(trajectory(&report), quiet);
    assert!(trainer.current_coding().partitions < 9);
    let kinds: Vec<ChurnEventKind> = trainer.fleet_events().iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&ChurnEventKind::ShrinkRecoded), "{kinds:?}");

    // The report charges the shrink's re-distribution cost somewhere.
    assert!(report.iterations.iter().any(|r| r.reconfigured));
}

#[test]
fn an_lcc_round_short_of_its_error_decoding_floor_parks_then_resumes() {
    // LCC (12, 9, 1, 1) error-decodes from 9 + 2·1 = 11 results. With two
    // workers flapped out only 10 respond, above the threshold of 9 but
    // short of that floor: the round must park until they rejoin, and the
    // trajectory must equal LCC's quiet-fleet oracle.
    let lcc = || trainer_for(SchemeKind::Lcc, SchemeConfig::linear(12, 9, 1, 1).unwrap());
    let quiet = chaos_run_on(&mut lcc(), ChurnSchedule::quiet());
    let mut trainer = lcc();
    let flapped = chaos_run_on(&mut trainer, ChaosSchedule::flap(&[5, 11], 2, 3));
    assert_eq!(flapped, quiet);

    let kinds: Vec<ChurnEventKind> = trainer.fleet_events().iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&ChurnEventKind::Parked), "{kinds:?}");
    assert!(kinds.contains(&ChurnEventKind::Resumed), "{kinds:?}");
}
