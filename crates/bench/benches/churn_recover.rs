//! Churn-recovery benchmark: wall-clock of one training job on a churning
//! fleet against the same job on a quiet one.
//!
//! The fleet carries a sustained correlated slow rack (workers 0–2 at ×8,
//! the paper's straggler profile) whose sleeps dominate the timings, so the
//! comparison measures protocol structure rather than host compute noise.
//! The churn schedule flaps three fast workers out at round 2 and a fourth
//! at round 14, permanently. The fourth departure drops the fleet below the
//! recovery threshold, so rounds park and re-dispatch (each re-dispatch
//! paying a full slow-rack round) until the paper's dynamic-coding rule or
//! the stall-budget shrink re-encodes to a smaller `K`.
//!
//! `churn_recover/flap_fleet/{quiet,churned}`: the gap is what the churn
//! costs. Both cases are asserted bit-identical before any timing: churn,
//! parking and shrink-recoding may change *which* results decode, never the
//! decoded values.

use avcc_core::{ExperimentConfig, FaultScenario};
use avcc_field::P25;
use avcc_ml::dataset::DatasetConfig;
use avcc_serve::{Fleet, JobOutput, JobSpec, Scheduler, SchedulerConfig, ServingReport};
use avcc_sim::attack::AttackModel;
use avcc_sim::churn::{ChurnAction, ChurnSchedule};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const WORKERS: usize = 12;
const FLEET_WIDTH: usize = 4;

/// One AVCC training job designed for the slow rack (S = 3) with no
/// Byzantine workers, long enough (12 iterations) to outlast the fourth
/// departure.
fn job() -> ExperimentConfig {
    let scenario = FaultScenario::paper(3, 0, AttackModel::None);
    let mut config = ExperimentConfig::paper_avcc(3, 0, scenario);
    config.iterations = 12;
    config.seed = 17;
    config.dataset = DatasetConfig {
        train_samples: 180,
        test_samples: 60,
        features: 27,
        informative: 9,
        ..DatasetConfig::default()
    };
    config
}

/// Three fast workers leave at round 2; a fourth at round 14. The windows
/// outlast the job, so the departures are permanent.
fn churn() -> ChurnSchedule {
    let schedule = [7usize, 8, 9]
        .iter()
        .fold(ChurnSchedule::quiet(), |schedule, &worker| {
            schedule.at(
                2,
                ChurnAction::Flap {
                    worker,
                    rounds: 400,
                },
            )
        });
    schedule.at(
        14,
        ChurnAction::Flap {
            worker: 10,
            rounds: 400,
        },
    )
}

fn serve(fleet: &Fleet, churned: bool) -> ServingReport<P25> {
    let mut scheduler = Scheduler::<P25>::new(SchedulerConfig {
        sleep_per_slowdown_unit: 0.004,
        ..SchedulerConfig::default()
    });
    if churned {
        scheduler.set_churn(churn(), WORKERS);
    }
    scheduler
        .submit(JobSpec::Training(job()))
        .expect("queue has room");
    scheduler.run(fleet)
}

fn training_output(report: &ServingReport<P25>, case: &str) -> avcc_core::TrainingReport {
    assert_eq!(report.metrics.jobs_failed, 0, "{case}: job failed");
    let JobOutput::Training(output) = &report.jobs[0].output else {
        panic!("{case}: bench job is a training job");
    };
    (**output).clone()
}

fn bench_churn_recover(c: &mut Criterion) {
    let fleet = Fleet::new(FLEET_WIDTH);

    // Churn may only change the timing, never the results.
    let quiet = training_output(&serve(&fleet, false), "quiet");
    let churned = training_output(&serve(&fleet, true), "churned");
    assert_eq!(churned.len(), quiet.len(), "iteration count");
    for (index, (churned, oracle)) in churned.iterations.iter().zip(&quiet.iterations).enumerate() {
        assert_eq!(
            (churned.test_accuracy, churned.train_loss),
            (oracle.test_accuracy, oracle.train_loss),
            "model diverged from the quiet fleet at iteration {index}"
        );
    }
    // Pin the scenario's shape: the churned run re-encodes at least once.
    assert!(churned.reconfiguration_count() >= 1);

    let mut group = c.benchmark_group("churn_recover/flap_fleet");
    for (case, with_churn) in [("quiet", false), ("churned", true)] {
        group.bench_function(BenchmarkId::from_parameter(case), |bencher| {
            bencher.iter(|| serve(&fleet, with_churn))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_churn_recover);
criterion_main!(benches);
