//! Churn-recovery benchmark: wall-clock of one training job on a churning
//! fleet, with and without the adaptive-(K, T) autopilot.
//!
//! The fleet carries a sustained correlated slow rack (workers 0–2 at ×8,
//! the paper's straggler profile) whose sleeps dominate the timings, so the
//! comparison measures protocol structure rather than host compute noise.
//! The churn schedule flaps three fast workers out at round 2 and a fourth
//! at round 14, permanently:
//!
//! * `static` runs the paper's reactive controller. The fourth departure
//!   drops the fleet below the recovery threshold, so rounds park and
//!   re-dispatch (each re-dispatch paying a full slow-rack round) until the
//!   controller or the stall-budget shrink reacts.
//! * `autopilot` watches the smoothed missing-worker rate climb after the
//!   first three departures and retunes K downward *before* the fourth, so
//!   no round ever parks.
//!
//! `churn_recover/flap_fleet/{static,autopilot}` is the PR10 acceptance
//! pair: the autopilot against the static configuration under churn. The
//! `quiet` case (no churn) shows what the churn itself costs.
//! All three cases are asserted bit-identical before any timing: churn,
//! parking, shrink-recoding and retuning may change *which* results decode,
//! never the decoded values.

use avcc_core::{AutopilotConfig, ExperimentConfig, FaultScenario};
use avcc_field::P25;
use avcc_ml::dataset::DatasetConfig;
use avcc_serve::{Fleet, JobOutput, JobSpec, Scheduler, SchedulerConfig, ServingReport};
use avcc_sim::attack::AttackModel;
use avcc_sim::churn::{ChurnAction, ChurnSchedule};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const WORKERS: usize = 12;
const FLEET_WIDTH: usize = 4;

/// One AVCC training job designed for the slow rack (S = 3) with no
/// Byzantine workers; long enough (12 iterations) for the autopilot's EWMA
/// to cross its retune threshold before the fourth departure.
fn job(autopilot: bool) -> ExperimentConfig {
    let scenario = FaultScenario::paper(3, 0, AttackModel::None);
    let mut config = ExperimentConfig::paper_avcc(3, 0, scenario);
    config.iterations = 12;
    config.time_scale = 1.0;
    config.seed = 17;
    config.dataset = DatasetConfig {
        train_samples: 180,
        test_samples: 60,
        features: 27,
        informative: 9,
        ..DatasetConfig::default()
    };
    if autopilot {
        // A higher headroom keeps the quiet warmup from growing K (only to
        // have churn force it straight back down), and the longer cooldown
        // spaces retunes so the observed-straggler feedback cannot ping-pong
        // the code dimension — each retune costs a real re-encode.
        config.autopilot = AutopilotConfig {
            headroom: 2.0,
            cooldown: 6,
            ..AutopilotConfig::with_privacy(0)
        };
    }
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

fn serve(fleet: &Fleet, churned: bool, autopilot: bool) -> ServingReport<P25> {
    let mut scheduler = Scheduler::<P25>::new(SchedulerConfig {
        sleep_per_slowdown_unit: 0.004,
        ..SchedulerConfig::default()
    });
    if churned {
        scheduler.set_churn(churn(), WORKERS);
    }
    scheduler
        .submit(JobSpec::Training(job(autopilot)))
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
    let quiet = training_output(&serve(&fleet, false, false), "quiet");
    let static_churned = training_output(&serve(&fleet, true, false), "static");
    let autopiloted = training_output(&serve(&fleet, true, true), "autopilot");
    for (case, output) in [("static", &static_churned), ("autopilot", &autopiloted)] {
        assert_eq!(output.len(), quiet.len(), "{case}: iteration count");
        for (index, (churned, oracle)) in
            output.iterations.iter().zip(&quiet.iterations).enumerate()
        {
            assert_eq!(
                (churned.test_accuracy, churned.train_loss),
                (oracle.test_accuracy, oracle.train_loss),
                "{case}: model diverged from the quiet fleet at iteration {index}"
            );
        }
    }
    // Pin the scenario's shape: both churned runs re-encode at least once —
    // the static run reactively, the autopilot run through its retunes.
    assert!(static_churned.reconfiguration_count() >= 1);
    assert!(autopiloted.reconfiguration_count() >= 1);

    let mut group = c.benchmark_group("churn_recover/flap_fleet");
    group.bench_function(BenchmarkId::from_parameter("quiet"), |bencher| {
        bencher.iter(|| serve(&fleet, false, false))
    });
    group.bench_function(BenchmarkId::from_parameter("static"), |bencher| {
        bencher.iter(|| serve(&fleet, true, false))
    });
    group.bench_function(BenchmarkId::from_parameter("autopilot"), |bencher| {
        bencher.iter(|| serve(&fleet, true, true))
    });
    group.finish();
}

criterion_group!(benches, bench_churn_recover);
criterion_main!(benches);
