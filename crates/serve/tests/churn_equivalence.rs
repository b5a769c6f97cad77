//! Churn-tolerance contract of the serving layer (PR10): a pipelined
//! scheduler over a churning fleet must produce results **bit-identical** to
//! a synchronous scheduler over a quiet fleet, for every recoverable
//! [`ChurnSchedule`], across schemes and moduli.
//!
//! Churn perturbs which workers answer each round and when — never the
//! decoded values: decode is exact over any sufficient honest subset, and
//! parked rounds re-dispatch the same encoded tasks. The comparator is the
//! per-iteration `(test_accuracy, train_loss)` trajectory, a deterministic
//! function of the model weights.

use avcc_core::{ExperimentConfig, FaultScenario, SchemeKind};
use avcc_field::{PrimeModulus, P25, P64};
use avcc_ml::dataset::DatasetConfig;
use avcc_serve::{Fleet, JobOutput, JobSpec, Scheduler, SchedulerConfig};
use avcc_sim::churn::{ChurnAction, ChurnSchedule};
use proptest::prelude::*;

const WORKERS: usize = 12;

/// A quick verifying experiment: tiny dataset, two iterations, no faults
/// beyond whatever the churn schedule injects.
fn quick(scheme: SchemeKind, seed: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_avcc(2, 1, FaultScenario::none());
    config.scheme = scheme;
    config.iterations = 2;
    config.seed = seed;
    config.dataset = DatasetConfig {
        train_samples: 180,
        test_samples: 60,
        features: 27,
        informative: 9,
        ..DatasetConfig::default()
    };
    config
}

fn assert_trajectories_match(
    served: &avcc_core::TrainingReport,
    oracle: &avcc_core::TrainingReport,
    context: &str,
) {
    assert_eq!(served.len(), oracle.len(), "{context}: iteration count");
    for (index, (served, oracle)) in served.iterations.iter().zip(&oracle.iterations).enumerate() {
        assert_eq!(
            served.test_accuracy, oracle.test_accuracy,
            "{context}: accuracy diverged at iteration {index}"
        );
        assert_eq!(
            served.train_loss, oracle.train_loss,
            "{context}: loss diverged at iteration {index}"
        );
    }
}

/// Runs the same verifying-scheme job mix twice — churned + pipelined vs
/// quiet + synchronous — and demands bit-identical trajectories.
fn churned_matches_quiet<M: PrimeModulus>(seed: u64, max_down: usize) {
    let configs = [
        quick(SchemeKind::Avcc, seed),
        quick(SchemeKind::StaticVcc, seed + 1),
        quick(SchemeKind::Avcc, seed + 2),
    ];

    let quiet = {
        let fleet = Fleet::new(2);
        let mut scheduler = Scheduler::<M>::new(SchedulerConfig::synchronous());
        for config in &configs {
            scheduler.submit(JobSpec::Training(config.clone())).unwrap();
        }
        scheduler.run(&fleet)
    };
    assert_eq!(quiet.metrics.jobs_failed, 0);

    let churned = {
        let fleet = Fleet::new(2);
        let mut scheduler = Scheduler::<M>::new(SchedulerConfig::default());
        scheduler.set_churn(ChurnSchedule::seeded(seed, WORKERS, 64, max_down), WORKERS);
        for config in &configs {
            scheduler.submit(JobSpec::Training(config.clone())).unwrap();
        }
        scheduler.run(&fleet)
    };

    assert_eq!(churned.metrics.jobs_completed, configs.len());
    assert_eq!(churned.metrics.jobs_failed, 0);
    for (job, (fast, slow)) in churned.jobs.iter().zip(&quiet.jobs).enumerate() {
        assert_eq!(fast.id, slow.id);
        let (JobOutput::Training(fast), JobOutput::Training(slow)) = (&fast.output, &slow.output)
        else {
            panic!("both runs must produce training reports for job {job}");
        };
        assert_trajectories_match(
            fast,
            slow,
            &format!("job {job} under seeded churn (seed {seed}, max_down {max_down})"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Any recoverable seeded churn schedule — flaps and stall bursts with a
    /// bounded number of workers down at once — leaves pipelined serving
    /// bit-identical to the quiet synchronous run, for both verifying
    /// schemes on both a 25-bit and a 64-bit modulus.
    #[test]
    fn pipelined_serving_under_recoverable_churn_is_bit_identical(
        seed in 0u64..10_000,
        max_down in 1usize..3,
    ) {
        churned_matches_quiet::<P25>(seed, max_down);
        churned_matches_quiet::<P64>(seed, max_down);
    }
}

#[test]
fn below_threshold_round_parks_then_resumes_in_the_scheduler() {
    // Four workers flap out at the very first dispatch: 8 responders is
    // below AVCC's recovery threshold of 9, so the scheduler must park the
    // round and re-dispatch until the flap window closes — without shrinking
    // the code (the rejoin lands inside the stall budget) and without
    // disturbing the model.
    let config = quick(SchemeKind::Avcc, 77);
    let oracle = config.build_trainer::<P25>().train().unwrap();
    let schedule = (0..4).fold(ChurnSchedule::quiet(), |schedule, worker| {
        schedule.at(0, ChurnAction::Flap { worker, rounds: 2 })
    });

    let fleet = Fleet::new(2);
    let mut scheduler = Scheduler::<P25>::new(SchedulerConfig::default());
    scheduler.set_churn(schedule, WORKERS);
    let id = scheduler.submit(JobSpec::Training(config)).unwrap();
    let report = scheduler.run(&fleet);

    assert_eq!(
        report.metrics.jobs_failed, 0,
        "parking must not fail the job"
    );
    let JobOutput::Training(served) = &report.job(id).unwrap().output else {
        panic!("training job must produce a report");
    };
    assert_eq!(
        served.reconfiguration_count(),
        0,
        "a rejoin inside the stall budget must not shrink-recode"
    );
    assert_trajectories_match(served, &oracle, "parked-then-resumed job");
}
