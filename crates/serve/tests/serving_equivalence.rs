//! The serving layer's contract with the synchronous driver: whatever the
//! fleet width, pipeline depth, scheme mix or fault profile, every training
//! job served by the scheduler produces results bit-identical to
//! `DistributedTrainer::train` — plus admission-control coverage for the
//! scheduler itself.
//!
//! The equivalence comparator is the per-iteration `(test_accuracy,
//! train_loss)` trajectory: both are deterministic `f64` functions of the
//! model weights, so exact equality across every iteration certifies
//! bit-identical models without reaching into the trainer.

use avcc_coding::SchemeConfig;
use avcc_core::{ExperimentConfig, FaultScenario, SchemeKind};
use avcc_field::{PrimeField, F25, P25};
use avcc_linalg::{mat_vec, Matrix};
use avcc_ml::dataset::DatasetConfig;
use avcc_serve::{Fleet, JobOutput, JobSpec, Scheduler, SchedulerConfig};
use avcc_sim::attack::AttackModel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A quick experiment: tiny dataset, two iterations.
fn quick(scheme: SchemeKind, stragglers: usize, byzantine: usize, seed: u64) -> ExperimentConfig {
    let attack = if byzantine > 0 {
        AttackModel::constant()
    } else {
        AttackModel::None
    };
    // Clamp the injected faults to each scheme's designed tolerance so the
    // run is guaranteed to succeed (beyond-design behaviour is covered by
    // `overwhelmed_job_shrink_recodes_instead_of_failing`). The uncoded
    // baseline tolerates nothing but fails on nothing either: corruption
    // flows into the model deterministically.
    let (config_stragglers, config_byzantine) = match scheme {
        SchemeKind::Uncoded => (stragglers, byzantine),
        SchemeKind::Lcc => (stragglers.min(1), byzantine.min(1)),
        SchemeKind::Avcc | SchemeKind::StaticVcc => (stragglers.min(2), byzantine.min(1)),
    };
    let scenario = FaultScenario::paper(config_stragglers, config_byzantine, attack);
    let mut config = match scheme {
        SchemeKind::Uncoded => ExperimentConfig::paper_uncoded(scenario),
        SchemeKind::Lcc => ExperimentConfig::paper_lcc(scenario),
        SchemeKind::Avcc => ExperimentConfig::paper_avcc(2, 1, scenario),
        SchemeKind::StaticVcc => {
            let mut config = ExperimentConfig::paper_avcc(2, 1, scenario);
            config.scheme = SchemeKind::StaticVcc;
            config
        }
    };
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn concurrent_jobs_match_the_serial_driver_bit_for_bit(
        width in 1usize..5,
        mix in proptest::collection::vec(0usize..4, 2..5),
        stragglers in 0usize..3,
        byzantine in 0usize..2,
    ) {
        let schemes = [
            SchemeKind::Uncoded,
            SchemeKind::Lcc,
            SchemeKind::Avcc,
            SchemeKind::StaticVcc,
        ];
        let configs: Vec<ExperimentConfig> = mix
            .iter()
            .enumerate()
            .map(|(job, &pick)| quick(schemes[pick], stragglers, byzantine, 42 + job as u64))
            .collect();

        // Oracle: each job alone on the synchronous driver.
        let oracles: Vec<_> = configs
            .iter()
            .map(|config| config.build_trainer::<P25>().train().unwrap())
            .collect();

        // All jobs concurrently on a shared fleet.
        let fleet = Fleet::new(width);
        let mut scheduler = Scheduler::<P25>::new(SchedulerConfig::default());
        let ids: Vec<_> = configs
            .iter()
            .map(|config| scheduler.submit(JobSpec::Training(config.clone())).unwrap())
            .collect();
        let report = scheduler.run(&fleet);

        prop_assert_eq!(report.metrics.jobs_completed, configs.len());
        prop_assert_eq!(report.metrics.jobs_failed, 0);
        for (job, (&id, oracle)) in ids.iter().zip(&oracles).enumerate() {
            let completed = report.job(id).expect("every job must be reported");
            let JobOutput::Training(served) = &completed.output else {
                panic!("training job {job} must produce a training report");
            };
            let context = format!(
                "job {job} ({}), width {width}, S={stragglers}, M={byzantine}",
                oracle.scheme
            );
            assert_trajectories_match(served, oracle, &context);
        }
    }
}

#[test]
fn pipelined_and_synchronous_schedules_agree() {
    // Same four jobs, depth 4 vs depth 1: the schedule must not leak into
    // the results, only into the timing.
    let configs: Vec<ExperimentConfig> = (0..4)
        .map(|job| {
            quick(
                [SchemeKind::Uncoded, SchemeKind::Avcc][job % 2],
                job % 3,
                job % 2,
                100 + job as u64,
            )
        })
        .collect();
    let fleet = Fleet::new(3);

    let run = |scheduler_config: SchedulerConfig| {
        let mut scheduler = Scheduler::<P25>::new(scheduler_config);
        for config in &configs {
            scheduler.submit(JobSpec::Training(config.clone())).unwrap();
        }
        scheduler.run(&fleet)
    };
    let pipelined = run(SchedulerConfig::default());
    let synchronous = run(SchedulerConfig::synchronous());

    assert_eq!(pipelined.metrics.jobs_completed, 4);
    assert_eq!(synchronous.metrics.jobs_completed, 4);
    for (fast, slow) in pipelined.jobs.iter().zip(&synchronous.jobs) {
        assert_eq!(fast.id, slow.id);
        let (JobOutput::Training(fast), JobOutput::Training(slow)) = (&fast.output, &slow.output)
        else {
            panic!("both schedules must produce training reports");
        };
        assert_trajectories_match(fast, slow, "pipelined vs synchronous");
    }
}

#[test]
fn mixed_training_and_matvec_jobs_share_the_fleet() {
    let mut rng = StdRng::seed_from_u64(11);
    let rows = 30;
    let cols = 8;
    let matrix = Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| F25::from_u64(rng.gen_range(0..F25::MODULUS)))
            .collect::<Vec<F25>>(),
    );
    let input: Vec<F25> = (0..cols)
        .map(|_| F25::from_u64(rng.gen_range(0..F25::MODULUS)))
        .collect();
    let expected = mat_vec(&matrix, &input);
    let training = quick(SchemeKind::Avcc, 1, 1, 7);
    let oracle = training.build_trainer::<P25>().train().unwrap();

    let fleet = Fleet::new(2);
    let mut scheduler = Scheduler::<P25>::new(SchedulerConfig::default());
    let train_id = scheduler.submit(JobSpec::Training(training)).unwrap();
    let matvec_id = scheduler
        .submit(JobSpec::CodedMatVec {
            matrix,
            input,
            coding: avcc_coding::SchemeConfig::linear(12, 8, 2, 1).unwrap(),
            seed: 5,
        })
        .unwrap();
    let report = scheduler.run(&fleet);

    assert_eq!(report.metrics.jobs_completed, 2);
    let JobOutput::Training(served) = &report.job(train_id).unwrap().output else {
        panic!("training job must produce a report");
    };
    assert_trajectories_match(served, &oracle, "mixed-fleet training job");
    let JobOutput::MatVec(product) = &report.job(matvec_id).unwrap().output else {
        panic!("matvec job must produce a product");
    };
    assert_eq!(product, &expected);
}

#[test]
fn overwhelmed_job_shrink_recodes_instead_of_failing() {
    // Five Byzantine workers leave only 7 honest results — below AVCC's
    // designed recovery threshold of 9. Instead of aborting (the pre-elastic
    // behaviour), the scheduler exhausts the round's stall budget and then
    // shrink-recodes to a K whose threshold fits the 7 usable results, so
    // the job completes; its neighbour is untouched throughout.
    //
    // Decode is exact whatever the code dimension and the corrupt results
    // are detected and excluded, so the rescued job's model trajectory must
    // equal a fault-free run of the same problem bit for bit.
    let mut overwhelmed = quick(SchemeKind::Avcc, 0, 1, 21);
    overwhelmed.scenario = FaultScenario::paper(0, 5, AttackModel::constant());
    let clean_reference = {
        let mut config = overwhelmed.clone();
        config.scenario = FaultScenario::none();
        config
    };
    let healthy = quick(SchemeKind::Avcc, 1, 0, 22);

    let fleet = Fleet::new(2);
    let mut scheduler = Scheduler::<P25>::new(SchedulerConfig::default());
    let rescued_id = scheduler.submit(JobSpec::Training(overwhelmed)).unwrap();
    let healthy_id = scheduler
        .submit(JobSpec::Training(healthy.clone()))
        .unwrap();
    let report = scheduler.run(&fleet);

    assert_eq!(report.metrics.jobs_failed, 0);
    assert_eq!(report.metrics.jobs_completed, 2);
    let JobOutput::Training(rescued) = &report.job(rescued_id).unwrap().output else {
        panic!("rescued job must produce a report");
    };
    assert!(
        rescued.reconfiguration_count() >= 1,
        "the rescue must have re-encoded"
    );
    let clean_oracle = clean_reference.build_trainer::<P25>().train().unwrap();
    assert_trajectories_match(rescued, &clean_oracle, "shrink-recoded job");
    let JobOutput::Training(served) = &report.job(healthy_id).unwrap().output else {
        panic!("healthy job must produce a report");
    };
    let oracle = healthy.build_trainer::<P25>().train().unwrap();
    assert_trajectories_match(served, &oracle, "healthy job next to a parked one");
}

#[test]
fn queue_drains_after_a_run_and_accepts_new_jobs() {
    let mut scheduler = Scheduler::<P25>::new(SchedulerConfig {
        max_in_flight: 2,
        queue_capacity: 2,
        ..SchedulerConfig::default()
    });
    let spec = || JobSpec::Training(quick(SchemeKind::Uncoded, 0, 0, 1));
    scheduler.submit(spec()).unwrap();
    scheduler.submit(spec()).unwrap();
    assert!(scheduler.submit(spec()).is_err());

    let fleet = Fleet::new(2);
    let report = scheduler.run(&fleet);
    assert_eq!(report.metrics.jobs_completed, 2);
    assert_eq!(scheduler.pending_jobs(), 0);

    // Backpressure released: the queue accepts again, and ids keep growing.
    let id = scheduler.submit(spec()).unwrap();
    assert_eq!(id, 2);
    let report = scheduler.run(&fleet);
    assert_eq!(report.metrics.jobs_completed, 1);
}

/// Builds a deterministic test matrix and `m` input vectors from a seed.
fn batch_problem(seed: u64, functions: usize) -> (Matrix<F25>, Vec<Vec<F25>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = 24;
    let cols = 10;
    let matrix = Matrix::from_vec(rows, cols, avcc_field::random_matrix(&mut rng, rows, cols));
    let inputs = (0..functions)
        .map(|_| avcc_field::random_vector(&mut rng, cols))
        .collect();
    (matrix, inputs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A multi-function matmul job is bit-identical to `m` independent
    /// single-function jobs over the same seed — and both match the plain
    /// `mat_vec` oracle. This is the serve-level face of the amortization
    /// contract: batching changes the cost, never the answer.
    #[test]
    fn batched_job_matches_independent_single_jobs(
        seed in 0u64..1000,
        functions in 2usize..7,
    ) {
        let (matrix, inputs) = batch_problem(seed, functions);
        let oracle: Vec<Vec<F25>> = inputs.iter().map(|input| mat_vec(&matrix, input)).collect();
        let coding = SchemeConfig::linear(12, 8, 2, 1).unwrap();
        let fleet = Fleet::new(2);

        let mut scheduler = Scheduler::<P25>::new(SchedulerConfig::default());
        let batch_id = scheduler
            .submit(
                JobSpec::matmul(matrix.clone(), inputs[0].clone())
                    .with_batch(inputs.clone())
                    .with_scheme(coding)
                    .with_seed(seed)
                    .build(),
            )
            .unwrap();
        let single_ids: Vec<_> = inputs
            .iter()
            .map(|input| {
                scheduler
                    .submit(
                        JobSpec::matmul(matrix.clone(), input.clone())
                            .with_scheme(coding)
                            .with_seed(seed)
                            .build(),
                    )
                    .unwrap()
            })
            .collect();
        let report = scheduler.run(&fleet);

        let batch_job = report.job(batch_id).unwrap();
        let JobOutput::MatVecBatch(batch_outputs) = &batch_job.output else {
            panic!("batched job must produce a MatVecBatch output");
        };
        prop_assert_eq!(batch_outputs, &oracle);
        for (function, id) in single_ids.iter().enumerate() {
            let JobOutput::MatVec(single) = &report.job(*id).unwrap().output else {
                panic!("single job must produce a MatVec output");
            };
            prop_assert_eq!(single, &oracle[function]);
            prop_assert_eq!(single, &batch_outputs[function]);
        }
        prop_assert_eq!(report.metrics.jobs_completed, functions + 1);
    }
}
