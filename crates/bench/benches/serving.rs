//! Serving-layer benchmark: jobs/sec on a fixed-width fleet, pipelined
//! (depth 4) versus synchronous (depth 1) schedules over the same job batch.
//!
//! The `serving/jobs4_fleet4/{synchronous,pipelined}` pair is the PR6
//! acceptance bench: with four concurrent training jobs on a four-slot
//! fleet the pipelined schedule beats the synchronous one. The win is
//! structural, not a core-count artifact: each job carries a ×10 straggler
//! whose slot sleep (2 ms per unit of slowdown) sits on the synchronous
//! critical path every round, while the pipelined schedule overlaps the
//! sleeps (and the master-side encode/verify/decode) of different jobs on
//! the same slots. Results stay bit-identical either way, which the bench
//! asserts once before timing.

use avcc_core::{ExperimentConfig, FaultScenario};
use avcc_field::P25;
use avcc_ml::dataset::DatasetConfig;
use avcc_serve::{Fleet, JobOutput, JobSpec, Scheduler, SchedulerConfig, ServingReport};
use avcc_sim::attack::AttackModel;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const JOBS: usize = 4;
const FLEET_WIDTH: usize = 4;

/// A short uncoded training job with one ×10 straggler: the uncoded scheme
/// waits for every worker, so the straggler sleep bounds each round and the
/// timings are dominated by (deterministic) sleeps rather than by host
/// compute noise.
fn job(seed: u64) -> ExperimentConfig {
    let scenario = FaultScenario::paper(1, 0, AttackModel::None);
    let mut config = ExperimentConfig::paper_uncoded(scenario);
    config.iterations = 3;
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

fn serve(fleet: &Fleet, config: SchedulerConfig) -> ServingReport<P25> {
    let mut scheduler = Scheduler::<P25>::new(config);
    for seed in 0..JOBS as u64 {
        scheduler
            .submit(JobSpec::Training(job(seed + 1)))
            .expect("queue has room");
    }
    scheduler.run(fleet)
}

fn bench_serving(c: &mut Criterion) {
    let fleet = Fleet::new(FLEET_WIDTH);

    // The schedule may only change the timing, never the results.
    let pipelined = serve(&fleet, SchedulerConfig::default());
    let synchronous = serve(&fleet, SchedulerConfig::synchronous());
    for (fast, slow) in pipelined.jobs.iter().zip(&synchronous.jobs) {
        let (JobOutput::Training(fast), JobOutput::Training(slow)) = (&fast.output, &slow.output)
        else {
            panic!("all bench jobs are training jobs");
        };
        assert_eq!(
            fast.final_accuracy(),
            slow.final_accuracy(),
            "pipelined and synchronous schedules diverged"
        );
    }

    let mut group = c.benchmark_group(format!("serving/jobs{JOBS}_fleet{FLEET_WIDTH}"));
    group.bench_function(BenchmarkId::from_parameter("synchronous"), |bencher| {
        bencher.iter(|| serve(&fleet, SchedulerConfig::synchronous()))
    });
    group.bench_function(BenchmarkId::from_parameter("pipelined"), |bencher| {
        bencher.iter(|| serve(&fleet, SchedulerConfig::default()))
    });
    group.finish();
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
