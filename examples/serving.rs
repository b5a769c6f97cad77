//! Multi-job serving: pipelined vs synchronous scheduling on a shared fleet.
//!
//! Four training jobs — an uncoded baseline and three coded runs with
//! stragglers and a Byzantine worker — are submitted to one [`avcc::serve`]
//! scheduler and run twice on the same four-slot fleet: once with a pipeline
//! depth of four (rounds of different jobs overlap, master-side
//! verify/decode/encode hides inside other jobs' compute) and once
//! synchronously (one job at a time, the paper-style driver loop). The
//! pipelined schedule fills the slot time a synchronous schedule wastes
//! waiting on stragglers and on the master, which shows up directly in the
//! jobs/sec and occupancy numbers — while every job's result stays
//! bit-identical between the two schedules.
//!
//! A second act shows *encode amortization*: eight matvec functions served
//! as one [`JobSpec::MatMulBatch`] against a single shared encoded dataset, versus the same eight
//! functions as independent jobs that each re-encode the matrix. The batch
//! pays one encode, one batched Freivalds pass and prepares one Lagrange
//! basis for all its decodes — with bit-identical outputs.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example serving
//! ```

use std::time::Instant;

use avcc::coding::SchemeConfig;
use avcc::core::{ExperimentConfig, FaultScenario, SchemeKind};
use avcc::field::P25;
use avcc::linalg::Matrix;
use avcc::ml::dataset::DatasetConfig;
use avcc::serve::{Fleet, JobOutput, JobSpec, Scheduler, SchedulerConfig};
use avcc::sim::attack::AttackModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A short training job: three iterations on a small synthetic dataset.
fn job(scheme: SchemeKind, stragglers: usize, byzantine: usize, seed: u64) -> ExperimentConfig {
    let attack = if byzantine > 0 {
        AttackModel::constant()
    } else {
        AttackModel::None
    };
    let scenario = FaultScenario::paper(stragglers, byzantine, attack);
    let mut config = match scheme {
        SchemeKind::Uncoded => ExperimentConfig::paper_uncoded(scenario),
        SchemeKind::Lcc => ExperimentConfig::paper_lcc(scenario),
        _ => ExperimentConfig::paper_avcc(2, 1, scenario),
    };
    config.iterations = 3;
    config.seed = seed;
    config.dataset = DatasetConfig {
        train_samples: 360,
        test_samples: 120,
        features: 36,
        informative: 12,
        ..DatasetConfig::default()
    };
    config
}

fn run(label: &str, fleet: &Fleet, config: SchedulerConfig) -> avcc::serve::ServingReport<P25> {
    let mut scheduler = Scheduler::<P25>::new(config);
    for spec in [
        job(SchemeKind::Uncoded, 1, 0, 1),
        job(SchemeKind::Avcc, 2, 1, 2),
        job(SchemeKind::Lcc, 1, 1, 3),
        job(SchemeKind::Avcc, 1, 0, 4),
    ] {
        scheduler
            .submit(JobSpec::Training(spec))
            .expect("queue has room");
    }
    let report = scheduler.run(fleet);
    println!(
        "{label:>12}: {} jobs in {:.2}s  ({:.2} jobs/s, {:.2} rounds/s, occupancy {:.0}%, mean queue wait {:.2}s)",
        report.metrics.jobs_completed,
        report.metrics.span_seconds,
        report.metrics.jobs_per_second(),
        report.metrics.rounds_per_second(),
        report.metrics.pipeline_occupancy() * 100.0,
        report.metrics.mean_queue_wait_seconds(),
    );
    report
}

fn main() {
    let fleet = Fleet::new(4);
    println!(
        "serving 4 training jobs on a {}-slot fleet (stragglers sleep for real)\n",
        fleet.width()
    );

    let pipelined = run("pipelined", &fleet, SchedulerConfig::default());
    let synchronous = run("synchronous", &fleet, SchedulerConfig::synchronous());

    // The schedule changes the timing, never the results.
    for (fast, slow) in pipelined.jobs.iter().zip(&synchronous.jobs) {
        let (JobOutput::Training(fast), JobOutput::Training(slow)) = (&fast.output, &slow.output)
        else {
            panic!("all jobs are training jobs");
        };
        assert_eq!(
            fast.final_accuracy(),
            slow.final_accuracy(),
            "schedules must agree on every job's result"
        );
    }

    let speedup = synchronous.metrics.span_seconds / pipelined.metrics.span_seconds.max(1e-9);
    println!("\npipelining speedup on this fleet: {speedup:.2}x (identical results)");

    serve_batched_matmuls(&fleet);
}

/// Encode amortization: one multi-function job vs independent re-encoding
/// jobs, same functions, same fleet, bit-identical outputs.
fn serve_batched_matmuls(fleet: &Fleet) {
    let functions = 8;
    let mut rng = StdRng::seed_from_u64(42);
    let rows = 240;
    let cols = 128;
    let matrix = Matrix::from_vec(
        rows,
        cols,
        avcc::field::random_matrix::<P25, _>(&mut rng, rows, cols),
    );
    let inputs: Vec<Vec<avcc::field::F25>> = (0..functions)
        .map(|_| avcc::field::random_vector(&mut rng, cols))
        .collect();
    let coding = SchemeConfig::linear(12, 8, 2, 1).expect("feasible coding");
    println!("\nserving {functions} matvec functions over one {rows}x{cols} matrix");

    // Independent: every function re-encodes the matrix from scratch.
    let started = Instant::now();
    let mut scheduler = Scheduler::<P25>::new(SchedulerConfig::default());
    for input in &inputs {
        scheduler
            .submit(JobSpec::CodedMatVec {
                matrix: matrix.clone(),
                input: input.clone(),
                coding,
                seed: 7,
            })
            .expect("queue has room");
    }
    let independent = scheduler.run(fleet);
    let independent_seconds = started.elapsed().as_secs_f64();

    // Batched: one shared encoded dataset, one batched Freivalds pass.
    let started = Instant::now();
    let mut scheduler = Scheduler::<P25>::new(SchedulerConfig::default());
    let id = scheduler
        .submit(JobSpec::MatMulBatch {
            matrix: matrix.clone(),
            inputs: inputs.clone(),
            coding,
            seed: 7,
        })
        .expect("queue has room");
    let batched = scheduler.run(fleet);
    let batched_seconds = started.elapsed().as_secs_f64();

    let JobOutput::MatVecBatch(batch_outputs) = &batched.job(id).unwrap().output else {
        panic!("batched job must produce a MatVecBatch output");
    };
    for (job, batch_output) in independent.jobs.iter().zip(batch_outputs) {
        let JobOutput::MatVec(single) = &job.output else {
            panic!("independent jobs must produce MatVec outputs");
        };
        assert_eq!(single, batch_output, "batching must not change the answer");
    }

    println!(
        "  independent: {independent_seconds:.3}s  ({} encodes)",
        functions
    );
    println!("  batched:     {batched_seconds:.3}s  (1 encode, 1 decode basis)");
    println!(
        "  amortization speedup: {:.2}x (identical outputs)",
        independent_seconds / batched_seconds.max(1e-9)
    );
}
