//! Encode-amortization benchmark: serving `m` matvec functions as one
//! multi-function [`JobSpec::MatMulBatch`] over a shared encoded dataset
//! versus `m` independent [`JobSpec::CodedMatVec`] jobs that each re-encode
//! the same matrix.
//!
//! The `batched_matmul/m{1,4,8}/{independent,shared}` pairs are the PR7
//! acceptance bench: at `m = 8` the shared-encode path beats the
//! independent path. The win is structural: the independent
//! path pays `m` Lagrange encodes (each `O(K · N · rows/K · cols)` work),
//! `m` key generations and `m` Lagrange-basis constructions, where
//! the batch pays each exactly once and verifies all `m` functions with a
//! single power-structured Freivalds pass. Outputs are bit-identical either
//! way, which the bench asserts once before timing.

use avcc_coding::SchemeConfig;
use avcc_field::P25;
use avcc_linalg::Matrix;
use avcc_serve::{Fleet, JobOutput, JobSpec, Scheduler, SchedulerConfig, ServingReport};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

const FLEET_WIDTH: usize = 4;
const ROWS: usize = 240;
const COLS: usize = 128;
const SEED: u64 = 100;

fn coding() -> SchemeConfig {
    SchemeConfig::linear(12, 8, 2, 1).expect("feasible coding")
}

fn problem(functions: usize) -> (Matrix<avcc_field::F25>, Vec<Vec<avcc_field::F25>>) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let matrix = Matrix::from_vec(ROWS, COLS, avcc_field::random_matrix(&mut rng, ROWS, COLS));
    let inputs = (0..functions)
        .map(|_| avcc_field::random_vector(&mut rng, COLS))
        .collect();
    (matrix, inputs)
}

/// `m` independent single-function jobs: one encode per function.
fn serve_independent(
    fleet: &Fleet,
    matrix: &Matrix<avcc_field::F25>,
    inputs: &[Vec<avcc_field::F25>],
) -> ServingReport<P25> {
    let mut scheduler = Scheduler::<P25>::new(SchedulerConfig::default());
    for input in inputs {
        scheduler
            .submit(
                JobSpec::matmul(matrix.clone(), input.clone())
                    .with_scheme(coding())
                    .with_seed(SEED)
                    .build(),
            )
            .expect("queue has room");
    }
    scheduler.run(fleet)
}

/// One multi-function job: a single encode shared by every function.
fn serve_shared(
    fleet: &Fleet,
    matrix: &Matrix<avcc_field::F25>,
    inputs: &[Vec<avcc_field::F25>],
) -> ServingReport<P25> {
    let mut scheduler = Scheduler::<P25>::new(SchedulerConfig::default());
    scheduler
        .submit(
            JobSpec::matmul(matrix.clone(), inputs[0].clone())
                .with_batch(inputs.to_vec())
                .with_scheme(coding())
                .with_seed(SEED)
                .build(),
        )
        .expect("queue has room");
    scheduler.run(fleet)
}

/// Flattens a report's matvec outputs into function order.
fn outputs(report: &ServingReport<P25>) -> Vec<Vec<avcc_field::F25>> {
    let mut all = Vec::new();
    for job in &report.jobs {
        match &job.output {
            JobOutput::MatVec(output) => all.push(output.clone()),
            JobOutput::MatVecBatch(batch) => all.extend(batch.iter().cloned()),
            _ => panic!("bench jobs are matvec jobs"),
        }
    }
    all
}

fn bench_batched_matmul(c: &mut Criterion) {
    let fleet = Fleet::new(FLEET_WIDTH);
    let mut group = c.benchmark_group("batched_matmul");

    for functions in [1usize, 4, 8] {
        let (matrix, inputs) = problem(functions);

        // Batching may only change the cost, never the answer.
        let independent = outputs(&serve_independent(&fleet, &matrix, &inputs));
        let shared = outputs(&serve_shared(&fleet, &matrix, &inputs));
        assert_eq!(
            independent, shared,
            "shared-encode outputs diverged from independent jobs at m={functions}"
        );

        group.bench_function(
            BenchmarkId::new(format!("m{functions}"), "independent"),
            |bencher| bencher.iter(|| serve_independent(&fleet, &matrix, &inputs)),
        );
        group.bench_function(
            BenchmarkId::new(format!("m{functions}"), "shared"),
            |bencher| bencher.iter(|| serve_shared(&fleet, &matrix, &inputs)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_batched_matmul);
criterion_main!(benches);
