//! Worker-kernel benchmarks: the serial field matrix–vector and
//! transpose–vector products every executor and the Freivalds key generation
//! run, and the master's `f64` evaluation pass. These calibrate the
//! simulator's compute-cost model and back the claim that the worker compute
//! dominates the master-side overheads.

use avcc_core::TrainingProblem;
use avcc_field::{Fp, PrimeModulus, F25, P25, P61, P64};
use avcc_linalg::{mat_vec, matt_vec, real_mat_vec, Matrix};
use avcc_ml::dataset::{Dataset, DatasetConfig};
use avcc_ml::logistic::LogisticModel;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<F25> {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_vec(rows, cols, avcc_field::random_matrix(&mut rng, rows, cols))
}

fn bench_worker_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul/worker_block");
    // A worker block of the paper's GISETTE partition: 667 x 5000.
    for &(rows, cols) in &[(100usize, 63usize), (667, 5000)] {
        let matrix = random_matrix(rows, cols, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let x: Vec<F25> = avcc_field::random_vector(&mut rng, cols);
        let y: Vec<F25> = avcc_field::random_vector(&mut rng, rows);
        group.bench_with_input(
            BenchmarkId::new("mat_vec", format!("{rows}x{cols}")),
            &rows,
            |bencher, _| bencher.iter(|| mat_vec(black_box(&matrix), black_box(&x))),
        );
        group.bench_with_input(
            BenchmarkId::new("matt_vec", format!("{rows}x{cols}")),
            &rows,
            |bencher, _| bencher.iter(|| matt_vec(black_box(&matrix), black_box(&y))),
        );
    }
    group.finish();
}

/// The two worker kernels of an e2e `train_quiet` iteration on the paper's
/// field, which takes narrow `u64` lanes: round one's 200 × 261 block
/// (`X̃w`) and round two's 29 × 1 800 block (`X̃ᵀe`, stored transposed), over
/// field elements and over the `u32`s a socket worker stores them as. Each
/// is timed hot (one block, in cache) and in rotation: twelve workers'
/// blocks of each shape, 24 in turn, the way the fleet's blocks are evicted
/// from a two-core host's cache between one worker's tasks.
fn bench_train_quiet_blocks(c: &mut Criterion) {
    let narrow = |values: &[F25]| -> Vec<u32> { values.iter().map(|v| v.value() as u32).collect() };
    let mut group = c.benchmark_group("matmul/train_quiet_block/p25");
    let mut rotation = Vec::new();
    for (rows, cols) in [(200usize, 261usize), (29, 1800)] {
        for worker in 0..12 {
            let matrix = random_matrix(rows, cols, 4 + worker);
            let mut rng = StdRng::seed_from_u64(5 + worker);
            let x: Vec<F25> = avcc_field::random_vector(&mut rng, cols);
            let stored = Matrix::from_vec(rows, cols, narrow(matrix.data()));
            let x_stored = narrow(&x);
            if worker == 0 {
                let shape = format!("{rows}x{cols}");
                group.bench_function(BenchmarkId::new("mat_vec", &shape), |bencher| {
                    bencher.iter(|| mat_vec(black_box(&matrix), black_box(&x)))
                });
                group.bench_function(BenchmarkId::new("mat_vec_u32", &shape), |bencher| {
                    bencher.iter(|| mat_vec::<P25, u32>(black_box(&stored), black_box(&x_stored)))
                });
            }
            rotation.push(((matrix, x), (stored, x_stored)));
        }
    }
    let mut turn = 0;
    group.bench_function(BenchmarkId::new("rotating_24", "fp"), |bencher| {
        bencher.iter(|| {
            let ((matrix, x), _) = &rotation[turn % rotation.len()];
            turn += 1;
            mat_vec(black_box(matrix), black_box(x))
        })
    });
    group.bench_function(BenchmarkId::new("rotating_24", "u32"), |bencher| {
        bencher.iter(|| {
            let (_, (stored, x)) = &rotation[turn % rotation.len()];
            turn += 1;
            mat_vec::<P25, u32>(black_box(stored), black_box(x))
        })
    });
    group.finish();
}

/// The master's evaluation pass on the e2e `train_quiet` problem: `X·w`
/// over the scaled 1 800 × 261 training features, in `f64`; then the whole
/// per-iteration evaluation (test accuracy and training loss, 2 160 rows)
/// serially, as `evaluate_accuracy` + `evaluate_loss`, and on one and two
/// spans, as `LogisticModel::evaluate` runs it.
fn bench_evaluate(c: &mut Criterion) {
    let dataset = Dataset::gisette_like(DatasetConfig {
        train_samples: 1800,
        test_samples: 360,
        features: 255,
        informative: 85,
        seed: 1,
        ..DatasetConfig::default()
    });
    let problem = TrainingProblem::from_dataset(&dataset, 9);
    let weights: Vec<f64> = (0..problem.features())
        .map(|j| (j as f64 * 0.37).sin())
        .collect();
    c.bench_function("evaluate/1800x261", |bencher| {
        bencher.iter(|| real_mat_vec(black_box(&problem.train_features), black_box(&weights)))
    });
    let model = LogisticModel { weights };
    let (test, train) = (&problem.test_features, &problem.train_features);
    let (test_labels, train_labels) = (&problem.test_labels, &problem.train_labels);
    c.bench_function("evaluate/2160x261/serial", |bencher| {
        bencher.iter(|| {
            (
                model.evaluate_accuracy(black_box(test), test_labels),
                model.evaluate_loss(black_box(train), train_labels),
            )
        })
    });
    for threads in [1, 2] {
        c.bench_function(&format!("evaluate/2160x261/spans_{threads}"), |bencher| {
            bencher.iter(|| {
                model.evaluate_in_spans(black_box(test), test_labels, train, train_labels, threads)
            })
        });
    }
}

/// One worker's share of an e2e `matmul_batch` job — a 240 × 512 block
/// against the job's 8 inputs — on the two moduli whose `mat_vec` counts
/// carries in `u128` lanes.
fn bench_tight_batch_kernel(c: &mut Criterion) {
    fn run<M: PrimeModulus>(c: &mut Criterion, field_name: &str) {
        let mut rng = StdRng::seed_from_u64(3);
        let matrix = Matrix::from_vec(240, 512, avcc_field::random_matrix(&mut rng, 240, 512));
        let inputs: Vec<Vec<Fp<M>>> = (0..8)
            .map(|_| avcc_field::random_vector(&mut rng, 512))
            .collect();
        c.bench_function(&format!("matmul/batch_block_240x512x8/{field_name}"), |b| {
            b.iter(|| {
                inputs
                    .iter()
                    .map(|x| mat_vec(black_box(&matrix), black_box(x)))
                    .collect::<Vec<_>>()
            })
        });
    }
    run::<P64>(c, "p64");
    run::<P61>(c, "p61");
}

criterion_group!(
    benches,
    bench_worker_kernel,
    bench_train_quiet_blocks,
    bench_evaluate,
    bench_tight_batch_kernel
);
criterion_main!(benches);
