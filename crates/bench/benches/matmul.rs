//! Worker-kernel benchmarks: the serial field matrix–vector and
//! transpose–vector products every executor and the Freivalds key generation
//! run. These calibrate the simulator's compute-cost model and back the claim
//! that the worker compute dominates the master-side overheads.

use avcc_field::{Fp, PrimeModulus, F25, P61, P64};
use avcc_linalg::{mat_vec, matt_vec, Matrix};
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

/// One worker's share of an e2e `matmul_batch` job — a 240 × 512 block
/// against the job's 8 inputs — on the two tight-batch moduli, whose
/// `mat_vec` counts carries instead of collapsing every
/// [`PrimeModulus::WIDE_BATCH`] products.
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

criterion_group!(benches, bench_worker_kernel, bench_tight_batch_kernel);
criterion_main!(benches);
