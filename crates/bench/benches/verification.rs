//! Verification benchmarks: the Freivalds check against full recomputation of
//! the worker's product — the `O(m + d)` vs `O(m·d/K)` asymmetry of §II-B
//! that makes per-result verification affordable.

use avcc_field::{F25, F64, P25, P64};
use avcc_linalg::{mat_vec, Matrix};
use avcc_verify::{KeyGenConfig, MatVecKey};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup(rows: usize, cols: usize) -> (Matrix<F25>, MatVecKey<P25>, Vec<F25>, Vec<F25>) {
    let mut rng = StdRng::seed_from_u64(3);
    let block = Matrix::from_vec(rows, cols, avcc_field::random_matrix(&mut rng, rows, cols));
    let key = MatVecKey::generate(&block, KeyGenConfig::default(), &mut rng);
    let w: Vec<F25> = avcc_field::random_vector(&mut rng, cols);
    let z = mat_vec(&block, &w);
    (block, key, w, z)
}

fn bench_verification_vs_recompute(c: &mut Criterion) {
    let mut group = c.benchmark_group("verify");
    for &(rows, cols) in &[(100usize, 63usize), (667, 630), (667, 5000)] {
        let (block, key, w, z) = setup(rows, cols);
        group.bench_with_input(
            BenchmarkId::new("freivalds", format!("{rows}x{cols}")),
            &rows,
            |bencher, _| bencher.iter(|| key.verify(black_box(&w), black_box(&z))),
        );
        group.bench_with_input(
            BenchmarkId::new("recompute", format!("{rows}x{cols}")),
            &rows,
            |bencher, _| bencher.iter(|| mat_vec(black_box(&block), black_box(&w))),
        );
    }
    group.finish();
}

fn bench_key_generation(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let block = Matrix::from_vec(100, 63, avcc_field::random_matrix(&mut rng, 100, 63));
    c.bench_function("verify/keygen_100x63", |bencher| {
        bencher.iter(|| {
            MatVecKey::<P25>::generate(black_box(&block), KeyGenConfig::default(), &mut rng)
        })
    });
    // One share of the e2e `matmul_batch` job: the carry-counting
    // `WideAccumulator` lanes, two rows per pass.
    let share: Matrix<F64> =
        Matrix::from_vec(240, 512, avcc_field::random_matrix(&mut rng, 240, 512));
    c.bench_function("verify/keygen_p64_240x512", |bencher| {
        bencher.iter(|| {
            MatVecKey::<P64>::generate(black_box(&share), KeyGenConfig::default(), &mut rng)
        })
    });
}

criterion_group!(
    benches,
    bench_verification_vs_recompute,
    bench_key_generation
);
criterion_main!(benches);
