//! Worker-kernel benchmarks: serial versus multi-threaded field matrix–vector
//! and matrix–matrix products. These calibrate the simulator's compute-cost
//! model and back the claim that the worker compute dominates the master-side
//! overheads.
//!
//! The `mat_mat_512/<field>/{serial,pooled}` pairs are the PR4 acceptance
//! benches: the pooled kernel (chunks as `avcc_pool` work-stealing tasks)
//! against the PR1 serial blocked kernel. On a single-core host the pool
//! degenerates to the serial path, so the pair ties; on multi-core hosts the pooled side
//! wins by roughly the core count. `pool_fanout/*` compares the *dispatch
//! mechanisms* themselves — per-task scoped OS threads (the pre-PR4
//! implementation) against pool tasks — at a granularity where spawn
//! overhead matters.

use avcc_field::{Fp, PrimeModulus, F25, F61};
use avcc_linalg::partition::chunk_ranges;
use avcc_linalg::{
    mat_mat, mat_mat_auto, mat_mat_parallel, mat_vec, mat_vec_parallel, matt_vec,
    matt_vec_parallel, Matrix,
};
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

fn bench_parallel_speedup(c: &mut Criterion) {
    let matrix = random_matrix(2000, 1000, 3);
    let mut rng = StdRng::seed_from_u64(4);
    let x: Vec<F25> = avcc_field::random_vector(&mut rng, 1000);
    let y: Vec<F25> = avcc_field::random_vector(&mut rng, 2000);
    let mut group = c.benchmark_group("matmul/parallel_2000x1000");
    for &threads in &[1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("mat_vec", threads),
            &threads,
            |bencher, &threads| {
                bencher.iter(|| mat_vec_parallel(black_box(&matrix), black_box(&x), threads))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("matt_vec", threads),
            &threads,
            |bencher, &threads| {
                bencher.iter(|| matt_vec_parallel(black_box(&matrix), black_box(&y), threads))
            },
        );
    }
    group.finish();
}

/// The PR4 acceptance kernel: 512×512 matrix–matrix product, serial blocked
/// strips versus the same strips as work-stealing pool tasks.
fn bench_mat_mat_512(c: &mut Criterion) {
    const N: usize = 512;

    fn run<M: PrimeModulus>(c: &mut Criterion, field_name: &str, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Matrix<Fp<M>> = Matrix::from_vec(N, N, avcc_field::random_matrix(&mut rng, N, N));
        let b: Matrix<Fp<M>> = Matrix::from_vec(N, N, avcc_field::random_matrix(&mut rng, N, N));
        let threads = avcc_pool::global().parallelism();
        let mut group = c.benchmark_group(format!("mat_mat_512/{field_name}"));
        group.bench_function(BenchmarkId::from_parameter("serial"), |bencher| {
            bencher.iter(|| mat_mat(black_box(&a), black_box(&b)))
        });
        group.bench_function(BenchmarkId::from_parameter("pooled"), |bencher| {
            bencher.iter(|| mat_mat_parallel(black_box(&a), black_box(&b), threads))
        });
        group.finish();
    }

    run::<avcc_field::P25>(c, "p25", 7);
    run::<avcc_field::P61>(c, "p61", 8);
}

/// Dispatch-mechanism comparison: fanning eight moderate dot-product chunks
/// out as scoped OS threads (one spawn per chunk, the pre-PR4 pattern)
/// versus as pool tasks. The work per chunk is small enough that dispatch
/// overhead is visible; the pool pays one queue push per task instead of an
/// OS thread spawn/join.
fn bench_pool_fanout(c: &mut Criterion) {
    const CHUNKS: usize = 8;
    const CHUNK_LEN: usize = 4096;
    let mut rng = StdRng::seed_from_u64(9);
    let a: Vec<F61> = avcc_field::random_vector(&mut rng, CHUNKS * CHUNK_LEN);
    let b: Vec<F61> = avcc_field::random_vector(&mut rng, CHUNKS * CHUNK_LEN);
    let ranges = chunk_ranges(a.len(), CHUNKS);

    let mut group = c.benchmark_group(format!("pool_fanout/dot{CHUNKS}x{CHUNK_LEN}"));
    group.bench_function(BenchmarkId::from_parameter("scoped_threads"), |bencher| {
        bencher.iter(|| {
            let partials: Vec<F61> = std::thread::scope(|scope| {
                let handles: Vec<_> = ranges
                    .iter()
                    .cloned()
                    .map(|range| {
                        let (a, b) = (&a, &b);
                        scope.spawn(move || avcc_field::dot(&a[range.clone()], &b[range]))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("fanout thread panicked"))
                    .collect()
            });
            black_box(partials)
        })
    });
    group.bench_function(BenchmarkId::from_parameter("pool"), |bencher| {
        bencher.iter(|| {
            let partials = avcc_pool::map_ranges(ranges.clone(), |range| {
                avcc_field::dot(&a[range.clone()], &b[range])
            });
            black_box(partials)
        })
    });
    group.finish();
}

/// The PR6 autotune pair: the same 768×512 matrix–matrix product dispatched
/// with the historical fixed 8-way fan-out versus the autotuned chunk count
/// (`auto_chunk_count`: work size × global pool width, floor on chunk size).
/// On hosts where 8 happens to be
/// the right answer the pair ties, while narrow pools and small blocks see
/// the autotuned side skip queueing costs the fixed count pays.
fn bench_chunk_autotune(c: &mut Criterion) {
    const ROWS: usize = 768;
    const COLS: usize = 512;
    let mut rng = StdRng::seed_from_u64(10);
    let a: Matrix<F25> =
        Matrix::from_vec(ROWS, COLS, avcc_field::random_matrix(&mut rng, ROWS, COLS));
    let b: Matrix<F25> =
        Matrix::from_vec(COLS, COLS, avcc_field::random_matrix(&mut rng, COLS, COLS));

    let mut group = c.benchmark_group(format!("chunk_autotune/{ROWS}x{COLS}"));
    group.bench_function(BenchmarkId::from_parameter("fixed8"), |bencher| {
        bencher.iter(|| mat_mat_parallel(black_box(&a), black_box(&b), 8))
    });
    group.bench_function(BenchmarkId::from_parameter("auto"), |bencher| {
        bencher.iter(|| mat_mat_auto(black_box(&a), black_box(&b)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_worker_kernel,
    bench_parallel_speedup,
    bench_mat_mat_512,
    bench_pool_fanout,
    bench_chunk_autotune
);
criterion_main!(benches);
