//! Encoding benchmarks: MDS/Lagrange encoding cost as a function of the data
//! size and the worker count, backing the paper's "encoding is a one-time,
//! near-linear cost" discussion (§II-A), plus the systematic `F64` encode at
//! large `K` (`encode_f64/*`) and `encode_dataset/*`: the whole one-time
//! preprocessing of a dataset as the engines pay it
//! (`EncodedDataset::encode`, the matrix read in place).

use avcc_coding::{EncodedDataset, LagrangeEncoder, SchemeConfig};
use avcc_field::{F25, F64, P25, P64};
use avcc_linalg::Matrix;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn data_blocks(rows: usize, cols: usize, partitions: usize, seed: u64) -> Vec<Matrix<F25>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let matrix = Matrix::from_vec(rows, cols, avcc_field::random_matrix(&mut rng, rows, cols));
    matrix.split_rows(partitions)
}

fn bench_mds_encoding_by_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("encode/mds_12_9");
    for &rows in &[90usize, 450, 900] {
        let blocks = data_blocks(rows, 63, 9, 1);
        let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
        let encoder = LagrangeEncoder::<P25>::new(config);
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |bencher, _| {
            bencher.iter(|| encoder.encode_deterministic(black_box(&blocks)))
        });
    }
    group.finish();
}

fn bench_encoding_by_worker_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("encode/workers");
    for &workers in &[12usize, 18, 24] {
        let blocks = data_blocks(450, 63, 9, 2);
        let config = SchemeConfig::linear(workers, 9, workers - 10, 1).unwrap();
        let encoder = LagrangeEncoder::<P25>::new(config);
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |bencher, _| bencher.iter(|| encoder.encode_deterministic(black_box(&blocks))),
        );
    }
    group.finish();
}

fn bench_private_encoding(c: &mut Criterion) {
    // T = 2 privacy pads: the extra cost of the privacy guarantee.
    let blocks = data_blocks(450, 63, 9, 3);
    let config = SchemeConfig::new(14, 9, 1, 1, 2, 1).unwrap();
    let encoder = LagrangeEncoder::<P25>::new(config);
    assert!(encoder.points().disjoint());
    let mut rng = StdRng::seed_from_u64(4);
    c.bench_function("encode/private_t2", |bencher| {
        bencher.iter(|| encoder.encode(black_box(&blocks), &mut rng))
    });
}

fn f64_blocks(rows: usize, cols: usize, partitions: usize, seed: u64) -> Vec<Matrix<F64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let matrix = Matrix::from_vec(rows, cols, avcc_field::random_matrix(&mut rng, rows, cols));
    matrix.split_rows(partitions)
}

/// The systematic encode on the Goldilocks field at `N = 2K` (ids
/// `encode_f64/k<K>/matrix`): `K` copied blocks and `K·K` parity
/// multiply-adds per coordinate.
fn bench_f64_encoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("encode_f64");
    for &(partitions, workers, block_rows) in &[(64usize, 128usize, 4usize), (128, 256, 2)] {
        let blocks = f64_blocks(partitions * block_rows, 32, partitions, 10);
        let config = SchemeConfig::linear(workers, partitions, 2, 1).unwrap();
        let encoder = LagrangeEncoder::<P64>::new(config);
        assert!(encoder.points().is_systematic(partitions));
        group.bench_with_input(
            BenchmarkId::new(format!("k{partitions}"), "matrix"),
            &partitions,
            |bencher, _| bencher.iter(|| encoder.encode_deterministic(black_box(&blocks))),
        );
    }
    group.finish();
}

/// `EncodedDataset::encode` on the e2e `matmul_batch` job (1920 × 512
/// Goldilocks, `(N, K) = (12, 8)`: the systematic code — eight copied bands
/// and four chunked parity shares), on the same
/// shape with a row short of a multiple of `K` (the last band padded), and on
/// the e2e training set-up (1800 × 256 in the 25-bit field, `(12, 9)`: the
/// dense path). All three are past the inline threshold, so on a host with
/// more than one core these time the threaded sweep.
fn bench_dataset_encoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("encode_dataset");
    let config = SchemeConfig::linear(12, 8, 2, 1).unwrap();
    for rows in [1920usize, 1919] {
        let mut rng = StdRng::seed_from_u64(11);
        let matrix: Matrix<F64> =
            Matrix::from_vec(rows, 512, avcc_field::random_matrix(&mut rng, rows, 512));
        group.bench_with_input(
            BenchmarkId::new("p64_12_8", format!("{rows}x512")),
            &rows,
            |bencher, _| {
                bencher.iter(|| EncodedDataset::<P64>::encode(black_box(&matrix), config, &mut rng))
            },
        );
    }
    let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
    let mut rng = StdRng::seed_from_u64(12);
    let matrix: Matrix<F25> =
        Matrix::from_vec(1800, 256, avcc_field::random_matrix(&mut rng, 1800, 256));
    group.bench_function(BenchmarkId::new("p25_12_9", "1800x256"), |bencher| {
        bencher.iter(|| EncodedDataset::<P25>::encode(black_box(&matrix), config, &mut rng))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_mds_encoding_by_size,
    bench_encoding_by_worker_count,
    bench_private_encoding,
    bench_f64_encoding,
    bench_dataset_encoding
);
criterion_main!(benches);
