//! Encoding benchmarks: MDS/Lagrange encoding cost as a function of the data
//! size and the worker count, backing the paper's "encoding is a one-time,
//! near-linear cost" discussion (§II-A), plus the `F64` matrix-vs-NTT
//! comparison: with evaluation points in subgroup position the
//! `O(K·N)`-per-coordinate encoding matrix collapses to `O(N log N)`
//! transforms; `encode_layout/*`: the systematic and the subgroup layout on
//! either side of the rule `EvaluationPoints::auto` chooses by; and
//! `encode_dataset/*`: the whole one-time preprocessing of a dataset as the
//! engines pay it (`EncodedDataset::encode`, the matrix read in place).

use avcc_coding::{EncodedDataset, EvaluationPoints, LagrangeEncoder, SchemeConfig};
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

/// Matrix-path vs NTT-path encoding on the Goldilocks field (ids
/// `encode_f64/k<K>/{matrix,ntt}`).
fn bench_f64_matrix_vs_ntt_encoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("encode_f64");
    for &(partitions, workers, block_rows) in &[(64usize, 128usize, 4usize), (128, 256, 2)] {
        let blocks = f64_blocks(partitions * block_rows, 32, partitions, 10);
        let config = SchemeConfig::linear(workers, partitions, 2, 1).unwrap();
        let standard = LagrangeEncoder::<P64>::with_points(
            config,
            EvaluationPoints::standard(partitions, 0, workers),
        );
        assert!(!standard.uses_ntt());
        let subgroup = LagrangeEncoder::<P64>::new(config);
        assert!(subgroup.uses_ntt());
        group.bench_with_input(
            BenchmarkId::new(format!("k{partitions}"), "matrix"),
            &partitions,
            |bencher, _| bencher.iter(|| standard.encode_deterministic(black_box(&blocks))),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("k{partitions}"), "ntt"),
            &partitions,
            |bencher, _| bencher.iter(|| subgroup.encode_deterministic(black_box(&blocks))),
        );
    }
    group.finish();
}

/// Both point layouts on a 1920 × 512 Goldilocks matrix at `K = 8`, either
/// side of `EvaluationPoints::auto`'s rule (ids
/// `encode_layout/p64_<N>_8/{systematic,subgroup}`): at `N = 12` the
/// systematic code's 32 parity multiply-adds per coordinate undercut the
/// transforms' 52, and `auto` picks it; at `N = 16` they are 64 and `auto`
/// keeps the transforms.
fn bench_layout_either_side_of_the_rule(c: &mut Criterion) {
    let mut group = c.benchmark_group("encode_layout");
    let blocks = f64_blocks(1920, 512, 8, 13);
    for workers in [12usize, 16] {
        let config = SchemeConfig::linear(workers, 8, 2, 1).unwrap();
        let systematic =
            LagrangeEncoder::<P64>::with_points(config, EvaluationPoints::standard(8, 0, workers));
        assert!(!systematic.uses_ntt());
        let subgroup = LagrangeEncoder::<P64>::with_points(
            config,
            EvaluationPoints::subgroup(8, 0, workers).unwrap(),
        );
        assert!(subgroup.uses_ntt());
        assert_eq!(
            LagrangeEncoder::<P64>::new(config).uses_ntt(),
            workers == 16
        );
        for (layout, encoder) in [("systematic", &systematic), ("subgroup", &subgroup)] {
            group.bench_with_input(
                BenchmarkId::new(format!("p64_{workers}_8"), layout),
                &workers,
                |bencher, _| bencher.iter(|| encoder.encode_deterministic(black_box(&blocks))),
            );
        }
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
    bench_f64_matrix_vs_ntt_encoding,
    bench_layout_either_side_of_the_rule,
    bench_dataset_encoding
);
criterion_main!(benches);
