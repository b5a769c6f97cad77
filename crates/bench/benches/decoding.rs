//! Decoding benchmarks: AVCC's erasure decoding versus LCC's error-correcting
//! decoding (locate through the dual-codeword screen, then erasure-decode the
//! rest) — the master-side cost asymmetry behind Fig. 4 and behind AVCC's
//! ability to start decoding early.

use avcc_coding::{EncodedDataset, LagrangeDecoder, SchemeConfig};
use avcc_field::{F25, P25};
use avcc_linalg::{mat_vec, Matrix};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds worker results for a (12, 9) code computing X·w over blocks of
/// `rows` total rows.
fn worker_results(rows: usize, corrupt: Option<usize>) -> Vec<(usize, Vec<F25>)> {
    let mut rng = StdRng::seed_from_u64(7);
    let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
    let matrix = Matrix::from_vec(rows, 63, avcc_field::random_matrix(&mut rng, rows, 63));
    let dataset = EncodedDataset::<P25>::encode(&matrix, config, &mut rng);
    let w: Vec<F25> = avcc_field::random_vector(&mut rng, 63);
    let mut results: Vec<(usize, Vec<F25>)> = dataset
        .shares()
        .iter()
        .enumerate()
        .map(|(worker, share)| (worker, mat_vec(share, &w)))
        .collect();
    if let Some(victim) = corrupt {
        for value in results[victim].1.iter_mut() {
            *value = -*value;
        }
    }
    results
}

fn bench_erasure_decoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode/avcc_erasure");
    for &rows in &[90usize, 450, 900] {
        let results = worker_results(rows, None);
        let decoder = LagrangeDecoder::<P25>::new(SchemeConfig::linear(12, 9, 2, 1).unwrap());
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |bencher, _| {
            bencher.iter(|| decoder.decode_erasure(black_box(&results[..9])))
        });
    }
    group.finish();
}

fn bench_error_correcting_decoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode/lcc_error_correcting");
    for &rows in &[90usize, 450, 900] {
        let results = worker_results(rows, Some(4));
        let decoder = LagrangeDecoder::<P25>::new(SchemeConfig::linear(12, 9, 1, 1).unwrap());
        let mut rng = StdRng::seed_from_u64(11);
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |bencher, _| {
            bencher.iter(|| decoder.decode_with_errors(black_box(&results[..11]), 1, &mut rng))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_erasure_decoding,
    bench_error_correcting_decoding
);
criterion_main!(benches);
