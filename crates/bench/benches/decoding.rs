//! Decoding benchmarks: AVCC's erasure decoding versus LCC's error-correcting
//! (Berlekamp–Welch) decoding — the master-side cost asymmetry behind Fig. 4
//! and behind AVCC's ability to start decoding early — plus the
//! straggler-decode pairs (`decode_straggler/k<K>_miss<m>/{dense,tree}`):
//! the subproduct-tree path against the dense Lagrange combination on the
//! same subgroup-position survivors.

use avcc_coding::{LagrangeDecoder, LagrangeEncoder, SchemeConfig};
use avcc_field::{F25, F64, P25, P64};
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
    let blocks = matrix.split_rows(9);
    let encoder = LagrangeEncoder::<P25>::new(config);
    let shares = encoder.encode_deterministic(&blocks);
    let w: Vec<F25> = avcc_field::random_vector(&mut rng, 63);
    let mut results: Vec<(usize, Vec<F25>)> = shares
        .iter()
        .map(|s| (s.worker, mat_vec(&s.block, &w)))
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
    let mut group = c.benchmark_group("decode/lcc_berlekamp_welch");
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

/// Straggler decoding on the Goldilocks field: the dense Lagrange
/// combination against the subproduct-tree partial path on identical
/// subgroup-position inputs with 1–4 workers missing. Both paths build
/// their basis inside the timed call, as a round does.
fn bench_straggler_decoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode_straggler");
    for &(partitions, workers) in &[(64usize, 128usize), (128, 256)] {
        let width = 128usize;
        let mut rng = StdRng::seed_from_u64(30);
        let matrix = Matrix::from_vec(
            partitions,
            width,
            avcc_field::random_matrix(&mut rng, partitions, width),
        );
        let blocks = matrix.split_rows(partitions);
        let config = SchemeConfig::linear(workers, partitions, 4, 1).unwrap();
        let encoder = LagrangeEncoder::<P64>::new(config);
        assert!(encoder.uses_ntt());
        let shares = encoder.encode_deterministic(&blocks);
        // Workers apply the identity map: results are the share rows
        // themselves, which keeps the bench focused on decoding cost.
        let results: Vec<(usize, Vec<F64>)> = shares
            .iter()
            .map(|share| (share.worker, share.block.data().to_vec()))
            .collect();
        let decoder = LagrangeDecoder::<P64>::new(config);
        assert!(decoder.supports_partial_ntt());
        for &missing in &[1usize, 4] {
            let partial: Vec<(usize, Vec<F64>)> = results[missing..].to_vec();
            // Same survivor subset through both paths; outputs must be
            // bit-identical before we time anything.
            assert_eq!(
                decoder.decode_erasure(&partial).unwrap(),
                decoder.decode_erasure_lagrange(&partial).unwrap()
            );
            group.bench_with_input(
                BenchmarkId::new(format!("k{partitions}_miss{missing}"), "dense"),
                &missing,
                |bencher, _| {
                    bencher.iter(|| {
                        decoder
                            .decode_erasure_lagrange(black_box(&partial))
                            .unwrap()
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("k{partitions}_miss{missing}"), "tree"),
                &missing,
                |bencher, _| bencher.iter(|| decoder.decode_erasure(black_box(&partial)).unwrap()),
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_erasure_decoding,
    bench_error_correcting_decoding,
    bench_straggler_decoding
);
criterion_main!(benches);
