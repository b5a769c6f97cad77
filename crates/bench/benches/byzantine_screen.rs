//! Byzantine screening vs detect-and-redecode: the master-side cost of
//! discovering corrupted workers.
//!
//! The detect-and-redecode path (what LCC does, and what AVCC fell back to
//! before PR9) runs Berlekamp–Welch error decoding over the full result set
//! to simultaneously locate the corrupted workers and reconstruct the
//! product. The screen path runs one SCRAPE-style dual-codeword membership
//! pass (`O(R·width)`), localizes the corrupted workers by syndrome power
//! sums, and then erasure-decodes the clean survivors — never paying the
//! error-correcting solve.
//!
//! The ids are `byzantine_screen/k<K>_byz<B>/{redecode,screen}`.
//! Both paths are asserted bit-identical (same product, same localized
//! workers) before anything is timed.

use avcc_coding::{DualCodeword, LagrangeDecoder, LagrangeEncoder, SchemeConfig, ScreenOutcome};
use avcc_field::{F64, P64};
use avcc_linalg::Matrix;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Identity-map worker results for a systematic Goldilocks `(N, K)` code with
/// the listed workers corrupted (values reversed), so the bench times only the
/// screening / redecoding cost.
fn corrupted_results(
    config: SchemeConfig,
    width: usize,
    corrupted: &[usize],
) -> Vec<(usize, Vec<F64>)> {
    let mut rng = StdRng::seed_from_u64(90);
    let matrix = Matrix::from_vec(
        config.partitions,
        width,
        avcc_field::random_matrix(&mut rng, config.partitions, width),
    );
    let blocks = matrix.split_rows(config.partitions);
    let encoder = LagrangeEncoder::<P64>::new(config);
    assert!(encoder.points().is_systematic(config.partitions));
    let shares = encoder.encode_deterministic(&blocks);
    let mut results: Vec<(usize, Vec<F64>)> = shares
        .iter()
        .map(|share| (share.worker, share.block.data().to_vec()))
        .collect();
    for &victim in corrupted {
        for value in results[victim].1.iter_mut() {
            *value = -*value;
        }
    }
    results
}

/// Screen-then-erasure-decode: the PR9 pipeline in miniature.
fn screen_and_decode(
    screen: &DualCodeword<P64>,
    decoder: &LagrangeDecoder<P64>,
    results: &[(usize, Vec<F64>)],
    rng: &mut StdRng,
) -> (Vec<Vec<F64>>, Vec<usize>) {
    let report = screen.screen(results, 1, rng).unwrap();
    let evicted = match report.outcome {
        ScreenOutcome::Corrupted { workers } => workers,
        ScreenOutcome::Clean => Vec::new(),
        ScreenOutcome::Unlocalized => panic!("bench plants localizable corruption"),
    };
    let clean: Vec<(usize, Vec<F64>)> = results
        .iter()
        .filter(|(worker, _)| !evicted.contains(worker))
        .cloned()
        .collect();
    let threshold = decoder.recovery_threshold();
    let blocks = decoder.decode_erasure(&clean[..threshold]).unwrap();
    (blocks, evicted)
}

fn bench_byzantine_screen(c: &mut Criterion) {
    let mut group = c.benchmark_group("byzantine_screen");
    let width = 128usize;
    for &(partitions, workers) in &[(64usize, 128usize), (128, 256)] {
        for &byzantine in &[1usize, 3] {
            let config = SchemeConfig::linear(workers, partitions, 4, 3).unwrap();
            // Corrupt `byzantine` workers scattered across the fleet.
            let corrupted: Vec<usize> = (0..byzantine).map(|b| 5 + 11 * b).collect();
            let results = corrupted_results(config, width, &corrupted);
            let decoder = LagrangeDecoder::<P64>::new(config);
            let screen = DualCodeword::<P64>::new(config);

            // Both paths must agree — same product, same localized workers —
            // before either is timed.
            let mut check_rng = StdRng::seed_from_u64(91);
            let (oracle_blocks, mut oracle_located) = decoder
                .decode_with_errors(&results, byzantine, &mut check_rng)
                .unwrap();
            oracle_located.sort_unstable();
            let (screen_blocks, screen_located) =
                screen_and_decode(&screen, &decoder, &results, &mut check_rng);
            assert_eq!(oracle_located, corrupted);
            assert_eq!(screen_located, corrupted);
            assert_eq!(oracle_blocks, screen_blocks);

            let label = format!("k{partitions}_byz{byzantine}");
            let mut redecode_rng = StdRng::seed_from_u64(92);
            group.bench_with_input(
                BenchmarkId::new(label.clone(), "redecode"),
                &byzantine,
                |bencher, _| {
                    bencher.iter(|| {
                        decoder
                            .decode_with_errors(black_box(&results), byzantine, &mut redecode_rng)
                            .unwrap()
                    })
                },
            );
            let mut screen_rng = StdRng::seed_from_u64(93);
            group.bench_with_input(
                BenchmarkId::new(label, "screen"),
                &byzantine,
                |bencher, _| {
                    bencher.iter(|| {
                        screen_and_decode(&screen, &decoder, black_box(&results), &mut screen_rng)
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_byzantine_screen);
criterion_main!(benches);
