//! Byzantine location: the master-side cost of discovering corrupted
//! workers and decoding past them.
//!
//! [`LagrangeDecoder::decode_with_errors`] is the LCC baseline's decode: one
//! SCRAPE-style dual-codeword membership pass (`O(R·width)`), localization
//! of the corrupted workers by syndrome power sums, then an erasure decode
//! of the remaining workers. AVCC runs the same screen before verification.
//!
//! The ids are `byzantine_screen/k<K>_byz<B>/screen`. Before anything is
//! timed, the located set is asserted to be the corrupted set and the
//! decoded blocks to equal an erasure decode of the clean workers.

use avcc_coding::{EncodedDataset, LagrangeDecoder, LagrangeEncoder, SchemeConfig};
use avcc_field::{F64, P64};
use avcc_linalg::Matrix;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Identity-map worker results for a systematic Goldilocks `(N, K)` code with
/// the listed workers corrupted (values reversed), so the bench times only the
/// locating and decoding cost.
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
    assert!(LagrangeEncoder::<P64>::new(config)
        .points()
        .is_systematic(config.partitions));
    let dataset = EncodedDataset::<P64>::encode(&matrix, config, &mut rng);
    let mut results: Vec<(usize, Vec<F64>)> = dataset
        .shares()
        .iter()
        .enumerate()
        .map(|(worker, share)| (worker, share.data().to_vec()))
        .collect();
    for &victim in corrupted {
        for value in results[victim].1.iter_mut() {
            *value = -*value;
        }
    }
    results
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

            // The located set and the product must be right before anything
            // is timed.
            let clean: Vec<(usize, Vec<F64>)> = results
                .iter()
                .filter(|(worker, _)| !corrupted.contains(worker))
                .cloned()
                .collect();
            let mut check_rng = StdRng::seed_from_u64(91);
            let (blocks, located) = decoder
                .decode_with_errors(&results, byzantine, &mut check_rng)
                .unwrap();
            assert_eq!(located, corrupted);
            assert_eq!(blocks, decoder.decode_erasure(&clean).unwrap());

            let label = format!("k{partitions}_byz{byzantine}");
            let mut screen_rng = StdRng::seed_from_u64(93);
            group.bench_with_input(
                BenchmarkId::new(label, "screen"),
                &byzantine,
                |bencher, _| {
                    bencher.iter(|| {
                        decoder
                            .decode_with_errors(black_box(&results), byzantine, &mut screen_rng)
                            .unwrap()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_byzantine_screen);
criterion_main!(benches);
