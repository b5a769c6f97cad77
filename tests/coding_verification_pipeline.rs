//! Cross-crate integration tests of the coding + verification pipeline,
//! independent of the ML workload: Theorem 1's three guarantees
//! (S-resiliency, M-security, T-privacy) exercised through the public API.

use avcc::coding::{EncodedDataset, LagrangeEncoder, SchemeConfig};
use avcc::field::{PrimeField, F25, P25};
use avcc::linalg::{mat_vec, Matrix};
use avcc::poly::rank;
use avcc::verify::{KeyGenConfig, MatVecKey};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A random matrix of `K` blocks of `rows × cols`, encoded for `config` (any
/// pads drawn from `rng`).
fn encoded(
    config: SchemeConfig,
    rows: usize,
    cols: usize,
    seed: u64,
    rng: &mut StdRng,
) -> (Matrix<F25>, EncodedDataset<P25>) {
    let mut data_rng = StdRng::seed_from_u64(seed);
    let rows = config.partitions * rows;
    let matrix = Matrix::from_vec(
        rows,
        cols,
        avcc::field::random_matrix(&mut data_rng, rows, cols),
    );
    let dataset = EncodedDataset::encode(&matrix, config, rng);
    (matrix, dataset)
}

/// Each block's product `X_j·w`, in block order.
fn block_products(matrix: &Matrix<F25>, block_rows: usize, w: &[F25]) -> Vec<Vec<F25>> {
    mat_vec(matrix, w)
        .chunks(block_rows)
        .map(<[F25]>::to_vec)
        .collect()
}

/// S-resiliency (Theorem 1): with N = threshold + S workers, the computation
/// is recoverable from any subset that excludes up to S stragglers.
#[test]
fn s_resiliency_from_any_straggler_pattern() {
    let config = SchemeConfig::linear(12, 9, 3, 0).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let (matrix, dataset) = encoded(config, 4, 6, 1, &mut rng);
    let w: Vec<F25> = avcc::field::random_vector(&mut rng, 6);
    let expected = block_products(&matrix, 4, &w);
    let results: Vec<(usize, Vec<F25>)> = dataset
        .shares()
        .iter()
        .enumerate()
        .map(|(worker, share)| (worker, mat_vec(share, &w)))
        .collect();

    // Drop every possible set of three stragglers (a few hundred subsets).
    for a in 0..12 {
        for b in (a + 1)..12 {
            for c in (b + 1)..12 {
                let subset: Vec<(usize, Vec<F25>)> = results
                    .iter()
                    .filter(|(worker, _)| *worker != a && *worker != b && *worker != c)
                    .cloned()
                    .collect();
                let decoded = dataset.decoder().decode_erasure(&subset).unwrap();
                assert_eq!(decoded, expected, "failed for stragglers {a},{b},{c}");
            }
        }
    }
}

/// M-security (Theorem 1): a corrupted result is rejected by the Freivalds
/// check and the final output is unaffected as long as enough honest results
/// exist.
#[test]
fn m_security_via_per_worker_verification() {
    let config = SchemeConfig::linear(12, 9, 1, 2).unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let (matrix, dataset) = encoded(config, 5, 7, 3, &mut rng);
    let keys: Vec<MatVecKey<P25>> = dataset
        .shares()
        .iter()
        .map(|share| MatVecKey::generate(share, KeyGenConfig::default(), &mut rng))
        .collect();
    let w: Vec<F25> = avcc::field::random_vector(&mut rng, 7);
    let expected = block_products(&matrix, 5, &w);

    // Workers 1 and 8 are Byzantine (constant attack).
    let mut verified = Vec::new();
    let mut rejected = Vec::new();
    for (worker, share) in dataset.shares().iter().enumerate() {
        let mut result = mat_vec(share, &w);
        if worker == 1 || worker == 8 {
            for value in result.iter_mut() {
                *value = F25::from_u64(77);
            }
        }
        if keys[worker].verify(&w, &result) {
            verified.push((worker, result));
        } else {
            rejected.push(worker);
        }
    }
    assert_eq!(rejected, vec![1, 8]);
    let decoded = dataset.decoder().decode_erasure(&verified).unwrap();
    assert_eq!(decoded, expected);
}

/// T-privacy (Theorem 1 / LCC Lemma 2): every T×T submatrix of the pad part
/// of the encoding matrix is invertible, so any T colluding workers see data
/// masked by a full-entropy uniform pad.
#[test]
fn t_privacy_pad_submatrices_are_invertible() {
    let config = SchemeConfig::new(12, 4, 1, 1, 3).unwrap();
    let encoder = LagrangeEncoder::<P25>::new(config);
    let pads = encoder.pad_submatrix();
    assert_eq!(pads.len(), 3);
    let n = config.workers;
    for a in 0..n {
        for b in (a + 1)..n {
            for c in (b + 1)..n {
                let submatrix: Vec<F25> = vec![
                    pads[0][a], pads[0][b], pads[0][c], pads[1][a], pads[1][b], pads[1][c],
                    pads[2][a], pads[2][b], pads[2][c],
                ];
                assert_eq!(
                    rank(&submatrix, 3, 3),
                    3,
                    "columns {a},{b},{c} are singular"
                );
            }
        }
    }
}

/// Privacy end to end: two different datasets encoded with the same pads
/// produce identically distributed shares for a single curious worker when the
/// pads are uniform — here checked in the weaker but deterministic form that
/// a single share never equals the raw data block.
#[test]
fn private_shares_never_expose_raw_blocks() {
    let config = SchemeConfig::new(10, 3, 1, 0, 2).unwrap();
    let mut rng = StdRng::seed_from_u64(6);
    let (matrix, dataset) = encoded(config, 4, 4, 5, &mut rng);
    for share in dataset.shares() {
        for block in matrix.data().chunks(4 * 4) {
            assert_ne!(share.data(), block);
        }
    }
}

/// The LCC bound (eq. 1) versus the AVCC bound (eq. 2), end to end: with 12
/// workers and K = 9, LCC cannot be configured for two Byzantine workers but
/// AVCC can.
#[test]
fn worker_budget_gap_between_lcc_and_avcc() {
    let two_byzantine = SchemeConfig::linear(12, 9, 1, 2).unwrap();
    assert!(!two_byzantine.lcc_feasible());
    assert!(two_byzantine.avcc_feasible());
    let one_byzantine = SchemeConfig::linear(12, 9, 1, 1).unwrap();
    assert!(one_byzantine.lcc_feasible());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: the `(12, 9)` MDS code decodes X·b correctly from any
    /// K-subset of worker results, for random matrices and random straggler
    /// patterns.
    #[test]
    fn prop_mds_decodes_from_random_subsets(seed in any::<u64>(), drop in 0usize..3) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = SchemeConfig::linear(12, 9, 3, 0).unwrap();
        let matrix = Matrix::from_vec(18, 5, avcc::field::random_matrix(&mut rng, 18, 5));
        let b: Vec<F25> = avcc::field::random_vector(&mut rng, 5);
        let expected = mat_vec(&matrix, &b);
        let dataset = EncodedDataset::<P25>::encode(&matrix, config, &mut rng);
        let results: Vec<(usize, Vec<F25>)> = dataset
            .shares()
            .iter()
            .enumerate()
            .map(|(worker, share)| (worker, mat_vec(share, &b)))
            .collect();
        let decoded = dataset.decoder().decode_erasure(&results[drop..]).unwrap().concat();
        prop_assert_eq!(decoded, expected);
    }

    /// Property: Freivalds verification never rejects an honest worker and
    /// never accepts the reverse-value or constant attacks.
    #[test]
    fn prop_verification_separates_honest_from_byzantine(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let block = Matrix::from_vec(8, 6, avcc::field::random_matrix(&mut rng, 8, 6));
        let key = MatVecKey::<P25>::generate(&block, KeyGenConfig::default(), &mut rng);
        let w: Vec<F25> = avcc::field::random_vector(&mut rng, 6);
        let honest = mat_vec(&block, &w);
        prop_assert!(key.verify(&w, &honest));
        let reversed: Vec<F25> = honest.iter().map(|&v| -v).collect();
        if reversed != honest {
            prop_assert!(!key.verify(&w, &reversed));
        }
        let constant = vec![F25::from_u64(9); 8];
        if constant != honest {
            prop_assert!(!key.verify(&w, &constant));
        }
    }
}
