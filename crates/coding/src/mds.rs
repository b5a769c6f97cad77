//! The paper's systematic `(N, K)` MDS code — the linear, non-private
//! special case of Lagrange coding behind the illustrating example (Fig. 1)
//! and the §V testbed — is [`crate::EncodedDataset::encode`] under
//! `SchemeConfig::linear(N, K, S, M)`: at `T = 0` the standard points are
//! systematic, so worker `i ≤ K` stores `X_i` itself and any `K` results
//! decode. These tests pin that reading of the paper's configurations.

#[cfg(test)]
mod tests {
    use avcc_field::{PrimeField, F25, P25};
    use avcc_linalg::{mat_vec, Matrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::{EncodedDataset, SchemeConfig};

    /// Reproduces the paper's Fig. 1: a (3, 2) MDS code computing X·b with one
    /// straggler.
    #[test]
    fn figure_1_example_three_workers_one_straggler() {
        let config = SchemeConfig::linear(3, 2, 1, 0).unwrap();
        let data = Matrix::from_vec(4, 3, (1..=12u64).map(F25::from_u64).collect());
        let b: Vec<F25> = [2u64, 1, 3].iter().map(|&v| F25::from_u64(v)).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let dataset = EncodedDataset::<P25>::encode(&data, config, &mut rng);

        assert_eq!(dataset.workers(), 3);
        // Systematic part: workers 1 and 2 hold the raw blocks X1 and X2.
        assert_eq!(**dataset.share(0), data.row_slice(0, 2));
        assert_eq!(**dataset.share(1), data.row_slice(2, 4));
        // Worker 3 holds a parity combination that differs from both.
        assert_ne!(dataset.share(2), dataset.share(0));
        assert_ne!(dataset.share(2), dataset.share(1));

        // Worker 1 straggles: decode from workers 2 and 3.
        let results: Vec<(usize, Vec<F25>)> = (1..3)
            .map(|worker| (worker, mat_vec(dataset.share(worker), &b)))
            .collect();
        let blocks = dataset.decoder().decode_erasure(&results).unwrap();
        let decoded: Vec<F25> = blocks.into_iter().flatten().collect();
        assert_eq!(decoded, mat_vec(&data, &b));
    }

    #[test]
    fn paper_testbed_configuration_decodes_from_any_nine() {
        let config = SchemeConfig::linear(12, 9, 3, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(20);
        let data = Matrix::from_vec(18, 5, avcc_field::random_matrix(&mut rng, 18, 5));
        let b: Vec<F25> = avcc_field::random_vector(&mut rng, 5);
        let dataset = EncodedDataset::<P25>::encode(&data, config, &mut rng);
        // Take workers 3..12 (9 results, skipping the three "stragglers").
        let results: Vec<(usize, Vec<F25>)> = (3..12)
            .map(|worker| (worker, mat_vec(dataset.share(worker), &b)))
            .collect();
        let blocks = dataset.decoder().decode_erasure(&results).unwrap();
        let decoded: Vec<F25> = blocks.into_iter().flatten().collect();
        assert_eq!(decoded, mat_vec(&data, &b));
    }
}
