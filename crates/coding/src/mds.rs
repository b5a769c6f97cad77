//! Systematic `(N, K)` MDS coding — the linear, non-private special case of
//! Lagrange coding used by the paper's illustrating example (Fig. 1) and by
//! the logistic-regression experiments (§V uses `T = 0`).
//!
//! [`MdsCode`] bundles an encoder and decoder for the common "split a matrix
//! into `K` row blocks, encode into `N` coded blocks, multiply each by a
//! vector, decode from any `K` results" workflow, so application code does not
//! need to touch the Lagrange machinery directly.

use avcc_field::{Fp, PrimeModulus};
use avcc_linalg::Matrix;

use crate::decoder::{DecodeError, LagrangeDecoder};
use crate::encoder::{EncodedShare, LagrangeEncoder};
use crate::scheme::{SchemeConfig, SchemeError};

/// A systematic `(N, K)` MDS code over the field `M`.
#[derive(Debug, Clone)]
pub struct MdsCode<M: PrimeModulus> {
    encoder: LagrangeEncoder<M>,
    decoder: LagrangeDecoder<M>,
}

impl<M: PrimeModulus> MdsCode<M> {
    /// Creates an `(N, K)` MDS code (no privacy pads, linear computations).
    pub fn new(workers: usize, partitions: usize) -> Result<Self, SchemeError> {
        if workers < partitions {
            return Err(SchemeError::Invalid {
                details: format!("N = {workers} workers cannot hold K = {partitions} partitions"),
            });
        }
        // No pads: the standard points are systematic, as in Fig. 1's
        // illustration (worker i ≤ K stores X_i itself).
        let config = SchemeConfig::new(workers, partitions, workers - partitions, 0, 0, 1)?;
        Ok(MdsCode {
            encoder: LagrangeEncoder::new(config),
            decoder: LagrangeDecoder::new(config),
        })
    }

    /// The underlying scheme configuration.
    pub fn config(&self) -> &SchemeConfig {
        self.encoder.config()
    }

    /// Number of workers `N`.
    pub fn workers(&self) -> usize {
        self.config().workers
    }

    /// Number of data partitions `K` (also the number of results needed to
    /// decode).
    pub fn partitions(&self) -> usize {
        self.config().partitions
    }

    /// Splits a data matrix into `K` row blocks and encodes them into `N`
    /// coded blocks. The first `K` shares equal the raw blocks (systematic).
    ///
    /// # Panics
    /// Panics if the row count of `data` is not divisible by `K`.
    pub fn encode_matrix(&self, data: &Matrix<Fp<M>>) -> Vec<EncodedShare<M>> {
        let blocks = data.split_rows(self.partitions());
        self.encoder.encode_deterministic(&blocks)
    }

    /// Access to the inner Lagrange encoder (e.g. for the encoding matrix).
    pub fn encoder(&self) -> &LagrangeEncoder<M> {
        &self.encoder
    }

    /// Access to the inner Lagrange decoder.
    pub fn decoder(&self) -> &LagrangeDecoder<M> {
        &self.decoder
    }

    /// Decodes the `K` per-block outputs from any `K` (or more) worker
    /// results, then concatenates them in block order — recovering `f(X)`
    /// for a row-block-parallel linear `f` such as `X·b` (Fig. 1).
    pub fn decode_concatenated(
        &self,
        results: &[(usize, Vec<Fp<M>>)],
    ) -> Result<Vec<Fp<M>>, DecodeError> {
        let blocks = self.decoder.decode_erasure(results)?;
        Ok(blocks.into_iter().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avcc_field::{PrimeField, F25, P25};
    use avcc_linalg::mat_vec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Reproduces the paper's Fig. 1: a (3, 2) MDS code computing X·b with one
    /// straggler.
    #[test]
    fn figure_1_example_three_workers_one_straggler() {
        let code = MdsCode::<P25>::new(3, 2).unwrap();
        let data = Matrix::from_vec(4, 3, (1..=12u64).map(F25::from_u64).collect());
        let b: Vec<F25> = [2u64, 1, 3].iter().map(|&v| F25::from_u64(v)).collect();
        let expected = mat_vec(&data, &b);

        let shares = code.encode_matrix(&data);
        assert_eq!(shares.len(), 3);
        // Systematic part: workers 1 and 2 hold the raw blocks X1 and X2.
        assert_eq!(shares[0].block, data.row_slice(0, 2));
        assert_eq!(shares[1].block, data.row_slice(2, 4));
        // Worker 3 holds a parity combination that differs from both.
        assert_ne!(shares[2].block, shares[0].block);
        assert_ne!(shares[2].block, shares[1].block);

        // Worker 1 straggles: decode from workers 2 and 3.
        let results: Vec<(usize, Vec<F25>)> = shares[1..]
            .iter()
            .map(|share| (share.worker, mat_vec(&share.block, &b)))
            .collect();
        let decoded = code.decode_concatenated(&results).unwrap();
        assert_eq!(decoded, expected);
    }

    #[test]
    fn paper_testbed_configuration_decodes_from_any_nine() {
        let code = MdsCode::<P25>::new(12, 9).unwrap();
        let mut rng = StdRng::seed_from_u64(20);
        let data = Matrix::from_vec(18, 5, avcc_field::random_matrix(&mut rng, 18, 5));
        let b: Vec<F25> = avcc_field::random_vector(&mut rng, 5);
        let expected = mat_vec(&data, &b);
        let shares = code.encode_matrix(&data);
        let results: Vec<(usize, Vec<F25>)> = shares
            .iter()
            .map(|share| (share.worker, mat_vec(&share.block, &b)))
            .collect();
        // Take workers 3..12 (9 results, skipping the three "stragglers").
        let decoded = code.decode_concatenated(&results[3..]).unwrap();
        assert_eq!(decoded, expected);
    }

    #[test]
    fn invalid_partition_counts_are_rejected() {
        assert!(MdsCode::<P25>::new(3, 0).is_err());
        assert!(MdsCode::<P25>::new(2, 3).is_err());
    }

    #[test]
    fn config_reports_dimensions() {
        let code = MdsCode::<P25>::new(5, 3).unwrap();
        assert_eq!(code.workers(), 5);
        assert_eq!(code.partitions(), 3);
        assert_eq!(code.config().stragglers, 2);
    }
}
