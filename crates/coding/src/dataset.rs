//! A dataset encoded **once** and shared across many computations.
//!
//! The AVCC cost model is dominated by master-side encoding, yet every
//! engine used to re-encode `X` even when many matrix–vector products share
//! the same dataset (many models' weights against one `X`, or a multi-round
//! training loop). [`EncodedDataset`] owns the coded partitions of one matrix
//! — the shares shipped to the workers and the decoder that inverts the code
//! — so that any number of lightweight per-function *sessions* (the engines
//! in `avcc-core`) can dispatch against a single encode, typically through an
//! [`std::sync::Arc`].
//!
//! Two layouts are supported, matching the engines that consume them:
//!
//! * [`EncodedDataset::encode`] — Lagrange/MDS coded shares for the AVCC and
//!   LCC engines, with the row padding the dynamic-coding controller needs
//!   (a row count not divisible by `K` is padded with zero rows; the decoded
//!   output is trimmed back to [`EncodedDataset::output_rows`]).
//! * [`EncodedDataset::partitioned`] — raw row blocks for the uncoded
//!   baseline: no redundancy, one block per participating worker.

use std::sync::Arc;

use avcc_field::{Fp, PrimeModulus};
use avcc_linalg::Matrix;
use rand::Rng;

use crate::decoder::LagrangeDecoder;
use crate::encoder::LagrangeEncoder;
use crate::scheme::SchemeConfig;

/// Pads a matrix with zero rows so its row count is a multiple of `parts`.
fn pad_rows_to_multiple<M: PrimeModulus>(matrix: &Matrix<Fp<M>>, parts: usize) -> Matrix<Fp<M>> {
    let remainder = matrix.rows() % parts;
    if remainder == 0 {
        return matrix.clone();
    }
    let extra = parts - remainder;
    let mut data = matrix.data().to_vec();
    data.extend(std::iter::repeat_n(Fp::<M>::ZERO, extra * matrix.cols()));
    Matrix::from_vec(matrix.rows() + extra, matrix.cols(), data)
}

/// How the dataset's shares were produced.
#[derive(Debug, Clone)]
enum DatasetCoding<M: PrimeModulus> {
    /// Lagrange/MDS coded shares under a scheme configuration, with the
    /// decoder that inverts the code.
    Lagrange {
        config: SchemeConfig,
        decoder: Box<LagrangeDecoder<M>>,
    },
    /// Raw row blocks (the uncoded baseline): share `i` *is* partition `i`.
    Raw { partitions: usize },
}

/// One matrix, encoded (or partitioned) once, shared by many computations.
///
/// To share the encode across sessions, wrap the dataset in an [`Arc`] and
/// hand clones of the `Arc` to each engine.
#[derive(Debug, Clone)]
pub struct EncodedDataset<M: PrimeModulus> {
    shares: Vec<Arc<Matrix<Fp<M>>>>,
    block_rows: usize,
    output_rows: usize,
    coding: DatasetCoding<M>,
}

impl<M: PrimeModulus> EncodedDataset<M> {
    /// Lagrange/MDS encodes `matrix` for `config`: the one-time master-side
    /// preprocessing every session over this dataset amortizes.
    ///
    /// With `T = 0` the encoding is deterministic (no privacy pads, so no
    /// randomness is consumed from `rng`); with `T > 0` the pads are drawn
    /// from `rng`. Rows not divisible by `config.partitions` are padded with
    /// zero rows; decoded outputs must be trimmed back to
    /// [`EncodedDataset::output_rows`].
    pub fn encode<R: Rng + ?Sized>(
        matrix: &Matrix<Fp<M>>,
        config: SchemeConfig,
        rng: &mut R,
    ) -> Self {
        let output_rows = matrix.rows();
        let padded = pad_rows_to_multiple(matrix, config.partitions);
        let blocks = padded.split_rows(config.partitions);
        let block_rows = blocks[0].rows();
        let encoder = LagrangeEncoder::<M>::new(config);
        let shares = if config.colluding == 0 {
            encoder.encode_deterministic(&blocks)
        } else {
            encoder.encode(&blocks, rng)
        }
        .into_iter()
        .map(|s| Arc::new(s.block))
        .collect();
        EncodedDataset {
            shares,
            block_rows,
            output_rows,
            coding: DatasetCoding::Lagrange {
                config,
                decoder: Box::new(LagrangeDecoder::new(config)),
            },
        }
    }

    /// Splits `matrix` into `partitions` raw row blocks (the uncoded
    /// baseline's layout): share `i` is partition `i`, no redundancy.
    ///
    /// # Panics
    /// Panics if the row count is not divisible by `partitions`.
    pub fn partitioned(matrix: &Matrix<Fp<M>>, partitions: usize) -> Self {
        let shares: Vec<Arc<Matrix<Fp<M>>>> = matrix
            .split_rows(partitions)
            .into_iter()
            .map(Arc::new)
            .collect();
        let block_rows = shares[0].rows();
        EncodedDataset {
            block_rows,
            output_rows: matrix.rows(),
            shares,
            coding: DatasetCoding::Raw { partitions },
        }
    }

    /// The per-worker shares, in worker order.
    pub fn shares(&self) -> &[Arc<Matrix<Fp<M>>>] {
        &self.shares
    }

    /// Worker `worker`'s share.
    pub fn share(&self, worker: usize) -> &Arc<Matrix<Fp<M>>> {
        &self.shares[worker]
    }

    /// Number of workers the dataset is distributed across.
    pub fn workers(&self) -> usize {
        self.shares.len()
    }

    /// Number of data partitions `K`.
    pub fn partitions(&self) -> usize {
        match &self.coding {
            DatasetCoding::Lagrange { config, .. } => config.partitions,
            DatasetCoding::Raw { partitions } => *partitions,
        }
    }

    /// Rows per share/block.
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Rows of the original (unpadded) matrix; decoded outputs are trimmed
    /// back to this length.
    pub fn output_rows(&self) -> usize {
        self.output_rows
    }

    /// `true` iff the shares are Lagrange/MDS coded (as opposed to raw
    /// partitions).
    pub fn is_coded(&self) -> bool {
        matches!(self.coding, DatasetCoding::Lagrange { .. })
    }

    /// The scheme configuration, for coded datasets.
    pub fn scheme(&self) -> Option<&SchemeConfig> {
        match &self.coding {
            DatasetCoding::Lagrange { config, .. } => Some(config),
            DatasetCoding::Raw { .. } => None,
        }
    }

    /// The decoder that inverts the code, for coded datasets.
    pub fn decoder(&self) -> Option<&LagrangeDecoder<M>> {
        match &self.coding {
            DatasetCoding::Lagrange { decoder, .. } => Some(decoder),
            DatasetCoding::Raw { .. } => None,
        }
    }

    /// Results needed to reconstruct the product: the recovery threshold for
    /// coded datasets, every partition for raw ones.
    pub fn recovery_threshold(&self) -> usize {
        match &self.coding {
            DatasetCoding::Lagrange { config, .. } => config.recovery_threshold(),
            DatasetCoding::Raw { partitions } => *partitions,
        }
    }

    /// Total size of the shares shipped to the workers, in bytes (8 bytes per
    /// field element).
    pub fn encoded_bytes(&self) -> usize {
        self.shares.iter().map(|s| s.len() * 8).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avcc_field::{F25, P25};
    use avcc_linalg::mat_vec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn matrix(rows: usize, cols: usize, seed: u64) -> Matrix<F25> {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_vec(rows, cols, avcc_field::random_matrix(&mut rng, rows, cols))
    }

    #[test]
    fn encode_round_trips_through_the_shared_decoder() {
        let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
        let matrix = matrix(18, 5, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let input = avcc_field::random_vector(&mut rng, 5);
        let dataset = EncodedDataset::<P25>::encode(&matrix, config, &mut rng);
        assert!(dataset.is_coded());
        assert_eq!(dataset.workers(), 12);
        assert_eq!(dataset.block_rows(), 2);
        assert_eq!(dataset.output_rows(), 18);
        assert_eq!(dataset.recovery_threshold(), 9);
        assert_eq!(dataset.encoded_bytes(), 12 * 2 * 5 * 8);

        let results: Vec<(usize, Vec<F25>)> = (0..dataset.recovery_threshold())
            .map(|worker| (worker, mat_vec(dataset.share(worker), &input)))
            .collect();
        let blocks = dataset.decoder().unwrap().decode_erasure(&results).unwrap();
        let mut output: Vec<F25> = blocks.into_iter().flatten().collect();
        output.truncate(dataset.output_rows());
        assert_eq!(output, mat_vec(&matrix, &input));
    }

    #[test]
    fn encode_pads_indivisible_rows_and_remembers_the_original_count() {
        let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
        let matrix = matrix(20, 4, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let dataset = EncodedDataset::<P25>::encode(&matrix, config, &mut rng);
        // 20 rows padded up to 27 (a multiple of 9): 3 rows per block.
        assert_eq!(dataset.block_rows(), 3);
        assert_eq!(dataset.output_rows(), 20);
        assert_eq!(dataset.partitions() * dataset.block_rows(), 27);
    }

    #[test]
    fn partitioned_dataset_is_the_raw_split() {
        let matrix = matrix(18, 5, 5);
        let dataset = EncodedDataset::<P25>::partitioned(&matrix, 9);
        assert!(!dataset.is_coded());
        assert_eq!(dataset.workers(), 9);
        assert_eq!(dataset.recovery_threshold(), 9);
        assert!(dataset.scheme().is_none());
        assert!(dataset.decoder().is_none());
        for (k, share) in dataset.shares().iter().enumerate() {
            assert_eq!(share.data(), &matrix.data()[k * 2 * 5..(k + 1) * 2 * 5]);
        }
    }
}
