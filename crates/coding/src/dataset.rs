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
    ///
    /// The matrix is read **in place**: data block `k` is the band of
    /// `block_rows` rows starting at row `k · block_rows`, handed to the
    /// encoder as a slice of `matrix`'s own storage. Only when zero rows have
    /// to be appended is anything copied, and then only the bands that reach
    /// past the last real row.
    ///
    /// The points are [`crate::EvaluationPoints::standard`], so at `T = 0`
    /// the code is systematic — the Goldilocks `(N, K) = (12, 8)` of a bulk
    /// matrix job among them: shares `0..K` are copies of the bands and only
    /// the `N − K` parity shares are computed.
    ///
    /// A bulk matrix is encoded on every core the host gives this process
    /// (one span of coordinates per core, see [`crate::encoder`]); the pads
    /// are drawn first, on the calling thread, so the shares and the rng's
    /// position afterwards are the same on any number of cores.
    pub fn encode<R: Rng + ?Sized>(
        matrix: &Matrix<Fp<M>>,
        config: SchemeConfig,
        rng: &mut R,
    ) -> Self {
        let output_rows = matrix.rows();
        let block_rows = output_rows.div_ceil(config.partitions);
        let band = block_rows * matrix.cols();
        let data = matrix.data();
        // Bands that lie wholly inside the matrix are read where they are;
        // the rest (none when `rows % K == 0`) come from one zero-padded copy
        // of the matrix's tail.
        let whole = data.len().checked_div(band).unwrap_or(config.partitions);
        let mut tail = data[whole * band..].to_vec();
        tail.resize((config.partitions - whole) * band, Fp::<M>::ZERO);
        let blocks: Vec<&[Fp<M>]> = (0..config.partitions)
            .map(|k| match k.checked_sub(whole) {
                None => &data[k * band..(k + 1) * band],
                Some(padded) => &tail[padded * band..(padded + 1) * band],
            })
            .collect();
        let shares = LagrangeEncoder::<M>::new(config)
            .encode_slices(&blocks, block_rows, matrix.cols(), rng)
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
    fn indivisible_rows_on_goldilocks_decode_exactly_and_trim() {
        // Read in place, the last real rows share a band with zero rows and
        // the bands after it are all padding: 21 rows over K = 8 leave one
        // ragged band (4500-element bands, so the chunked parity sweep also
        // crosses a chunk inside each), 9 rows leave one ragged and three
        // empty ones. The last eight shares decoded below are all parity.
        use avcc_field::{F64, P64};
        let config = SchemeConfig::linear(16, 8, 2, 1).unwrap();
        assert!(LagrangeEncoder::<P64>::new(config)
            .points()
            .is_systematic(8));
        for (rows, cols) in [(21usize, 1500usize), (9, 7)] {
            let mut rng = StdRng::seed_from_u64(rows as u64);
            let matrix: Matrix<F64> =
                Matrix::from_vec(rows, cols, avcc_field::random_matrix(&mut rng, rows, cols));
            let input: Vec<F64> = avcc_field::random_vector(&mut rng, cols);
            let dataset = EncodedDataset::<P64>::encode(&matrix, config, &mut rng);
            assert_eq!(dataset.block_rows(), rows.div_ceil(8));
            assert_eq!(dataset.output_rows(), rows);
            // Any K shares decode; take the last eight.
            let results: Vec<(usize, Vec<F64>)> = (8..16)
                .map(|worker| (worker, mat_vec(dataset.share(worker), &input)))
                .collect();
            let blocks = dataset.decoder().unwrap().decode_erasure(&results).unwrap();
            let mut output: Vec<F64> = blocks.into_iter().flatten().collect();
            assert_eq!(output.len(), 8 * dataset.block_rows());
            assert!(output[rows..].iter().all(|&v| v == F64::ZERO), "padding");
            output.truncate(dataset.output_rows());
            assert_eq!(output, mat_vec(&matrix, &input), "{rows} × {cols}");
        }
    }

    #[test]
    fn systematic_shares_are_the_data_bands() {
        // The Goldilocks `(12, 8)` code at T = 0 is systematic: shares 0..8
        // are the matrix's row bands bit for bit (the last one zero-padded
        // when the rows do not divide), and each parity share is
        // `Σ_j U[j][i]·X_j`, recomputed here one product at a time.
        use avcc_field::{F64, P64};
        use rand::RngCore;
        let config = SchemeConfig::linear(12, 8, 2, 1).unwrap();
        let encoder = LagrangeEncoder::<P64>::new(config);
        assert!(encoder.points().is_systematic(8));
        for rows in [1920usize, 1919] {
            let mut rng = StdRng::seed_from_u64(rows as u64);
            let matrix: Matrix<F64> =
                Matrix::from_vec(rows, 512, avcc_field::random_matrix(&mut rng, rows, 512));
            let mut replay = rng.clone();
            let dataset = EncodedDataset::<P64>::encode(&matrix, config, &mut rng);
            assert_eq!(rng.next_u64(), replay.next_u64(), "T = 0 draws nothing");
            let band = dataset.block_rows() * 512;
            let mut padded = matrix.data().to_vec();
            padded.resize(8 * band, F64::ZERO);
            let bands: Vec<&[F64]> = padded.chunks(band).collect();
            for (k, &data) in bands.iter().enumerate() {
                assert_eq!(dataset.share(k).data(), data, "{rows} rows, share {k}");
            }
            for worker in 8..12 {
                let mut expected = vec![F64::ZERO; band];
                for (row, &data) in encoder.encoding_matrix().iter().zip(&bands) {
                    for (slot, &value) in expected.iter_mut().zip(data) {
                        *slot += row[worker] * value;
                    }
                }
                assert_eq!(
                    dataset.share(worker).data(),
                    &expected[..],
                    "{rows} rows, share {worker}"
                );
            }
        }
    }

    #[test]
    fn private_encode_draws_what_it_always_drew() {
        // Every seeded oracle downstream depends on the rng stream: with
        // T = 2 the encode draws two whole pads up front and nothing else.
        // The next draw after the encode was recorded on the whole-lane
        // encoder this one replaced (commit ab57d73). The fold over every
        // share element pins the shares on the standard points.
        use avcc_field::{F64, P64};
        use rand::RngCore;
        let config = SchemeConfig::new(12, 6, 1, 1, 2, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(0x0AB5_7D73);
        let matrix: Matrix<F64> =
            Matrix::from_vec(45, 200, avcc_field::random_matrix(&mut rng, 45, 200));
        let dataset = EncodedDataset::<P64>::encode(&matrix, config, &mut rng);
        assert_eq!(dataset.block_rows(), 8);
        let fold = dataset
            .shares()
            .iter()
            .flat_map(|share| share.data())
            .fold(0u64, |acc, v| acc.rotate_left(7) ^ v.value());
        assert_eq!(rng.next_u64(), 0x1a01_7658_6574_6513);
        assert_eq!(fold, 0x8036_9b26_9965_6db6);
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
