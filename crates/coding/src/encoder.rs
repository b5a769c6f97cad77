//! The Lagrange / MDS encoder (paper §IV-B, step 1).
//!
//! Given the partitioned dataset `X = (X_1, …, X_K)` and `T` uniformly random
//! pad blocks `W_{K+1}, …, W_{K+T}`, the encoder forms the polynomial
//!
//! ```text
//! u(z) = Σ_{j≤K} X_j ℓ_j(z) + Σ_{K<j≤K+T} W_j ℓ_j(z)
//! ```
//!
//! and hands worker `i` the evaluation `X̃_i = u(α_i)`. Because `ℓ_j(α_i)` is
//! a scalar, each coded block is simply a linear combination of the data and
//! pad blocks; the matrix of those scalars (the *encoding matrix* `U`, with
//! `U_{j,i} = ℓ_j(α_i)`) is exposed for the privacy analysis and the
//! verification-key generation.
//!
//! # Encoding
//!
//! The points are [`EvaluationPoints::standard`], so every share is a linear
//! combination of the `K+T` sources — `O((K+T)·N)` lazy multiply-adds per
//! coordinate. At `T = 0` those points are systematic: the first `K` columns
//! of the encoding matrix are unit vectors, so the first `K` shares are
//! copies of the data blocks and only the `N − K` parity shares are
//! computed, `(N − K)·K` multiply-adds per coordinate.
//!
//! The encoder reads the data blocks as plain coordinate slices, wherever
//! they live: [`LagrangeEncoder::encode`] passes each block matrix's storage,
//! [`crate::EncodedDataset::encode`] passes row bands of the caller's matrix
//! in place. Nothing is staged; the only full-size buffers an encode
//! allocates are the `T` pads and the `N` shares it returns.
//!
//! # One span of coordinates per core
//!
//! Lagrange coding evaluates one polynomial **per coordinate, independently
//! of every other coordinate** (Yu et al., *Lagrange Coded Computing*), so
//! the encode can run on as many threads as there are cores without
//! changing a single output element. The `N` shares are allocated once, whole
//! and zeroed; the coordinates are cut into one contiguous run of whole
//! chunks per available core; each run gets the matching disjoint `&mut`
//! window of every share; the first run is swept on the calling thread and
//! the others on scoped threads ([`avcc_field::map_spans`]). The same sweep
//! body runs whether there is one run or several, and below
//! `avcc_field::spans::SPAWN_MIN_WORK` multiplications (every small job)
//! there is exactly one, inline. The pads
//! are drawn before any of this, on the caller's thread, so the rng stream
//! does not know how many cores the host has.

use avcc_field::{map_spans, random_matrix, span_threads, Fp, PrimeModulus};
use avcc_linalg::Matrix;
use avcc_poly::LagrangeBasis;
use rand::Rng;

use crate::points::EvaluationPoints;
use crate::scheme::SchemeConfig;

/// Coordinates carried through one parity share's accumulator at a time,
/// and the unit the coordinates are cut into spans by: each chunk of the
/// sources (32 KiB per source at 8-byte elements) is read by every parity
/// share in turn while it is still in cache. A constant, not a knob: no
/// caller has a reason to pick another value.
const ENCODE_CHUNK: usize = 4096;

/// A coded data block assigned to one worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedShare<M: PrimeModulus> {
    /// The worker index `i ∈ [N]` this share belongs to.
    pub worker: usize,
    /// The evaluation point `α_i` of this worker.
    pub alpha: Fp<M>,
    /// The coded block `X̃_i = u(α_i)`, same shape as a data block.
    pub block: Matrix<Fp<M>>,
}

/// The Lagrange encoder bound to a scheme configuration and its evaluation
/// points.
///
/// One sweep body: the dense linear combination, with a copy for every unit
/// column of the encoding matrix (see the module docs). The encoder reads
/// its blocks where they are, draws the `T` pads whole and up front,
/// allocates nothing full-size but the pads and the `N` shares it returns,
/// and sweeps the coordinates in one span per available core when there is
/// enough work to pay for a thread — with shares that are the same element
/// for element however many spans there were.
#[derive(Debug, Clone)]
pub struct LagrangeEncoder<M: PrimeModulus> {
    config: SchemeConfig,
    points: EvaluationPoints<M>,
    /// `encoding_matrix[j][i] = ℓ_j(α_i)` for `j ∈ [K+T]`, `i ∈ [N]`.
    encoding_matrix: Vec<Vec<Fp<M>>>,
}

impl<M: PrimeModulus> LagrangeEncoder<M> {
    /// Builds the encoder on [`EvaluationPoints::standard`] points:
    /// systematic at `T = 0`, disjoint from the β-points at `T > 0`.
    pub fn new(config: SchemeConfig) -> Self {
        let points =
            EvaluationPoints::standard(config.partitions, config.colluding, config.workers);
        // Column i of the encoding matrix is the basis evaluated at α_i; one
        // `evaluate_at_many` call shares a single batch inversion across all
        // N columns.
        let mut encoding_matrix =
            vec![vec![Fp::<M>::ZERO; config.workers]; config.partitions + config.colluding];
        let columns = LagrangeBasis::new(points.beta().to_vec()).evaluate_at_many(points.alpha());
        for (i, column) in columns.into_iter().enumerate() {
            for (j, value) in column.into_iter().enumerate() {
                encoding_matrix[j][i] = value;
            }
        }
        LagrangeEncoder {
            config,
            points,
            encoding_matrix,
        }
    }

    /// The scheme configuration.
    pub fn config(&self) -> &SchemeConfig {
        &self.config
    }

    /// The evaluation points.
    pub fn points(&self) -> &EvaluationPoints<M> {
        &self.points
    }

    /// The `(K+T) × N` encoding matrix `U` with `U_{j,i} = ℓ_j(α_i)`.
    pub fn encoding_matrix(&self) -> &[Vec<Fp<M>>] {
        &self.encoding_matrix
    }

    /// Encodes the `K` data blocks into `N` coded shares, drawing the `T`
    /// privacy pads uniformly at random from `rng`.
    ///
    /// # Panics
    /// Panics if the number of blocks differs from `K` or the blocks disagree
    /// in shape.
    pub fn encode<R: Rng + ?Sized>(
        &self,
        blocks: &[Matrix<Fp<M>>],
        rng: &mut R,
    ) -> Vec<EncodedShare<M>> {
        let (rows, cols) = blocks.first().map_or((0, 0), |b| (b.rows(), b.cols()));
        for block in blocks {
            assert_eq!(
                (block.rows(), block.cols()),
                (rows, cols),
                "all data blocks must have the same shape"
            );
        }
        let blocks: Vec<&[Fp<M>]> = blocks.iter().map(Matrix::data).collect();
        self.encode_slices(&blocks, rows, cols, rng)
    }

    /// [`LagrangeEncoder::encode`] over blocks given as row-major coordinate
    /// slices of `rows × cols` elements each — wherever they live (a block
    /// matrix, a row band of a larger one). The pads are drawn whole and up
    /// front, one `rows × cols` draw per pad in pad order: the rng stream is
    /// part of every seeded oracle.
    ///
    /// # Panics
    /// Panics if the number of blocks differs from `K` or a slice is not
    /// `rows · cols` long.
    pub(crate) fn encode_slices<R: Rng + ?Sized>(
        &self,
        blocks: &[&[Fp<M>]],
        rows: usize,
        cols: usize,
        rng: &mut R,
    ) -> Vec<EncodedShare<M>> {
        assert_eq!(
            blocks.len(),
            self.config.partitions,
            "expected {} data blocks, got {}",
            self.config.partitions,
            blocks.len()
        );
        for block in blocks {
            assert_eq!(block.len(), rows * cols, "a data block is not rows × cols");
        }
        let pads: Vec<Vec<Fp<M>>> = (0..self.config.colluding)
            .map(|_| random_matrix(rng, rows, cols))
            .collect();
        let sources: Vec<&[Fp<M>]> = blocks
            .iter()
            .copied()
            .chain(pads.iter().map(Vec::as_slice))
            .collect();

        let width = rows * cols;
        let mut coded: Vec<Vec<Fp<M>>> = (0..self.config.workers)
            .map(|_| vec![Fp::<M>::ZERO; width])
            .collect();
        // Every coordinate is encoded independently of every other, so the
        // coordinates are cut into one contiguous run of whole chunks per
        // thread, each run holding its own window of all N shares.
        let chunks = width.div_ceil(ENCODE_CHUNK);
        let threads = span_threads(chunks, width * self.multiplies_per_coordinate());
        let span = (chunks.div_ceil(threads) * ENCODE_CHUNK).max(1);
        let mut spans: Vec<(usize, Vec<&mut [Fp<M>]>)> = (0..width.div_ceil(span))
            .map(|index| (index * span, Vec::with_capacity(coded.len())))
            .collect();
        for share in coded.iter_mut() {
            for ((_, windows), window) in spans.iter_mut().zip(share.chunks_mut(span)) {
                windows.push(window);
            }
        }
        map_spans(spans, threads, |(start, windows)| {
            self.sweep(&sources, start, windows)
        });
        coded
            .into_iter()
            .enumerate()
            .map(|(worker, data)| EncodedShare {
                worker,
                alpha: self.points.alpha()[worker],
                block: Matrix::from_vec(rows, cols, data),
            })
            .collect()
    }

    /// Field multiplications one coordinate costs — what [`span_threads`]
    /// weighs against the cost of a thread: the non-zero entries of the
    /// encoding matrix (a systematic code's first `K` columns have one each).
    fn multiplies_per_coordinate(&self) -> usize {
        self.encoding_matrix
            .iter()
            .flatten()
            .filter(|&&coefficient| coefficient != Fp::<M>::ZERO)
            .count()
    }

    /// The `O((K+T)·N)`-per-coordinate encode over the coordinates
    /// `start..start + len` that `windows` (one per share) cover: share `i`
    /// is the linear combination `Σ_j U[j][i]·source_j`.
    ///
    /// A share whose column of `U` is a unit vector — each of the first `K`
    /// shares of a systematic code — is a copy of its source. The others
    /// take the coordinates [`ENCODE_CHUNK`] at a time: one chunk-sized
    /// accumulator absorbs the chunk of every source with a non-zero
    /// coefficient, two sources per pass, and reduces once per lane into the
    /// share's window (see [`avcc_field::WideAccumulator`]), so each chunk of
    /// the sources is read from cache by every parity share in turn. Two
    /// sources per pass rather than one: `EncodedDataset::encode`, 1920 × 512
    /// Goldilocks, `(N, K) = (12, 8)`, two cores, 6.7–7.2 → 5.2–6.4 ms.
    fn sweep(&self, sources: &[&[Fp<M>]], start: usize, windows: Vec<&mut [Fp<M>]>) {
        let encoding_matrix = &self.encoding_matrix;
        let len = windows.first().map_or(0, |window| window.len());
        let sources: Vec<&[Fp<M>]> = sources
            .iter()
            .map(|source| &source[start..start + len])
            .collect();
        let mut parity = Vec::with_capacity(windows.len());
        for (worker, window) in windows.into_iter().enumerate() {
            let terms: Vec<(Fp<M>, &[Fp<M>])> = encoding_matrix
                .iter()
                .zip(&sources)
                .map(|(row, &source)| (row[worker], source))
                .filter(|&(coefficient, _)| coefficient != Fp::<M>::ZERO)
                .collect();
            match terms[..] {
                [(coefficient, source)] if coefficient == Fp::<M>::ONE => {
                    window.copy_from_slice(source)
                }
                _ => parity.push((terms, window)),
            }
        }
        for at in (0..len).step_by(ENCODE_CHUNK) {
            let end = (at + ENCODE_CHUNK).min(len);
            for (terms, window) in parity.iter_mut() {
                let mut coded = avcc_field::WideAccumulator::<M>::new(end - at);
                let mut pairs = terms.chunks_exact(2);
                for pair in pairs.by_ref() {
                    let ((first, a), (second, b)) = (pair[0], pair[1]);
                    coded.axpy_rows([first, second], [&a[at..end], &b[at..end]]);
                }
                if let [(coefficient, source)] = pairs.remainder() {
                    coded.axpy(*coefficient, &source[at..end]);
                }
                coded.finish_into(&mut window[at..end]);
            }
        }
    }

    /// Encodes without privacy pads (valid only when `T = 0`); deterministic,
    /// used by tests and by the MDS convenience wrapper.
    pub fn encode_deterministic(&self, blocks: &[Matrix<Fp<M>>]) -> Vec<EncodedShare<M>> {
        assert_eq!(
            self.config.colluding, 0,
            "deterministic encoding requires T = 0 (no privacy pads)"
        );
        let mut rng = rand::rngs::mock::StepRng::new(0, 0);
        self.encode(blocks, &mut rng)
    }

    /// The bottom `T × N` part of the encoding matrix (pad coefficients),
    /// used by the T-privacy check of Theorem 1.
    pub fn pad_submatrix(&self) -> Vec<Vec<Fp<M>>> {
        self.encoding_matrix[self.config.partitions..].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avcc_field::{F25, P25};
    use avcc_linalg::mat_vec;
    use avcc_poly::{interpolate_eval, rank};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn data_blocks(k: usize, rows: usize, cols: usize, seed: u64) -> Vec<Matrix<F25>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..k)
            .map(|_| Matrix::from_vec(rows, cols, avcc_field::random_matrix(&mut rng, rows, cols)))
            .collect()
    }

    #[test]
    fn systematic_shares_equal_data_blocks() {
        // With T = 0 the code is systematic: worker i < K receives X_i itself.
        let config = SchemeConfig::linear(6, 3, 2, 1).unwrap();
        let encoder = LagrangeEncoder::<P25>::new(config);
        let blocks = data_blocks(3, 4, 5, 1);
        let shares = encoder.encode_deterministic(&blocks);
        assert_eq!(shares.len(), 6);
        for (i, block) in blocks.iter().enumerate() {
            assert_eq!(&shares[i].block, block, "worker {i} should hold X_{i}");
        }
    }

    #[test]
    fn coded_share_is_polynomial_evaluation() {
        // Every coordinate of the coded blocks must lie on the degree-(K+T-1)
        // polynomial through the data/pad blocks: interpolating any K+T shares
        // at a β-point recovers the data block coordinate.
        let config = SchemeConfig::linear(7, 4, 2, 1).unwrap();
        let encoder = LagrangeEncoder::<P25>::new(config);
        let blocks = data_blocks(4, 2, 3, 2);
        let shares = encoder.encode_deterministic(&blocks);
        // Use shares 3..7 (any 4 = K shares suffice when T = 0).
        let subset: Vec<_> = shares[3..7].to_vec();
        let alphas: Vec<F25> = subset.iter().map(|s| s.alpha).collect();
        for (k, block) in blocks.iter().enumerate() {
            let beta = encoder.points().beta()[k];
            for coordinate in 0..block.len() {
                let values: Vec<F25> = subset.iter().map(|s| s.block.data()[coordinate]).collect();
                let recovered = interpolate_eval(&alphas, &values, beta);
                assert_eq!(recovered, block.data()[coordinate]);
            }
        }
    }

    #[test]
    fn linearity_commutes_with_encoding() {
        // f(X̃_i) for linear f equals the same linear combination of f(X_j):
        // encode-then-multiply equals multiply-then-encode.
        let config = SchemeConfig::linear(5, 3, 1, 1).unwrap();
        let encoder = LagrangeEncoder::<P25>::new(config);
        let blocks = data_blocks(3, 3, 4, 3);
        let shares = encoder.encode_deterministic(&blocks);
        let mut rng = StdRng::seed_from_u64(99);
        let w: Vec<F25> = avcc_field::random_vector(&mut rng, 4);
        for share in &shares {
            let lhs = mat_vec(&share.block, &w);
            // Σ_j U[j][i] * (X_j w)
            let mut rhs = vec![F25::ZERO; 3];
            for (j, block) in blocks.iter().enumerate() {
                let coefficient = encoder.encoding_matrix()[j][share.worker];
                let term = mat_vec(block, &w);
                for (slot, value) in rhs.iter_mut().zip(term) {
                    *slot += coefficient * value;
                }
            }
            assert_eq!(lhs, rhs);
        }
    }

    #[test]
    fn private_encoding_pads_have_full_rank_submatrices() {
        // Lemma 2 of LCC (used by Theorem 1): every T×T submatrix of the
        // bottom T×N pad-coefficient matrix is invertible, which is what makes
        // the random mask uniform for any T colluding workers.
        let config = SchemeConfig::new(9, 3, 1, 1, 2, 1).unwrap();
        let encoder = LagrangeEncoder::<P25>::new(config);
        let pads = encoder.pad_submatrix();
        assert_eq!(pads.len(), 2);
        let n = config.workers;
        for a in 0..n {
            for b in (a + 1)..n {
                let submatrix = vec![pads[0][a], pads[0][b], pads[1][a], pads[1][b]];
                assert_eq!(rank(&submatrix, 2, 2), 2, "columns {a},{b} not invertible");
            }
        }
    }

    #[test]
    fn private_shares_differ_from_data_blocks() {
        let config = SchemeConfig::new(8, 3, 1, 0, 2, 1).unwrap();
        let encoder = LagrangeEncoder::<P25>::new(config);
        let blocks = data_blocks(3, 2, 2, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let shares = encoder.encode(&blocks, &mut rng);
        // No share should equal a raw data block (points are disjoint and the
        // pads are random).
        for share in &shares {
            for block in &blocks {
                assert_ne!(&share.block, block);
            }
        }
    }

    #[test]
    fn encoding_matrix_has_systematic_identity_part() {
        let config = SchemeConfig::linear(6, 3, 2, 1).unwrap();
        let encoder = LagrangeEncoder::<P25>::new(config);
        let matrix = encoder.encoding_matrix();
        for (j, row) in matrix.iter().enumerate().take(3) {
            for (i, &value) in row.iter().enumerate().take(3) {
                let expected = if i == j { F25::ONE } else { F25::ZERO };
                assert_eq!(value, expected);
            }
        }
    }

    #[test]
    #[should_panic(expected = "expected 3 data blocks")]
    fn wrong_block_count_panics() {
        let config = SchemeConfig::linear(6, 3, 2, 1).unwrap();
        let encoder = LagrangeEncoder::<P25>::new(config);
        let blocks = data_blocks(2, 2, 2, 6);
        let _ = encoder.encode_deterministic(&blocks);
    }

    #[test]
    #[should_panic(expected = "same shape")]
    fn mismatched_block_shapes_panic() {
        let config = SchemeConfig::linear(4, 2, 1, 1).unwrap();
        let encoder = LagrangeEncoder::<P25>::new(config);
        let blocks = vec![Matrix::<F25>::zeros(2, 2), Matrix::<F25>::zeros(3, 2)];
        let _ = encoder.encode_deterministic(&blocks);
    }

    #[test]
    #[should_panic(expected = "requires T = 0")]
    fn deterministic_encoding_requires_no_privacy() {
        let config = SchemeConfig::new(8, 3, 1, 0, 2, 1).unwrap();
        let encoder = LagrangeEncoder::<P25>::new(config);
        let blocks = data_blocks(3, 2, 2, 7);
        let _ = encoder.encode_deterministic(&blocks);
    }

    /// Every share of `encoder` over `width`-wide blocks equals the dense
    /// oracle `Σ_j U[j][i]·source_j` element for element, the pads being
    /// recovered by replaying the rng (whole, up front, in pad order).
    /// Returns the rng's next draw after the encode and the last element of
    /// the last share.
    fn check_against_the_encoding_matrix<M: PrimeModulus>(
        encoder: &LagrangeEncoder<M>,
        width: usize,
    ) -> (u64, u64) {
        use rand::RngCore;
        let config = *encoder.config();
        let mut data_rng = StdRng::seed_from_u64(21);
        let blocks: Vec<Matrix<Fp<M>>> = (0..config.partitions)
            .map(|_| Matrix::from_vec(1, width, random_matrix(&mut data_rng, 1, width)))
            .collect();
        let mut rng = StdRng::seed_from_u64(width as u64);
        let mut replay = rng.clone();
        let shares = encoder.encode(&blocks, &mut rng);
        let pads: Vec<Vec<Fp<M>>> = (0..config.colluding)
            .map(|_| random_matrix(&mut replay, 1, width))
            .collect();
        let next = rng.next_u64();
        assert_eq!(next, replay.next_u64(), "encode drew exactly the pads");
        assert_eq!(shares.len(), config.workers);
        let sources: Vec<&[Fp<M>]> = blocks
            .iter()
            .map(Matrix::data)
            .chain(pads.iter().map(Vec::as_slice))
            .collect();
        for share in &shares {
            let mut expected = vec![Fp::<M>::ZERO; width];
            for (row, source) in encoder.encoding_matrix().iter().zip(&sources) {
                let coefficient = row[share.worker];
                for (slot, &value) in expected.iter_mut().zip(source.iter()) {
                    *slot += coefficient * value;
                }
            }
            assert_eq!(
                share.block.data(),
                &expected[..],
                "{}, {config}, width {width}, worker {}",
                M::NAME,
                share.worker
            );
        }
        let last = shares[config.workers - 1].block.data()[width - 1];
        (next, last.value())
    }

    #[test]
    fn shares_do_not_depend_on_how_many_threads_swept_them() {
        // Widths below one chunk, either side of one, two chunks and a ragged
        // tail, and thirty chunks — past `SPAWN_MIN_WORK` on every
        // configuration here, so on a host with a second core the spans run
        // side by side; on one core (CI pins this test to one with
        // `taskset`) the same body runs inline. Three systematic Goldilocks
        // codes, whose copies and chunked parity shares meet at every chunk
        // edge — `(12, 8)` is the bulk matrix job's — and `K + T = 10`, with
        // pads drawn.
        use avcc_field::P64;
        let widths = [
            1,
            ENCODE_CHUNK - 1,
            ENCODE_CHUNK + 1,
            2 * ENCODE_CHUNK + 7,
            30 * ENCODE_CHUNK,
        ];
        for (workers, partitions) in [(12, 8), (16, 8), (11, 4)] {
            let config = SchemeConfig::new(workers, partitions, 1, 1, 0, 1).unwrap();
            let encoder = LagrangeEncoder::<P64>::new(config);
            assert!(encoder.points().is_systematic(partitions));
            for width in widths {
                check_against_the_encoding_matrix(&encoder, width);
            }
        }
        // The rng's next draw after the encode, and the last element of the
        // last share, as the single-threaded parent of this code produced
        // them (the draw does not depend on the modulus).
        let recorded_next = [
            0xf893_a2ee_fb32_555e,
            0x80b1_a852_5326_11ec,
            0xee5c_11cd_3942_04c7,
            0x2457_97d5_05c3_24e9,
            0x9e7e_fcf0_c94a_cfcd,
        ];
        let recorded_last_p64 = [
            13_154_158_763_294_168_142,
            5_419_635_909_437_790_877,
            4_434_258_795_731_094_876,
            618_894_802_301_542_856,
            16_982_148_801_219_758_314,
        ];
        let recorded_last_p25 = [27_646_833, 12_286_008, 29_697_885, 1_007_052, 14_412_381];
        let config = SchemeConfig::new(12, 8, 1, 1, 2, 1).unwrap();
        let dense_p64 = LagrangeEncoder::<P64>::new(config);
        let dense_p25 = LagrangeEncoder::<P25>::new(config);
        assert!(dense_p64.points().disjoint() && dense_p25.points().disjoint());
        for (case, width) in widths.into_iter().enumerate() {
            assert_eq!(
                check_against_the_encoding_matrix(&dense_p64, width),
                (recorded_next[case], recorded_last_p64[case]),
                "P64, width {width}"
            );
            assert_eq!(
                check_against_the_encoding_matrix(&dense_p25, width),
                (recorded_next[case], recorded_last_p25[case]),
                "P25, width {width}"
            );
        }
    }
}
