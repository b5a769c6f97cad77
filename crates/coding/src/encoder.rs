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
//! of the encoding matrix are unit vectors, so the first `K` shares are the
//! data blocks themselves — the same [`Matrix`] views the caller passed in,
//! cloned in O(1) — and only the `N − K` parity shares are computed,
//! `(N − K)·K` multiply-adds per coordinate.
//!
//! The encoder reads the data blocks where they live:
//! [`crate::EncodedDataset::encode`], its one caller, passes row-band views
//! of the caller's matrix. Nothing is staged or copied; the only full-size
//! buffers an encode allocates are the `T` pads and the shares whose column
//! of the encoding matrix is not a unit vector.
//!
//! # One span of coordinates per core
//!
//! Lagrange coding evaluates one polynomial **per coordinate, independently
//! of every other coordinate** (Yu et al., *Lagrange Coded Computing*), so
//! the encode can run on as many threads as there are cores without
//! changing a single output element. The computed shares are allocated once,
//! whole and zeroed; the coordinates are cut into one contiguous run of whole
//! chunks per available core; each run gets the matching disjoint `&mut`
//! window of every computed share; the first run is swept on the calling
//! thread and the others on scoped threads ([`avcc_field::map_spans`]). The
//! same sweep body runs whether there is one run or several, and below
//! `avcc_field::spans::SPAWN_MIN_WORK` multiplications (every small job)
//! there is exactly one, inline. The pads are drawn before any of this, on
//! the caller's thread, so the rng stream does not know how many cores the
//! host has.

use avcc_field::{map_spans, random_matrix, span_threads, Fp, PrimeModulus};
use avcc_linalg::Matrix;
use rand::Rng;

use crate::lagrange::LagrangeBasis;
use crate::points::EvaluationPoints;
use crate::scheme::SchemeConfig;

/// Coordinates carried through one parity share's accumulator at a time,
/// and the unit the coordinates are cut into spans by: each chunk of the
/// sources (32 KiB per source at 8-byte elements) is read by every parity
/// share in turn while it is still in cache. A constant, not a knob: no
/// caller has a reason to pick another value.
const ENCODE_CHUNK: usize = 4096;

/// The Lagrange encoder bound to a scheme configuration and its evaluation
/// points.
///
/// One sweep body: the dense linear combination, for every share whose
/// column of the encoding matrix is not a unit vector; a unit column's share
/// is its source itself (see the module docs). The encoder reads its blocks
/// where they are, draws the `T` pads whole and up front, allocates nothing
/// full-size but the pads and the shares it computes, and sweeps the
/// coordinates in one span per available core when there is enough work to
/// pay for a thread — with shares that are the same element for element
/// however many spans there were.
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

    /// Encodes the `K` data blocks, each `rows × cols` and wherever it
    /// lives, into the `N` coded shares, worker `i`'s at index `i`. A share
    /// whose column of the encoding matrix is a unit vector is that source
    /// itself, an O(1) clone of the view; the others are computed. The `T`
    /// privacy pads are drawn uniformly from `rng`, whole and up front, one
    /// `rows × cols` draw per pad in pad order: the rng stream is part of
    /// every seeded oracle.
    ///
    /// # Panics
    /// Panics if the number of blocks differs from `K` or a block is not
    /// `rows × cols`.
    pub(crate) fn encode_blocks<R: Rng + ?Sized>(
        &self,
        blocks: &[Matrix<Fp<M>>],
        rows: usize,
        cols: usize,
        rng: &mut R,
    ) -> Vec<Matrix<Fp<M>>> {
        assert_eq!(
            blocks.len(),
            self.config.partitions,
            "expected {} data blocks, got {}",
            self.config.partitions,
            blocks.len()
        );
        for block in blocks {
            assert_eq!(
                (block.rows(), block.cols()),
                (rows, cols),
                "a data block is not rows × cols"
            );
        }
        let pads: Vec<Matrix<Fp<M>>> = (0..self.config.colluding)
            .map(|_| Matrix::from_vec(rows, cols, random_matrix(rng, rows, cols)))
            .collect();
        let sources: Vec<&Matrix<Fp<M>>> = blocks.iter().chain(&pads).collect();

        // Each share's non-zero terms `(U[j][i], j)`: a lone term of
        // coefficient 1 makes the share source `j` itself; the others are
        // computed, worker `computed[c]` from the terms `parity[c]`.
        let mut shares: Vec<Option<Matrix<Fp<M>>>> = vec![None; self.config.workers];
        let (mut computed, mut parity) = (Vec::new(), Vec::new());
        for (worker, share) in shares.iter_mut().enumerate() {
            let terms: Vec<(Fp<M>, usize)> = self
                .encoding_matrix
                .iter()
                .enumerate()
                .map(|(j, row)| (row[worker], j))
                .filter(|&(coefficient, _)| coefficient != Fp::<M>::ZERO)
                .collect();
            match terms[..] {
                [(coefficient, j)] if coefficient == Fp::<M>::ONE => {
                    *share = Some(sources[j].clone())
                }
                _ => {
                    computed.push(worker);
                    parity.push(terms);
                }
            }
        }

        let width = rows * cols;
        let mut coded: Vec<Vec<Fp<M>>> =
            parity.iter().map(|_| vec![Fp::<M>::ZERO; width]).collect();
        // Every coordinate is encoded independently of every other, so the
        // coordinates are cut into one contiguous run of whole chunks per
        // thread, each run holding its own window of every computed share.
        // A thread is weighed against the multiplications those shares cost.
        let multiplies: usize = parity.iter().map(Vec::len).sum();
        let chunks = width.div_ceil(ENCODE_CHUNK);
        let threads = span_threads(chunks, width * multiplies);
        let span = (chunks.div_ceil(threads) * ENCODE_CHUNK).max(1);
        let mut spans: Vec<(usize, Vec<&mut [Fp<M>]>)> = (0..width.div_ceil(span))
            .map(|index| (index * span, Vec::with_capacity(coded.len())))
            .collect();
        for share in coded.iter_mut() {
            for ((_, windows), window) in spans.iter_mut().zip(share.chunks_mut(span)) {
                windows.push(window);
            }
        }
        let sources: Vec<&[Fp<M>]> = sources.iter().map(|source| source.data()).collect();
        map_spans(spans, threads, |(start, windows)| {
            sweep(&sources, &parity, start, windows)
        });
        for (worker, data) in computed.into_iter().zip(coded) {
            shares[worker] = Some(Matrix::from_vec(rows, cols, data));
        }
        shares.into_iter().flatten().collect()
    }

    /// The bottom `T × N` part of the encoding matrix (pad coefficients),
    /// used by the T-privacy check of Theorem 1.
    pub fn pad_submatrix(&self) -> Vec<Vec<Fp<M>>> {
        self.encoding_matrix[self.config.partitions..].to_vec()
    }
}

/// The `O((K+T)·N)`-per-coordinate encode over the coordinates
/// `start..start + len` that `windows` (one per computed share) cover: each
/// share is the linear combination `Σ_j U[j][i]·source_j` over its non-zero
/// terms `(U[j][i], j)` in `parity`.
///
/// The coordinates go [`ENCODE_CHUNK`] at a time: one chunk-sized
/// accumulator absorbs the chunk of every source with a non-zero coefficient,
/// two sources per pass, and reduces once per lane into the share's window
/// (see [`avcc_field::WideAccumulator`]), so each chunk of the sources is
/// read from cache by every computed share in turn. Two sources per pass
/// rather than one: `EncodedDataset::encode`, 1920 × 512 Goldilocks,
/// `(N, K) = (12, 8)`, two cores, 6.7–7.2 → 5.2–6.4 ms.
fn sweep<M: PrimeModulus>(
    sources: &[&[Fp<M>]],
    parity: &[Vec<(Fp<M>, usize)>],
    start: usize,
    mut windows: Vec<&mut [Fp<M>]>,
) {
    let len = windows.first().map_or(0, |window| window.len());
    for at in (start..start + len).step_by(ENCODE_CHUNK) {
        let end = (at + ENCODE_CHUNK).min(start + len);
        for (terms, window) in parity.iter().zip(windows.iter_mut()) {
            let mut coded = avcc_field::WideAccumulator::<M>::new(end - at);
            let mut pairs = terms.chunks_exact(2);
            for pair in pairs.by_ref() {
                let ((first, a), (second, b)) = (pair[0], pair[1]);
                coded.axpy_rows(
                    [first, second],
                    [&sources[a][at..end], &sources[b][at..end]],
                );
            }
            if let [(coefficient, source)] = pairs.remainder() {
                coded.axpy(*coefficient, &sources[*source][at..end]);
            }
            coded.finish_into(&mut window[at - start..end - start]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lagrange::interpolate_eval;
    use crate::linear::rank;
    use crate::EncodedDataset;
    use avcc_field::{F25, P25};
    use avcc_linalg::mat_vec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `k` random `rows × cols` data blocks stacked into one matrix, and
    /// that matrix encoded for `config` (pads, if any, drawn from `rng`).
    fn encode(
        config: SchemeConfig,
        rows: usize,
        cols: usize,
        seed: u64,
        rng: &mut StdRng,
    ) -> (Vec<Matrix<F25>>, EncodedDataset<P25>) {
        let k = config.partitions;
        let mut data_rng = StdRng::seed_from_u64(seed);
        let matrix = Matrix::from_vec(
            k * rows,
            cols,
            avcc_field::random_matrix(&mut data_rng, k * rows, cols),
        );
        let blocks = (0..k)
            .map(|j| matrix.row_slice(j * rows, (j + 1) * rows))
            .collect();
        (blocks, EncodedDataset::encode(&matrix, config, rng))
    }

    #[test]
    fn systematic_shares_equal_data_blocks() {
        // With T = 0 the code is systematic: worker i < K receives X_i itself.
        let config = SchemeConfig::linear(6, 3, 2, 1).unwrap();
        let (blocks, dataset) = encode(config, 4, 5, 1, &mut StdRng::seed_from_u64(0));
        assert_eq!(dataset.workers(), 6);
        for (i, block) in blocks.iter().enumerate() {
            assert_eq!(&**dataset.share(i), block, "worker {i} should hold X_{i}");
        }
    }

    #[test]
    fn coded_share_is_polynomial_evaluation() {
        // Every coordinate of the coded blocks must lie on the degree-(K+T-1)
        // polynomial through the data/pad blocks: interpolating any K+T shares
        // at a β-point recovers the data block coordinate.
        let config = SchemeConfig::linear(7, 4, 2, 1).unwrap();
        let encoder = LagrangeEncoder::<P25>::new(config);
        let (blocks, dataset) = encode(config, 2, 3, 2, &mut StdRng::seed_from_u64(0));
        // Use shares 3..7 (any 4 = K shares suffice when T = 0).
        let alphas = &encoder.points().alpha()[3..7];
        for (k, block) in blocks.iter().enumerate() {
            let beta = encoder.points().beta()[k];
            for coordinate in 0..block.len() {
                let values: Vec<F25> = (3..7)
                    .map(|worker| dataset.share(worker).data()[coordinate])
                    .collect();
                let recovered = interpolate_eval(alphas, &values, beta);
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
        let (blocks, dataset) = encode(config, 3, 4, 3, &mut StdRng::seed_from_u64(0));
        let mut rng = StdRng::seed_from_u64(99);
        let w: Vec<F25> = avcc_field::random_vector(&mut rng, 4);
        for (worker, share) in dataset.shares().iter().enumerate() {
            let lhs = mat_vec(share, &w);
            // Σ_j U[j][i] * (X_j w)
            let mut rhs = vec![F25::ZERO; 3];
            for (j, block) in blocks.iter().enumerate() {
                let coefficient = encoder.encoding_matrix()[j][worker];
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
        let config = SchemeConfig::new(9, 3, 1, 1, 2).unwrap();
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
        let config = SchemeConfig::new(8, 3, 1, 0, 2).unwrap();
        let (blocks, dataset) = encode(config, 2, 2, 4, &mut StdRng::seed_from_u64(5));
        // No share should equal a raw data block (points are disjoint and the
        // pads are random).
        for share in dataset.shares() {
            for block in &blocks {
                assert_ne!(&**share, block);
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
        let block = Matrix::zeros(2, 2);
        let _ = encoder.encode_blocks(&[block.clone(), block], 2, 2, &mut StdRng::seed_from_u64(6));
    }

    #[test]
    #[should_panic(expected = "not rows × cols")]
    fn mismatched_block_shapes_panic() {
        let config = SchemeConfig::linear(4, 2, 1, 1).unwrap();
        let encoder = LagrangeEncoder::<P25>::new(config);
        let (small, large) = (Matrix::zeros(2, 2), Matrix::zeros(3, 2));
        let _ = encoder.encode_blocks(&[small, large], 2, 2, &mut StdRng::seed_from_u64(7));
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
        let sources: Vec<&[Fp<M>]> = blocks.iter().map(Matrix::data).collect();
        let mut rng = StdRng::seed_from_u64(width as u64);
        let mut replay = rng.clone();
        let shares = encoder.encode_blocks(&blocks, 1, width, &mut rng);
        let pads: Vec<Vec<Fp<M>>> = (0..config.colluding)
            .map(|_| random_matrix(&mut replay, 1, width))
            .collect();
        let next = rng.next_u64();
        assert_eq!(next, replay.next_u64(), "encode drew exactly the pads");
        assert_eq!(shares.len(), config.workers);
        let sources: Vec<&[Fp<M>]> = sources
            .into_iter()
            .chain(pads.iter().map(Vec::as_slice))
            .collect();
        for (worker, share) in shares.iter().enumerate() {
            let mut expected = vec![Fp::<M>::ZERO; width];
            for (row, source) in encoder.encoding_matrix().iter().zip(&sources) {
                let coefficient = row[worker];
                for (slot, &value) in expected.iter_mut().zip(source.iter()) {
                    *slot += coefficient * value;
                }
            }
            assert_eq!(
                share.data(),
                &expected[..],
                "{}, {config}, width {width}, worker {worker}",
                M::NAME
            );
        }
        let last = shares[config.workers - 1].data()[width - 1];
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
            let config = SchemeConfig::new(workers, partitions, 1, 1, 0).unwrap();
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
        let config = SchemeConfig::new(12, 8, 1, 1, 2).unwrap();
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
