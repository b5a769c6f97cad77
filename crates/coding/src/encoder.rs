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
//! # Encoding paths
//!
//! With the default ([`EvaluationPoints::standard`]) points every share is a
//! `(K+T)`-term linear combination — `O((K+T)·N)` multiply-reduces per
//! coordinate. When the points are in subgroup position
//! ([`EvaluationPoints::subgroup`], chosen automatically by
//! [`EvaluationPoints::auto`] on NTT-friendly fields) the encoder instead
//! interpolates `u` with one inverse NTT over the β-subgroup (size `K+T`) and
//! evaluates it at all worker points with one forward NTT over the α-coset
//! (size `next_pow2(N)`) — `O(N log N)` per coordinate, selected
//! automatically at construction. Both paths produce the evaluations of the
//! same degree-`< K+T` polynomial at the same points, so they are
//! interchangeable share-for-share.
//!
//! Both paths read the data blocks as plain coordinate slices, wherever they
//! live: [`LagrangeEncoder::encode`] passes each block matrix's storage,
//! [`crate::EncodedDataset::encode`] passes row bands of the caller's matrix
//! in place. Nothing is staged; the only full-size buffers an encode
//! allocates are the `T` pads and the `N` shares it returns.
//!
//! The NTT path is **cache-blocked**: the two transforms are independent per
//! coordinate, so the encoder sweeps the coordinates in chunks of
//! `ENCODE_CHUNK`, carrying each chunk through gather → inverse butterflies →
//! one folded `n⁻¹·gᵏ` scale pass → forward butterflies → append to the
//! shares while it is resident in cache, instead of streaming every
//! whole-block lane through main memory once per butterfly stage.

use avcc_field::{random_matrix, Fp, PrimeModulus};
use avcc_linalg::Matrix;
use avcc_poly::{LagrangeBasis, NttPlan};
use rand::Rng;

use crate::points::EvaluationPoints;
use crate::scheme::SchemeConfig;

/// Coordinates carried through both transforms of the NTT encode path at a
/// time. The working set of a sweep is `next_pow2(N)` lanes of this many
/// 8-byte elements — 512 KiB at `N ≤ 16` — and has to sit inside a core's L2
/// for the seven butterfly stages and the scale pass to run out of cache.
/// Measured on `EncodedDataset::encode`, 1920 × 512 Goldilocks,
/// `(N, K) = (12, 8)`, 4 MiB L2: flat at 11.6–12.1 ms from 256 to 4096,
/// 12.5 ms at 8192, 14.5 ms at 16 384 and 20–21 ms unblocked — so the largest
/// size of the flat range, which keeps the per-sweep overhead (a lane
/// permutation and one short loop per butterfly) smallest. A constant, not a
/// knob: no caller has a reason to pick another value.
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

/// The cached NTT plans of an encoder whose points are in subgroup position.
#[derive(Debug, Clone)]
struct EncoderNtt<M: PrimeModulus> {
    /// Inverse transform over the β-subgroup (size `K + T`): block values →
    /// coefficients of `u`.
    interpolate: NttPlan<M>,
    /// Forward transform over the α-coset subgroup (size `next_pow2(N)`):
    /// coefficients → evaluations at every worker point.
    evaluate: NttPlan<M>,
}

/// The Lagrange encoder bound to a scheme configuration and its evaluation
/// points.
///
/// One encode body per point layout: the dense linear combination for
/// arbitrary points, the cache-blocked NTT sweep for points in subgroup
/// position (see the module docs). Either way the encoder reads its blocks
/// where they are, draws the `T` pads whole and up front, and allocates
/// nothing full-size but the pads and the `N` shares it returns.
#[derive(Debug, Clone)]
pub struct LagrangeEncoder<M: PrimeModulus> {
    config: SchemeConfig,
    points: EvaluationPoints<M>,
    /// `encoding_matrix[j][i] = ℓ_j(α_i)` for `j ∈ [K+T]`, `i ∈ [N]`,
    /// materialized on first use: the NTT fast path never evaluates it, and
    /// its `O((K+T)·N)` construction is exactly the cost that path avoids —
    /// only the matrix encode path and the analysis accessors
    /// ([`LagrangeEncoder::encoding_matrix`] / [`LagrangeEncoder::pad_submatrix`])
    /// force it.
    encoding_matrix: std::sync::OnceLock<Vec<Vec<Fp<M>>>>,
    /// Cached transforms for the NTT fast path (`None` → matrix path).
    ntt: Option<EncoderNtt<M>>,
}

impl<M: PrimeModulus> LagrangeEncoder<M> {
    /// Builds the encoder with automatically selected evaluation points
    /// ([`EvaluationPoints::auto`]: subgroup position on NTT-friendly fields
    /// when `K + T` is a power of two, the standard integer points otherwise)
    /// and precomputes the encoding matrix.
    pub fn new(config: SchemeConfig) -> Self {
        Self::with_points(
            config,
            EvaluationPoints::<M>::auto(config.partitions, config.colluding, config.workers),
        )
    }

    /// Builds the encoder on explicitly chosen evaluation points (the decoder
    /// must be built on the same points).
    ///
    /// # Panics
    /// Panics if the point counts disagree with the configuration.
    pub fn with_points(config: SchemeConfig, points: EvaluationPoints<M>) -> Self {
        assert_eq!(
            points.beta().len(),
            config.partitions + config.colluding,
            "need one β-point per data block and pad"
        );
        assert_eq!(
            points.alpha().len(),
            config.workers,
            "need one α-point per worker"
        );
        let ntt = points.ntt_layout().map(|layout| EncoderNtt {
            interpolate: NttPlan::new(layout.log_blocks),
            evaluate: NttPlan::new(layout.log_workers),
        });
        LagrangeEncoder {
            config,
            points,
            encoding_matrix: std::sync::OnceLock::new(),
            ntt,
        }
    }

    /// Builds the `(K+T) × N` matrix `U_{j,i} = ℓ_j(α_i)`.
    fn build_encoding_matrix(&self) -> Vec<Vec<Fp<M>>> {
        let basis = LagrangeBasis::new(self.points.beta().to_vec());
        // Column i of the encoding matrix is the basis evaluated at α_i; one
        // `evaluate_at_many` call shares a single batch inversion across all
        // N columns.
        let mut matrix = vec![
            vec![Fp::<M>::ZERO; self.config.workers];
            self.config.partitions + self.config.colluding
        ];
        let columns = basis.evaluate_at_many(self.points.alpha());
        for (i, column) in columns.into_iter().enumerate() {
            for (j, value) in column.into_iter().enumerate() {
                matrix[j][i] = value;
            }
        }
        matrix
    }

    /// `true` iff this encoder evaluates through the `O(N log N)` NTT path
    /// rather than the `O((K+T)·N)` encoding matrix.
    pub fn uses_ntt(&self) -> bool {
        self.ntt.is_some()
    }

    /// The scheme configuration.
    pub fn config(&self) -> &SchemeConfig {
        &self.config
    }

    /// The evaluation points.
    pub fn points(&self) -> &EvaluationPoints<M> {
        &self.points
    }

    /// The `(K+T) × N` encoding matrix `U` with `U_{j,i} = ℓ_j(α_i)`
    /// (materialized on first access).
    pub fn encoding_matrix(&self) -> &[Vec<Fp<M>>] {
        self.encoding_matrix
            .get_or_init(|| self.build_encoding_matrix())
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
    /// front, one `rows × cols` draw per pad in pad order, whichever path
    /// encodes: the rng stream is part of every seeded oracle.
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

        let coded = match &self.ntt {
            Some(ntt) => self.encode_ntt(ntt, &sources, rows * cols),
            None => self.encode_dense(&sources, rows * cols),
        };
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

    /// The `O((K+T)·N)`-per-coordinate path for arbitrary points: share `i`
    /// is the linear combination `Σ_j U[j][i]·source_j`.
    fn encode_dense(&self, sources: &[&[Fp<M>]], width: usize) -> Vec<Vec<Fp<M>>> {
        let encoding_matrix = self.encoding_matrix();
        (0..self.config.workers)
            .map(|worker| {
                // Lazy reduction across all K+T blocks: the u128 lanes absorb
                // one product per block and reduce once per lane at the end
                // (see avcc_field::batch::WideAccumulator).
                let mut coded = avcc_field::WideAccumulator::<M>::new(width);
                for (row, source) in encoding_matrix.iter().zip(sources) {
                    let coefficient = row[worker];
                    if coefficient == Fp::<M>::ZERO {
                        continue;
                    }
                    coded.axpy(coefficient, source);
                }
                coded.finish()
            })
            .collect()
    }

    /// The `O(N log N)`-per-coordinate fast path for subgroup points.
    ///
    /// The `K + T` sources are the values of `u` on the β-subgroup, so one
    /// inverse NTT yields the coefficients of `u` (degree `< K + T`, exactly
    /// as in the matrix path — the recovery threshold is unchanged). Scaling
    /// coefficient `k` by `g^k` and zero-padding to the coset size turns the
    /// forward NTT into the evaluation `u(g·ω_A^i)` at every worker point at
    /// once.
    ///
    /// Every coordinate goes through the same two transforms independently of
    /// the others, so the sweep takes them [`ENCODE_CHUNK`] at a time: gather
    /// the chunk of each source into a lane, run the inverse network with its
    /// folded `n⁻¹·gᵏ` scale, the forward network, and append lanes `0..N`
    /// to the shares — all on a working set that stays in cache. The lanes
    /// are allocated once and reused; the shares are the only full-size
    /// buffers.
    fn encode_ntt(
        &self,
        ntt: &EncoderNtt<M>,
        sources: &[&[Fp<M>]],
        width: usize,
    ) -> Vec<Vec<Fp<M>>> {
        let shift = self
            .points
            .ntt_layout()
            .expect("NTT plans imply a subgroup layout")
            .shift;
        let blocks = ntt.interpolate.len();
        debug_assert_eq!(sources.len(), blocks);
        let mut shares: Vec<Vec<Fp<M>>> = (0..self.config.workers)
            .map(|_| Vec::with_capacity(width))
            .collect();
        let mut lanes: Vec<Vec<Fp<M>>> = (0..ntt.evaluate.len())
            .map(|_| Vec::with_capacity(ENCODE_CHUNK.min(width)))
            .collect();
        for start in (0..width).step_by(ENCODE_CHUNK) {
            let end = (start + ENCODE_CHUNK).min(width);
            // Both networks permute the lanes (by swapping the vectors, not
            // their contents), so which buffer is lane `j` changes from
            // chunk to chunk; every lane is rewritten in full here.
            let (values, padding) = lanes.split_at_mut(blocks);
            for (lane, source) in values.iter_mut().zip(sources) {
                lane.clear();
                lane.extend_from_slice(&source[start..end]);
            }
            for lane in padding.iter_mut() {
                lane.clear();
                lane.resize(end - start, Fp::<M>::ZERO);
            }
            ntt.interpolate.inverse_vectors_onto_coset(values, shift);
            ntt.evaluate.forward_vectors(&mut lanes);
            for (share, lane) in shares.iter_mut().zip(&lanes) {
                share.extend_from_slice(lane);
            }
        }
        shares
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
        self.encoding_matrix()[self.config.partitions..].to_vec()
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

    mod ntt_path {
        use super::*;
        use crate::points::EvaluationPoints;
        use avcc_field::{F64, P64};
        use rand::RngCore;

        fn f64_blocks(k: usize, rows: usize, cols: usize, seed: u64) -> Vec<Matrix<F64>> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..k)
                .map(|_| {
                    Matrix::from_vec(rows, cols, avcc_field::random_matrix(&mut rng, rows, cols))
                })
                .collect()
        }

        #[test]
        fn path_selection_follows_the_geometry() {
            // Power-of-two K on the Goldilocks field: NTT.
            let config = SchemeConfig::linear(12, 8, 2, 1).unwrap();
            assert!(LagrangeEncoder::<P64>::new(config).uses_ntt());
            // Non-power-of-two K: matrix fallback.
            let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
            assert!(!LagrangeEncoder::<P64>::new(config).uses_ntt());
            // Power-of-two K on a field without declared NTT metadata: matrix.
            let config = SchemeConfig::linear(12, 8, 2, 1).unwrap();
            assert!(!LagrangeEncoder::<P25>::new(config).uses_ntt());
        }

        #[test]
        fn ntt_shares_match_the_encoding_matrix() {
            // The two paths must agree share-for-share: the constructor still
            // precomputes the (K+T)×N matrix, so recompute every share as the
            // explicit linear combination Σ_j U[j][i]·X_j and compare.
            let config = SchemeConfig::linear(12, 8, 2, 1).unwrap();
            let encoder = LagrangeEncoder::<P64>::new(config);
            assert!(encoder.uses_ntt());
            let blocks = f64_blocks(8, 3, 4, 11);
            let shares = encoder.encode_deterministic(&blocks);
            assert_eq!(shares.len(), 12);
            for share in &shares {
                let mut expected = [F64::ZERO; 12];
                for (j, block) in blocks.iter().enumerate() {
                    let coefficient = encoder.encoding_matrix()[j][share.worker];
                    for (slot, &value) in expected.iter_mut().zip(block.data()) {
                        *slot += coefficient * value;
                    }
                }
                assert_eq!(share.block.data(), &expected[..], "worker {}", share.worker);
            }
        }

        #[test]
        fn ntt_shares_match_the_encoding_matrix_across_chunk_boundaries() {
            // The sweep carries ENCODE_CHUNK coordinates at a time: blocks
            // narrower than a chunk, exactly one, one element over, and two
            // chunks and a ragged tail — on 11, 12 and all 16 points of the
            // coset, without and with pads — must all equal the dense oracle
            // Σ_j U[j][i]·X_j. The pads are recovered by replaying the rng:
            // whole, up front, in pad order.
            let widths = [
                1,
                ENCODE_CHUNK - 1,
                ENCODE_CHUNK,
                ENCODE_CHUNK + 1,
                2 * ENCODE_CHUNK + 7,
            ];
            for (workers, colluding) in [(11, 0), (12, 0), (16, 0), (11, 2), (12, 2), (16, 2)] {
                let partitions = 8 - colluding;
                let config = SchemeConfig::new(workers, partitions, 1, 1, colluding, 1).unwrap();
                let encoder = LagrangeEncoder::<P64>::new(config);
                assert!(encoder.uses_ntt());
                for width in widths {
                    let blocks = f64_blocks(partitions, 1, width, 21);
                    let mut rng = StdRng::seed_from_u64(width as u64);
                    let mut replay = rng.clone();
                    let shares = encoder.encode(&blocks, &mut rng);
                    let pads: Vec<Vec<F64>> = (0..colluding)
                        .map(|_| avcc_field::random_matrix(&mut replay, 1, width))
                        .collect();
                    assert_eq!(
                        rng.next_u64(),
                        replay.next_u64(),
                        "encode drew exactly the pads"
                    );
                    assert_eq!(shares.len(), workers);
                    let sources: Vec<&[F64]> = blocks
                        .iter()
                        .map(Matrix::data)
                        .chain(pads.iter().map(Vec::as_slice))
                        .collect();
                    for share in &shares {
                        let mut expected = vec![F64::ZERO; width];
                        for (row, source) in encoder.encoding_matrix().iter().zip(&sources) {
                            let coefficient = row[share.worker];
                            for (slot, &value) in expected.iter_mut().zip(source.iter()) {
                                *slot += coefficient * value;
                            }
                        }
                        assert_eq!(
                            share.block.data(),
                            &expected[..],
                            "N = {workers}, T = {colluding}, width {width}, worker {}",
                            share.worker
                        );
                    }
                }
            }
        }

        #[test]
        fn ntt_shares_are_polynomial_evaluations_at_alpha() {
            // Interpolating any K shares back to a β-point recovers the block,
            // exactly as in the matrix path — degree < K is preserved.
            let config = SchemeConfig::linear(11, 8, 2, 1).unwrap();
            let encoder = LagrangeEncoder::<P64>::new(config);
            assert!(encoder.uses_ntt());
            let blocks = f64_blocks(8, 2, 3, 12);
            let shares = encoder.encode_deterministic(&blocks);
            let subset: Vec<_> = shares[3..11].to_vec();
            let alphas: Vec<F64> = subset.iter().map(|s| s.alpha).collect();
            for (k, block) in blocks.iter().enumerate() {
                let beta = encoder.points().beta()[k];
                for coordinate in 0..block.len() {
                    let values: Vec<F64> =
                        subset.iter().map(|s| s.block.data()[coordinate]).collect();
                    let recovered = interpolate_eval(&alphas, &values, beta);
                    assert_eq!(recovered, block.data()[coordinate]);
                }
            }
        }

        #[test]
        fn private_ntt_encoding_stays_ntt_and_disjoint() {
            // T = 2 pads with K + T = 8: still subgroup position, and privacy
            // demands disjoint points.
            let config = SchemeConfig::new(12, 6, 1, 1, 2, 1).unwrap();
            let encoder = LagrangeEncoder::<P64>::new(config);
            assert!(encoder.uses_ntt());
            assert!(encoder.points().disjoint());
            let blocks = f64_blocks(6, 2, 2, 13);
            let mut rng = StdRng::seed_from_u64(5);
            let shares = encoder.encode(&blocks, &mut rng);
            for share in &shares {
                for block in &blocks {
                    assert_ne!(&share.block, block);
                }
            }
        }

        #[test]
        fn explicit_standard_points_force_the_matrix_path_on_f64() {
            let config = SchemeConfig::linear(12, 8, 2, 1).unwrap();
            let points = EvaluationPoints::<P64>::standard(8, 0, 12);
            let encoder = LagrangeEncoder::<P64>::with_points(config, points);
            assert!(!encoder.uses_ntt());
            // Systematic: the standard layout's defining property survives.
            let blocks = f64_blocks(8, 2, 2, 14);
            let shares = encoder.encode_deterministic(&blocks);
            for (i, block) in blocks.iter().enumerate() {
                assert_eq!(&shares[i].block, block);
            }
        }
    }
}
