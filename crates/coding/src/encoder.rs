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
//! linear combination of the `K+T` sources — `O((K+T)·N)` lazy multiply-adds
//! per coordinate. At `T = 0` those points are systematic: the first `K`
//! columns of the encoding matrix are unit vectors, so the first `K` shares
//! are copies of the data blocks and only the `N − K` parity shares are
//! computed, `(N − K)·K` multiply-adds per coordinate. When the points are
//! in subgroup position ([`EvaluationPoints::subgroup`]) the encoder instead
//! interpolates `u` with one inverse NTT over the β-subgroup (size `K+T`) and
//! evaluates it at all worker points with one forward NTT over the α-coset
//! (size `next_pow2(N)`) — `O(N log N)` per coordinate. The path follows the
//! points, and [`EvaluationPoints::auto`] picks the points whose encode costs
//! fewer multiplies: on NTT-friendly fields the subgroup layout whenever
//! `T > 0` or its transforms undercut the systematic parity work (so the
//! Goldilocks `(N, K) = (12, 8)` code is systematic, `(16, 8)` is not). Both
//! paths produce the evaluations of the same degree-`< K+T` polynomial at
//! the points they were given.
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
//! one folded `n⁻¹·gᵏ` scale pass → forward butterflies → copy into the
//! shares while it is resident in cache, instead of streaming every
//! whole-block lane through main memory once per butterfly stage.
//!
//! # One span of coordinates per core
//!
//! Lagrange coding evaluates one polynomial **per coordinate, independently
//! of every other coordinate** (Yu et al., *Lagrange Coded Computing*), so
//! either path can run on as many threads as there are cores without
//! changing a single output element. The `N` shares are allocated once, whole
//! and zeroed; the coordinates are cut into one contiguous run of whole
//! chunks per available core; each run gets the matching disjoint `&mut`
//! window of every share and, on the NTT path, its own lane buffers; the
//! first run is swept on the calling thread and the others on scoped threads
//! ([`avcc_field::map_spans`]). The same sweep body runs whether there is one
//! run or several, and below `avcc_field::spans::SPAWN_MIN_WORK`
//! multiplications (every small job) there is exactly one, inline. The pads
//! are drawn before any of this, on the caller's thread, so the rng stream
//! does not know how many cores the host has. Measured on
//! `EncodedDataset::encode`, 1920 × 512 Goldilocks, `(N, K) = (12, 8)` on
//! subgroup points, two cores: 11.7–16.2 ms on one thread, 6.7–7.1 ms on two.

use avcc_field::{map_spans, random_matrix, span_threads, Fp, PrimeModulus};
use avcc_linalg::Matrix;
use avcc_poly::{LagrangeBasis, NttPlan};
use rand::Rng;

use crate::points::EvaluationPoints;
use crate::scheme::SchemeConfig;

/// Coordinates carried through both transforms of the NTT encode path at a
/// time, and through one parity share's accumulator on the dense path. The
/// working set of an NTT sweep is `next_pow2(N)` lanes of this many 8-byte
/// elements — 512 KiB at `N ≤ 16` — and has to sit inside a core's L2 for
/// the seven butterfly stages and the scale pass to run out of cache.
/// Measured on `EncodedDataset::encode`, 1920 × 512 Goldilocks,
/// `(N, K) = (12, 8)` on subgroup points, 4 MiB L2: flat at 11.6–12.1 ms
/// from 256 to 4096, 12.5 ms at 8192, 14.5 ms at 16 384 and 20–21 ms
/// unblocked — so the largest size of the flat range, which keeps the
/// per-sweep overhead (a lane permutation and one short loop per butterfly)
/// smallest. A constant, not a knob: no caller has a reason to pick another
/// value.
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
/// One sweep body per point layout: the dense linear combination for
/// arbitrary points (with a copy for every unit column of the encoding
/// matrix), the cache-blocked NTT sweep for points in subgroup position (see
/// the module docs). Either way the encoder reads its blocks where they are,
/// draws the `T` pads whole and up front, allocates nothing full-size but
/// the pads and the `N` shares it returns, and sweeps the coordinates in one
/// span per available core when there is enough work to pay for a thread —
/// with shares that are the same element for element however many spans
/// there were.
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
    /// when `K + T` is a power of two and the transforms are the cheaper
    /// encode, the standard integer points — systematic at `T = 0` —
    /// otherwise).
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
        map_spans(spans, threads, |(start, windows)| match &self.ntt {
            Some(ntt) => self.sweep_ntt(ntt, &sources, start, windows),
            None => self.sweep_dense(&sources, start, windows),
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

    /// Field multiplications one coordinate costs on this encoder's path —
    /// what [`span_threads`] weighs against the cost of a thread: the two
    /// butterfly networks and the scale pass, or the non-zero entries of the
    /// encoding matrix (a systematic code's first `K` columns have one each).
    fn multiplies_per_coordinate(&self) -> usize {
        match self.points.ntt_layout() {
            Some(layout) => layout.multiplies_per_coordinate(),
            None => self
                .encoding_matrix()
                .iter()
                .flatten()
                .filter(|&&coefficient| coefficient != Fp::<M>::ZERO)
                .count(),
        }
    }

    /// The `O((K+T)·N)`-per-coordinate path for arbitrary points, over the
    /// coordinates `start..start + len` that `windows` (one per share) cover:
    /// share `i` is the linear combination `Σ_j U[j][i]·source_j`.
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
    fn sweep_dense(&self, sources: &[&[Fp<M>]], start: usize, windows: Vec<&mut [Fp<M>]>) {
        let encoding_matrix = self.encoding_matrix();
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

    /// The `O(N log N)`-per-coordinate fast path for subgroup points, over
    /// the coordinates `start..start + len` that `windows` (one per share)
    /// cover.
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
    /// folded `n⁻¹·gᵏ` scale, the forward network, and copy lanes `0..N`
    /// into the shares' windows — all on a working set that stays in cache.
    /// The lanes are allocated once per sweep and reused.
    fn sweep_ntt(
        &self,
        ntt: &EncoderNtt<M>,
        sources: &[&[Fp<M>]],
        start: usize,
        mut windows: Vec<&mut [Fp<M>]>,
    ) {
        let shift = self
            .points
            .ntt_layout()
            .expect("NTT plans imply a subgroup layout")
            .shift;
        let blocks = ntt.interpolate.len();
        debug_assert_eq!(sources.len(), blocks);
        let len = windows.first().map_or(0, |window| window.len());
        let mut lanes: Vec<Vec<Fp<M>>> = (0..ntt.evaluate.len())
            .map(|_| Vec::with_capacity(ENCODE_CHUNK.min(len)))
            .collect();
        for at in (0..len).step_by(ENCODE_CHUNK) {
            let end = (at + ENCODE_CHUNK).min(len);
            // Both networks permute the lanes (by swapping the vectors, not
            // their contents), so which buffer is lane `j` changes from
            // chunk to chunk; every lane is rewritten in full here.
            let (values, padding) = lanes.split_at_mut(blocks);
            for (lane, source) in values.iter_mut().zip(sources) {
                lane.clear();
                lane.extend_from_slice(&source[start + at..start + end]);
            }
            for lane in padding.iter_mut() {
                lane.clear();
                lane.resize(end - at, Fp::<M>::ZERO);
            }
            ntt.interpolate.inverse_vectors_onto_coset(values, shift);
            ntt.evaluate.forward_vectors(&mut lanes);
            for (window, lane) in windows.iter_mut().zip(&lanes) {
                window[at..end].copy_from_slice(lane);
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

    /// An encoder for `config` on explicit subgroup points, the NTT path
    /// whatever [`EvaluationPoints::auto`] would pick for the geometry.
    fn subgroup_encoder(config: SchemeConfig) -> LagrangeEncoder<avcc_field::P64> {
        let points =
            EvaluationPoints::subgroup(config.partitions, config.colluding, config.workers)
                .expect("a power-of-two K + T fits the Goldilocks field");
        LagrangeEncoder::with_points(config, points)
    }

    #[test]
    fn shares_do_not_depend_on_how_many_threads_swept_them() {
        // Widths below one chunk, either side of one, two chunks and a ragged
        // tail (all inline on the NTT path), and thirty chunks — past
        // `SPAWN_MIN_WORK` on every configuration here, so on a host with a
        // second core the spans run side by side; on one core (CI pins this
        // test to one with `taskset`) the same body runs inline. Three NTT
        // geometries on explicit subgroup points; the systematic `(12, 8)`
        // Goldilocks code `auto` picks, whose copies and chunked parity
        // shares meet at every chunk edge; and `K + T = 10`, which is no
        // subgroup order and so takes the dense path, with pads drawn.
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
            let encoder = subgroup_encoder(config);
            assert!(encoder.uses_ntt());
            for width in widths {
                check_against_the_encoding_matrix(&encoder, width);
            }
        }
        let config = SchemeConfig::new(12, 8, 1, 1, 0, 1).unwrap();
        let systematic = LagrangeEncoder::<P64>::new(config);
        assert!(!systematic.uses_ntt() && systematic.points().is_systematic(8));
        for width in [
            ENCODE_CHUNK - 1,
            ENCODE_CHUNK + 1,
            2 * ENCODE_CHUNK + 7,
            30 * ENCODE_CHUNK,
        ] {
            check_against_the_encoding_matrix(&systematic, width);
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
        assert!(!dense_p64.uses_ntt() && !dense_p25.uses_ntt());
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

    mod ntt_path {
        use super::*;
        use crate::points::EvaluationPoints;
        use avcc_field::{F64, P64};

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
            // Power-of-two K + T on the Goldilocks field, transforms cheaper
            // than the systematic parity shares (64 > 52 multiplies per
            // coordinate at (16, 8)), or pads drawn: NTT.
            let config = SchemeConfig::linear(16, 8, 2, 1).unwrap();
            assert!(LagrangeEncoder::<P64>::new(config).uses_ntt());
            let config = SchemeConfig::new(12, 7, 1, 1, 1, 1).unwrap();
            assert!(LagrangeEncoder::<P64>::new(config).uses_ntt());
            // (12, 8) at T = 0: 32 parity multiply-adds against 52 — the
            // systematic matrix path, unless subgroup points are asked for.
            let config = SchemeConfig::linear(12, 8, 2, 1).unwrap();
            assert!(!LagrangeEncoder::<P64>::new(config).uses_ntt());
            assert!(subgroup_encoder(config).uses_ntt());
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
            let encoder = subgroup_encoder(config);
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
            // Σ_j U[j][i]·X_j.
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
                let encoder = subgroup_encoder(config);
                assert!(encoder.uses_ntt());
                for width in widths {
                    check_against_the_encoding_matrix(&encoder, width);
                }
            }
        }

        #[test]
        fn ntt_shares_are_polynomial_evaluations_at_alpha() {
            // Interpolating any K shares back to a β-point recovers the block,
            // exactly as in the matrix path — degree < K is preserved.
            let config = SchemeConfig::linear(11, 8, 2, 1).unwrap();
            let encoder = subgroup_encoder(config);
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
