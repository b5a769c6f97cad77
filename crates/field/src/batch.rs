//! Slice-level field kernels: element-wise arithmetic, lazy-reduction dot
//! products and accumulators, and Montgomery batch inversion.
//!
//! These are the inner loops of the encoder (`X̃ = Σ X_j ℓ_j(α)`), the worker
//! compute kernels (`X̃ w`, `X̃ᵀ e`) and the Freivalds verifier (`r · z̃`).
//! They exploit *lazy reduction*: products of canonical representatives are
//! accumulated unreduced in `u128` lanes and pass through the modulus's
//! specialized [`PrimeModulus::reduce_wide`] backend as rarely as the modulus
//! allows. How rarely is decided per modulus, at compile time, by its
//! [`PrimeModulus::WIDE_BATCH`] — the number of products a `u128` absorbs
//! before it could overflow (see [`assert_wide_batch`]):
//!
//! * **Huge batch** (the paper's 25-bit field: ≈ 2^78 products). The sum
//!   cannot overflow for any realistic vector, so a dot product is one plain
//!   `u128` accumulator and exactly one reduction.
//! * **Tight batch** (`F_{2^61-1}`: 63 products; Goldilocks: **one**). The sum
//!   *does* overflow — for Goldilocks at almost every addition — so instead
//!   of collapsing the accumulator every `WIDE_BATCH` products the kernels
//!   let it wrap and **count the carries** ([`CarryAccumulator`]): one
//!   `overflowing_add` and one carry increment per product, and a single
//!   reduction per accumulator at the very end, as
//!   `reduce_wide(sum) + carries · (2^128 mod q)`. Which moduli take this
//!   path is [`counts_carries`].
//!
//! On top of that the tight-batch [`dot`] stripes over [`DOT_LANES`]
//! independent accumulators so consecutive multiply-adds never serialize on
//! one add-with-carry chain. The striping is pure instruction-level
//! parallelism in safe, portable code — no `unsafe`, no target-feature gates.
//! [`WideAccumulator`], whose lanes are whole vectors and already independent,
//! makes the same choice per lane: a wrapped sum and a carry count for the
//! tight-batch moduli, a plain `u128` for the others.

use crate::fp::{Fp, PrimeField, PrimeModulus};

/// Compile-time guard that lazy accumulation is sound for a modulus: at least
/// one product must fit per reduction. Every kernel in this module evaluates
/// it in an inline-`const` block, so an unsound modulus fails to *compile*
/// rather than overflow at run time.
pub const fn assert_wide_batch<M: PrimeModulus>() {
    assert!(
        M::WIDE_BATCH >= 1,
        "modulus too large for lazy reduction: one (q-1)^2 product must fit in u128"
    );
}

/// Number of independent accumulator lanes the tight-batch [`dot`] stripes
/// over. A single running accumulator serializes on its own add-with-carry
/// chain; four independent lanes let the multiplies and adds overlap and the
/// compiler keep all four in registers. The lanes are folded with field
/// additions only at the end, so the result is bit-identical to the
/// single-lane kernel.
pub const DOT_LANES: usize = 4;

/// Batch size above which the kernels keep one plain `u128` accumulator per
/// output instead of counting carries over striped lanes. When a single
/// accumulator can absorb any realistic vector without overflowing (the
/// 25-bit field's batch is ≈ 2^78), the loop is a plain multiply-add
/// reduction that the optimizer already reassociates across iterations, and
/// a carry count or manual striping only adds bookkeeping — measured, see the
/// `dot_lanes/<field>` benches.
pub const LANE_STRIPE_MAX_BATCH: usize = 1 << 16;

/// `true` for the moduli whose dot-product kernels ([`dot`], and
/// `avcc_linalg::mat_vec` on top of it) accumulate through a
/// [`CarryAccumulator`] rather than a plain `u128`: those whose
/// [`PrimeModulus::WIDE_BATCH`] is at most [`LANE_STRIPE_MAX_BATCH`]. A
/// `const fn` of the modulus, so the unselected kernel folds away.
pub const fn counts_carries<M: PrimeModulus>() -> bool {
    M::WIDE_BATCH <= LANE_STRIPE_MAX_BATCH
}

/// A running sum of unreduced products that is allowed to overflow: a `u128`
/// that wraps, plus the number of times it did.
///
/// The true sum is `sum + carries · 2^128`, and `2^128 mod q` is the
/// Montgomery constant [`PrimeModulus::MONT_R2`] every modulus already
/// carries, so [`CarryAccumulator::finish`] reduces the whole thing once —
/// however many products went in. Per product the cost is one widening
/// multiply, one 128-bit add and one carry increment; no comparison, no
/// branch, no reduction. For Goldilocks, whose every product is within a
/// factor of two of `2^128`, this replaces a `reduce_wide` per product
/// (`matmul_batch`: worker kernel 1.6–1.8 → 0.6–0.7 ns per multiply-add).
#[derive(Debug, Clone, Copy, Default)]
pub struct CarryAccumulator {
    sum: u128,
    /// Times `sum` wrapped. A `u64` cannot itself overflow: it would take
    /// 2^64 products.
    carries: u64,
}

impl CarryAccumulator {
    /// Adds the unreduced product `a · b`.
    #[inline(always)]
    pub fn add_product<M: PrimeModulus>(&mut self, a: Fp<M>, b: Fp<M>) {
        let (sum, carried) = self
            .sum
            .overflowing_add(a.value() as u128 * b.value() as u128);
        self.sum = sum;
        self.carries += carried as u64;
    }

    /// The accumulated sum as a field element:
    /// `reduce_wide(sum) + carries · (2^128 mod q)`.
    #[inline]
    pub fn finish<M: PrimeModulus>(self) -> Fp<M> {
        let wrapped = M::reduce_wide(self.carries as u128 * M::MONT_R2 as u128);
        Fp::from_canonical(M::reduce_wide(self.sum)) + Fp::from_canonical(wrapped)
    }
}

/// Element-wise sum of two equal-length slices into a new vector.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn slice_add<M: PrimeModulus>(a: &[Fp<M>], b: &[Fp<M>]) -> Vec<Fp<M>> {
    assert_eq!(a.len(), b.len(), "slice_add length mismatch");
    a.iter().zip(b.iter()).map(|(&x, &y)| x + y).collect()
}

/// Element-wise difference `a − b` of two equal-length slices.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn slice_sub<M: PrimeModulus>(a: &[Fp<M>], b: &[Fp<M>]) -> Vec<Fp<M>> {
    assert_eq!(a.len(), b.len(), "slice_sub length mismatch");
    a.iter().zip(b.iter()).map(|(&x, &y)| x - y).collect()
}

/// Scales every element of `a` by the scalar `c` into a new vector.
pub fn slice_scale<M: PrimeModulus>(a: &[Fp<M>], c: Fp<M>) -> Vec<Fp<M>> {
    let scale = c.value() as u128;
    a.iter()
        .map(|&x| Fp::from_canonical(M::reduce_wide(scale * x.value() as u128)))
        .collect()
}

/// In-place fused multiply-add `acc[i] += c * b[i]`.
///
/// One reduction per element (of `c·b[i] + acc[i]`, which never overflows a
/// `u128`). When several axpys accumulate into the same output — the Lagrange
/// encoder/decoder case — prefer [`WideAccumulator`], which defers reduction
/// across *all* of them.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn slice_axpy<M: PrimeModulus>(acc: &mut [Fp<M>], c: Fp<M>, b: &[Fp<M>]) {
    assert_eq!(acc.len(), b.len(), "slice_axpy length mismatch");
    const { assert_wide_batch::<M>() }
    let scale = c.value() as u128;
    for (x, &y) in acc.iter_mut().zip(b.iter()) {
        *x = Fp::from_canonical(M::reduce_wide(
            scale * y.value() as u128 + x.value() as u128,
        ));
    }
}

/// Inner product `Σ a[i]·b[i]` with lazy reduction: exactly one reduction
/// per accumulator, whatever the length.
///
/// Which accumulator is a `const` branch on the modulus that folds away
/// ([`counts_carries`]). Huge-batch moduli keep one plain `u128` running sum.
/// Tight-batch moduli stripe the unreduced products across [`DOT_LANES`]
/// [`CarryAccumulator`]s (`lane[j]` absorbs elements `j, j+4, j+8, …`): the
/// inner loop is four independent multiply-add-with-carry steps, with no
/// division, no comparison, no branch and no dependency chain between
/// consecutive products, and the four lane totals are folded with field
/// additions at the end.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot<M: PrimeModulus>(a: &[Fp<M>], b: &[Fp<M>]) -> Fp<M> {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    const { assert_wide_batch::<M>() }
    if const { !counts_carries::<M>() } {
        // Huge-batch moduli: one accumulator, (almost) no collapses — the
        // optimizer already runs this reduction wide.
        let mut accumulator: u128 = 0;
        for (chunk_a, chunk_b) in a.chunks(M::WIDE_BATCH).zip(b.chunks(M::WIDE_BATCH)) {
            for (&x, &y) in chunk_a.iter().zip(chunk_b.iter()) {
                accumulator += x.value() as u128 * y.value() as u128;
            }
            accumulator = M::reduce_wide(accumulator) as u128;
        }
        return Fp::from_canonical(M::reduce_wide(accumulator));
    }
    // One carry count per lane: a count shared by the lanes would chain every
    // product of the loop through one register (measured 2.3× slower).
    let mut lanes = [CarryAccumulator::default(); DOT_LANES];
    let mut groups_a = a.chunks_exact(DOT_LANES);
    let mut groups_b = b.chunks_exact(DOT_LANES);
    for (ga, gb) in groups_a.by_ref().zip(groups_b.by_ref()) {
        lanes[0].add_product(ga[0], gb[0]);
        lanes[1].add_product(ga[1], gb[1]);
        lanes[2].add_product(ga[2], gb[2]);
        lanes[3].add_product(ga[3], gb[3]);
    }
    for ((lane, &x), &y) in lanes
        .iter_mut()
        .zip(groups_a.remainder())
        .zip(groups_b.remainder())
    {
        lane.add_product(x, y);
    }
    lanes
        .into_iter()
        .fold(Fp::<M>::ZERO, |acc, lane| acc + lane.finish())
}

/// A vector of `u128` lanes accumulating unreduced products — the shared
/// engine of the dense Lagrange encode (`Σ_j ℓ_j(α)·X_j`), the erasure
/// decoder, the screen and the transpose–vector kernel behind Freivalds key
/// generation (`s = rᵀ·X̃`).
///
/// Each `axpy` adds one product per lane and nothing is reduced until
/// [`finish`](Self::finish), however many products went in. How a lane
/// survives that is the same `const` choice [`dot`] makes
/// ([`counts_carries`]):
///
/// * **Tight-batch moduli** (Goldilocks, `2^61 − 1`) let the lane wrap and
///   count the carries beside it, exactly as a [`CarryAccumulator`] does —
///   one `overflowing_add` and one carry increment per product, one reduction
///   per lane at the end. Collapsing every [`PrimeModulus::WIDE_BATCH`]
///   products instead would be a `reduce_wide` per product for Goldilocks
///   (the twelve 240 × 512 Freivalds keys of a `matmul_batch` job, one
///   thread: 2.1–2.5 ms that way, 1.05–1.23 ms this way).
/// * **Huge-batch moduli** (the 25-bit field: ≈ 2^78 products fit) keep a
///   plain `u128` per lane; the lanes are collapsed with one reduction each
///   should `WIDE_BATCH` products ever accumulate.
///
/// Compared to repeated [`slice_axpy`] this performs one reduction per lane
/// in total instead of one per product.
#[derive(Debug, Clone)]
pub struct WideAccumulator<M: PrimeModulus> {
    lanes: Vec<u128>,
    /// Tight-batch moduli: times each lane wrapped. Empty for the others.
    carries: Vec<u64>,
    /// Huge-batch moduli: products accumulated since the last collapse.
    pending: usize,
    _modulus: core::marker::PhantomData<M>,
}

impl<M: PrimeModulus> WideAccumulator<M> {
    /// Creates a zeroed accumulator with `len` lanes.
    pub fn new(len: usize) -> Self {
        const { assert_wide_batch::<M>() }
        let carries = if const { counts_carries::<M>() } {
            vec![0u64; len]
        } else {
            Vec::new()
        };
        WideAccumulator {
            lanes: vec![0u128; len],
            carries,
            pending: 0,
            _modulus: core::marker::PhantomData,
        }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// `true` iff the accumulator has no lanes.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Fused multiply-add `lane[i] += c · b[i]`, reducing lazily:
    /// [`axpy_rows`](Self::axpy_rows) with one row.
    ///
    /// # Panics
    /// Panics if `b.len()` differs from the number of lanes.
    pub fn axpy(&mut self, c: Fp<M>, b: &[Fp<M>]) {
        self.axpy_rows([c], [b]);
    }

    /// `lane[i] += Σ_t c[t] · b[t][i]`: `R` fused multiply-adds per lane,
    /// reducing lazily.
    ///
    /// Where carries are counted, a lane is a `u128` and a count — two loads
    /// and three stores around every product if the rows come one at a time,
    /// which is what a one-row pass is bound by. Here the lane and its count
    /// are loaded once, absorb all `R` products in registers and are stored
    /// once. The lanes are independent of each other, so consecutive steps
    /// never wait on one add-with-carry chain. (`avcc_linalg::matt_vec`
    /// documents the measured choice of `R`.)
    ///
    /// # Panics
    /// Panics if a row's length differs from the number of lanes.
    pub fn axpy_rows<const R: usize>(&mut self, c: [Fp<M>; R], b: [&[Fp<M>]; R]) {
        let len = self.lanes.len();
        for row in b {
            assert_eq!(len, row.len(), "axpy length mismatch");
        }
        // Every slice re-cut to the one length the loops run to, so their
        // indexing needs no bounds checks.
        let b = b.map(|row| &row[..len]);
        let lanes = self.lanes.as_mut_slice();
        if const { counts_carries::<M>() } {
            let carries = &mut self.carries[..len];
            for i in 0..len {
                let mut wrapped = CarryAccumulator {
                    sum: lanes[i],
                    carries: carries[i],
                };
                for t in 0..R {
                    wrapped.add_product(c[t], b[t][i]);
                }
                (lanes[i], carries[i]) = (wrapped.sum, wrapped.carries);
            }
            return;
        }
        // A plain lane has nothing beside it to keep in registers across
        // rows: one row per sweep, each a multiply-add loop the optimizer
        // already runs wide.
        for (c, row) in c.into_iter().zip(b) {
            if self.pending == M::WIDE_BATCH {
                for lane in lanes.iter_mut() {
                    *lane = M::reduce_wide(*lane) as u128;
                }
                self.pending = 0;
            }
            let scale = c.value() as u128;
            for (lane, &y) in lanes.iter_mut().zip(row) {
                *lane += scale * y.value() as u128;
            }
            self.pending += 1;
        }
    }

    /// The lanes as field elements: each reduced once, with its carries
    /// folded in where the modulus counts them.
    fn reduced(&self) -> impl Iterator<Item = Fp<M>> + '_ {
        let mut carries = self.carries.iter();
        self.lanes.iter().map(move |&sum| {
            if const { counts_carries::<M>() } {
                let carries = *carries.next().expect("one carry count per lane");
                CarryAccumulator { sum, carries }.finish::<M>()
            } else {
                Fp::from_canonical(M::reduce_wide(sum))
            }
        })
    }

    /// Reduces and returns the accumulated vector.
    pub fn finish(self) -> Vec<Fp<M>> {
        self.reduced().collect()
    }

    /// Reduces the accumulated values into an existing slice (the dense
    /// encode writes each share's window in place).
    ///
    /// # Panics
    /// Panics if `out.len()` differs from the number of lanes.
    pub fn finish_into(self, out: &mut [Fp<M>]) {
        assert_eq!(self.lanes.len(), out.len(), "finish_into length mismatch");
        for (slot, value) in out.iter_mut().zip(self.reduced()) {
            *slot = value;
        }
    }
}

/// Montgomery batch inversion: inverts every element of `values` using a
/// single field inversion plus `3(n−1)` multiplications.
///
/// Free-function form of [`PrimeField::batch_inverse`], kept for callers that
/// work with a concrete [`PrimeModulus`].
///
/// # Panics
/// Panics if any element is zero.
pub fn batch_inverse<M: PrimeModulus>(values: &[Fp<M>]) -> Vec<Fp<M>> {
    <Fp<M> as PrimeField>::batch_inverse(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::{P25, P251, P61};
    use proptest::prelude::*;

    type F = Fp<P25>;

    fn fv(values: &[u64]) -> Vec<F> {
        values.iter().map(|&v| F::from_u64(v)).collect()
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn wide_batch_constants_are_sane() {
        // P25 products are ~2^50: the whole u128 is effectively one batch.
        assert!(P25::WIDE_BATCH > 1 << 40);
        // P61 products are ~2^122: roughly 63 fit.
        assert!((32..256).contains(&P61::WIDE_BATCH), "{}", P61::WIDE_BATCH);
        assert!(P251::WIDE_BATCH > 1 << 40);
        // The 64-bit Goldilocks modulus degenerates to one product per
        // reduction — the minimum the compile-time guard admits.
        assert_eq!(crate::fp::P64::WIDE_BATCH, 1);
    }

    #[test]
    fn goldilocks_kernels_survive_batch_of_one() {
        // WIDE_BATCH = 1: a u128 holds one product, so every accumulation
        // after the first wraps; the lazy kernels must still match the
        // element-wise reference at the extremes.
        type H = Fp<crate::fp::P64>;
        const Q: u64 = crate::fp::P64::MODULUS;
        let a: Vec<H> = (0..100u64).map(|i| H::from_u64(Q - 1 - i)).collect();
        let b: Vec<H> = (0..100u64).map(|i| H::from_u64(Q - 7 - i)).collect();
        let reference: H = a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
        assert_eq!(dot(&a, &b), reference);
        let near = H::from_u64(Q - 1);
        let mut accumulator = WideAccumulator::<crate::fp::P64>::new(4);
        let lane = vec![near; 4];
        for _ in 0..10 {
            accumulator.axpy(near, &lane);
        }
        // (q−1)^2 ≡ 1, so ten accumulations of it sum to 10.
        assert_eq!(accumulator.finish(), vec![H::from_u64(10); 4]);
    }

    #[test]
    fn carry_counting_dot_is_exact_when_every_addition_overflows() {
        // (q−1)² ≈ 2^128 − 2^97 for Goldilocks: in each lane every addition
        // after the first wraps the u128. The lengths cover a lone lane, a
        // partial group, exactly one group, a group plus a remainder, the
        // e2e block width and a long odd vector. (q−1)² ≡ 1, so the sum is
        // the length. P61 takes the same kernel and wraps every ~64 products.
        fn check<M: PrimeModulus>() {
            assert!(counts_carries::<M>());
            let near = Fp::<M>::from_u64(M::MODULUS - 1);
            for len in [1usize, 3, 4, 5, 512, 4099] {
                let a = vec![near; len];
                let reference: Fp<M> = a.iter().map(|&x| x * x).sum();
                assert_eq!(reference, Fp::<M>::from_u64(len as u64));
                assert_eq!(dot(&a, &a), reference, "{} len = {len}", M::NAME);
            }
        }
        check::<crate::fp::P64>();
        check::<P61>();
    }

    #[test]
    fn carry_accumulator_counts_each_wrap_once() {
        type H = Fp<crate::fp::P64>;
        let near = H::from_u64(crate::fp::P64::MODULUS - 1);
        let mut accumulator = CarryAccumulator::default();
        assert_eq!(accumulator.finish::<crate::fp::P64>(), H::ZERO);
        for products in 1..=5u64 {
            accumulator.add_product(near, near);
            assert_eq!(accumulator.carries, products - 1);
            assert_eq!(
                accumulator.finish::<crate::fp::P64>(),
                H::from_u64(products)
            );
        }
    }

    #[test]
    fn slice_add_and_sub_are_inverses() {
        let a = fv(&[1, 2, 3, 4]);
        let b = fv(&[10, 20, 30, 40]);
        let sum = slice_add(&a, &b);
        assert_eq!(slice_sub(&sum, &b), a);
    }

    #[test]
    fn slice_scale_by_one_is_identity() {
        let a = fv(&[9, 8, 7]);
        assert_eq!(slice_scale(&a, F::ONE), a);
    }

    #[test]
    fn slice_axpy_accumulates() {
        let mut acc = fv(&[1, 2, 3]);
        let b = fv(&[10, 10, 10]);
        slice_axpy(&mut acc, F::from_u64(2), &b);
        assert_eq!(acc, fv(&[21, 22, 23]));
    }

    #[test]
    fn dot_matches_naive_reference() {
        let a = fv(&[1, 2, 3, 4, 5]);
        let b = fv(&[5, 4, 3, 2, 1]);
        let naive: F = a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
        assert_eq!(dot(&a, &b), naive);
    }

    #[test]
    fn dot_of_empty_slices_is_zero() {
        let empty: Vec<F> = Vec::new();
        assert_eq!(dot(&empty, &empty), F::ZERO);
    }

    #[test]
    fn dot_handles_values_near_modulus() {
        let near = F::from_u64(P25::MODULUS - 1);
        let a = vec![near; 10_000];
        let b = vec![near; 10_000];
        let naive: F = a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
        assert_eq!(dot(&a, &b), naive);
    }

    #[test]
    fn dot_matches_reference_across_lane_remainders() {
        // The 4-lane striping: exercise every remainder class (0..=3 leftover
        // elements) and lengths shorter than one lane group.
        for len in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17] {
            let a: Vec<F> = (0..len as u64).map(|i| F::from_u64(i * 7 + 1)).collect();
            let b: Vec<F> = (0..len as u64).map(|i| F::from_u64(i * 13 + 3)).collect();
            let naive: F = a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
            assert_eq!(dot(&a, &b), naive, "len = {len}");
        }
    }

    #[test]
    fn dot_crosses_the_p61_lane_chunk_boundary() {
        // With 4 lanes the collapse boundary sits at 4 * WIDE_BATCH elements;
        // straddle it, land exactly on it, and overshoot by a non-multiple
        // of the lane count.
        type G = Fp<P61>;
        let chunk = P61::WIDE_BATCH * DOT_LANES;
        for len in [chunk - 1, chunk, chunk + 1, chunk * 2 + 3] {
            let a: Vec<G> = (0..len as u64)
                .map(|i| G::from_u64(P61::MODULUS - 1 - (i % 11)))
                .collect();
            let b: Vec<G> = (0..len as u64)
                .map(|i| G::from_u64(P61::MODULUS - 5 - (i % 7)))
                .collect();
            let naive: G = a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
            assert_eq!(dot(&a, &b), naive, "len = {len}");
        }
    }

    #[test]
    fn axpy_matches_slice_axpy_across_lane_remainders() {
        for len in [1usize, 3, 4, 5, 7, 8, 11] {
            let b: Vec<F> = (0..len as u64)
                .map(|i| F::from_u64(P25::MODULUS - 1 - i))
                .collect();
            let c = F::from_u64(P25::MODULUS - 2);
            let mut expected = vec![F::ZERO; len];
            let mut accumulator = WideAccumulator::<P25>::new(len);
            for _ in 0..3 {
                slice_axpy(&mut expected, c, &b);
                accumulator.axpy(c, &b);
            }
            assert_eq!(accumulator.finish(), expected, "len = {len}");
        }
    }

    #[test]
    fn dot_crosses_the_p61_reduction_batch() {
        // Vector longer than WIDE_BATCH forces mid-loop collapses in F_{2^61-1}.
        type G = Fp<P61>;
        let len = P61::WIDE_BATCH * 3 + 7;
        let a: Vec<G> = (0..len as u64)
            .map(|i| G::from_u64(P61::MODULUS - 1 - i))
            .collect();
        let b: Vec<G> = (0..len as u64)
            .map(|i| G::from_u64(P61::MODULUS - 7 - i))
            .collect();
        let naive: G = a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
        assert_eq!(dot(&a, &b), naive);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_length_mismatch() {
        let _ = dot(&fv(&[1]), &fv(&[1, 2]));
    }

    #[test]
    fn wide_accumulator_matches_repeated_axpy() {
        let blocks = [fv(&[1, 2, 3]), fv(&[4, 5, 6]), fv(&[7, 8, 9])];
        let coefficients = fv(&[3, 1, 4]);
        let mut expected = fv(&[0, 0, 0]);
        let mut accumulator = WideAccumulator::<P25>::new(3);
        for (c, b) in coefficients.iter().zip(blocks.iter()) {
            slice_axpy(&mut expected, *c, b);
            accumulator.axpy(*c, b);
        }
        assert_eq!(accumulator.finish(), expected);
    }

    #[test]
    fn wide_accumulator_collapses_past_the_batch_limit() {
        // More than twice the products a u128 holds for F_{2^61-1}: its lanes
        // count carries, so they wrap (twice) instead of being collapsed.
        type G = Fp<P61>;
        let near = G::from_u64(P61::MODULUS - 1);
        let b = vec![near; 4];
        let mut accumulator = WideAccumulator::<P61>::new(4);
        let rounds = P61::WIDE_BATCH * 2 + 5;
        for _ in 0..rounds {
            accumulator.axpy(near, &b);
        }
        // (q-1)^2 * rounds mod q == rounds mod q (since (q-1)^2 ≡ 1).
        let expected = G::from_u64(rounds as u64);
        assert_eq!(accumulator.finish(), vec![expected; 4]);
    }

    #[test]
    fn wide_accumulator_is_exact_when_every_axpy_overflows() {
        // All-(q−1) operands: each Goldilocks product is ≈ 2^128 − 2^97, so
        // in every lane each product after the first wraps the u128 and the
        // carry count ends at `axpys − 1`. (q−1)² ≡ 1, so every lane sums to
        // the number of `axpy`s; the element-wise `Fp` sum is the reference.
        // The rows go in two at a time and then one, as `matt_vec` feeds
        // them. The other moduli run the same sequence: P61 wraps every ≈ 64
        // products, P25 and P251 never.
        fn check<M: PrimeModulus>() {
            let near = Fp::<M>::from_u64(M::MODULUS - 1);
            let b = vec![near; 5];
            for axpys in [1usize, 2, 5, 4099] {
                let mut accumulator = WideAccumulator::<M>::new(5);
                let mut reference = Fp::<M>::ZERO;
                for _ in 0..axpys / 2 {
                    accumulator.axpy_rows([near; 2], [&b; 2]);
                }
                if axpys % 2 == 1 {
                    accumulator.axpy(near, &b);
                }
                for _ in 0..axpys {
                    reference += near * near;
                }
                assert_eq!(reference, Fp::<M>::from_u64(axpys as u64));
                if counts_carries::<M>() && M::WIDE_BATCH == 1 {
                    assert_eq!(accumulator.carries, vec![axpys as u64 - 1; 5]);
                }
                let mut into = vec![Fp::<M>::ZERO; 5];
                accumulator.clone().finish_into(&mut into);
                assert_eq!(into, vec![reference; 5], "{} axpys = {axpys}", M::NAME);
                assert_eq!(accumulator.finish(), into);
            }
        }
        check::<crate::fp::P64>();
        check::<P61>();
        check::<P25>();
        check::<P251>();
    }

    #[test]
    fn wide_accumulator_finish_into_writes_slice() {
        let mut accumulator = WideAccumulator::<P25>::new(2);
        accumulator.axpy(F::from_u64(3), &fv(&[10, 20]));
        let mut out = fv(&[0, 0]);
        accumulator.finish_into(&mut out);
        assert_eq!(out, fv(&[30, 60]));
    }

    #[test]
    fn batch_inverse_matches_individual_inverses() {
        let values = fv(&[1, 2, 3, 12345, P25::MODULUS - 1]);
        let inverses = batch_inverse(&values);
        for (v, inv) in values.iter().zip(inverses.iter()) {
            assert_eq!(*v * *inv, F::ONE);
        }
    }

    #[test]
    fn batch_inverse_of_empty_is_empty() {
        assert!(batch_inverse::<P25>(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "zero element")]
    fn batch_inverse_rejects_zero() {
        let _ = batch_inverse(&fv(&[1, 0, 2]));
    }

    proptest! {
        #[test]
        fn prop_dot_is_bilinear(
            a in proptest::collection::vec(0..P25::MODULUS, 1..50),
            b in proptest::collection::vec(0..P25::MODULUS, 1..50),
            c in 0..P25::MODULUS,
        ) {
            let n = a.len().min(b.len());
            let a: Vec<F> = a[..n].iter().map(|&v| F::from_u64(v)).collect();
            let b: Vec<F> = b[..n].iter().map(|&v| F::from_u64(v)).collect();
            let c = F::from_u64(c);
            let scaled = slice_scale(&a, c);
            prop_assert_eq!(dot(&scaled, &b), c * dot(&a, &b));
        }

        #[test]
        fn prop_lazy_dot_matches_elementwise_reference_all_moduli(
            raw_a in proptest::collection::vec(any::<u64>(), 1..80),
            raw_b in proptest::collection::vec(any::<u64>(), 1..80),
        ) {
            let n = raw_a.len().min(raw_b.len());
            fn check<M: PrimeModulus>(raw_a: &[u64], raw_b: &[u64], n: usize) {
                let a: Vec<Fp<M>> = raw_a[..n].iter().map(|&v| Fp::from_u64(v)).collect();
                let b: Vec<Fp<M>> = raw_b[..n].iter().map(|&v| Fp::from_u64(v)).collect();
                let reference: Fp<M> = a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
                assert_eq!(dot(&a, &b), reference);
            }
            check::<P25>(&raw_a, &raw_b, n);
            check::<P61>(&raw_a, &raw_b, n);
            check::<P251>(&raw_a, &raw_b, n);
            check::<crate::fp::P64>(&raw_a, &raw_b, n);
        }

        #[test]
        fn prop_batch_inverse_correct(
            raw in proptest::collection::vec(1..P25::MODULUS, 1..40)
        ) {
            let values: Vec<F> = raw.iter().map(|&v| F::from_u64(v)).collect();
            let inverses = batch_inverse(&values);
            for (v, inv) in values.iter().zip(inverses.iter()) {
                prop_assert_eq!(*v * *inv, F::ONE);
            }
        }
    }
}
