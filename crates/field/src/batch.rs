//! Slice-level field kernels: an in-place `axpy`, lazy-reduction dot
//! products and accumulators.
//!
//! These are the inner loops of the encoder (`X̃ = Σ X_j ℓ_j(α)`), the worker
//! compute kernels (`X̃ w`, `X̃ᵀ e`) and the Freivalds verifier (`r · z̃`).
//! They exploit *lazy reduction*: products of canonical representatives are
//! accumulated unreduced and pass through the modulus's specialized
//! [`PrimeModulus::reduce_wide`] backend as rarely as the modulus allows.
//! Every kernel — [`dot`], `avcc_linalg::mat_vec` and [`WideAccumulator`] —
//! picks one of two lane kinds by the same `const` rule, [`narrow_lanes`]:
//!
//! * **Narrow lanes** (`q ≤ 2^32`: the paper's 25-bit field, and `F_251`).
//!   Every canonical residue fits a `u32`, so a product is one
//!   `(a as u32 as u64) · (b as u32 as u64)` and the sum lives in a **`u64`**.
//!   The casts drop no bit (that is what the rule guarantees); they are there
//!   so the optimizer sees a 32 × 32 → 64-bit multiply, which every x86-64
//!   SIMD unit has (`pmuludq`) and which turns the loops into vector code.
//!   A 64 × 64 → 128-bit product has no vector form at all. A lane holding
//!   one canonical carry-in absorbs [`narrow_batch`]
//!   `= ⌊(2^64 − q)/(q − 1)²⌋` products before it could overflow — 16 384
//!   for the 25-bit field, ≈ 3·10^14 for `F_251` — so the kernels collapse
//!   it with one `reduce_wide` per that many products
//!   ([`assert_narrow_batch`] checks the bound at compile time).
//! * **Carry-counting `u128` lanes** (every larger modulus: Goldilocks). A
//!   `u128` absorbs only **one** Goldilocks product, so instead of
//!   collapsing the kernels let it wrap and **count the carries**
//!   ([`CarryAccumulator`]): one `overflowing_add` and one carry increment
//!   per product, and a single reduction per accumulator at the very end,
//!   as `reduce_wide(sum) + carries · (2^128 mod q)`.
//!   [`dot`] stripes these over [`DOT_LANES`] independent accumulators so
//!   consecutive multiply-adds never serialize on one add-with-carry chain.
//!
//! Both are safe, portable code — no `unsafe`, no target-feature gates: the
//! narrow lanes vectorize because of how they are written, the wide ones
//! gain their parallelism from independent chains.

use crate::fp::{Fp, PrimeModulus};

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

/// `true` for the moduli whose kernels take narrow lanes: `q ≤ 2^32`, so
/// every canonical residue fits a `u32` and the product of two fits a `u64`.
/// The others count carries in `u128` lanes. A `const fn` of the modulus, so
/// the unselected kernel folds away.
pub const fn narrow_lanes<M: PrimeModulus>() -> bool {
    M::MODULUS <= 1 << 32
}

/// How many products of canonical representatives a narrow (`u64`) lane
/// absorbs on top of one canonical carry-in before it could overflow:
/// `⌊(2^64 − q) / (q−1)²⌋`, clamped to `usize` — 16 384 for the 25-bit field.
/// The narrow kernels collapse a lane with one reduction at least this often.
/// Zero for the moduli that do not take narrow lanes.
pub const fn narrow_batch<M: PrimeModulus>() -> usize {
    if !narrow_lanes::<M>() {
        return 0;
    }
    let bound = (M::MODULUS - 1) as u128 * (M::MODULUS - 1) as u128;
    let capacity = ((1u128 << 64) - M::MODULUS as u128) / bound;
    if capacity > usize::MAX as u128 {
        usize::MAX
    } else {
        capacity as usize
    }
}

/// Compile-time guard beside [`assert_wide_batch`] for the narrow lanes: a
/// modulus that takes them must fit at least one product per collapse.
pub const fn assert_narrow_batch<M: PrimeModulus>() {
    assert!(
        !narrow_lanes::<M>() || narrow_batch::<M>() >= 1,
        "modulus too large for narrow lanes: one (q-1)^2 product must fit in u64"
    );
}

/// How a kernel's operands store a residue of `M`: the field element
/// [`Fp<M>`] itself, or — for a modulus that takes [`narrow_lanes`] — the
/// `u32` it fits in, at half the bytes.
///
/// [`dot`] and `avcc_linalg::mat_vec` are generic over it, so one loop body
/// serves both storages: a narrow lane advances [`Residue::NARROW_STEP`]
/// residues at a time, summing their products with
/// [`Residue::narrow_step`]. A socket worker keeps its resident block and its
/// task inputs as `u32`: the block is streamed once per task and falls out of
/// cache between tasks, so half the bytes is half its kernel's memory
/// traffic. Storing a residue of a modulus that takes `u128` lanes in a `u32`
/// does not compile, and neither does a kernel over such storage (every one
/// stores its result).
pub trait Residue<M: PrimeModulus>: Copy {
    /// How many consecutive residues one step of a narrow lane reads.
    const NARROW_STEP: usize;

    /// Stores `value`, reduced modulo `q` unless it already is canonical (the
    /// common case, which only compares).
    fn from_residue(value: u64) -> Self;

    /// The canonical representative in `[0, q)`.
    fn residue(self) -> u64;

    /// `Σ a[i]·b[i]` over one step — [`NARROW_STEP`](Self::NARROW_STEP)
    /// residues of each — as [`narrow_product`]s.
    fn narrow_step(a: &[Self], b: &[Self]) -> u64;
}

impl<M: PrimeModulus> Residue<M> for Fp<M> {
    const NARROW_STEP: usize = 1;

    #[inline(always)]
    fn from_residue(value: u64) -> Self {
        Fp::new(value)
    }

    #[inline(always)]
    fn residue(self) -> u64 {
        self.value()
    }

    #[inline(always)]
    fn narrow_step(a: &[Self], b: &[Self]) -> u64 {
        narrow_product(a[0], b[0])
    }
}

impl<M: PrimeModulus> Residue<M> for u32 {
    /// Two residues per step, each pair read as one 64-bit word: the 32 × 32
    /// → 64-bit vector multiply reads only the low half of each 64-bit lane,
    /// so the low residues multiply as they stand and the high ones after one
    /// shift. Zero-extending every `u32` instead costs an unpack per two
    /// residues, and read slower than field-element storage while a block
    /// sits in cache (`mat_vec` on a 200 × 261 block in cache: 11.5 µs, against
    /// 8.7–9.0 for field elements; as words, 8.4).
    const NARROW_STEP: usize = 2;

    #[inline(always)]
    fn from_residue(value: u64) -> Self {
        const {
            assert!(
                narrow_lanes::<M>(),
                "a residue of this modulus needs 64 bits"
            )
        }
        Fp::<M>::new(value).value() as u32
    }

    #[inline(always)]
    fn residue(self) -> u64 {
        self as u64
    }

    #[inline(always)]
    fn narrow_step(a: &[Self], b: &[Self]) -> u64 {
        let word = |pair: &[u32]| u64::from(pair[0]) | u64::from(pair[1]) << 32;
        let (a, b) = (word(a), word(b));
        (a as u32 as u64) * (b as u32 as u64) + (a >> 32) * (b >> 32)
    }
}

/// The narrow lanes' product `a · b`, as one 32 × 32 → 64-bit multiply.
///
/// Only for the moduli [`narrow_lanes`] admits: there every canonical residue
/// is below `2^32`, so the casts drop no bit, and they let the optimizer
/// emit the unsigned 32-bit vector multiply.
#[inline(always)]
pub fn narrow_product<M: PrimeModulus>(a: impl Residue<M>, b: impl Residue<M>) -> u64 {
    debug_assert!(narrow_lanes::<M>(), "{} takes u128 lanes", M::NAME);
    a.residue() as u32 as u64 * b.residue() as u32 as u64
}

/// Number of independent accumulator lanes the carry-counting [`dot`]
/// stripes over. A single running accumulator serializes on its own
/// add-with-carry chain; four independent lanes let the multiplies and adds
/// overlap and the compiler keep all four in registers. The lanes are folded
/// with field additions only at the end, so the result is bit-identical to
/// the single-lane kernel.
pub const DOT_LANES: usize = 4;

/// A running sum of unreduced products that is allowed to overflow: a `u128`
/// that wraps, plus the number of times it did.
///
/// The true sum is `sum + carries · 2^128`, and `2^128 mod q` is the
/// constant [`PrimeModulus::POW2_128`] every modulus carries, so
/// [`CarryAccumulator::finish`] reduces the whole thing once —
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
    pub fn add_product<M: PrimeModulus>(&mut self, a: impl Residue<M>, b: impl Residue<M>) {
        let (sum, carried) = self
            .sum
            .overflowing_add(a.residue() as u128 * b.residue() as u128);
        self.sum = sum;
        self.carries += carried as u64;
    }

    /// The accumulated sum as a field element:
    /// `reduce_wide(sum) + carries · (2^128 mod q)`.
    #[inline]
    pub fn finish<M: PrimeModulus>(self) -> Fp<M> {
        let wrapped = M::reduce_wide(self.carries as u128 * M::POW2_128 as u128);
        Fp::from_canonical(M::reduce_wide(self.sum)) + Fp::from_canonical(wrapped)
    }
}

/// Inner product `Σ a[i]·b[i]` with lazy reduction.
///
/// Which lane is a `const` branch on the modulus that folds away
/// ([`narrow_lanes`]). Narrow moduli keep one `u64` running sum of
/// [`narrow_product`]s, collapsed once per [`narrow_batch`] products (for a
/// 25-bit vector shorter than 16 384: once) — a plain multiply-add reduction
/// the optimizer runs in vector registers. The others stripe the unreduced
/// products across [`DOT_LANES`] [`CarryAccumulator`]s (`lane[j]` absorbs
/// elements `j, j+4, j+8, …`): the inner loop is four independent
/// multiply-add-with-carry steps, with no division, no comparison, no branch
/// and no dependency chain between consecutive products, and the four lane
/// totals are folded with field additions at the end.
///
/// The operands are field elements or, for a narrow modulus, their `u32`
/// storage ([`Residue`]); the sum comes back in the same storage.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot<M: PrimeModulus, E: Residue<M>>(a: &[E], b: &[E]) -> E {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    const {
        assert_wide_batch::<M>();
        assert_narrow_batch::<M>();
    }
    if const { narrow_lanes::<M>() } {
        let batch = narrow_batch::<M>();
        let mut lane = 0u64;
        let step = E::NARROW_STEP;
        for (chunk_a, chunk_b) in a.chunks(batch).zip(b.chunks(batch)) {
            let (steps_a, steps_b) = (chunk_a.chunks_exact(step), chunk_b.chunks_exact(step));
            let tail = steps_a.remainder().iter().zip(steps_b.remainder());
            for (x, y) in steps_a.zip(steps_b) {
                lane += E::narrow_step(x, y);
            }
            for (&x, &y) in tail {
                lane += narrow_product(x, y);
            }
            lane = M::reduce_wide(lane as u128);
        }
        return E::from_residue(lane);
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
    let sum = lanes
        .into_iter()
        .fold(Fp::<M>::ZERO, |acc, lane| acc + lane.finish());
    E::from_residue(sum.value())
}

/// A vector of lanes accumulating unreduced products — the shared engine of
/// the dense Lagrange encode (`Σ_j ℓ_j(α)·X_j`), the erasure decoder, the
/// screen and the transpose–vector kernel behind Freivalds key generation
/// (`s = rᵀ·X̃`).
///
/// Each `axpy` adds one product per lane and reduces as rarely as the lane
/// allows. The lane kind is the same `const` choice [`dot`] makes
/// ([`narrow_lanes`]):
///
/// * **Narrow moduli** (the 25-bit field, `F_251`) keep a `u64` per lane,
///   fed [`narrow_product`]s and collapsed with one reduction each once
///   [`narrow_batch`] products have gone in (16 384 `axpy`s for the 25-bit
///   field); their `axpy` loops run in vector registers.
/// * **The others** (Goldilocks) let a `u128` lane wrap and count the
///   carries beside it, exactly as a [`CarryAccumulator`] does — one
///   `overflowing_add` and one carry increment per product, one reduction
///   per lane at the end. Collapsing every [`PrimeModulus::WIDE_BATCH`]
///   products instead would be a `reduce_wide` per product for Goldilocks
///   (the twelve 240 × 512 Freivalds keys of a `matmul_batch` job, one
///   thread: 2.1–2.5 ms that way, 1.05–1.23 ms this way).
///
/// Compared to an element-wise `acc[i] += c·b[i]` per source this performs
/// one reduction per lane per batch instead of one per product.
#[derive(Debug, Clone)]
pub struct WideAccumulator<M: PrimeModulus> {
    /// Narrow moduli: one `u64` sum per lane. Empty for the others.
    narrow: Vec<u64>,
    /// Narrow moduli: products every lane absorbed since the last collapse.
    pending: usize,
    /// The other moduli: one wrapped `u128` sum per lane. Empty for the
    /// narrow moduli.
    wide: Vec<u128>,
    /// The other moduli: times each wide lane wrapped.
    carries: Vec<u64>,
    _modulus: core::marker::PhantomData<M>,
}

impl<M: PrimeModulus> WideAccumulator<M> {
    /// Creates a zeroed accumulator with `len` lanes.
    pub fn new(len: usize) -> Self {
        const {
            assert_wide_batch::<M>();
            assert_narrow_batch::<M>();
        }
        let (narrow, wide, carries) = if const { narrow_lanes::<M>() } {
            (vec![0u64; len], Vec::new(), Vec::new())
        } else {
            (Vec::new(), vec![0u128; len], vec![0u64; len])
        };
        WideAccumulator {
            narrow,
            pending: 0,
            wide,
            carries,
            _modulus: core::marker::PhantomData,
        }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        if const { narrow_lanes::<M>() } {
            self.narrow.len()
        } else {
            self.wide.len()
        }
    }

    /// `true` iff the accumulator has no lanes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    /// Each lane is loaded once, absorbs all `R` products in registers and is
    /// stored once. Where carries are counted, a lane is a `u128` and a count
    /// — two loads and three stores around every product if the rows came
    /// one at a time, which is what a one-row pass is bound by. The lanes are
    /// independent of each other, so consecutive steps never wait on one
    /// add-with-carry chain, and narrow lanes run in vector registers.
    /// (`avcc_linalg::matt_vec` documents the measured choice of `R`.)
    ///
    /// # Panics
    /// Panics if a row's length differs from the number of lanes.
    pub fn axpy_rows<const R: usize>(&mut self, c: [Fp<M>; R], b: [&[Fp<M>]; R]) {
        const {
            assert!(
                !narrow_lanes::<M>() || R <= narrow_batch::<M>(),
                "more rows per pass than a narrow lane absorbs"
            )
        }
        let len = self.len();
        for row in b {
            assert_eq!(len, row.len(), "axpy length mismatch");
        }
        // Every slice re-cut to the one length the loops run to, so their
        // indexing needs no bounds checks.
        let b = b.map(|row| &row[..len]);
        if const { narrow_lanes::<M>() } {
            if self.pending + R > narrow_batch::<M>() {
                for lane in self.narrow.iter_mut() {
                    *lane = M::reduce_wide(*lane as u128);
                }
                self.pending = 0;
            }
            let lanes = &mut self.narrow[..len];
            for i in 0..len {
                let mut sum = lanes[i];
                for t in 0..R {
                    sum += narrow_product(c[t], b[t][i]);
                }
                lanes[i] = sum;
            }
            self.pending += R;
            return;
        }
        let lanes = &mut self.wide[..len];
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
    }

    /// Reduces and returns the accumulated vector.
    pub fn finish(self) -> Vec<Fp<M>> {
        let mut out = vec![Fp::ZERO; self.len()];
        self.finish_into(&mut out);
        out
    }

    /// Reduces the accumulated values into an existing slice (the dense
    /// encode writes each share's window in place): each lane once, with its
    /// carries folded in where the modulus counts them.
    ///
    /// # Panics
    /// Panics if `out.len()` differs from the number of lanes.
    pub fn finish_into(self, out: &mut [Fp<M>]) {
        assert_eq!(self.len(), out.len(), "finish_into length mismatch");
        if const { narrow_lanes::<M>() } {
            for (slot, &lane) in out.iter_mut().zip(&self.narrow) {
                *slot = Fp::from_canonical(M::reduce_wide(lane as u128));
            }
        } else {
            for ((slot, &sum), &carries) in out.iter_mut().zip(&self.wide).zip(&self.carries) {
                *slot = CarryAccumulator { sum, carries }.finish();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::{PrimeField, P25, P251, P64};
    use proptest::prelude::*;

    type F = Fp<P25>;

    fn fv(values: &[u64]) -> Vec<F> {
        values.iter().map(|&v| F::from_u64(v)).collect()
    }

    /// The element-wise reference `acc[i] += c·b[i]`, one reduction per
    /// element.
    fn slice_axpy<M: PrimeModulus>(acc: &mut [Fp<M>], c: Fp<M>, b: &[Fp<M>]) {
        assert_eq!(acc.len(), b.len(), "slice_axpy length mismatch");
        for (x, &y) in acc.iter_mut().zip(b) {
            *x += c * y;
        }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn wide_batch_constants_are_sane() {
        // P25 products are ~2^50: the whole u128 is effectively one batch.
        assert!(P25::WIDE_BATCH > 1 << 40);
        assert!(P251::WIDE_BATCH > 1 << 40);
        // The 64-bit Goldilocks modulus degenerates to one product per
        // reduction — the minimum the compile-time guard admits.
        assert_eq!(P64::WIDE_BATCH, 1);
    }

    #[test]
    fn narrow_batch_is_the_largest_sound_collapse_interval() {
        // B·(q−1)² + (q−1) < 2^64: a lane holding a canonical carry-in
        // absorbs B maximal products; one more could overflow.
        fn check<M: PrimeModulus>() -> usize {
            assert!(narrow_lanes::<M>());
            let batch = narrow_batch::<M>() as u128;
            let top = (M::MODULUS - 1) as u128;
            assert!(batch * top * top + top < 1 << 64, "{}", M::NAME);
            assert!((batch + 1) * top * top + top >= 1 << 64, "{}", M::NAME);
            batch as usize
        }
        assert_eq!(check::<P25>(), 16_384);
        assert!(check::<P251>() > 1 << 48);
        assert!(!narrow_lanes::<P64>() && narrow_batch::<P64>() == 0);
    }

    /// Lengths around the narrow batch `B` of the 25-bit field: none, one,
    /// the last that needs no collapse, exactly one full batch, one past it
    /// and two batches plus a partial one. `F_251` runs the same lengths,
    /// far below its own batch.
    fn narrow_boundary_lengths() -> [usize; 6] {
        let batch = narrow_batch::<P25>();
        [0, 1, batch - 1, batch, batch + 1, 2 * batch + 3]
    }

    #[test]
    fn narrow_dot_is_exact_where_lanes_collapse() {
        // All-(q−1) operands: every product is the largest a lane absorbs,
        // so a collapse interval one too long overflows the u64 — a panic
        // under debug overflow checks, a wrong residue in release.
        fn check<M: PrimeModulus>() {
            let near = Fp::<M>::from_u64(M::MODULUS - 1);
            for len in narrow_boundary_lengths() {
                let a = vec![near; len];
                let reference: Fp<M> = a.iter().map(|&x| x * x).sum();
                assert_eq!(reference, Fp::<M>::from_u64(len as u64));
                assert_eq!(dot(&a, &a), reference, "{} len = {len}", M::NAME);
                // The same loop over `u32` storage.
                let stored = vec![near.value() as u32; len];
                let sum = dot::<M, u32>(&stored, &stored);
                assert_eq!(sum as u64, reference.value(), "{} u32 len = {len}", M::NAME);
            }
        }
        check::<P25>();
        check::<P251>();
    }

    #[test]
    fn u32_residues_store_canonically() {
        // Canonical values are kept as they are; anything else is reduced.
        let q = P25::MODULUS;
        for (value, stored) in [(0, 0), (q - 1, q - 1), (q, 0), (q + 5, 5)] {
            assert_eq!(<u32 as Residue<P25>>::from_residue(value) as u64, stored);
            assert_eq!(Residue::<P25>::residue(stored as u32), stored);
            assert_eq!(<F as Residue<P25>>::from_residue(value).value(), stored);
        }
    }

    #[test]
    fn narrow_wide_accumulator_is_exact_where_lanes_collapse() {
        // The same boundary in `axpy` count: one row per pass, two per pass
        // (a pair may straddle the collapse point), and the two mixed as
        // `matt_vec` mixes them for an odd height.
        fn check<M: PrimeModulus>() {
            let near = Fp::<M>::from_u64(M::MODULUS - 1);
            let b = vec![near; 3];
            for axpys in narrow_boundary_lengths().into_iter().skip(2) {
                let reference = vec![Fp::<M>::from_u64(axpys as u64); 3];
                let mut single = WideAccumulator::<M>::new(3);
                let mut paired = WideAccumulator::<M>::new(3);
                for _ in 0..axpys {
                    single.axpy(near, &b);
                }
                for _ in 0..axpys / 2 {
                    paired.axpy_rows([near; 2], [&b; 2]);
                }
                if axpys % 2 == 1 {
                    paired.axpy(near, &b);
                }
                assert_eq!(single.finish(), reference, "{} axpys = {axpys}", M::NAME);
                let mut into = vec![Fp::<M>::ZERO; 3];
                paired.finish_into(&mut into);
                assert_eq!(into, reference, "{} axpy_rows = {axpys}", M::NAME);
            }
        }
        check::<P25>();
        check::<P251>();
    }

    #[test]
    fn goldilocks_kernels_survive_batch_of_one() {
        // WIDE_BATCH = 1: a u128 holds one product, so every accumulation
        // after the first wraps; the lazy kernels must still match the
        // element-wise reference at the extremes.
        type H = Fp<P64>;
        const Q: u64 = P64::MODULUS;
        let a: Vec<H> = (0..100u64).map(|i| H::from_u64(Q - 1 - i)).collect();
        let b: Vec<H> = (0..100u64).map(|i| H::from_u64(Q - 7 - i)).collect();
        let reference: H = a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
        assert_eq!(dot(&a, &b), reference);
        let near = H::from_u64(Q - 1);
        let mut accumulator = WideAccumulator::<P64>::new(4);
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
        // the length.
        fn check<M: PrimeModulus>() {
            assert!(!narrow_lanes::<M>());
            let near = Fp::<M>::from_u64(M::MODULUS - 1);
            for len in [1usize, 3, 4, 5, 512, 4099] {
                let a = vec![near; len];
                let reference: Fp<M> = a.iter().map(|&x| x * x).sum();
                assert_eq!(reference, Fp::<M>::from_u64(len as u64));
                assert_eq!(dot(&a, &a), reference, "{} len = {len}", M::NAME);
            }
        }
        check::<P64>();
    }

    #[test]
    fn carry_accumulator_counts_each_wrap_once() {
        type H = Fp<P64>;
        let near = H::from_u64(P64::MODULUS - 1);
        let mut accumulator = CarryAccumulator::default();
        assert_eq!(accumulator.finish::<P64>(), H::ZERO);
        for products in 1..=5u64 {
            accumulator.add_product(near, near);
            assert_eq!(accumulator.carries, products - 1);
            assert_eq!(accumulator.finish::<P64>(), H::from_u64(products));
        }
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
    fn wide_accumulator_is_exact_when_every_axpy_overflows() {
        // All-(q−1) operands: each Goldilocks product is ≈ 2^128 − 2^97, so
        // in every lane each product after the first wraps the u128 and the
        // carry count ends at `axpys − 1`. (q−1)² ≡ 1, so every lane sums to
        // the number of `axpy`s; the element-wise `Fp` sum is the reference.
        // The rows go in two at a time and then one, as `matt_vec` feeds
        // them. The other moduli run the same sequence: P25 and P251 never
        // wrap.
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
                if !narrow_lanes::<M>() && M::WIDE_BATCH == 1 {
                    assert_eq!(accumulator.carries, vec![axpys as u64 - 1; 5]);
                }
                let mut into = vec![Fp::<M>::ZERO; 5];
                accumulator.clone().finish_into(&mut into);
                assert_eq!(into, vec![reference; 5], "{} axpys = {axpys}", M::NAME);
                assert_eq!(accumulator.finish(), into);
            }
        }
        check::<P64>();
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
            let scaled: Vec<F> = a.iter().map(|&x| c * x).collect();
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
            check::<P251>(&raw_a, &raw_b, n);
            check::<P64>(&raw_a, &raw_b, n);
        }
    }
}
