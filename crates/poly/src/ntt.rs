//! Number-theoretic transforms over NTT-friendly prime fields.
//!
//! When the Lagrange evaluation points sit in a multiplicative subgroup of
//! order `n = 2^k` (possible whenever `2^k` divides `q − 1`, i.e. `k` is at
//! most the field's two-adicity), evaluating a polynomial at all subgroup
//! points *is* a forward NTT and interpolating values on the subgroup back to
//! coefficients *is* an inverse NTT — `O(n log n)` instead of the `O(n²)`
//! Lagrange matrix. This module supplies the machinery the coding layer's
//! fast paths are built on:
//!
//! * [`NttPlan`] — a cached transform plan for one power-of-two size:
//!   bit-reversal-ready twiddle tables for the forward and inverse transforms
//!   and the precomputed `n^{-1}` scaling.
//! * Scalar transforms ([`NttPlan::forward`] / [`NttPlan::inverse`]) for
//!   per-coordinate work (tests, fingerprints).
//! * Vector-lane transforms ([`NttPlan::forward_vectors`] /
//!   [`NttPlan::inverse_vectors`]) in which every "element" is a whole data
//!   block: the butterflies stream contiguously over block slices, which is
//!   how the encoder transforms `K+T` matrices at once without a strided
//!   per-coordinate gather. Both networks unroll [`NTT_LANES`] independent
//!   butterflies per step so the per-product reductions overlap instead of
//!   serializing (safe portable ILP, same spirit as the
//!   [`avcc_field::DOT_LANES`] dot-product striping), and a butterfly whose
//!   twiddle is `ω⁰ = 1` — half of them at the encoder's sizes — is an add and
//!   a subtract, no multiply. The lanes can be as short as the caller likes:
//!   the encoder feeds the networks a few thousand coordinates at a time so
//!   that every stage of both transforms runs out of cache.
//! * The inverse transform *onto a coset*
//!   ([`NttPlan::inverse_vectors_onto_coset`]): the substitution
//!   `u(z) → u(c·z)` scales coefficient `k` by `c^k`, which turns a following
//!   subgroup transform into an evaluation on the coset `c·H` (the worker
//!   points live on a coset so they never collide with the interpolation
//!   subgroup). The inverse transform already ends in a pass that scales
//!   every coefficient by `n^{-1}`, so the two are one pass by the folded
//!   constant `n^{-1}·c^k`.
//!
//! The plan is generic over [`PrimeModulus`] and checks the field's declared
//! [`PrimeModulus::TWO_ADICITY`] at construction; fields that do not declare
//! NTT metadata (the default) simply cannot build a plan.
//!
//! # Montgomery-form twiddles
//!
//! For chain-routed moduli ([`PrimeModulus::MONTGOMERY_CHAINS`], e.g. the
//! Goldilocks field where `WIDE_BATCH = 1` makes every butterfly product pay
//! a full reduction) the plan stores its twiddle tables, the `n^{-1}`
//! scaling and the running coset powers **pre-converted to Montgomery form,
//! once per plan**. Each butterfly then multiplies via the hybrid REDC step
//! `t̄·y·R^{-1} = t·y`, whose output is already canonical — the data vector
//! never enters or leaves the domain, and the per-product cost drops from
//! the modulus's wide fold to one REDC. The transforms are bit-for-bit
//! identical either way; selection is a `const` branch that folds away.

use avcc_field::{power_series, Fp, PrimeField, PrimeModulus};

/// Number of butterflies (scalar network) or block coordinates (vector-lane
/// network) processed per unrolled step. Independent butterflies break the
/// dependency chain of the per-product reduction (three dependent multiplies
/// per REDC on the Montgomery-routed moduli), mirroring
/// [`avcc_field::DOT_LANES`] in the dot-product kernels; the transforms are
/// bit-identical to the rolled loop.
pub const NTT_LANES: usize = 4;

/// Multiplies a stored plan constant (a raw [`to_plan_form`] residue — kept
/// as a bare `u64` precisely so a Montgomery residue can never be mistaken
/// for a canonical [`Fp`]) by a data value: for chain-routed moduli one
/// hybrid REDC lands the canonical product; otherwise it is a plain
/// canonical multiply.
#[inline]
fn twiddle_mul<M: PrimeModulus>(twiddle: u64, value: Fp<M>) -> Fp<M> {
    if M::MONTGOMERY_CHAINS {
        Fp::new(M::mul_redc(twiddle, value.value()))
    } else {
        Fp::new(M::reduce_wide(twiddle as u128 * value.value() as u128))
    }
}

/// Lifts a plan constant into the raw representation [`twiddle_mul`]
/// expects: the Montgomery residue for chain-routed moduli, the canonical
/// representative otherwise.
#[inline]
fn to_plan_form<M: PrimeModulus>(value: Fp<M>) -> u64 {
    if M::MONTGOMERY_CHAINS {
        M::to_montgomery(value.value())
    } else {
        value.value()
    }
}

/// Multiplies two plan-form residues, staying in plan form — the step of
/// the running coset-power chain (in the Montgomery domain the REDC product
/// of two residues is again a residue).
#[inline]
fn plan_form_mul<M: PrimeModulus>(a: u64, b: u64) -> u64 {
    if M::MONTGOMERY_CHAINS {
        M::mul_redc(a, b)
    } else {
        M::reduce_wide(a as u128 * b as u128)
    }
}

/// A primitive `2^log_n`-th root of unity of the field `M`.
///
/// # Panics
/// Panics if `log_n` exceeds the field's declared two-adicity (in particular
/// for any field that leaves the default `TWO_ADICITY = 0`).
pub fn root_of_unity<M: PrimeModulus>(log_n: u32) -> Fp<M> {
    assert!(
        log_n <= M::TWO_ADICITY,
        "{} supports NTT sizes up to 2^{}, requested 2^{log_n}",
        M::NAME,
        M::TWO_ADICITY,
    );
    if log_n == 0 {
        // The primitive 1st root of unity in any field — returned explicitly
        // so fields with the inert default metadata (TWO_ADICITY = 0, bogus
        // generator) still give the right answer for the trivial size.
        return Fp::<M>::ONE;
    }
    // The declared generator has order 2^TWO_ADICITY; squaring it
    // (TWO_ADICITY − log_n) times yields order exactly 2^log_n.
    let mut root = Fp::<M>::new(M::TWO_ADIC_GENERATOR);
    for _ in log_n..M::TWO_ADICITY {
        root *= root;
    }
    root
}

/// Bit-reversal permutation of a power-of-two-length slice (the input
/// reordering of the iterative decimation-in-time butterfly network).
fn bit_reverse_permute<T>(data: &mut [T]) {
    let n = data.len();
    debug_assert!(n.is_power_of_two());
    if n <= 2 {
        // 0- and 1-bit indices are their own reversals (and the full 64-bit
        // shift below would overflow for n = 1).
        return;
    }
    let shift = usize::BITS - n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> shift;
        if i < j {
            data.swap(i, j);
        }
    }
}

/// A cached radix-2 NTT plan for one power-of-two size.
///
/// The plan owns the twiddle tables and the `n^{-1}` scaling; it holds no
/// data and no scratch, so one plan serves any number of transforms of any
/// lane width — whole blocks, or the encoder's cache-sized chunks of them.
/// The vector-lane operations are [`NttPlan::forward_vectors`],
/// [`NttPlan::inverse_vectors`] and the inverse *onto a coset*,
/// [`NttPlan::inverse_vectors_onto_coset`], which folds the coset
/// substitution into the inverse transform's own scaling pass.
#[derive(Debug, Clone)]
pub struct NttPlan<M: PrimeModulus> {
    log_n: u32,
    /// `forward_twiddles[j] = ω^j` for `j < n/2`, as raw [`to_plan_form`]
    /// residues (Montgomery form for chain-routed moduli, see
    /// [`twiddle_mul`]).
    forward_twiddles: Vec<u64>,
    /// `inverse_twiddles[j] = ω^{−j}` for `j < n/2` (same representation).
    inverse_twiddles: Vec<u64>,
    /// `n^{-1}`, applied after the inverse butterfly network (same
    /// representation).
    n_inverse: u64,
    _modulus: core::marker::PhantomData<M>,
}

impl<M: PrimeModulus> NttPlan<M> {
    /// Builds the plan for transforms of size `n = 2^log_n`.
    ///
    /// # Panics
    /// Panics if `log_n` exceeds the field's declared two-adicity.
    pub fn new(log_n: u32) -> Self {
        let n = 1usize << log_n;
        let omega = root_of_unity::<M>(log_n);
        let omega_inverse = omega.inverse();
        let half = n.max(2) / 2;
        // The twiddle tables are power series (themselves dependent product
        // chains, Montgomery-routed where the modulus opted in), converted
        // into plan form once — the butterflies never convert again.
        let forward_twiddles = power_series(omega, half)
            .into_iter()
            .map(to_plan_form)
            .collect();
        let inverse_twiddles = power_series(omega_inverse, half)
            .into_iter()
            .map(to_plan_form)
            .collect();
        NttPlan {
            log_n,
            forward_twiddles,
            inverse_twiddles,
            n_inverse: to_plan_form(Fp::<M>::new(n as u64).inverse()),
            _modulus: core::marker::PhantomData,
        }
    }

    /// The transform size `n`.
    pub fn len(&self) -> usize {
        1usize << self.log_n
    }

    /// Always `false`: a plan transforms at least one element. Provided for
    /// API symmetry with [`NttPlan::len`].
    pub fn is_empty(&self) -> bool {
        false
    }

    /// In-place forward transform: `data[i] ← Σ_k data[k]·ω^{ik}`
    /// (coefficients → values on the subgroup).
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the plan size.
    pub fn forward(&self, data: &mut [Fp<M>]) {
        assert_eq!(data.len(), self.len(), "NTT size mismatch");
        bit_reverse_permute(data);
        self.butterflies(data, &self.forward_twiddles);
    }

    /// In-place inverse transform: values on the subgroup → coefficients.
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the plan size.
    pub fn inverse(&self, data: &mut [Fp<M>]) {
        assert_eq!(data.len(), self.len(), "NTT size mismatch");
        bit_reverse_permute(data);
        self.butterflies(data, &self.inverse_twiddles);
        for value in data.iter_mut() {
            *value = twiddle_mul(self.n_inverse, *value);
        }
    }

    /// The iterative butterfly network shared by both directions.
    ///
    /// Butterflies at distinct offsets within a block are independent, so
    /// the inner loop runs [`NTT_LANES`] of them per step with separate
    /// temporaries: four `twiddle_mul` reductions (three dependent multiplies
    /// each on the Montgomery-routed moduli) overlap instead of serializing.
    /// The remainder loop handles the first stages, whose half-blocks are
    /// narrower than one lane group.
    fn butterflies(&self, data: &mut [Fp<M>], twiddles: &[u64]) {
        let n = data.len();
        let mut len = 2;
        while len <= n {
            let step = n / len;
            let half = len / 2;
            for start in (0..n).step_by(len) {
                let (left, right) = data[start..start + len].split_at_mut(half);
                let mut k = 0;
                while k + NTT_LANES <= half {
                    let t0 = twiddle_mul(twiddles[k * step], right[k]);
                    let t1 = twiddle_mul(twiddles[(k + 1) * step], right[k + 1]);
                    let t2 = twiddle_mul(twiddles[(k + 2) * step], right[k + 2]);
                    let t3 = twiddle_mul(twiddles[(k + 3) * step], right[k + 3]);
                    let (a0, a1, a2, a3) = (left[k], left[k + 1], left[k + 2], left[k + 3]);
                    left[k] = a0 + t0;
                    left[k + 1] = a1 + t1;
                    left[k + 2] = a2 + t2;
                    left[k + 3] = a3 + t3;
                    right[k] = a0 - t0;
                    right[k + 1] = a1 - t1;
                    right[k + 2] = a2 - t2;
                    right[k + 3] = a3 - t3;
                    k += NTT_LANES;
                }
                while k < half {
                    let t = twiddle_mul(twiddles[k * step], right[k]);
                    let a = left[k];
                    left[k] = a + t;
                    right[k] = a - t;
                    k += 1;
                }
            }
            len <<= 1;
        }
    }

    /// Forward transform over vector lanes: `lanes` is a slice of `n`
    /// equal-length blocks, and the butterflies operate element-wise on whole
    /// blocks. One call transforms every coordinate of the blocks at once,
    /// with contiguous streaming access — this is the encoder's workhorse.
    ///
    /// # Panics
    /// Panics if `lanes.len()` differs from the plan size or the blocks
    /// disagree in length.
    pub fn forward_vectors(&self, lanes: &mut [Vec<Fp<M>>]) {
        assert_eq!(lanes.len(), self.len(), "NTT size mismatch");
        bit_reverse_permute(lanes);
        self.vector_butterflies(lanes, &self.forward_twiddles);
    }

    /// Inverse transform over vector lanes (values → coefficients, scaled by
    /// `n^{-1}`).
    ///
    /// # Panics
    /// Panics if `lanes.len()` differs from the plan size or the blocks
    /// disagree in length.
    pub fn inverse_vectors(&self, lanes: &mut [Vec<Fp<M>>]) {
        self.inverse_vectors_onto_coset(lanes, Fp::<M>::ONE);
    }

    /// Inverse transform over vector lanes that lands on the coset
    /// `shift·H`: values of `u` on the subgroup → coefficients of
    /// `u(shift·z)`, so that a following forward transform (of this or any
    /// larger size, after zero-padding) evaluates `u` at `shift·ω^i`.
    ///
    /// Coefficient `k` of `u(shift·z)` is `shift^k` times that of `u`, and
    /// the inverse network's output still owes its `n^{-1}`: both are paid
    /// in **one** pass over the lanes, by the folded constant
    /// `n^{-1}·shift^k`. The running constant is a dependent product chain;
    /// for chain-routed moduli it is held in Montgomery form, so the chain
    /// step and the per-coefficient scale are single REDC multiplies with
    /// canonical output.
    ///
    /// # Panics
    /// Panics if `lanes.len()` differs from the plan size or the blocks
    /// disagree in length.
    pub fn inverse_vectors_onto_coset(&self, lanes: &mut [Vec<Fp<M>>], shift: Fp<M>) {
        assert_eq!(lanes.len(), self.len(), "NTT size mismatch");
        bit_reverse_permute(lanes);
        self.vector_butterflies(lanes, &self.inverse_twiddles);
        let shift = to_plan_form(shift);
        let mut scale = self.n_inverse;
        for lane in lanes.iter_mut() {
            for value in lane.iter_mut() {
                *value = twiddle_mul(scale, *value);
            }
            scale = plan_form_mul::<M>(scale, shift);
        }
    }

    /// The vector-lane butterfly network: one twiddle per butterfly, applied
    /// element-wise across a whole block pair. The coordinate sweep runs
    /// [`NTT_LANES`] elements per step — with a shared twiddle the four
    /// `twiddle_mul` reductions are fully independent, so this is the
    /// highest-ILP loop in the transform (and the encoder's hot path). The
    /// first butterfly of every group has the twiddle `ω⁰ = 1`: it is an add
    /// and a subtract, not a multiply by (the plan form of) one — bit-identical,
    /// and half of all butterflies at the encoder's sizes (22 of 44 at
    /// `(K + T, A) = (8, 16)`).
    fn vector_butterflies(&self, lanes: &mut [Vec<Fp<M>>], twiddles: &[u64]) {
        let n = lanes.len();
        let width = lanes.first().map_or(0, Vec::len);
        let mut len = 2;
        while len <= n {
            let step = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..len / 2 {
                    // Split-borrow the (a, b) pair of lanes.
                    let (head, tail) = lanes.split_at_mut(start + k + len / 2);
                    let a = &mut head[start + k];
                    let b = &mut tail[0];
                    assert_eq!(a.len(), width, "NTT lanes must share a width");
                    assert_eq!(b.len(), width, "NTT lanes must share a width");
                    if k == 0 {
                        for (x, y) in a.iter_mut().zip(b.iter_mut()) {
                            let sum = *x + *y;
                            *y = *x - *y;
                            *x = sum;
                        }
                        continue;
                    }
                    let twiddle = twiddles[k * step];
                    let mut a_groups = a.chunks_exact_mut(NTT_LANES);
                    let mut b_groups = b.chunks_exact_mut(NTT_LANES);
                    for (xs, ys) in a_groups.by_ref().zip(b_groups.by_ref()) {
                        let t0 = twiddle_mul(twiddle, ys[0]);
                        let t1 = twiddle_mul(twiddle, ys[1]);
                        let t2 = twiddle_mul(twiddle, ys[2]);
                        let t3 = twiddle_mul(twiddle, ys[3]);
                        ys[0] = xs[0] - t0;
                        ys[1] = xs[1] - t1;
                        ys[2] = xs[2] - t2;
                        ys[3] = xs[3] - t3;
                        xs[0] += t0;
                        xs[1] += t1;
                        xs[2] += t2;
                        xs[3] += t3;
                    }
                    for (x, y) in a_groups
                        .into_remainder()
                        .iter_mut()
                        .zip(b_groups.into_remainder().iter_mut())
                    {
                        let t = twiddle_mul(twiddle, *y);
                        let sum = *x + t;
                        *y = *x - t;
                        *x = sum;
                    }
                }
            }
            len <<= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avcc_field::{F64, P64};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_data(len: usize, seed: u64) -> Vec<F64> {
        let mut rng = StdRng::seed_from_u64(seed);
        avcc_field::random_vector(&mut rng, len)
    }

    /// Naive `O(n²)` DFT reference: `out[i] = Σ_k data[k]·ω^{ik}`.
    fn naive_dft(data: &[F64], omega: F64) -> Vec<F64> {
        (0..data.len())
            .map(|i| {
                let mut acc = F64::ZERO;
                let mut power = F64::ONE;
                let point = omega.pow(i as u64);
                for &value in data {
                    acc += value * power;
                    power *= point;
                }
                acc
            })
            .collect()
    }

    #[test]
    fn forward_matches_naive_dft() {
        for log_n in 0..=6 {
            let plan = NttPlan::<P64>::new(log_n);
            let omega = root_of_unity::<P64>(log_n);
            let data = random_data(1 << log_n, log_n as u64);
            let expected = naive_dft(&data, omega);
            let mut transformed = data.clone();
            plan.forward(&mut transformed);
            assert_eq!(transformed, expected, "size 2^{log_n}");
        }
    }

    #[test]
    fn forward_is_evaluation_at_subgroup_points() {
        // NTT output i must equal Horner evaluation of the coefficient
        // polynomial at ω^i.
        let plan = NttPlan::<P64>::new(4);
        let omega = root_of_unity::<P64>(4);
        let coefficients = random_data(16, 99);
        let polynomial = crate::Polynomial::from_coefficients(coefficients.clone());
        let mut values = coefficients;
        plan.forward(&mut values);
        for (i, &value) in values.iter().enumerate() {
            assert_eq!(value, polynomial.evaluate(omega.pow(i as u64)), "point {i}");
        }
    }

    #[test]
    fn inverse_onto_coset_evaluates_on_shifted_coset() {
        // Values of `width` polynomials on the subgroup go in; after the
        // inverse transform onto the coset and a forward transform, lane `i`
        // holds their values at `shift·ω^i` — and with a unit shift the
        // operation is the plain inverse transform.
        let plan = NttPlan::<P64>::new(3);
        let omega = root_of_unity::<P64>(3);
        let shift = F64::from_u64(P64::GROUP_GENERATOR);
        let width = 5;
        let polynomials: Vec<_> = (0..width)
            .map(|c| crate::Polynomial::from_coefficients(random_data(8, 7 + c)))
            .collect();
        let values_at = |point_of: &dyn Fn(u64) -> F64| -> Vec<Vec<F64>> {
            (0..8)
                .map(|i| {
                    polynomials
                        .iter()
                        .map(|p| p.evaluate(point_of(i)))
                        .collect()
                })
                .collect()
        };
        let on_subgroup = values_at(&|i| omega.pow(i));
        let mut lanes = on_subgroup.clone();
        plan.inverse_vectors_onto_coset(&mut lanes, shift);
        plan.forward_vectors(&mut lanes);
        assert_eq!(lanes, values_at(&|i| shift * omega.pow(i)));

        let mut plain = on_subgroup.clone();
        plan.inverse_vectors(&mut plain);
        let mut unit_shift = on_subgroup;
        plan.inverse_vectors_onto_coset(&mut unit_shift, F64::ONE);
        assert_eq!(unit_shift, plain);
        for (k, lane) in plain.iter().enumerate() {
            let coefficients: Vec<F64> = polynomials.iter().map(|p| p.coefficients()[k]).collect();
            assert_eq!(lane, &coefficients, "coefficient {k}");
        }
    }

    #[test]
    fn vector_transforms_match_scalar_per_coordinate() {
        let plan = NttPlan::<P64>::new(4);
        let width = 5;
        let mut lanes: Vec<Vec<F64>> = (0..16).map(|i| random_data(width, 1000 + i)).collect();
        let original = lanes.clone();
        plan.forward_vectors(&mut lanes);
        for coordinate in 0..width {
            let mut scalar: Vec<F64> = original.iter().map(|lane| lane[coordinate]).collect();
            plan.forward(&mut scalar);
            let transformed: Vec<F64> = lanes.iter().map(|lane| lane[coordinate]).collect();
            assert_eq!(transformed, scalar, "coordinate {coordinate}");
        }
        plan.inverse_vectors(&mut lanes);
        assert_eq!(lanes, original);
    }

    #[test]
    fn size_one_plan_is_identity() {
        let plan = NttPlan::<P64>::new(0);
        let mut data = vec![F64::from_u64(42)];
        plan.forward(&mut data);
        assert_eq!(data, vec![F64::from_u64(42)]);
        plan.inverse(&mut data);
        assert_eq!(data, vec![F64::from_u64(42)]);
    }

    #[test]
    #[should_panic(expected = "supports NTT sizes up to")]
    fn oversized_plan_panics() {
        let _ = NttPlan::<P64>::new(33);
    }

    #[test]
    #[should_panic(expected = "supports NTT sizes up to")]
    fn non_ntt_field_cannot_build_a_plan() {
        let _ = NttPlan::<avcc_field::P61>::new(1);
    }

    #[test]
    #[should_panic(expected = "NTT size mismatch")]
    fn wrong_length_panics() {
        let plan = NttPlan::<P64>::new(3);
        let mut data = vec![F64::ZERO; 4];
        plan.forward(&mut data);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_forward_inverse_is_identity(seed in any::<u64>(), log_n in 0u32..8) {
            let plan = NttPlan::<P64>::new(log_n);
            let data = random_data(1 << log_n, seed);
            let mut round_tripped = data.clone();
            plan.forward(&mut round_tripped);
            plan.inverse(&mut round_tripped);
            prop_assert_eq!(round_tripped, data);
        }

        #[test]
        fn prop_inverse_forward_is_identity(seed in any::<u64>(), log_n in 0u32..8) {
            let plan = NttPlan::<P64>::new(log_n);
            let data = random_data(1 << log_n, seed);
            let mut round_tripped = data.clone();
            plan.inverse(&mut round_tripped);
            plan.forward(&mut round_tripped);
            prop_assert_eq!(round_tripped, data);
        }

        #[test]
        fn prop_ntt_is_linear(seed in any::<u64>(), scale in 1u64..u64::MAX) {
            let plan = NttPlan::<P64>::new(5);
            let scale = F64::from_u64(scale);
            let data = random_data(32, seed);
            let mut scaled_then_transformed: Vec<F64> =
                data.iter().map(|&x| x * scale).collect();
            plan.forward(&mut scaled_then_transformed);
            let mut transformed = data;
            plan.forward(&mut transformed);
            let transformed_then_scaled: Vec<F64> =
                transformed.iter().map(|&x| x * scale).collect();
            prop_assert_eq!(scaled_then_transformed, transformed_then_scaled);
        }
    }
}
