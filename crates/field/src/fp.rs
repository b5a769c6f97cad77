//! The prime-field element type [`Fp`] and the [`PrimeField`] trait.
//!
//! An [`Fp<M>`] is a canonical representative in `[0, M::MODULUS)` stored in a
//! `u64`. The modulus is a compile-time constant supplied by a zero-sized
//! marker type implementing [`PrimeModulus`], so arithmetic compiles down to a
//! handful of integer instructions and elements are plain 8-byte values that
//! can be stored contiguously in matrices.

use core::fmt;
use core::hash::{Hash, Hasher};
use core::iter::{Product, Sum};
use core::marker::PhantomData;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A zero-sized marker supplying the prime modulus of a field together with
/// its specialized reduction backend.
///
/// Implementations must guarantee that [`PrimeModulus::MODULUS`] is prime;
/// any prime below `2^64` is admissible (addition and subtraction use
/// carry-aware arithmetic, and [`PrimeModulus::WIDE_BATCH`] shrinks to 1 for
/// 64-bit moduli, so lazy accumulation stays sound). The default
/// [`PrimeModulus::reduce_wide`] is Barrett reduction — division-free and
/// correct for any conforming modulus; moduli with special structure
/// (pseudo-Mersenne, Goldilocks) override it with a cheaper fold
/// (see [`crate::reduce`]).
pub trait PrimeModulus:
    'static + Copy + Clone + fmt::Debug + Default + PartialEq + Eq + Send + Sync
{
    /// The prime modulus `q`.
    const MODULUS: u64;
    /// A short human-readable name used in `Debug`/display output.
    const NAME: &'static str;
    /// The Barrett constant `⌊2^128 / q⌋` used by the default
    /// [`PrimeModulus::reduce_wide`].
    const BARRETT_MU: u128 = crate::reduce::barrett_mu(Self::MODULUS);
    /// How many unreduced products of canonical representatives a `u128`
    /// accumulator can absorb (on top of one canonical carry-in) before it
    /// could overflow: `⌊(2^128 − q) / (q−1)²⌋`, clamped to `usize`. The batch
    /// kernels ([`crate::batch`]) require at least one
    /// ([`crate::batch::assert_wide_batch`]); past that, their `u128` lanes
    /// count carries instead of collapsing.
    const WIDE_BATCH: usize = {
        let bound = (Self::MODULUS - 1) as u128 * (Self::MODULUS - 1) as u128;
        let capacity = (u128::MAX - Self::MODULUS as u128) / bound;
        if capacity > usize::MAX as u128 {
            usize::MAX
        } else {
            capacity as usize
        }
    };

    /// `2^128 mod q`, the weight of one carry out of a wrapping `u128` sum
    /// ([`crate::batch::CarryAccumulator`]).
    const POW2_128: u64 = crate::reduce::pow2_128_mod(Self::MODULUS);

    /// Reduces a full-range `u128` to the canonical representative in
    /// `[0, q)` without hardware division.
    ///
    /// This is the hottest operation in the system: every field
    /// multiplication and every lane of every batched kernel funnels through
    /// it.
    #[inline]
    fn reduce_wide(value: u128) -> u64 {
        crate::reduce::reduce_barrett(value, Self::MODULUS, Self::BARRETT_MU)
    }
}

/// The paper's field: `q = 2^25 − 39 = 33_554_393`, the largest 25-bit prime.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct P25;

impl PrimeModulus for P25 {
    const MODULUS: u64 = (1u64 << 25) - 39;
    const NAME: &'static str = "F_{2^25-39}";

    #[inline]
    fn reduce_wide(value: u128) -> u64 {
        crate::reduce::reduce_pseudo_mersenne25(value)
    }
}

/// A tiny prime (`q = 251`) for exhaustive tests and soundness-error demos.
/// Uses the generic Barrett backend.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct P251;

impl PrimeModulus for P251 {
    const MODULUS: u64 = 251;
    const NAME: &'static str = "F_251";
}

/// The Goldilocks prime `q = 2^64 − 2^32 + 1`, the field of the bulk matrix
/// jobs.
///
/// Reduction uses the `ε = 2^32 − 1` fold ([`crate::reduce::reduce_goldilocks64`]);
/// the price of the 64-bit modulus is `WIDE_BATCH = 1` (one reduction per
/// accumulated product — products of canonical representatives already
/// saturate a `u128`).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct P64;

impl PrimeModulus for P64 {
    const MODULUS: u64 = crate::reduce::GOLDILOCKS;
    const NAME: &'static str = "F_{2^64-2^32+1}";

    #[inline]
    fn reduce_wide(value: u128) -> u64 {
        crate::reduce::reduce_goldilocks64(value)
    }
}

/// Operations every prime-field element type supports.
///
/// The trait exists so that the coding, verification and ML layers can be
/// written generically over the field and instantiated with the paper's
/// 25-bit field, the Goldilocks field or the tiny proof field.
pub trait PrimeField:
    Copy
    + Clone
    + fmt::Debug
    + fmt::Display
    + Default
    + PartialEq
    + Eq
    + Hash
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + Product
    + 'static
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// The field modulus `q`.
    const MODULUS: u64;

    /// Builds an element from an arbitrary `u64` (reduced mod `q`).
    fn from_u64(value: u64) -> Self;
    /// Builds an element from a signed integer using the signed embedding
    /// (negative values map to `q − |v| mod q`).
    fn from_i64(value: i64) -> Self;
    /// The canonical representative in `[0, q)`.
    fn to_u64(self) -> u64;
    /// Interprets the element as a signed integer: representatives above
    /// `(q−1)/2` are negative (two's-complement style embedding, §V).
    fn to_i64(self) -> i64;
    /// Modular exponentiation by squaring.
    fn pow(self, exponent: u64) -> Self;
    /// The multiplicative inverse. Panics on zero.
    fn inverse(self) -> Self;
    /// The multiplicative inverse, or `None` for zero.
    fn try_inverse(self) -> Option<Self>;
    /// `true` iff the element is zero.
    fn is_zero(self) -> bool;

    /// Inner product `Σ a[i]·b[i]`.
    ///
    /// The default folds element-wise (one reduction per product); [`Fp`]
    /// overrides it with the lazy-reduction kernel [`crate::batch::dot`],
    /// which reduces once per lane and batch, not per product. Generic
    /// product chains (polynomial convolution) route their
    /// sums-of-products through this hook so they inherit lazy reduction
    /// without naming a concrete modulus.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    fn dot_product(a: &[Self], b: &[Self]) -> Self {
        assert_eq!(a.len(), b.len(), "dot product length mismatch");
        a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
    }

    /// Batch inversion by Montgomery's trick: prefix products, one field
    /// inversion, then a suffix sweep — `3(n−1)` multiplications in all.
    /// Hot on the decoder's per-iteration path (Lagrange basis construction
    /// and evaluation).
    ///
    /// # Panics
    /// Panics if any element is zero.
    fn batch_inverse(values: &[Self]) -> Vec<Self> {
        if values.is_empty() {
            return Vec::new();
        }
        // Prefix products: prefixes[i] = v0 * v1 * ... * vi.
        let mut prefixes = Vec::with_capacity(values.len());
        let mut running = Self::ONE;
        for &v in values {
            assert!(!v.is_zero(), "batch_inverse: zero element");
            running *= v;
            prefixes.push(running);
        }
        let mut inverse_of_running = running.inverse();
        let mut result = vec![Self::ZERO; values.len()];
        for i in (1..values.len()).rev() {
            result[i] = inverse_of_running * prefixes[i - 1];
            inverse_of_running *= values[i];
        }
        result[0] = inverse_of_running;
        result
    }
}

/// The powers `[1, x, x², …, x^{len-1}]`, computed as a single dependent
/// product chain. Freivalds power-structured keys are built on this.
pub fn power_series<M: PrimeModulus>(base: Fp<M>, len: usize) -> Vec<Fp<M>> {
    let mut powers = Vec::with_capacity(len);
    let mut current = Fp::<M>::ONE;
    for _ in 0..len {
        powers.push(current);
        current *= base;
    }
    powers
}

/// A prime-field element with modulus supplied by the marker type `M`.
///
/// The canonical representative is always kept in `[0, M::MODULUS)`.
#[derive(Copy, Clone, Default, PartialEq, Eq)]
pub struct Fp<M: PrimeModulus>(u64, PhantomData<M>);

impl<M: PrimeModulus> Fp<M> {
    /// The additive identity.
    pub const ZERO: Self = Fp(0, PhantomData);
    /// The multiplicative identity.
    pub const ONE: Self = Fp(1, PhantomData);

    /// Builds an element reducing `value` modulo `q`.
    ///
    /// Already-canonical values (the common case: every arithmetic result and
    /// every sampled element) take the comparison-only fast path and never
    /// divide.
    #[inline]
    pub fn new(value: u64) -> Self {
        if value < M::MODULUS {
            Fp(value, PhantomData)
        } else {
            Fp(M::reduce_wide(value as u128), PhantomData)
        }
    }

    /// Builds an element from a representative already known to be canonical.
    ///
    /// # Panics
    /// Debug builds assert `value < q`; release builds trust the caller (the
    /// batch kernels use this after [`PrimeModulus::reduce_wide`]).
    #[inline]
    pub(crate) fn from_canonical(value: u64) -> Self {
        debug_assert!(value < M::MODULUS, "non-canonical representative {value}");
        Fp(value, PhantomData)
    }

    /// Returns the canonical representative in `[0, q)`.
    #[inline]
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Fused multiply-reduce of two canonical representatives through the
    /// modulus's specialized backend.
    #[inline]
    fn mul_raw(a: u64, b: u64) -> u64 {
        M::reduce_wide(a as u128 * b as u128)
    }
}

impl<M: PrimeModulus> PrimeField for Fp<M> {
    const ZERO: Self = Fp(0, PhantomData);
    const ONE: Self = Fp(1, PhantomData);
    const MODULUS: u64 = M::MODULUS;

    #[inline]
    fn from_u64(value: u64) -> Self {
        Self::new(value)
    }

    #[inline]
    fn from_i64(value: i64) -> Self {
        if value >= 0 {
            Self::new(value as u64)
        } else {
            // `unsigned_abs` is total (covers `i64::MIN`, whose magnitude
            // 2^63 does not fit in an `i64`), and the reduced magnitude is in
            // `[0, q)`, so the negation below never underflows.
            let magnitude = M::reduce_wide(value.unsigned_abs() as u128);
            if magnitude == 0 {
                Self::ZERO
            } else {
                Fp(M::MODULUS - magnitude, PhantomData)
            }
        }
    }

    #[inline]
    fn to_u64(self) -> u64 {
        self.0
    }

    #[inline]
    fn to_i64(self) -> i64 {
        let half = (M::MODULUS - 1) / 2;
        if self.0 > half {
            -((M::MODULUS - self.0) as i64)
        } else {
            self.0 as i64
        }
    }

    fn pow(self, mut exponent: u64) -> Self {
        if exponent == 0 {
            return Self::ONE;
        }
        let mut base = self;
        let mut accumulator = Self::ONE;
        // Stop squaring at the top bit: the final `base *= base` of the naive
        // loop is a wasted multiply-reduce (its result is never consumed),
        // which adds up on inversion-heavy paths (Fermat inverses are
        // 64-squaring chains for the 64-bit modulus).
        while exponent > 1 {
            if exponent & 1 == 1 {
                accumulator *= base;
            }
            base *= base;
            exponent >>= 1;
        }
        accumulator * base
    }

    #[inline]
    fn inverse(self) -> Self {
        self.try_inverse()
            .expect("attempted to invert the zero element of a prime field")
    }

    fn try_inverse(self) -> Option<Self> {
        if self.0 == 0 {
            None
        } else {
            // Fermat's little theorem: a^(q-2) = a^(-1) for prime q.
            Some(self.pow(M::MODULUS - 2))
        }
    }

    #[inline]
    fn is_zero(self) -> bool {
        self.0 == 0
    }

    #[inline]
    fn dot_product(a: &[Self], b: &[Self]) -> Self {
        crate::batch::dot(a, b)
    }
}

impl<M: PrimeModulus> fmt::Debug for Fp<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", M::NAME, self.0)
    }
}

impl<M: PrimeModulus> fmt::Display for Fp<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl<M: PrimeModulus> Hash for Fp<M> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl<M: PrimeModulus> Add for Fp<M> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        // Carry-aware: for 64-bit moduli (Goldilocks) `a + b` can exceed
        // `u64::MAX`; the wrapped value plus the carry flag identifies the
        // (unique, since `a + b < 2q`) subtraction case exactly.
        let (mut sum, carry) = self.0.overflowing_add(rhs.0);
        if carry || sum >= M::MODULUS {
            sum = sum.wrapping_sub(M::MODULUS);
        }
        Fp(sum, PhantomData)
    }
}

impl<M: PrimeModulus> AddAssign for Fp<M> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<M: PrimeModulus> Sub for Fp<M> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        // Borrow-aware twin of `add`: `a − b + q` can exceed `u64::MAX` for
        // 64-bit moduli, but the wrapped difference plus `q` lands back in
        // `[0, q)` under wrapping arithmetic.
        let (difference, borrow) = self.0.overflowing_sub(rhs.0);
        let difference = if borrow {
            difference.wrapping_add(M::MODULUS)
        } else {
            difference
        };
        Fp(difference, PhantomData)
    }
}

impl<M: PrimeModulus> SubAssign for Fp<M> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<M: PrimeModulus> Mul for Fp<M> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Fp(Self::mul_raw(self.0, rhs.0), PhantomData)
    }
}

impl<M: PrimeModulus> MulAssign for Fp<M> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<M: PrimeModulus> Div for Fp<M> {
    type Output = Self;
    // Division in a prime field *is* multiplication by the inverse.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self * rhs.inverse()
    }
}

impl<M: PrimeModulus> DivAssign for Fp<M> {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl<M: PrimeModulus> Neg for Fp<M> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        if self.0 == 0 {
            self
        } else {
            Fp(M::MODULUS - self.0, PhantomData)
        }
    }
}

impl<M: PrimeModulus> Sum for Fp<M> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |acc, x| acc + x)
    }
}

impl<M: PrimeModulus> Product for Fp<M> {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |acc, x| acc * x)
    }
}

impl<M: PrimeModulus> From<u64> for Fp<M> {
    fn from(value: u64) -> Self {
        Self::new(value)
    }
}

impl<M: PrimeModulus> From<i64> for Fp<M> {
    fn from(value: i64) -> Self {
        <Self as PrimeField>::from_i64(value)
    }
}

impl<M: PrimeModulus> From<u32> for Fp<M> {
    fn from(value: u32) -> Self {
        Self::new(value as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type F = Fp<P25>;
    type H = Fp<P64>;

    #[test]
    fn modulus_constants_are_prime_sized() {
        assert_eq!(P25::MODULUS, 33_554_393);
        assert_eq!(P251::MODULUS, 251);
        assert_eq!(P64::MODULUS, 18_446_744_069_414_584_321);
    }

    #[test]
    fn goldilocks_add_sub_survive_u64_overflow() {
        // a + b > u64::MAX for canonical Goldilocks representatives: the
        // carry-aware path must wrap through the modulus, not the register.
        let a = H::from_u64(P64::MODULUS - 1);
        let b = H::from_u64(P64::MODULUS - 2);
        assert_eq!((a + b).to_u64(), P64::MODULUS - 3);
        assert_eq!(a + H::ONE, H::ZERO);
        // a − b with a < b borrows through the modulus.
        assert_eq!((H::ONE - a).to_u64(), 2);
        assert_eq!((b - a) + (a - b), H::ZERO);
        // Multiplication near the modulus: (q−2)(q−3) ≡ 6.
        assert_eq!((b * H::from_u64(P64::MODULUS - 3)).to_u64(), 6);
        // Fermat inversion round-trips at the extremes.
        for raw in [1u64, 2, 7, P64::MODULUS - 1, 1 << 63] {
            let x = H::from_u64(raw);
            assert_eq!(x * x.inverse(), H::ONE);
        }
    }

    #[test]
    fn goldilocks_signed_embedding_round_trips() {
        // Round-tripping holds for |v| ≤ (q−1)/2 ≈ 9.22e18 (slightly below
        // i64::MAX for this near-2^64 modulus).
        let half = (P64::MODULUS - 1) / 2;
        for v in [
            -(half as i64),
            -9_000_000_000_000_000_000,
            -1,
            0,
            1,
            9_000_000_000_000_000_000,
            half as i64,
        ] {
            assert_eq!(H::from_i64(v).to_i64(), v);
            assert_eq!(H::from_i64(v) + H::from_i64(-v), H::ZERO);
        }
    }

    #[test]
    fn addition_wraps_around_modulus() {
        let a = F::from_u64(P25::MODULUS - 1);
        let b = F::from_u64(5);
        assert_eq!((a + b).to_u64(), 4);
    }

    #[test]
    fn subtraction_borrows_from_modulus() {
        let a = F::from_u64(3);
        let b = F::from_u64(10);
        assert_eq!((a - b).to_u64(), P25::MODULUS - 7);
    }

    #[test]
    fn negation_is_additive_inverse() {
        let a = F::from_u64(123);
        assert_eq!(a + (-a), F::ZERO);
        assert_eq!(-F::ZERO, F::ZERO);
    }

    #[test]
    fn multiplication_matches_u128_reference() {
        let a = F::from_u64(22_222_222);
        let b = F::from_u64(33_333_333 % P25::MODULUS);
        let expected = (a.to_u64() as u128 * b.to_u64() as u128 % P25::MODULUS as u128) as u64;
        assert_eq!((a * b).to_u64(), expected);
    }

    #[test]
    fn fermat_inverse_round_trips() {
        for raw in [1u64, 2, 17, 500_000, P25::MODULUS - 1] {
            let a = F::from_u64(raw);
            assert_eq!(a * a.inverse(), F::ONE);
        }
    }

    #[test]
    fn zero_has_no_inverse() {
        assert!(F::ZERO.try_inverse().is_none());
    }

    #[test]
    #[should_panic(expected = "invert the zero element")]
    fn inverting_zero_panics() {
        let _ = F::ZERO.inverse();
    }

    #[test]
    fn from_i64_handles_extreme_and_super_modulus_values() {
        // i64::MIN has no i64-representable magnitude; 2^63 mod q must be
        // negated correctly in every field.
        fn check<M: PrimeModulus>() {
            let expected_min = ((M::MODULUS as u128 - (1u128 << 63) % M::MODULUS as u128)
                % M::MODULUS as u128) as u64;
            assert_eq!(Fp::<M>::from_i64(i64::MIN).to_u64(), expected_min);
            assert_eq!(
                Fp::<M>::from_i64(i64::MAX).to_u64(),
                ((i64::MAX as u128) % M::MODULUS as u128) as u64
            );
            // Values at and beyond the modulus reduce; exact multiples hit zero.
            assert_eq!(Fp::<M>::from_i64(M::MODULUS as i64), Fp::<M>::ZERO);
            assert_eq!(Fp::<M>::from_i64(-(M::MODULUS as i64)), Fp::<M>::ZERO);
            assert_eq!(Fp::<M>::from_i64(M::MODULUS as i64 + 7).to_u64(), 7);
            assert_eq!(
                Fp::<M>::from_i64(-(M::MODULUS as i64) - 7).to_u64(),
                M::MODULUS - 7
            );
            // from_i64(v) + from_i64(-v) = 0 at the extremes.
            for v in [i64::MIN + 1, -1, 1, i64::MAX] {
                assert_eq!(Fp::<M>::from_i64(v) + Fp::<M>::from_i64(-v), Fp::<M>::ZERO);
            }
        }
        check::<P25>();
        check::<P251>();
    }

    #[test]
    fn new_reduces_values_at_and_above_modulus() {
        fn check<M: PrimeModulus>() {
            assert_eq!(Fp::<M>::new(M::MODULUS).to_u64(), 0);
            assert_eq!(Fp::<M>::new(M::MODULUS - 1).to_u64(), M::MODULUS - 1);
            assert_eq!(
                Fp::<M>::new(u64::MAX).to_u64(),
                (u64::MAX as u128 % M::MODULUS as u128) as u64
            );
        }
        check::<P25>();
        check::<P251>();
        check::<P64>();
    }

    #[test]
    fn signed_embedding_round_trips() {
        for v in [-1_000_000i64, -1, 0, 1, 1_000_000] {
            assert_eq!(F::from_i64(v).to_i64(), v);
        }
    }

    #[test]
    fn signed_embedding_threshold_is_half_modulus() {
        let half = (P25::MODULUS - 1) / 2;
        assert_eq!(F::from_u64(half).to_i64(), half as i64);
        assert_eq!(F::from_u64(half + 1).to_i64(), -(half as i64));
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let a = F::from_u64(7);
        let mut expected = F::ONE;
        for _ in 0..13 {
            expected *= a;
        }
        assert_eq!(a.pow(13), expected);
    }

    #[test]
    fn pow_zero_is_one() {
        assert_eq!(F::from_u64(9).pow(0), F::ONE);
        assert_eq!(F::ZERO.pow(0), F::ONE);
    }

    #[test]
    fn sum_and_product_fold_correctly() {
        let elements = [F::from_u64(1), F::from_u64(2), F::from_u64(3)];
        assert_eq!(elements.iter().copied().sum::<F>(), F::from_u64(6));
        assert_eq!(elements.iter().copied().product::<F>(), F::from_u64(6));
    }

    #[test]
    fn large_field_multiplication_does_not_overflow() {
        let a = H::from_u64(P64::MODULUS - 2);
        let b = H::from_u64(P64::MODULUS - 3);
        // (q-2)(q-3) mod q = 6 mod q
        assert_eq!((a * b).to_u64(), 6);
    }

    #[test]
    fn display_and_debug_render_value() {
        let a = F::from_u64(42);
        assert_eq!(format!("{a}"), "42");
        assert!(format!("{a:?}").contains("42"));
    }

    /// `pow` by repeated multiplication, the reference the square-and-multiply
    /// ladder must agree with bit-for-bit.
    fn pow_reference<M: PrimeModulus>(base: Fp<M>, exponent: u64) -> Fp<M> {
        let mut result = Fp::<M>::ONE;
        for _ in 0..exponent {
            result *= base;
        }
        result
    }

    #[test]
    fn power_series_matches_repeated_multiplication() {
        fn check<M: PrimeModulus>(raw: u64) {
            let base = Fp::<M>::from_u64(raw);
            let series = power_series(base, 9);
            let mut expected = Fp::<M>::ONE;
            for (k, &power) in series.iter().enumerate() {
                assert_eq!(power, expected, "{} power {k}", M::NAME);
                expected *= base;
            }
        }
        check::<P251>(250);
        check::<P64>(P64::MODULUS - 1);
        check::<P25>(123_456);
        assert!(power_series(Fp::<P251>::from_u64(3), 0).is_empty());
    }

    #[test]
    fn pow_and_inverse_agree_with_reference_near_the_modulus() {
        fn check<M: PrimeModulus>() {
            for raw in [1u64, 2, M::MODULUS - 2, M::MODULUS - 1] {
                let x = Fp::<M>::from_u64(raw);
                for exponent in [0u64, 1, 2, 3, 13, 64] {
                    assert_eq!(
                        x.pow(exponent),
                        pow_reference(x, exponent),
                        "{} raw {raw} exp {exponent}",
                        M::NAME
                    );
                }
                assert_eq!(x * x.inverse(), Fp::<M>::ONE, "{} raw {raw}", M::NAME);
            }
        }
        check::<P25>();
        check::<P251>();
        check::<P64>();
    }

    #[test]
    fn batch_inverse_matches_per_element_inverses_all_moduli() {
        fn check<M: PrimeModulus>() {
            // Boundary-heavy inputs: the extremes of the canonical range.
            let values: Vec<Fp<M>> = [1u64, 2, M::MODULUS - 1, M::MODULUS - 2, 3, M::MODULUS / 2]
                .iter()
                .map(|&v| Fp::<M>::from_u64(v))
                .filter(|v| !v.is_zero())
                .collect();
            let batched = <Fp<M> as PrimeField>::batch_inverse(&values);
            let per_element: Vec<Fp<M>> = values.iter().map(|v| v.inverse()).collect();
            assert_eq!(batched, per_element, "{}", M::NAME);
            for (v, inv) in values.iter().zip(batched.iter()) {
                assert_eq!(*v * *inv, Fp::<M>::ONE, "{}", M::NAME);
            }
            assert!(<Fp<M> as PrimeField>::batch_inverse(&[]).is_empty());
            assert_eq!(
                <Fp<M> as PrimeField>::batch_inverse(&[Fp::<M>::ONE]),
                vec![Fp::<M>::ONE]
            );
        }
        check::<P25>();
        check::<P251>();
        check::<P64>();
    }

    #[test]
    #[should_panic(expected = "zero element")]
    fn batch_inverse_rejects_zero_in_p251() {
        let _ = <Fp<P251> as PrimeField>::batch_inverse(&[Fp::<P251>::ONE, Fp::<P251>::ZERO]);
    }

    fn fv(values: &[u64]) -> Vec<F> {
        values.iter().map(|&v| F::from_u64(v)).collect()
    }

    #[test]
    fn batch_inverse_matches_individual_inverses() {
        let values = fv(&[1, 2, 3, 12345, P25::MODULUS - 1]);
        let inverses = F::batch_inverse(&values);
        for (v, inv) in values.iter().zip(inverses.iter()) {
            assert_eq!(*v * *inv, F::ONE);
        }
    }

    #[test]
    fn batch_inverse_of_empty_is_empty() {
        assert!(F::batch_inverse(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "zero element")]
    fn batch_inverse_rejects_zero() {
        let _ = F::batch_inverse(&fv(&[1, 0, 2]));
    }

    fn arbitrary_f25() -> impl Strategy<Value = F> {
        (0..P25::MODULUS).prop_map(F::from_u64)
    }

    proptest! {
        #[test]
        fn prop_additive_commutativity(a in arbitrary_f25(), b in arbitrary_f25()) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn prop_additive_associativity(a in arbitrary_f25(), b in arbitrary_f25(), c in arbitrary_f25()) {
            prop_assert_eq!((a + b) + c, a + (b + c));
        }

        #[test]
        fn prop_multiplicative_commutativity(a in arbitrary_f25(), b in arbitrary_f25()) {
            prop_assert_eq!(a * b, b * a);
        }

        #[test]
        fn prop_multiplicative_associativity(a in arbitrary_f25(), b in arbitrary_f25(), c in arbitrary_f25()) {
            prop_assert_eq!((a * b) * c, a * (b * c));
        }

        #[test]
        fn prop_distributivity(a in arbitrary_f25(), b in arbitrary_f25(), c in arbitrary_f25()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn prop_subtraction_is_additive_inverse(a in arbitrary_f25(), b in arbitrary_f25()) {
            prop_assert_eq!((a - b) + b, a);
        }

        #[test]
        fn prop_nonzero_division_round_trips(a in arbitrary_f25(), b in (1..P25::MODULUS).prop_map(F::from_u64)) {
            prop_assert_eq!((a * b) / b, a);
        }

        #[test]
        fn prop_signed_embedding_is_involutive(v in -((P25::MODULUS as i64 - 1) / 2)..=((P25::MODULUS as i64 - 1) / 2)) {
            prop_assert_eq!(F::from_i64(v).to_i64(), v);
        }

        #[test]
        fn prop_canonical_representative_in_range(raw in any::<u64>()) {
            prop_assert!(F::from_u64(raw).to_u64() < P25::MODULUS);
        }

        #[test]
        fn prop_power_series_prefix_consistency(raw in any::<u64>(), len in 1usize..40) {
            let base = Fp::<P64>::from_u64(raw);
            let series = power_series(base, len);
            prop_assert_eq!(series.len(), len);
            for window in series.windows(2) {
                prop_assert_eq!(window[1], window[0] * base);
            }
        }

        #[test]
        fn prop_pow_matches_reference_all_moduli(raw in any::<u64>(), exponent in 0u64..96) {
            fn check<M: PrimeModulus>(raw: u64, exponent: u64) {
                let x = Fp::<M>::from_u64(raw);
                assert_eq!(x.pow(exponent), pow_reference(x, exponent), "{}", M::NAME);
            }
            check::<P25>(raw, exponent);
            check::<P251>(raw, exponent);
            check::<P64>(raw, exponent);
        }

        #[test]
        fn prop_inverse_round_trips_all_moduli(raw in any::<u64>()) {
            fn check<M: PrimeModulus>(raw: u64) {
                let x = Fp::<M>::from_u64(raw);
                if let Some(inverse) = x.try_inverse() {
                    assert_eq!(x * inverse, Fp::<M>::ONE, "{}", M::NAME);
                } else {
                    assert!(x.is_zero());
                }
            }
            check::<P25>(raw);
            check::<P251>(raw);
            check::<P64>(raw);
        }

        #[test]
        fn prop_batch_inverse_matches_per_element_inverses_all_moduli(
            raws in proptest::collection::vec(any::<u64>(), 1..24)
        ) {
            fn check<M: PrimeModulus>(raws: &[u64]) {
                let values: Vec<Fp<M>> = raws
                    .iter()
                    .map(|&v| Fp::<M>::from_u64(v))
                    .filter(|v| !v.is_zero())
                    .collect();
                assert_eq!(
                    <Fp<M> as PrimeField>::batch_inverse(&values),
                    values.iter().map(|v| v.inverse()).collect::<Vec<_>>(),
                    "{}",
                    M::NAME
                );
            }
            check::<P25>(&raws);
            check::<P251>(&raws);
            check::<P64>(&raws);
        }

        #[test]
        fn prop_batch_inverse_correct(
            raw in proptest::collection::vec(1..P25::MODULUS, 1..40)
        ) {
            let values: Vec<F> = raw.iter().map(|&v| F::from_u64(v)).collect();
            let inverses = F::batch_inverse(&values);
            for (v, inv) in values.iter().zip(inverses.iter()) {
                prop_assert_eq!(*v * *inv, F::ONE);
            }
        }
    }
}
