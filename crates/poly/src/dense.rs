//! Dense univariate polynomials over a prime field.
//!
//! Coefficients are stored in ascending-degree order (`coefficients[i]` is the
//! coefficient of `z^i`). The representation is kept *normalized*: the leading
//! coefficient is never zero (the zero polynomial has an empty coefficient
//! vector and degree `None`).

use avcc_field::PrimeField;

/// A dense univariate polynomial with coefficients in ascending-degree order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Polynomial<F: PrimeField> {
    coefficients: Vec<F>,
}

impl<F: PrimeField> Polynomial<F> {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Polynomial {
            coefficients: Vec::new(),
        }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: F) -> Self {
        Self::from_coefficients(vec![c])
    }

    /// Builds a polynomial from ascending-degree coefficients, trimming
    /// trailing zeros so the representation is normalized.
    pub fn from_coefficients(mut coefficients: Vec<F>) -> Self {
        while coefficients.last().is_some_and(|c| c.is_zero()) {
            coefficients.pop();
        }
        Polynomial { coefficients }
    }

    /// The monomial `c · z^degree`.
    pub fn monomial(c: F, degree: usize) -> Self {
        if c.is_zero() {
            return Self::zero();
        }
        let mut coefficients = vec![F::ZERO; degree + 1];
        coefficients[degree] = c;
        Polynomial { coefficients }
    }

    /// Degree of the polynomial, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        if self.coefficients.is_empty() {
            None
        } else {
            Some(self.coefficients.len() - 1)
        }
    }

    /// `true` iff this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coefficients.is_empty()
    }

    /// The ascending-degree coefficient slice.
    pub fn coefficients(&self) -> &[F] {
        &self.coefficients
    }

    /// The coefficient of `z^i` (zero beyond the degree).
    pub fn coefficient(&self, i: usize) -> F {
        self.coefficients.get(i).copied().unwrap_or(F::ZERO)
    }

    /// Evaluates the polynomial at `point` using Horner's rule.
    pub fn evaluate(&self, point: F) -> F {
        let mut accumulator = F::ZERO;
        for &coefficient in self.coefficients.iter().rev() {
            accumulator = accumulator * point + coefficient;
        }
        accumulator
    }

    /// Evaluates the polynomial at every point of `points`.
    pub fn evaluate_many(&self, points: &[F]) -> Vec<F> {
        points.iter().map(|&p| self.evaluate(p)).collect()
    }

    /// Polynomial addition.
    pub fn add(&self, other: &Self) -> Self {
        let len = self.coefficients.len().max(other.coefficients.len());
        let mut coefficients = Vec::with_capacity(len);
        for i in 0..len {
            coefficients.push(self.coefficient(i) + other.coefficient(i));
        }
        Self::from_coefficients(coefficients)
    }

    /// Polynomial subtraction `self − other`.
    pub fn sub(&self, other: &Self) -> Self {
        let len = self.coefficients.len().max(other.coefficients.len());
        let mut coefficients = Vec::with_capacity(len);
        for i in 0..len {
            coefficients.push(self.coefficient(i) - other.coefficient(i));
        }
        Self::from_coefficients(coefficients)
    }

    /// Schoolbook polynomial multiplication (the degrees involved in AVCC are
    /// tiny — at most `(K+T−1)·deg f` ≈ tens — so FFT multiplication is not
    /// warranted). Each output coefficient is one convolution window,
    /// computed as a dot product against a reversed copy of `other` so the
    /// sum-of-products runs through [`PrimeField::dot_product`] and inherits
    /// lazy reduction — this sits under the Berlekamp–Welch `Q/E` chains.
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let (a, b) = (&self.coefficients, &other.coefficients);
        let (n, m) = (a.len(), b.len());
        let reversed_b: Vec<F> = b.iter().rev().copied().collect();
        let coefficients = (0..n + m - 1)
            .map(|k| {
                // coefficient k = Σ_i a[i]·b[k−i] over the valid i-window;
                // with b reversed both operand windows are contiguous and
                // ascending.
                let lo = (k + 1).saturating_sub(m);
                let hi = (k + 1).min(n);
                // lo ≥ k+1−m keeps this index non-negative.
                let offset = m - 1 + lo - k;
                F::dot_product(&a[lo..hi], &reversed_b[offset..offset + (hi - lo)])
            })
            .collect();
        Self::from_coefficients(coefficients)
    }

    /// Multiplies every coefficient by the scalar `c`.
    pub fn scale(&self, c: F) -> Self {
        Self::from_coefficients(self.coefficients.iter().map(|&x| x * c).collect())
    }

    /// The formal derivative `p'(z) = Σ_i i·p_i·z^{i−1}`.
    pub fn derivative(&self) -> Self {
        let coefficients = self
            .coefficients
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, &c)| c * F::from_u64(i as u64))
            .collect();
        Self::from_coefficients(coefficients)
    }

    /// Polynomial long division, returning `(quotient, remainder)` such that
    /// `self = quotient · divisor + remainder` with
    /// `deg remainder < deg divisor`.
    ///
    /// # Panics
    /// Panics if `divisor` is the zero polynomial.
    pub fn div_rem(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "polynomial division by zero");
        if self.is_zero() || self.coefficients.len() < divisor.coefficients.len() {
            return (Self::zero(), self.clone());
        }
        let divisor_degree = divisor.coefficients.len() - 1;
        let leading_inverse = divisor.coefficients[divisor_degree].inverse();
        let mut remainder = self.coefficients.clone();
        let quotient_len = remainder.len() - divisor_degree;
        let mut quotient = vec![F::ZERO; quotient_len];
        for step in (0..quotient_len).rev() {
            let factor = remainder[step + divisor_degree] * leading_inverse;
            quotient[step] = factor;
            if factor.is_zero() {
                continue;
            }
            for (offset, &d) in divisor.coefficients.iter().enumerate() {
                remainder[step + offset] -= factor * d;
            }
        }
        (
            Self::from_coefficients(quotient),
            Self::from_coefficients(remainder),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avcc_field::F25;
    use proptest::prelude::*;

    fn poly(coeffs: &[i64]) -> Polynomial<F25> {
        Polynomial::from_coefficients(coeffs.iter().map(|&c| F25::from_i64(c)).collect())
    }

    #[test]
    fn zero_polynomial_has_no_degree() {
        assert_eq!(Polynomial::<F25>::zero().degree(), None);
        assert!(poly(&[0, 0, 0]).is_zero());
    }

    #[test]
    fn from_coefficients_trims_trailing_zeros() {
        let p = poly(&[1, 2, 0, 0]);
        assert_eq!(p.degree(), Some(1));
        assert_eq!(p.coefficients().len(), 2);
    }

    #[test]
    fn evaluation_uses_horner_correctly() {
        // p(z) = 3 + 2z + z^2, p(4) = 3 + 8 + 16 = 27
        let p = poly(&[3, 2, 1]);
        assert_eq!(p.evaluate(F25::from_u64(4)), F25::from_u64(27));
    }

    #[test]
    fn constant_polynomial_evaluates_to_constant() {
        let p = Polynomial::constant(F25::from_u64(7));
        assert_eq!(p.evaluate(F25::from_u64(999)), F25::from_u64(7));
    }

    #[test]
    fn monomial_has_expected_degree_and_value() {
        let p = Polynomial::monomial(F25::from_u64(5), 3);
        assert_eq!(p.degree(), Some(3));
        assert_eq!(p.evaluate(F25::from_u64(2)), F25::from_u64(40));
        assert!(Polynomial::monomial(F25::ZERO, 3).is_zero());
    }

    #[test]
    fn addition_and_subtraction_are_inverses() {
        let p = poly(&[1, 2, 3]);
        let q = poly(&[4, 5]);
        assert_eq!(p.add(&q).sub(&q), p);
    }

    #[test]
    fn multiplication_matches_known_product() {
        // (1 + z)(1 - z) = 1 - z^2
        let p = poly(&[1, 1]);
        let q = poly(&[1, -1]);
        assert_eq!(p.mul(&q), poly(&[1, 0, -1]));
    }

    #[test]
    fn multiplication_by_zero_is_zero() {
        let p = poly(&[1, 2, 3]);
        assert!(p.mul(&Polynomial::zero()).is_zero());
    }

    #[test]
    fn division_round_trips() {
        let p = poly(&[2, 7, 1, 5]);
        let d = poly(&[3, 1]);
        let (q, r) = p.div_rem(&d);
        assert_eq!(q.mul(&d).add(&r), p);
        assert!(r.degree().unwrap_or(0) < d.degree().unwrap());
    }

    #[test]
    fn division_of_lower_degree_returns_self_as_remainder() {
        let p = poly(&[1, 2]);
        let d = poly(&[1, 2, 3]);
        let (q, r) = p.div_rem(&d);
        assert!(q.is_zero());
        assert_eq!(r, p);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = poly(&[1]).div_rem(&Polynomial::zero());
    }

    #[test]
    fn derivative_matches_power_rule() {
        // p(z) = 3 + 2z + 5z^2 + z^3 → p'(z) = 2 + 10z + 3z^2
        let p = poly(&[3, 2, 5, 1]);
        assert_eq!(p.derivative(), poly(&[2, 10, 3]));
        assert!(Polynomial::<F25>::zero().derivative().is_zero());
        assert!(Polynomial::constant(F25::from_u64(7))
            .derivative()
            .is_zero());
    }

    #[test]
    fn evaluate_many_matches_individual_evaluations() {
        let p = poly(&[1, 0, 2]);
        let points: Vec<F25> = (0..5).map(F25::from_u64).collect();
        let values = p.evaluate_many(&points);
        for (point, value) in points.iter().zip(values.iter()) {
            assert_eq!(p.evaluate(*point), *value);
        }
    }

    fn arbitrary_poly() -> impl Strategy<Value = Polynomial<F25>> {
        proptest::collection::vec(0u64..F25::MODULUS, 0..8).prop_map(|coefficients| {
            Polynomial::from_coefficients(coefficients.into_iter().map(F25::from_u64).collect())
        })
    }

    proptest! {
        #[test]
        fn prop_mul_degree_adds(p in arbitrary_poly(), q in arbitrary_poly()) {
            let product = p.mul(&q);
            match (p.degree(), q.degree()) {
                (Some(dp), Some(dq)) => prop_assert_eq!(product.degree(), Some(dp + dq)),
                _ => prop_assert!(product.is_zero()),
            }
        }

        #[test]
        fn prop_evaluation_is_ring_homomorphism(
            p in arbitrary_poly(),
            q in arbitrary_poly(),
            point in 0u64..F25::MODULUS,
        ) {
            let point = F25::from_u64(point);
            prop_assert_eq!(p.add(&q).evaluate(point), p.evaluate(point) + q.evaluate(point));
            prop_assert_eq!(p.mul(&q).evaluate(point), p.evaluate(point) * q.evaluate(point));
        }

        #[test]
        fn prop_div_rem_reconstructs(p in arbitrary_poly(), d in arbitrary_poly()) {
            prop_assume!(!d.is_zero());
            let (q, r) = p.div_rem(&d);
            prop_assert_eq!(q.mul(&d).add(&r), p);
            if let Some(rd) = r.degree() {
                prop_assert!(rd < d.degree().unwrap());
            }
        }
    }
}
