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

    /// Schoolbook polynomial multiplication (the degrees involved in AVCC are
    /// tiny — at most `(K+T−1)·deg f` ≈ tens — so FFT multiplication is not
    /// warranted). Each output coefficient is one convolution window,
    /// computed as a dot product against a reversed copy of `other` so the
    /// sum-of-products runs through [`PrimeField::dot_product`] and inherits
    /// lazy reduction.
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
    }
}
