//! Lagrange basis polynomials and interpolation.
//!
//! The AVCC / LCC encoder is built directly on the Lagrange basis (paper
//! eq. 12–13): for distinct points `β_1..β_{K+T}` the basis monomial
//!
//! ```text
//! ℓ_j(z) = Π_{k≠j} (z − β_k) / (β_j − β_k)
//! ```
//!
//! satisfies `ℓ_j(β_j) = 1` and `ℓ_j(β_k) = 0` for `k ≠ j`, so the encoding
//! polynomial `u(z) = Σ_j X_j ℓ_j(z)` passes through the data blocks at the
//! β-points. Decoding is interpolation from any `deg+1` evaluations.

use avcc_field::PrimeField;

/// A precomputed Lagrange basis over a fixed set of distinct interpolation
/// points.
///
/// Precomputing the basis lets the encoder evaluate all `ℓ_j(α_i)` once and
/// reuse them across the (potentially many) columns of the data matrix.
#[derive(Debug, Clone)]
pub struct LagrangeBasis<F: PrimeField> {
    points: Vec<F>,
    /// `weights[j] = Π_{k≠j} (β_j − β_k)^{-1}` — barycentric weights.
    weights: Vec<F>,
}

impl<F: PrimeField> LagrangeBasis<F> {
    /// Builds the basis for the given distinct points.
    ///
    /// # Panics
    /// Panics if the points are not pairwise distinct or the set is empty.
    pub fn new(points: Vec<F>) -> Self {
        assert!(
            !points.is_empty(),
            "Lagrange basis needs at least one point"
        );
        let mut denominators = Vec::with_capacity(points.len());
        for (j, &beta_j) in points.iter().enumerate() {
            let mut denominator = F::ONE;
            for (k, &beta_k) in points.iter().enumerate() {
                if j == k {
                    continue;
                }
                let difference = beta_j - beta_k;
                assert!(
                    !difference.is_zero(),
                    "Lagrange basis points must be pairwise distinct"
                );
                denominator *= difference;
            }
            denominators.push(denominator);
        }
        // One Montgomery batch inversion instead of one Fermat exponentiation
        // per point — this constructor sits on the decoder's per-iteration
        // path.
        let weights = F::batch_inverse(&denominators);
        LagrangeBasis { points, weights }
    }

    /// The interpolation points `β_j`.
    pub fn points(&self) -> &[F] {
        &self.points
    }

    /// Number of basis polynomials.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` iff the basis is empty (never true for a constructed basis).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Evaluates every basis monomial `ℓ_j` at the point `z`, returning the
    /// vector `[ℓ_1(z), …, ℓ_n(z)]`.
    ///
    /// If `z` coincides with one of the interpolation points the result is the
    /// corresponding indicator vector (handled exactly, not via division).
    pub fn evaluate_at(&self, z: F) -> Vec<F> {
        self.evaluate_at_many(core::slice::from_ref(&z))
            .pop()
            .expect("one basis row per target")
    }

    /// Evaluates every basis monomial at each of `targets`, returning one
    /// `[ℓ_1(z), …, ℓ_n(z)]` row per target.
    ///
    /// All non-indicator targets share a **single** batch inversion over the
    /// flattened difference vectors: one Fermat inversion and one
    /// `3(n·m − 1)`-multiply chain for `m` targets over `n` points, instead
    /// of `m` separate inversions — the shape the decoder's Lagrange
    /// fallback hits once per output block.
    pub fn evaluate_at_many(&self, targets: &[F]) -> Vec<Vec<F>> {
        let n = self.points.len();
        // Pass 1: resolve indicator targets (z equal to an interpolation
        // point) exactly, and flatten every other target's differences into
        // one batch-inversion input.
        let mut indicator_slots: Vec<Option<usize>> = Vec::with_capacity(targets.len());
        let mut flat_differences: Vec<F> = Vec::new();
        for &z in targets {
            if let Some(index) = self.points.iter().position(|&p| p == z) {
                indicator_slots.push(Some(index));
            } else {
                indicator_slots.push(None);
                flat_differences.extend(self.points.iter().map(|&p| z - p));
            }
        }
        let inverses = F::batch_inverse(&flat_differences);
        // Pass 2: assemble ℓ_j(z) = w_j · Π_k (z − β_k) / (z − β_j) per
        // target from its slice of the shared inversion.
        let mut rows = Vec::with_capacity(targets.len());
        let mut offset = 0;
        for slot in indicator_slots {
            match slot {
                Some(index) => {
                    let mut indicator = vec![F::ZERO; n];
                    indicator[index] = F::ONE;
                    rows.push(indicator);
                }
                None => {
                    let differences = &flat_differences[offset..offset + n];
                    let full_product: F = differences.iter().copied().product();
                    rows.push(
                        inverses[offset..offset + n]
                            .iter()
                            .zip(self.weights.iter())
                            .map(|(&inverse_j, &weight_j)| full_product * inverse_j * weight_j)
                            .collect(),
                    );
                    offset += n;
                }
            }
        }
        rows
    }
}

/// Evaluates at `target` the unique polynomial of degree `< points.len()`
/// through the `(point, value)` pairs, without materializing it: one basis
/// evaluation and a dot product. The encoder's tests check shares against
/// it.
///
/// # Panics
/// Panics if the lengths differ, or on the conditions of
/// [`LagrangeBasis::new`].
pub fn interpolate_eval<F: PrimeField>(points: &[F], values: &[F], target: F) -> F {
    assert_eq!(
        points.len(),
        values.len(),
        "interpolate_eval length mismatch"
    );
    let basis_at_target = LagrangeBasis::new(points.to_vec()).evaluate_at(target);
    F::dot_product(values, &basis_at_target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use avcc_field::F25;
    use proptest::prelude::*;

    fn pts(values: &[u64]) -> Vec<F25> {
        values.iter().map(|&v| F25::from_u64(v)).collect()
    }

    /// `Σ_i coefficients[i]·z^i`, by Horner's rule.
    fn horner(coefficients: &[F25], z: F25) -> F25 {
        coefficients
            .iter()
            .rev()
            .fold(F25::ZERO, |acc, &c| acc * z + c)
    }

    #[test]
    fn basis_is_indicator_at_its_own_points() {
        let basis = LagrangeBasis::new(pts(&[1, 2, 3, 4]));
        for (j, &point) in basis.points().iter().enumerate() {
            let values = basis.evaluate_at(point);
            for (k, &value) in values.iter().enumerate() {
                let expected = if j == k { F25::ONE } else { F25::ZERO };
                assert_eq!(value, expected);
            }
        }
    }

    #[test]
    fn basis_values_sum_to_one_everywhere() {
        // Σ_j ℓ_j(z) = 1 because it interpolates the constant-1 polynomial.
        let basis = LagrangeBasis::new(pts(&[5, 9, 11, 200, 4321]));
        for z in [0u64, 7, 100, 999_999] {
            let sum: F25 = basis.evaluate_at(F25::from_u64(z)).into_iter().sum();
            assert_eq!(sum, F25::ONE);
        }
    }

    #[test]
    fn evaluate_at_many_matches_per_target_evaluation() {
        let basis = LagrangeBasis::new(pts(&[5, 9, 11, 200]));
        // A mix of ordinary targets and indicator targets (9 and 200 are
        // interpolation points), exercising the shared-inversion offsets.
        let targets = pts(&[0, 9, 7, 200, 999_999]);
        let rows = basis.evaluate_at_many(&targets);
        assert_eq!(rows.len(), targets.len());
        for (&z, row) in targets.iter().zip(rows.iter()) {
            assert_eq!(row, &basis.evaluate_at(z), "target {z}");
        }
        assert!(basis.evaluate_at_many(&[]).is_empty());
    }

    #[test]
    fn interpolation_recovers_known_polynomial() {
        // p(z) = 7 + 3z + z^2, off its interpolation points too.
        let p = pts(&[7, 3, 1]);
        let points = pts(&[10, 20, 30]);
        let values: Vec<F25> = points.iter().map(|&z| horner(&p, z)).collect();
        for z in pts(&[0, 10, 15, 999_999]) {
            assert_eq!(interpolate_eval(&points, &values, z), horner(&p, z));
        }
    }

    #[test]
    fn interpolate_eval_matches_full_interpolation() {
        let p = pts(&[1, 2, 3, 4]);
        let points = pts(&[100, 200, 300, 400]);
        let values: Vec<F25> = points.iter().map(|&z| horner(&p, z)).collect();
        let target = F25::from_u64(55);
        assert_eq!(
            interpolate_eval(&points, &values, target),
            horner(&p, target)
        );
    }

    #[test]
    fn interpolation_through_single_point_is_constant() {
        for z in pts(&[0, 42, 1000]) {
            assert_eq!(
                interpolate_eval(&pts(&[42]), &pts(&[7]), z),
                F25::from_u64(7)
            );
        }
    }

    #[test]
    #[should_panic(expected = "pairwise distinct")]
    fn duplicate_points_panic() {
        let _ = LagrangeBasis::new(pts(&[1, 2, 2]));
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_basis_panics() {
        let _ = LagrangeBasis::<F25>::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn interpolation_length_mismatch_panics() {
        let _ = interpolate_eval(&pts(&[1, 2, 3]), &pts(&[1, 2]), F25::ZERO);
    }

    proptest! {
        #[test]
        fn prop_interpolation_round_trips(
            coefficients in proptest::collection::vec(0u64..F25::MODULUS, 1..8),
            offset in 1u64..1000,
            target in 0u64..F25::MODULUS,
        ) {
            // Through n distinct points offset..offset+n, the interpolant of
            // a degree-(< n) polynomial's values is that polynomial: it
            // agrees with it anywhere.
            let p = pts(&coefficients);
            let points: Vec<F25> = (0..p.len() as u64).map(|i| F25::from_u64(offset + i)).collect();
            let values: Vec<F25> = points.iter().map(|&z| horner(&p, z)).collect();
            let target = F25::from_u64(target);
            prop_assert_eq!(interpolate_eval(&points, &values, target), horner(&p, target));
        }

        #[test]
        fn prop_any_subset_of_evaluations_decodes_low_degree_polynomial(
            coefficients in proptest::collection::vec(0u64..F25::MODULUS, 1..5),
            extra in 1usize..5,
            target in 0u64..F25::MODULUS,
        ) {
            // Evaluate at degree+1+extra points; any (degree+1)-subset — here
            // the *last* `needed` evaluations — recovers p (the MDS property
            // every erasure decode rests on).
            let p = pts(&coefficients);
            let needed = p.len();
            let total = needed + extra;
            let points: Vec<F25> = (1..=total as u64).map(F25::from_u64).collect();
            let values: Vec<F25> = points.iter().map(|&z| horner(&p, z)).collect();
            let target = F25::from_u64(target);
            prop_assert_eq!(
                interpolate_eval(&points[extra..], &values[extra..], target),
                horner(&p, target)
            );
        }
    }
}
