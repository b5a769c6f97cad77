//! Cross-moduli equivalence: subproduct-tree interpolation against the dense
//! `LagrangeBasis`, and NTT polynomial multiplication against schoolbook
//! convolution — on all four moduli, over random straggler/Byzantine-style
//! survivor subsets, including boundary values near `q`.
//!
//! The decoder keeps the dense Lagrange combination as its correctness
//! oracle; these tests are the contract that makes that oracle meaningful:
//! whatever subset of points survives a round (stragglers drop trailing
//! workers, Byzantine eviction removes arbitrary ones), both interpolators
//! must produce bit-identical polynomials.

use avcc_field::{Fp, PrimeField, PrimeModulus, P25, P251, P61, P64};
use avcc_poly::{LagrangeBasis, Polynomial, SubproductTree, TreeInterpolator};
use proptest::prelude::*;

/// `count` pairwise-distinct points: an arithmetic run from `offset`, or a
/// descending run from `q − 1` to cover the boundary representatives.
fn distinct_points<M: PrimeModulus>(count: usize, offset: u64, near_boundary: bool) -> Vec<Fp<M>> {
    (0..count as u64)
        .map(|i| {
            if near_boundary {
                <Fp<M> as PrimeField>::from_u64(M::MODULUS - 1 - i)
            } else {
                <Fp<M> as PrimeField>::from_u64(offset.wrapping_add(i) % M::MODULUS)
            }
        })
        .collect()
}

/// Applies a survivor mask (the straggler/Byzantine subset pattern), keeping
/// at least one point so the interpolation problem stays well-posed.
fn surviving_subset<M: PrimeModulus>(
    points: &[Fp<M>],
    values: &[Fp<M>],
    mask: &[bool],
) -> (Vec<Fp<M>>, Vec<Fp<M>>) {
    let mut subset_points = Vec::new();
    let mut subset_values = Vec::new();
    for (i, (&p, &v)) in points.iter().zip(values.iter()).enumerate() {
        if mask.get(i).copied().unwrap_or(false) {
            subset_points.push(p);
            subset_values.push(v);
        }
    }
    if subset_points.is_empty() {
        subset_points.push(points[0]);
        subset_values.push(values[0]);
    }
    (subset_points, subset_values)
}

/// Tree interpolation must match the dense Lagrange interpolation
/// bit-for-bit, reproduce the values, and agree with the tree's fast
/// multipoint evaluation.
fn check_interpolation_matches<M: PrimeModulus>(points: Vec<Fp<M>>, values: Vec<Fp<M>>) {
    let tree_result = TreeInterpolator::new(points.clone()).interpolate(&values);
    let dense_result = LagrangeBasis::new(points.clone()).interpolate(&values);
    assert_eq!(tree_result, dense_result);
    let horner = tree_result.evaluate_many(&points);
    assert_eq!(horner, values);
    let multipoint = SubproductTree::new(points).evaluate(&tree_result);
    assert_eq!(multipoint, values);
}

macro_rules! cross_moduli_suite {
    ($module:ident, $modulus:ty, $max_points:expr) => {
        mod $module {
            use super::*;

            type M = $modulus;

            /// Uniform residues, with every eighth draw snapped next to `q`:
            /// the boundary is where lazy-reduction and carry bugs live.
            fn element() -> impl Strategy<Value = Fp<M>> {
                proptest::prelude::any::<u64>().prop_map(|v| {
                    if v % 8 == 0 {
                        <Fp<M> as PrimeField>::from_u64(
                            <M as PrimeModulus>::MODULUS - 1 - (v / 8) % 4,
                        )
                    } else {
                        <Fp<M> as PrimeField>::from_u64(v % <M as PrimeModulus>::MODULUS)
                    }
                })
            }

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(16))]

                #[test]
                fn prop_tree_interpolation_matches_lagrange_on_survivor_subsets(
                    count in 1usize..$max_points,
                    offset in 0u64..<M as PrimeModulus>::MODULUS,
                    near_boundary in any::<bool>(),
                    mask in proptest::collection::vec(any::<bool>(), $max_points),
                    values in proptest::collection::vec(element(), $max_points),
                ) {
                    let points = distinct_points::<M>(count, offset, near_boundary);
                    let values = values[..count].to_vec();
                    let (subset_points, subset_values) =
                        surviving_subset(&points, &values, &mask);
                    check_interpolation_matches(subset_points, subset_values);
                }

                #[test]
                fn prop_ntt_mul_matches_schoolbook(
                    a in proptest::collection::vec(element(), 1..96),
                    b in proptest::collection::vec(element(), 1..96),
                ) {
                    let a = Polynomial::from_coefficients(a);
                    let b = Polynomial::from_coefficients(b);
                    prop_assert_eq!(a.mul_fast(&b), a.mul(&b));
                }
            }
        }
    };
}

// P251 has only 251 residues, so its point runs stay short; the others get
// runs long enough that the survivor subsets cross the NTT-multiplication
// threshold on the NTT-capable modulus.
cross_moduli_suite!(p25, P25, 48);
cross_moduli_suite!(p61, P61, 48);
cross_moduli_suite!(p251, P251, 24);
cross_moduli_suite!(p64, P64, 48);

/// Survivor subsets of a genuine NTT coset layout — the exact point geometry
/// the decoder's tree path sees: the α-points `g·ω^i` of 16 and of 32
/// workers, all present (`missing = 0`, which has no other decode path) or
/// with a few missing.
#[test]
fn coset_survivor_subsets_interpolate_identically_on_p64() {
    for log_workers in [4u32, 5] {
        let omega = avcc_poly::root_of_unity::<P64>(log_workers);
        let shift = Fp::<P64>::new(<P64 as PrimeModulus>::GROUP_GENERATOR);
        let mut alpha = Vec::new();
        let mut power = shift;
        for _ in 0..(1usize << log_workers) {
            alpha.push(power);
            power *= omega;
        }
        let values: Vec<Fp<P64>> = (0..alpha.len() as u64)
            .map(|i| <Fp<P64> as PrimeField>::from_u64(i * i + 12345))
            .collect();
        for missing in [0usize, 1, 2, 4] {
            let points = alpha[missing..].to_vec();
            let survivor_values = values[missing..].to_vec();
            let tree_result = TreeInterpolator::new(points.clone()).interpolate(&survivor_values);
            let dense_result = LagrangeBasis::new(points).interpolate(&survivor_values);
            assert_eq!(
                tree_result,
                dense_result,
                "{missing} of {} workers missing",
                alpha.len()
            );
        }
    }
}
