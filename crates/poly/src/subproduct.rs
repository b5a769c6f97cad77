//! Subproduct trees: fast multipoint evaluation and fast interpolation over
//! arbitrary point sets.
//!
//! The decoder's straggler path (AVCC §IV-B with missing workers) has to
//! interpolate `f(u)` from whichever worker subset survived — the surviving
//! α-points are *not* a full coset, so the full-coset inverse NTT does not
//! apply, and the dense Lagrange combination costs `O(K·R)` per coordinate.
//! The classical subproduct-tree algorithms (von zur Gathen & Gerhard,
//! *Modern Computer Algebra*, ch. 10) bring this down to `O(n log² n)`:
//!
//! * [`SubproductTree`] — the vanishing polynomials of every leaf-pair
//!   subset, built bottom-up with [`Polynomial::mul_fast`]: level 0 holds the
//!   monic linears `z − x_i`, each parent the product of its children, the
//!   root the vanishing polynomial `Z(z) = Π (z − x_i)` of the whole set.
//! * [`SubproductTree::evaluate`] — fast multipoint evaluation: reduce the
//!   input polynomial modulo the two child polynomials and recurse; at the
//!   leaves the remainders *are* the values `p(x_i)`.
//! * [`TreeInterpolator`] — fast interpolation: the barycentric weight of
//!   `x_i` is `1/Z'(x_i)` (one multipoint evaluation of the derivative plus
//!   one shared batch inversion, both amortized over every interpolation with
//!   the same points), and the interpolant `Σ_i y_i/Z'(x_i) · Z(z)/(z − x_i)`
//!   is assembled bottom-up: each node combines its children's partial
//!   interpolants `u` as `u_left·Z_right + u_right·Z_left`.
//!
//! Two cost refinements matter for the decoder:
//!
//! * **Cached sibling transforms.** The combine-up products always pair a
//!   *fresh* partial interpolant with a *fixed* child vanishing polynomial,
//!   so each two-child node stores its children's forward NTTs once; a
//!   combine step is then two forward transforms, one pointwise pass and
//!   one inverse transform instead of the generic three-plus-three of two
//!   independent multiplications.
//! * **Vector lanes.** [`TreeInterpolator::interpolate_vectors`] runs the
//!   combine-up with whole data blocks as coefficients (the same lane layout
//!   as [`NttPlan::forward_vectors`]), interpolating every coordinate of the
//!   worker vectors in one tree pass — this is the decoder's workhorse.
//!
//! Everything degrades gracefully on fields without NTT metadata (the
//! products fall back to schoolbook convolution), so the tree is usable — and
//! proptested — on all three moduli, not just Goldilocks.

use std::collections::BTreeMap;

use avcc_field::{slice_axpy, Fp, PrimeField, PrimeModulus};

use crate::dense::Polynomial;
use crate::fast::{div_rem_fast_pooled, mul_fast_pooled, PlanPool, NTT_MUL_THRESHOLD};
use crate::ntt::NttPlan;

/// Cached forward transforms of a node's two children, sized for the
/// combine-up products (`next_pow2` of the node's leaf count — the partial
/// interpolants have degree strictly below their subtree's leaf count, so the
/// products never wrap).
#[derive(Debug, Clone)]
struct NodeNtt<M: PrimeModulus> {
    /// `log2` of the transform size (a key into the tree's plan map).
    log_n: u32,
    /// Forward NTT of the left child's vanishing polynomial.
    left: Vec<Fp<M>>,
    /// Forward NTT of the right child's vanishing polynomial.
    right: Vec<Fp<M>>,
}

/// One node of the tree: the vanishing polynomial of the leaves below it,
/// plus the cached child transforms when the node was formed from two
/// children at NTT-worthy size.
#[derive(Debug, Clone)]
struct TreeNode<M: PrimeModulus> {
    poly: Polynomial<Fp<M>>,
    ntt: Option<NodeNtt<M>>,
}

/// A subproduct tree over a fixed set of distinct points.
#[derive(Debug, Clone)]
pub struct SubproductTree<M: PrimeModulus> {
    points: Vec<Fp<M>>,
    /// `levels[0]` holds one `z − x_i` per point (in point order); each
    /// higher level pairs neighbours (an odd trailing node is carried up
    /// unchanged); the top level holds the single root.
    levels: Vec<Vec<TreeNode<M>>>,
    /// Shared transform plans, keyed by `log2` size — pre-built for every
    /// size the build, descents and combine-ups can need, so no product or
    /// division in the tree's lifetime re-derives a twiddle table.
    plans: PlanPool<M>,
}

impl<M: PrimeModulus> SubproductTree<M> {
    /// Builds the tree over `points`.
    ///
    /// # Panics
    /// Panics if `points` is empty or contains duplicates (the vanishing
    /// polynomial of a multiset has zero derivative at a repeated point, so
    /// interpolation would be ill-defined).
    pub fn new(points: Vec<Fp<M>>) -> Self {
        assert!(
            !points.is_empty(),
            "subproduct tree needs at least one point"
        );
        let mut sorted: Vec<u64> = points.iter().map(|p| p.value()).collect();
        sorted.sort_unstable();
        assert!(
            sorted.windows(2).all(|w| w[0] != w[1]),
            "subproduct tree points must be pairwise distinct"
        );
        // Pre-build every plan the tree can touch: products while building
        // (result ≤ n+1 coefficients), remainders while descending
        // (division products ≤ n+1) and combine-ups while interpolating
        // (products ≤ n). One O(size) table each, amortized over everything
        // the tree ever does.
        let mut plans = BTreeMap::new();
        if M::TWO_ADICITY > 0 {
            let max_log = (points.len() + 1).next_power_of_two().trailing_zeros();
            let min_log = NTT_MUL_THRESHOLD.trailing_zeros();
            for log_n in min_log..=max_log.min(M::TWO_ADICITY) {
                plans.insert(log_n, NttPlan::<M>::new(log_n));
            }
        }
        let leaves: Vec<TreeNode<M>> = points
            .iter()
            .map(|&x| TreeNode {
                poly: Polynomial::from_coefficients(vec![-x, Fp::<M>::ONE]),
                ntt: None,
            })
            .collect();
        let mut levels = vec![leaves];
        while levels.last().expect("at least one level").len() > 1 {
            let previous = levels.last().expect("at least one level");
            let mut next = Vec::with_capacity(previous.len().div_ceil(2));
            let mut i = 0;
            while i < previous.len() {
                if i + 1 == previous.len() {
                    // Odd trailing node: carried up unchanged.
                    next.push(TreeNode {
                        poly: previous[i].poly.clone(),
                        ntt: None,
                    });
                } else {
                    next.push(Self::merge(&previous[i], &previous[i + 1], &mut plans));
                }
                i += 2;
            }
            levels.push(next);
        }
        SubproductTree {
            points,
            levels,
            plans,
        }
    }

    /// Forms a parent from two children: product polynomial plus, at
    /// NTT-worthy sizes, the cached child transforms for combine-up reuse.
    fn merge(left: &TreeNode<M>, right: &TreeNode<M>, plans: &mut PlanPool<M>) -> TreeNode<M> {
        let poly = mul_fast_pooled(&left.poly, &right.poly, Some(plans));
        let node_size = poly.degree().expect("vanishing polynomials are nonzero");
        let log_n = node_size.next_power_of_two().trailing_zeros();
        let ntt = (node_size >= NTT_MUL_THRESHOLD && M::TWO_ADICITY > 0 && log_n <= M::TWO_ADICITY)
            .then(|| {
                let plan = plans
                    .entry(log_n)
                    .or_insert_with(|| NttPlan::<M>::new(log_n));
                let n = plan.len();
                let mut left_transform = left.poly.coefficients().to_vec();
                left_transform.resize(n, Fp::<M>::ZERO);
                plan.forward(&mut left_transform);
                let mut right_transform = right.poly.coefficients().to_vec();
                right_transform.resize(n, Fp::<M>::ZERO);
                plan.forward(&mut right_transform);
                NodeNtt {
                    log_n,
                    left: left_transform,
                    right: right_transform,
                }
            });
        TreeNode { poly, ntt }
    }

    /// The points the tree was built over, in their original order.
    pub fn points(&self) -> &[Fp<M>] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` iff the tree is empty (never, for a constructed tree).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The vanishing polynomial `Z(z) = Π_i (z − x_i)` of the whole set.
    pub fn vanishing(&self) -> &Polynomial<Fp<M>> {
        &self.levels.last().expect("at least one level")[0].poly
    }

    /// Fast multipoint evaluation: `p(x_i)` for every tree point, in point
    /// order — `O(n log² n)` against Horner's `O(n·deg p)`.
    pub fn evaluate(&self, p: &Polynomial<Fp<M>>) -> Vec<Fp<M>> {
        let root = self.vanishing();
        let remainder = if p.coefficients().len() >= root.coefficients().len() {
            div_rem_fast_pooled(p, root, Some(&self.plans)).1
        } else {
            p.clone()
        };
        let mut values = vec![Fp::<M>::ZERO; self.points.len()];
        self.descend(self.levels.len() - 1, 0, remainder, &mut values);
        values
    }

    /// Pushes `remainder` (already reduced modulo this node's polynomial)
    /// down to the leaves below `(level, index)`.
    fn descend(&self, level: usize, index: usize, remainder: Polynomial<Fp<M>>, out: &mut [Fp<M>]) {
        if level == 0 {
            // Remainder modulo the monic linear z − x_i is the constant p(x_i).
            out[index] = remainder.coefficient(0);
            return;
        }
        let child_level = level - 1;
        let left = 2 * index;
        let right = left + 1;
        if right >= self.levels[child_level].len() {
            // Carried node: same polynomial one level down, remainder unchanged.
            self.descend(child_level, left, remainder, out);
            return;
        }
        let left_rem = div_rem_fast_pooled(
            &remainder,
            &self.levels[child_level][left].poly,
            Some(&self.plans),
        )
        .1;
        let right_rem = div_rem_fast_pooled(
            &remainder,
            &self.levels[child_level][right].poly,
            Some(&self.plans),
        )
        .1;
        self.descend(child_level, left, left_rem, out);
        self.descend(child_level, right, right_rem, out);
    }
}

/// A reusable fast interpolator over a fixed point set: the subproduct tree
/// plus the batch-inverted derivative values `1/Z'(x_i)` — everything that
/// does not depend on the interpolated values, so consecutive decodes with
/// the same surviving-worker set pay only the combine-up.
#[derive(Debug, Clone)]
pub struct TreeInterpolator<M: PrimeModulus> {
    tree: SubproductTree<M>,
    /// `1 / Z'(x_i)` in point order (the barycentric weights).
    inverse_derivative: Vec<Fp<M>>,
}

impl<M: PrimeModulus> TreeInterpolator<M> {
    /// Builds the interpolator (tree, derivative evaluation, one shared batch
    /// inversion) for the given distinct points.
    ///
    /// # Panics
    /// Panics if `points` is empty or contains duplicates.
    pub fn new(points: Vec<Fp<M>>) -> Self {
        Self::from_tree(SubproductTree::new(points))
    }

    /// Builds the interpolator from an existing tree.
    pub fn from_tree(tree: SubproductTree<M>) -> Self {
        let derivative = tree.vanishing().derivative();
        let derivative_values = tree.evaluate(&derivative);
        // Distinct points make Z'(x_i) = Π_{j≠i}(x_i − x_j) nonzero, so the
        // batch inversion cannot hit a zero.
        let inverse_derivative = <Fp<M> as PrimeField>::batch_inverse(&derivative_values);
        TreeInterpolator {
            tree,
            inverse_derivative,
        }
    }

    /// The underlying tree.
    pub fn tree(&self) -> &SubproductTree<M> {
        &self.tree
    }

    /// The interpolation points, in their original order.
    pub fn points(&self) -> &[Fp<M>] {
        self.tree.points()
    }

    /// Interpolates the unique polynomial of degree `< n` with
    /// `p(x_i) = values[i]`.
    ///
    /// # Panics
    /// Panics if `values.len()` differs from the number of points.
    pub fn interpolate(&self, values: &[Fp<M>]) -> Polynomial<Fp<M>> {
        let lanes: Vec<&[Fp<M>]> = values.chunks(1).collect();
        let coefficient_lanes = self.interpolate_vectors(&lanes);
        Polynomial::from_coefficients(coefficient_lanes.into_iter().map(|lane| lane[0]).collect())
    }

    /// Vector-lane interpolation: `values[i]` is a whole data block, and the
    /// returned `n` lanes are the coefficient *vectors* of the per-coordinate
    /// interpolants (lane `d`, coordinate `c` is the degree-`d` coefficient
    /// of the polynomial through `(x_i, values[i][c])`). One tree pass
    /// interpolates every coordinate at once — the decoder's straggler path.
    /// Blocks are borrowed (`AsRef`), so callers holding `&[Vec<…>]` or
    /// `&[&[…]]` pass them without copying.
    ///
    /// # Panics
    /// Panics if `values.len()` differs from the number of points or the
    /// blocks disagree in length.
    pub fn interpolate_vectors<V: AsRef<[Fp<M>]>>(&self, values: &[V]) -> Vec<Vec<Fp<M>>> {
        let n = self.tree.len();
        assert_eq!(values.len(), n, "interpolation needs one value per point");
        let width = values[0].as_ref().len();
        // Leaf lanes: the barycentric weights y_i / Z'(x_i), one single-lane
        // partial interpolant (degree < 1) per leaf.
        let mut ups: Vec<Vec<Vec<Fp<M>>>> = values
            .iter()
            .zip(self.inverse_derivative.iter())
            .map(|(block, &weight)| {
                let block = block.as_ref();
                assert_eq!(block.len(), width, "interpolated blocks must share a width");
                vec![block.iter().map(|&v| v * weight).collect()]
            })
            .collect();
        // Combine upward: at each two-child node,
        //   up = up_left·Z_right + up_right·Z_left,
        // a polynomial of degree < node leaf count (lanes = coefficients).
        for level in 1..self.tree.levels.len() {
            let nodes = &self.tree.levels[level];
            let mut next_ups: Vec<Vec<Vec<Fp<M>>>> = Vec::with_capacity(nodes.len());
            let mut pairs = ups.into_iter();
            for node in nodes {
                let left_up = pairs.next().expect("one partial interpolant per child");
                let Some(right_up) = pairs.next() else {
                    // Carried node: partial interpolant passes through.
                    next_ups.push(left_up);
                    break;
                };
                let child_level = &self.tree.levels[level - 1];
                let left_index = 2 * (next_ups.len());
                let left_poly = &child_level[left_index].poly;
                let right_poly = &child_level[left_index + 1].poly;
                next_ups.push(self.combine(node, left_up, right_up, left_poly, right_poly, width));
            }
            ups = next_ups;
        }
        let mut root = ups.pop().expect("the root has a partial interpolant");
        root.resize(n, vec![Fp::<M>::ZERO; width]);
        root
    }

    /// One combine-up step: `up_left·Z_right + up_right·Z_left`, through the
    /// node's cached child transforms when present (two forward transforms,
    /// one pointwise scalar-×-lane pass, one inverse transform), schoolbook
    /// lane convolution otherwise.
    fn combine(
        &self,
        node: &TreeNode<M>,
        left_up: Vec<Vec<Fp<M>>>,
        right_up: Vec<Vec<Fp<M>>>,
        left_poly: &Polynomial<Fp<M>>,
        right_poly: &Polynomial<Fp<M>>,
        width: usize,
    ) -> Vec<Vec<Fp<M>>> {
        let node_size = node
            .poly
            .degree()
            .expect("vanishing polynomials are nonzero");
        if let Some(ntt) = &node.ntt {
            let plan = self.plan(ntt.log_n);
            let n = plan.len();
            let zero_lane = vec![Fp::<M>::ZERO; width];
            let mut left_lanes = left_up;
            left_lanes.resize(n, zero_lane.clone());
            let mut right_lanes = right_up;
            right_lanes.resize(n, zero_lane);
            plan.forward_vectors(&mut left_lanes);
            plan.forward_vectors(&mut right_lanes);
            // Pointwise: out_j = L_j·Ẑ_right[j] + R_j·Ẑ_left[j].
            for ((left_lane, right_lane), (&right_tf, &left_tf)) in left_lanes
                .iter_mut()
                .zip(right_lanes.iter())
                .zip(ntt.right.iter().zip(ntt.left.iter()))
            {
                for value in left_lane.iter_mut() {
                    *value *= right_tf;
                }
                slice_axpy(left_lane, left_tf, right_lane);
            }
            plan.inverse_vectors(&mut left_lanes);
            left_lanes.truncate(node_size);
            left_lanes
        } else {
            // Schoolbook lane convolution (small nodes, or fields without
            // NTT metadata): out[a+b] += Z[b]·up[a].
            let mut out = vec![vec![Fp::<M>::ZERO; width]; node_size];
            for (scalar_poly, up) in [(right_poly, &left_up), (left_poly, &right_up)] {
                for (b, &coefficient) in scalar_poly.coefficients().iter().enumerate() {
                    if coefficient.is_zero() {
                        continue;
                    }
                    for (a, lane) in up.iter().enumerate() {
                        slice_axpy(&mut out[a + b], coefficient, lane);
                    }
                }
            }
            out
        }
    }

    /// Looks up a shared plan by `log2` size (always present: `merge` created
    /// it when it cached the node transforms).
    fn plan(&self, log_n: u32) -> &NttPlan<M> {
        self.tree
            .plans
            .get(&log_n)
            .expect("cached node transforms imply a cached plan")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lagrange::LagrangeBasis;
    use avcc_field::{F25, F64, P25, P64};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_points(n: usize, seed: u64) -> Vec<F64> {
        // Distinct by construction: offset + i for random offset.
        let mut rng = StdRng::seed_from_u64(seed);
        let offset: F64 = avcc_field::random_vector(&mut rng, 1)[0];
        (0..n as u64).map(|i| offset + F64::from_u64(i)).collect()
    }

    #[test]
    fn vanishing_polynomial_is_monic_and_vanishes() {
        for n in [1usize, 2, 3, 7, 8, 33, 64] {
            let points = random_points(n, n as u64);
            let tree = SubproductTree::new(points.clone());
            let vanishing = tree.vanishing();
            assert_eq!(vanishing.degree(), Some(n));
            assert_eq!(vanishing.coefficient(n), F64::ONE);
            for &x in &points {
                assert_eq!(vanishing.evaluate(x), F64::ZERO);
            }
        }
    }

    #[test]
    fn multipoint_evaluation_matches_horner() {
        for n in [1usize, 2, 5, 16, 40, 65] {
            let points = random_points(n, 100 + n as u64);
            let tree = SubproductTree::new(points.clone());
            let mut rng = StdRng::seed_from_u64(999);
            let p: Polynomial<F64> =
                Polynomial::from_coefficients(avcc_field::random_vector(&mut rng, 80));
            assert_eq!(tree.evaluate(&p), p.evaluate_many(&points), "n = {n}");
        }
    }

    #[test]
    fn interpolation_matches_lagrange_basis() {
        for n in [1usize, 2, 3, 9, 31, 64, 65] {
            let points = random_points(n, 200 + n as u64);
            let mut rng = StdRng::seed_from_u64(n as u64);
            let values: Vec<F64> = avcc_field::random_vector(&mut rng, n);
            let interpolator = TreeInterpolator::new(points.clone());
            let tree_result = interpolator.interpolate(&values);
            let dense_result = LagrangeBasis::new(points).interpolate(&values);
            assert_eq!(tree_result, dense_result, "n = {n}");
        }
    }

    #[test]
    fn vector_interpolation_matches_scalar_per_coordinate() {
        let n = 48;
        let width = 5;
        let points = random_points(n, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let blocks: Vec<Vec<F64>> = (0..n)
            .map(|_| avcc_field::random_vector(&mut rng, width))
            .collect();
        let interpolator = TreeInterpolator::new(points);
        let lanes = interpolator.interpolate_vectors(&blocks);
        assert_eq!(lanes.len(), n);
        for coordinate in 0..width {
            let scalar_values: Vec<F64> = blocks.iter().map(|b| b[coordinate]).collect();
            let scalar_poly = interpolator.interpolate(&scalar_values);
            for (degree, lane) in lanes.iter().enumerate() {
                assert_eq!(
                    lane[coordinate],
                    scalar_poly.coefficient(degree),
                    "coordinate {coordinate}, degree {degree}"
                );
            }
        }
    }

    #[test]
    fn works_on_fields_without_ntt_metadata() {
        // P25 declares no two-adicity: every product falls back to
        // schoolbook, the algorithms stay correct.
        let points: Vec<F25> = (1..=40).map(F25::from_u64).collect();
        let values: Vec<F25> = (0..40u64).map(|i| F25::from_u64(i * i + 3)).collect();
        let interpolator = TreeInterpolator::new(points.clone());
        assert_eq!(
            interpolator.interpolate(&values),
            LagrangeBasis::new(points).interpolate(&values)
        );
    }

    #[test]
    fn single_point_interpolation_is_constant() {
        let interpolator = TreeInterpolator::<P64>::new(vec![F64::from_u64(42)]);
        let p = interpolator.interpolate(&[F64::from_u64(7)]);
        assert_eq!(p, Polynomial::constant(F64::from_u64(7)));
    }

    #[test]
    #[should_panic(expected = "pairwise distinct")]
    fn duplicate_points_panic() {
        let _ = SubproductTree::<P64>::new(vec![F64::ONE, F64::ONE]);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_tree_panics() {
        let _ = SubproductTree::<P25>::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "one value per point")]
    fn interpolation_length_mismatch_panics() {
        let interpolator = TreeInterpolator::<P64>::new(random_points(4, 1));
        let _ = interpolator.interpolate(&[F64::ONE]);
    }
}
