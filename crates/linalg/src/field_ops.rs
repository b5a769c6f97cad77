//! Field-matrix kernels: the serial matrix–vector and transpose–vector
//! products.
//!
//! The worker-side computations of the paper's two-round logistic-regression
//! protocol are exactly these kernels: round one computes `z̃ = X̃ w`
//! ([`mat_vec`]) and round two computes `g̃ = X̃ᵀ e` ([`matt_vec`]);
//! [`matt_vec`] is also the kernel of Freivalds key generation
//! (`s = rᵀ·X̃`).
//!
//! Both are built on *lazy reduction* (see [`avcc_field::batch`]):
//! unreduced products accumulate in lanes that pass through the modulus's
//! specialized [`PrimeModulus::reduce_wide`] backend as rarely as the
//! modulus allows, so the inner loops are multiply-add only — no division,
//! no per-element reduction. There are two lane kinds, chosen per modulus at
//! compile time by [`narrow_lanes`]: for `q ≤ 2^32` (the paper's 25-bit
//! field) a `u64` fed 32 × 32 → 64-bit products, which the optimizer turns
//! into vector code, collapsed once per [`narrow_batch`] products (16 384
//! for the 25-bit field); for every larger modulus a carry-counting `u128`
//! ([`CarryAccumulator`]), reduced once at the end. [`mat_vec`] reads its
//! operands as field elements or, for a narrow modulus, as the `u32`s a
//! socket worker stores ([`Residue`]).
//!
//! * [`mat_vec`] — register-blocked: four rows share one streaming pass over
//!   `x`, each with its own lazy accumulator and **one reduction per row**
//!   per batch.
//! * [`matt_vec`] — one [`WideAccumulator`] over the output columns, fed two
//!   rows per pass; the matrix streams through row-major exactly once.
//!
//! Parallelism lives one level up: the executors in `avcc_sim` run one
//! worker's kernel per worker thread or process, so the kernels themselves
//! stay serial.

use avcc_field::batch::{
    assert_narrow_batch, assert_wide_batch, narrow_batch, narrow_lanes, narrow_product,
    CarryAccumulator,
};
use avcc_field::{Fp, PrimeModulus, Residue, WideAccumulator};

use crate::matrix::Matrix;

/// Matrix–vector product `A·x` over the field.
///
/// Rows are processed four at a time so each streamed load of `x[j]` feeds
/// four multiply-adds. Accumulation is lazy and the lane kind is selected
/// per modulus by the `const` [`narrow_lanes`], exactly as in
/// [`avcc_field::dot`] (which also finishes the up-to-three remainder rows):
///
/// * narrow moduli (the 25-bit field) keep a `u64` per row, fed
///   [`narrow_product`]s and collapsed once per [`narrow_batch`] columns (for
///   a row shorter than 16 384: once) — four multiply-add reductions the
///   optimizer runs in vector registers. On a 200 × 261 `train_quiet` block
///   this took 24.0 µs in `u128` lanes and takes 8.8 µs (the
///   `matmul/train_quiet_block/p25` bench); in the e2e probe
///   `linalg.mat_vec_ns_per_mac` 0.46–0.47 → 0.18–0.20 ns per multiply-add;
/// * the others count carries and reduce once per row — Goldilocks overflows
///   a `u128` at almost every product. On `matmul_batch` (240 × 512
///   Goldilocks blocks, 8 inputs) counting carries instead of reducing every
///   product takes the worker's compute from 1.6–1.8 to 0.6–0.7 ns per
///   multiply-add (`linalg.mat_vec_ns_per_mac`).
///
/// The block and `x` share one storage ([`Residue`]): field elements, or —
/// for a narrow modulus — `u32`s, as a socket worker keeps them. The output
/// comes back in the same storage. One loop body serves both, stepping
/// [`Residue::NARROW_STEP`] columns at a time (one field element, or two
/// `u32`s read as a word). Over `u32` it streams half the bytes: twelve
/// workers' `train_quiet` blocks (200 × 261 and 29 × 1 800) multiplied in
/// turn, so each comes from beyond the cache, take 13.6–18.0 µs per task as
/// field elements and 9.4–11.0 as `u32`s; one block in cache, 8.5–9.0 and
/// 8.1–8.4 (`matmul/train_quiet_block/p25`, three runs on a 2-vCPU host).
///
/// # Panics
/// Panics if `x.len() != A.cols()`.
pub fn mat_vec<M: PrimeModulus, E: Residue<M>>(a: &Matrix<E>, x: &[E]) -> Vec<E> {
    const {
        assert_wide_batch::<M>();
        assert_narrow_batch::<M>();
    }
    assert_eq!(a.cols(), x.len(), "mat_vec dimension mismatch");
    let rows = a.rows();
    let mut out = Vec::with_capacity(rows);
    let mut row = 0;
    // Four-row micro-kernel: one pass over x feeds four accumulators.
    while row + 4 <= rows {
        let (r0, r1, r2, r3) = (a.row(row), a.row(row + 1), a.row(row + 2), a.row(row + 3));
        if const { narrow_lanes::<M>() } {
            let (batch, step) = (narrow_batch::<M>(), E::NARROW_STEP);
            let mut acc = [0u64; 4];
            let bands = (x.chunks(batch).zip(r0.chunks(batch)).zip(r1.chunks(batch)))
                .zip(r2.chunks(batch))
                .zip(r3.chunks(batch));
            for ((((x, r0), r1), r2), r3) in bands {
                let steps = (x.chunks_exact(step).zip(r0.chunks_exact(step)))
                    .zip(r1.chunks_exact(step))
                    .zip(r2.chunks_exact(step))
                    .zip(r3.chunks_exact(step));
                for ((((xj, a0), a1), a2), a3) in steps {
                    acc[0] += E::narrow_step(a0, xj);
                    acc[1] += E::narrow_step(a1, xj);
                    acc[2] += E::narrow_step(a2, xj);
                    acc[3] += E::narrow_step(a3, xj);
                }
                // The band's last `len % step` columns, one at a time.
                for j in x.len() - x.len() % step..x.len() {
                    acc[0] += narrow_product(r0[j], x[j]);
                    acc[1] += narrow_product(r1[j], x[j]);
                    acc[2] += narrow_product(r2[j], x[j]);
                    acc[3] += narrow_product(r3[j], x[j]);
                }
                acc = acc.map(|lane| M::reduce_wide(lane as u128));
            }
            // Every lane was just collapsed to a canonical representative
            // (or never left zero), so storing it only compares.
            out.extend(acc.map(E::from_residue));
        } else {
            let mut acc = [CarryAccumulator::default(); 4];
            for ((((&xj, &a0), &a1), &a2), &a3) in x.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
                acc[0].add_product(a0, xj);
                acc[1].add_product(a1, xj);
                acc[2].add_product(a2, xj);
                acc[3].add_product(a3, xj);
            }
            out.extend(acc.map(|lane| E::from_residue(lane.finish::<M>().value())));
        }
        row += 4;
    }
    // Remainder rows: plain lazy dot.
    for r in row..rows {
        out.push(avcc_field::dot(a.row(r), x));
    }
    out
}

/// Transpose–vector product `Aᵀ·y` over the field, computed without
/// materializing the transpose: one [`WideAccumulator`] over the output
/// columns absorbs `y[i]·A[i,·]` per row, reducing once per column at the
/// end; the matrix streams through row-major exactly once.
///
/// Rows go in two at a time ([`WideAccumulator::axpy_rows`]), so each
/// accumulator lane is loaded and stored once per two products. Measured on
/// a 240 × 512 Goldilocks block (a `matmul_batch` share — this is the kernel
/// of its Freivalds keys), ns per multiply-add by rows per pass: 0.93 for
/// one, 0.66 for two, 0.62 for three, 1.01 for four and no better up to six —
/// from four rows on the row pointers, scalars and the carry-counting lane
/// no longer fit the register file. Two, not three: it sits further from
/// that cliff, and 240 and 200 (the block heights in use) are both even.
///
/// # Panics
/// Panics if `y.len() != A.rows()`.
pub fn matt_vec<M: PrimeModulus>(a: &Matrix<Fp<M>>, y: &[Fp<M>]) -> Vec<Fp<M>> {
    assert_eq!(a.rows(), y.len(), "matt_vec dimension mismatch");
    let mut accumulator = WideAccumulator::<M>::new(a.cols());
    let mut pairs = y.chunks_exact(2);
    for (pair, scales) in pairs.by_ref().enumerate() {
        accumulator.axpy_rows(
            [scales[0], scales[1]],
            [a.row(2 * pair), a.row(2 * pair + 1)],
        );
    }
    if let [scale] = pairs.remainder() {
        accumulator.axpy(*scale, a.row(a.rows() - 1));
    }
    accumulator.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use avcc_field::{PrimeField, F25, F61, F64, P25, P251, P61, P64};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix<F25> {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|_| F25::from_u64(rng.gen_range(0..F25::MODULUS)))
                .collect(),
        )
    }

    fn random_vector(rng: &mut StdRng, len: usize) -> Vec<F25> {
        (0..len)
            .map(|_| F25::from_u64(rng.gen_range(0..F25::MODULUS)))
            .collect()
    }

    /// Elementwise reference kernel (the pre-lazy-reduction implementation).
    fn mat_vec_reference(a: &Matrix<F25>, x: &[F25]) -> Vec<F25> {
        a.rows_iter()
            .map(|row| row.iter().zip(x.iter()).map(|(&p, &q)| p * q).sum())
            .collect()
    }

    #[test]
    fn mat_vec_matches_manual_example() {
        let a = Matrix::from_vec(
            2,
            3,
            [1u64, 2, 3, 4, 5, 6]
                .iter()
                .map(|&v| F25::from_u64(v))
                .collect(),
        );
        let x: Vec<F25> = [1u64, 1, 1].iter().map(|&v| F25::from_u64(v)).collect();
        assert_eq!(mat_vec(&a, &x), vec![F25::from_u64(6), F25::from_u64(15)]);
    }

    #[test]
    fn mat_vec_matches_elementwise_reference_across_row_remainders() {
        // 4-row blocking: exercise every remainder class (0..=3 leftover rows).
        let mut rng = StdRng::seed_from_u64(6);
        for rows in [1usize, 2, 3, 4, 5, 7, 8, 9, 12, 15] {
            let a = random_matrix(&mut rng, rows, 11);
            let x = random_vector(&mut rng, 11);
            assert_eq!(mat_vec(&a, &x), mat_vec_reference(&a, &x), "rows = {rows}");
        }
    }

    #[test]
    fn mat_vec_crosses_the_p61_reduction_batch() {
        // Width beyond WIDE_BATCH forces mid-row collapses in F_{2^61-1}.
        let mut rng = StdRng::seed_from_u64(61);
        let cols = P61::WIDE_BATCH * 2 + 3;
        let a = Matrix::from_vec(
            5,
            cols,
            (0..5 * cols)
                .map(|_| F61::from_u64(rng.gen_range(0..F61::MODULUS)))
                .collect(),
        );
        let x: Vec<F61> = (0..cols)
            .map(|_| F61::from_u64(rng.gen_range(0..F61::MODULUS)))
            .collect();
        let reference: Vec<F61> = a
            .rows_iter()
            .map(|row| row.iter().zip(x.iter()).map(|(&p, &q)| p * q).sum())
            .collect();
        assert_eq!(mat_vec(&a, &x), reference);
    }

    #[test]
    fn carry_counting_mat_vec_is_exact_when_every_addition_overflows() {
        // All-(q−1) operands: each Goldilocks product is ≈ 2^128 − 2^97, so
        // every addition but a row's first wraps its u128 accumulator.
        // Six rows run the four-row micro-kernel and two remainder rows;
        // (q−1)² ≡ 1, so every output is the width.
        let near = F64::from_u64(P64::MODULUS - 1);
        for cols in [1usize, 3, 4, 5, 512, 4099] {
            let a = Matrix::from_vec(6, cols, vec![near; 6 * cols]);
            let x = vec![near; cols];
            let expected = vec![F64::from_u64(cols as u64); 6];
            assert_eq!(mat_vec(&a, &x), expected, "cols = {cols}");
        }
    }

    /// Widths around the 25-bit field's narrow batch `B`: none, one, the last
    /// that needs no collapse, exactly one batch, one past it, and two
    /// batches plus a partial one. `F_251` runs the same widths, far below
    /// its own batch.
    fn narrow_boundary_widths() -> [usize; 6] {
        let batch = narrow_batch::<P25>();
        [0, 1, batch - 1, batch, batch + 1, 2 * batch + 3]
    }

    #[test]
    fn narrow_mat_vec_is_exact_where_lanes_collapse() {
        // All-(q−1) operands: every product is the largest a u64 lane
        // absorbs, so a collapse interval one too long overflows — a panic
        // under debug overflow checks. Four to seven rows run the four-row
        // kernel and every count of `dot` remainder rows; (q−1)² ≡ 1, so
        // every output is the width.
        fn check<M: PrimeModulus>() {
            let near = Fp::<M>::from_u64(M::MODULUS - 1);
            for cols in narrow_boundary_widths() {
                for rows in 4..=7 {
                    let a = Matrix::from_vec(rows, cols, vec![near; rows * cols]);
                    let x = vec![near; cols];
                    let reference: Vec<Fp<M>> = a
                        .rows_iter()
                        .map(|row| row.iter().zip(&x).map(|(&p, &q)| p * q).sum())
                        .collect();
                    assert_eq!(reference, vec![Fp::<M>::from_u64(cols as u64); rows]);
                    assert_eq!(mat_vec(&a, &x), reference, "{} {rows} x {cols}", M::NAME);
                    // The same loop over `u32` storage, as a worker keeps it.
                    let stored = a.map(|v| v.value() as u32);
                    let x: Vec<u32> = x.iter().map(|v| v.value() as u32).collect();
                    let product: Vec<u64> = mat_vec::<M, u32>(&stored, &x)
                        .into_iter()
                        .map(u64::from)
                        .collect();
                    let expected: Vec<u64> = reference.iter().map(|v| v.value()).collect();
                    assert_eq!(product, expected, "{} u32 {rows} x {cols}", M::NAME);
                }
            }
        }
        check::<P25>();
        check::<P251>();
    }

    #[test]
    fn narrow_matt_vec_is_exact_where_lanes_collapse() {
        // The same boundary in rows: `matt_vec` feeds its accumulator two
        // rows per pass and an odd height's last row alone.
        fn check<M: PrimeModulus>() {
            let near = Fp::<M>::from_u64(M::MODULUS - 1);
            for rows in narrow_boundary_widths().into_iter().skip(2) {
                let a = Matrix::from_vec(rows, 3, vec![near; rows * 3]);
                let y = vec![near; rows];
                let expected = vec![Fp::<M>::from_u64(rows as u64); 3];
                assert_eq!(matt_vec(&a, &y), expected, "{} rows = {rows}", M::NAME);
            }
        }
        check::<P25>();
        check::<P251>();
    }

    #[test]
    fn kernels_keep_every_row_of_degenerate_shapes() {
        // An r × 0 product is r empty sums; a 0 × c transpose product is c.
        fn check<M: PrimeModulus>() {
            for (rows, cols) in [(0usize, 0usize), (3, 0), (0, 3)] {
                let a: Matrix<Fp<M>> = Matrix::zeros(rows, cols);
                assert_eq!(mat_vec(&a, &vec![Fp::ONE; cols]), vec![Fp::ZERO; rows]);
                assert_eq!(matt_vec(&a, &vec![Fp::ONE; rows]), vec![Fp::ZERO; cols]);
            }
        }
        check::<P25>();
        check::<P64>();
    }

    #[test]
    fn matt_vec_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = random_matrix(&mut rng, 13, 7);
        let y = random_vector(&mut rng, 13);
        let via_transpose = mat_vec(&a.transpose(), &y);
        assert_eq!(matt_vec(&a, &y), via_transpose);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mat_vec_rejects_bad_dimensions() {
        let a: Matrix<F25> = Matrix::zeros(2, 3);
        let _ = mat_vec(&a, &[F25::ZERO; 2]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_mat_vec_is_linear(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_matrix(&mut rng, 9, 6);
            let x = random_vector(&mut rng, 6);
            let y = random_vector(&mut rng, 6);
            let sum: Vec<F25> = x.iter().zip(y.iter()).map(|(&p, &q)| p + q).collect();
            let lhs = mat_vec(&a, &sum);
            let rhs: Vec<F25> = mat_vec(&a, &x)
                .into_iter()
                .zip(mat_vec(&a, &y))
                .map(|(p, q)| p + q)
                .collect();
            prop_assert_eq!(lhs, rhs);
        }

        #[test]
        fn prop_goldilocks_kernels_match_the_elementwise_reference(
            raw_a in proptest::collection::vec(any::<u64>(), 7 * 13),
            raw_x in proptest::collection::vec(any::<u64>(), 13),
            raw_y in proptest::collection::vec(any::<u64>(), 7),
        ) {
            // Seven rows: one four-row group and three `dot` remainder rows
            // for `mat_vec`, three row pairs and a single for `matt_vec`.
            // Goldilocks takes the carry-counting lanes, the 25-bit field the
            // narrow ones.
            fn check<M: PrimeModulus>(raw_a: &[u64], raw_x: &[u64], raw_y: &[u64]) {
                let a = Matrix::from_vec(7, 13, raw_a.iter().map(|&v| Fp::<M>::from_u64(v)).collect());
                let x: Vec<Fp<M>> = raw_x.iter().map(|&v| Fp::from_u64(v)).collect();
                let y: Vec<Fp<M>> = raw_y.iter().map(|&v| Fp::from_u64(v)).collect();
                let transposed: Vec<Fp<M>> = (0..13)
                    .map(|column| a.rows_iter().zip(&y).map(|(row, &scale)| scale * row[column]).sum())
                    .collect();
                assert_eq!(matt_vec(&a, &y), transposed, "{}", M::NAME);
                let reference: Vec<Fp<M>> = a
                    .rows_iter()
                    .map(|row| row.iter().zip(x.iter()).map(|(&p, &q)| p * q).sum())
                    .collect();
                assert_eq!(mat_vec(&a, &x), reference, "{}", M::NAME);
                for (row, &expected) in a.rows_iter().zip(&reference) {
                    assert_eq!(avcc_field::dot(row, &x), expected, "{}", M::NAME);
                }
            }
            check::<P64>(&raw_a, &raw_x, &raw_y);
            check::<P25>(&raw_a, &raw_x, &raw_y);
            // The 25-bit field's residues stored as `u32`: the same residues.
            let a = Matrix::from_vec(7, 13, raw_a.iter().map(|&v| F25::from_u64(v)).collect());
            let x: Vec<F25> = raw_x.iter().map(|&v| F25::from_u64(v)).collect();
            let narrow = |v: &F25| v.value() as u32;
            let x_stored: Vec<u32> = x.iter().map(narrow).collect();
            let stored = mat_vec::<P25, u32>(&a.map(|v| narrow(&v)), &x_stored);
            let typed: Vec<u32> = mat_vec(&a, &x).iter().map(narrow).collect();
            prop_assert_eq!(stored, typed);
        }

        #[test]
        fn prop_freivalds_identity_holds(seed in any::<u64>()) {
            // r · (A x) == (rᵀ A) · x — the algebraic identity Freivalds
            // verification relies on.
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_matrix(&mut rng, 8, 5);
            let x = random_vector(&mut rng, 5);
            let r = random_vector(&mut rng, 8);
            let ax = mat_vec(&a, &x);
            let lhs = avcc_field::dot(&r, &ax);
            let rta = matt_vec(&a, &r);
            let rhs = avcc_field::dot(&rta, &x);
            prop_assert_eq!(lhs, rhs);
        }
    }
}
