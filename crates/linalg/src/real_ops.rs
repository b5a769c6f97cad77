//! Floating-point reference kernels and the matrix quantization bridge.
//!
//! The ML layer keeps the labels, the sigmoid and the accuracy computation in
//! the real domain (as the paper does — only the distributed matrix products
//! run over the field), so it needs `f64` matrix kernels and the conversion
//! from `Matrix<f64>` to `Matrix<Fp>`, the paper's quantization step
//! `x_r = round(2^l x)`; vectors go through [`Quantizer`] directly.

use avcc_field::{Fp, PrimeModulus, QuantError, Quantizer};

use crate::matrix::Matrix;

/// `f64` matrix–vector product `A·x`: the master's evaluation pass
/// (`predict_proba`, `evaluate_accuracy`, `evaluate_loss`), and the body of
/// its per-iteration evaluation on both cores (`LogisticModel::evaluate`,
/// which runs [`real_mat_vec_into`] over row bands of the test and training
/// features on `avcc_field::map_spans`).
///
/// Every row is summed exactly as `row · x` with an iterator `.sum()` would
/// be — from `−0.0`, adding `p * q` in column order, no `mul_add` — so every
/// output is bit-for-bit that sum, whichever band of rows it was computed in.
/// But a row's adds form one dependency chain, each waiting on the last, so
/// four rows share one pass over `x` with an accumulator each: four
/// independent chains in flight. On a 1 800 × 261 matrix (the `train_quiet`
/// training set) this took 261–280 µs one row at a time and takes 187–196 µs.
/// A transposed copy, which would let every add be a vector add, costs the
/// master 3.6 MiB more memory (1 800 × 261 × 8 B). The up-to-three remainder
/// rows are summed one at a time.
///
/// # Panics
/// Panics if `x.len() != A.cols()`.
pub fn real_mat_vec(a: &Matrix<f64>, x: &[f64]) -> Vec<f64> {
    assert_eq!(a.cols(), x.len(), "real_mat_vec dimension mismatch");
    let mut out = vec![0.0; a.rows()];
    real_mat_vec_into(a.data(), x, &mut out);
    out
}

/// [`real_mat_vec`] over a band of rows: `rows` holds `out.len()` row-major
/// rows of `x.len()` columns, and `out[r]` becomes row `r` dotted with `x`,
/// bit for bit as [`real_mat_vec`] computes it.
///
/// # Panics
/// Panics if `rows.len() != out.len() * x.len()`.
pub fn real_mat_vec_into(rows: &[f64], x: &[f64], out: &mut [f64]) {
    let cols = x.len();
    assert_eq!(
        rows.len(),
        out.len() * cols,
        "real_mat_vec_into dimension mismatch"
    );
    let banded = out.len() / 4 * 4;
    let (bands, remainder) = out.split_at_mut(banded);
    for (band, sums) in bands.chunks_exact_mut(4).enumerate() {
        // Row slices zipped with `x`, not indexed by column: the zip needs no
        // bounds check per element.
        let (r0, rest) = rows[4 * band * cols..4 * (band + 1) * cols].split_at(cols);
        let (r1, rest) = rest.split_at(cols);
        let (r2, r3) = rest.split_at(cols);
        let mut acc = [-0.0f64; 4];
        for ((((&q, &p0), &p1), &p2), &p3) in x.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
            acc[0] += p0 * q;
            acc[1] += p1 * q;
            acc[2] += p2 * q;
            acc[3] += p3 * q;
        }
        sums.copy_from_slice(&acc);
    }
    for (r, sum) in (banded..).zip(remainder) {
        let row = &rows[r * cols..(r + 1) * cols];
        *sum = row.iter().zip(x).map(|(&p, &q)| p * q).sum::<f64>();
    }
}

/// `f64` transpose–vector product `Aᵀ·y`.
///
/// # Panics
/// Panics if `y.len() != A.rows()`.
pub fn real_matt_vec(a: &Matrix<f64>, y: &[f64]) -> Vec<f64> {
    assert_eq!(a.rows(), y.len(), "real_matt_vec dimension mismatch");
    let mut result = vec![0.0; a.cols()];
    for (row, &scale) in a.rows_iter().zip(y.iter()) {
        for (slot, &value) in result.iter_mut().zip(row.iter()) {
            *slot += scale * value;
        }
    }
    result
}

/// Quantizes an `f64` matrix into the field with `quantizer.bits()` fractional
/// bits, failing on the first element whose magnitude does not fit.
pub fn quantize_matrix<M: PrimeModulus>(
    a: &Matrix<f64>,
    quantizer: Quantizer,
) -> Result<Matrix<Fp<M>>, QuantError> {
    let data = quantizer.quantize_slice::<M>(a.data())?;
    Ok(Matrix::from_vec(a.rows(), a.cols(), data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field_ops::mat_vec;
    use avcc_field::P25;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn real_mat_vec_matches_manual_example() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(real_mat_vec(&a, &[1.0, 0.5]), vec![2.0, 5.0]);
    }

    /// The one-row-at-a-time pass every output of [`real_mat_vec`] must
    /// equal bit for bit.
    fn row_sums(a: &Matrix<f64>, x: &[f64]) -> Vec<f64> {
        a.rows_iter()
            .map(|row| row.iter().zip(x).map(|(&p, &q)| p * q).sum())
            .collect()
    }

    fn assert_same_bits(got: &[f64], want: &[f64], context: &str) {
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{context}");
    }

    #[test]
    fn real_mat_vec_is_the_row_sum_bit_for_bit() {
        // Magnitudes spread over 16 decades, so every reordering of a row's
        // adds would round differently. Row counts cover no band, partial
        // bands and every remainder; widths cover none, one, a partial
        // unroll and the `train_*` width.
        let mut rng = StdRng::seed_from_u64(5);
        let mut draw = || rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-8i32..8));
        for rows in [0usize, 1, 3, 4, 5, 7, 8, 9] {
            for cols in [0usize, 1, 7, 261] {
                let a = Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| draw()).collect());
                let x: Vec<f64> = (0..cols).map(|_| draw()).collect();
                let got = real_mat_vec(&a, &x);
                assert_eq!(got.len(), rows);
                assert_same_bits(&got, &row_sums(&a, &x), &format!("{rows} x {cols}"));
            }
        }
    }

    #[test]
    fn real_mat_vec_keeps_the_bits_of_signed_zeros_and_non_finite_values() {
        // Rows: all −0.0 products (a `.sum()` of them is −0.0, not +0.0),
        // mixed zeros, a subnormal sum, +∞, ∞ − ∞ = NaN, a NaN input, and a
        // finite row after them — in four-row bands and a remainder.
        let tiny = f64::MIN_POSITIVE / 8.0;
        let rows: [[f64; 3]; 9] = [
            [-0.0, -0.0, -0.0],
            [0.0, -0.0, 0.0],
            [tiny, -tiny / 2.0, tiny],
            [f64::INFINITY, 1.0, 1.0],
            [f64::INFINITY, f64::NEG_INFINITY, 1.0],
            [f64::NAN, 1.0, 1.0],
            [-0.0, 0.0, -0.0],
            [1.5, -2.5, 3.5],
            [-tiny, -0.0, f64::NEG_INFINITY],
        ];
        let a = Matrix::from_vec(9, 3, rows.iter().flatten().copied().collect());
        for x in [[1.0, 1.0, 1.0], [1.0, -0.0, 0.5], [-1.0, 0.0, -0.0]] {
            let got = real_mat_vec(&a, &x);
            assert_same_bits(&got, &row_sums(&a, &x), &format!("x = {x:?}"));
        }
        assert_eq!(
            real_mat_vec(&a, &[1.0; 3])[0].to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn real_mat_vec_keeps_every_row_of_degenerate_shapes() {
        for (rows, cols) in [(0usize, 0usize), (3, 0), (0, 3)] {
            let a: Matrix<f64> = Matrix::zeros(rows, cols);
            let got = real_mat_vec(&a, &vec![1.0; cols]);
            // An empty sum is −0.0, as `f64: Sum` makes it.
            assert_same_bits(&got, &vec![-0.0; rows], &format!("{rows} x {cols}"));
        }
    }

    #[test]
    fn real_matt_vec_matches_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = [1.0, -1.0, 2.0];
        let expected = real_mat_vec(&a.transpose(), &y);
        assert_eq!(real_matt_vec(&a, &y), expected);
    }

    #[test]
    fn quantize_dequantize_matrix_round_trips() {
        let a = Matrix::from_vec(2, 2, vec![0.5, -1.25, 3.0, 0.03125]);
        let quantizer = Quantizer::new(5);
        let field_matrix = quantize_matrix::<P25>(&a, quantizer).unwrap();
        let back = Quantizer::dequantize_slice_with_scale(field_matrix.data(), 5);
        for (original, recovered) in a.data().iter().zip(back.iter()) {
            assert!((original - recovered).abs() <= 1.0 / 64.0);
        }
    }

    #[test]
    fn quantized_pipeline_matches_real_pipeline() {
        // Field-domain X·w with integer X and fixed-point w must agree with the
        // real computation up to quantization error — the property the paper's
        // two-round protocol relies on.
        let x_real = Matrix::from_vec(2, 3, vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0]);
        let w_real = [0.5, -0.25, 1.0];
        let x_field = quantize_matrix::<P25>(&x_real, Quantizer::new(0)).unwrap();
        let w_field = Quantizer::new(5).quantize_slice::<P25>(&w_real).unwrap();
        let z_field = mat_vec(&x_field, &w_field);
        let z_back = Quantizer::dequantize_slice_with_scale(&z_field, 5);
        let z_real = real_mat_vec(&x_real, &w_real);
        for (a, b) in z_real.iter().zip(z_back.iter()) {
            assert!((a - b).abs() < 0.1, "{a} vs {b}");
        }
    }

    #[test]
    fn quantize_matrix_propagates_overflow_errors() {
        let a = Matrix::from_vec(1, 1, vec![1e18]);
        assert!(quantize_matrix::<P25>(&a, Quantizer::new(5)).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_quantized_mat_vec_tracks_real(
            entries in proptest::collection::vec(-50.0f64..50.0, 12),
            weights in proptest::collection::vec(-2.0f64..2.0, 4),
        ) {
            let a_real = Matrix::from_vec(3, 4, entries);
            let x_field_matrix = quantize_matrix::<P25>(&a_real, Quantizer::new(8)).unwrap();
            let w_field = Quantizer::new(8).quantize_slice::<P25>(&weights).unwrap();
            let z = Quantizer::dequantize_slice_with_scale(&mat_vec(&x_field_matrix, &w_field), 16);
            let z_real = real_mat_vec(&a_real, &weights);
            // Each of the 4 product terms can deviate by about
            // (|x| + |w|) * half-LSB ≈ 52 * 0.5 / 256, so bound by 0.5 total.
            for (a, b) in z_real.iter().zip(z.iter()) {
                prop_assert!((a - b).abs() < 0.5, "{} vs {}", a, b);
            }
        }
    }
}
