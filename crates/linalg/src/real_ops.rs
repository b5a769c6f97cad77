//! Floating-point reference kernels and the matrix quantization bridge.
//!
//! The ML layer keeps the labels, the sigmoid and the accuracy computation in
//! the real domain (as the paper does — only the distributed matrix products
//! run over the field), so it needs `f64` matrix kernels and the conversion
//! from `Matrix<f64>` to `Matrix<Fp>`, the paper's quantization step
//! `x_r = round(2^l x)`; vectors go through [`Quantizer`] directly.

use avcc_field::{Fp, PrimeModulus, QuantError, Quantizer};

use crate::matrix::Matrix;

/// `f64` matrix–vector product `A·x`.
///
/// # Panics
/// Panics if `x.len() != A.cols()`.
pub fn real_mat_vec(a: &Matrix<f64>, x: &[f64]) -> Vec<f64> {
    assert_eq!(a.cols(), x.len(), "real_mat_vec dimension mismatch");
    a.rows_iter()
        .map(|row| row.iter().zip(x.iter()).map(|(&p, &q)| p * q).sum())
        .collect()
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

    #[test]
    fn real_mat_vec_matches_manual_example() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(real_mat_vec(&a, &[1.0, 0.5]), vec![2.0, 5.0]);
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
