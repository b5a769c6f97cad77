//! The fixed-point, finite-field side of the two-round training protocol
//! (paper §IV-A and §V "Quantization and Parameter Selection").
//!
//! One gradient-descent iteration is split into two coded rounds:
//!
//! 1. **Round 1** — the workers compute `z = X w` over the field. The master
//!    dequantizes `z`, applies the sigmoid and forms the error vector
//!    `e = h(z) − y` in the real domain.
//! 2. **Round 2** — the workers compute `g = Xᵀ e` over the field (with `X`
//!    column-partitioned, i.e. `Xᵀ` row-partitioned, so the round has the same
//!    "row-blocked matrix times shared vector" shape as round 1). The master
//!    dequantizes `g` and updates the weights.
//!
//! [`QuantizedProtocol`] owns the precision parameters (`l` bits for the
//! features, weights and error vector) and performs every conversion. Because
//! recovery of a signed value from the field is only correct while the true
//! magnitude stays below `(q−1)/2`, the constructor
//! [`QuantizedProtocol::for_problem`] derives bit widths from the problem
//! size and an assumed weight bound — the reproduction of the paper's
//! overflow analysis that led to `q = 2^25 − 39` and `l = 5`. The bound is
//! an assumption, not an invariant: see that constructor.

use avcc_field::{Fp, PrimeModulus, Quantizer};
use avcc_linalg::{quantize_matrix, Matrix};

use crate::logistic::sigmoid;

/// Precision parameters of the quantized two-round protocol.
///
/// Features are expected to be pre-normalized into `[0, 1]` (the integer
/// GISETTE-like features divided by their maximum); weights and error-vector
/// entries live in a small real range around zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantizedProtocol {
    /// Fractional bits for the (normalized) features.
    pub feature_bits: u32,
    /// Fractional bits for the model weights (the paper's `l`, default 5).
    pub weight_bits: u32,
    /// Fractional bits for the error vector `e = h(z) − y`.
    pub error_bits: u32,
}

impl Default for QuantizedProtocol {
    fn default() -> Self {
        QuantizedProtocol {
            feature_bits: 7,
            weight_bits: 7,
            error_bits: 7,
        }
    }
}

impl QuantizedProtocol {
    /// Chooses bit widths for the field `M` and a problem with `samples`
    /// training rows and `features` columns, assuming normalized features in
    /// `[0, 1]`, weights bounded by `weight_bound` in magnitude and error
    /// entries in `[−1, 1]`.
    ///
    /// The two constraints (round 1 and round 2 respectively) are
    ///
    /// ```text
    /// features · weight_bound · 2^(l_x + l_w) < (q−1)/2
    /// samples  ·               2^(l_x + l_e) < (q−1)/2
    /// ```
    ///
    /// Round 2's premise holds by construction: each `e = h(z) − y`, a
    /// sigmoid minus a 0/1 label, lies in `[−1, 1]`. Round 1's rests on
    /// `weight_bound`, an assumption nothing enforces: [`quantize_weights`]
    /// saturates only at the field's own range, and training lets `|w|`
    /// grow. On the generated `train_quiet` problem (1 800 × 261, seed 1, the
    /// `weight_bound = 4` of `default_protocol`, `l_x + l_w = 13`) `max |w|`
    /// reads 5.22 after 1 000 iterations, 7.37 after 3 000 and 9.07 after
    /// 6 000, and at 9.07 the premise `261 · 9.07 · 2^13 ≈ 1.94·10⁷` exceeds
    /// `(q−1)/2 ≈ 1.68·10⁷`. So these widths guarantee that no round-1
    /// result wraps while every `|w|` stays within `weight_bound`; past it
    /// they guarantee nothing. The premise is a worst case: a result wraps
    /// only once `|z| = |Σ x_j w_j|` itself passes `(q−1)/2 / 2^(l_x+l_w)`
    /// (≈ 2 048 here), and is then dequantized with the wrong sign, silently.
    /// Either way every scheme returns the exact field product, so coded and
    /// uncoded training stay bit-identical to each other.
    ///
    /// The quantized weights `w · 2^l_w` are also what the socket runtime
    /// sends 2 bytes per element while every one lies in `[−2^15, 2^15)`;
    /// once one does not, that round's `TASK`s fall back to 4 bytes by
    /// themselves.
    ///
    /// [`quantize_weights`]: Self::quantize_weights
    pub fn for_problem<M: PrimeModulus>(
        samples: usize,
        features: usize,
        weight_bound: f64,
    ) -> Self {
        let half = ((M::MODULUS - 1) / 2) as f64;
        let budget_round1 = (half / (features as f64 * weight_bound.max(1.0)))
            .log2()
            .floor();
        let budget_round2 = (half / samples as f64).log2().floor();
        // Split each round's budget between its two operands, clamped to a
        // sensible range.
        let split = |budget: f64| -> (u32, u32) {
            let total = budget.max(2.0) as u32;
            let a = (total / 2).clamp(1, 12);
            let b = (total - total / 2).clamp(1, 12);
            (a, b)
        };
        let (feature_bits_1, weight_bits) = split(budget_round1);
        let (feature_bits_2, error_bits) = split(budget_round2);
        QuantizedProtocol {
            feature_bits: feature_bits_1.min(feature_bits_2),
            weight_bits,
            error_bits,
        }
    }

    /// The combined scale of a round-1 result (`2^(l_x + l_w)`).
    pub fn round1_scale_bits(&self) -> u32 {
        self.feature_bits + self.weight_bits
    }

    /// The combined scale of a round-2 result (`2^(l_x + l_e)`).
    pub fn round2_scale_bits(&self) -> u32 {
        self.feature_bits + self.error_bits
    }

    /// Quantizes the normalized feature matrix into the field.
    ///
    /// # Panics
    /// Panics if a feature value does not fit at the configured precision
    /// (cannot happen for inputs in `[0, 1]`).
    pub fn quantize_features<M: PrimeModulus>(&self, features: &Matrix<f64>) -> Matrix<Fp<M>> {
        quantize_matrix(features, Quantizer::new(self.feature_bits))
            .expect("normalized features always fit the field")
    }

    /// Quantizes the weight vector (saturating, as weights can drift slightly
    /// outside any fixed bound during training).
    pub fn quantize_weights<M: PrimeModulus>(&self, weights: &[f64]) -> Vec<Fp<M>> {
        let quantizer = Quantizer::new(self.weight_bits);
        weights
            .iter()
            .map(|&w| quantizer.quantize_saturating(w))
            .collect()
    }

    /// Quantizes the error vector `e = h(z) − y` (entries in `[−1, 1]`).
    pub fn quantize_error<M: PrimeModulus>(&self, errors: &[f64]) -> Vec<Fp<M>> {
        let quantizer = Quantizer::new(self.error_bits);
        errors
            .iter()
            .map(|&e| quantizer.quantize_saturating(e))
            .collect()
    }

    /// Dequantizes a round-1 result `z = X w`.
    pub fn dequantize_round1<M: PrimeModulus>(&self, z: &[Fp<M>]) -> Vec<f64> {
        Quantizer::dequantize_slice_with_scale(z, self.round1_scale_bits())
    }

    /// Dequantizes a round-2 result `g = Xᵀ e`.
    pub fn dequantize_round2<M: PrimeModulus>(&self, g: &[Fp<M>]) -> Vec<f64> {
        Quantizer::dequantize_slice_with_scale(g, self.round2_scale_bits())
    }

    /// The master-side step between the two rounds: dequantize `z`, apply the
    /// sigmoid and subtract the labels, producing the real-domain error vector.
    pub fn error_vector<M: PrimeModulus>(&self, z: &[Fp<M>], labels: &[f64]) -> Vec<f64> {
        assert_eq!(
            z.len(),
            labels.len(),
            "round-1 result/label length mismatch"
        );
        self.dequantize_round1(z)
            .into_iter()
            .zip(labels.iter())
            .map(|(score, &label)| sigmoid(score) - label)
            .collect()
    }

    /// A fully centralized field-domain reference iteration (no coding, no
    /// distribution): computes `z = Xw` and `g = Xᵀe` directly over the field.
    /// Distributed schemes must produce exactly these field vectors — the
    /// property the integration tests check.
    #[allow(clippy::type_complexity)]
    pub fn reference_iteration<M: PrimeModulus>(
        &self,
        features_field: &Matrix<Fp<M>>,
        features_transposed_field: &Matrix<Fp<M>>,
        weights: &[f64],
        labels: &[f64],
    ) -> (Vec<Fp<M>>, Vec<f64>, Vec<Fp<M>>, Vec<f64>) {
        let w_field = self.quantize_weights::<M>(weights);
        let z_field = avcc_linalg::mat_vec(features_field, &w_field);
        let errors = self.error_vector(&z_field, labels);
        let e_field = self.quantize_error::<M>(&errors);
        let g_field = avcc_linalg::mat_vec(features_transposed_field, &e_field);
        let gradient = self.dequantize_round2(&g_field);
        (z_field, errors, g_field, gradient)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, DatasetConfig};
    use crate::logistic::{normalize_features, LogisticModel};
    use avcc_field::{P25, P64};
    use avcc_linalg::{real_mat_vec, real_matt_vec};

    fn small_problem() -> (Matrix<f64>, Vec<f64>) {
        let dataset = Dataset::gisette_like(DatasetConfig {
            train_samples: 60,
            test_samples: 20,
            features: 24,
            informative: 8,
            ..DatasetConfig::default()
        });
        let (normalized, _) = normalize_features(&dataset.train_features);
        (normalized, dataset.train_labels)
    }

    #[test]
    fn default_bits_are_paper_scale() {
        let protocol = QuantizedProtocol::default();
        assert_eq!(protocol.round1_scale_bits(), 14);
        assert_eq!(protocol.round2_scale_bits(), 14);
    }

    #[test]
    fn for_problem_respects_overflow_bounds() {
        let protocol = QuantizedProtocol::for_problem::<P25>(6000, 5000, 2.0);
        let half = ((P25::MODULUS - 1) / 2) as f64;
        let round1 = 5000.0 * 2.0 * 2f64.powi(protocol.round1_scale_bits() as i32);
        let round2 = 6000.0 * 2f64.powi(protocol.round2_scale_bits() as i32);
        assert!(round1 < half, "round 1 bound violated: {round1} vs {half}");
        assert!(round2 < half, "round 2 bound violated: {round2} vs {half}");
        // A 64-bit field affords much more precision.
        let generous = QuantizedProtocol::for_problem::<P64>(6000, 5000, 2.0);
        assert!(generous.round1_scale_bits() >= protocol.round1_scale_bits());
    }

    #[test]
    fn round1_matches_real_computation_up_to_quantization() {
        let (features, _) = small_problem();
        let protocol = QuantizedProtocol::default();
        let features_field = protocol.quantize_features::<P25>(&features);
        let weights: Vec<f64> = (0..features.cols())
            .map(|j| ((j % 5) as f64 - 2.0) * 0.1)
            .collect();
        let w_field = protocol.quantize_weights::<P25>(&weights);
        let z_field = avcc_linalg::mat_vec(&features_field, &w_field);
        let z = protocol.dequantize_round1(&z_field);
        let z_real = real_mat_vec(&features, &weights);
        for (a, b) in z.iter().zip(z_real.iter()) {
            assert!((a - b).abs() < 0.1, "{a} vs {b}");
        }
    }

    #[test]
    fn round2_matches_real_computation_up_to_quantization() {
        let (features, labels) = small_problem();
        let protocol = QuantizedProtocol::default();
        let transposed = features.transpose();
        let transposed_field = protocol.quantize_features::<P25>(&transposed);
        let errors: Vec<f64> = labels.iter().map(|&y| 0.5 - y).collect();
        let e_field = protocol.quantize_error::<P25>(&errors);
        let g_field = avcc_linalg::mat_vec(&transposed_field, &e_field);
        let g = protocol.dequantize_round2(&g_field);
        let g_real = real_matt_vec(&features, &errors);
        for (a, b) in g.iter().zip(g_real.iter()) {
            assert!((a - b).abs() < 0.5, "{a} vs {b}");
        }
    }

    #[test]
    fn error_vector_applies_sigmoid_and_labels() {
        let protocol = QuantizedProtocol::default();
        let z_real = [0.0f64, 3.0, -3.0];
        let labels = [1.0f64, 0.0, 0.0];
        let quantizer = Quantizer::new(protocol.round1_scale_bits());
        let z_field: Vec<Fp<P25>> = z_real
            .iter()
            .map(|&v| quantizer.quantize(v).unwrap())
            .collect();
        let errors = protocol.error_vector(&z_field, &labels);
        assert!((errors[0] - (0.5 - 1.0)).abs() < 1e-3);
        assert!(errors[1] > 0.9);
        assert!(errors[2] < 0.1);
    }

    #[test]
    fn quantized_training_converges_like_real_training() {
        // Run 40 iterations of gradient descent where both matrix products go
        // through the field pipeline; compare final accuracy to the real-domain
        // reference. This is the property that lets the paper train over F_q.
        let (features, labels) = small_problem();
        let protocol = QuantizedProtocol::default();
        let features_field = protocol.quantize_features::<P25>(&features);
        let transposed_field = protocol.quantize_features::<P25>(&features.transpose());

        let learning_rate = 2.0;
        let mut quantized_model = LogisticModel::zeros(features.cols());
        let mut real_model = LogisticModel::zeros(features.cols());
        for _ in 0..40 {
            // Quantized path.
            let (_, _, _, gradient) = protocol.reference_iteration(
                &features_field,
                &transposed_field,
                &quantized_model.weights,
                &labels,
            );
            quantized_model.apply_gradient(&gradient, learning_rate, labels.len());
            // Real path.
            real_model.step(&features, &labels, learning_rate);
        }
        let quantized_accuracy = quantized_model.evaluate_accuracy(&features, &labels);
        let real_accuracy = real_model.evaluate_accuracy(&features, &labels);
        assert!(
            quantized_accuracy >= real_accuracy - 0.1,
            "quantized {quantized_accuracy} vs real {real_accuracy}"
        );
        assert!(quantized_accuracy > 0.7);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn error_vector_checks_lengths() {
        let protocol = QuantizedProtocol::default();
        let z: Vec<Fp<P25>> = vec![Fp::new(0)];
        let _ = protocol.error_vector(&z, &[1.0, 0.0]);
    }
}
