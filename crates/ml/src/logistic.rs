//! Centralized logistic regression — the reference implementation and the
//! master-side real-domain steps of the distributed protocol.
//!
//! The model is the paper's eq. (4)–(5): binary cross-entropy minimized by
//! full-batch gradient descent,
//!
//! ```text
//! w ← w − (η/m) · Xᵀ (h(Xw) − y),     h(θ) = 1 / (1 + e^{−θ}).
//! ```
//!
//! The distributed schemes replace the two matrix products with coded worker
//! computations but keep the sigmoid, the error vector and the update rule in
//! the real domain on the master, so this module is shared by every scheme.

use avcc_field::{map_spans, span_threads};
use avcc_linalg::{real_mat_vec, real_mat_vec_into, real_matt_vec, Matrix};

/// The numerically stable sigmoid `h(θ) = 1 / (1 + e^{−θ})`.
pub fn sigmoid(theta: f64) -> f64 {
    if theta >= 0.0 {
        1.0 / (1.0 + (-theta).exp())
    } else {
        let exponential = theta.exp();
        exponential / (1.0 + exponential)
    }
}

/// Binary cross-entropy loss (paper eq. 4), clamped away from log(0).
pub fn cross_entropy(predictions: &[f64], labels: &[f64]) -> f64 {
    assert_eq!(
        predictions.len(),
        labels.len(),
        "prediction/label length mismatch"
    );
    let epsilon = 1e-12;
    let total: f64 = predictions
        .iter()
        .zip(labels.iter())
        .map(|(&p, &y)| {
            let p = p.clamp(epsilon, 1.0 - epsilon);
            -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
        })
        .sum();
    total / predictions.len() as f64
}

/// Classification accuracy with a 0.5 threshold.
pub fn accuracy(predictions: &[f64], labels: &[f64]) -> f64 {
    assert_eq!(
        predictions.len(),
        labels.len(),
        "prediction/label length mismatch"
    );
    let correct = predictions
        .iter()
        .zip(labels.iter())
        .filter(|(&p, &y)| (p >= 0.5) == (y >= 0.5))
        .count();
    correct as f64 / predictions.len() as f64
}

/// Rows per band of [`LogisticModel::evaluate`]: small enough that bands of
/// the test and training sets split evenly between two spans (the
/// `train_quiet` problem's 360 + 1 800 rows make 69 bands, 35 and 34 per
/// span), a multiple of the four rows [`real_mat_vec_into`] sums together.
const EVALUATION_BAND_ROWS: usize = 32;

/// `features` cut into bands of [`EVALUATION_BAND_ROWS`] rows, each paired
/// with its rows' slice of `out`.
fn row_bands<'a>(features: &'a Matrix<f64>, out: &'a mut [f64]) -> Vec<(&'a [f64], &'a mut [f64])> {
    let cols = features.cols();
    let data = features.data();
    out.chunks_mut(EVALUATION_BAND_ROWS)
        .enumerate()
        .map(|(band, out)| {
            let first = band * EVALUATION_BAND_ROWS * cols;
            (&data[first..first + out.len() * cols], out)
        })
        .collect()
}

/// Gradient-descent hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Learning rate `η`.
    pub learning_rate: f64,
    /// Number of full-batch iterations.
    pub iterations: usize,
    /// Whether to normalize features by their maximum value before training
    /// (the integer GISETTE-like features are large; normalization keeps the
    /// learning rate in a sane range and matches common practice).
    pub normalize: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            learning_rate: 2.0,
            iterations: 50,
            normalize: true,
        }
    }
}

/// A logistic-regression model (weights only; the bias is folded into the
/// weights as the paper does).
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticModel {
    /// The weight vector `w ∈ R^d`.
    pub weights: Vec<f64>,
}

impl LogisticModel {
    /// A zero-initialized model of dimension `d`.
    pub fn zeros(dimension: usize) -> Self {
        LogisticModel {
            weights: vec![0.0; dimension],
        }
    }

    /// Predicted probabilities `h(Xw)` for every row of `features`.
    pub fn predict_proba(&self, features: &Matrix<f64>) -> Vec<f64> {
        real_mat_vec(features, &self.weights)
            .into_iter()
            .map(sigmoid)
            .collect()
    }

    /// Test accuracy on a labelled set.
    pub fn evaluate_accuracy(&self, features: &Matrix<f64>, labels: &[f64]) -> f64 {
        accuracy(&self.predict_proba(features), labels)
    }

    /// Test loss on a labelled set.
    pub fn evaluate_loss(&self, features: &Matrix<f64>, labels: &[f64]) -> f64 {
        cross_entropy(&self.predict_proba(features), labels)
    }

    /// Test accuracy and training loss in one pass — bit for bit
    /// `(evaluate_accuracy(test…), evaluate_loss(train…))` — on as many cores
    /// as [`span_threads`] gives the pass's `(test + train rows) × cols`
    /// multiply-adds: two on a 2-vCPU host for the `train_*` problem
    /// (≈ 0.56 M), inline for `serve_mixed`'s training jobs (≈ 0.08 M).
    pub fn evaluate(
        &self,
        test_features: &Matrix<f64>,
        test_labels: &[f64],
        train_features: &Matrix<f64>,
        train_labels: &[f64],
    ) -> (f64, f64) {
        let rows = test_features.rows() + train_features.rows();
        let bands = test_features.rows().div_ceil(EVALUATION_BAND_ROWS)
            + train_features.rows().div_ceil(EVALUATION_BAND_ROWS);
        let threads = span_threads(bands, rows * self.weights.len());
        self.evaluate_in_spans(
            test_features,
            test_labels,
            train_features,
            train_labels,
            threads,
        )
    }

    /// [`LogisticModel::evaluate`] on `threads` spans
    /// ([`avcc_field::map_spans`]).
    ///
    /// The predictions of both sets land in one buffer reserved here, on the
    /// calling thread — a buffer allocated on a spawned thread would open
    /// that thread a malloc arena of its own — and each band of 32 rows fills
    /// its own disjoint slice of it:
    /// `h(x·w)` with `x·w` summed by [`real_mat_vec_into`], exactly as
    /// [`real_mat_vec`] sums it. Accuracy and cross-entropy then read the
    /// buffer serially, in row order, so no result depends on `threads`.
    ///
    /// # Panics
    /// Panics if a feature matrix's width differs from the model's or a
    /// label slice's length from its matrix's rows.
    pub fn evaluate_in_spans(
        &self,
        test_features: &Matrix<f64>,
        test_labels: &[f64],
        train_features: &Matrix<f64>,
        train_labels: &[f64],
        threads: usize,
    ) -> (f64, f64) {
        let cols = self.weights.len();
        for features in [test_features, train_features] {
            assert_eq!(features.cols(), cols, "evaluate dimension mismatch");
        }
        let split = test_features.rows();
        let mut predictions = vec![0.0; split + train_features.rows()];
        let (test_out, train_out) = predictions.split_at_mut(split);
        let mut bands = row_bands(test_features, test_out);
        bands.extend(row_bands(train_features, train_out));
        map_spans(bands, threads, |(rows, out): (&[f64], &mut [f64])| {
            real_mat_vec_into(rows, &self.weights, out);
            for prediction in out.iter_mut() {
                *prediction = sigmoid(*prediction);
            }
        });
        let (test_predictions, train_predictions) = predictions.split_at(split);
        (
            accuracy(test_predictions, test_labels),
            cross_entropy(train_predictions, train_labels),
        )
    }

    /// One full-batch gradient step from an already-computed gradient.
    pub fn apply_gradient(&mut self, gradient: &[f64], learning_rate: f64, samples: usize) {
        assert_eq!(
            gradient.len(),
            self.weights.len(),
            "gradient dimension mismatch"
        );
        let scale = learning_rate / samples as f64;
        for (weight, &g) in self.weights.iter_mut().zip(gradient.iter()) {
            *weight -= scale * g;
        }
    }

    /// One centralized gradient-descent step (computes `Xw`, the error vector
    /// and `Xᵀe` locally). Returns the error vector for diagnostics.
    pub fn step(&mut self, features: &Matrix<f64>, labels: &[f64], learning_rate: f64) -> Vec<f64> {
        let z = real_mat_vec(features, &self.weights);
        let errors: Vec<f64> = z
            .iter()
            .zip(labels.iter())
            .map(|(&score, &label)| sigmoid(score) - label)
            .collect();
        let gradient = real_matt_vec(features, &errors);
        self.apply_gradient(&gradient, learning_rate, labels.len());
        errors
    }

    /// Trains a model from scratch with plain centralized gradient descent.
    /// Returns the model and the per-iteration training-loss history.
    pub fn train(
        features: &Matrix<f64>,
        labels: &[f64],
        config: TrainConfig,
    ) -> (LogisticModel, Vec<f64>) {
        let (features, scale) = if config.normalize {
            let maximum = features
                .data()
                .iter()
                .cloned()
                .fold(f64::MIN, f64::max)
                .max(1.0);
            (features.map(|v| v / maximum), maximum)
        } else {
            (features.clone(), 1.0)
        };
        let mut model = LogisticModel::zeros(features.cols());
        let mut history = Vec::with_capacity(config.iterations);
        for _ in 0..config.iterations {
            model.step(&features, labels, config.learning_rate);
            history.push(model.evaluate_loss(&features, labels));
        }
        // Undo the normalization so the returned model operates on raw features.
        for weight in model.weights.iter_mut() {
            *weight /= scale;
        }
        (model, history)
    }
}

/// Normalizes a feature matrix by its global maximum, returning the scaled
/// matrix and the scale factor — the same preprocessing [`LogisticModel::train`]
/// applies, exposed for the distributed drivers so every scheme trains on
/// identical inputs.
pub fn normalize_features(features: &Matrix<f64>) -> (Matrix<f64>, f64) {
    let maximum = features
        .data()
        .iter()
        .cloned()
        .fold(f64::MIN, f64::max)
        .max(1.0);
    (features.map(|v| v / maximum), maximum)
}

/// Column-centering plus global max-scaling of the features.
///
/// Gradient descent on the raw non-negative GISETTE-like features converges
/// poorly (all-positive columns make the loss ill-conditioned), so the
/// distributed drivers fit a [`FeatureScaler`] on the training set and apply
/// the identical affine transform to the test set. The resulting values lie
/// in `[−1, 1]`, which keeps the fixed-point overflow analysis of
/// [`crate::quantized::QuantizedProtocol`] intact.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureScaler {
    /// Per-column means of the training features.
    pub column_means: Vec<f64>,
    /// The global scale (maximum raw feature value).
    pub scale: f64,
}

impl FeatureScaler {
    /// Fits the scaler on a training feature matrix.
    pub fn fit(features: &Matrix<f64>) -> Self {
        let rows = features.rows().max(1);
        let cols = features.cols();
        let mut column_means = vec![0.0; cols];
        for row in features.rows_iter() {
            for (mean, &value) in column_means.iter_mut().zip(row.iter()) {
                *mean += value;
            }
        }
        for mean in column_means.iter_mut() {
            *mean /= rows as f64;
        }
        let scale = features
            .data()
            .iter()
            .cloned()
            .fold(f64::MIN, f64::max)
            .max(1.0);
        FeatureScaler {
            column_means,
            scale,
        }
    }

    /// Applies the fitted transform `(x − mean) / scale` to a feature matrix.
    ///
    /// # Panics
    /// Panics if the column count differs from the fitted matrix.
    pub fn transform(&self, features: &Matrix<f64>) -> Matrix<f64> {
        assert_eq!(
            features.cols(),
            self.column_means.len(),
            "feature dimension does not match the fitted scaler"
        );
        let mut data = Vec::with_capacity(features.len());
        for row in features.rows_iter() {
            for (&value, &mean) in row.iter().zip(self.column_means.iter()) {
                data.push((value - mean) / self.scale);
            }
        }
        Matrix::from_vec(features.rows(), features.cols(), data)
    }

    /// Fits on the training features and transforms both splits in one call.
    pub fn fit_transform(
        train: &Matrix<f64>,
        test: &Matrix<f64>,
    ) -> (Self, Matrix<f64>, Matrix<f64>) {
        let scaler = Self::fit(train);
        let train_scaled = scaler.transform(train);
        let test_scaled = scaler.transform(test);
        (scaler, train_scaled, test_scaled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, DatasetConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sigmoid_has_expected_fixed_points() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(20.0) > 0.999);
        assert!(sigmoid(-20.0) < 0.001);
        // Symmetry: h(-x) = 1 - h(x).
        for x in [-3.0, -0.7, 0.4, 2.2] {
            assert!((sigmoid(-x) - (1.0 - sigmoid(x))).abs() < 1e-12);
        }
    }

    #[test]
    fn sigmoid_is_stable_for_extreme_inputs() {
        assert!(sigmoid(1e6).is_finite());
        assert!(sigmoid(-1e6).is_finite());
        assert_eq!(sigmoid(-1e6), 0.0);
    }

    #[test]
    fn cross_entropy_is_zero_for_perfect_confident_predictions() {
        let loss = cross_entropy(&[1.0, 0.0, 1.0], &[1.0, 0.0, 1.0]);
        assert!(loss < 1e-9);
        let bad = cross_entropy(&[0.0, 1.0], &[1.0, 0.0]);
        assert!(bad > 10.0);
    }

    #[test]
    fn accuracy_counts_threshold_agreements() {
        let predictions = [0.9, 0.2, 0.6, 0.4];
        let labels = [1.0, 0.0, 0.0, 1.0];
        assert!((accuracy(&predictions, &labels) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gradient_step_reduces_loss_on_separable_data() {
        // Tiny separable problem: positive iff feature 0 is large.
        let features = Matrix::from_vec(4, 2, vec![5.0, 1.0, 4.0, 1.0, 0.0, 1.0, 1.0, 1.0]);
        let labels = [1.0, 1.0, 0.0, 0.0];
        let mut model = LogisticModel::zeros(2);
        let initial = model.evaluate_loss(&features, &labels);
        for _ in 0..200 {
            model.step(&features, &labels, 0.5);
        }
        let trained = model.evaluate_loss(&features, &labels);
        assert!(trained < initial * 0.5, "loss {initial} -> {trained}");
        assert_eq!(model.evaluate_accuracy(&features, &labels), 1.0);
    }

    #[test]
    fn training_on_synthetic_dataset_beats_chance() {
        let dataset = Dataset::gisette_like(DatasetConfig {
            train_samples: 450,
            test_samples: 150,
            features: 63,
            informative: 21,
            ..DatasetConfig::default()
        });
        let (_, train, test) =
            FeatureScaler::fit_transform(&dataset.train_features, &dataset.test_features);
        let (model, history) = LogisticModel::train(
            &train,
            &dataset.train_labels,
            TrainConfig {
                iterations: 60,
                learning_rate: 5.0,
                normalize: false,
            },
        );
        let accuracy = model.evaluate_accuracy(&test, &dataset.test_labels);
        assert!(accuracy > 0.8, "test accuracy {accuracy} too low");
        // Loss history should be non-increasing overall.
        assert!(history.last().unwrap() < history.first().unwrap());
    }

    #[test]
    fn feature_scaler_centers_columns_and_bounds_values() {
        let dataset = Dataset::gisette_like(DatasetConfig::default());
        let (scaler, train, test) =
            FeatureScaler::fit_transform(&dataset.train_features, &dataset.test_features);
        assert_eq!(scaler.column_means.len(), dataset.features());
        // Every transformed training column has (near-)zero mean.
        for j in 0..train.cols() {
            let mean: f64 =
                (0..train.rows()).map(|i| *train.get(i, j)).sum::<f64>() / train.rows() as f64;
            assert!(mean.abs() < 1e-9, "column {j} mean {mean}");
        }
        // Values stay within [-1, 1] so the quantized pipeline's overflow
        // analysis applies.
        for &value in train.data().iter().chain(test.data().iter()) {
            assert!(value.abs() <= 1.0 + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "does not match the fitted scaler")]
    fn scaler_rejects_mismatched_dimensions() {
        let features = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let scaler = FeatureScaler::fit(&features);
        let other = Matrix::from_vec(2, 3, vec![0.0; 6]);
        let _ = scaler.transform(&other);
    }

    #[test]
    fn apply_gradient_matches_manual_update() {
        let mut model = LogisticModel {
            weights: vec![1.0, -1.0],
        };
        model.apply_gradient(&[2.0, 4.0], 0.5, 4);
        assert!((model.weights[0] - (1.0 - 0.25)).abs() < 1e-12);
        assert!((model.weights[1] - (-1.0 - 0.5)).abs() < 1e-12);
    }

    #[test]
    fn normalize_features_scales_by_global_maximum() {
        let features = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let (normalized, scale) = normalize_features(&features);
        assert_eq!(scale, 4.0);
        assert_eq!(*normalized.get(1, 1), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_prediction_lengths_panic() {
        let _ = accuracy(&[0.5], &[1.0, 0.0]);
    }

    /// The e2e `train_quiet` problem: GISETTE-like, 1 800 / 360 samples ×
    /// 255 features at seed 1, scaled, and padded with zero columns to
    /// 261 = 9 · 29 as the distributed trainer pads it.
    fn train_quiet_problem() -> (Dataset, Matrix<f64>, Matrix<f64>) {
        let dataset = Dataset::gisette_like(DatasetConfig {
            train_samples: 1800,
            test_samples: 360,
            features: 255,
            informative: 85,
            seed: 1,
            ..DatasetConfig::default()
        });
        let (_, train, test) =
            FeatureScaler::fit_transform(&dataset.train_features, &dataset.test_features);
        let pad = |m: &Matrix<f64>| {
            let data = m
                .rows_iter()
                .flat_map(|row| row.iter().copied().chain([0.0; 6]));
            Matrix::from_vec(m.rows(), 261, data.collect())
        };
        (dataset, pad(&train), pad(&test))
    }

    /// An order-sensitive digest of a vector's bit patterns.
    fn fingerprint(values: &[f64]) -> u64 {
        values.iter().fold(0xcbf2_9ce4_8422_2325, |hash, value| {
            (hash ^ value.to_bits()).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Recorded from the one-row-at-a-time evaluation pass, per weight
    /// vector of [`train_quiet_weights`]: test accuracy, train loss, and the
    /// digests of `predict_proba` over 359 test rows and 361 train rows
    /// (three and one rows past the last four-row band).
    const RECORDED: [[u64; 4]; 3] = [
        [
            0x3fde_0b60_b60b_60b6,
            0x3ff4_1333_734a_c08a,
            0x3fec_111c_e474_bdff,
            0xad38_700c_5dee_5261,
        ],
        [
            0x3fdf_d27d_27d2_7d28,
            0x4014_65f3_bd40_262c,
            0x162e_9ecb_5ff3_37bb,
            0xf554_6cc0_a431_ebf2,
        ],
        [
            0x3fee_aaaa_aaaa_aaab,
            0x3fd0_fd85_d9ec_0b35,
            0xcd6e_6d20_c3ed_2793,
            0xbb99_9bd7_ed27_45c3,
        ],
    ];

    /// Three weight vectors for the `train_quiet` problem: a sawtooth, a
    /// sine of amplitude 4 and the generator's separator scaled by 40.
    fn train_quiet_weights(dataset: &Dataset) -> [Vec<f64>; 3] {
        let separator: Vec<f64> = dataset.true_weights.iter().map(|w| 40.0 * w).collect();
        [
            (0..261)
                .map(|j| ((j * 37) % 101) as f64 / 50.0 - 1.0)
                .collect(),
            (0..261).map(|j| 4.0 * (j as f64 * 0.37).sin()).collect(),
            separator.into_iter().chain([0.0; 6]).collect(),
        ]
    }

    #[test]
    fn evaluation_of_the_train_quiet_problem_keeps_its_bits() {
        let (dataset, train, test) = train_quiet_problem();
        for (weights, recorded) in train_quiet_weights(&dataset).into_iter().zip(RECORDED) {
            let model = LogisticModel { weights };
            let observed = [
                model
                    .evaluate_accuracy(&test, &dataset.test_labels)
                    .to_bits(),
                model.evaluate_loss(&train, &dataset.train_labels).to_bits(),
                fingerprint(&model.predict_proba(&test.row_slice(0, 359))),
                fingerprint(&model.predict_proba(&train.row_slice(0, 361))),
            ];
            assert_eq!(observed, recorded);
        }
    }

    /// `evaluate_in_spans` on `threads` spans, as bit patterns.
    fn evaluation_bits(
        model: &LogisticModel,
        (test, test_labels): (&Matrix<f64>, &[f64]),
        (train, train_labels): (&Matrix<f64>, &[f64]),
        threads: usize,
    ) -> [u64; 2] {
        let (accuracy, loss) =
            model.evaluate_in_spans(test, test_labels, train, train_labels, threads);
        [accuracy.to_bits(), loss.to_bits()]
    }

    #[test]
    fn evaluation_in_one_and_two_spans_keeps_the_recorded_bits() {
        // The whole problem against the recorded constants, and its 359- and
        // 361-row prefixes — whose remainder rows end a band, and a span —
        // against the serial pass.
        let (dataset, train, test) = train_quiet_problem();
        let (test_labels, train_labels) = (&dataset.test_labels, &dataset.train_labels);
        let (test_359, train_361) = (test.row_slice(0, 359), train.row_slice(0, 361));
        for (weights, recorded) in train_quiet_weights(&dataset).into_iter().zip(RECORDED) {
            let model = LogisticModel { weights };
            let serial = [
                model
                    .evaluate_accuracy(&test_359, &test_labels[..359])
                    .to_bits(),
                model
                    .evaluate_loss(&train_361, &train_labels[..361])
                    .to_bits(),
            ];
            for threads in [1, 2] {
                let whole = (&test, &test_labels[..]);
                let observed = evaluation_bits(&model, whole, (&train, train_labels), threads);
                assert_eq!(observed, recorded[..2], "{threads} spans");
                let prefixes = (
                    (&test_359, &test_labels[..359]),
                    (&train_361, &train_labels[..361]),
                );
                let observed = evaluation_bits(&model, prefixes.0, prefixes.1, threads);
                assert_eq!(observed, serial, "359 + 361 rows, {threads} spans");
            }
            let (accuracy, loss) = model.evaluate(&test, test_labels, &train, train_labels);
            assert_eq!([accuracy.to_bits(), loss.to_bits()], recorded[..2]);
        }
    }

    #[test]
    fn evaluation_in_spans_is_the_serial_pass_bit_for_bit_on_random_shapes() {
        // Row counts on both sides of a band (32) and of a four-row group,
        // magnitudes over 16 decades so any reordering of a row's adds would
        // round differently, and confident predictions that reach the
        // cross-entropy clamp.
        let mut rng = StdRng::seed_from_u64(31);
        for (test_rows, train_rows, cols) in [
            (1, 1, 1),
            (3, 5, 7),
            (31, 33, 7),
            (32, 64, 261),
            (33, 65, 19),
            (359, 361, 261),
            (361, 359, 40),
        ] {
            let mut draw = |len: usize| -> Vec<f64> {
                (0..len)
                    .map(|_| rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-8i32..8)))
                    .collect()
            };
            let test = Matrix::from_vec(test_rows, cols, draw(test_rows * cols));
            let train = Matrix::from_vec(train_rows, cols, draw(train_rows * cols));
            let model = LogisticModel {
                weights: draw(cols),
            };
            let labels = |rows: usize, rng: &mut StdRng| -> Vec<f64> {
                (0..rows).map(|_| rng.gen_range(0..2) as f64).collect()
            };
            let test_labels = labels(test_rows, &mut rng);
            let train_labels = labels(train_rows, &mut rng);
            let serial = [
                model.evaluate_accuracy(&test, &test_labels).to_bits(),
                model.evaluate_loss(&train, &train_labels).to_bits(),
            ];
            for threads in [1, 2, 3] {
                let observed = evaluation_bits(
                    &model,
                    (&test, &test_labels),
                    (&train, &train_labels),
                    threads,
                );
                assert_eq!(
                    observed, serial,
                    "{test_rows} + {train_rows} rows x {cols}, {threads} spans"
                );
            }
        }
    }
}
