//! Preparation of the training problem for distributed execution.
//!
//! Every scheme trains on identical inputs: the features are column-centered
//! and max-scaled ([`avcc_ml::FeatureScaler`]), the training-set size is made
//! divisible by the partition count `K` (row-blocked round 1) and the feature
//! dimension is zero-padded to a multiple of `K` (row-blocked round 2 operates
//! on `Xᵀ`). The padded columns carry zero weight forever, so the learning
//! problem is unchanged.

use avcc_field::{Fp, PrimeModulus};
use avcc_linalg::Matrix;
use avcc_ml::dataset::Dataset;
use avcc_ml::logistic::FeatureScaler;
use avcc_ml::quantized::QuantizedProtocol;

/// A training problem prepared for a given partition count.
#[derive(Debug, Clone)]
pub struct TrainingProblem {
    /// Scaled training features (`m × d`, with `m` and `d` multiples of `K`).
    pub train_features: Matrix<f64>,
    /// Training labels in `{0, 1}`.
    pub train_labels: Vec<f64>,
    /// Scaled test features (same column layout as training).
    pub test_features: Matrix<f64>,
    /// Test labels in `{0, 1}`.
    pub test_labels: Vec<f64>,
    /// The partition count the dimensions were aligned to.
    pub partitions: usize,
}

impl TrainingProblem {
    /// Prepares a problem from a raw dataset for `partitions` data blocks.
    pub fn from_dataset(dataset: &Dataset, partitions: usize) -> Self {
        assert!(partitions > 0, "partitions must be positive");
        let dataset = dataset.with_train_size_divisible_by(partitions);
        let (_, train_scaled, test_scaled) =
            FeatureScaler::fit_transform(&dataset.train_features, &dataset.test_features);
        let train_features = pad_columns(&train_scaled, partitions);
        let test_features = pad_columns(&test_scaled, partitions);
        TrainingProblem {
            train_features,
            train_labels: dataset.train_labels.clone(),
            test_features,
            test_labels: dataset.test_labels.clone(),
            partitions,
        }
    }

    /// Number of training samples `m`.
    pub fn samples(&self) -> usize {
        self.train_labels.len()
    }

    /// Feature dimension `d` (after padding).
    pub fn features(&self) -> usize {
        self.train_features.cols()
    }

    /// Quantizes the training features for round 1 (`X`, row-partitioned).
    pub fn round1_matrix<M: PrimeModulus>(&self, protocol: &QuantizedProtocol) -> Matrix<Fp<M>> {
        protocol.quantize_features(&self.train_features)
    }

    /// The quantized transposed training features for round 2 (`Xᵀ`,
    /// row-partitioned): the transpose of
    /// [`round1_matrix`](Self::round1_matrix). Quantization works element by
    /// element, so this is exactly the quantized `f64` transpose, without a
    /// second pass over the features; a caller holding the round-1 matrix
    /// transposes it instead.
    pub fn round2_matrix<M: PrimeModulus>(&self, protocol: &QuantizedProtocol) -> Matrix<Fp<M>> {
        self.round1_matrix(protocol).transpose()
    }

    /// The default quantization protocol for this problem in the field `M`,
    /// sized for weights of magnitude at most 4 (an assumption training does
    /// not enforce: [`QuantizedProtocol::for_problem`]).
    pub fn default_protocol<M: PrimeModulus>(&self) -> QuantizedProtocol {
        QuantizedProtocol::for_problem::<M>(self.samples(), self.features(), 4.0)
    }
}

/// Pads a matrix with zero columns until its column count is a multiple of
/// `partitions`.
fn pad_columns(matrix: &Matrix<f64>, partitions: usize) -> Matrix<f64> {
    let remainder = matrix.cols() % partitions;
    if remainder == 0 {
        return matrix.clone();
    }
    let extra = partitions - remainder;
    let new_cols = matrix.cols() + extra;
    let mut data = Vec::with_capacity(matrix.rows() * new_cols);
    for row in matrix.rows_iter() {
        data.extend_from_slice(row);
        data.extend(std::iter::repeat_n(0.0, extra));
    }
    Matrix::from_vec(matrix.rows(), new_cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use avcc_field::P25;
    use avcc_ml::dataset::DatasetConfig;

    #[test]
    fn dimensions_are_aligned_to_partitions() {
        let dataset = Dataset::gisette_like(DatasetConfig {
            train_samples: 100,
            test_samples: 30,
            features: 25,
            informative: 10,
            ..DatasetConfig::default()
        });
        let problem = TrainingProblem::from_dataset(&dataset, 9);
        assert_eq!(problem.samples() % 9, 0);
        assert_eq!(problem.features() % 9, 0);
        assert_eq!(problem.test_features.cols(), problem.features());
        assert_eq!(problem.partitions, 9);
    }

    #[test]
    fn already_aligned_dimensions_are_untouched() {
        let dataset = Dataset::gisette_like(DatasetConfig::default());
        let problem = TrainingProblem::from_dataset(&dataset, 9);
        assert_eq!(problem.samples(), 900);
        assert_eq!(problem.features(), 63);
    }

    #[test]
    fn padded_columns_are_zero() {
        let dataset = Dataset::gisette_like(DatasetConfig {
            train_samples: 90,
            test_samples: 30,
            features: 20,
            informative: 8,
            ..DatasetConfig::default()
        });
        let problem = TrainingProblem::from_dataset(&dataset, 9);
        assert_eq!(problem.features(), 27);
        for i in 0..problem.train_features.rows() {
            for j in 20..27 {
                assert_eq!(*problem.train_features.get(i, j), 0.0);
            }
        }
    }

    #[test]
    fn quantized_matrices_have_matching_shapes() {
        let dataset = Dataset::gisette_like(DatasetConfig::default());
        let problem = TrainingProblem::from_dataset(&dataset, 9);
        let protocol = problem.default_protocol::<P25>();
        let round1 = problem.round1_matrix::<P25>(&protocol);
        let round2 = problem.round2_matrix::<P25>(&protocol);
        assert_eq!(round1.rows(), problem.samples());
        assert_eq!(round1.cols(), problem.features());
        assert_eq!(round2.rows(), problem.features());
        assert_eq!(round2.cols(), problem.samples());
    }

    #[test]
    fn round2_is_the_quantized_transpose() {
        // The `train_*` shape: 1 800 × 261 once aligned to K = 9.
        let dataset = Dataset::gisette_like(DatasetConfig {
            train_samples: 1800,
            test_samples: 360,
            features: 255,
            informative: 85,
            ..DatasetConfig::default()
        });
        let problem = TrainingProblem::from_dataset(&dataset, 9);
        assert_eq!((problem.samples(), problem.features()), (1800, 261));
        let protocol = problem.default_protocol::<P25>();
        let round1 = problem.round1_matrix::<P25>(&protocol);
        let round2 = problem.round2_matrix::<P25>(&protocol);
        assert_eq!(round2, round1.transpose());
        // And both are what quantizing the `f64` transpose gives.
        assert_eq!(
            round2,
            protocol.quantize_features::<P25>(&problem.train_features.transpose())
        );
    }
}
