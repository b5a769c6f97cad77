//! Synthetic GISETTE-like dataset generation.
//!
//! The paper trains on GISETTE (Guyon et al., NIPS 2003 feature-selection
//! challenge): `m = 6000` samples, `d = 5000` features, binary labels, and —
//! critically for the finite-field embedding — **non-negative integer
//! features** that fit in the 25-bit field without quantization. The dataset
//! itself is not bundled here, so [`Dataset::gisette_like`] synthesizes data
//! with the same structural properties:
//!
//! * features are non-negative integers in `[0, max_feature_value]`,
//! * most features are noise; a configurable subset is informative,
//! * labels come from a ground-truth linear separator through the informative
//!   features with label-flip noise, so logistic regression converges to a
//!   high but not perfect accuracy — giving the accuracy-vs-time curves of
//!   Fig. 3 room to show degradation under Byzantine attacks.

use avcc_linalg::Matrix;
use rand::Rng;

/// Configuration for the synthetic dataset generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetConfig {
    /// Number of training samples `m`.
    pub train_samples: usize,
    /// Number of test samples.
    pub test_samples: usize,
    /// Feature dimension `d`.
    pub features: usize,
    /// Number of informative features (the rest are noise).
    pub informative: usize,
    /// Largest feature value (GISETTE pixel counts are in [0, 999]).
    pub max_feature_value: u64,
    /// Probability of flipping a label (injects irreducible error).
    pub label_noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        // Both dimensions are divisible by the paper's K = 9 partitions, and
        // the sample-to-feature ratio is large enough that 50 iterations of
        // full-batch gradient descent reach the paper's ~90-95% test-accuracy
        // range.
        DatasetConfig {
            train_samples: 900,
            test_samples: 300,
            features: 63,
            informative: 21,
            max_feature_value: 999,
            label_noise: 0.02,
            seed: 7,
        }
    }
}

impl DatasetConfig {
    /// The paper's full GISETTE shape (6000 × 5000, with an extra bias column
    /// folded into the feature count). Heavy; used only by the full-scale
    /// benchmark harness.
    pub fn gisette_full() -> Self {
        DatasetConfig {
            train_samples: 6000,
            test_samples: 1000,
            features: 5000,
            informative: 300,
            ..DatasetConfig::default()
        }
    }
}

/// A binary-classification dataset with a train/test split.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Training features (`m × d`), non-negative integers stored as `f64`.
    pub train_features: Matrix<f64>,
    /// Training labels in `{0.0, 1.0}`.
    pub train_labels: Vec<f64>,
    /// Test features.
    pub test_features: Matrix<f64>,
    /// Test labels in `{0.0, 1.0}`.
    pub test_labels: Vec<f64>,
    /// The ground-truth separator used to generate labels (for diagnostics).
    pub true_weights: Vec<f64>,
}

impl Dataset {
    /// Generates a GISETTE-like dataset from the configuration.
    pub fn gisette_like(config: DatasetConfig) -> Self {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(config.seed);
        Self::generate(config, &mut rng)
    }

    /// Generates a dataset with an explicit RNG.
    pub fn generate<R: Rng + ?Sized>(config: DatasetConfig, rng: &mut R) -> Self {
        assert!(config.features > 0, "need at least one feature");
        assert!(
            config.informative > 0 && config.informative <= config.features,
            "informative feature count must be in [1, d]"
        );
        // Ground-truth separator over the informative features only.
        let mut true_weights = vec![0.0f64; config.features];
        for weight in true_weights.iter_mut().take(config.informative) {
            *weight = rng.gen_range(-1.0..=1.0);
        }

        let (train_features, train_labels) =
            Self::sample_block(config, &true_weights, config.train_samples, rng);
        let (test_features, test_labels) =
            Self::sample_block(config, &true_weights, config.test_samples, rng);
        Dataset {
            train_features,
            train_labels,
            test_features,
            test_labels,
            true_weights,
        }
    }

    fn sample_block<R: Rng + ?Sized>(
        config: DatasetConfig,
        true_weights: &[f64],
        samples: usize,
        rng: &mut R,
    ) -> (Matrix<f64>, Vec<f64>) {
        let d = config.features;
        let mut data = Vec::with_capacity(samples * d);
        let mut raw_scores = Vec::with_capacity(samples);
        for _ in 0..samples {
            let mut score = 0.0;
            for (j, &weight) in true_weights.iter().enumerate().take(d) {
                // The last column is a constant bias feature (the paper folds
                // the bias into the weights); without it the learner could not
                // represent the median threshold used to balance the classes.
                let value = if j + 1 == d {
                    config.max_feature_value as f64
                } else {
                    rng.gen_range(0..=config.max_feature_value) as f64
                };
                score += value * weight;
                data.push(value);
            }
            raw_scores.push(score);
        }
        // Center the scores so the two classes are roughly balanced.
        let mut sorted = raw_scores.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[samples / 2];
        let labels = raw_scores
            .iter()
            .map(|&score| {
                let label = if score > median { 1.0 } else { 0.0 };
                if rng.gen_bool(config.label_noise) {
                    1.0 - label
                } else {
                    label
                }
            })
            .collect();
        (Matrix::from_vec(samples, d, data), labels)
    }

    /// Number of training samples.
    pub fn train_len(&self) -> usize {
        self.train_labels.len()
    }

    /// Number of test samples.
    pub fn test_len(&self) -> usize {
        self.test_labels.len()
    }

    /// Feature dimension.
    pub fn features(&self) -> usize {
        self.train_features.cols()
    }

    /// Returns a copy whose training-set size is padded (by repeating samples)
    /// or truncated so it is divisible by `partitions` — MDS/Lagrange coding
    /// splits the data into `K` equal row blocks.
    pub fn with_train_size_divisible_by(&self, partitions: usize) -> Dataset {
        assert!(partitions > 0, "partitions must be positive");
        let m = self.train_len();
        let remainder = m % partitions;
        if remainder == 0 {
            return self.clone();
        }
        let target = m - remainder;
        Dataset {
            train_features: self.train_features.row_slice(0, target),
            train_labels: self.train_labels[..target].to_vec(),
            test_features: self.test_features.clone(),
            test_labels: self.test_labels.clone(),
            true_weights: self.true_weights.clone(),
        }
    }

    /// Fraction of positive training labels (diagnostic).
    pub fn positive_fraction(&self) -> f64 {
        self.train_labels.iter().sum::<f64>() / self.train_len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_shapes_match_configuration() {
        let config = DatasetConfig {
            train_samples: 120,
            test_samples: 40,
            features: 30,
            informative: 10,
            ..DatasetConfig::default()
        };
        let dataset = Dataset::gisette_like(config);
        assert_eq!(dataset.train_len(), 120);
        assert_eq!(dataset.test_len(), 40);
        assert_eq!(dataset.features(), 30);
        assert_eq!(dataset.train_features.rows(), 120);
        assert_eq!(dataset.train_features.cols(), 30);
        assert_eq!(dataset.true_weights.len(), 30);
    }

    #[test]
    fn features_are_nonnegative_integers_in_range() {
        let dataset = Dataset::gisette_like(DatasetConfig::default());
        for &value in dataset.train_features.data() {
            assert!((0.0..=999.0).contains(&value));
            assert_eq!(value.fract(), 0.0, "feature values must be integers");
        }
    }

    #[test]
    fn labels_are_binary_and_roughly_balanced() {
        let dataset = Dataset::gisette_like(DatasetConfig::default());
        for &label in dataset
            .train_labels
            .iter()
            .chain(dataset.test_labels.iter())
        {
            assert!(label == 0.0 || label == 1.0);
        }
        let fraction = dataset.positive_fraction();
        assert!(
            fraction > 0.3 && fraction < 0.7,
            "positive fraction {fraction}"
        );
    }

    #[test]
    fn generation_is_reproducible_from_the_seed() {
        let a = Dataset::gisette_like(DatasetConfig::default());
        let b = Dataset::gisette_like(DatasetConfig::default());
        assert_eq!(a, b);
        let c = Dataset::gisette_like(DatasetConfig {
            seed: 8,
            ..DatasetConfig::default()
        });
        assert_ne!(a.train_labels, c.train_labels);
    }

    #[test]
    fn divisibility_adjustment_truncates_to_a_multiple() {
        let config = DatasetConfig {
            train_samples: 100,
            ..DatasetConfig::default()
        };
        let dataset = Dataset::gisette_like(config);
        let adjusted = dataset.with_train_size_divisible_by(9);
        assert_eq!(adjusted.train_len() % 9, 0);
        assert_eq!(adjusted.train_len(), 99);
        // Already divisible: unchanged.
        let unchanged = dataset.with_train_size_divisible_by(10);
        assert_eq!(unchanged.train_len(), 100);
    }

    #[test]
    #[should_panic(expected = "informative feature count")]
    fn invalid_informative_count_panics() {
        let config = DatasetConfig {
            informative: 0,
            ..DatasetConfig::default()
        };
        let _ = Dataset::gisette_like(config);
    }
}
