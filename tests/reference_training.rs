//! An oracle that shares nothing with the system under test.
//!
//! `QuantizedProtocol::reference_iteration` computes one training iteration
//! centrally — plain `mat_vec` over the field, no coding, no executor, no
//! verification, no decode. Looping it with `apply_gradient` gives the model
//! trajectory every distributed scheme must reproduce *bit for bit*: decode
//! is exact over the field, and a scheme running inside its fault budget
//! discards (or corrects) every corrupted result before it reaches the model.

use avcc::coding::SchemeConfig;
use avcc::core::{DistributedTrainer, SchemeKind, TrainerConfig, TrainingProblem};
use avcc::field::P25;
use avcc::ml::dataset::{Dataset, DatasetConfig};
use avcc::ml::logistic::LogisticModel;
use avcc::sim::attack::{AttackModel, ByzantineSpec};
use avcc::sim::cluster::ClusterProfile;

fn problem() -> TrainingProblem {
    let dataset = Dataset::gisette_like(DatasetConfig {
        train_samples: 180,
        test_samples: 60,
        features: 27,
        informative: 9,
        ..DatasetConfig::default()
    });
    TrainingProblem::from_dataset(&dataset, 9)
}

fn config(scheme: SchemeKind, stragglers: usize, byzantine: usize) -> TrainerConfig {
    TrainerConfig {
        iterations: 6,
        ..TrainerConfig::paper_defaults(
            scheme,
            SchemeConfig::linear(12, 9, stragglers, byzantine).unwrap(),
        )
    }
}

/// The centralized trajectory: weights after the last iteration plus the
/// per-iteration `(test_accuracy, train_loss)`.
fn reference(problem: &TrainingProblem, config: &TrainerConfig) -> (Vec<f64>, Vec<(f64, f64)>) {
    let protocol = problem.default_protocol::<P25>();
    let features = problem.round1_matrix::<P25>(&protocol);
    let transposed = problem.round2_matrix::<P25>(&protocol);
    let mut model = LogisticModel::zeros(problem.features());
    let mut trajectory = Vec::with_capacity(config.iterations);
    for _ in 0..config.iterations {
        let (_, _, _, gradient) = protocol.reference_iteration(
            &features,
            &transposed,
            &model.weights,
            &problem.train_labels,
        );
        model.apply_gradient(&gradient, config.learning_rate, problem.samples());
        trajectory.push((
            model.evaluate_accuracy(&problem.test_features, &problem.test_labels),
            model.evaluate_loss(&problem.train_features, &problem.train_labels),
        ));
    }
    (model.weights, trajectory)
}

fn assert_matches_reference(
    config: TrainerConfig,
    cluster: ClusterProfile,
    byzantine: ByzantineSpec,
) {
    let problem = problem();
    let (weights, trajectory) = reference(&problem, &config);
    let mut trainer =
        DistributedTrainer::<P25>::new(problem, cluster, byzantine, config, "reference-training");
    let report = trainer.train().expect("training inside the fault budget");
    let trained: Vec<(f64, f64)> = report
        .iterations
        .iter()
        .map(|record| (record.test_accuracy, record.train_loss))
        .collect();
    assert_eq!(trained, trajectory, "{:?} trajectory", config.scheme);
    assert_eq!(
        trainer.model().weights,
        weights,
        "{:?} weights",
        config.scheme
    );
}

/// Trains under one ×10 straggler and one Byzantine worker — inside the
/// `(S, M)` budget of every coded configuration below.
fn assert_matches_reference_under_faults(config: TrainerConfig) {
    assert_matches_reference(
        config,
        ClusterProfile::uniform(12).with_stragglers(&[0], 10.0),
        ByzantineSpec::new([3], AttackModel::reverse()),
    );
}

#[test]
fn avcc_matches_the_centralized_reference_under_faults() {
    assert_matches_reference_under_faults(config(SchemeKind::Avcc, 2, 1));
}

#[test]
fn static_vcc_matches_the_centralized_reference_under_faults() {
    assert_matches_reference_under_faults(config(SchemeKind::StaticVcc, 2, 1));
}

#[test]
fn lcc_matches_the_centralized_reference_under_faults() {
    assert_matches_reference_under_faults(config(SchemeKind::Lcc, 1, 1));
}

#[test]
fn uncoded_matches_the_centralized_reference_fault_free() {
    assert_matches_reference(
        config(SchemeKind::Uncoded, 0, 0),
        ClusterProfile::uniform(12),
        ByzantineSpec::none(),
    );
}
