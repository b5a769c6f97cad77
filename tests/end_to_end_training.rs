//! Integration tests spanning the whole stack: dataset → quantization →
//! coding → cluster simulation → verification → decoding → model update.
//!
//! These are the executable versions of the paper's qualitative claims:
//! under Byzantine attack, AVCC keeps the accuracy of an attack-free run,
//! LCC survives only within its designed tolerance, and the uncoded baseline
//! degrades; under stragglers, the coded schemes finish faster than the
//! uncoded scheme.

use avcc::core::report::speedup;
use avcc::core::{run_experiment, ExperimentConfig, FaultScenario};
use avcc::field::P25;
use avcc::ml::dataset::DatasetConfig;
use avcc::sim::attack::AttackModel;

/// A dataset small enough for debug-mode CI but large enough to learn.
fn quick_dataset() -> DatasetConfig {
    DatasetConfig {
        train_samples: 360,
        test_samples: 120,
        features: 36,
        informative: 12,
        ..DatasetConfig::default()
    }
}

fn quick(mut config: ExperimentConfig, iterations: usize) -> ExperimentConfig {
    config.dataset = quick_dataset();
    config.iterations = iterations;
    config
}

#[test]
fn avcc_matches_attack_free_accuracy_under_constant_attack() {
    // Attack-free AVCC run as the reference.
    let clean = quick(
        ExperimentConfig::paper_avcc(2, 1, FaultScenario::none()),
        25,
    );
    let clean_report = run_experiment::<P25>(&clean).unwrap();

    // Same run with one straggler and one constant-attack Byzantine worker.
    let attacked = quick(
        ExperimentConfig::paper_avcc(2, 1, FaultScenario::paper(1, 1, AttackModel::constant())),
        25,
    );
    let attacked_report = run_experiment::<P25>(&attacked).unwrap();

    assert!(
        attacked_report.final_accuracy() >= clean_report.final_accuracy() - 0.03,
        "AVCC under attack ({}) must match the attack-free accuracy ({})",
        attacked_report.final_accuracy(),
        clean_report.final_accuracy()
    );
    assert!(attacked_report.total_detections() > 0);
}

#[test]
fn uncoded_accuracy_degrades_under_constant_attack_but_avcc_does_not() {
    let scenario = FaultScenario::paper(1, 2, AttackModel::constant());
    let avcc = quick(ExperimentConfig::paper_avcc(1, 2, scenario.clone()), 25);
    let uncoded = quick(ExperimentConfig::paper_uncoded(scenario), 25);
    let avcc_report = run_experiment::<P25>(&avcc).unwrap();
    let uncoded_report = run_experiment::<P25>(&uncoded).unwrap();
    assert!(
        avcc_report.final_accuracy() > uncoded_report.final_accuracy() + 0.02,
        "AVCC ({}) must beat the unprotected baseline ({}) under attack",
        avcc_report.final_accuracy(),
        uncoded_report.final_accuracy()
    );
}

#[test]
fn avcc_is_at_least_as_accurate_as_lcc_when_lcc_is_overwhelmed() {
    // Two Byzantine workers exceed LCC's designed (S=1, M=1) tolerance while
    // AVCC designed for (S=1, M=2) handles them — the Fig. 3(d) comparison.
    let scenario = FaultScenario::paper(1, 2, AttackModel::constant());
    let avcc = quick(ExperimentConfig::paper_avcc(1, 2, scenario.clone()), 25);
    let lcc = quick(ExperimentConfig::paper_lcc(scenario), 25);
    let avcc_report = run_experiment::<P25>(&avcc).unwrap();
    let lcc_report = run_experiment::<P25>(&lcc).unwrap();
    assert!(
        avcc_report.final_accuracy() >= lcc_report.final_accuracy() - 1e-9,
        "AVCC ({}) must not be worse than overwhelmed LCC ({})",
        avcc_report.final_accuracy(),
        lcc_report.final_accuracy()
    );
}

#[test]
fn coded_schemes_outpace_the_uncoded_scheme_under_stragglers() {
    // Two stragglers, no Byzantine workers: the uncoded scheme waits for the
    // stragglers every iteration, the coded schemes do not.
    let scenario = FaultScenario::paper(2, 0, AttackModel::None);
    let avcc = quick(ExperimentConfig::paper_avcc(2, 1, scenario.clone()), 8);
    let uncoded = quick(ExperimentConfig::paper_uncoded(scenario), 8);
    let avcc_report = run_experiment::<P25>(&avcc).unwrap();
    let uncoded_report = run_experiment::<P25>(&uncoded).unwrap();
    assert!(
        avcc_report.total_seconds() < uncoded_report.total_seconds(),
        "AVCC ({}) should finish before the uncoded baseline ({}) with stragglers present",
        avcc_report.total_seconds(),
        uncoded_report.total_seconds()
    );
    // The speedup helper should agree (total-time fallback is fine here).
    assert!(speedup(&avcc_report, &uncoded_report, 0.99) > 1.0);
}

#[test]
fn lcc_and_avcc_produce_identical_model_trajectories_without_faults() {
    // With no stragglers and no Byzantine workers both coded schemes compute
    // exactly the same (quantized) gradients, so their accuracy trajectories
    // must be identical even though their decoding paths differ.
    let scenario = FaultScenario::none();
    let avcc = quick(ExperimentConfig::paper_avcc(2, 1, scenario.clone()), 10);
    let lcc = quick(ExperimentConfig::paper_lcc(scenario), 10);
    let avcc_report = run_experiment::<P25>(&avcc).unwrap();
    let lcc_report = run_experiment::<P25>(&lcc).unwrap();
    for (a, l) in avcc_report
        .iterations
        .iter()
        .zip(lcc_report.iterations.iter())
    {
        assert!(
            (a.test_accuracy - l.test_accuracy).abs() < 1e-12,
            "iteration {}: AVCC accuracy {} vs LCC accuracy {}",
            a.iteration,
            a.test_accuracy,
            l.test_accuracy
        );
    }
}

#[test]
fn all_schemes_learn_something_in_the_fault_free_case() {
    let scenario = FaultScenario::none();
    for config in [
        quick(ExperimentConfig::paper_uncoded(scenario.clone()), 20),
        quick(ExperimentConfig::paper_lcc(scenario.clone()), 20),
        quick(ExperimentConfig::paper_avcc(2, 1, scenario.clone()), 20),
    ] {
        let label = config.scheme.label();
        let report = run_experiment::<P25>(&config).unwrap();
        assert!(
            report.final_accuracy() > 0.7,
            "{label} reached only {}",
            report.final_accuracy()
        );
        assert_eq!(
            report.total_detections(),
            0,
            "{label} had spurious detections"
        );
    }
}

#[test]
fn reverse_value_attack_is_detected_by_both_protected_schemes() {
    let scenario = FaultScenario::paper(1, 1, AttackModel::reverse());
    let avcc = quick(ExperimentConfig::paper_avcc(2, 1, scenario.clone()), 8);
    let lcc = quick(ExperimentConfig::paper_lcc(scenario), 8);
    let avcc_report = run_experiment::<P25>(&avcc).unwrap();
    let lcc_report = run_experiment::<P25>(&lcc).unwrap();
    assert!(avcc_report.total_detections() > 0);
    assert!(lcc_report.total_detections() > 0);
}

#[test]
fn experiments_are_reproducible_bit_for_bit() {
    // Every cost is modeled, so running an experiment again reproduces its
    // report exactly — costs, detections, stragglers and reconfigurations
    // included: AVCC in Table I's reverse_s2_m1 setting, and LCC beyond its
    // design in constant_s1_m2.
    for config in [
        ExperimentConfig::paper_avcc(2, 1, FaultScenario::paper(2, 1, AttackModel::reverse())),
        ExperimentConfig::paper_lcc(FaultScenario::paper(1, 2, AttackModel::constant())),
    ] {
        let config = quick(config, 10);
        let first = run_experiment::<P25>(&config).unwrap();
        let second = run_experiment::<P25>(&config).unwrap();
        assert_eq!(first, second, "{}", config.scheme.label());
    }
}
