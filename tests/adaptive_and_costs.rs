//! Integration tests of the dynamic-coding behaviour (Fig. 5) and the cost
//! accounting that feeds Fig. 4 and Table I.

use avcc::core::{
    run_dynamic_coding_scenario, run_experiment, ExperimentConfig, FaultScenario, SchemeKind,
};
use avcc::field::P25;
use avcc::ml::dataset::DatasetConfig;
use avcc::sim::attack::AttackModel;

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

/// The Fig. 5 scenario: three stragglers and one Byzantine node appear at
/// iteration 1. AVCC must re-encode exactly because the slack goes negative,
/// and must finish before Static VCC, which keeps paying straggler latency.
#[test]
fn dynamic_coding_beats_static_vcc_in_the_figure_5_scenario() {
    let scenario = FaultScenario {
        stragglers: Vec::new(),
        straggler_multiplier: 8.0,
        byzantine: vec![4],
        attack: AttackModel::constant(),
    };
    let avcc = quick(ExperimentConfig::paper_avcc(2, 1, scenario.clone()), 30);
    let mut static_vcc = avcc.clone();
    static_vcc.scheme = SchemeKind::StaticVcc;

    let avcc_report = run_dynamic_coding_scenario::<P25>(&avcc, 1, &[0, 1, 2], 8.0).unwrap();
    let static_report =
        run_dynamic_coding_scenario::<P25>(&static_vcc, 1, &[0, 1, 2], 8.0).unwrap();

    assert!(
        avcc_report.reconfiguration_count() >= 1,
        "AVCC must re-encode"
    );
    assert_eq!(
        static_report.reconfiguration_count(),
        0,
        "Static VCC must not"
    );
    assert!(
        avcc_report.total_seconds() < static_report.total_seconds(),
        "AVCC total {} should beat Static VCC total {}",
        avcc_report.total_seconds(),
        static_report.total_seconds()
    );
    // The re-encoding iteration carries a visible one-time cost.
    assert!(avcc_report
        .iterations
        .iter()
        .any(|r| r.costs.reconfiguration > 0.0));
    // Both still converge.
    assert!(avcc_report.final_accuracy() > 0.7);
    assert!(static_report.final_accuracy() > 0.7);
}

/// Cost-breakdown sanity backing Fig. 4: only the verifying schemes charge
/// verification time, only the coded schemes charge decoding time, and
/// straggler scenarios dominate the fault-free compute time.
#[test]
fn cost_breakdown_structure_matches_the_schemes() {
    let clean = FaultScenario::none();
    let uncoded =
        run_experiment::<P25>(&quick(ExperimentConfig::paper_uncoded(clean.clone()), 6)).unwrap();
    let lcc = run_experiment::<P25>(&quick(ExperimentConfig::paper_lcc(clean.clone()), 6)).unwrap();
    let avcc = run_experiment::<P25>(&quick(ExperimentConfig::paper_avcc(2, 1, clean), 6)).unwrap();

    let uncoded_costs = uncoded.average_costs();
    let lcc_costs = lcc.average_costs();
    let avcc_costs = avcc.average_costs();

    // Verification time exists only for AVCC.
    assert_eq!(uncoded_costs.verification, 0.0);
    assert_eq!(lcc_costs.verification, 0.0);
    assert!(avcc_costs.verification > 0.0);
    // Every scheme has nonzero compute and communication.
    for costs in [&uncoded_costs, &lcc_costs, &avcc_costs] {
        assert!(costs.compute > 0.0);
        assert!(costs.communication > 0.0);
    }
    // Coded decoding is more expensive than uncoded reassembly.
    assert!(lcc_costs.decoding > uncoded_costs.decoding);
    assert!(avcc_costs.decoding > 0.0);
}

/// With stragglers present the straggler latency dwarfs the verification and
/// decoding overheads (the message of Fig. 4(b)/(c)).
#[test]
fn straggler_latency_dwarfs_master_side_overheads() {
    let scenario = FaultScenario::paper(2, 1, AttackModel::reverse());
    let uncoded =
        run_experiment::<P25>(&quick(ExperimentConfig::paper_uncoded(scenario.clone()), 6))
            .unwrap();
    let avcc =
        run_experiment::<P25>(&quick(ExperimentConfig::paper_avcc(2, 1, scenario), 6)).unwrap();
    let avcc_costs = avcc.average_costs();
    let uncoded_costs = uncoded.average_costs();
    // The uncoded scheme waits for the stragglers; AVCC does not.
    assert!(
        uncoded_costs.compute > avcc_costs.compute,
        "uncoded compute {} should exceed AVCC compute {}",
        uncoded_costs.compute,
        avcc_costs.compute
    );
    // AVCC's protection overhead is small relative to the straggler latency it
    // avoids.
    let overhead = avcc_costs.verification + avcc_costs.decoding;
    let avoided = uncoded_costs.compute - avcc_costs.compute;
    assert!(
        overhead < avoided,
        "verification+decoding ({overhead}) should be cheaper than the avoided straggler latency ({avoided})"
    );
}

/// Cumulative timelines are monotone and consistent with the per-iteration
/// totals — the invariant behind every time axis in the figures.
#[test]
fn cumulative_timelines_are_monotone_and_consistent() {
    let scenario = FaultScenario::paper(1, 1, AttackModel::constant());
    let report =
        run_experiment::<P25>(&quick(ExperimentConfig::paper_avcc(2, 1, scenario), 10)).unwrap();
    let timeline = report.cumulative_timeline();
    assert_eq!(timeline.len(), 10);
    let mut previous = 0.0;
    for (record, &cumulative) in report.iterations.iter().zip(timeline.iter()) {
        assert!(cumulative > previous, "timeline must strictly increase");
        let expected = previous + record.costs.total();
        assert!((cumulative - expected).abs() < 1e-9);
        previous = cumulative;
    }
    assert!((report.total_seconds() - previous).abs() < 1e-12);
}
