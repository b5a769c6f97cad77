//! Shared helpers for the benchmark harness binaries that regenerate the
//! paper's tables and figures.
//!
//! Every binary supports two modes:
//!
//! * **quick** (default) — a scaled-down dataset and 50 iterations; finishes
//!   in seconds and is what CI runs.
//! * **full** — set `AVCC_FULL=1` to use the GISETTE-sized dataset
//!   (6000 × 5000). Slow, but dimensionally identical to the paper.
//!
//! The binaries print tab-separated series that correspond one-to-one to the
//! paper's plots; every number is modeled time, so two runs print the same
//! bytes. `EXPERIMENTS.md` records a captured run.

use avcc_core::{ExperimentConfig, FaultScenario, SchemeKind};
use avcc_ml::dataset::DatasetConfig;
use avcc_sim::attack::AttackModel;

/// Returns `true` when the full-scale (GISETTE-sized) configuration was
/// requested via the `AVCC_FULL` environment variable.
pub fn full_scale() -> bool {
    std::env::var("AVCC_FULL")
        .map(|v| v != "0")
        .unwrap_or(false)
}

/// The dataset configuration used by the harness (quick or full scale).
pub fn harness_dataset() -> DatasetConfig {
    if full_scale() {
        DatasetConfig::gisette_full()
    } else {
        DatasetConfig::default()
    }
}

/// Applies the harness dataset and iteration count to an experiment config.
/// Both modes run on the one modeled clock,
/// [`SECONDS_PER_MAC`](avcc_sim::SECONDS_PER_MAC): full scale charges its
/// GISETTE-sized blocks at the same rate per MAC as quick mode's.
pub fn harness_tune(mut config: ExperimentConfig) -> ExperimentConfig {
    config.dataset = harness_dataset();
    config.iterations = 50;
    config
}

/// The four evaluation settings of Fig. 3 and Table I:
/// `(label, attack, actual stragglers S, actual Byzantine workers M)`.
pub fn paper_settings() -> Vec<(&'static str, AttackModel, usize, usize)> {
    vec![
        ("reverse_s2_m1", AttackModel::reverse(), 2, 1),
        ("reverse_s1_m2", AttackModel::reverse(), 1, 2),
        ("constant_s2_m1", AttackModel::constant(), 2, 1),
        ("constant_s1_m2", AttackModel::constant(), 1, 2),
    ]
}

/// Builds the three scheme configurations compared in one Fig. 3 panel:
/// uncoded, LCC (designed for `S = 1, M = 1`) and AVCC (designed for the
/// actual `(S, M)` of the setting).
pub fn panel_configs(
    attack: AttackModel,
    stragglers: usize,
    byzantine: usize,
) -> Vec<(SchemeKind, ExperimentConfig)> {
    let scenario = FaultScenario::paper(stragglers, byzantine, attack);
    vec![
        (
            SchemeKind::Uncoded,
            harness_tune(ExperimentConfig::paper_uncoded(scenario.clone())),
        ),
        (
            SchemeKind::Lcc,
            harness_tune(ExperimentConfig::paper_lcc(scenario.clone())),
        ),
        (
            SchemeKind::Avcc,
            harness_tune(ExperimentConfig::paper_avcc(
                stragglers, byzantine, scenario,
            )),
        ),
    ]
}

/// Formats a float with a fixed number of decimals for the tab-separated
/// output tables.
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_settings_cover_both_attacks_and_both_splits() {
        let settings = paper_settings();
        assert_eq!(settings.len(), 4);
        assert!(settings
            .iter()
            .any(|(label, ..)| *label == "constant_s1_m2"));
    }

    #[test]
    fn panel_configs_pit_three_schemes_against_the_same_scenario() {
        let configs = panel_configs(AttackModel::reverse(), 2, 1);
        assert_eq!(configs.len(), 3);
        for (kind, config) in &configs {
            assert_eq!(config.scenario.stragglers.len(), 2);
            assert_eq!(config.scenario.byzantine.len(), 1);
            if *kind == SchemeKind::Lcc {
                assert!(config.coding().lcc_feasible());
            }
        }
    }

    #[test]
    fn quick_mode_is_the_default() {
        // Unless AVCC_FULL is exported the harness must stay laptop-sized.
        if std::env::var("AVCC_FULL").is_err() {
            assert!(!full_scale());
            assert!(harness_dataset().train_samples <= 1000);
        }
    }
}
