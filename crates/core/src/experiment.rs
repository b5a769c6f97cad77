//! High-level experiment harness: the paper's evaluation setups as data.
//!
//! [`ExperimentConfig`] captures one run of Fig. 3 / Fig. 4 / Table I — which
//! scheme, which designed `(N, K, S, M)`, which actual fault scenario (how
//! many stragglers and Byzantine nodes, which attack) and the workload
//! parameters. [`run_experiment`] turns it into a [`TrainingReport`].
//! The constructors mirror the exact configurations of §V:
//!
//! * LCC is always designed for `(N = 12, K = 9, S = 1, M = 1)` — the only
//!   assignment that satisfies eq. (1) with 12 workers.
//! * AVCC uses the same 12 workers with `S + M = 3` split per sub-experiment:
//!   `(S = 2, M = 1)` or `(S = 1, M = 2)`.
//! * The uncoded baseline uses 9 of the 12 workers with no redundancy.
//!
//! Engine construction goes through [`DistributedTrainer`], which since PR7
//! encodes each round's matrix into a shared
//! [`avcc_coding::EncodedDataset`] and opens lightweight per-function
//! engine sessions over it — an experiment's per-iteration costs are
//! unchanged, but multi-function serving (`avcc-serve`) can amortize one
//! encode across many products.

use avcc_coding::SchemeConfig;
use avcc_field::PrimeModulus;
use avcc_ml::dataset::{Dataset, DatasetConfig};
use avcc_sim::attack::{AttackModel, ByzantineSpec};
use avcc_sim::churn::ChaosSchedule;
use avcc_sim::cluster::ClusterProfile;
use avcc_sim::executor::VirtualExecutor;

use crate::distributed::train_distributed;
use crate::driver::{DistributedTrainer, SchemeKind, TrainerConfig};
use crate::problem::TrainingProblem;
use crate::report::TrainingReport;
use crate::rounds::SchemeFailure;

/// The actual fault injection of one experiment (as opposed to the tolerances
/// the scheme was *designed* for).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultScenario {
    /// Indices of the workers that straggle.
    pub stragglers: Vec<usize>,
    /// Latency multiplier applied to stragglers.
    pub straggler_multiplier: f64,
    /// Indices of the Byzantine workers.
    pub byzantine: Vec<usize>,
    /// The attack the Byzantine workers mount.
    pub attack: AttackModel,
}

impl FaultScenario {
    /// No stragglers and no Byzantine workers.
    pub fn none() -> Self {
        FaultScenario {
            stragglers: Vec::new(),
            straggler_multiplier: 8.0,
            byzantine: Vec::new(),
            attack: AttackModel::None,
        }
    }

    /// The paper's standard scenario: the first `stragglers` workers straggle
    /// and the next `byzantine` workers are compromised with `attack`. All
    /// fault indices fall inside the first `K = 9` workers so the uncoded
    /// baseline (which only uses those) is affected too.
    pub fn paper(stragglers: usize, byzantine: usize, attack: AttackModel) -> Self {
        FaultScenario {
            stragglers: (0..stragglers).collect(),
            straggler_multiplier: 8.0,
            byzantine: (stragglers..stragglers + byzantine).collect(),
            attack,
        }
    }

    /// A short label ("reverse s2 m1") for report scenarios.
    pub fn label(&self) -> String {
        let attack = match self.attack {
            AttackModel::None => "none",
            AttackModel::ReverseValue { .. } => "reverse",
            AttackModel::Constant { .. } => "constant",
            AttackModel::SparseFlip { .. } => "sparse-flip",
            AttackModel::Colluding { .. } => "colluding",
        };
        format!(
            "{attack} attack, S={}, M={}",
            self.stragglers.len(),
            self.byzantine.len()
        )
    }

    /// Builds the Byzantine specification for this scenario.
    pub fn byzantine_spec(&self) -> ByzantineSpec {
        ByzantineSpec::new(self.byzantine.iter().copied(), self.attack)
    }
}

/// One experiment of the evaluation section.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// The scheme under test.
    pub scheme: SchemeKind,
    /// Number of workers `N`.
    pub workers: usize,
    /// Number of data partitions `K`.
    pub partitions: usize,
    /// Straggler tolerance the scheme is designed for.
    pub designed_stragglers: usize,
    /// Byzantine tolerance the scheme is designed for.
    pub designed_byzantine: usize,
    /// Privacy parameter `T` (0 in all of the paper's experiments).
    pub colluding: usize,
    /// The actual fault injection.
    pub scenario: FaultScenario,
    /// Dataset shape.
    pub dataset: DatasetConfig,
    /// Number of training iterations.
    pub iterations: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The paper's testbed defaults (`N = 12`, `K = 9`, 50 iterations) for a
    /// given scheme, designed tolerance split and fault scenario.
    pub fn paper_default(
        scheme: SchemeKind,
        designed_stragglers: usize,
        designed_byzantine: usize,
        scenario: FaultScenario,
    ) -> Self {
        ExperimentConfig {
            scheme,
            workers: 12,
            partitions: 9,
            designed_stragglers,
            designed_byzantine,
            colluding: 0,
            scenario,
            dataset: DatasetConfig::default(),
            iterations: 50,
            learning_rate: 5.0,
            seed: 42,
        }
    }

    /// The LCC baseline as the paper configures it: designed for
    /// `(S = 1, M = 1)` regardless of the actual scenario (that is the only
    /// feasible assignment with 12 workers and K = 9).
    pub fn paper_lcc(scenario: FaultScenario) -> Self {
        Self::paper_default(SchemeKind::Lcc, 1, 1, scenario)
    }

    /// AVCC designed for a given `(S, M)` split of the three redundant
    /// workers.
    pub fn paper_avcc(
        designed_stragglers: usize,
        designed_byzantine: usize,
        scenario: FaultScenario,
    ) -> Self {
        Self::paper_default(
            SchemeKind::Avcc,
            designed_stragglers,
            designed_byzantine,
            scenario,
        )
    }

    /// The uncoded baseline (9 participating workers, no redundancy).
    pub fn paper_uncoded(scenario: FaultScenario) -> Self {
        Self::paper_default(SchemeKind::Uncoded, 0, 0, scenario)
    }

    /// The scheme configuration implied by this experiment.
    pub fn coding(&self) -> SchemeConfig {
        SchemeConfig::new(
            self.workers,
            self.partitions,
            self.designed_stragglers,
            self.designed_byzantine,
            self.colluding,
        )
        .expect("experiment coding configuration must be structurally valid")
    }

    /// The cluster profile implied by this experiment.
    pub fn cluster(&self) -> ClusterProfile {
        ClusterProfile::uniform(self.workers).with_stragglers(
            &self.scenario.stragglers,
            self.scenario.straggler_multiplier,
        )
    }

    /// Builds the trainer for this experiment.
    pub fn build_trainer<M: PrimeModulus>(&self) -> DistributedTrainer<M> {
        let dataset = Dataset::gisette_like(self.dataset);
        let problem = TrainingProblem::from_dataset(&dataset, self.partitions);
        let trainer_config = TrainerConfig {
            learning_rate: self.learning_rate,
            iterations: self.iterations,
            seed: self.seed,
            // The figures reproduce the paper's AVCC, whose master never
            // screens: Freivalds + erasure decoding absorb these fault
            // patterns, so the (post-paper) dual-codeword screen would only
            // add master-side cost to the figures' cost model.
            screen: false,
            ..TrainerConfig::paper_defaults(self.scheme, self.coding())
        };
        DistributedTrainer::new(
            problem,
            self.cluster(),
            self.scenario.byzantine_spec(),
            trainer_config,
            self.scenario.label(),
        )
    }
}

/// Runs one experiment end to end.
pub fn run_experiment<M: PrimeModulus>(
    config: &ExperimentConfig,
) -> Result<TrainingReport, SchemeFailure> {
    config.build_trainer::<M>().train()
}

/// Runs the Fig. 5 style dynamic-coding scenario: the run starts with the
/// fault conditions of `config.scenario`, and at `onset_iteration` the given
/// additional stragglers appear (a worker that already straggles keeps its
/// slowdown). With `SchemeKind::Avcc` the controller reacts by evicting
/// detected Byzantine workers and re-encoding; with `SchemeKind::StaticVcc`
/// the coding stays fixed and every subsequent iteration pays the straggler
/// tail latency.
///
/// The onset is a churn stall on the executor's round clock, two rounds per
/// iteration: `onset_stragglers` name fleet slots, which keep their
/// slowdown whichever logical worker an eviction puts on them.
pub fn run_dynamic_coding_scenario<M: PrimeModulus>(
    config: &ExperimentConfig,
    onset_iteration: usize,
    onset_stragglers: &[usize],
    straggler_multiplier: f64,
) -> Result<TrainingReport, SchemeFailure> {
    let mut trainer = config.build_trainer::<M>();
    let mut executor = VirtualExecutor::new(trainer.cluster().clone());
    let onset: Vec<usize> = onset_stragglers
        .iter()
        .copied()
        .filter(|worker| !config.scenario.stragglers.contains(worker))
        .collect();
    let remaining = config.iterations.saturating_sub(onset_iteration);
    executor.set_churn(ChaosSchedule::stall(
        &onset,
        2 * onset_iteration as u64,
        2 * remaining as u64,
        straggler_multiplier,
    ));
    let mut report = train_distributed(&mut trainer, &mut executor)?;
    report.scenario = format!(
        "{} + {} stragglers from iteration {}",
        config.scenario.label(),
        onset_stragglers.len(),
        onset_iteration
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use avcc_field::{P25, P64};

    fn quick(mut config: ExperimentConfig) -> ExperimentConfig {
        config.iterations = 5;
        config.dataset = DatasetConfig {
            train_samples: 180,
            test_samples: 60,
            features: 27,
            informative: 9,
            ..DatasetConfig::default()
        };
        config
    }

    /// Runs an attacked AVCC experiment and checks that the liar never
    /// reaches the model — the run trains bit for bit as the same
    /// configuration with no liar — and that it is caught at once: these
    /// trainers do not screen, so Freivalds checks results in arrival order
    /// up to the recovery threshold, and on the modeled timeline the liar (a
    /// uniform worker inside the first nine) is checked in the first
    /// iteration. The controller then evicts it, so nobody is flagged after.
    fn run_under_attack<M: PrimeModulus>(config: &ExperimentConfig) -> TrainingReport {
        let report = run_experiment::<M>(config).unwrap();
        let mut honest = config.clone();
        honest.scenario.byzantine.clear();
        let clean = run_experiment::<M>(&honest).unwrap();
        assert_eq!(report.len(), clean.len());
        let bits = |report: &TrainingReport| -> Vec<(u64, u64)> {
            report
                .iterations
                .iter()
                .map(|r| (r.test_accuracy.to_bits(), r.train_loss.to_bits()))
                .collect()
        };
        assert_eq!(bits(&report), bits(&clean), "the liar reached the model");
        let detected: Vec<&[usize]> = report
            .iterations
            .iter()
            .map(|r| r.detected_byzantine.as_slice())
            .collect();
        assert_eq!(detected[0], config.scenario.byzantine);
        assert!(detected[1..].iter().all(|d| d.is_empty()), "{detected:?}");
        report
    }

    #[test]
    fn paper_constructors_produce_feasible_configurations() {
        let scenario = FaultScenario::paper(1, 1, AttackModel::reverse());
        let lcc = ExperimentConfig::paper_lcc(scenario.clone());
        assert!(lcc.coding().lcc_feasible());
        let avcc = ExperimentConfig::paper_avcc(1, 2, scenario.clone());
        assert!(avcc.coding().avcc_feasible());
        assert!(!avcc.coding().lcc_feasible());
        let uncoded = ExperimentConfig::paper_uncoded(scenario);
        assert_eq!(uncoded.coding().partitions, 9);
    }

    #[test]
    fn scenario_labels_are_descriptive() {
        let scenario = FaultScenario::paper(2, 1, AttackModel::constant());
        assert_eq!(scenario.label(), "constant attack, S=2, M=1");
        assert_eq!(scenario.stragglers, vec![0, 1]);
        assert_eq!(scenario.byzantine, vec![2]);
    }

    #[test]
    fn fault_indices_are_disjoint_and_inside_the_uncoded_set() {
        let scenario = FaultScenario::paper(2, 2, AttackModel::reverse());
        for worker in &scenario.byzantine {
            assert!(!scenario.stragglers.contains(worker));
            assert!(*worker < 9);
        }
    }

    #[test]
    fn avcc_experiment_runs_end_to_end() {
        let scenario = FaultScenario::paper(1, 1, AttackModel::constant());
        let config = quick(ExperimentConfig::paper_avcc(2, 1, scenario));
        let report = run_under_attack::<P25>(&config);
        assert_eq!(report.len(), 5);
        assert_eq!(report.scheme, "avcc");
    }

    #[test]
    fn avcc_experiment_runs_on_the_goldilocks_field() {
        // The pipeline is generic over the modulus: the same experiment must
        // run end-to-end on the 64-bit Goldilocks field (the point is that
        // nothing in quantization, encoding, verification or decoding
        // assumes a small modulus).
        let scenario = FaultScenario::paper(1, 1, AttackModel::constant());
        let config = quick(ExperimentConfig::paper_avcc(2, 1, scenario));
        let report = run_under_attack::<P64>(&config);
        assert_eq!(report.len(), 5);
    }

    #[test]
    fn avcc_experiment_runs_with_pads_on_goldilocks() {
        // K = 7 and T = 1 with 12 workers on F64: the pads rule out the
        // systematic layout, so every share is a parity share, and training
        // must run end to end through it.
        let scenario = FaultScenario::paper(1, 1, AttackModel::reverse());
        let mut config = quick(ExperimentConfig::paper_avcc(2, 1, scenario));
        config.partitions = 7;
        config.colluding = 1;
        assert!(avcc_coding::LagrangeEncoder::<P64>::new(config.coding())
            .points()
            .disjoint());
        let report = run_under_attack::<P64>(&config);
        assert_eq!(report.len(), 5);
    }

    #[test]
    fn all_schemes_run_the_same_scenario() {
        let scenario = FaultScenario::paper(1, 1, AttackModel::reverse());
        for config in [
            quick(ExperimentConfig::paper_uncoded(scenario.clone())),
            quick(ExperimentConfig::paper_lcc(scenario.clone())),
            quick(ExperimentConfig::paper_avcc(2, 1, scenario.clone())),
        ] {
            let report = run_experiment::<P25>(&config).unwrap();
            assert_eq!(report.len(), 5, "{} failed", config.scheme.label());
        }
    }
}
