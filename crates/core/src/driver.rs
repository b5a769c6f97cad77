//! The distributed training driver: one object per (scheme, cluster, fault
//! scenario) that runs the paper's two-round logistic-regression protocol for
//! a configured number of iterations and records everything the experiments
//! need. The staged API (`encode_round1` → `collect_round1` →
//! `collect_round2`) is the master's half of an iteration; who runs the
//! rounds in between is the caller's business — [`crate::distributed`]'s
//! iteration driver for `train()` / `train_distributed`, the serving
//! scheduler for pipelined jobs.
//!
//! One iteration (§IV-A) is:
//!
//! 1. quantize the current weights and run **round 1** (`z = X w`) through the
//!    scheme's engine;
//! 2. dequantize, apply the sigmoid, form the error vector `e = h(z) − y` and
//!    quantize it;
//! 3. run **round 2** (`g = Xᵀ e`) through the scheme's second engine;
//! 4. dequantize the gradient, update the model, evaluate test accuracy;
//! 5. (AVCC only) let [`adapt`] evict detected Byzantine workers and
//!    re-encode if the straggler slack went negative, charging the one-time
//!    re-encoding and re-distribution cost to this iteration.

use avcc_coding::SchemeConfig;
use avcc_field::{Fp, PrimeModulus};
use avcc_linalg::Matrix;
use avcc_ml::logistic::LogisticModel;
use avcc_ml::quantized::QuantizedProtocol;
use avcc_sim::attack::ByzantineSpec;
use avcc_sim::churn::{ChurnEvent, ChurnEventKind};
use avcc_sim::cluster::ClusterProfile;
use avcc_sim::executor::{VirtualExecutor, WorkerOutcome};
use avcc_verify::KeyGenConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adaptive::adapt;
use crate::distributed::{run_iteration_parked, WireRunner};
use crate::engines::{AvccMatVec, LccMatVec, MatVecEngine, UncodedMatVec};
use crate::problem::TrainingProblem;
use crate::report::{IterationRecord, TrainingReport};
use crate::rounds::{BatchExecution, BatchRoundTask, SchemeFailure};

/// The four schemes the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// No redundancy, no verification (the paper's uncoded baseline).
    Uncoded,
    /// Lagrange coded computing with Reed–Solomon Byzantine handling.
    Lcc,
    /// Adaptive verifiable coded computing (the paper's contribution).
    Avcc,
    /// AVCC without dynamic re-coding (the Fig. 5 ablation).
    StaticVcc,
}

impl SchemeKind {
    /// Short label used in reports and table rows.
    pub fn label(&self) -> &'static str {
        match self {
            SchemeKind::Uncoded => "uncoded",
            SchemeKind::Lcc => "lcc",
            SchemeKind::Avcc => "avcc",
            SchemeKind::StaticVcc => "static-vcc",
        }
    }

    /// Whether the scheme verifies results with Freivalds keys.
    pub fn verifies(&self) -> bool {
        matches!(self, SchemeKind::Avcc | SchemeKind::StaticVcc)
    }

    /// Whether the scheme adapts its coding dynamically.
    pub fn adapts(&self) -> bool {
        matches!(self, SchemeKind::Avcc)
    }
}

/// Driver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainerConfig {
    /// Which scheme to run.
    pub scheme: SchemeKind,
    /// The coding configuration `(N, K, S, M, T, deg f)`.
    pub coding: SchemeConfig,
    /// Gradient-descent learning rate.
    pub learning_rate: f64,
    /// Number of training iterations.
    pub iterations: usize,
    /// Ignored: simulated seconds come from op counts at
    /// [`avcc_sim::SECONDS_PER_MAC`]. Harness compatibility; remove at the
    /// next `benchmark` re-bind.
    pub time_scale: f64,
    /// RNG seed for encoding pads, keys and decode fingerprints.
    pub seed: u64,
    /// Whether the AVCC engines run the pre-decode dual-codeword screen
    /// (see [`AvccMatVec::with_screening`]). On by default; the
    /// paper-figure experiment driver turns it off for fidelity to the
    /// paper's cost model.
    pub screen: bool,
}

impl TrainerConfig {
    /// The paper's default hyperparameters (50 iterations).
    pub fn paper_defaults(scheme: SchemeKind, coding: SchemeConfig) -> Self {
        TrainerConfig {
            scheme,
            coding,
            learning_rate: 5.0,
            iterations: 50,
            time_scale: 1.0,
            seed: 42,
            screen: true,
        }
    }
}

/// The two distributed rounds of one training iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainingRound {
    /// Round 1: `z = X w` over the quantized weights.
    Round1,
    /// Round 2: `g = Xᵀ e` over the quantized error vector.
    Round2,
}

/// Master-side state of a partially executed iteration (the staged pipeline
/// API: [`DistributedTrainer::encode_round1`] →
/// [`DistributedTrainer::collect_round1`] →
/// [`DistributedTrainer::collect_round2`]).
struct InflightIteration<M: PrimeModulus> {
    round1_input: Vec<Fp<M>>,
    round1: Option<BatchExecution<M>>,
    round2_input: Option<Vec<Fp<M>>>,
}

/// One AVCC session per round matrix for `coding`, with one-repetition
/// Freivalds keys. Per round the dataset is encoded before its keys are
/// drawn — the order pins the rng stream.
fn avcc_sessions<M: PrimeModulus>(
    matrices: [&Matrix<Fp<M>>; 2],
    coding: SchemeConfig,
    screen: bool,
    rng: &mut StdRng,
) -> [AvccMatVec<M>; 2] {
    matrices.map(|matrix| {
        AvccMatVec::new(matrix, coding, KeyGenConfig::default(), rng).with_screening(screen)
    })
}

/// Sorted, deduplicated union of the two rounds' worker lists.
fn union(round1: &[usize], round2: &[usize]) -> Vec<usize> {
    let mut workers = [round1, round2].concat();
    workers.sort_unstable();
    workers.dedup();
    workers
}

/// The distributed trainer.
pub struct DistributedTrainer<M: PrimeModulus> {
    config: TrainerConfig,
    problem: TrainingProblem,
    protocol: QuantizedProtocol,
    model: LogisticModel,
    /// The fleet as the trainer models it: cost-model network, straggler
    /// flags, and one slot per worker of the current code (shrinks when the
    /// dynamic-coding controller evicts workers).
    cluster: ClusterProfile,
    /// The trainer's own executor for `train()` / `run_iteration()`, with the
    /// runner that keeps its blocks installed between calls. Built on first
    /// use, re-profiled from `cluster` every iteration, and lent to the
    /// iteration driver (hence the `Option`).
    local: Option<(VirtualExecutor, WireRunner)>,
    byzantine: ByzantineSpec,
    round1: Box<dyn MatVecEngine<M>>,
    round2: Box<dyn MatVecEngine<M>>,
    round1_matrix: Matrix<Fp<M>>,
    round2_matrix: Matrix<Fp<M>>,
    current_coding: SchemeConfig,
    rng: StdRng,
    scenario_label: String,
    inflight: Option<InflightIteration<M>>,
    fleet_events: Vec<ChurnEvent>,
    pending_reconfiguration: f64,
    late_hint: Vec<usize>,
}

impl<M: PrimeModulus> DistributedTrainer<M> {
    /// Builds a trainer for the given problem, cluster and fault injection.
    ///
    /// The cluster profile must have `coding.workers` entries; the uncoded
    /// scheme uses only the first `coding.partitions` of them (as in the
    /// paper, where 9 of the 12 nodes participate in the uncoded baseline).
    pub fn new(
        problem: TrainingProblem,
        cluster: ClusterProfile,
        byzantine: ByzantineSpec,
        config: TrainerConfig,
        scenario_label: impl Into<String>,
    ) -> Self {
        assert_eq!(
            cluster.len(),
            config.coding.workers,
            "cluster profile has {} workers but the coding scheme expects {}",
            cluster.len(),
            config.coding.workers
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let protocol = problem.default_protocol::<M>();
        let round1_matrix = problem.round1_matrix::<M>(&protocol);
        let round2_matrix = problem.round2_matrix::<M>(&protocol);
        // The uncoded scheme uses only the first K workers.
        let participants = config.coding.partitions;
        let (round1, round2, cluster): (
            Box<dyn MatVecEngine<M>>,
            Box<dyn MatVecEngine<M>>,
            ClusterProfile,
        ) = match config.scheme {
            SchemeKind::Uncoded => (
                Box::new(UncodedMatVec::new(&round1_matrix, participants)),
                Box::new(UncodedMatVec::new(&round2_matrix, participants)),
                cluster.truncated(participants),
            ),
            SchemeKind::Lcc => (
                Box::new(LccMatVec::new(&round1_matrix, config.coding, &mut rng)),
                Box::new(LccMatVec::new(&round2_matrix, config.coding, &mut rng)),
                cluster,
            ),
            SchemeKind::Avcc | SchemeKind::StaticVcc => {
                let matrices = [&round1_matrix, &round2_matrix];
                let [engine1, engine2] =
                    avcc_sessions(matrices, config.coding, config.screen, &mut rng);
                (Box::new(engine1), Box::new(engine2), cluster)
            }
        };

        let model = LogisticModel::zeros(problem.features());
        DistributedTrainer {
            current_coding: config.coding,
            config,
            problem,
            protocol,
            model,
            cluster,
            local: None,
            byzantine,
            round1,
            round2,
            round1_matrix,
            round2_matrix,
            rng,
            scenario_label: scenario_label.into(),
            inflight: None,
            fleet_events: Vec::new(),
            pending_reconfiguration: 0.0,
            late_hint: Vec::new(),
        }
    }

    /// The current model (scaled-feature space).
    pub fn model(&self) -> &LogisticModel {
        &self.model
    }

    /// The coding configuration currently in effect (changes under dynamic
    /// coding).
    pub fn current_coding(&self) -> &SchemeConfig {
        &self.current_coding
    }

    /// The quantization protocol in use.
    pub fn protocol(&self) -> &QuantizedProtocol {
        &self.protocol
    }

    /// The cluster profile the trainer currently executes against (shrinks
    /// when the dynamic-coding controller evicts workers).
    pub fn cluster(&self) -> &ClusterProfile {
        &self.cluster
    }

    /// The Byzantine specification currently in effect.
    pub fn byzantine(&self) -> &ByzantineSpec {
        &self.byzantine
    }

    /// The configured number of training iterations.
    pub fn iterations(&self) -> usize {
        self.config.iterations
    }

    /// The scheme being trained.
    pub fn scheme(&self) -> SchemeKind {
        self.config.scheme
    }

    /// The scenario label reports are tagged with.
    pub fn scenario_label(&self) -> &str {
        &self.scenario_label
    }

    /// Always `(0, 0)`: the decoder keeps no cache. Harness compatibility;
    /// remove at the next `benchmark` re-bind.
    pub fn decode_cache_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// The number of workers the given round dispatches to.
    pub fn round_workers(&self, round: TrainingRound) -> usize {
        match round {
            TrainingRound::Round1 => self.round1.workers(),
            TrainingRound::Round2 => self.round2.workers(),
        }
    }

    /// The minimum number of arrived results the given round's collect needs
    /// before it can possibly succeed (see [`MatVecEngine::min_results`]).
    pub fn round_min_results(&self, round: TrainingRound) -> usize {
        match round {
            TrainingRound::Round1 => self.round1.min_results(),
            TrainingRound::Round2 => self.round2.min_results(),
        }
    }

    /// Runs the configured number of iterations on the trainer's own serial
    /// [`VirtualExecutor`] and returns the full report — exactly
    /// [`crate::train_distributed`] on that executor, park / resume / shrink
    /// included (on its quiet fleet nothing ever parks).
    pub fn train(&mut self) -> Result<TrainingReport, SchemeFailure> {
        let mut report = TrainingReport::new(self.config.scheme.label(), &self.scenario_label);
        let mut cumulative = 0.0;
        for iteration in 0..self.config.iterations {
            let record = self.run_iteration(iteration, &mut cumulative)?;
            report.push(record);
        }
        Ok(report)
    }

    /// Runs a single iteration on the trainer's own executor, returning its
    /// record. Exposed so scenario scripts (e.g. Fig. 5) can change fault
    /// conditions between iterations; blocks stay installed across calls.
    pub fn run_iteration(
        &mut self,
        iteration: usize,
        cumulative: &mut f64,
    ) -> Result<IterationRecord, SchemeFailure> {
        let (mut executor, mut runner) = self.local.take().unwrap_or_else(|| {
            (
                VirtualExecutor::new(self.cluster.clone()),
                WireRunner::new(),
            )
        });
        // Evictions and `set_stragglers` edit the trainer's view of the
        // fleet; the executor must charge exactly those slots and slowdowns.
        executor.set_profile(self.cluster.clone());
        let result = run_iteration_parked(self, &mut executor, &mut runner, iteration, cumulative);
        self.local = Some((executor, runner));
        Ok(result?)
    }

    /// Stage 1 of the pipeline: quantizes the current weights and builds the
    /// round-1 worker tasks. The caller owns executing them (on any executor
    /// or fleet) and feeding the arrival-ordered outcomes to
    /// [`DistributedTrainer::collect_round1`].
    ///
    /// # Panics
    /// Panics if an iteration is already in flight — collect it or call
    /// [`DistributedTrainer::reset_pipeline`] first.
    pub fn encode_round1(&mut self) -> Vec<BatchRoundTask<M>> {
        assert!(
            self.inflight.is_none(),
            "an iteration is already in flight; collect it or reset the pipeline first"
        );
        let w_field = self.protocol.quantize_weights::<M>(&self.model.weights);
        let tasks = self.round1.dispatch_batch(std::slice::from_ref(&w_field));
        self.inflight = Some(InflightIteration {
            round1_input: w_field,
            round1: None,
            round2_input: None,
        });
        tasks
    }

    /// Stage 2: collects round 1 (`z = X w`), forms the quantized error
    /// vector on the master and builds the round-2 tasks.
    ///
    /// On a *retryable* failure (e.g. [`SchemeFailure::NotEnoughResults`]
    /// because a Byzantine payload sat inside an exactly-threshold prefix)
    /// the in-flight state is preserved, so the caller may call again with
    /// more outcomes.
    ///
    /// # Panics
    /// Panics if no iteration is in flight or round 1 was already collected.
    pub fn collect_round1(
        &mut self,
        outcomes: &[WorkerOutcome<Vec<Vec<Fp<M>>>>],
    ) -> Result<Vec<BatchRoundTask<M>>, SchemeFailure> {
        let inflight = self
            .inflight
            .as_mut()
            .expect("collect_round1 called with no iteration in flight");
        assert!(
            inflight.round1.is_none(),
            "round 1 of the in-flight iteration was already collected"
        );
        let mut execution = self.round1.collect_batch(
            std::slice::from_ref(&inflight.round1_input),
            outcomes,
            &self.cluster.network,
            1.0,
            &mut self.rng,
        )?;
        execution.observed_stragglers.append(&mut self.late_hint);
        let errors = self
            .protocol
            .error_vector(&execution.outputs[0], &self.problem.train_labels);
        let e_field = self.protocol.quantize_error::<M>(&errors);
        let tasks = self.round2.dispatch_batch(std::slice::from_ref(&e_field));
        inflight.round1 = Some(execution);
        inflight.round2_input = Some(e_field);
        Ok(tasks)
    }

    /// Stage 3: collects round 2 (`g = Xᵀ e`), applies the gradient, runs the
    /// adaptive controller and closes the iteration with its record.
    ///
    /// Retryable failures preserve the in-flight state exactly as in
    /// [`DistributedTrainer::collect_round1`].
    ///
    /// # Panics
    /// Panics if round 1 of the in-flight iteration has not been collected.
    pub fn collect_round2(
        &mut self,
        iteration: usize,
        outcomes: &[WorkerOutcome<Vec<Vec<Fp<M>>>>],
        cumulative: &mut f64,
    ) -> Result<IterationRecord, SchemeFailure> {
        let inflight = self
            .inflight
            .as_ref()
            .expect("collect_round2 called with no iteration in flight");
        let e_field = inflight
            .round2_input
            .as_ref()
            .expect("collect_round2 called before round 1 was collected");
        let mut round2 = self.round2.collect_batch(
            std::slice::from_ref(e_field),
            outcomes,
            &self.cluster.network,
            1.0,
            &mut self.rng,
        )?;
        round2.observed_stragglers.append(&mut self.late_hint);
        let round1 = self
            .inflight
            .take()
            .and_then(|inflight| inflight.round1)
            .expect("in-flight round 1 execution present");
        let gradient = self.protocol.dequantize_round2(&round2.outputs[0]);
        self.model
            .apply_gradient(&gradient, self.config.learning_rate, self.problem.samples());

        // Bookkeeping.
        let mut costs = round1.costs.combined(&round2.costs);
        let ops = round1.ops.combined(&round2.ops);
        let detected = union(&round1.detected_byzantine, &round2.detected_byzantine);
        let stragglers = union(&round1.observed_stragglers, &round2.observed_stragglers);
        let screened = union(&round1.screened_workers, &round2.screened_workers);

        // A shrink-recode performed between iterations (stall budget
        // exhausted) already re-encoded; charge its deferred cost to the
        // iteration that restarted on the new code.
        let mut reconfigured = self.pending_reconfiguration > 0.0;
        costs.reconfiguration = std::mem::take(&mut self.pending_reconfiguration);

        // Dynamic coding (AVCC only).
        let decision = if self.config.scheme.adapts() {
            adapt(&self.current_coding, &detected, &stragglers)
        } else {
            None
        };
        if let Some(decision) = decision {
            costs.reconfiguration += self.apply_adaptation(
                &decision.evict_workers,
                decision.new_config,
                decision.reencode,
            );
            reconfigured |= decision.reencode;
        }

        *cumulative += costs.total();
        // On both cores once the pass is large enough (the `train_*`
        // problem), while the workers, idle between rounds, leave them free.
        let (test_accuracy, train_loss) = self.model.evaluate(
            &self.problem.test_features,
            &self.problem.test_labels,
            &self.problem.train_features,
            &self.problem.train_labels,
        );
        Ok(IterationRecord {
            iteration,
            costs,
            ops,
            cumulative_seconds: *cumulative,
            test_accuracy,
            train_loss,
            detected_byzantine: detected,
            screened_workers: screened,
            observed_stragglers: stragglers,
            reconfigured,
        })
    }

    /// Abandons any partially executed iteration, returning the trainer to a
    /// state where [`DistributedTrainer::encode_round1`] may be called.
    pub fn reset_pipeline(&mut self) {
        self.inflight = None;
    }

    /// Evicts workers, rebuilds the engines for the new configuration and
    /// returns the one-time reconfiguration cost in simulated seconds.
    ///
    /// Following the paper's preprocessing note (§IV-B step 5), the encodings
    /// and verification keys for alternative `(N, K)` configurations are
    /// treated as generated offline before training, so the *modeled* cost
    /// charged to the critical path is the re-distribution of the coded data
    /// to the workers (the ~41 second one-time cost in Fig. 5), and only when
    /// the code dimension actually changed.
    ///
    /// What runs is more than that model charges: every adaptation, a pure
    /// eviction included, rebuilds both sessions here — a fresh encoding and
    /// fresh keys for the re-indexed survivors — and on the socket fleet the
    /// next round re-ships every block. So a pure eviction is free in modeled
    /// time but not in wall time or bytes. Making it move no data (mask the
    /// evicted slot, keep the encoding) is ROADMAP item 2(a).
    fn apply_adaptation(
        &mut self,
        evicted: &[usize],
        new_config: SchemeConfig,
        reencode: bool,
    ) -> f64 {
        self.cluster = self.cluster.without_workers(evicted);
        self.byzantine = self.byzantine.reindexed_after_removal(evicted);

        let matrices = [&self.round1_matrix, &self.round2_matrix];
        let [engine1, engine2] =
            avcc_sessions(matrices, new_config, self.config.screen, &mut self.rng);
        let redistribution_seconds = if reencode {
            let shipped_bytes = engine1.encoded_bytes() + engine2.encoded_bytes();
            // The master pushes every worker its new share over its single
            // uplink, so the transfers serialize.
            let network = self.cluster.network;
            network.base_latency_seconds * new_config.workers as f64
                + network.transfer_seconds(shipped_bytes)
        } else {
            0.0
        };
        self.round1 = Box::new(engine1);
        self.round2 = Box::new(engine2);
        self.current_coding = new_config;
        redistribution_seconds
    }

    /// Updates the straggler set of the cluster mid-run (used by scenario
    /// scripts such as Fig. 5 where stragglers appear at a given iteration).
    pub fn set_stragglers(&mut self, stragglers: &[usize], multiplier: f64) {
        self.cluster.set_stragglers(stragglers, multiplier);
    }

    /// How many re-dispatches a parked round is allowed before the driver
    /// shrink-recodes (see [`DistributedTrainer::shrink_to_fit`]).
    pub fn stall_budget(&self) -> usize {
        Self::STALL_BUDGET
    }

    /// Names the workers that had not answered the round about to be
    /// collected when its caller stopped waiting. Callers that stop
    /// collecting once the round can decode — the iteration driver behind
    /// [`crate::train_distributed`] — must set this before every collect, or
    /// stragglers that were cut off rather than waited for would never be
    /// observed as stragglers. The next successful collect adds `late` to its
    /// round's observed stragglers. A caller that waits for every dispatched
    /// worker never needs it.
    pub(crate) fn set_late_hint(&mut self, late: &[usize]) {
        self.late_hint = late.to_vec();
    }

    /// Fleet-level lifecycle events recorded by the driver and its callers:
    /// parks, resumes and shrink-recodes, stamped with the
    /// training-iteration clock.
    pub fn fleet_events(&self) -> &[ChurnEvent] {
        &self.fleet_events
    }

    /// Records a fleet-level lifecycle event (the `worker` field of
    /// fleet-level [`ChurnEvent`]s carries the responding-worker count).
    pub fn note_fleet_event(&mut self, round: u64, workers: usize, kind: ChurnEventKind) {
        self.fleet_events.push(ChurnEvent {
            round,
            worker: workers,
            kind,
        });
    }

    /// How many times a parked round may be re-dispatched to the same fleet
    /// (waiting for churned workers to rejoin) before the driver gives up
    /// waiting and shrink-recodes to a smaller `K` instead.
    const STALL_BUDGET: usize = 4;

    /// The park / shrink decision for a round whose collect failed with every
    /// dispatched result in (churned workers absent, not merely late), shared
    /// by the iteration driver and the serving scheduler. The round is parked
    /// — re-dispatched unchanged — while `stalls`, its consecutive
    /// re-dispatches, stay within the stall budget; then the trainer
    /// [shrink-recodes](DistributedTrainer::shrink_to_fit). Returns whether
    /// it did: `false` = re-dispatch the same tasks (the next dispatch
    /// advances the churn clock, so absent workers may rejoin), `true` = the
    /// in-flight iteration was abandoned, restart it from `encode_round1`.
    /// Any other failure, or a shrink with no smaller decodable code, is the
    /// error.
    pub fn park_or_shrink(
        &mut self,
        iteration: usize,
        stalls: &mut usize,
        failure: SchemeFailure,
    ) -> Result<bool, SchemeFailure> {
        let SchemeFailure::NotEnoughResults {
            available,
            required,
        } = failure
        else {
            return Err(failure);
        };
        if *stalls == 0 {
            self.note_fleet_event(iteration as u64, available, ChurnEventKind::Parked);
        }
        *stalls += 1;
        if *stalls <= Self::STALL_BUDGET {
            return Ok(false);
        }
        self.shrink_to_fit(iteration as u64, available, required)?;
        *stalls = 0;
        Ok(true)
    }

    /// Closes a park: records `Resumed` if the round that just collected
    /// (from `responded` workers) had been parked, and clears `stalls`.
    pub fn note_resumed(&mut self, iteration: usize, stalls: &mut usize, responded: usize) {
        if std::mem::take(stalls) > 0 {
            self.note_fleet_event(iteration as u64, responded, ChurnEventKind::Resumed);
        }
    }

    /// Shrink-recodes after a parked round exhausted its stall budget: every
    /// fleet slot is kept (absent workers may still rejoin), but `K` is
    /// lowered so the recovery threshold fits the `available` workers that
    /// are actually responding.
    ///
    /// Abandons any in-flight iteration (the caller restarts it on the new
    /// code) and defers the re-encoding cost to the restarted iteration's
    /// record. Returns the original failure when no strictly smaller
    /// decodable code exists or the scheme's engines cannot re-encode
    /// (non-verifying schemes).
    pub fn shrink_to_fit(
        &mut self,
        round: u64,
        available: usize,
        required: usize,
    ) -> Result<(), SchemeFailure> {
        let fail = || SchemeFailure::NotEnoughResults {
            available,
            required,
        };
        if !self.config.scheme.verifies() || available == 0 {
            return Err(fail());
        }
        let current = self.current_coding;
        // Largest K with (K + T − 1)·deg + 1 ≤ available.
        let budget = (available - 1) / current.degree;
        let Some(k) = (budget + 1).checked_sub(current.colluding) else {
            return Err(fail());
        };
        if k == 0 || k >= current.partitions {
            // No decodable code fits, or shrinking cannot lower the
            // threshold any further: waiting longer is the only option left.
            return Err(fail());
        }
        let threshold = (k + current.colluding - 1) * current.degree + 1;
        let stragglers = current
            .workers
            .saturating_sub(threshold + current.byzantine);
        let new_config = SchemeConfig::new(
            current.workers,
            k,
            stragglers,
            current.byzantine,
            current.colluding,
            current.degree,
        )
        .map_err(|_| fail())?;
        self.reset_pipeline();
        self.pending_reconfiguration += self.apply_adaptation(&[], new_config, true);
        self.note_fleet_event(round, available, ChurnEventKind::ShrinkRecoded);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avcc_field::P25;
    use avcc_ml::dataset::{Dataset, DatasetConfig};
    use avcc_sim::attack::AttackModel;

    fn small_problem() -> TrainingProblem {
        let dataset = Dataset::gisette_like(DatasetConfig {
            train_samples: 180,
            test_samples: 60,
            features: 27,
            informative: 9,
            ..DatasetConfig::default()
        });
        TrainingProblem::from_dataset(&dataset, 9)
    }

    fn quick_config(scheme: SchemeKind, s: usize, m: usize) -> TrainerConfig {
        TrainerConfig {
            iterations: 6,
            ..TrainerConfig::paper_defaults(scheme, SchemeConfig::linear(12, 9, s, m).unwrap())
        }
    }

    #[test]
    fn avcc_trains_and_detects_byzantine_workers() {
        let problem = small_problem();
        let cluster = ClusterProfile::uniform(12).with_stragglers(&[0], 10.0);
        let byzantine = ByzantineSpec::new([3], AttackModel::constant());
        let mut trainer = DistributedTrainer::<P25>::new(
            problem,
            cluster,
            byzantine,
            quick_config(SchemeKind::Avcc, 2, 1),
            "test",
        );
        let report = trainer.train().unwrap();
        assert_eq!(report.len(), 6);
        assert!(
            report.total_detections() > 0,
            "the Byzantine worker must be caught"
        );
        assert!(report.final_accuracy() > 0.5);
        assert!(report.total_seconds() > 0.0);
    }

    #[test]
    fn uncoded_trainer_runs_but_cannot_detect() {
        let problem = small_problem();
        let cluster = ClusterProfile::uniform(12);
        let byzantine = ByzantineSpec::new([3], AttackModel::constant());
        let mut trainer = DistributedTrainer::<P25>::new(
            problem,
            cluster,
            byzantine,
            quick_config(SchemeKind::Uncoded, 0, 0),
            "test",
        );
        let report = trainer.train().unwrap();
        assert_eq!(report.total_detections(), 0);
    }

    #[test]
    fn lcc_trainer_detects_within_design() {
        let problem = small_problem();
        let cluster = ClusterProfile::uniform(12);
        let byzantine = ByzantineSpec::new([5], AttackModel::reverse());
        let mut trainer = DistributedTrainer::<P25>::new(
            problem,
            cluster,
            byzantine,
            quick_config(SchemeKind::Lcc, 1, 1),
            "test",
        );
        let report = trainer.train().unwrap();
        assert!(report.total_detections() > 0);
    }

    #[test]
    fn static_vcc_never_reconfigures() {
        let problem = small_problem();
        let cluster = ClusterProfile::uniform(12).with_stragglers(&[0, 1, 2], 10.0);
        let byzantine = ByzantineSpec::new([4], AttackModel::constant());
        let mut trainer = DistributedTrainer::<P25>::new(
            problem,
            cluster,
            byzantine,
            quick_config(SchemeKind::StaticVcc, 2, 1),
            "test",
        );
        let report = trainer.train().unwrap();
        assert_eq!(report.reconfiguration_count(), 0);
        assert_eq!(trainer.current_coding().workers, 12);
    }

    #[test]
    fn avcc_reconfigures_under_straggler_pressure() {
        let problem = small_problem();
        // Three stragglers plus one Byzantine node exceed the (S=2, M=1)
        // budget, so the controller must re-encode (the Fig. 5 scenario).
        let cluster = ClusterProfile::uniform(12).with_stragglers(&[0, 1, 2], 10.0);
        let byzantine = ByzantineSpec::new([4], AttackModel::constant());
        let mut trainer = DistributedTrainer::<P25>::new(
            problem,
            cluster,
            byzantine,
            quick_config(SchemeKind::Avcc, 2, 1),
            "test",
        );
        let report = trainer.train().unwrap();
        assert!(report.reconfiguration_count() >= 1);
        assert!(trainer.current_coding().workers < 12);
        // The re-encoding iteration carries a one-off cost.
        assert!(report
            .iterations
            .iter()
            .any(|r| r.costs.reconfiguration > 0.0));
    }

    #[test]
    fn staged_pipeline_matches_run_iteration_bit_for_bit() {
        // The staged API driven by hand must produce the exact model the
        // synchronous wrapper produces: `train()` is the behaviour oracle for
        // every scheduler built on the stages.
        let make = || {
            DistributedTrainer::<P25>::new(
                small_problem(),
                ClusterProfile::uniform(12).with_stragglers(&[0], 10.0),
                ByzantineSpec::new([3], AttackModel::constant()),
                quick_config(SchemeKind::Avcc, 2, 1),
                "test",
            )
        };
        let mut synchronous = make();
        let report = synchronous.train().unwrap();

        let mut staged = make();
        let mut executor = VirtualExecutor::new(staged.cluster().clone());
        let mut runner = WireRunner::new();
        let mut cumulative = 0.0;
        for iteration in 0..staged.iterations() {
            let byzantine = staged.byzantine().clone();
            let round1_tasks = staged.encode_round1();
            assert_eq!(
                round1_tasks.len(),
                staged.round_workers(TrainingRound::Round1)
            );
            let round1_outcomes = runner
                .run_batch_round(&mut executor, 0, &round1_tasks, &byzantine)
                .unwrap();
            let round2_tasks = staged.collect_round1(&round1_outcomes).unwrap();
            let round2_outcomes = runner
                .run_batch_round(&mut executor, 1, &round2_tasks, &byzantine)
                .unwrap();
            let record = staged
                .collect_round2(iteration, &round2_outcomes, &mut cumulative)
                .unwrap();
            assert!(record.ops.total() > 0, "op counts must be recorded");
        }
        assert_eq!(staged.model().weights, synchronous.model().weights);
        let staged_accuracy = staged
            .model()
            .evaluate_accuracy(&staged.problem.test_features, &staged.problem.test_labels);
        assert_eq!(staged_accuracy, report.final_accuracy());
    }

    #[test]
    #[should_panic(expected = "already in flight")]
    fn double_encode_without_collect_panics() {
        let mut trainer = DistributedTrainer::<P25>::new(
            small_problem(),
            ClusterProfile::uniform(12),
            ByzantineSpec::none(),
            quick_config(SchemeKind::Avcc, 2, 1),
            "test",
        );
        let _ = trainer.encode_round1();
        let _ = trainer.encode_round1();
    }

    #[test]
    fn reset_pipeline_abandons_the_inflight_iteration() {
        let mut trainer = DistributedTrainer::<P25>::new(
            small_problem(),
            ClusterProfile::uniform(12),
            ByzantineSpec::none(),
            quick_config(SchemeKind::Avcc, 2, 1),
            "test",
        );
        let _ = trainer.encode_round1();
        trainer.reset_pipeline();
        // Encoding again after a reset must be allowed.
        let tasks = trainer.encode_round1();
        assert_eq!(tasks.len(), 12);
    }

    #[test]
    #[should_panic(expected = "cluster profile has")]
    fn mismatched_cluster_size_panics() {
        let problem = small_problem();
        let cluster = ClusterProfile::uniform(10);
        let _ = DistributedTrainer::<P25>::new(
            problem,
            cluster,
            ByzantineSpec::none(),
            quick_config(SchemeKind::Avcc, 2, 1),
            "test",
        );
    }
}
