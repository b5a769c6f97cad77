//! The distributed training driver: one object per (scheme, cluster, fault
//! scenario) that runs the paper's two-round logistic-regression protocol for
//! a configured number of iterations and records everything the experiments
//! need. The staged API (`encode_round1` → `collect_round1` →
//! `collect_round2`) is the master's half of an iteration; [`TrainingRun`]
//! strings the stages into a whole run — which round is next, when a short
//! round parks, resumes or shrink-recodes — and leaves who runs the rounds
//! to its caller: [`TrainingRun::run_on`] an [`Executor`] for
//! `train_distributed` (and `train()`, which is `train_distributed` on a
//! [`VirtualExecutor`] of the trainer's fleet), the serving scheduler its
//! fleet.
//!
//! The trainer's [`ClusterProfile`] is the fleet it was built for, and it
//! never changes: an eviction drops a worker from the code, not a slot from
//! the fleet, so a slowdown stays on its slot — logical worker `i` of any
//! code runs on slot `i` — and a mid-run change of the fleet (Fig. 5's
//! straggler onset) is a churn schedule on the executor's round clock.
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

use std::sync::Arc;

use avcc_coding::{EncodedDataset, SchemeConfig};
use avcc_field::{Fp, PrimeModulus};
use avcc_linalg::Matrix;
use avcc_ml::logistic::LogisticModel;
use avcc_ml::quantized::QuantizedProtocol;
use avcc_sim::attack::ByzantineSpec;
use avcc_sim::churn::{ChurnEvent, ChurnEventKind};
use avcc_sim::cluster::ClusterProfile;
use avcc_sim::executor::{Executor, VirtualExecutor, WorkerOutcome};
use avcc_verify::KeyGenConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adaptive::adapt;
use crate::distributed::{train_distributed, BatchOutcomes, DistributedError, WireRunner};
use crate::engines::{CodedMatVec, MatVecEngine};
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
    /// The coding configuration `(N, K, S, M, T)`.
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
    /// (see [`CodedMatVec::with_screening`]). On by default; the
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

/// One `scheme` session per round matrix for `coding`: the uncoded scheme
/// over the `(K, K)` code of its first `K` workers, LCC over `coding`, the
/// verifying schemes over `coding` with one-repetition Freivalds keys. Per
/// round the dataset is encoded before its keys are drawn — the order pins
/// the rng stream.
fn sessions<M: PrimeModulus>(
    scheme: SchemeKind,
    matrices: [&Matrix<Fp<M>>; 2],
    coding: SchemeConfig,
    screen: bool,
    rng: &mut StdRng,
) -> [CodedMatVec<M>; 2] {
    matrices.map(|matrix| match scheme {
        SchemeKind::Uncoded => {
            let k = coding.partitions;
            let bands =
                SchemeConfig::linear(k, k, 0, 0).expect("a code has at least one partition");
            CodedMatVec::uncoded(Arc::new(EncodedDataset::encode(matrix, bands, rng)))
        }
        SchemeKind::Lcc => CodedMatVec::lcc(Arc::new(EncodedDataset::encode(matrix, coding, rng))),
        SchemeKind::Avcc | SchemeKind::StaticVcc => {
            CodedMatVec::new(matrix, coding, KeyGenConfig::default(), rng).with_screening(screen)
        }
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
    /// The fleet the trainer was built for: cost-model network and one slot,
    /// with its slowdown, per worker. Fixed for life: logical worker `i` of
    /// the current code runs on slot `i`.
    cluster: ClusterProfile,
    byzantine: ByzantineSpec,
    round1: CodedMatVec<M>,
    round2: CodedMatVec<M>,
    round1_matrix: Matrix<Fp<M>>,
    round2_matrix: Matrix<Fp<M>>,
    current_coding: SchemeConfig,
    rng: StdRng,
    scenario_label: String,
    inflight: Option<InflightIteration<M>>,
    fleet_events: Vec<ChurnEvent>,
    pending_reconfiguration: f64,
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
        // `round2_matrix`'s definition, without quantizing a second time.
        let round2_matrix = round1_matrix.transpose();
        let [round1, round2] = sessions(
            config.scheme,
            [&round1_matrix, &round2_matrix],
            config.coding,
            config.screen,
            &mut rng,
        );
        // The uncoded scheme uses only the first K workers.
        let cluster = match config.scheme {
            SchemeKind::Uncoded => cluster.truncated(config.coding.partitions),
            _ => cluster,
        };

        let model = LogisticModel::zeros(problem.features());
        DistributedTrainer {
            current_coding: config.coding,
            config,
            problem,
            protocol,
            model,
            cluster,
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

    /// The fleet the trainer was built for (for the uncoded scheme, its
    /// first `K` workers). Evictions leave it as it is: a slot keeps its
    /// slowdown whichever logical worker runs on it.
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

    /// The minimum number of arrived results the given round's collect needs
    /// before it can possibly succeed (see [`MatVecEngine::min_results`]).
    pub fn round_min_results(&self, round: TrainingRound) -> usize {
        match round {
            TrainingRound::Round1 => self.round1.min_results(),
            TrainingRound::Round2 => self.round2.min_results(),
        }
    }

    /// Runs the configured number of iterations and returns the full
    /// report: [`train_distributed`] on a serial [`VirtualExecutor`] of the
    /// trainer's fleet, so every run of a configuration is the same run.
    pub fn train(&mut self) -> Result<TrainingReport, SchemeFailure> {
        let mut executor = VirtualExecutor::new(self.cluster.clone());
        Ok(train_distributed(self, &mut executor)?)
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
        self.close_round1(outcomes, &[])
    }

    /// [`DistributedTrainer::collect_round1`] that adds `late`, the workers
    /// its caller stopped waiting for, to the round's observed stragglers.
    fn close_round1(
        &mut self,
        outcomes: &[WorkerOutcome<Vec<Vec<Fp<M>>>>],
        late: &[usize],
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
        execution.observed_stragglers.extend_from_slice(late);
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
        self.close_round2(iteration, outcomes, &[], cumulative)
    }

    /// [`DistributedTrainer::collect_round2`] with round 2's `late` workers,
    /// as in [`DistributedTrainer::close_round1`].
    fn close_round2(
        &mut self,
        iteration: usize,
        outcomes: &[WorkerOutcome<Vec<Vec<Fp<M>>>>],
        late: &[usize],
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
        round2.observed_stragglers.extend_from_slice(late);
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
    /// evicted slot, keep the encoding) is ROADMAP item 7(a).
    fn apply_adaptation(
        &mut self,
        evicted: &[usize],
        new_config: SchemeConfig,
        reencode: bool,
    ) -> f64 {
        // The liars are the master's simulation of who lies, so they follow
        // their logical index; the fleet's slots do not move.
        self.byzantine = self.byzantine.reindexed_after_removal(evicted);

        let matrices = [&self.round1_matrix, &self.round2_matrix];
        let [round1, round2] = sessions(
            self.config.scheme,
            matrices,
            new_config,
            self.config.screen,
            &mut self.rng,
        );
        let redistribution_seconds = if reencode {
            let shipped_bytes = round1.dataset().encoded_bytes() + round2.dataset().encoded_bytes();
            // The master pushes every worker its new share over its single
            // uplink, so the transfers serialize.
            let network = self.cluster.network;
            network.base_latency_seconds * new_config.workers as f64
                + network.transfer_seconds(shipped_bytes)
        } else {
            0.0
        };
        self.round1 = round1;
        self.round2 = round2;
        self.current_coding = new_config;
        redistribution_seconds
    }

    /// How many times a parked round may be re-dispatched to the same fleet
    /// (waiting for churned workers to rejoin) before the run gives up
    /// waiting and [shrink-recodes](DistributedTrainer::shrink_to_fit).
    pub fn stall_budget(&self) -> usize {
        4
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
        // Largest K whose threshold K + T fits the available workers.
        let Some(k) = available.checked_sub(current.colluding) else {
            return Err(fail());
        };
        if k == 0 || k >= current.partitions {
            // No decodable code fits, or shrinking cannot lower the
            // threshold any further: waiting longer is the only option left.
            return Err(fail());
        }
        let candidate = SchemeConfig {
            partitions: k,
            ..current
        };
        let new_config = SchemeConfig {
            stragglers: current
                .workers
                .saturating_sub(candidate.recovery_threshold() + current.byzantine),
            ..candidate
        };
        self.reset_pipeline();
        self.pending_reconfiguration += self.apply_adaptation(&[], new_config, true);
        self.note_fleet_event(round, available, ChurnEventKind::ShrinkRecoded);
        Ok(())
    }
}

/// What [`TrainingRun::stall`] did with a short round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stall {
    /// Parked: dispatch the same [`TrainingRun::tasks`] again.
    Parked {
        /// The results the round needs, as its failure named them.
        required: usize,
    },
    /// Shrink-recoded: the iteration restarts at round 1 on a smaller code.
    ShrinkRecoded,
}

/// A training run as one resumable state machine: the iteration and round
/// in flight, the tasks to dispatch next, the park count, the modeled clock
/// and the report so far. [`TrainingRun::run_on`] runs its rounds on an
/// [`Executor`], the serving scheduler on its fleet; both step the same
/// `collect` and `stall`. The trainer is an argument to each call, so its
/// owner keeps it.
pub struct TrainingRun<M: PrimeModulus> {
    iteration: usize,
    /// One past the last iteration of the run.
    end: usize,
    round: TrainingRound,
    /// Consecutive re-dispatches of the parked round (0 = not parked).
    stalls: usize,
    cumulative: f64,
    report: TrainingReport,
    tasks: Vec<BatchRoundTask<M>>,
}

impl<M: PrimeModulus> TrainingRun<M> {
    /// A run of the trainer's configured iterations, its first round
    /// encoded.
    ///
    /// # Panics
    /// Panics if the trainer already has an iteration in flight.
    pub fn new(trainer: &mut DistributedTrainer<M>) -> Self {
        let end = trainer.iterations();
        let tasks = if end == 0 {
            Vec::new()
        } else {
            trainer.encode_round1()
        };
        TrainingRun {
            iteration: 0,
            end,
            round: TrainingRound::Round1,
            stalls: 0,
            cumulative: 0.0,
            report: TrainingReport::new(trainer.scheme().label(), trainer.scenario_label()),
            tasks,
        }
    }

    /// Whether every iteration of the run has its record.
    pub fn is_finished(&self) -> bool {
        self.iteration >= self.end
    }

    /// The round to dispatch next.
    pub fn round(&self) -> TrainingRound {
        self.round
    }

    /// The wire channel of the round to dispatch next: one per round, so
    /// each keeps its blocks installed from one iteration to the next.
    pub fn channel(&self) -> usize {
        match self.round {
            TrainingRound::Round1 => 0,
            TrainingRound::Round2 => 1,
        }
    }

    /// The tasks to dispatch next, one per worker (none once finished).
    pub fn tasks(&self) -> &[BatchRoundTask<M>] {
        &self.tasks
    }

    /// The records of the iterations run so far.
    pub fn report(&self) -> &TrainingReport {
        &self.report
    }

    /// The run's report.
    pub fn into_report(self) -> TrainingReport {
        self.report
    }

    /// Collects the round in flight from its arrival-ordered `outcomes`.
    /// `late` names the workers the caller stopped waiting for; they join
    /// the round's observed stragglers, so the adaptive controller sees a
    /// straggler it cut off as it sees one it waited for. A caller that
    /// waits for every dispatched worker passes none.
    ///
    /// On success the run moves on — to round 2, or past round 2 to the
    /// next iteration's round 1, returning the record round 2 closed — and
    /// a parked round is logged `Resumed`. On `Err` nothing changed, so the
    /// call may be retried with more outcomes.
    pub fn collect(
        &mut self,
        trainer: &mut DistributedTrainer<M>,
        outcomes: &[WorkerOutcome<Vec<Vec<Fp<M>>>>],
        late: &[usize],
    ) -> Result<Option<&IterationRecord>, SchemeFailure> {
        let record = match self.round {
            TrainingRound::Round1 => {
                self.tasks = trainer.close_round1(outcomes, late)?;
                None
            }
            TrainingRound::Round2 => {
                let cumulative = &mut self.cumulative;
                Some(trainer.close_round2(self.iteration, outcomes, late, cumulative)?)
            }
        };
        if std::mem::take(&mut self.stalls) > 0 {
            let iteration = self.iteration as u64;
            trainer.note_fleet_event(iteration, outcomes.len(), ChurnEventKind::Resumed);
        }
        let Some(record) = record else {
            self.round = TrainingRound::Round2;
            return Ok(None);
        };
        self.report.push(record);
        self.iteration += 1;
        self.round = TrainingRound::Round1;
        self.tasks = if self.is_finished() {
            Vec::new()
        } else {
            trainer.encode_round1()
        };
        Ok(self.report.iterations.last())
    }

    /// Handles a round whose collect failed with every dispatched result in
    /// (churned workers absent, not merely late). A short round
    /// ([`SchemeFailure::NotEnoughResults`]) parks — logged `Parked` once —
    /// for the trainer's [stall budget](DistributedTrainer::stall_budget) of
    /// re-dispatches (each advances the churn clock, so absent workers may
    /// rejoin); then the trainer [shrink-recodes](DistributedTrainer::shrink_to_fit).
    /// Any other failure, or a shrink with no smaller code, is the error.
    pub fn stall(
        &mut self,
        trainer: &mut DistributedTrainer<M>,
        failure: SchemeFailure,
    ) -> Result<Stall, SchemeFailure> {
        let SchemeFailure::NotEnoughResults {
            available,
            required,
        } = failure
        else {
            return Err(failure);
        };
        let iteration = self.iteration as u64;
        if self.stalls == 0 {
            trainer.note_fleet_event(iteration, available, ChurnEventKind::Parked);
        }
        self.stalls += 1;
        if self.stalls <= trainer.stall_budget() {
            return Ok(Stall::Parked { required });
        }
        trainer.shrink_to_fit(iteration, available, required)?;
        self.stalls = 0;
        self.round = TrainingRound::Round1;
        self.tasks = trainer.encode_round1();
        Ok(Stall::ShrinkRecoded)
    }

    /// Steps the run to its end on `executor`. Each round is one
    /// [`WireRunner::run_streaming_round`] on the round's channel, closed
    /// once the trainer's `round_min_results` non-straggling results are in
    /// and collected with the workers it did not wait for; a round that
    /// comes back short [stalls](TrainingRun::stall). On `Err` the
    /// trainer's pipeline is reset.
    pub fn run_on(
        &mut self,
        trainer: &mut DistributedTrainer<M>,
        executor: &mut dyn Executor,
        runner: &mut WireRunner,
    ) -> Result<(), DistributedError> {
        while !self.is_finished() {
            let (channel, tasks) = (self.channel(), self.tasks.clone());
            let byzantine = trainer.byzantine().clone();
            let quorum = Some(trainer.round_min_results(self.round));
            let collect = |outcomes: &mut BatchOutcomes<M>, late: &[usize]| {
                self.collect(trainer, outcomes, late).map(drop)
            };
            let collected =
                runner.run_streaming_round(executor, channel, &tasks, &byzantine, quorum, collect);
            let stalled = match collected {
                Ok(Ok(())) => Ok(()),
                Ok(Err(failure)) => self.stall(trainer, failure).map(drop).map_err(Into::into),
                Err(error) => Err(error.into()),
            };
            if let Err(error) = stalled {
                trainer.reset_pipeline();
                return Err(error);
            }
        }
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
    fn systematic_shares_are_views_of_the_round_matrices() {
        // At T = 0 the code is systematic: shares 0..K of both rounds are row
        // bands of the quantized matrices the trainer keeps for re-encoding,
        // stored once, and only the parity shares have storage of their own.
        let trainer = DistributedTrainer::<P25>::new(
            small_problem(),
            ClusterProfile::uniform(12),
            ByzantineSpec::none(),
            quick_config(SchemeKind::Avcc, 2, 1),
            "test",
        );
        let rounds = [
            (&trainer.round1, &trainer.round1_matrix),
            (&trainer.round2, &trainer.round2_matrix),
        ];
        for (round, (session, matrix)) in rounds.into_iter().enumerate() {
            let dataset = session.dataset();
            let band = dataset.block_rows() * matrix.cols();
            for (worker, share) in dataset.shares().iter().enumerate() {
                let at = share.data().as_ptr();
                if worker < dataset.partitions() {
                    assert_eq!(at, matrix.data()[worker * band..].as_ptr(), "round {round}");
                } else {
                    assert!(!matrix.data().as_ptr_range().contains(&at), "round {round}");
                }
            }
        }
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
    fn staged_pipeline_matches_train_bit_for_bit() {
        // The staged API driven by hand must produce the exact model
        // `train()` produces: it is the behaviour oracle for every scheduler
        // built on the stages.
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
            assert_eq!(round1_tasks.len(), staged.current_coding().workers);
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
    fn a_slowdown_stays_on_its_slot_after_an_eviction() {
        // Worker 2 lies and is evicted in iteration 0, so every worker above
        // it moves down one logical index. The fleet does not move: the ×10
        // slot 5 slows whichever worker runs on it, logical worker 5 after
        // the eviction as before it.
        let mut trainer = DistributedTrainer::<P25>::new(
            small_problem(),
            ClusterProfile::uniform(12).with_stragglers(&[5], 10.0),
            ByzantineSpec::new([2], AttackModel::constant()),
            quick_config(SchemeKind::Avcc, 2, 1),
            "test",
        );
        let report = trainer.train().unwrap();
        assert_eq!(report.iterations[0].detected_byzantine, [2]);
        assert_eq!(trainer.current_coding().workers, 11);
        for record in &report.iterations[1..] {
            assert_eq!(record.observed_stragglers, [5], "{record:?}");
        }
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

    /// A verifying (12, 9, S = 2, M = 1) trainer on a quiet profile, with
    /// `byzantine` workers mounting the constant attack.
    fn machine_trainer(byzantine: &[usize]) -> DistributedTrainer<P25> {
        DistributedTrainer::new(
            small_problem(),
            ClusterProfile::uniform(12),
            ByzantineSpec::new(byzantine.iter().copied(), AttackModel::constant()),
            quick_config(SchemeKind::Avcc, 2, 1),
            "machine",
        )
    }

    /// What `workers` send for `tasks`, in that arrival order: computed in
    /// place, corrupted as the trainer's Byzantine spec says — a synthetic
    /// round, no executor.
    fn arrivals(
        trainer: &DistributedTrainer<P25>,
        tasks: &[BatchRoundTask<P25>],
        workers: impl IntoIterator<Item = usize>,
    ) -> BatchOutcomes<P25> {
        workers
            .into_iter()
            .enumerate()
            .map(|(order, worker)| {
                let mut payload = tasks[worker].run();
                let mut corrupted = false;
                for part in payload.iter_mut() {
                    corrupted |= trainer.byzantine().corrupt(worker, part);
                }
                WorkerOutcome {
                    worker,
                    payload,
                    compute_seconds: 1.0,
                    network_seconds: 0.0,
                    arrival_seconds: 1.0 + order as f64 * 1e-3,
                    corrupted,
                }
            })
            .collect()
    }

    /// Steps `run` to its end, every round answered by the whole fleet.
    fn finish(run: &mut TrainingRun<P25>, trainer: &mut DistributedTrainer<P25>) {
        while !run.is_finished() {
            let outcomes = arrivals(trainer, run.tasks(), 0..12);
            run.collect(trainer, &outcomes, &[]).unwrap();
        }
    }

    /// The per-iteration `(accuracy, loss)` trajectory, a function of the
    /// model weights alone (the synthetic rounds' timings are not the
    /// executor's).
    fn trajectory(report: &TrainingReport) -> Vec<(f64, f64)> {
        let records = report.iterations.iter();
        records.map(|r| (r.test_accuracy, r.train_loss)).collect()
    }

    fn event(round: u64, workers: usize, kind: ChurnEventKind) -> ChurnEvent {
        ChurnEvent {
            round,
            worker: workers,
            kind,
        }
    }

    #[test]
    fn a_short_round_parks_and_a_full_one_resumes_it() {
        let mut trainer = machine_trainer(&[]);
        let mut run = TrainingRun::new(&mut trainer);
        // Round 1 of iteration 0 is in; round 2 comes back from 8 workers.
        let full = arrivals(&trainer, run.tasks(), 0..12);
        run.collect(&mut trainer, &full, &[]).unwrap();
        assert_eq!(run.round(), TrainingRound::Round2);
        for _ in 0..2 {
            let short = arrivals(&trainer, run.tasks(), 0..8);
            let failure = run.collect(&mut trainer, &short, &[]).unwrap_err();
            assert_eq!(
                failure,
                SchemeFailure::NotEnoughResults {
                    available: 8,
                    required: 9
                }
            );
            let stalled = run.stall(&mut trainer, failure);
            assert_eq!(stalled, Ok(Stall::Parked { required: 9 }));
            assert_eq!(run.round(), TrainingRound::Round2);
        }
        let full = arrivals(&trainer, run.tasks(), 0..12);
        run.collect(&mut trainer, &full, &[]).unwrap();
        assert_eq!(
            (run.round(), run.report().len()),
            (TrainingRound::Round1, 1)
        );
        // Parked once however often it stalled, resumed by all 12.
        assert_eq!(
            trainer.fleet_events(),
            [
                event(0, 8, ChurnEventKind::Parked),
                event(0, 12, ChurnEventKind::Resumed)
            ]
        );
        // The park moved no bit of the model.
        finish(&mut run, &mut trainer);
        let mut oracle = machine_trainer(&[]);
        let oracle_report = oracle.train().unwrap();
        assert_eq!(trajectory(run.report()), trajectory(&oracle_report));
        assert_eq!(trainer.model().weights, oracle.model().weights);
    }

    #[test]
    fn a_spent_stall_budget_shrink_recodes_and_restarts_at_round_one() {
        let mut trainer = machine_trainer(&[]);
        let mut run = TrainingRun::new(&mut trainer);
        let full = arrivals(&trainer, run.tasks(), 0..12);
        run.collect(&mut trainer, &full, &[]).unwrap();
        let budget = trainer.stall_budget();
        for stall in 0..=budget {
            let short = arrivals(&trainer, run.tasks(), 0..8);
            let failure = run.collect(&mut trainer, &short, &[]).unwrap_err();
            let expected = if stall < budget {
                Stall::Parked { required: 9 }
            } else {
                Stall::ShrinkRecoded
            };
            assert_eq!(run.stall(&mut trainer, failure), Ok(expected));
        }
        // Round 2 is abandoned: iteration 0 restarts at round 1 on K = 8,
        // every fleet slot kept.
        assert_eq!(
            (run.round(), run.report().len()),
            (TrainingRound::Round1, 0)
        );
        assert_eq!(trainer.current_coding().partitions, 8);
        assert_eq!(run.tasks().len(), 12);
        assert_eq!(
            trainer.fleet_events(),
            [
                event(0, 8, ChurnEventKind::Parked),
                event(0, 8, ChurnEventKind::ShrinkRecoded)
            ]
        );
        // The 8 responders now decode both rounds, and the shrink is no
        // park: nothing resumes.
        for _ in 0..2 {
            let short = arrivals(&trainer, run.tasks(), 0..8);
            run.collect(&mut trainer, &short, &[]).unwrap();
        }
        assert_eq!(run.report().len(), 1);
        assert!(run.report().iterations[0].reconfigured);
        assert_eq!(trainer.fleet_events().len(), 2);
        let oracle = machine_trainer(&[]).train().unwrap();
        finish(&mut run, &mut trainer);
        assert_eq!(trajectory(run.report()), trajectory(&oracle));
    }

    #[test]
    fn a_failed_collect_changes_nothing_and_its_retry_matches_a_direct_one() {
        // Worker 3's forgery sits inside the first nine arrivals of every
        // round: one verified result short. The retry adds worker 9.
        let mut retried = machine_trainer(&[3]);
        let mut direct = machine_trainer(&[3]);
        let mut retried_run = TrainingRun::new(&mut retried);
        let mut direct_run = TrainingRun::new(&mut direct);
        for _ in 0..2 {
            let prefix = arrivals(&retried, retried_run.tasks(), 0..9);
            let failure = retried_run.collect(&mut retried, &prefix, &[]).unwrap_err();
            assert!(matches!(failure, SchemeFailure::NotEnoughResults { .. }));
            let round = retried_run.round();
            assert_eq!(retried_run.report().len(), 0);
            let more = arrivals(&retried, retried_run.tasks(), 0..10);
            retried_run.collect(&mut retried, &more, &[]).unwrap();
            assert_ne!(retried_run.round(), round);

            let once = arrivals(&direct, direct_run.tasks(), 0..10);
            direct_run.collect(&mut direct, &once, &[]).unwrap();
        }
        assert_eq!(retried.model().weights, direct.model().weights);
        assert_eq!(
            retried_run.report().iterations,
            direct_run.report().iterations
        );
        assert_eq!(retried_run.report().iterations[0].detected_byzantine, [3]);
        assert!(retried.fleet_events().is_empty());
    }

    #[test]
    fn late_workers_join_the_round_s_observed_stragglers() {
        let mut trainer = machine_trainer(&[]);
        let mut run = TrainingRun::new(&mut trainer);
        // Each round names a different late worker; the record has both.
        for late in [11, 10] {
            let outcomes = arrivals(&trainer, run.tasks(), 0..10);
            run.collect(&mut trainer, &outcomes, &[late]).unwrap();
        }
        assert_eq!(run.report().iterations[0].observed_stragglers, [10, 11]);
    }

    #[test]
    fn a_run_of_no_iterations_is_finished_and_encodes_nothing() {
        let mut trainer = DistributedTrainer::<P25>::new(
            small_problem(),
            ClusterProfile::uniform(12),
            ByzantineSpec::none(),
            TrainerConfig {
                iterations: 0,
                ..quick_config(SchemeKind::Avcc, 2, 1)
            },
            "machine",
        );
        let run = TrainingRun::new(&mut trainer);
        assert!(run.is_finished() && run.tasks().is_empty());
        // Nothing is in flight.
        assert_eq!(trainer.encode_round1().len(), 12);
    }
}
