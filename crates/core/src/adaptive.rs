//! The dynamic-coding controller (paper §IV-A step 5 and §IV-B step 5).
//!
//! After every iteration AVCC looks at what actually happened — how many
//! workers were detected Byzantine (`M_t`) and how many straggled (`S_t`) —
//! and computes the slack
//!
//! ```text
//! A_t = N_t − M_t − S_t − recovery_threshold          (eq. 16 / 18)
//! ```
//!
//! If the slack is negative the system is already paying straggler tail
//! latency every iteration, so the controller shrinks the code:
//!
//! ```text
//! (N_{t+1}, K_{t+1}) = (N_t − M_t, K_t)            if A_t ≥ 0
//!                      (N_t − M_t, K_t + ⌊A_t/deg f⌋) if A_t < 0   (eq. 17 / 19)
//! ```
//!
//! Detected Byzantine workers are evicted either way. Re-encoding for the new
//! `(N, K)` and re-distributing the coded data is a one-time cost the driver
//! charges to the iteration in which the switch happens (Fig. 5).

use avcc_coding::SchemeConfig;

/// What the controller decided to do after an iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptationDecision {
    /// Workers to evict from the cluster (detected Byzantine nodes).
    pub evict_workers: Vec<usize>,
    /// The new scheme configuration after eviction / re-coding.
    pub new_config: SchemeConfig,
    /// Whether the code dimension changed (requiring re-encoding and
    /// re-distribution of the coded data).
    pub reencode: bool,
    /// The slack `A_t` that drove the decision.
    pub slack: i64,
}

/// The dynamic-coding controller. With `enabled = false` it never adapts —
/// that is exactly the paper's "Static VCC" ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveController {
    enabled: bool,
}

impl AdaptiveController {
    /// A controller that adapts (AVCC) or not (Static VCC).
    pub fn new(enabled: bool) -> Self {
        AdaptiveController { enabled }
    }

    /// Whether dynamic coding is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Evaluates the end-of-iteration state and returns a decision, or `None`
    /// when nothing needs to change (no Byzantine detections and non-negative
    /// slack) or adaptation is disabled / infeasible.
    pub fn evaluate(
        &self,
        current: &SchemeConfig,
        detected_byzantine: &[usize],
        observed_stragglers: &[usize],
    ) -> Option<AdaptationDecision> {
        if !self.enabled {
            return None;
        }
        let byzantine_count = detected_byzantine.len();
        let straggler_count = observed_stragglers.len();
        let slack = current.slack(straggler_count, byzantine_count);
        if byzantine_count == 0 && slack >= 0 {
            return None;
        }

        let new_workers = current.workers.saturating_sub(byzantine_count);
        let new_partitions = if slack >= 0 {
            current.partitions
        } else {
            let reduction = ((-slack) as usize).div_ceil(current.degree);
            current.partitions.saturating_sub(reduction).max(1)
        };
        // Evicting a worker keeps the same code (the remaining shares still
        // decode); only a change of the code dimension K requires switching to
        // a different encoding and re-distributing coded data.
        let reencode = new_partitions != current.partitions;

        // Residual tolerances of the new code: Byzantine workers were evicted,
        // so the remaining redundancy is budgeted entirely for stragglers.
        let new_threshold = (new_partitions + current.colluding - 1) * current.degree + 1;
        if new_workers < new_threshold {
            // Shrinking any further would make decoding impossible; keep the
            // current configuration rather than break the system.
            return None;
        }
        let new_stragglers = new_workers - new_threshold;
        let new_config = SchemeConfig::new(
            new_workers,
            new_partitions,
            new_stragglers,
            0,
            current.colluding,
            current.degree,
        )
        .ok()?;

        Some(AdaptationDecision {
            evict_workers: detected_byzantine.to_vec(),
            new_config,
            reencode,
            slack,
        })
    }
}

/// Tuning knobs for the closed-loop [`Autopilot`].
///
/// All rates are per-iteration worker counts smoothed with an exponentially
/// weighted moving average (EWMA): `x̂ ← α·x + (1−α)·x̂`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutopilotConfig {
    /// Whether the autopilot retunes the code at all.
    pub enabled: bool,
    /// EWMA smoothing factor `α ∈ (0, 1]` — higher reacts faster.
    pub alpha: f64,
    /// Safety margin, in (fractional) workers, kept in reserve above the
    /// smoothed demand when sizing the recovery threshold.
    pub headroom: f64,
    /// Iterations to hold the configuration after a retune before the next
    /// one is allowed; damps oscillation between adjacent `K` values.
    pub cooldown: usize,
    /// The autopilot never lowers the privacy parameter `T` below this.
    pub privacy_floor: usize,
    /// The autopilot raises `T` toward this bound when the fleet has slack.
    pub privacy_ceiling: usize,
}

impl AutopilotConfig {
    /// An autopilot that never retunes (the static baseline).
    pub fn disabled() -> Self {
        AutopilotConfig {
            enabled: false,
            alpha: 0.3,
            headroom: 1.0,
            cooldown: 2,
            privacy_floor: 0,
            privacy_ceiling: 0,
        }
    }

    /// An enabled autopilot that keeps the scheme's current privacy level
    /// `t` fixed (floor == ceiling == `t`).
    pub fn with_privacy(t: usize) -> Self {
        AutopilotConfig {
            enabled: true,
            privacy_floor: t,
            privacy_ceiling: t,
            ..AutopilotConfig::disabled()
        }
    }
}

/// The churn-aware closed-loop controller. Where [`AdaptiveController`]
/// reacts to a single bad iteration by permanently evicting workers and only
/// ever shrinking `K`, the autopilot keeps every fleet slot (churned workers
/// may rejoin) and retunes `(K, T)` in *both* directions from smoothed
/// observations: under sustained churn or straggling it lowers `K` (raising
/// redundancy `R = N − threshold`), and when the fleet heals it grows `K`
/// back — and `T` toward its ceiling — reclaiming throughput and privacy.
#[derive(Debug, Clone, PartialEq)]
pub struct Autopilot {
    config: AutopilotConfig,
    missing_rate: f64,
    straggler_rate: f64,
    byzantine_rate: f64,
    cooldown_left: usize,
}

impl Autopilot {
    /// A fresh autopilot with zeroed rate estimates.
    pub fn new(config: AutopilotConfig) -> Self {
        assert!(
            !config.enabled || (config.alpha > 0.0 && config.alpha <= 1.0),
            "autopilot EWMA factor must be in (0, 1], got {}",
            config.alpha
        );
        assert!(
            config.privacy_floor <= config.privacy_ceiling,
            "autopilot privacy floor {} exceeds ceiling {}",
            config.privacy_floor,
            config.privacy_ceiling
        );
        Autopilot {
            config,
            missing_rate: 0.0,
            straggler_rate: 0.0,
            byzantine_rate: 0.0,
            cooldown_left: 0,
        }
    }

    /// Whether the autopilot retunes the code.
    pub fn is_enabled(&self) -> bool {
        self.config.enabled
    }

    /// The configured tuning knobs.
    pub fn config(&self) -> &AutopilotConfig {
        &self.config
    }

    /// The smoothed `(missing, straggler, byzantine)` per-iteration rates.
    pub fn rates(&self) -> (f64, f64, f64) {
        (self.missing_rate, self.straggler_rate, self.byzantine_rate)
    }

    /// Feeds one iteration's observations — how many of the fleet's `N`
    /// slots returned nothing (churned away), straggled, or were detected
    /// Byzantine — and returns a retune decision when the smoothed demand
    /// calls for a different `(K, T)` than the current code.
    ///
    /// The fleet size `N` is never changed: absent workers keep their slot
    /// so they can rejoin, which is why the decision always has an empty
    /// eviction list and `reencode = true`.
    pub fn observe(
        &mut self,
        current: &SchemeConfig,
        responded: usize,
        observed_stragglers: usize,
        detected_byzantine: usize,
    ) -> Option<AdaptationDecision> {
        let workers = current.workers;
        let missing = workers.saturating_sub(responded);
        let alpha = self.config.alpha;
        self.missing_rate = alpha * missing as f64 + (1.0 - alpha) * self.missing_rate;
        self.straggler_rate =
            alpha * observed_stragglers as f64 + (1.0 - alpha) * self.straggler_rate;
        self.byzantine_rate =
            alpha * detected_byzantine as f64 + (1.0 - alpha) * self.byzantine_rate;
        if !self.config.enabled {
            return None;
        }
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            return None;
        }

        // Expected unusable workers per iteration, with headroom on top.
        let demand =
            self.missing_rate + self.straggler_rate + self.byzantine_rate + self.config.headroom;
        let threshold_budget = (workers as f64 - demand).floor();
        if threshold_budget < 1.0 {
            return None;
        }
        let threshold_budget = threshold_budget as usize;

        // Prefer the highest privacy level in [floor, ceiling] that still
        // leaves room for a decodable code, then the largest K that fits:
        // recovery threshold (K + T − 1)·deg + 1 ≤ threshold_budget.
        let degree = current.degree;
        let floor = self.config.privacy_floor;
        let ceiling = self.config.privacy_ceiling;
        let mut chosen = None;
        for t in (floor..=ceiling).rev() {
            let budget = (threshold_budget - 1) / degree; // max K + T − 1
            if budget + 1 > t {
                chosen = Some((budget + 1 - t, t));
                break;
            }
        }
        let (k, t) = chosen?;
        if (k, t) == (current.partitions, current.colluding) {
            return None;
        }

        let threshold = (k + t - 1) * degree + 1;
        let stragglers = workers.saturating_sub(threshold + current.byzantine);
        let new_config =
            SchemeConfig::new(workers, k, stragglers, current.byzantine, t, degree).ok()?;
        self.cooldown_left = self.config.cooldown;
        Some(AdaptationDecision {
            evict_workers: Vec::new(),
            new_config,
            reencode: true,
            slack: current.slack(observed_stragglers, detected_byzantine),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_config() -> SchemeConfig {
        SchemeConfig::linear(12, 9, 2, 1).unwrap()
    }

    #[test]
    fn quiet_iteration_needs_no_adaptation() {
        let controller = AdaptiveController::new(true);
        assert_eq!(controller.evaluate(&paper_config(), &[], &[]), None);
        // One straggler still leaves non-negative slack (12 - 0 - 1 - 9 = 2).
        assert_eq!(controller.evaluate(&paper_config(), &[], &[4]), None);
    }

    #[test]
    fn disabled_controller_never_adapts() {
        let controller = AdaptiveController::new(false);
        assert!(!controller.is_enabled());
        assert_eq!(controller.evaluate(&paper_config(), &[3], &[0, 1, 2]), None);
    }

    #[test]
    fn byzantine_detection_with_positive_slack_evicts_without_recoding_dimension() {
        let controller = AdaptiveController::new(true);
        // One Byzantine, one straggler: A_t = 12 - 1 - 1 - 9 = 1 >= 0.
        let decision = controller
            .evaluate(&paper_config(), &[7], &[2])
            .expect("eviction expected");
        assert_eq!(decision.evict_workers, vec![7]);
        assert_eq!(decision.new_config.workers, 11);
        assert_eq!(decision.new_config.partitions, 9);
        // The code dimension is unchanged, so no re-encoding is needed: the
        // remaining 11 shares of the same (12, 9) code still decode.
        assert!(!decision.reencode);
        assert_eq!(decision.slack, 1);
    }

    #[test]
    fn figure_5_scenario_recodes_to_eleven_eight() {
        // Initial (12, 9, S=2, M=1); iteration observes 3 stragglers and 1
        // Byzantine worker: A_t = 12 - 1 - 3 - 9 = -1 < 0, so the paper's
        // example re-encodes to (N=11, K=8, S=3, M=0).
        let controller = AdaptiveController::new(true);
        let decision = controller
            .evaluate(&paper_config(), &[6], &[0, 1, 2])
            .expect("re-coding expected");
        assert_eq!(decision.slack, -1);
        assert_eq!(decision.new_config.workers, 11);
        assert_eq!(decision.new_config.partitions, 8);
        assert_eq!(decision.new_config.stragglers, 3);
        assert_eq!(decision.new_config.byzantine, 0);
        assert!(decision.reencode);
    }

    #[test]
    fn lagrange_slack_uses_degree_in_the_reduction() {
        // deg f = 2, T = 1: threshold = (K + T - 1) * 2 + 1.
        let config = SchemeConfig::new(20, 4, 2, 1, 1, 2).unwrap();
        let controller = AdaptiveController::new(true);
        // threshold = 9; observe 1 Byzantine and 12 stragglers:
        // A_t = 20 - 1 - 12 - 9 = -2, reduction = ceil(2/2) = 1 partition.
        let decision = controller
            .evaluate(&config, &[0], &(1..13).collect::<Vec<_>>())
            .expect("re-coding expected");
        assert_eq!(decision.new_config.partitions, 3);
        assert_eq!(decision.new_config.workers, 19);
    }

    #[test]
    fn controller_refuses_to_shrink_below_decodability() {
        // Evicting every worker would make decoding impossible; the controller
        // must keep the current configuration rather than break the system.
        let config = SchemeConfig::linear(3, 2, 1, 0).unwrap();
        let controller = AdaptiveController::new(true);
        assert_eq!(controller.evaluate(&config, &[0, 1, 2], &[]), None);
    }

    #[test]
    fn disabled_autopilot_never_retunes_but_still_tracks_rates() {
        let mut pilot = Autopilot::new(AutopilotConfig::disabled());
        assert!(!pilot.is_enabled());
        assert_eq!(pilot.observe(&paper_config(), 8, 2, 1), None);
        let (missing, stragglers, byzantine) = pilot.rates();
        assert!(missing > 0.0 && stragglers > 0.0 && byzantine > 0.0);
    }

    #[test]
    fn autopilot_shrinks_k_under_sustained_churn_and_grows_it_back() {
        let mut config = AutopilotConfig::with_privacy(0);
        config.cooldown = 0;
        let mut pilot = Autopilot::new(config);
        let mut coding = paper_config(); // (12, 9, S=2, M=1)

        // Four workers churned away every iteration: the smoothed demand
        // grows until K must drop below 9.
        let mut shrunk = None;
        for _ in 0..20 {
            if let Some(decision) = pilot.observe(&coding, 8, 0, 0) {
                assert!(decision.evict_workers.is_empty(), "slots must be kept");
                assert!(decision.reencode);
                assert_eq!(decision.new_config.workers, 12, "N never changes");
                coding = decision.new_config;
                shrunk = Some(coding);
            }
        }
        let shrunk = shrunk.expect("sustained churn must shrink the code");
        assert!(shrunk.partitions < 9);

        // The fleet heals: every slot responds again, and the autopilot
        // grows K back past the original 9 to reclaim throughput.
        let mut grown = None;
        for _ in 0..30 {
            if let Some(decision) = pilot.observe(&coding, 12, 0, 0) {
                coding = decision.new_config;
                grown = Some(coding);
            }
        }
        let grown = grown.expect("a healed fleet must grow the code back");
        assert!(grown.partitions > shrunk.partitions);
    }

    #[test]
    fn autopilot_raises_privacy_toward_the_ceiling_when_the_fleet_has_slack() {
        let mut config = AutopilotConfig::with_privacy(0);
        config.privacy_ceiling = 2;
        config.cooldown = 0;
        let mut pilot = Autopilot::new(config);
        let coding = paper_config();
        let decision = pilot
            .observe(&coding, 12, 0, 0)
            .expect("a quiet fleet leaves slack to spend");
        // T jumps to the ceiling; K fills the remaining threshold budget.
        assert_eq!(decision.new_config.colluding, 2);
        let threshold = decision.new_config.recovery_threshold();
        assert!(threshold <= 11, "headroom of 1 worker must be kept");
    }

    #[test]
    fn autopilot_cooldown_spaces_retunes() {
        let mut config = AutopilotConfig::with_privacy(0);
        config.cooldown = 3;
        let mut pilot = Autopilot::new(config);
        let coding = paper_config();
        // First observation retunes (quiet fleet grows K), then the cooldown
        // must swallow the next three even though the demand is unchanged.
        assert!(pilot.observe(&coding, 12, 0, 0).is_some());
        assert!(pilot.observe(&coding, 12, 0, 0).is_none());
        assert!(pilot.observe(&coding, 12, 0, 0).is_none());
        assert!(pilot.observe(&coding, 12, 0, 0).is_none());
        assert!(pilot.observe(&coding, 12, 0, 0).is_some());
    }

    #[test]
    fn autopilot_refuses_an_undecodable_budget() {
        let mut config = AutopilotConfig::with_privacy(0);
        config.cooldown = 0;
        config.headroom = 0.0;
        config.alpha = 1.0;
        let mut pilot = Autopilot::new(config);
        let coding = SchemeConfig::linear(4, 2, 1, 1).unwrap();
        // Everything churned away: no decodable code fits, so no decision.
        for _ in 0..5 {
            assert_eq!(pilot.observe(&coding, 0, 0, 0), None);
        }
    }

    #[test]
    #[should_panic(expected = "privacy floor")]
    fn autopilot_rejects_inverted_privacy_bounds() {
        let mut config = AutopilotConfig::with_privacy(3);
        config.privacy_ceiling = 1;
        let _ = Autopilot::new(config);
    }

    #[test]
    fn deep_shrinkage_stays_decodable() {
        // Two of three workers evicted: the controller shrinks all the way to
        // a single-partition code rather than refusing.
        let config = SchemeConfig::linear(3, 2, 1, 0).unwrap();
        let controller = AdaptiveController::new(true);
        let decision = controller.evaluate(&config, &[0, 1], &[2]).unwrap();
        assert_eq!(decision.new_config.workers, 1);
        assert_eq!(decision.new_config.partitions, 1);
    }
}
