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
//! (N_{t+1}, K_{t+1}) = (N_t − M_t, K_t)        if A_t ≥ 0
//!                      (N_t − M_t, K_t + A_t)  if A_t < 0   (eq. 17 / 19, deg f = 1)
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

/// Evaluates the end-of-iteration state and returns a decision, or `None`
/// when nothing needs to change (no Byzantine detections and non-negative
/// slack) or no smaller code would still decode. The trainer calls it after
/// every AVCC iteration; "Static VCC", the paper's ablation, never does.
pub fn adapt(
    current: &SchemeConfig,
    detected_byzantine: &[usize],
    observed_stragglers: &[usize],
) -> Option<AdaptationDecision> {
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
        current.partitions.saturating_sub((-slack) as usize).max(1)
    };
    // Evicting a worker keeps the same code (the remaining shares still
    // decode); only a change of the code dimension K requires switching to
    // a different encoding and re-distributing coded data.
    let reencode = new_partitions != current.partitions;

    // Residual tolerances of the new code: Byzantine workers were evicted,
    // so the remaining redundancy is budgeted entirely for stragglers.
    let candidate = SchemeConfig::new(new_workers, new_partitions, 0, 0, current.colluding).ok()?;
    // Shrinking any further would make decoding impossible; keep the current
    // configuration rather than break the system.
    let new_stragglers = new_workers.checked_sub(candidate.recovery_threshold())?;
    let new_config = SchemeConfig {
        stragglers: new_stragglers,
        ..candidate
    };

    Some(AdaptationDecision {
        evict_workers: detected_byzantine.to_vec(),
        new_config,
        reencode,
        slack,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_config() -> SchemeConfig {
        SchemeConfig::linear(12, 9, 2, 1).unwrap()
    }

    #[test]
    fn quiet_iteration_needs_no_adaptation() {
        assert_eq!(adapt(&paper_config(), &[], &[]), None);
        // One straggler still leaves non-negative slack (12 - 0 - 1 - 9 = 2).
        assert_eq!(adapt(&paper_config(), &[], &[4]), None);
    }

    #[test]
    fn byzantine_detection_with_positive_slack_evicts_without_recoding_dimension() {
        // One Byzantine, one straggler: A_t = 12 - 1 - 1 - 9 = 1 >= 0.
        let decision = adapt(&paper_config(), &[7], &[2]).expect("eviction expected");
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
        let decision = adapt(&paper_config(), &[6], &[0, 1, 2]).expect("re-coding expected");
        assert_eq!(decision.slack, -1);
        assert_eq!(decision.new_config.workers, 11);
        assert_eq!(decision.new_config.partitions, 8);
        assert_eq!(decision.new_config.stragglers, 3);
        assert_eq!(decision.new_config.byzantine, 0);
        assert!(decision.reencode);
    }

    #[test]
    fn controller_refuses_to_shrink_below_decodability() {
        // Evicting every worker would make decoding impossible; the controller
        // must keep the current configuration rather than break the system.
        let config = SchemeConfig::linear(3, 2, 1, 0).unwrap();
        assert_eq!(adapt(&config, &[0, 1, 2], &[]), None);
    }

    #[test]
    fn deep_shrinkage_stays_decodable() {
        // Two of three workers evicted: the controller shrinks all the way to
        // a single-partition code rather than refusing.
        let config = SchemeConfig::linear(3, 2, 1, 0).unwrap();
        let decision = adapt(&config, &[0, 1], &[2]).unwrap();
        assert_eq!(decision.new_config.workers, 1);
        assert_eq!(decision.new_config.partitions, 1);
    }
}
