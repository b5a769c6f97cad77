//! Training reports: per-iteration records, cumulative timelines and the
//! derived quantities the paper's tables and figures present.
//!
//! * Fig. 3 plots test accuracy against cumulative training time — available
//!   as [`TrainingReport::accuracy_timeline`].
//! * Table I reports speedups as the ratio of times to reach a common target
//!   accuracy — [`TrainingReport::time_to_accuracy`] and [`speedup`].
//! * Fig. 4 shows per-iteration cost breakdowns —
//!   [`TrainingReport::average_costs`].
//! * Fig. 5 compares cumulative execution time with and without dynamic
//!   coding — [`TrainingReport::cumulative_timeline`].

use avcc_sim::metrics::{IterationCosts, OpCounts};

/// Everything recorded about one training iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// Cost breakdown of this iteration.
    pub costs: IterationCosts,
    /// Deterministic operation counts for both rounds of this iteration;
    /// `costs.verification` and `costs.decoding` are these counts'
    /// `verify_macs` and `decode_macs` at [`avcc_sim::SECONDS_PER_MAC`].
    pub ops: OpCounts,
    /// Cumulative simulated time after this iteration.
    pub cumulative_seconds: f64,
    /// Test accuracy after this iteration's update.
    pub test_accuracy: f64,
    /// Training loss after this iteration's update.
    pub train_loss: f64,
    /// Workers detected as Byzantine during this iteration.
    pub detected_byzantine: Vec<usize>,
    /// Workers evicted by the pre-decode dual-codeword screen during this
    /// iteration — always a subset of `detected_byzantine`.
    pub screened_workers: Vec<usize>,
    /// Workers observed to straggle during this iteration.
    pub observed_stragglers: Vec<usize>,
    /// Whether the adaptive controller re-encoded at the end of this
    /// iteration.
    pub reconfigured: bool,
}

/// The complete record of one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingReport {
    /// The scheme that produced this run ("uncoded", "lcc", "avcc",
    /// "static-vcc").
    pub scheme: String,
    /// A human-readable description of the fault scenario.
    pub scenario: String,
    /// Per-iteration records in order.
    pub iterations: Vec<IterationRecord>,
}

impl TrainingReport {
    /// Creates an empty report.
    pub fn new(scheme: impl Into<String>, scenario: impl Into<String>) -> Self {
        TrainingReport {
            scheme: scheme.into(),
            scenario: scenario.into(),
            iterations: Vec::new(),
        }
    }

    /// Appends an iteration record.
    pub fn push(&mut self, record: IterationRecord) {
        self.iterations.push(record);
    }

    /// Number of iterations recorded.
    pub fn len(&self) -> usize {
        self.iterations.len()
    }

    /// `true` iff no iterations were recorded.
    pub fn is_empty(&self) -> bool {
        self.iterations.is_empty()
    }

    /// Total simulated training time.
    pub fn total_seconds(&self) -> f64 {
        self.iterations
            .last()
            .map(|r| r.cumulative_seconds)
            .unwrap_or(0.0)
    }

    /// Final test accuracy.
    pub fn final_accuracy(&self) -> f64 {
        self.iterations
            .last()
            .map(|r| r.test_accuracy)
            .unwrap_or(0.0)
    }

    /// Best test accuracy reached at any iteration.
    pub fn best_accuracy(&self) -> f64 {
        self.iterations
            .iter()
            .map(|r| r.test_accuracy)
            .fold(0.0, f64::max)
    }

    /// `(cumulative time, accuracy)` pairs — the series plotted in Fig. 3.
    pub fn accuracy_timeline(&self) -> Vec<(f64, f64)> {
        self.iterations
            .iter()
            .map(|r| (r.cumulative_seconds, r.test_accuracy))
            .collect()
    }

    /// Cumulative time after each iteration — the series plotted in Fig. 5.
    pub fn cumulative_timeline(&self) -> Vec<f64> {
        self.iterations
            .iter()
            .map(|r| r.cumulative_seconds)
            .collect()
    }

    /// The first (simulated) time at which the test accuracy reached
    /// `target`, or `None` if it never did.
    pub fn time_to_accuracy(&self, target: f64) -> Option<f64> {
        self.iterations
            .iter()
            .find(|r| r.test_accuracy >= target)
            .map(|r| r.cumulative_seconds)
    }

    /// Average per-iteration cost breakdown (Fig. 4's bars).
    pub fn average_costs(&self) -> IterationCosts {
        if self.iterations.is_empty() {
            return IterationCosts::default();
        }
        let total = self
            .iterations
            .iter()
            .fold(IterationCosts::default(), |acc, r| acc.combined(&r.costs));
        total.scaled(1.0 / self.iterations.len() as f64)
    }

    /// Total number of Byzantine detections across the run.
    pub fn total_detections(&self) -> usize {
        self.iterations
            .iter()
            .map(|r| r.detected_byzantine.len())
            .sum()
    }

    /// Total number of screened-worker evictions across the run — the share
    /// of [`TrainingReport::total_detections`] caught by the dual-codeword
    /// screen before any Freivalds verification ran.
    pub fn total_screened(&self) -> usize {
        self.iterations
            .iter()
            .map(|r| r.screened_workers.len())
            .sum()
    }

    /// Number of iterations after which the adaptive controller re-encoded.
    pub fn reconfiguration_count(&self) -> usize {
        self.iterations.iter().filter(|r| r.reconfigured).count()
    }
}

/// The speedup of `fast` over `slow` — the ratio of the times at which each
/// run reached the target accuracy (Table I). Falls back to the ratio of total
/// training times when either run never reaches the target.
pub fn speedup(fast: &TrainingReport, slow: &TrainingReport, target_accuracy: f64) -> f64 {
    match (
        fast.time_to_accuracy(target_accuracy),
        slow.time_to_accuracy(target_accuracy),
    ) {
        (Some(fast_time), Some(slow_time)) if fast_time > 0.0 => slow_time / fast_time,
        _ => {
            let fast_total = fast.total_seconds();
            if fast_total > 0.0 {
                slow.total_seconds() / fast_total
            } else {
                1.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(iteration: usize, accuracy: f64, seconds: f64, cumulative: f64) -> IterationRecord {
        IterationRecord {
            iteration,
            costs: IterationCosts {
                compute: seconds,
                ..IterationCosts::default()
            },
            ops: OpCounts::default(),
            cumulative_seconds: cumulative,
            test_accuracy: accuracy,
            train_loss: 1.0 - accuracy,
            detected_byzantine: Vec::new(),
            screened_workers: Vec::new(),
            observed_stragglers: Vec::new(),
            reconfigured: false,
        }
    }

    fn sample_report(times: &[f64], accuracies: &[f64]) -> TrainingReport {
        let mut report = TrainingReport::new("avcc", "test");
        let mut cumulative = 0.0;
        for (i, (&t, &a)) in times.iter().zip(accuracies.iter()).enumerate() {
            cumulative += t;
            report.push(record(i, a, t, cumulative));
        }
        report
    }

    #[test]
    fn totals_and_final_accuracy() {
        let report = sample_report(&[1.0, 1.0, 2.0], &[0.5, 0.8, 0.9]);
        assert_eq!(report.len(), 3);
        assert!((report.total_seconds() - 4.0).abs() < 1e-12);
        assert!((report.final_accuracy() - 0.9).abs() < 1e-12);
        assert!((report.best_accuracy() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn time_to_accuracy_finds_first_crossing() {
        let report = sample_report(&[1.0, 1.0, 2.0], &[0.5, 0.8, 0.9]);
        assert_eq!(report.time_to_accuracy(0.75), Some(2.0));
        assert_eq!(report.time_to_accuracy(0.95), None);
    }

    #[test]
    fn speedup_compares_times_to_target() {
        let fast = sample_report(&[1.0, 1.0], &[0.7, 0.9]);
        let slow = sample_report(&[3.0, 3.0], &[0.7, 0.9]);
        let ratio = speedup(&fast, &slow, 0.85);
        assert!((ratio - 3.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_falls_back_to_total_time() {
        let fast = sample_report(&[1.0], &[0.6]);
        let slow = sample_report(&[5.0], &[0.6]);
        assert!((speedup(&fast, &slow, 0.9) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn average_costs_divide_by_iterations() {
        let report = sample_report(&[1.0, 3.0], &[0.5, 0.6]);
        assert!((report.average_costs().compute - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_well_behaved() {
        let report = TrainingReport::new("lcc", "empty");
        assert!(report.is_empty());
        assert_eq!(report.total_seconds(), 0.0);
        assert_eq!(report.final_accuracy(), 0.0);
        assert_eq!(report.time_to_accuracy(0.5), None);
        assert_eq!(report.average_costs(), IterationCosts::default());
    }

    #[test]
    fn accuracy_timeline_pairs_time_with_accuracy() {
        let report = sample_report(&[2.0, 2.0], &[0.6, 0.8]);
        let timeline = report.accuracy_timeline();
        assert_eq!(timeline, vec![(2.0, 0.6), (4.0, 0.8)]);
        assert_eq!(report.cumulative_timeline(), vec![2.0, 4.0]);
    }

    #[test]
    fn detection_and_reconfiguration_counters() {
        let mut report = TrainingReport::new("avcc", "faults");
        let mut r = record(0, 0.5, 1.0, 1.0);
        r.detected_byzantine = vec![3, 7];
        r.screened_workers = vec![3];
        r.reconfigured = true;
        report.push(r);
        report.push(record(1, 0.6, 1.0, 2.0));
        assert_eq!(report.total_detections(), 2);
        assert_eq!(report.total_screened(), 1);
        assert_eq!(report.reconfiguration_count(), 1);
    }
}
