//! Per-iteration cost accounting — the quantities plotted in Fig. 4 of the
//! paper.
//!
//! The paper breaks one training iteration into four categories:
//!
//! 1. **Compute time** — the worst-case latency of the matrix operations at
//!    any worker whose result the master actually used.
//! 2. **Communication time** — sending inputs to and receiving results from
//!    those workers.
//! 3. **Verification time** — the Freivalds checks at the master (zero for
//!    LCC and the uncoded baseline, whose integrity handling is coupled with
//!    decoding or absent).
//! 4. **Decoding time** — MDS/Lagrange decoding at the master (zero for the
//!    uncoded baseline).
//!
//! [`IterationCosts`] holds one iteration's breakdown in simulated seconds.
//!
//! Two further families serve the PR6 serving layer:
//!
//! * [`OpCounts`] — *deterministic* field-operation counts. They depend only
//!   on the problem dimensions, the coding configuration and the arrival
//!   order, and the master's verification and decoding seconds are these
//!   counts at [`SECONDS_PER_MAC`](crate::cluster::SECONDS_PER_MAC), the
//!   same rate the virtual executor charges worker compute at.
//! * [`JobMetrics`] / [`ServingMetrics`] — per-job and per-fleet throughput
//!   accounting (queue wait, rounds/sec, jobs/sec, pipeline occupancy) for
//!   the multi-job scheduler in `avcc-serve`.

/// The per-iteration cost breakdown, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IterationCosts {
    /// Worst-case worker compute latency among used results.
    pub compute: f64,
    /// Worst-case communication latency among used results.
    pub communication: f64,
    /// Master-side verification time (AVCC only).
    pub verification: f64,
    /// Master-side decoding time.
    pub decoding: f64,
    /// One-off costs charged to this iteration (e.g. re-encoding and
    /// re-distributing data after a dynamic coding switch, Fig. 5).
    pub reconfiguration: f64,
}

impl IterationCosts {
    /// Total simulated time charged to the iteration.
    pub fn total(&self) -> f64 {
        self.compute + self.communication + self.verification + self.decoding + self.reconfiguration
    }

    /// Element-wise sum of two breakdowns.
    pub fn combined(&self, other: &IterationCosts) -> IterationCosts {
        IterationCosts {
            compute: self.compute + other.compute,
            communication: self.communication + other.communication,
            verification: self.verification + other.verification,
            decoding: self.decoding + other.decoding,
            reconfiguration: self.reconfiguration + other.reconfiguration,
        }
    }

    /// Scales every component (used when averaging).
    pub fn scaled(&self, factor: f64) -> IterationCosts {
        IterationCosts {
            compute: self.compute * factor,
            communication: self.communication * factor,
            verification: self.verification * factor,
            decoding: self.decoding * factor,
            reconfiguration: self.reconfiguration * factor,
        }
    }
}

/// Deterministic field-operation counts for one round, iteration or job.
///
/// All counts are multiply–accumulates (MACs) that the code performing the
/// work reports — counted, not timed — so they are bit-identical across
/// runs, executors and hosts. `worker_macs` is the critical path (one
/// worker's share product, since the shares compute in parallel).
/// `verify_macs` sums the master's checks that ran: each Freivalds check's
/// `MatVecKey::check_macs`, the dual-codeword screen's reported MACs, and
/// the σ-combining of a batch. `decode_macs` is the prepared erasure
/// decode's `PreparedDecode::macs` — the non-zero coefficients of the bands
/// it interpolates, per element; a systematic survivor's band costs
/// nothing. The one modeled count is the LCC baseline's decode, a model of
/// its Reed–Solomon decoder. The basis a decode prepares is not charged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// MACs on the worker critical path (one share/block product).
    pub worker_macs: u64,
    /// Master-side MACs spent verifying results (AVCC/Static VCC only).
    pub verify_macs: u64,
    /// Master-side MACs spent decoding the product.
    pub decode_macs: u64,
}

impl OpCounts {
    /// Total MACs across all categories.
    pub fn total(&self) -> u64 {
        self.worker_macs + self.verify_macs + self.decode_macs
    }

    /// Element-wise sum of two counts.
    pub fn combined(&self, other: &OpCounts) -> OpCounts {
        OpCounts {
            worker_macs: self.worker_macs + other.worker_macs,
            verify_macs: self.verify_macs + other.verify_macs,
            decode_macs: self.decode_macs + other.decode_macs,
        }
    }
}

/// Per-job accounting recorded by the serving scheduler.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JobMetrics {
    /// Real seconds the job spent queued before a fleet slot admitted it.
    pub queue_wait_seconds: f64,
    /// Real seconds between admission and completion.
    pub active_seconds: f64,
    /// Distributed rounds the job completed.
    pub rounds: usize,
    /// Deterministic operation counts accumulated across the job's rounds.
    pub ops: OpCounts,
    /// Workers the pre-decode dual-codeword screen localized across the
    /// job's rounds, each then Freivalds-checked. Zero for engines without a
    /// screen.
    pub screened_workers: u64,
}

impl JobMetrics {
    /// Round throughput over the job's active window.
    pub fn rounds_per_second(&self) -> f64 {
        if self.active_seconds > 0.0 {
            self.rounds as f64 / self.active_seconds
        } else {
            0.0
        }
    }
}

/// Fleet-level accounting for one scheduler run over many jobs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServingMetrics {
    /// Worker slots the fleet multiplexes the jobs onto.
    pub fleet_width: usize,
    /// Real seconds from run start to the last job's completion.
    pub span_seconds: f64,
    /// Jobs that ran to completion.
    pub jobs_completed: usize,
    /// Jobs that failed (scheme failure surfaced by a round).
    pub jobs_failed: usize,
    /// Distributed rounds completed across all jobs.
    pub rounds_total: usize,
    /// Summed real seconds the worker slots spent executing tasks (straggler
    /// sleeps included — a sleeping worker occupies its slot).
    pub busy_worker_seconds: f64,
    /// Summed queue wait across all jobs.
    pub queue_wait_total_seconds: f64,
    /// Deterministic operation counts accumulated across all jobs.
    pub ops: OpCounts,
    /// Summed screened workers across all jobs (the dual-codeword screen's
    /// localizations).
    pub screened_workers: u64,
}

impl ServingMetrics {
    /// Folds one finished job into the fleet totals.
    pub fn record_job(&mut self, job: &JobMetrics, failed: bool) {
        if failed {
            self.jobs_failed += 1;
        } else {
            self.jobs_completed += 1;
        }
        self.rounds_total += job.rounds;
        self.queue_wait_total_seconds += job.queue_wait_seconds;
        self.ops = self.ops.combined(&job.ops);
        self.screened_workers += job.screened_workers;
    }

    /// Completed-job throughput — the serving bench's headline number.
    pub fn jobs_per_second(&self) -> f64 {
        if self.span_seconds > 0.0 {
            self.jobs_completed as f64 / self.span_seconds
        } else {
            0.0
        }
    }

    /// Round throughput across the whole fleet.
    pub fn rounds_per_second(&self) -> f64 {
        if self.span_seconds > 0.0 {
            self.rounds_total as f64 / self.span_seconds
        } else {
            0.0
        }
    }

    /// Fraction of the fleet's slot-seconds spent executing worker tasks.
    /// 1.0 means every slot was busy for the whole span; a synchronous
    /// one-job-at-a-time schedule leaves slots idle during master-side
    /// stages and straggler waits, which is exactly what pipelining claws
    /// back.
    pub fn pipeline_occupancy(&self) -> f64 {
        let capacity = self.span_seconds * self.fleet_width as f64;
        if capacity > 0.0 {
            (self.busy_worker_seconds / capacity).min(1.0)
        } else {
            0.0
        }
    }

    /// Mean per-job queue wait.
    pub fn mean_queue_wait_seconds(&self) -> f64 {
        let jobs = self.jobs_completed + self.jobs_failed;
        if jobs > 0 {
            self.queue_wait_total_seconds / jobs as f64
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(compute: f64) -> IterationCosts {
        IterationCosts {
            compute,
            communication: 0.1,
            verification: 0.01,
            decoding: 0.02,
            reconfiguration: 0.0,
        }
    }

    #[test]
    fn total_sums_all_components() {
        let costs = IterationCosts {
            compute: 1.0,
            communication: 2.0,
            verification: 3.0,
            decoding: 4.0,
            reconfiguration: 5.0,
        };
        assert!((costs.total() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn combined_adds_componentwise() {
        let a = sample(1.0);
        let b = sample(2.0);
        let c = a.combined(&b);
        assert!((c.compute - 3.0).abs() < 1e-12);
        assert!((c.communication - 0.2).abs() < 1e-12);
    }

    #[test]
    fn scaled_multiplies_componentwise() {
        let a = sample(2.0).scaled(0.5);
        assert!((a.compute - 1.0).abs() < 1e-12);
        assert!((a.communication - 0.05).abs() < 1e-12);
    }

    #[test]
    fn op_counts_total_and_combine() {
        let a = OpCounts {
            worker_macs: 100,
            verify_macs: 10,
            decode_macs: 5,
        };
        let b = OpCounts {
            worker_macs: 50,
            verify_macs: 1,
            decode_macs: 2,
        };
        assert_eq!(a.total(), 115);
        let c = a.combined(&b);
        assert_eq!(c.worker_macs, 150);
        assert_eq!(c.verify_macs, 11);
        assert_eq!(c.decode_macs, 7);
        assert_eq!(OpCounts::default().total(), 0);
    }

    #[test]
    fn job_metrics_round_throughput() {
        let job = JobMetrics {
            queue_wait_seconds: 0.5,
            active_seconds: 2.0,
            rounds: 10,
            ops: OpCounts::default(),
            screened_workers: 0,
        };
        assert!((job.rounds_per_second() - 5.0).abs() < 1e-12);
        assert_eq!(JobMetrics::default().rounds_per_second(), 0.0);
    }

    #[test]
    fn serving_metrics_aggregate_jobs() {
        let mut fleet = ServingMetrics {
            fleet_width: 4,
            span_seconds: 2.0,
            busy_worker_seconds: 4.0,
            ..ServingMetrics::default()
        };
        let job = JobMetrics {
            queue_wait_seconds: 0.25,
            active_seconds: 1.0,
            rounds: 6,
            ops: OpCounts {
                worker_macs: 7,
                ..OpCounts::default()
            },
            screened_workers: 2,
        };
        fleet.record_job(&job, false);
        fleet.record_job(&job, false);
        fleet.record_job(&job, true);
        assert_eq!(fleet.jobs_completed, 2);
        assert_eq!(fleet.jobs_failed, 1);
        assert_eq!(fleet.rounds_total, 18);
        assert_eq!(fleet.ops.worker_macs, 21);
        assert_eq!(fleet.screened_workers, 6);
        assert!((fleet.jobs_per_second() - 1.0).abs() < 1e-12);
        assert!((fleet.rounds_per_second() - 9.0).abs() < 1e-12);
        assert!((fleet.pipeline_occupancy() - 0.5).abs() < 1e-12);
        assert!((fleet.mean_queue_wait_seconds() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn serving_metrics_empty_fleet_is_well_behaved() {
        let fleet = ServingMetrics::default();
        assert_eq!(fleet.jobs_per_second(), 0.0);
        assert_eq!(fleet.rounds_per_second(), 0.0);
        assert_eq!(fleet.pipeline_occupancy(), 0.0);
        assert_eq!(fleet.mean_queue_wait_seconds(), 0.0);
    }
}
