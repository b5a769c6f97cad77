//! The shared worker fleet: a fixed number of worker slots.
//!
//! A [`Fleet`] models the cluster's worker machines for the serving layer the
//! way [`avcc_sim::executor::ThreadedExecutor`] models them for a single
//! round: each round task occupies one slot for its real compute time (plus a
//! straggler sleep, see [`avcc_sim::executor::slowdown_sleep_seconds`]). The
//! fleet is deliberately *narrower* than the job's worker count in
//! interesting configurations — that is what creates queueing, and what the
//! scheduler's cross-job pipelining then fills.

/// A fixed number of worker slots shared by every job the scheduler admits.
///
/// Each [`Scheduler::run`](crate::Scheduler::run) starts `width` slot threads
/// that take round tasks from one queue, so a fleet of width `w` computes at
/// most `w` tasks at once; the scheduler itself stays on the calling thread.
#[derive(Debug)]
pub struct Fleet {
    width: usize,
}

impl Fleet {
    /// Creates a fleet with `width` worker slots.
    ///
    /// # Panics
    /// Panics if `width` is zero — a fleet with no workers can never complete
    /// a round.
    pub fn new(width: usize) -> Self {
        assert!(width >= 1, "a fleet needs at least one worker slot");
        Fleet { width }
    }

    /// Number of worker slots (tasks that can compute simultaneously).
    pub fn width(&self) -> usize {
        self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_width_fleet_is_rejected() {
        let _ = Fleet::new(0);
    }
}
