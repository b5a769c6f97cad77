//! Cluster topology: per-worker execution profiles, straggler injection and
//! the network model.
//!
//! The paper's testbed exhibits stragglers whose latency is up to an order of
//! magnitude above the median (§I). We model each worker with a
//! [`WorkerProfile`]: a *speed factor* multiplying its modeled compute time
//! (1.0 = nominal, 10.0 = ten times slower) and an optional straggler flag
//! that applies an additional multiplier for the current iteration. A
//! nominal core spends [`SECONDS_PER_MAC`] per field multiply–accumulate. The
//! [`NetworkModel`] charges a base link latency plus a byte-proportional
//! transfer time for each result sent back to the master, mirroring the
//! 1 GbE interfaces of the Minnow nodes.

/// The execution profile of a single worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerProfile {
    /// Multiplier on the modeled compute time (1.0 = nominal speed).
    pub speed_factor: f64,
    /// Whether this worker is currently a straggler.
    pub straggler: bool,
    /// Extra multiplier applied when `straggler` is set.
    pub straggler_multiplier: f64,
}

impl Default for WorkerProfile {
    fn default() -> Self {
        WorkerProfile {
            speed_factor: 1.0,
            straggler: false,
            straggler_multiplier: 8.0,
        }
    }
}

impl WorkerProfile {
    /// The effective multiplier on compute time for this worker.
    pub fn effective_slowdown(&self) -> f64 {
        if self.straggler {
            self.speed_factor * self.straggler_multiplier
        } else {
            self.speed_factor
        }
    }
}

/// Modeled seconds one field multiply–accumulate takes on one nominal testbed
/// core: the one clock of every modeled timeline. Worker compute is a block's
/// `rows × cols × functions` MACs at this rate (times the worker's slowdown),
/// and the master's verification and decoding are their
/// [`OpCounts`](crate::metrics::OpCounts) at the same rate.
///
/// Calibrated to keep the paper-figure runs in the regime they had when
/// compute was measured wall-clock time × 2000: the median, over 14 runs of
/// the fault-free AVCC experiment of `fig4_breakdown` (900 × 63 dataset,
/// 12 600 worker MACs per iteration, 2-core x86-64 Linux host), of the
/// average per-iteration compute divided by the iteration's worker MACs.
/// The runs ranged from 5.1e-7 to 9.3e-7; see EXPERIMENTS.md.
pub const SECONDS_PER_MAC: f64 = 5.2e-7;

/// The network model: a fixed per-message latency plus a byte-proportional
/// transfer time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// One-way message latency in seconds.
    pub base_latency_seconds: f64,
    /// Link bandwidth in bytes per second.
    pub bytes_per_second: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        // 1 GbE with a 0.5 ms base latency, as on the DCOMP Minnow nodes.
        NetworkModel {
            base_latency_seconds: 5e-4,
            bytes_per_second: 125e6,
        }
    }
}

impl NetworkModel {
    /// Transfer time for a payload of `bytes` bytes.
    pub fn transfer_seconds(&self, bytes: usize) -> f64 {
        self.base_latency_seconds + bytes as f64 / self.bytes_per_second
    }
}

/// The full cluster profile: one [`WorkerProfile`] per worker plus the shared
/// [`NetworkModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterProfile {
    workers: Vec<WorkerProfile>,
    /// The shared network model.
    pub network: NetworkModel,
}

impl ClusterProfile {
    /// A homogeneous cluster of `workers` nominal-speed workers.
    pub fn uniform(workers: usize) -> Self {
        ClusterProfile {
            workers: vec![WorkerProfile::default(); workers],
            network: NetworkModel::default(),
        }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// `true` iff the cluster has no workers.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// The profile of worker `i`.
    pub fn worker(&self, i: usize) -> &WorkerProfile {
        &self.workers[i]
    }

    /// All worker profiles.
    pub fn workers(&self) -> &[WorkerProfile] {
        &self.workers
    }

    /// Marks exactly the given workers as stragglers (clearing any previous
    /// straggler flags) with the given latency multiplier.
    pub fn set_stragglers(&mut self, stragglers: &[usize], multiplier: f64) {
        for profile in &mut self.workers {
            profile.straggler = false;
        }
        for &index in stragglers {
            assert!(
                index < self.workers.len(),
                "straggler index {index} out of range"
            );
            self.workers[index].straggler = true;
            self.workers[index].straggler_multiplier = multiplier;
        }
    }

    /// Returns a copy with the given stragglers set.
    pub fn with_stragglers(mut self, stragglers: &[usize], multiplier: f64) -> Self {
        self.set_stragglers(stragglers, multiplier);
        self
    }

    /// Indices of the workers currently flagged as stragglers.
    pub fn straggler_indices(&self) -> Vec<usize> {
        self.workers
            .iter()
            .enumerate()
            .filter(|(_, p)| p.straggler)
            .map(|(i, _)| i)
            .collect()
    }

    /// Restricts the profile to the first `count` workers — used by the
    /// dynamic-coding controller when it drops detected Byzantine workers and
    /// shrinks the cluster from `N_t` to `N_{t+1}` (eq. 17/19).
    pub fn truncated(&self, count: usize) -> Self {
        assert!(
            count <= self.workers.len(),
            "cannot grow the cluster by truncation"
        );
        ClusterProfile {
            workers: self.workers[..count].to_vec(),
            network: self.network,
        }
    }

    /// Removes the given workers entirely (dropping detected Byzantine nodes),
    /// preserving the order of the remaining workers.
    pub fn without_workers(&self, removed: &[usize]) -> Self {
        ClusterProfile {
            workers: self
                .workers
                .iter()
                .enumerate()
                .filter(|(i, _)| !removed.contains(i))
                .map(|(_, p)| *p)
                .collect(),
            network: self.network,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_cluster_has_nominal_workers() {
        let cluster = ClusterProfile::uniform(12);
        assert_eq!(cluster.len(), 12);
        assert!(!cluster.is_empty());
        assert!(cluster
            .workers()
            .iter()
            .all(|w| w.effective_slowdown() == 1.0));
        assert!(cluster.straggler_indices().is_empty());
    }

    #[test]
    fn straggler_flag_multiplies_slowdown() {
        let mut cluster = ClusterProfile::uniform(4);
        cluster.set_stragglers(&[1, 3], 10.0);
        assert_eq!(cluster.straggler_indices(), vec![1, 3]);
        assert_eq!(cluster.worker(1).effective_slowdown(), 10.0);
        assert_eq!(cluster.worker(0).effective_slowdown(), 1.0);
        // Re-setting clears previous flags.
        cluster.set_stragglers(&[0], 5.0);
        assert_eq!(cluster.straggler_indices(), vec![0]);
    }

    #[test]
    fn with_stragglers_builder_matches_setter() {
        let a = ClusterProfile::uniform(6).with_stragglers(&[2], 7.0);
        let mut b = ClusterProfile::uniform(6);
        b.set_stragglers(&[2], 7.0);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_straggler_panics() {
        let mut cluster = ClusterProfile::uniform(3);
        cluster.set_stragglers(&[5], 2.0);
    }

    #[test]
    fn network_transfer_grows_with_bytes() {
        let network = NetworkModel::default();
        let small = network.transfer_seconds(1_000);
        let large = network.transfer_seconds(10_000_000);
        assert!(large > small);
        assert!((network.transfer_seconds(0) - network.base_latency_seconds).abs() < 1e-12);
    }

    #[test]
    fn truncation_and_removal_shrink_the_cluster() {
        let cluster = ClusterProfile::uniform(12).with_stragglers(&[11], 4.0);
        let truncated = cluster.truncated(11);
        assert_eq!(truncated.len(), 11);
        assert!(truncated.straggler_indices().is_empty());
        let removed = cluster.without_workers(&[0, 5]);
        assert_eq!(removed.len(), 10);
    }

    #[test]
    #[should_panic(expected = "cannot grow")]
    fn truncation_cannot_grow() {
        let _ = ClusterProfile::uniform(3).truncated(4);
    }
}
