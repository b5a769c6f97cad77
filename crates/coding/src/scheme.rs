//! Coding-scheme configuration and the worker-count feasibility rules.
//!
//! A [`SchemeConfig`] is the tuple `(N, K, S, M, T, deg f)` from §III of the
//! paper. The two bounds it enforces are the heart of the AVCC-vs-LCC
//! comparison:
//!
//! * **LCC (eq. 1)**: `N ≥ (K + T − 1)·deg f + S + 2M + 1` — a Byzantine
//!   worker costs two extra workers because Reed–Solomon error correction
//!   needs two redundant evaluations per error.
//! * **AVCC (eq. 2)**: `N ≥ (K + T − 1)·deg f + S + M + 1` — a Byzantine
//!   worker costs one extra worker because its (verified-and-rejected) result
//!   is simply treated as an erasure.

/// Errors raised when a configuration is infeasible or inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemeError {
    /// The worker count is too small for the requested tolerances.
    Infeasible {
        /// Workers available.
        available: usize,
        /// Workers required by the bound.
        required: usize,
        /// Which bound was violated ("LCC" or "AVCC").
        bound: &'static str,
    },
    /// A structural inconsistency (e.g. `K = 0`).
    Invalid {
        /// Human-readable description.
        details: String,
    },
}

impl std::fmt::Display for SchemeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemeError::Infeasible {
                available,
                required,
                bound,
            } => write!(
                f,
                "infeasible {bound} configuration: {available} workers available, {required} required"
            ),
            SchemeError::Invalid { details } => write!(f, "invalid configuration: {details}"),
        }
    }
}

impl std::error::Error for SchemeError {}

/// The coding-scheme parameters `(N, K, S, M, T, deg f)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeConfig {
    /// Number of worker nodes `N`.
    pub workers: usize,
    /// Number of data partitions `K`.
    pub partitions: usize,
    /// Number of stragglers to tolerate, `S`.
    pub stragglers: usize,
    /// Number of Byzantine workers to tolerate, `M`.
    pub byzantine: usize,
    /// Number of colluding workers to protect against, `T`.
    pub colluding: usize,
    /// Degree of the computation polynomial `f` (1 for the linear
    /// matrix–vector rounds of logistic regression).
    pub degree: usize,
}

impl SchemeConfig {
    /// Creates a configuration, validating only structural sanity (positive
    /// `K`, positive degree, `N ≥ K`). Feasibility for a particular scheme is
    /// checked by [`SchemeConfig::require_lcc_feasible`] /
    /// [`SchemeConfig::require_avcc_feasible`].
    pub fn new(
        workers: usize,
        partitions: usize,
        stragglers: usize,
        byzantine: usize,
        colluding: usize,
        degree: usize,
    ) -> Result<Self, SchemeError> {
        if partitions == 0 {
            return Err(SchemeError::Invalid {
                details: "the number of partitions K must be positive".to_string(),
            });
        }
        if degree == 0 {
            return Err(SchemeError::Invalid {
                details: "the polynomial degree must be positive".to_string(),
            });
        }
        if workers < partitions {
            return Err(SchemeError::Invalid {
                details: format!("N = {workers} workers cannot hold K = {partitions} partitions"),
            });
        }
        Ok(SchemeConfig {
            workers,
            partitions,
            stragglers,
            byzantine,
            colluding,
            degree,
        })
    }

    /// Convenience constructor for the paper's linear, non-private setting
    /// (`T = 0`, `deg f = 1`): the `(N, K, S, M)` configuration used in §V.
    pub fn linear(
        workers: usize,
        partitions: usize,
        stragglers: usize,
        byzantine: usize,
    ) -> Result<Self, SchemeError> {
        Self::new(workers, partitions, stragglers, byzantine, 0, 1)
    }

    /// The recovery threshold shared by both schemes: the number of *correct*
    /// evaluations needed to interpolate `f(u(z))`, namely
    /// `(K + T − 1)·deg f + 1`.
    pub fn recovery_threshold(&self) -> usize {
        (self.partitions + self.colluding - 1) * self.degree + 1
    }

    /// Workers required by the LCC bound (eq. 1).
    pub fn lcc_required_workers(&self) -> usize {
        self.recovery_threshold() + self.stragglers + 2 * self.byzantine
    }

    /// Workers required by the AVCC bound (eq. 2).
    pub fn avcc_required_workers(&self) -> usize {
        self.recovery_threshold() + self.stragglers + self.byzantine
    }

    /// `true` iff the configuration satisfies the LCC bound.
    pub fn lcc_feasible(&self) -> bool {
        self.workers >= self.lcc_required_workers()
    }

    /// `true` iff the configuration satisfies the AVCC bound.
    pub fn avcc_feasible(&self) -> bool {
        self.workers >= self.avcc_required_workers()
    }

    /// Errors unless the LCC bound holds.
    pub fn require_lcc_feasible(&self) -> Result<(), SchemeError> {
        if self.lcc_feasible() {
            Ok(())
        } else {
            Err(SchemeError::Infeasible {
                available: self.workers,
                required: self.lcc_required_workers(),
                bound: "LCC",
            })
        }
    }

    /// Errors unless the AVCC bound holds.
    pub fn require_avcc_feasible(&self) -> Result<(), SchemeError> {
        if self.avcc_feasible() {
            Ok(())
        } else {
            Err(SchemeError::Infeasible {
                available: self.workers,
                required: self.avcc_required_workers(),
                bound: "AVCC",
            })
        }
    }

    /// The number of results the LCC master waits for before it can decode:
    /// `N − S` (it cannot start earlier because Byzantine workers are only
    /// identified during Reed–Solomon decoding).
    pub fn lcc_wait_count(&self) -> usize {
        self.workers - self.stragglers
    }

    /// The slack parameter `A_t` of the dynamic-coding controller (eq. 16/18):
    /// how many additional stragglers can be absorbed given the *observed*
    /// straggler and Byzantine counts of the current iteration.
    pub fn slack(&self, observed_stragglers: usize, observed_byzantine: usize) -> i64 {
        self.workers as i64
            - observed_byzantine as i64
            - observed_stragglers as i64
            - self.recovery_threshold() as i64
    }
}

impl std::fmt::Display for SchemeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "(N={}, K={}, S={}, M={}, T={}, deg={})",
            self.workers,
            self.partitions,
            self.stragglers,
            self.byzantine,
            self.colluding,
            self.degree
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_configuration_bounds() {
        // The paper's testbed: N = 12, K = 9.
        // LCC is designed for (S = 1, M = 1): 9 + 1 + 2 = 12 workers needed.
        let lcc = SchemeConfig::linear(12, 9, 1, 1).unwrap();
        assert_eq!(lcc.lcc_required_workers(), 12);
        assert!(lcc.lcc_feasible());

        // AVCC can afford (S = 1, M = 2) or (S = 2, M = 1) with the same 12.
        let avcc_a = SchemeConfig::linear(12, 9, 1, 2).unwrap();
        assert_eq!(avcc_a.avcc_required_workers(), 12);
        assert!(avcc_a.avcc_feasible());
        assert!(!avcc_a.lcc_feasible());

        let avcc_b = SchemeConfig::linear(12, 9, 2, 1).unwrap();
        assert!(avcc_b.avcc_feasible());
        assert!(!avcc_b.lcc_feasible());
    }

    #[test]
    fn byzantine_costs_twice_in_lcc_only() {
        let base = SchemeConfig::linear(20, 9, 1, 0).unwrap();
        let with_byzantine = SchemeConfig::linear(20, 9, 1, 2).unwrap();
        assert_eq!(
            with_byzantine.lcc_required_workers() - base.lcc_required_workers(),
            4
        );
        assert_eq!(
            with_byzantine.avcc_required_workers() - base.avcc_required_workers(),
            2
        );
    }

    #[test]
    fn recovery_threshold_matches_formula() {
        let config = SchemeConfig::new(30, 4, 2, 1, 3, 2).unwrap();
        assert_eq!(config.recovery_threshold(), (4 + 3 - 1) * 2 + 1);
    }

    #[test]
    fn linear_case_recovery_threshold_is_k() {
        let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
        assert_eq!(config.recovery_threshold(), 9);
    }

    #[test]
    fn lcc_wait_count_is_n_minus_s() {
        let config = SchemeConfig::linear(12, 9, 1, 1).unwrap();
        assert_eq!(config.lcc_wait_count(), 11);
    }

    #[test]
    fn infeasible_configurations_error_with_context() {
        let config = SchemeConfig::linear(10, 9, 1, 1).unwrap();
        let err = config.require_lcc_feasible().unwrap_err();
        assert!(matches!(err, SchemeError::Infeasible { bound: "LCC", .. }));
        assert!(err.to_string().contains("required"));
        // AVCC fits in 11 workers but not 10.
        assert!(config.require_avcc_feasible().is_err());
        let config = SchemeConfig::linear(11, 9, 1, 1).unwrap();
        assert!(config.require_avcc_feasible().is_ok());
    }

    #[test]
    fn invalid_structural_parameters_are_rejected() {
        assert!(SchemeConfig::linear(4, 0, 0, 0).is_err());
        assert!(SchemeConfig::new(4, 2, 0, 0, 0, 0).is_err());
        assert!(SchemeConfig::linear(3, 5, 0, 0).is_err());
    }

    #[test]
    fn slack_matches_eq_16() {
        // N=12, K=9, observed S_t=2, M_t=1, T=0: A_t = 12-1-2-9 = 0.
        let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
        assert_eq!(config.slack(2, 1), 0);
        // Three stragglers and one Byzantine: A_t = 12-1-3-9 = -1.
        assert_eq!(config.slack(3, 1), -1);
    }

    #[test]
    fn display_is_informative() {
        let config = SchemeConfig::linear(12, 9, 1, 2).unwrap();
        let rendered = format!("{config}");
        assert!(rendered.contains("N=12"));
        assert!(rendered.contains("M=2"));
    }

    proptest! {
        #[test]
        fn prop_avcc_never_needs_more_workers_than_lcc(
            partitions in 1usize..20,
            stragglers in 0usize..5,
            byzantine in 0usize..5,
            colluding in 0usize..4,
            degree in 1usize..3,
        ) {
            let workers = (partitions + colluding) * degree + stragglers + 2 * byzantine + 2;
            let config = SchemeConfig::new(
                workers, partitions, stragglers, byzantine, colluding, degree,
            ).unwrap();
            prop_assert!(config.avcc_required_workers() <= config.lcc_required_workers());
            // The gap is exactly M (eq. 1 minus eq. 2).
            prop_assert_eq!(
                config.lcc_required_workers() - config.avcc_required_workers(),
                byzantine
            );
        }
    }
}
