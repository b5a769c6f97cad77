//! # AVCC — Adaptive Verifiable Coded Computing
//!
//! A from-scratch Rust reproduction of *"Adaptive Verifiable Coded Computing:
//! Towards Fast, Secure and Private Distributed Machine Learning"*
//! (Tang et al., IPDPS 2022).
//!
//! AVCC runs distributed polynomial computations (the flagship workload is
//! logistic-regression training) on a cluster where some workers straggle,
//! some are Byzantine and some may collude to learn the data. It combines:
//!
//! * **coded computing** (MDS / Lagrange coding) for straggler tolerance and
//!   information-theoretic privacy,
//! * **verifiable computing** (Freivalds' algorithm) to detect Byzantine
//!   workers at a per-result cost of `O(m + d)` instead of doubling the coded
//!   redundancy, and
//! * **dynamic coding** that re-balances straggler vs Byzantine tolerance at
//!   run time.
//!
//! This meta-crate re-exports all sub-crates. See `ARCHITECTURE.md` (its
//! *Crate map*) for the system inventory, `EXPERIMENTS.md` for the paper-vs-measured comparison and the
//! `examples/` directory for runnable entry points.
//!
//! ## Quickstart
//!
//! ```
//! use avcc::core::{run_experiment, ExperimentConfig, FaultScenario, SchemeKind};
//! use avcc::field::P25;
//! use avcc::ml::dataset::DatasetConfig;
//! use avcc::sim::attack::AttackModel;
//!
//! // One Byzantine worker mounting the constant attack, one straggler.
//! let scenario = FaultScenario::paper(1, 1, AttackModel::constant());
//! let mut config = ExperimentConfig::paper_avcc(2, 1, scenario);
//! config.iterations = 5; // keep the doctest fast
//! config.dataset = DatasetConfig {
//!     train_samples: 180,
//!     test_samples: 60,
//!     features: 27,
//!     informative: 9,
//!     ..DatasetConfig::default()
//! };
//! let report = run_experiment::<P25>(&config).unwrap();
//! assert_eq!(report.scheme, SchemeKind::Avcc.label());
//!
//! // Whichever order the results arrive in, the liar never reaches the
//! // model: it trains bit for bit as with no liar at all, and anyone flagged
//! // is the liar.
//! let mut honest = config.clone();
//! honest.scenario.byzantine.clear();
//! let clean = run_experiment::<P25>(&honest).unwrap();
//! for (attacked, clean) in report.iterations.iter().zip(&clean.iterations) {
//!     assert_eq!(attacked.test_accuracy.to_bits(), clean.test_accuracy.to_bits());
//!     assert_eq!(attacked.train_loss.to_bits(), clean.train_loss.to_bits());
//!     assert!(attacked.detected_byzantine.iter().all(|w| config.scenario.byzantine.contains(w)));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Prime-field arithmetic, signed embedding and quantization.
pub use avcc_field as field;

/// Polynomials, Lagrange interpolation and dense linear solving.
pub use avcc_poly as poly;

/// Dense matrices and multi-threaded kernels.
pub use avcc_linalg as linalg;

/// MDS / Lagrange coded computing.
pub use avcc_coding as coding;

/// Freivalds verifiable computing.
pub use avcc_verify as verify;

/// The distributed-cluster substrate (latency, stragglers, attacks, costs).
pub use avcc_sim as sim;

/// The logistic-regression workload and quantized two-round protocol.
pub use avcc_ml as ml;

/// The AVCC framework: schemes, adaptive coding, training driver, reports.
pub use avcc_core as core;

/// The pipelined multi-job serving layer (fleet, scheduler, admission).
pub use avcc_serve as serve;
