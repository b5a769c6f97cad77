//! The pipelined multi-job serving layer: many jobs on one shared fleet.
//!
//! `avcc-core` steps one training run at a time
//! ([`avcc_core::TrainingRun::run_on`]), its master blocked through every
//! round. This crate turns many runs — and product batches — into a
//! *serving* system:
//!
//! * [`JobSpec`]s — full training runs, one-shot coded matrix–vector
//!   products, or multi-function matmul batches
//!   ([`JobSpec::MatMulBatch`]) that serve `m` inputs over **one** shared
//!   encoded dataset (one encode, one batched Freivalds pass, `m` decodes over the
//!   one Lagrange basis their collect prepares) — each admitted as one job;
//! * a [`Fleet`] — a fixed number of worker slots, one thread each while
//!   the scheduler runs, shared by every admitted job;
//! * a [`Scheduler`] — admission control and one thread per in-flight job,
//!   so that while one job's round computes on the fleet, another job
//!   verifies/decodes and a third encodes; and
//! * [`serve_distributed`] — the same jobs, one at a time, over a wire
//!   executor (the socket fleet).
//!
//! Both step a job through one loop, round after round until it finishes;
//! only the round differs (a fleet round, or
//! [`avcc_core::WireRunner::run_streaming_round`]).
//!
//! The pipelining win comes from exactly the waits the paper's schemes
//! expose: the uncoded baseline blocks on every straggler, LCC blocks on the
//! fastest `N − S`, and AVCC blocks on the verified threshold. In a
//! synchronous schedule ([`SchedulerConfig::synchronous`]) those waits leave
//! the fleet idle; with several jobs in flight other jobs' work fills them.
//! Results are unaffected: every job's final model is bit-identical to what
//! the synchronous driver produces, because the exact field decode
//! reconstructs the same product from *any* sufficient set of honest results
//! (see `tests/serving_equivalence.rs`).
//!
//! ```
//! use avcc_core::{ExperimentConfig, FaultScenario, SchemeKind};
//! use avcc_field::P25;
//! use avcc_ml::dataset::DatasetConfig;
//! use avcc_serve::{Fleet, JobSpec, Scheduler, SchedulerConfig};
//!
//! let mut config = ExperimentConfig::paper_avcc(2, 1, FaultScenario::none());
//! config.iterations = 2;
//! config.dataset = DatasetConfig {
//!     train_samples: 180,
//!     test_samples: 60,
//!     features: 27,
//!     informative: 9,
//!     ..DatasetConfig::default()
//! };
//!
//! let fleet = Fleet::new(2);
//! let mut scheduler = Scheduler::<P25>::new(SchedulerConfig::default());
//! let id = scheduler.submit(JobSpec::Training(config)).unwrap();
//! let report = scheduler.run(&fleet);
//! assert_eq!(report.metrics.jobs_completed, 1);
//! assert!(report.job(id).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distributed;
pub mod fleet;
pub mod job;
pub mod scheduler;

pub use distributed::serve_distributed;
pub use fleet::Fleet;
pub use job::{CompletedJob, JobId, JobOutput, JobSpec};
pub use scheduler::{AdmissionError, Scheduler, SchedulerConfig, ServingReport};
