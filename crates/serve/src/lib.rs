//! The pipelined multi-job serving layer: many jobs on one shared fleet.
//!
//! The training driver in `avcc-core` runs one job at a time and blocks the
//! master through every stage of every round. This crate turns the staged
//! pipeline API ([`avcc_core::DistributedTrainer::encode_round1`] and its
//! collect stages) into a *serving* system:
//!
//! * a [`Fleet`] — a fixed number of worker slots, one thread each while
//!   the scheduler runs, shared by every admitted job;
//! * [`JobSpec`]s — full training runs, one-shot coded matrix–vector
//!   products, or multi-function matmul batches built with
//!   [`JobSpec::matmul`] that serve `m` inputs over **one** shared encoded
//!   dataset (one encode, one batched Freivalds pass, `m` decodes over the
//!   one Lagrange basis each collect prepares) — submitted to a queue with admission
//!   control; and
//! * a [`Scheduler`] — the master loop that multiplexes worker slots across
//!   jobs and overlaps the stages of *different* jobs: while one job's round
//!   computes on the fleet, the scheduler verifies/decodes another job's
//!   finished round and encodes a third job's next round.
//!
//! The pipelining win comes from exactly the waits the paper's schemes
//! expose: the uncoded baseline blocks on every straggler, LCC blocks on the
//! fastest `N − S`, and AVCC blocks on the verified threshold. In a
//! synchronous schedule ([`SchedulerConfig::synchronous`]) those waits leave
//! the fleet idle; with several jobs in flight the scheduler fills them with
//! other jobs' work. Results are unaffected: every job's final model is
//! bit-identical to what the synchronous driver produces, because the exact
//! field decode reconstructs the same product from *any* sufficient set of
//! honest results (see `tests/serving_equivalence.rs`).
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
pub use job::{CompletedJob, JobId, JobOutput, JobSpec, MatMulJobBuilder};
pub use scheduler::{AdmissionError, Scheduler, SchedulerConfig, ServingReport};
