//! The AVCC framework: execution strategies, adaptive dynamic coding and the
//! distributed training driver.
//!
//! This crate is the paper's primary contribution assembled from the
//! substrates: it glues the coding layer (`avcc-coding`), the verification
//! layer (`avcc-verify`), the cluster simulator (`avcc-sim`) and the ML
//! workload (`avcc-ml`) into the four schemes the paper evaluates:
//!
//! | Scheme | Straggler handling | Byzantine handling | Privacy |
//! |---|---|---|---|
//! | `Uncoded` | none (waits for every worker) | none (corruption flows into the model) | none |
//! | `Lcc` | MDS/Lagrange coding, waits for `N−S` results | Reed–Solomon error decoding (costs `2M` workers) | Lagrange pads |
//! | `Avcc` | MDS/Lagrange coding, decodes from the fastest verified results | per-result Freivalds verification (costs `M` workers) + dynamic re-coding | Lagrange pads |
//! | `StaticVcc` | as AVCC | as AVCC but without dynamic re-coding | Lagrange pads |
//!
//! The top-level entry point is [`experiment::run_experiment`], which builds a
//! [`driver::DistributedTrainer`] for a requested
//! [`experiment::ExperimentConfig`] and returns a [`report::TrainingReport`]
//! with per-iteration cost breakdowns, accuracy trajectories and detected
//! Byzantine workers — everything needed to regenerate the paper's Figures 3–5
//! and Table I.
//!
//! # What each scheme waits for (and pays)
//!
//! The schemes differ most concretely in their per-round *stopping rule*
//! and in which master-side costs they incur. With `N` workers, `K` data
//! blocks, `S` stragglers and `M` Byzantine workers tolerated, and `T`
//! privacy pads (every round is a linear map, so the paper's `deg f` is 1):
//!
//! | Scheme | Feasibility bound | Waits for | Master-side overhead |
//! |---|---|---|---|
//! | `Uncoded` | `N ≥ K` | **all** `N` results (stragglers included) | reassembly only |
//! | `Lcc` | `N ≥ K + T + S + 2M` (eq. 1) | the fastest `N − S` | Reed–Solomon error decoding: the dual-codeword screen locates Byzantine results, the rest are erasure-decoded |
//! | `Avcc` / `StaticVcc` | `N ≥ K + T + S + M` (eq. 2) | the fastest `K + T` **verified** results | per-result Freivalds check + erasure-only interpolation |
//!
//! The paper's headline trade is visible in the bounds: verification lets
//! AVCC spend `M` workers on Byzantine tolerance where LCC spends `2M`,
//! and arrival-order verification lets it decode as soon as enough *good*
//! results exist instead of waiting out a fixed straggler budget.
//!
//! All three are one engine, [`engines::CodedMatVec`]: a session over one
//! shared encoded dataset whose check — none, error decoding, or Freivalds —
//! is the only per-scheme part. It picks the stopping rule above, the
//! survivor set the round decodes from, and the master's op counts; the
//! rest of a round's collect (dropping malformed arrivals, straggler
//! detection, assembling the products, the cost model) is shared.
//!
//! # Adaptivity
//!
//! What separates `Avcc` from `StaticVcc` is [`adaptive`]: a controller
//! watches per-round straggler pressure and verification failures, evicts
//! workers detected Byzantine, and re-encodes to a smaller `(N, K)` when
//! the remaining cluster can no longer satisfy the bound — paying a
//! one-time re-distribution cost (charged to the timeline) instead of a
//! recurring straggler tail. [`experiment::run_dynamic_coding_scenario`]
//! reproduces Fig. 5's burst scenario.
//!
//! # Reporting
//!
//! [`report::TrainingReport`] aggregates modeled-seconds cost breakdowns
//! per iteration ([`report::IterationRecord`]): worker compute from the
//! executor's timeline, verification and decoding from the round's
//! [`avcc_sim::OpCounts`] at [`avcc_sim::SECONDS_PER_MAC`]. On a
//! `VirtualExecutor` (what `train()` runs on) every run is the same run, so
//! totals are plain sums and `report::speedup` compares times to a target
//! accuracy (the paper's Table I metric) directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod distributed;
pub mod driver;
pub mod engines;
pub mod experiment;
pub mod problem;
pub mod report;
pub mod rounds;

pub use adaptive::{adapt, AdaptationDecision};
pub use distributed::{train_distributed, DistributedError, WireRunner};
pub use driver::{
    DistributedTrainer, SchemeKind, Stall, TrainerConfig, TrainingRound, TrainingRun,
};
pub use engines::{AvccMatVec, CodedMatVec, MatVecEngine};
pub use experiment::{
    run_dynamic_coding_scenario, run_experiment, ExperimentConfig, FaultScenario,
};
pub use problem::TrainingProblem;
pub use report::{IterationRecord, TrainingReport};
pub use rounds::{BatchExecution, BatchRoundTask, SchemeFailure};
