//! `avcc-e2e`: the end-to-end benchmark of this repository.
//!
//! Four workloads over a socket fleet of 12 `avcc-worker` processes, driven
//! through the product entry points (`train_distributed`,
//! `WireRunner::run_batch_round` + `AvccMatVec`, `serve_distributed`), every
//! output checked against an oracle, and a traced mode that breaks an
//! operation down by layer from the harness side. `E2E.md` beside this crate
//! defines every workload and metric and says why it is there.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod json;
pub mod probes;
pub mod run;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;
