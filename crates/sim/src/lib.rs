//! Distributed-cluster substrate: workers, latency and straggler models,
//! Byzantine attack injection and per-iteration cost accounting.
//!
//! The paper evaluates AVCC on a 13-node DCOMP testbed (one master plus
//! `N = 12` Minnow workers). That hardware is not available here, so this
//! crate provides the substitute substrate of ARCHITECTURE.md's *The round
//! path* (its executor table): worker products are *actually executed* (real
//! finite-field arithmetic) and their completion times are then placed on a
//! virtual timeline modeled from their multiply–accumulate counts at
//! [`cluster::SECONDS_PER_MAC`] and a [`cluster::ClusterProfile`] —
//! per-worker speed factors, straggler slowdowns and a network model. What
//! the experiments depend on (the *order* in which results arrive at the
//! master and the *relative* cost of compute, communication, verification and
//! decoding) is therefore preserved while remaining reproducible bit for bit
//! and laptop-sized.
//!
//! * [`cluster`] — worker profiles, straggler injection and the network model.
//! * [`churn`] — deterministic, seeded fleet churn (crash / join / stall /
//!   corrupt / flap on the round clock) and the chaos-harness schedules.
//! * [`attack`] — the paper's Byzantine attack models (reverse-value and
//!   constant), applied to field-vector payloads.
//! * [`executor`] — the in-process execution engines, see the table below.
//! * [`socket`] — the TCP/UDS multi-process runtime behind the same
//!   [`executor::Executor`] trait (frames specified in `docs/WIRE_FORMAT.md`).
//! * [`metrics`] — per-iteration cost breakdown (compute / communication /
//!   verification / decoding), the quantity plotted in Fig. 4.
//!
//! # Executor selection
//!
//! There is one way to run a round: install a job's blocks, then
//! [`executor::Executor::execute_round`] — worker `i` multiplies its resident
//! block by the round's inputs, and the outcomes come back as
//! [`executor::WorkerOutcome`]s in arrival order — or the same round in split
//! phase ([`executor::Executor::submit_round`] → `poll_round` →
//! `retire_round`), for a master that stops waiting once it can decode. The
//! engines differ in what "time" means and on what the products run:
//!
//! | Engine | Products run on | Arrival time | Split-phase | Use when |
//! |---|---|---|---|---|
//! | [`executor::VirtualExecutor`] | the calling thread, serially | modeled: the product's MACs × `SECONDS_PER_MAC` × profile slowdown + modeled transfer of the result frame | provided default: the blocking round runs at submit | every experiment: deterministic orderings and costs, seconds of real time for a 50-iteration × 12-worker run |
//! | [`executor::ThreadedExecutor`] | one scoped thread per worker, concurrently | real elapsed time (straggler slowdowns realized as scaled-down sleeps) + modeled transfer | provided default | the examples: demonstrates the same master logic driving real concurrency |
//! | [`socket::SocketExecutor`] | worker threads or spawned `avcc-worker` processes, over TCP loopback or Unix domain sockets | real elapsed time; network time measured as arrival − compute, not modeled | real: a round can be retired while stragglers still compute (one task in flight per worker) | end-to-end protocol validation, wire-fault injection, the multi-process deployment shape |
//!
//! The threaded engine exists to exhibit real concurrency: each worker of a
//! round is a scoped thread of its own, as each is a machine of its own on
//! the paper's testbed, so a straggler's sleep delays nobody else.
//!
//! # Cost accounting
//!
//! Per-iteration costs are modeled seconds, not wall-clock, on one clock:
//! [`cluster::SECONDS_PER_MAC`]. Compute comes from the executor's timeline;
//! the master's verification and decoding are the round's
//! [`metrics::OpCounts`] at the same rate; communication and re-encoding come
//! from the [`cluster::NetworkModel`]. A run on the [`executor::VirtualExecutor`]
//! is therefore the same run on every host, and totals are plain sums. On the
//! real executors only worker compute and arrival times are measured; the
//! master's costs stay modeled.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod churn;
pub mod cluster;
pub mod executor;
pub mod metrics;
pub mod socket;
mod tickets;

/// The wire-format crate, re-exported so downstream crates address blocks,
/// frames and faults without a separate dependency edge.
pub use avcc_wire as wire;

pub use attack::{AttackModel, ByzantineSpec};
pub use churn::{
    ChaosSchedule, ChurnAction, ChurnEvent, ChurnEventKind, ChurnSchedule, ChurnState,
};
pub use cluster::{ClusterProfile, NetworkModel, WorkerProfile, SECONDS_PER_MAC};
pub use executor::{
    slowdown_sleep_seconds, Eviction, EvictionReason, Executor, ExecutorError, RawOutcome,
    RoundPoll, RoundTicket, ThreadedExecutor, VirtualExecutor, WorkerOutcome,
};
pub use metrics::{IterationCosts, JobMetrics, OpCounts, ServingMetrics};
pub use socket::{
    backoff_delay, SocketConfig, SocketExecutor, SocketMetrics, Transport, WorkerBackend,
};
