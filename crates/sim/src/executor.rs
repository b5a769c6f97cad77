//! Execution engines that place worker results on a timeline.
//!
//! Every engine implements the one round interface, [`Executor`]: install a
//! job's blocks once, then [`Executor::execute_round`] per round. Two
//! in-process engines live here (the socket runtime is `crate::socket`):
//!
//! * [`VirtualExecutor`] — the engine every experiment uses. Each worker's
//!   block product is executed for real (so the payload is a genuine
//!   finite-field result), but its cost is *modeled*: the product's
//!   multiply–accumulates at [`SECONDS_PER_MAC`], times the worker's
//!   slowdown, plus a modeled network transfer. Nothing sleeps and nothing
//!   reads a clock, so a round's timeline depends only on the block shapes
//!   and the profile: uniform workers tie exactly (and arrive in worker
//!   order), a straggler is late by construction, and every run of an
//!   experiment is the same run.
//! * [`ThreadedExecutor`] — every worker's product runs on a scoped thread
//!   of its own, as a worker machine would, and reports back over an mpsc
//!   channel; stragglers really do finish later, and compute is measured.

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use avcc_wire::{Block, TypedBlock, WireError, HEADER_LEN, TRAILER_LEN};

use crate::churn::{ChurnEvent, ChurnSchedule, ChurnState};
use crate::cluster::{ClusterProfile, SECONDS_PER_MAC};

/// The result of one worker's participation in a round.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerOutcome<T> {
    /// The worker index.
    pub worker: usize,
    /// The (possibly corrupted) payload the worker sent back.
    pub payload: T,
    /// Simulated compute time in seconds.
    pub compute_seconds: f64,
    /// Simulated network time in seconds.
    pub network_seconds: f64,
    /// Simulated arrival time at the master. All workers start at time
    /// zero; for the [`VirtualExecutor`] this is exactly
    /// `compute + network`, while for the [`ThreadedExecutor`] it is the
    /// real send instant plus network time — which also includes the
    /// worker thread's start-up, so `arrival ≥ compute + network`.
    pub arrival_seconds: f64,
    /// `true` iff the payload was modified by a Byzantine attack.
    pub corrupted: bool,
}

impl<T> WorkerOutcome<T> {
    /// The same outcome carrying `f(payload)` — how the round path moves
    /// between wire (`u64`), typed and single-function payload shapes
    /// without touching the timeline.
    pub fn map_payload<U>(self, f: impl FnOnce(T) -> U) -> WorkerOutcome<U> {
        WorkerOutcome {
            worker: self.worker,
            payload: f(self.payload),
            compute_seconds: self.compute_seconds,
            network_seconds: self.network_seconds,
            arrival_seconds: self.arrival_seconds,
            corrupted: self.corrupted,
        }
    }
}

/// Why an executor dropped a worker from a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionReason {
    /// The worker's frame failed its CRC-32C check (or had bad magic) —
    /// evidence of corruption, counted like a Byzantine worker.
    CorruptFrame,
    /// The worker spoke an unsupported protocol version.
    VersionMismatch,
    /// The connection died (EOF, reset, or a truncated frame followed by
    /// hang-up).
    Disconnected,
    /// The worker sent nothing before the round deadline — a straggler
    /// beyond the tolerated horizon.
    TimedOut,
    /// The worker answered with an `ERROR` frame or otherwise violated the
    /// protocol state machine.
    Protocol,
}

/// One worker dropped from one round. Missing outcomes are exactly what the
/// engines' straggler machinery already tolerates; the reason is what the
/// master's metrics record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The worker index.
    pub worker: usize,
    /// The round serial the eviction happened in.
    pub round: u64,
    /// Why.
    pub reason: EvictionReason,
}

/// A failure of the execution substrate itself (as opposed to a per-worker
/// fault, which surfaces as a missing outcome plus an [`Eviction`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ExecutorError {
    /// `execute_round` was called for a job with no installed blocks.
    UnknownJob {
        /// The offending job id.
        job: u64,
    },
    /// More per-worker inputs (or blocks) than the executor has workers.
    TooManyTasks {
        /// Inputs supplied.
        tasks: usize,
        /// Workers available.
        workers: usize,
    },
    /// A block failed wire-level validation at install time.
    BadBlock {
        /// Index of the offending block.
        worker: usize,
        /// The wire-level failure.
        error: WireError,
    },
    /// The runtime could not launch or connect its workers.
    Spawn {
        /// Human-readable description.
        context: String,
    },
}

impl std::fmt::Display for ExecutorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownJob { job } => write!(f, "no blocks installed for job {job}"),
            Self::TooManyTasks { tasks, workers } => {
                write!(f, "{tasks} per-worker inputs but only {workers} workers")
            }
            Self::BadBlock { worker, error } => {
                write!(f, "block for worker {worker} rejected: {error}")
            }
            Self::Spawn { context } => write!(f, "failed to launch workers: {context}"),
        }
    }
}

impl std::error::Error for ExecutorError {}

/// One worker's modulus-erased result: one `u64` vector per function.
pub type RawOutcome = WorkerOutcome<Vec<Vec<u64>>>;

/// A submitted round: what [`Executor::submit_round`] hands out and
/// [`Executor::poll_round`] / [`Executor::retire_round`] take back. Opaque —
/// only the executor that issued a ticket can interpret it.
#[derive(Debug)]
pub struct RoundTicket {
    /// Executor-private serial of the round.
    pub(crate) id: u64,
    /// The provided split-phase methods park a blocking round's outcomes
    /// here until the first poll; a real split-phase executor leaves it empty.
    settled: Vec<RawOutcome>,
}

impl RoundTicket {
    /// A ticket for a round still in flight under the issuer's serial `id`.
    pub(crate) fn live(id: u64) -> Self {
        RoundTicket {
            id,
            settled: Vec::new(),
        }
    }
}

/// What one [`Executor::poll_round`] saw.
#[derive(Debug)]
pub struct RoundPoll {
    /// Results that arrived since the previous poll, in arrival order.
    pub arrivals: Vec<RawOutcome>,
    /// Workers the round is still waiting for (ascending). Empty means the
    /// round is complete: every dispatched worker answered or was evicted.
    pub pending: Vec<usize>,
    /// Seconds since the round was submitted, on the clock its outcomes'
    /// `arrival_seconds` are measured on — so "is worker `w` late yet?" is a
    /// comparison on one clock. Meaningless (0) once nothing is pending.
    pub elapsed_seconds: f64,
}

/// The object-safe execution interface every master-side driver can run on:
/// in-process virtual timelines, in-process real threads, or real sockets to
/// real worker processes — same trait, bit-identical payloads.
///
/// The data model is deliberately modulus-erased (`u64` canonical residues)
/// and closure-free, because a closure cannot cross a process boundary:
///
/// * [`install_blocks`](Executor::install_blocks) ships each worker its coded
///   matrix block **once per job** — the paper's real-system economics, where
///   the encoded dataset is distributed ahead of time and rounds only move
///   inputs and outputs.
/// * [`execute_round`](Executor::execute_round) sends worker `i` the round's
///   `inputs[i]` (one vector per function) and returns the outcomes that
///   made it back, in arrival order. A worker with no outcome is a straggler
///   or was evicted — exactly the shape the decode layer already handles.
/// * [`submit_round`](Executor::submit_round) →
///   [`poll_round`](Executor::poll_round) →
///   [`retire_round`](Executor::retire_round) is the same round in split
///   phase, for a master that stops waiting once it can decode (the paper's
///   §IV-B: decode from the fastest verified results, never wait for a
///   straggler). They are *provided*: the defaults run the blocking
///   `execute_round` at submit and hand its outcomes back on the first poll,
///   so an executor that implements only `execute_round` behaves exactly as
///   it always did. `SocketExecutor` implements them for real.
/// * Byzantine corruption is applied by the *master* on arrival (as the
///   scheduler's `deliver` does), never by this trait: a real network cannot
///   be asked to corrupt payloads on cue.
pub trait Executor {
    /// Fleet width.
    fn workers(&self) -> usize;

    /// The cluster profile (straggler slowdowns, network model).
    fn profile(&self) -> &ClusterProfile;

    /// Installs `blocks[i]` as worker `i`'s resident block for `job`,
    /// replacing any previous block for that job. `blocks.len()` may be less
    /// than the fleet width (a job may use a sub-fleet after adaptation).
    fn install_blocks(&mut self, job: u64, blocks: &[Block]) -> Result<(), ExecutorError>;

    /// Runs one round of `job`: worker `i` multiplies its resident block by
    /// each vector in `inputs[i]`. Returns outcomes in arrival order;
    /// workers that failed mid-round are simply absent (see
    /// [`round_evictions`](Executor::round_evictions)).
    fn execute_round(
        &mut self,
        job: u64,
        round: u64,
        inputs: &[Vec<Vec<u64>>],
    ) -> Result<Vec<WorkerOutcome<Vec<Vec<u64>>>>, ExecutorError>;

    /// Starts a round — the same dispatch as
    /// [`execute_round`](Executor::execute_round) — without waiting for it.
    /// The provided version runs the whole blocking round.
    fn submit_round(
        &mut self,
        job: u64,
        round: u64,
        inputs: &[Vec<Vec<u64>>],
    ) -> Result<RoundTicket, ExecutorError> {
        Ok(RoundTicket {
            id: 0,
            settled: self.execute_round(job, round, inputs)?,
        })
    }

    /// Results of `ticket`'s round that arrived since the previous poll, and
    /// who is still awaited. Returns as soon as there is at least one new
    /// arrival or nothing is pending; otherwise blocks for up to `wait`
    /// (`None`: until one of the two happens — every in-flight task has its
    /// own deadline, so that is bounded). The provided version returns the
    /// whole blocking round on the first poll.
    fn poll_round(&mut self, ticket: &mut RoundTicket, wait: Option<Duration>) -> RoundPoll {
        let _ = wait;
        RoundPoll {
            arrivals: std::mem::take(&mut ticket.settled),
            pending: Vec::new(),
            elapsed_seconds: 0.0,
        }
    }

    /// Ends `ticket`'s round: results still outstanding are no longer
    /// wanted and will be discarded when (if) they arrive. Every submitted
    /// ticket must be retired.
    fn retire_round(&mut self, ticket: RoundTicket) {
        drop(ticket);
    }

    /// The workers evicted since the most recent
    /// [`execute_round`](Executor::execute_round) /
    /// [`submit_round`](Executor::submit_round) call began, with reasons.
    fn round_evictions(&self) -> &[Eviction] {
        &[]
    }

    /// Typed churn records accumulated so far, in firing order. Empty unless
    /// a [`ChurnSchedule`] was installed on the executor
    /// (`set_churn` on the concrete engines); the schedule clock is the
    /// `round` argument of [`execute_round`](Executor::execute_round), never
    /// wall time.
    fn churn_events(&self) -> &[ChurnEvent] {
        &[]
    }

    /// Number of workers currently serving rounds: fleet width minus workers
    /// the churn schedule holds down right now.
    fn live_workers(&self) -> usize {
        self.workers()
    }
}

/// Makes a payload detectably corrupt: the first element of the first
/// non-empty part is set to `u64::MAX`, which is non-canonical for every
/// supported modulus, so the wire lift drops the worker from the round.
/// Deterministic and scheme-independent — exactly the corruption shape the
/// chaos harness's corrupt-then-rejoin schedules need.
fn clobber(payload: &mut [Vec<u64>]) {
    if let Some(part) = payload.iter_mut().find(|part| !part.is_empty()) {
        part[0] = u64::MAX;
    }
}

/// Types a job's wire blocks for a fleet of `workers`, validating each
/// against its modulus.
fn type_blocks(workers: usize, blocks: &[Block]) -> Result<Vec<TypedBlock>, ExecutorError> {
    if blocks.len() > workers {
        return Err(ExecutorError::TooManyTasks {
            tasks: blocks.len(),
            workers,
        });
    }
    blocks
        .iter()
        .enumerate()
        .map(|(worker, block)| {
            TypedBlock::from_block(block).map_err(|error| ExecutorError::BadBlock { worker, error })
        })
        .collect()
}

/// The start of every in-process round: one tick of the churn clock, then the
/// job's resident blocks, which must cover all `tasks` inputs.
fn begin_round<'a>(
    churn: &mut Option<ChurnState>,
    resident: &'a HashMap<u64, Vec<TypedBlock>>,
    job: u64,
    round: u64,
    tasks: usize,
) -> Result<&'a [TypedBlock], ExecutorError> {
    if let Some(churn) = churn {
        churn.advance_to(round);
    }
    let blocks = resident
        .get(&job)
        .ok_or(ExecutorError::UnknownJob { job })?;
    if tasks > blocks.len() {
        return Err(ExecutorError::TooManyTasks {
            tasks,
            workers: blocks.len(),
        });
    }
    Ok(blocks)
}

/// Modeled size of a worker's result: a `TASK_RESULT`-shaped frame carrying
/// `functions` vectors of `output_len` elements. The model stands for the
/// paper's testbed, not for this repository's wire: like
/// `avcc_core::rounds::field_vector_bytes` it charges 8 bytes per element,
/// where the socket runtime sends a 25-bit residue in 4, so that modeled
/// timelines do not move with the wire format.
fn result_frame_bytes(functions: usize, output_len: usize) -> usize {
    HEADER_LEN + 20 + functions * output_len * 8 + TRAILER_LEN
}

/// Modeled transfer time of a worker's result ([`result_frame_bytes`]).
fn result_transfer_seconds(profile: &ClusterProfile, payload: &[Vec<u64>]) -> f64 {
    let frame_bytes = result_frame_bytes(payload.len(), payload.first().map_or(0, Vec::len));
    profile.network.transfer_seconds(frame_bytes)
}

/// The virtual-timeline executor.
#[derive(Debug, Clone)]
pub struct VirtualExecutor {
    profile: ClusterProfile,
    /// Per-job resident blocks.
    blocks: HashMap<u64, Vec<TypedBlock>>,
    /// Scripted fleet churn, consumed on the round clock (`None` = quiet).
    churn: Option<ChurnState>,
}

impl VirtualExecutor {
    /// Creates an executor over the given cluster profile.
    pub fn new(profile: ClusterProfile) -> Self {
        VirtualExecutor {
            profile,
            blocks: HashMap::new(),
            churn: None,
        }
    }

    /// Installs a churn schedule, consumed against the round indices passed
    /// to [`Executor::execute_round`]. Replaces any previous schedule and
    /// resets its state.
    pub fn set_churn(&mut self, schedule: ChurnSchedule) {
        self.churn = Some(ChurnState::new(schedule, self.profile.len()));
    }

    /// The churn state, if a schedule is installed.
    pub fn churn(&self) -> Option<&ChurnState> {
        self.churn.as_ref()
    }

    /// The cluster profile.
    pub fn profile(&self) -> &ClusterProfile {
        &self.profile
    }

    /// Replaces the cluster profile (the trainer re-profiles its executor
    /// when stragglers move or the dynamic-coding controller drops workers).
    pub fn set_profile(&mut self, profile: ClusterProfile) {
        self.profile = profile;
    }
}

/// Real seconds of sleep charged to a worker with the given effective
/// slowdown, at `per_unit` seconds per slowdown unit above 1.0. This is how
/// both the [`ThreadedExecutor`] and the `avcc-serve` fleet realize a
/// profile's stragglers on live threads: a nominal worker (slowdown 1.0)
/// sleeps nothing, a 6× straggler sleeps `5 × per_unit`.
pub fn slowdown_sleep_seconds(slowdown: f64, per_unit: f64) -> f64 {
    (slowdown - 1.0).max(0.0) * per_unit
}

/// A real-concurrency executor: every worker runs on a scoped thread of its
/// own, borrowing its resident block, and sends its result back over a
/// channel. Straggler slowdowns are realized as actual (scaled-down) sleeps,
/// so the arrival order matches the profile on any host: a straggler delays
/// only itself. Per-worker `compute_seconds` is measured from the moment the
/// worker's thread starts its product, not from the start of the round.
#[derive(Debug, Clone)]
pub struct ThreadedExecutor {
    profile: ClusterProfile,
    /// Seconds of real sleep charged per unit of effective slowdown above 1.0
    /// (kept small so examples finish quickly).
    pub sleep_per_slowdown_unit: f64,
    /// Per-job resident blocks.
    blocks: HashMap<u64, Vec<TypedBlock>>,
    /// Scripted fleet churn, consumed on the round clock (`None` = quiet).
    churn: Option<ChurnState>,
}

impl ThreadedExecutor {
    /// Creates a threaded executor over the given profile.
    pub fn new(profile: ClusterProfile) -> Self {
        ThreadedExecutor {
            profile,
            sleep_per_slowdown_unit: 0.01,
            blocks: HashMap::new(),
            churn: None,
        }
    }

    /// The cluster profile.
    pub fn profile(&self) -> &ClusterProfile {
        &self.profile
    }

    /// Installs a churn schedule, consumed against the round indices passed
    /// to [`Executor::execute_round`]. Replaces any previous schedule and
    /// resets its state.
    pub fn set_churn(&mut self, schedule: ChurnSchedule) {
        self.churn = Some(ChurnState::new(schedule, self.profile.len()));
    }

    /// The churn state, if a schedule is installed.
    pub fn churn(&self) -> Option<&ChurnState> {
        self.churn.as_ref()
    }
}

impl Executor for VirtualExecutor {
    fn workers(&self) -> usize {
        self.profile.len()
    }

    fn profile(&self) -> &ClusterProfile {
        &self.profile
    }

    fn install_blocks(&mut self, job: u64, blocks: &[Block]) -> Result<(), ExecutorError> {
        let typed = type_blocks(self.profile.len(), blocks)?;
        self.blocks.insert(job, typed);
        Ok(())
    }

    fn execute_round(
        &mut self,
        job: u64,
        round: u64,
        inputs: &[Vec<Vec<u64>>],
    ) -> Result<Vec<WorkerOutcome<Vec<Vec<u64>>>>, ExecutorError> {
        let blocks = begin_round(&mut self.churn, &self.blocks, job, round, inputs.len())?;
        let churn = self.churn.as_ref();
        let mut outcomes: Vec<WorkerOutcome<Vec<Vec<u64>>>> = Vec::with_capacity(inputs.len());
        for (worker, worker_inputs) in inputs.iter().enumerate() {
            if churn.is_some_and(|c| c.is_down(worker)) {
                // A downed worker simply contributes no outcome — the same
                // shape as a straggler beyond the horizon.
                continue;
            }
            let block = &blocks[worker];
            let mut payload = block
                .execute(worker_inputs)
                .map_err(|error| ExecutorError::BadBlock { worker, error })?;
            if churn.is_some_and(|c| c.is_corrupting(worker)) {
                clobber(&mut payload);
            }
            let macs = block.rows() * block.cols() * worker_inputs.len();
            let stall = churn.map_or(1.0, |c| c.slowdown_multiplier(worker));
            let compute_seconds = macs as f64
                * SECONDS_PER_MAC
                * self.profile.worker(worker).effective_slowdown()
                * stall;
            let network_seconds = result_transfer_seconds(&self.profile, &payload);
            outcomes.push(WorkerOutcome {
                worker,
                arrival_seconds: compute_seconds + network_seconds,
                compute_seconds,
                network_seconds,
                payload,
                corrupted: false,
            });
        }
        // Stable: workers that tie arrive in worker order.
        outcomes.sort_by(|a, b| a.arrival_seconds.total_cmp(&b.arrival_seconds));
        Ok(outcomes)
    }

    fn churn_events(&self) -> &[ChurnEvent] {
        self.churn.as_ref().map_or(&[], ChurnState::events)
    }

    fn live_workers(&self) -> usize {
        self.churn
            .as_ref()
            .map_or(self.profile.len(), ChurnState::live_count)
    }
}

impl Executor for ThreadedExecutor {
    fn workers(&self) -> usize {
        self.profile.len()
    }

    fn profile(&self) -> &ClusterProfile {
        &self.profile
    }

    fn install_blocks(&mut self, job: u64, blocks: &[Block]) -> Result<(), ExecutorError> {
        let typed = type_blocks(self.profile.len(), blocks)?;
        self.blocks.insert(job, typed);
        Ok(())
    }

    fn execute_round(
        &mut self,
        job: u64,
        round: u64,
        inputs: &[Vec<Vec<u64>>],
    ) -> Result<Vec<WorkerOutcome<Vec<Vec<u64>>>>, ExecutorError> {
        let blocks = begin_round(&mut self.churn, &self.blocks, job, round, inputs.len())?;
        let churn = self.churn.as_ref();
        let corrupting: Vec<bool> = (0..inputs.len())
            .map(|w| churn.is_some_and(|c| c.is_corrupting(w)))
            .collect();
        let (sender, receiver) = mpsc::channel();
        let round_start = Instant::now();
        std::thread::scope(|scope| {
            for (worker, worker_inputs) in inputs.iter().enumerate() {
                if churn.is_some_and(|c| c.is_down(worker)) {
                    // Down per the schedule: no thread, no outcome.
                    continue;
                }
                let sender = sender.clone();
                let block = &blocks[worker];
                let slowdown = self.profile.worker(worker).effective_slowdown()
                    * churn.map_or(1.0, |c| c.slowdown_multiplier(worker));
                let extra_sleep = slowdown_sleep_seconds(slowdown, self.sleep_per_slowdown_unit);
                scope.spawn(move || {
                    let task_start = Instant::now();
                    let payload = block.execute(worker_inputs);
                    if extra_sleep > 0.0 {
                        std::thread::sleep(std::time::Duration::from_secs_f64(extra_sleep));
                    }
                    let compute = task_start.elapsed().as_secs_f64();
                    let sent_at = round_start.elapsed().as_secs_f64();
                    let _ = sender.send((worker, payload, compute, sent_at));
                });
            }
        });
        drop(sender);
        let mut outcomes = Vec::with_capacity(inputs.len());
        for (worker, payload, compute_seconds, sent_at) in receiver.iter() {
            let mut payload = payload.map_err(|error| ExecutorError::BadBlock { worker, error })?;
            if corrupting[worker] {
                clobber(&mut payload);
            }
            let network_seconds = result_transfer_seconds(&self.profile, &payload);
            outcomes.push(WorkerOutcome {
                worker,
                compute_seconds,
                network_seconds,
                arrival_seconds: sent_at + network_seconds,
                payload,
                corrupted: false,
            });
        }
        Ok(outcomes)
    }

    fn churn_events(&self) -> &[ChurnEvent] {
        self.churn.as_ref().map_or(&[], ChurnState::events)
    }

    fn live_workers(&self) -> usize {
        self.churn
            .as_ref()
            .map_or(self.profile.len(), ChurnState::live_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avcc_field::{PrimeModulus, P25};
    use rand::SeedableRng;

    /// `workers` random `rows × cols` blocks over the 25-bit field plus one
    /// shared input per worker.
    fn round(workers: usize, rows: usize, cols: usize) -> (Vec<Block>, Vec<Vec<Vec<u64>>>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut residues = |count: usize| -> Vec<u64> {
            avcc_field::random_vector::<P25, _>(&mut rng, count)
                .into_iter()
                .map(avcc_field::PrimeField::to_u64)
                .collect()
        };
        let blocks = (0..workers)
            .map(|_| Block {
                modulus: P25::MODULUS,
                rows: rows as u32,
                cols: cols as u32,
                elements: residues(rows * cols),
            })
            .collect();
        let input = residues(cols);
        (blocks, vec![vec![input]; workers])
    }

    #[test]
    fn the_modeled_result_frame_keeps_8_byte_elements() {
        // The socket runtime sends these 25-bit residues in 4 bytes each;
        // the model charges 8, so modeled timelines stay where they were.
        let result = avcc_wire::TaskResult {
            worker: 0,
            compute_seconds: 0.0,
            outputs: vec![vec![P25::MODULUS - 1; 2]; 3],
        };
        let on_the_wire = result.frame(0, 0).wire_len();
        assert_eq!(on_the_wire, HEADER_LEN + 20 + 3 * 2 * 4 + TRAILER_LEN);
        assert_eq!(result_frame_bytes(3, 2), on_the_wire + 3 * 2 * 4);
    }

    fn virtual_round(profile: ClusterProfile, rows: usize) -> Vec<WorkerOutcome<Vec<Vec<u64>>>> {
        let (blocks, inputs) = round(profile.len(), rows, 64);
        let mut executor = VirtualExecutor::new(profile);
        executor.install_blocks(0, &blocks).unwrap();
        executor.execute_round(0, 0, &inputs).unwrap()
    }

    #[test]
    fn virtual_round_returns_one_outcome_per_worker() {
        let outcomes = virtual_round(ClusterProfile::uniform(4), 32);
        let mut workers: Vec<usize> = outcomes.iter().map(|o| o.worker).collect();
        workers.sort_unstable();
        assert_eq!(workers, vec![0, 1, 2, 3]);
        for outcome in &outcomes {
            assert_eq!(outcome.payload.len(), 1);
            assert_eq!(outcome.payload[0].len(), 32);
            assert!(outcome.compute_seconds >= 0.0);
            assert!(outcome.network_seconds > 0.0);
            assert!(
                (outcome.arrival_seconds - outcome.compute_seconds - outcome.network_seconds).abs()
                    < 1e-12
            );
            assert!(!outcome.corrupted);
        }
    }

    #[test]
    fn outcomes_are_sorted_by_arrival() {
        let profile = ClusterProfile::uniform(6).with_stragglers(&[0], 50.0);
        let outcomes = virtual_round(profile, 256);
        for pair in outcomes.windows(2) {
            assert!(pair[0].arrival_seconds <= pair[1].arrival_seconds);
        }
        // The heavy straggler must arrive last.
        assert_eq!(outcomes.last().unwrap().worker, 0);
    }

    #[test]
    fn stragglers_arrive_after_nominal_workers() {
        let profile = ClusterProfile::uniform(5).with_stragglers(&[2, 4], 100.0);
        let outcomes = virtual_round(profile, 512);
        let last_two: Vec<usize> = outcomes[3..].iter().map(|o| o.worker).collect();
        assert!(last_two.contains(&2) && last_two.contains(&4));
    }

    #[test]
    fn task_count_mismatch_is_an_error() {
        // More inputs than installed blocks (or more blocks than workers) is
        // a typed error on the round path, not a panic.
        let (blocks, inputs) = round(4, 2, 2);
        let mut executor = VirtualExecutor::new(ClusterProfile::uniform(3));
        assert_eq!(
            executor.install_blocks(0, &blocks),
            Err(ExecutorError::TooManyTasks {
                tasks: 4,
                workers: 3
            })
        );
        executor.install_blocks(0, &blocks[..3]).unwrap();
        assert_eq!(
            executor.execute_round(0, 0, &inputs),
            Err(ExecutorError::TooManyTasks {
                tasks: 4,
                workers: 3
            })
        );
    }

    #[test]
    fn inconsistent_block_is_a_bad_block_not_a_panic() {
        // `Block`'s fields are public: a shape that disagrees with the
        // element count must come back as a typed install error.
        let (mut blocks, _) = round(3, 2, 3);
        blocks[1].elements.truncate(3);
        for executor in [
            &mut VirtualExecutor::new(ClusterProfile::uniform(3)) as &mut dyn Executor,
            &mut ThreadedExecutor::new(ClusterProfile::uniform(3)),
        ] {
            assert!(matches!(
                executor.install_blocks(0, &blocks),
                Err(ExecutorError::BadBlock {
                    worker: 1,
                    error: WireError::Malformed { .. }
                })
            ));
        }
    }

    #[test]
    fn modeled_compute_is_macs_times_slowdown_at_seconds_per_mac() {
        // 512 × 64 blocks, one input: 32 768 MACs per worker; worker 1 is a
        // ×3 straggler.
        let profile = ClusterProfile::uniform(3).with_stragglers(&[1], 3.0);
        let outcomes = virtual_round(profile, 512);
        for outcome in &outcomes {
            let slowdown = if outcome.worker == 1 { 3.0 } else { 1.0 };
            assert_eq!(
                outcome.compute_seconds,
                (512 * 64) as f64 * SECONDS_PER_MAC * slowdown
            );
        }
    }

    #[test]
    fn uniform_workers_tie_and_arrive_in_worker_order() {
        let outcomes = virtual_round(ClusterProfile::uniform(6), 64);
        let order: Vec<usize> = outcomes.iter().map(|o| o.worker).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
        assert!(outcomes
            .iter()
            .all(|o| o.arrival_seconds == outcomes[0].arrival_seconds));
    }

    #[test]
    fn concurrent_threaded_executors_each_collect_their_own_round() {
        // Four masters on scoped threads, each fanning its own 8-worker round
        // out at once: 32 worker threads, every round complete and exact.
        let (blocks, inputs) = round(8, 64, 64);
        let typed = TypedBlock::from_block(&blocks[3]).unwrap();
        let expected = typed.execute(&inputs[3]).unwrap();
        let (sender, receiver) = mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let sender = sender.clone();
                let (blocks, inputs) = (&blocks, &inputs);
                scope.spawn(move || {
                    let mut executor = ThreadedExecutor::new(ClusterProfile::uniform(8));
                    executor.install_blocks(0, blocks).unwrap();
                    let _ = sender.send(executor.execute_round(0, 0, inputs).unwrap());
                });
            }
        });
        drop(sender);
        let rounds: Vec<_> = receiver.iter().collect();
        assert_eq!(rounds.len(), 4);
        for outcomes in rounds {
            assert_eq!(outcomes.len(), 8);
            let third = outcomes.iter().find(|o| o.worker == 3).unwrap();
            assert_eq!(third.payload, expected);
        }
    }

    #[test]
    fn threaded_churn_skips_down_workers_and_clobbers_corrupt_windows() {
        use crate::churn::{ChurnAction, ChurnEventKind, ChurnSchedule};
        let mut executor = ThreadedExecutor::new(ClusterProfile::uniform(4));
        executor.sleep_per_slowdown_unit = 0.0;
        executor.set_churn(
            ChurnSchedule::quiet()
                .at(0, ChurnAction::Crash { worker: 1 })
                .at(
                    0,
                    ChurnAction::Corrupt {
                        worker: 2,
                        rounds: 1,
                    },
                ),
        );
        let (blocks, inputs) = round(4, 2, 2);
        executor.install_blocks(7, &blocks).unwrap();
        let outcomes = executor.execute_round(7, 0, &inputs).unwrap();
        let mut seen: Vec<usize> = outcomes.iter().map(|o| o.worker).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 2, 3], "worker 1 is down and must be absent");
        assert_eq!(executor.live_workers(), 3);
        let corrupt = outcomes.iter().find(|o| o.worker == 2).unwrap();
        assert_eq!(corrupt.payload[0][0], u64::MAX, "clobbered, non-canonical");
        let honest = outcomes.iter().find(|o| o.worker == 0).unwrap();
        assert!(honest.payload[0].iter().all(|&v| v < u64::MAX));
        let kinds: Vec<_> = executor.churn_events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&ChurnEventKind::Crash));
        assert!(kinds.contains(&ChurnEventKind::CorruptStart));
    }

    #[test]
    fn virtual_churn_flap_readmits_on_the_round_clock() {
        use crate::churn::{ChaosSchedule, ChurnEventKind};
        let mut executor = VirtualExecutor::new(ClusterProfile::uniform(4));
        executor.set_churn(ChaosSchedule::flap(&[0], 1, 2));
        let (blocks, inputs) = round(4, 2, 2);
        executor.install_blocks(0, &blocks).unwrap();
        assert_eq!(executor.execute_round(0, 0, &inputs).unwrap().len(), 4);
        assert_eq!(executor.execute_round(0, 1, &inputs).unwrap().len(), 3);
        assert_eq!(executor.execute_round(0, 2, &inputs).unwrap().len(), 3);
        assert_eq!(executor.execute_round(0, 3, &inputs).unwrap().len(), 4);
        assert_eq!(executor.live_workers(), 4);
        let kinds: Vec<_> = executor.churn_events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![ChurnEventKind::FlapDown, ChurnEventKind::FlapUp]
        );
    }

    #[test]
    fn threaded_executor_collects_all_workers() {
        let profile = ClusterProfile::uniform(4).with_stragglers(&[3], 5.0);
        let (blocks, inputs) = round(4, 64, 64);
        let mut executor = ThreadedExecutor::new(profile);
        executor.install_blocks(0, &blocks).unwrap();
        let outcomes = executor.execute_round(0, 0, &inputs).unwrap();
        let mut workers: Vec<usize> = outcomes.iter().map(|o| o.worker).collect();
        workers.sort_unstable();
        assert_eq!(workers, vec![0, 1, 2, 3]);
        // Every worker has a thread of its own, so the straggler's ~40 ms
        // sleep delays only itself: it arrives last.
        assert_eq!(outcomes.last().unwrap().worker, 3);
        for outcome in &outcomes {
            // Compute is the thread's own span; arrival additionally carries
            // the thread's start-up + network.
            assert!(
                outcome.compute_seconds <= outcome.arrival_seconds - outcome.network_seconds + 1e-9,
                "worker {}: compute {} should not exceed send time {}",
                outcome.worker,
                outcome.compute_seconds,
                outcome.arrival_seconds - outcome.network_seconds
            );
            // The straggler's 40 ms sleep is its own compute, nobody else's.
            if outcome.worker != 3 {
                assert!(
                    outcome.compute_seconds < 0.04,
                    "worker {} charged someone else's sleep: {}",
                    outcome.worker,
                    outcome.compute_seconds
                );
            }
        }
    }
}
