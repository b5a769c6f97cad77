//! The socket runtime's contract tests: the TCP/UDS master must produce
//! bit-identical results to the in-process executors, and every wire-level
//! defect — corrupted frame, version mismatch, truncation, disconnect,
//! deadline — must end in a clean eviction (never a panic or a hang)
//! followed by a successful respawn.
//!
//! The suite runs on the Goldilocks field with every element at or above
//! `2^32`, so blocks, task inputs and results cross the wire 8 bytes per
//! element, the widest the protocol carries.

use std::time::Duration;

use avcc_sim::cluster::ClusterProfile;
use avcc_sim::executor::{EvictionReason, Executor, RawOutcome, ThreadedExecutor};
use avcc_sim::socket::{SocketConfig, SocketExecutor, Transport};
use avcc_sim::wire::{Block, Fault, FaultKind, HelloAck, Task};
use proptest::prelude::*;

const Q: u64 = 18_446_744_069_414_584_321; // Goldilocks, 2^64 − 2^32 + 1
const WIDE: u64 = 1 << 32;

/// Deterministic pseudo-random canonical elements in `[2^32, q)`: too wide
/// for 4 bytes.
fn elements(count: usize, seed: u64) -> Vec<u64> {
    (0..count as u64)
        .map(|i| {
            WIDE + seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(i.wrapping_mul(1_442_695_040_888_963_407))
                % (Q - WIDE)
        })
        .collect()
}

fn blocks(workers: usize, rows: usize, cols: usize, seed: u64) -> Vec<Block> {
    (0..workers)
        .map(|w| Block {
            modulus: Q,
            rows: rows as u32,
            cols: cols as u32,
            elements: elements(rows * cols, seed.wrapping_add(w as u64)),
        })
        .collect()
}

fn inputs(workers: usize, functions: usize, cols: usize, seed: u64) -> Vec<Vec<Vec<u64>>> {
    (0..workers)
        .map(|w| {
            (0..functions)
                .map(|f| elements(cols, seed ^ ((w * 31 + f + 7) as u64)))
                .collect()
        })
        .collect()
}

/// Worker-sorted payloads: the value contract, independent of arrival order.
fn payloads(outcomes: Vec<avcc_sim::WorkerOutcome<Vec<Vec<u64>>>>) -> Vec<(usize, Vec<Vec<u64>>)> {
    let mut sorted: Vec<_> = outcomes
        .into_iter()
        .map(|o| (o.worker, o.payload))
        .collect();
    sorted.sort_by_key(|(w, _)| *w);
    sorted
}

fn quick_config(transport: Transport) -> SocketConfig {
    SocketConfig {
        transport,
        connect_timeout: Duration::from_secs(20),
        round_timeout: Duration::from_secs(20),
        ..SocketConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The equivalence gate: for random blocks and inputs, the threaded
    /// executor, the TCP socket executor and the UDS socket executor return
    /// bit-for-bit identical payloads — same kernel, same canonical wire
    /// values, different runtimes.
    #[test]
    fn socket_results_match_threaded_bit_for_bit(
        workers in 2usize..5,
        rows in 1usize..6,
        cols in 1usize..6,
        functions in 1usize..3,
        seed in any::<u64>(),
    ) {
        let blocks = blocks(workers, rows, cols, seed);
        let inputs = inputs(workers, functions, cols, seed);

        let mut threaded = ThreadedExecutor::new(ClusterProfile::uniform(workers));
        threaded.install_blocks(7, &blocks).unwrap();
        let expected = payloads(threaded.execute_round(7, 0, &inputs).unwrap());
        prop_assert_eq!(expected.len(), workers);

        for transport in [Transport::Tcp, Transport::Uds] {
            let mut socket = SocketExecutor::with_config(
                ClusterProfile::uniform(workers),
                quick_config(transport),
            )
            .unwrap();
            socket.install_blocks(7, &blocks).unwrap();
            let got = payloads(socket.execute_round(7, 0, &inputs).unwrap());
            prop_assert_eq!(&got, &expected, "{:?} diverged from threaded", transport);
            prop_assert!(socket.round_evictions().is_empty());
        }
    }
}

/// Every injected wire fault must map to the advertised eviction reason, and
/// the following round must recover the worker via respawn + block re-send.
#[test]
fn every_fault_kind_evicts_cleanly_and_recovers() {
    let cases = [
        (FaultKind::CorruptPayload, EvictionReason::CorruptFrame),
        (FaultKind::BadCrc, EvictionReason::CorruptFrame),
        (FaultKind::WrongVersion, EvictionReason::VersionMismatch),
        (FaultKind::Truncate, EvictionReason::Disconnected),
        (FaultKind::Disconnect, EvictionReason::Disconnected),
    ];
    for (fault, expected_reason) in cases {
        let workers = 3;
        let blocks = blocks(workers, 3, 2, 99);
        let inputs = inputs(workers, 1, 2, 99);
        let mut socket = SocketExecutor::with_config(
            ClusterProfile::uniform(workers),
            quick_config(Transport::Tcp),
        )
        .unwrap();
        socket.install_blocks(1, &blocks).unwrap();

        // Round 0: clean baseline.
        let clean = payloads(socket.execute_round(1, 0, &inputs).unwrap());
        assert_eq!(clean.len(), workers, "{fault:?}: baseline incomplete");

        // Round 1: worker 1's result send exhibits the fault.
        socket.inject_fault(1, fault).unwrap();
        let faulted = socket.execute_round(1, 1, &inputs).unwrap();
        let survivors: Vec<usize> = faulted.iter().map(|o| o.worker).collect();
        assert!(
            !survivors.contains(&1),
            "{fault:?}: the faulted worker's result must not survive"
        );
        assert_eq!(faulted.len(), workers - 1, "{fault:?}: honest results lost");
        let evictions = socket.round_evictions();
        assert_eq!(evictions.len(), 1, "{fault:?}: exactly one eviction");
        assert_eq!(evictions[0].worker, 1);
        assert_eq!(evictions[0].round, 1);
        assert_eq!(
            evictions[0].reason, expected_reason,
            "{fault:?}: wrong eviction reason"
        );

        // Round 2: the worker is respawned, re-sent its block and computes
        // the same values as the clean baseline.
        let recovered = payloads(socket.execute_round(1, 2, &inputs).unwrap());
        assert_eq!(recovered, clean, "{fault:?}: recovery round diverged");
        assert!(socket.round_evictions().is_empty());
        assert!(
            socket.metrics().respawns >= 1,
            "{fault:?}: no respawn counted"
        );
    }
}

/// A worker killed between rounds is revived before the next dispatch; a
/// disabled respawn leaves it evicted instead.
#[test]
fn killed_worker_is_respawned_or_stays_evicted() {
    let workers = 3;
    let blocks = blocks(workers, 2, 2, 5);
    let inputs = inputs(workers, 1, 2, 5);

    let mut socket = SocketExecutor::with_config(
        ClusterProfile::uniform(workers),
        quick_config(Transport::Uds),
    )
    .unwrap();
    socket.install_blocks(4, &blocks).unwrap();
    let clean = payloads(socket.execute_round(4, 0, &inputs).unwrap());
    socket.kill_worker(2);
    let after = payloads(socket.execute_round(4, 1, &inputs).unwrap());
    assert_eq!(after, clean, "respawned worker must rejoin seamlessly");
    assert!(socket.metrics().respawns >= 1);

    let mut no_respawn = SocketExecutor::with_config(
        ClusterProfile::uniform(workers),
        SocketConfig {
            respawn: false,
            ..quick_config(Transport::Tcp)
        },
    )
    .unwrap();
    no_respawn.install_blocks(4, &blocks).unwrap();
    no_respawn.kill_worker(0);
    let outcomes = no_respawn.execute_round(4, 0, &inputs).unwrap();
    assert_eq!(outcomes.len(), workers - 1);
    let evictions = no_respawn.round_evictions();
    assert_eq!(evictions.len(), 1);
    assert_eq!(evictions[0].worker, 0);
    assert_eq!(evictions[0].reason, EvictionReason::Disconnected);
}

/// What a respawn costs on the wire before any block: the `HELLO_ACK`.
fn hello_ack_bytes(worker: usize, workers: usize) -> u64 {
    let ack = HelloAck {
        worker: worker as u32,
        workers: workers as u32,
    };
    ack.frame().wire_len() as u64
}

/// Bytes of one round's `TASK` frames (their size does not depend on the
/// sleep or the round serial).
fn task_bytes(inputs: &[Vec<Vec<u64>>]) -> u64 {
    inputs
        .iter()
        .map(|worker_inputs| {
            let task = Task {
                sleep_micros: 0,
                inputs: worker_inputs.clone(),
            };
            task.frame(0, 0).wire_len() as u64
        })
        .sum()
}

fn uds_fleet(workers: usize) -> SocketExecutor {
    SocketExecutor::with_config(
        ClusterProfile::uniform(workers),
        quick_config(Transport::Uds),
    )
    .unwrap()
}

fn oracle_round(job_blocks: &[Block], inputs: &[Vec<Vec<u64>>]) -> Vec<(usize, Vec<Vec<u64>>)> {
    let mut oracle = ThreadedExecutor::new(ClusterProfile::uniform(job_blocks.len()));
    oracle.install_blocks(0, job_blocks).unwrap();
    payloads(oracle.execute_round(0, 0, inputs).unwrap())
}

/// A worker found dead by `install_blocks` is respawned there and then: it is
/// replayed the blocks of the jobs already cached and shipped the new job's
/// block with everyone else — once, not once by the replay and again by the
/// install.
#[test]
fn a_worker_respawned_during_install_is_shipped_the_jobs_block_once() {
    let workers = 3;
    let older = blocks(workers, 2, 2, 43);
    let newer = blocks(workers, 3, 2, 41);
    let inputs = inputs(workers, 1, 2, 41);
    let mut socket = uds_fleet(workers);
    socket.install_blocks(8, &older).unwrap();
    socket.kill_worker(1);

    let before = socket.metrics();
    socket.install_blocks(4, &newer).unwrap();
    let after = socket.metrics();
    assert_eq!(after.respawns - before.respawns, 1);
    // HELLO_ACK and job 8's block to worker 1, then job 4's block to each.
    assert_eq!(
        after.frames_sent - before.frames_sent,
        2 + workers as u64,
        "exactly one LOAD_BLOCK of the new job per worker"
    );
    let newer_bytes: u64 = newer.iter().map(|b| b.frame(4).wire_len() as u64).sum();
    assert_eq!(
        after.bytes_sent - before.bytes_sent,
        hello_ack_bytes(1, workers) + older[1].frame(8).wire_len() as u64 + newer_bytes
    );

    // The respawned worker computes on both jobs, exactly.
    for (job, job_blocks) in [(4, &newer), (8, &older)] {
        let got = payloads(socket.execute_round(job, 0, &inputs).unwrap());
        assert_eq!(got, oracle_round(job_blocks, &inputs), "job {job}");
        assert!(socket.round_evictions().is_empty());
    }
    assert_eq!(
        socket.metrics().bytes_sent - after.bytes_sent,
        2 * task_bytes(&inputs),
        "two rounds of tasks and nothing else"
    );
}

/// The master frames each worker's `TASK` for the modulus of that worker's
/// block: small signed inputs of the 25-bit field go 2 bytes per element,
/// the same inputs to an `F_251` worker 4, and the results are the threaded
/// executor's, bit for bit.
#[test]
fn small_inputs_to_a_25_bit_block_cross_the_wire_2_bytes_wide() {
    let q = (1u64 << 25) - 39;
    let workers = 3;
    // Worker 2's block is of F_251, the others' of the 25-bit field.
    let job_blocks: Vec<Block> = (0..workers)
        .map(|w| {
            let modulus = if w == 2 { 251 } else { q };
            Block {
                modulus,
                rows: 4,
                cols: 5,
                elements: elements(20, w as u64 + 3)
                    .into_iter()
                    .map(|e| e % modulus)
                    .collect(),
            }
        })
        .collect();
    // ±100: within 2^15 of 0 or of q, and canonical mod 251 too.
    let inputs: Vec<Vec<Vec<u64>>> = (0..workers)
        .map(|w| {
            let modulus = job_blocks[w].modulus;
            vec![(0..5).map(|i| (modulus + i * 50 - 100) % modulus).collect()]
        })
        .collect();
    let mut socket = uds_fleet(workers);
    socket.install_blocks(6, &job_blocks).unwrap();
    let before = socket.metrics();
    let got = payloads(socket.execute_round(6, 0, &inputs).unwrap());
    let after = socket.metrics();
    assert_eq!(got, oracle_round(&job_blocks, &inputs));
    assert!(socket.round_evictions().is_empty());
    // 16 + 5·2 and 16 + 5·4 payload bytes, and 32 of header and trailer.
    assert_eq!(
        after.bytes_sent - before.bytes_sent,
        2 * (32 + 26) + (32 + 36)
    );
}

/// The respawn cache holds each `LOAD_BLOCK` frame's wire bytes and replays
/// them verbatim: a respawn costs the handshake plus exactly that frame, the
/// worker accepts its checksum, and its next result is exact.
#[test]
fn a_respawned_worker_is_replayed_the_bytes_first_sent() {
    let workers = 3;
    let blocks = blocks(workers, 4, 3, 57);
    let inputs = inputs(workers, 2, 3, 57);
    let mut socket = uds_fleet(workers);
    socket.install_blocks(4, &blocks).unwrap();
    let clean = payloads(socket.execute_round(4, 0, &inputs).unwrap());
    assert_eq!(clean, oracle_round(&blocks, &inputs));

    socket.kill_worker(2);
    let before = socket.metrics();
    let after_respawn = payloads(socket.execute_round(4, 1, &inputs).unwrap());
    let after = socket.metrics();
    assert_eq!(after_respawn, clean, "the replayed block is the block");
    assert!(socket.round_evictions().is_empty(), "the replay's CRC held");
    assert_eq!(after.respawns - before.respawns, 1);
    assert_eq!(after.frames_sent - before.frames_sent, 2 + workers as u64);
    // Header and trailer, the block's 16-byte head, 4 × 3 elements of 8 bytes.
    assert_eq!(blocks[2].frame(4).wire_len(), 32 + 16 + 12 * 8);
    assert_eq!(
        after.bytes_sent - before.bytes_sent,
        hello_ack_bytes(2, workers) + blocks[2].frame(4).wire_len() as u64 + task_bytes(&inputs)
    );
}

/// Installing a job again replaces its entry in the respawn cache: a worker
/// respawned afterwards is replayed the new block, not the old one.
#[test]
fn reinstalling_a_job_replaces_its_respawn_cache_entry() {
    let workers = 3;
    let first = blocks(workers, 2, 2, 61);
    let second = blocks(workers, 5, 2, 67); // another shape: another frame length
    let inputs = inputs(workers, 1, 2, 61);
    let mut socket = uds_fleet(workers);
    socket.install_blocks(4, &first).unwrap();
    socket.install_blocks(4, &second).unwrap();
    socket.kill_worker(0);

    let before = socket.metrics();
    let got = payloads(socket.execute_round(4, 0, &inputs).unwrap());
    let after = socket.metrics();
    assert_eq!(got, oracle_round(&second, &inputs));
    assert!(socket.round_evictions().is_empty());
    assert_eq!(after.frames_sent - before.frames_sent, 2 + workers as u64);
    assert_eq!(
        after.bytes_sent - before.bytes_sent,
        hello_ack_bytes(0, workers) + second[0].frame(4).wire_len() as u64 + task_bytes(&inputs),
        "one replayed LOAD_BLOCK, of the second install's size"
    );
}

/// A worker that blows the task deadline is evicted as a timed-out
/// straggler — the master never hangs on a silent worker, whichever way the
/// round is driven: the blocking wrapper, or submit / poll / retire.
#[test]
fn deadline_evicts_silent_stragglers() {
    let blocking = |socket: &mut SocketExecutor, inputs: &[Vec<Vec<u64>>]| {
        socket.execute_round(9, 0, inputs).unwrap()
    };
    let split_phase = |socket: &mut SocketExecutor, inputs: &[Vec<Vec<u64>>]| {
        let mut ticket = socket.submit_round(9, 0, inputs).unwrap();
        let mut outcomes = Vec::new();
        loop {
            let polled = socket.poll_round(&mut ticket, None);
            outcomes.extend(polled.arrivals);
            if polled.pending.is_empty() {
                socket.retire_round(ticket);
                return outcomes;
            }
        }
    };
    type Drive<'a> = &'a dyn Fn(&mut SocketExecutor, &[Vec<Vec<u64>>]) -> Vec<RawOutcome>;
    for drive in [&blocking as Drive, &split_phase] {
        let workers = 2;
        let blocks = blocks(workers, 2, 2, 13);
        let inputs = inputs(workers, 1, 2, 13);
        // Worker 1 sleeps ~1.2 s (slowdown 13 × 0.1 s/unit); a task may take 0.3 s.
        let profile = ClusterProfile::uniform(workers).with_stragglers(&[1], 13.0);
        let mut socket = SocketExecutor::with_config(
            profile,
            SocketConfig {
                round_timeout: Duration::from_millis(300),
                sleep_per_slowdown_unit: 0.1,
                ..quick_config(Transport::Tcp)
            },
        )
        .unwrap();
        socket.install_blocks(9, &blocks).unwrap();
        let outcomes = drive(&mut socket, &inputs);
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].worker, 0);
        let evictions = socket.round_evictions();
        assert_eq!(evictions.len(), 1);
        assert_eq!(evictions[0].worker, 1);
        assert_eq!(evictions[0].reason, EvictionReason::TimedOut);
    }
}

/// A round that is retired while a worker is still computing leaves that
/// worker busy: the next round's task waits for it master-side, the late
/// result is counted stale — not taken for the next round's, though both
/// rounds echo the same `(job, round)` — and a task whose round is retired
/// before the worker frees up is never sent.
#[test]
fn a_retired_rounds_straggler_is_not_handed_the_next_task_until_it_answers() {
    let workers = 2;
    let blocks = blocks(workers, 2, 2, 29);
    let round_inputs = |seed| inputs(workers, 1, 2, seed);
    let profile = ClusterProfile::uniform(workers).with_stragglers(&[1], 2.0);
    let mut socket = SocketExecutor::with_config(
        profile.clone(),
        SocketConfig {
            // Worker 1 sleeps 0.2 s per task: long enough that the few
            // master-side steps between two submits cannot outlast it.
            sleep_per_slowdown_unit: 0.2,
            ..quick_config(Transport::Uds)
        },
    )
    .unwrap();
    socket.install_blocks(0, &blocks).unwrap();
    let mut oracle = ThreadedExecutor::new(ClusterProfile::uniform(workers));
    oracle.install_blocks(0, &blocks).unwrap();

    // Round A: take worker 0's result and go, while worker 1 sleeps on.
    let mut first = socket.submit_round(0, 0, &round_inputs(1)).unwrap();
    let polled = socket.poll_round(&mut first, None);
    assert_eq!(polled.arrivals.len(), 1);
    assert_eq!((polled.arrivals[0].worker, polled.pending), (0, vec![1]));
    socket.retire_round(first);
    let frames_after_first = socket.metrics().frames_sent;

    // Round B, same echo, other inputs: worker 1's task must wait. Retired
    // at once, it is dropped unsent.
    let second = socket.submit_round(0, 0, &round_inputs(2)).unwrap();
    assert_eq!(
        socket.metrics().frames_sent,
        frames_after_first + 1,
        "only the idle worker is written to"
    );
    socket.retire_round(second);
    assert_eq!(socket.metrics().tasks_dropped, 1);

    // Round C, same echo again, waited for in full: worker 1 first delivers
    // its stale answer to round A's inputs, then computes round C's.
    let third = round_inputs(3);
    let got = payloads(socket.execute_round(0, 0, &third).unwrap());
    assert_eq!(got, payloads(oracle.execute_round(0, 0, &third).unwrap()));
    let metrics = socket.metrics();
    assert!(metrics.stale_frames >= 1, "round A's late result was stale");
    assert_eq!(metrics.tasks_dropped, 1);
    assert!(
        socket.round_evictions().is_empty(),
        "lateness is not a fault"
    );
}

/// Measured costs flow through: compute and network seconds are real,
/// non-negative, and arrival = compute + network.
#[test]
fn socket_outcomes_carry_measured_timings() {
    let workers = 2;
    let blocks = blocks(workers, 4, 4, 21);
    let inputs = inputs(workers, 2, 4, 21);
    let mut socket = SocketExecutor::tcp(ClusterProfile::uniform(workers)).unwrap();
    socket.install_blocks(0, &blocks).unwrap();
    let outcomes = socket.execute_round(0, 0, &inputs).unwrap();
    assert_eq!(outcomes.len(), workers);
    for outcome in &outcomes {
        assert!(outcome.compute_seconds >= 0.0);
        assert!(outcome.network_seconds >= 0.0);
        assert!(outcome.arrival_seconds >= outcome.compute_seconds);
        assert!(!outcome.corrupted);
    }
    let metrics = socket.metrics();
    assert!(metrics.frames_sent >= (workers * 2) as u64); // hellos acks + blocks + tasks
    assert!(metrics.bytes_received > 0);
}

/// Respawn attempts are counted per worker, and the backoff delay function
/// is deterministic, capped and jittered.
#[test]
fn respawn_attempts_are_counted_and_backoff_is_deterministic() {
    use avcc_sim::socket::backoff_delay;

    let workers = 3;
    let blocks = blocks(workers, 2, 2, 5);
    let inputs = inputs(workers, 1, 2, 5);
    let mut socket = SocketExecutor::with_config(
        ClusterProfile::uniform(workers),
        quick_config(Transport::Tcp),
    )
    .unwrap();
    socket.install_blocks(4, &blocks).unwrap();
    let _ = socket.execute_round(4, 0, &inputs).unwrap();
    assert_eq!(socket.metrics().respawn_attempts, vec![0, 0, 0]);
    socket.kill_worker(2);
    let _ = socket.execute_round(4, 1, &inputs).unwrap();
    let metrics = socket.metrics();
    assert_eq!(
        metrics.respawn_attempts,
        vec![0, 0, 1],
        "exactly the killed worker burns one (successful) respawn attempt"
    );
    assert_eq!(metrics.respawns, 1);

    // The pure backoff schedule: deterministic, growing, capped, jittered.
    let base = Duration::from_millis(50);
    let cap = Duration::from_secs(2);
    for worker in 0..4 {
        for attempt in 0..10 {
            let d = backoff_delay(attempt, worker, base, cap);
            assert_eq!(d, backoff_delay(attempt, worker, base, cap));
            assert!(d <= cap, "delay {d:?} beyond cap");
            assert!(d >= base / 2, "delay {d:?} below half the base");
        }
        // Exponential growth dominates jitter across 4 doublings.
        let early = backoff_delay(0, worker, base, cap);
        let late = backoff_delay(4, worker, base, cap);
        assert!(late > early, "backoff must grow: {early:?} vs {late:?}");
    }
    // Jitter de-synchronizes workers at the same attempt number.
    let delays: Vec<Duration> = (0..6).map(|w| backoff_delay(3, w, base, cap)).collect();
    assert!(delays.windows(2).any(|p| p[0] != p[1]));
}

/// A scripted churn schedule drives the real socket fleet: a flap takes the
/// worker's connection down for two rounds (respawn suppressed), then
/// re-admission replays its cached blocks and the fleet heals bit-for-bit.
#[test]
fn churn_flap_suppresses_respawn_then_readmits_with_cached_blocks() {
    use avcc_sim::churn::{ChaosSchedule, ChurnEventKind};

    let workers = 3;
    let blocks = blocks(workers, 2, 2, 11);
    let inputs = inputs(workers, 1, 2, 11);
    let mut socket = SocketExecutor::with_config(
        ClusterProfile::uniform(workers),
        quick_config(Transport::Tcp),
    )
    .unwrap();
    socket.set_churn(ChaosSchedule::flap(&[1], 1, 2));
    socket.install_blocks(0, &blocks).unwrap();

    let clean = payloads(socket.execute_round(0, 0, &inputs).unwrap());
    assert_eq!(clean.len(), workers);

    // Rounds 1 and 2: worker 1 is down; no respawn attempts may be burned.
    for round in [1, 2] {
        let outcomes = socket.execute_round(0, round, &inputs).unwrap();
        let survivors: Vec<usize> = outcomes.iter().map(|o| o.worker).collect();
        assert!(!survivors.contains(&1), "round {round}: worker 1 is down");
        assert_eq!(outcomes.len(), workers - 1);
        assert_eq!(socket.live_workers(), workers - 1);
    }
    assert_eq!(socket.metrics().respawn_attempts[1], 0);

    // Round 3: re-admission — respawn, handshake, cached block replay.
    let healed = payloads(socket.execute_round(0, 3, &inputs).unwrap());
    assert_eq!(healed, clean, "re-admitted worker must compute identically");
    let metrics = socket.metrics();
    assert_eq!(metrics.respawn_attempts[1], 1);
    assert!(metrics.respawns >= 1);
    let kinds: Vec<ChurnEventKind> = socket.churn_events().iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        vec![ChurnEventKind::FlapDown, ChurnEventKind::FlapUp]
    );
}

/// A churn corruption window arms the wire-level payload fault: the master
/// sees a genuine checksum mismatch, evicts the worker as a corrupt frame,
/// and the worker rejoins honestly once the window closes.
#[test]
fn churn_corrupt_window_evicts_then_rejoins() {
    use avcc_sim::churn::ChaosSchedule;

    let workers = 3;
    let blocks = blocks(workers, 2, 2, 17);
    let inputs = inputs(workers, 1, 2, 17);
    let mut socket = SocketExecutor::with_config(
        ClusterProfile::uniform(workers),
        quick_config(Transport::Uds),
    )
    .unwrap();
    socket.set_churn(ChaosSchedule::corrupt_then_rejoin(&[0], 1, 1));
    socket.install_blocks(0, &blocks).unwrap();

    let clean = payloads(socket.execute_round(0, 0, &inputs).unwrap());

    let corrupted = socket.execute_round(0, 1, &inputs).unwrap();
    let survivors: Vec<usize> = corrupted.iter().map(|o| o.worker).collect();
    assert!(!survivors.contains(&0), "corrupt result must not survive");
    assert!(socket
        .round_evictions()
        .iter()
        .any(|e| e.worker == 0 && e.reason == EvictionReason::CorruptFrame));

    let healed = payloads(socket.execute_round(0, 2, &inputs).unwrap());
    assert_eq!(healed, clean, "post-window round must be clean again");
}

/// A training round sends every worker the same input, and the master frames
/// that `TASK` once — but only for workers whose frames would be the same
/// bytes. A ×8 straggler's `TASK` carries its sleep, a worker of another
/// field reads other widths, and a worker in a corruption window still gets
/// its own `FAULT` first: each keeps its own frame, and every byte sent is
/// what one frame per worker adds up to.
#[test]
fn a_shared_task_frame_never_crosses_workers_that_differ() {
    use avcc_sim::churn::ChaosSchedule;

    let q = (1u64 << 25) - 39;
    let workers = 5;
    let (straggler, corrupting, small_field) = (1, 3, 4);
    let job_blocks: Vec<Block> = (0..workers)
        .map(|w| {
            let modulus = if w == small_field { 251 } else { q };
            Block {
                modulus,
                rows: 3,
                cols: 4,
                elements: elements(12, w as u64 + 71)
                    .into_iter()
                    .map(|e| e % modulus)
                    .collect(),
            }
        })
        .collect();
    let per_unit = 0.01;
    let sleep = (8.0 - 1.0) * per_unit;
    let mut socket = SocketExecutor::with_config(
        ClusterProfile::uniform(workers).with_stragglers(&[straggler], 8.0),
        SocketConfig {
            sleep_per_slowdown_unit: per_unit,
            ..quick_config(Transport::Uds)
        },
    )
    .unwrap();
    socket.set_churn(ChaosSchedule::corrupt_then_rejoin(&[corrupting], 0, 1));
    socket.install_blocks(2, &job_blocks).unwrap();

    // What one frame per worker costs: its `TASK` framed for its own block
    // (2 bytes per element in the 25-bit field, 4 in F_251), plus the
    // corrupting worker's `FAULT`.
    let frame_bytes = |round: u64, inputs: &[Vec<Vec<u64>>], fault: bool| -> u64 {
        let tasks: usize = inputs
            .iter()
            .zip(&job_blocks)
            .map(|(inputs, block)| {
                let task = Task {
                    sleep_micros: 0,
                    inputs: inputs.clone(),
                };
                task.encoded_frame_in(2, round, block.modulus).wire_len()
            })
            .sum();
        let kind = FaultKind::CorruptPayload;
        let faults = if fault {
            Fault { kind }.encoded_frame().wire_len()
        } else {
            0
        };
        (tasks + faults) as u64
    };

    // Round 0: the same small input for everyone, canonical in both fields.
    let shared = vec![vec![(0..4).map(|i| 17 * i + 5).collect::<Vec<u64>>()]; workers];
    let before = socket.metrics();
    let outcomes = socket.execute_round(2, 0, &shared).unwrap();
    let sent = socket.metrics().bytes_sent - before.bytes_sent;
    assert_eq!(sent, frame_bytes(0, &shared, true));
    assert!(socket
        .round_evictions()
        .iter()
        .any(|e| e.worker == corrupting && e.reason == EvictionReason::CorruptFrame));
    for outcome in &outcomes {
        if outcome.worker == straggler {
            assert!(outcome.compute_seconds >= sleep, "the straggler slept");
        } else {
            assert!(outcome.compute_seconds < sleep, "worker {}", outcome.worker);
        }
    }
    let expected: Vec<_> = oracle_round(&job_blocks, &shared)
        .into_iter()
        .filter(|(worker, _)| *worker != corrupting)
        .collect();
    assert_eq!(payloads(outcomes), expected);

    // Round 1, window closed: inputs that differ, and repeat, from worker to
    // worker decode exactly, each worker's from its own bytes.
    let [a, b] = [7u64, 9].map(|seed| vec![(0..4).map(|i| (seed * i + 3) % 251).collect()]);
    let mixed = vec![a.clone(), a.clone(), b.clone(), a, b];
    let before = socket.metrics();
    let got = payloads(socket.execute_round(2, 1, &mixed).unwrap());
    let after = socket.metrics();
    assert_eq!(got, oracle_round(&job_blocks, &mixed));
    assert!(socket.round_evictions().is_empty());
    // The corrupting worker was respawned: a handshake and its block first.
    let respawn =
        hello_ack_bytes(corrupting, workers) + job_blocks[corrupting].frame(2).wire_len() as u64;
    assert_eq!(
        after.bytes_sent - before.bytes_sent,
        respawn + frame_bytes(1, &mixed, false)
    );
}

/// Executor-level bookkeeping errors are typed, not panics.
#[test]
fn unknown_job_and_overwide_rounds_are_errors() {
    let mut socket = SocketExecutor::tcp(ClusterProfile::uniform(2)).unwrap();
    let inputs = inputs(2, 1, 2, 1);
    assert!(socket.execute_round(42, 0, &inputs).is_err());
    let too_many = blocks(3, 2, 2, 1);
    assert!(socket.install_blocks(0, &too_many).is_err());
}
