//! The ticket board: master-side state of split-phase rounds over a fleet
//! where every worker has **at most one task in flight**.
//!
//! A round that closes without its stragglers leaves them busy on a task
//! nobody wants any more, so the next round's frames cannot simply be written
//! to them: a ×8 straggler handed a 14 ms task every millisecond would grow an
//! unbounded backlog in its socket, and the master would sooner or later block
//! in `write` on a peer that is not reading. Instead a worker is either *idle*
//! or *busy with the one `TASK` the master last sent it*; every frame for a
//! busy worker — `TASK`, `LOAD_BLOCK`, `FAULT` — waits in a per-worker FIFO
//! and goes out when that worker's result arrives. Retiring a round drops its
//! still-queued frames unsent: cancellation costs no wire traffic and needs no
//! `CANCEL` frame.
//!
//! The same invariant is what makes result matching sound. A result is
//! attributed to **the task the master last sent that worker**, never to
//! whatever live round happens to carry the same `(job, round)` echo: wire
//! channels reuse job ids and restart round serials at 0, so after a cut-off
//! round the straggler's late `(0, 0)` result arrives during the *next* job's
//! `(0, 0)` round. Matched by echo it would be taken for the new job's result
//! — a falsely "Byzantine" worker under AVCC, a silently wrong block under
//! the uncoded scheme. Matched by last-sent task it belongs to a retired
//! ticket and is discarded as stale; an echo that differs from the task in
//! flight, a second result for one task or a result from an idle worker is a
//! protocol violation, not lateness.
//!
//! The board does no I/O: [`SocketExecutor`](crate::socket::SocketExecutor)
//! feeds it events and acts on its [`Verdict`]s, and the unit tests below
//! drive it with synthetic events.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use avcc_wire::{EncodedFrame, FrameKind};

use crate::executor::{EvictionReason, RawOutcome, RoundPoll};

/// The task a worker is computing: the one the master last sent it.
#[derive(Debug)]
struct InFlight {
    ticket: Option<u64>,
    job: u64,
    round: u64,
    sent_at: Instant,
}

/// A frame waiting for its worker to go idle.
#[derive(Debug)]
struct Queued {
    /// The round the frame belongs to (a `TASK`, or the `FAULT` armed for
    /// it): retiring that round drops the frame unsent. `None` for frames
    /// that must reach the worker regardless (`LOAD_BLOCK`).
    ticket: Option<u64>,
    /// Already in its wire bytes: the board reads only its kind, job and
    /// round.
    frame: EncodedFrame,
}

#[derive(Debug, Default)]
struct Lane {
    /// Generation of the worker's live connection; `None` while it is down.
    generation: Option<u64>,
    busy: Option<InFlight>,
    queue: VecDeque<Queued>,
}

/// A submitted round that has not been retired.
#[derive(Debug)]
struct LiveRound {
    job: u64,
    started: Instant,
    /// Workers whose result is still awaited, ascending.
    pending: Vec<usize>,
    /// Results delivered since the last [`TicketBoard::take_news`].
    arrivals: Vec<RawOutcome>,
}

/// What an event means for the connection it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// The awaited result of a live round that started at `started`: decode
    /// it and [`TicketBoard::deliver`] the outcome. The worker is idle.
    Deliver {
        /// The round's ticket.
        ticket: u64,
        /// When the round was submitted.
        started: Instant,
    },
    /// A late result for a retired round, or a frame from a replaced
    /// connection: count it and discard it.
    Stale,
    /// The connection violated the protocol, died under a task or sat on
    /// one past the deadline. The board has already dropped the worker;
    /// record the eviction (in `round`) and tear the connection down.
    Evict {
        /// Round serial of the task the worker was on.
        round: u64,
        /// Why.
        reason: EvictionReason,
    },
    /// An idle connection died: tear it down, no round lost anything.
    Gone,
    /// News from a replaced connection's reader thread: nothing to do.
    Ignored,
}

/// See the module docs.
#[derive(Debug)]
pub(crate) struct TicketBoard {
    lanes: Vec<Lane>,
    rounds: BTreeMap<u64, LiveRound>,
    next_ticket: u64,
}

impl TicketBoard {
    /// A board for `workers` lanes, all down until [`TicketBoard::connect`].
    pub(crate) fn new(workers: usize) -> Self {
        TicketBoard {
            lanes: (0..workers).map(|_| Lane::default()).collect(),
            rounds: BTreeMap::new(),
            next_ticket: 0,
        }
    }

    /// `worker` has a fresh connection: idle, nothing queued.
    pub(crate) fn connect(&mut self, worker: usize, generation: u64) {
        self.lanes[worker] = Lane {
            generation: Some(generation),
            ..Lane::default()
        };
    }

    /// `worker`'s connection is gone: whatever it was computing or had queued
    /// is lost, and no live round waits for it any longer.
    pub(crate) fn disconnect(&mut self, worker: usize) {
        self.lanes[worker] = Lane::default();
        for round in self.rounds.values_mut() {
            round.pending.retain(|&w| w != worker);
        }
    }

    fn is_current(&self, worker: usize, generation: u64) -> bool {
        self.lanes
            .get(worker)
            .is_some_and(|lane| lane.generation == Some(generation))
    }

    /// Opens a round of `job` submitted at `now` and returns its ticket.
    pub(crate) fn open(&mut self, job: u64, now: Instant) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.rounds.insert(
            ticket,
            LiveRound {
                job,
                started: now,
                pending: Vec::new(),
                arrivals: Vec::new(),
            },
        );
        ticket
    }

    /// Queues `frame` for `worker` behind whatever is already waiting; a
    /// `TASK` of a live `ticket` makes the round wait for the worker. Send
    /// what [`TicketBoard::pop_ready`] releases afterwards.
    pub(crate) fn enqueue(&mut self, worker: usize, ticket: Option<u64>, frame: EncodedFrame) {
        if frame.kind() == FrameKind::Task {
            if let Some(round) = ticket.and_then(|t| self.rounds.get_mut(&t)) {
                round.pending.push(worker);
            }
        }
        self.lanes[worker].queue.push_back(Queued { ticket, frame });
    }

    /// The next frame to write to `worker`, if it is idle and has one queued.
    /// Releasing a `TASK` makes the worker busy from `now`.
    pub(crate) fn pop_ready(&mut self, worker: usize, now: Instant) -> Option<EncodedFrame> {
        let lane = &mut self.lanes[worker];
        if lane.busy.is_some() {
            return None;
        }
        let Queued { ticket, frame } = lane.queue.pop_front()?;
        if frame.kind() == FrameKind::Task {
            lane.busy = Some(InFlight {
                ticket,
                job: frame.job(),
                round: frame.round(),
                sent_at: now,
            });
        }
        Some(frame)
    }

    /// A frame of `kind` echoing `(job, round)` arrived on `worker`'s
    /// connection of `generation`.
    pub(crate) fn on_frame(
        &mut self,
        worker: usize,
        generation: u64,
        kind: FrameKind,
        job: u64,
        round: u64,
    ) -> Verdict {
        if !self.is_current(worker, generation) {
            return Verdict::Stale;
        }
        // A worker only ever speaks in reply to a `TASK`.
        let Some(sent) = self.lanes[worker].busy.take() else {
            return self.evict(worker, round, EvictionReason::Protocol);
        };
        if kind != FrameKind::TaskResult || (job, round) != (sent.job, sent.round) {
            return self.evict(worker, sent.round, EvictionReason::Protocol);
        }
        let Some((ticket, live)) = sent
            .ticket
            .and_then(|t| Some((t, self.rounds.get_mut(&t)?)))
        else {
            return Verdict::Stale;
        };
        live.pending.retain(|&w| w != worker);
        Verdict::Deliver {
            ticket,
            started: live.started,
        }
    }

    /// The reader of `worker`'s connection of `generation` failed; `reason`
    /// is what the failure maps to.
    pub(crate) fn on_failure(
        &mut self,
        worker: usize,
        generation: u64,
        reason: EvictionReason,
    ) -> Verdict {
        if !self.is_current(worker, generation) {
            return Verdict::Ignored;
        }
        match self.lanes[worker].busy.as_ref().map(|sent| sent.round) {
            Some(round) => self.evict(worker, round, reason),
            None => {
                self.disconnect(worker);
                Verdict::Gone
            }
        }
    }

    fn evict(&mut self, worker: usize, round: u64, reason: EvictionReason) -> Verdict {
        self.disconnect(worker);
        Verdict::Evict { round, reason }
    }

    /// Adds a decoded result to `ticket`'s round (see [`Verdict::Deliver`]).
    pub(crate) fn deliver(&mut self, ticket: u64, outcome: RawOutcome) {
        if let Some(round) = self.rounds.get_mut(&ticket) {
            round.arrivals.push(outcome);
        }
    }

    /// Drops every worker that has sat on its task for `timeout` or longer —
    /// whether or not the task's round is still live: a wedged worker must
    /// not pin its queue forever. Returns `(worker, round serial)` pairs.
    pub(crate) fn drop_overdue(&mut self, now: Instant, timeout: Duration) -> Vec<(usize, u64)> {
        let overdue: Vec<(usize, u64)> = self
            .lanes
            .iter()
            .enumerate()
            .filter_map(|(worker, lane)| {
                let sent = lane.busy.as_ref()?;
                (now.saturating_duration_since(sent.sent_at) >= timeout)
                    .then_some((worker, sent.round))
            })
            .collect();
        for &(worker, _) in &overdue {
            self.disconnect(worker);
        }
        overdue
    }

    /// When the oldest in-flight task times out, if anything is in flight.
    pub(crate) fn next_deadline(&self, timeout: Duration) -> Option<Instant> {
        self.lanes
            .iter()
            .filter_map(|lane| Some(lane.busy.as_ref()?.sent_at + timeout))
            .min()
    }

    /// Retires `ticket`: its queued frames are dropped unsent, results of its
    /// in-flight tasks will be [`Verdict::Stale`]. Returns how many `TASK`s
    /// were dropped.
    pub(crate) fn retire(&mut self, ticket: u64) -> u64 {
        self.rounds.remove(&ticket);
        let mut dropped = 0;
        for lane in &mut self.lanes {
            lane.queue.retain(|queued| {
                let retired = queued.ticket == Some(ticket);
                dropped += u64::from(retired && queued.frame.kind() == FrameKind::Task);
                !retired
            });
        }
        dropped
    }

    /// `job`'s blocks are about to be replaced: every round still open on the
    /// old ones is void (retired), and queued `LOAD_BLOCK`s the new blocks
    /// supersede are dropped. Returns how many `TASK`s were dropped.
    pub(crate) fn retire_job(&mut self, job: u64) -> u64 {
        let void: Vec<u64> = self
            .rounds
            .iter()
            .filter_map(|(&ticket, round)| (round.job == job).then_some(ticket))
            .collect();
        let dropped = void.into_iter().map(|ticket| self.retire(ticket)).sum();
        for lane in &mut self.lanes {
            lane.queue.retain(|queued| {
                !(queued.frame.kind() == FrameKind::LoadBlock && queued.frame.job() == job)
            });
        }
        dropped
    }

    /// `true` iff a poll of `ticket` has something to report: new arrivals,
    /// or nobody left to wait for (also the case for a retired ticket).
    pub(crate) fn has_news(&self, ticket: u64) -> bool {
        self.rounds
            .get(&ticket)
            .is_none_or(|round| !round.arrivals.is_empty() || round.pending.is_empty())
    }

    /// What a poll of `ticket` at `now` reports: its arrivals since the last
    /// call, who is still awaited, and how long the round has been out. A
    /// retired ticket has nothing to report.
    pub(crate) fn take_news(&mut self, ticket: u64, now: Instant) -> RoundPoll {
        match self.rounds.get_mut(&ticket) {
            Some(round) => RoundPoll {
                arrivals: std::mem::take(&mut round.arrivals),
                pending: round.pending.clone(),
                elapsed_seconds: now.saturating_duration_since(round.started).as_secs_f64(),
            },
            None => RoundPoll {
                arrivals: Vec::new(),
                pending: Vec::new(),
                elapsed_seconds: 0.0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avcc_wire::{Block, Fault, FaultKind, Task};

    const WORKER: usize = 0;
    const GENERATION: u64 = 7;
    const JOB: u64 = 0;
    const ROUND: u64 = 5;
    const TIMEOUT: Duration = Duration::from_secs(30);

    fn task(job: u64, round: u64) -> EncodedFrame {
        Task {
            sleep_micros: 0,
            inputs: vec![vec![1, 2]],
        }
        .encoded_frame(job, round)
    }

    fn load_block(job: u64) -> EncodedFrame {
        Block {
            modulus: 33_554_393,
            rows: 1,
            cols: 1,
            elements: vec![1],
        }
        .encoded_frame(job)
    }

    fn outcome(worker: usize) -> RawOutcome {
        RawOutcome {
            worker,
            payload: vec![vec![3]],
            compute_seconds: 0.0,
            network_seconds: 0.0,
            arrival_seconds: 0.0,
            corrupted: false,
        }
    }

    /// Submits a `(JOB, ROUND)` round to a two-worker board and sends both
    /// tasks. Returns the board and the round's ticket.
    fn busy_board(now: Instant) -> (TicketBoard, u64) {
        let mut board = TicketBoard::new(2);
        board.connect(WORKER, GENERATION);
        board.connect(1, GENERATION + 1);
        let ticket = board.open(JOB, now);
        for worker in [WORKER, 1] {
            board.enqueue(worker, Some(ticket), task(JOB, ROUND));
            let sent = board.pop_ready(worker, now).expect("idle worker");
            assert_eq!(sent.kind(), FrameKind::Task);
            assert!(board.pop_ready(worker, now).is_none(), "one task in flight");
        }
        (board, ticket)
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum State {
        Idle,
        BusyLive,
        BusyRetired,
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Incoming {
        MatchingResult,
        WrongEcho,
        /// The *second* of two identical results for one task.
        Duplicate,
        ErrorReply,
        Failed,
        ReplacedGeneration,
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Expect {
        Delivered,
        Stale,
        Protocol,
        Disconnected,
        Gone,
    }

    fn board_in(state: State, now: Instant) -> (TicketBoard, u64) {
        let (mut board, ticket) = busy_board(now);
        match state {
            State::BusyLive => {}
            State::BusyRetired => assert_eq!(board.retire(ticket), 0, "both tasks were sent"),
            State::Idle => {
                // Worker 0 answered; worker 1 keeps the round live.
                let verdict = board.on_frame(WORKER, GENERATION, FrameKind::TaskResult, JOB, ROUND);
                assert!(matches!(verdict, Verdict::Deliver { .. }));
            }
        }
        (board, ticket)
    }

    fn apply(board: &mut TicketBoard, incoming: Incoming) -> Verdict {
        let result = |board: &mut TicketBoard, generation, round| {
            board.on_frame(WORKER, generation, FrameKind::TaskResult, JOB, round)
        };
        match incoming {
            Incoming::MatchingResult => result(board, GENERATION, ROUND),
            Incoming::WrongEcho => result(board, GENERATION, ROUND + 1),
            Incoming::Duplicate => {
                result(board, GENERATION, ROUND);
                result(board, GENERATION, ROUND)
            }
            Incoming::ErrorReply => {
                board.on_frame(WORKER, GENERATION, FrameKind::Error, JOB, ROUND)
            }
            Incoming::Failed => board.on_failure(WORKER, GENERATION, EvictionReason::Disconnected),
            Incoming::ReplacedGeneration => result(board, GENERATION - 1, ROUND),
        }
    }

    #[test]
    fn every_state_meets_every_event() {
        use Expect::*;
        use Incoming::*;
        use State::*;
        let table = [
            // An idle worker has nothing to answer: any frame is unsolicited.
            (Idle, MatchingResult, Protocol),
            (Idle, WrongEcho, Protocol),
            // …and the first of the pair already took the connection down.
            (Idle, Duplicate, Stale),
            (Idle, ErrorReply, Protocol),
            (Idle, Failed, Gone),
            (Idle, ReplacedGeneration, Stale),
            (BusyLive, MatchingResult, Delivered),
            (BusyLive, WrongEcho, Protocol),
            (BusyLive, Duplicate, Protocol),
            (BusyLive, ErrorReply, Protocol),
            (BusyLive, Failed, Disconnected),
            (BusyLive, ReplacedGeneration, Stale),
            // Only results for *retired* tickets are stale.
            (BusyRetired, MatchingResult, Stale),
            (BusyRetired, WrongEcho, Protocol),
            (BusyRetired, Duplicate, Protocol),
            (BusyRetired, ErrorReply, Protocol),
            (BusyRetired, Failed, Disconnected),
            (BusyRetired, ReplacedGeneration, Stale),
        ];
        let now = Instant::now();
        for (state, incoming, expect) in table {
            let (mut board, ticket) = board_in(state, now);
            let verdict = apply(&mut board, incoming);
            let case = format!("{state:?} × {incoming:?}");
            match expect {
                Delivered => {
                    assert_eq!(
                        verdict,
                        Verdict::Deliver {
                            ticket,
                            started: now
                        },
                        "{case}"
                    );
                    board.deliver(ticket, outcome(WORKER));
                    let news = board.take_news(ticket, now);
                    assert_eq!(news.arrivals.len(), 1, "{case}");
                    assert_eq!(news.pending, [1], "{case}: worker 1 is still awaited");
                }
                Stale => assert_eq!(verdict, Verdict::Stale, "{case}"),
                Gone => assert_eq!(verdict, Verdict::Gone, "{case}"),
                Protocol | Disconnected => {
                    let reason = if expect == Protocol {
                        EvictionReason::Protocol
                    } else {
                        EvictionReason::Disconnected
                    };
                    assert!(
                        matches!(verdict, Verdict::Evict { reason: r, .. } if r == reason),
                        "{case}: {verdict:?}"
                    );
                    // The violation settles the worker's share of the round at
                    // once — nobody waits out a deadline for it.
                    assert!(
                        !board.take_news(ticket, now).pending.contains(&WORKER),
                        "{case}"
                    );
                }
            }
            // Whatever happened, the worker is not left busy on a task whose
            // answer already came: its lane is free for the next frame.
            if !matches!(incoming, ReplacedGeneration) {
                assert!(board.lanes[WORKER].busy.is_none(), "{case}");
            }
        }
    }

    #[test]
    fn a_violation_by_the_last_awaited_worker_completes_the_round_at_once() {
        let now = Instant::now();
        let (mut board, ticket) = busy_board(now);
        assert!(!board.has_news(ticket));
        assert!(matches!(
            board.on_frame(1, GENERATION + 1, FrameKind::TaskResult, JOB, ROUND),
            Verdict::Deliver { .. }
        ));
        board.deliver(ticket, outcome(1));
        assert_eq!(board.take_news(ticket, now).pending, [WORKER]);
        assert!(!board.has_news(ticket), "worker 0 is still awaited");
        // Wrong round id: under the old echo rule this was "late" and held
        // the master for the full round timeout.
        let verdict = board.on_frame(WORKER, GENERATION, FrameKind::TaskResult, JOB, ROUND + 9);
        assert_eq!(
            verdict,
            Verdict::Evict {
                round: ROUND,
                reason: EvictionReason::Protocol
            }
        );
        assert!(board.has_news(ticket), "nothing pending: the poll returns");
        let news = board.take_news(ticket, now + Duration::from_millis(5));
        assert!(news.arrivals.is_empty() && news.pending.is_empty());
        assert_eq!(news.elapsed_seconds, 0.005);
    }

    #[test]
    fn queued_frames_keep_fifo_order_behind_the_task_in_flight() {
        let now = Instant::now();
        let (mut board, first) = busy_board(now);
        let second = board.open(JOB + 1, now);
        board.enqueue(WORKER, None, load_block(JOB + 1));
        board.enqueue(WORKER, Some(second), task(JOB + 1, 0));
        board.enqueue(WORKER, None, load_block(JOB + 2));
        assert!(
            board.pop_ready(WORKER, now).is_none(),
            "busy: nothing goes out"
        );
        assert_eq!(
            board.take_news(second, now).pending,
            [WORKER],
            "queued counts as awaited"
        );

        board.on_frame(WORKER, GENERATION, FrameKind::TaskResult, JOB, ROUND);
        let sent: Vec<(FrameKind, u64)> = std::iter::from_fn(|| board.pop_ready(WORKER, now))
            .map(|frame| (frame.kind(), frame.job()))
            .collect();
        assert_eq!(
            sent,
            [(FrameKind::LoadBlock, JOB + 1), (FrameKind::Task, JOB + 1)],
            "the second block waits behind the task now in flight"
        );
        let verdict = board.on_frame(WORKER, GENERATION, FrameKind::TaskResult, JOB + 1, 0);
        assert!(matches!(verdict, Verdict::Deliver { ticket, .. } if ticket == second));
        assert_eq!(
            board.pop_ready(WORKER, now).map(|frame| frame.job()),
            Some(JOB + 2)
        );
        assert_eq!(board.retire(first), 0);
    }

    #[test]
    fn a_retired_rounds_queued_task_is_never_sent_but_a_queued_block_is() {
        let now = Instant::now();
        let (mut board, first) = busy_board(now);
        board.retire(first);
        let second = board.open(JOB, now);
        board.enqueue(WORKER, None, load_block(JOB));
        board.enqueue(
            WORKER,
            Some(second),
            Fault {
                kind: FaultKind::CorruptPayload,
            }
            .encoded_frame(),
        );
        board.enqueue(WORKER, Some(second), task(JOB, ROUND));
        assert_eq!(
            board.retire(second),
            1,
            "one TASK dropped; the FAULT is not a task"
        );

        // The stale result frees the worker; only the block goes out, and the
        // fault armed for the dropped task went with it.
        assert_eq!(
            board.on_frame(WORKER, GENERATION, FrameKind::TaskResult, JOB, ROUND),
            Verdict::Stale
        );
        assert_eq!(
            board.pop_ready(WORKER, now).map(|frame| frame.kind()),
            Some(FrameKind::LoadBlock)
        );
        assert!(board.pop_ready(WORKER, now).is_none());
        assert!(
            board.lanes[WORKER].busy.is_none(),
            "idle, not waiting on anything"
        );
    }

    #[test]
    fn reinstalling_a_job_voids_its_rounds_and_supersedes_queued_blocks() {
        let now = Instant::now();
        let (mut board, first) = busy_board(now);
        let next = board.open(JOB, now);
        board.enqueue(WORKER, None, load_block(JOB));
        board.enqueue(WORKER, None, load_block(JOB + 1));
        board.enqueue(WORKER, Some(next), task(JOB, ROUND + 1));
        assert_eq!(board.retire_job(JOB), 1);
        assert!(board.has_news(first) && board.has_news(next), "both void");
        let queued: Vec<u64> = board.lanes[WORKER]
            .queue
            .iter()
            .map(|q| q.frame.job())
            .collect();
        assert_eq!(queued, [JOB + 1], "the other job's block still ships");
    }

    #[test]
    fn a_task_times_out_from_the_instant_it_was_sent_even_after_its_round_retired() {
        let sent_at = Instant::now();
        let (mut board, ticket) = busy_board(sent_at);
        board.retire(ticket);
        assert_eq!(board.next_deadline(TIMEOUT), Some(sent_at + TIMEOUT));
        let just_before = sent_at + TIMEOUT - Duration::from_millis(1);
        assert!(board.drop_overdue(just_before, TIMEOUT).is_empty());
        // A queued frame must not wait forever behind a wedged worker.
        board.enqueue(WORKER, None, load_block(JOB));
        assert_eq!(
            board.drop_overdue(sent_at + TIMEOUT, TIMEOUT),
            [(WORKER, ROUND), (1, ROUND)]
        );
        assert!(board.lanes[WORKER].queue.is_empty());
        assert_eq!(board.next_deadline(TIMEOUT), None);
        // The dead connection's reader reports in: nothing left to do.
        assert_eq!(
            board.on_failure(WORKER, GENERATION, EvictionReason::Disconnected),
            Verdict::Ignored
        );
    }

    #[test]
    fn a_lost_connection_leaves_every_round_it_was_awaited_in() {
        let now = Instant::now();
        let (mut board, first) = busy_board(now);
        let second = board.open(JOB + 1, now);
        board.enqueue(WORKER, Some(second), task(JOB + 1, 0));
        board.enqueue(1, Some(second), task(JOB + 1, 0));
        board.disconnect(WORKER);
        assert_eq!(board.take_news(first, now).pending, [1]);
        assert_eq!(board.take_news(second, now).pending, [1]);
    }
}
