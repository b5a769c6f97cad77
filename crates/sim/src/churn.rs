//! Deterministic fleet churn: seeded schedules of worker crashes, joins,
//! stalls, corruption windows and network flaps, plus the chaos-harness
//! constructors used by the differential matrix tests.
//!
//! Elasticity is modeled on the *schedule clock*: every action fires at a
//! scripted **round index**, never at a wall-clock instant, so a churn run is
//! bit-reproducible on an arbitrarily loaded host. Executors feed their round
//! counter into [`ChurnState::advance_to`] before dispatching; the state
//! answers "is worker `w` down / stalled / corrupting right now?" and records
//! a typed [`ChurnEvent`] for every transition.
//!
//! The key invariant the chaos harness leans on: a churned worker only ever
//! *removes* its result from a round (crash/flap), *delays* it (stall), or
//! makes it *detectably invalid* (corrupt — the payload is clobbered with a
//! non-canonical value that the wire lift rejects). Decode recovers the exact
//! field values from any sufficient honest subset, so every recoverable
//! schedule yields a model bit-identical to the quiet-fleet oracle.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scripted churn action, fired at a scheduled round.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnAction {
    /// The worker goes down and stays down (until an explicit [`Join`]).
    ///
    /// [`Join`]: ChurnAction::Join
    Crash {
        /// The worker that crashes.
        worker: usize,
    },
    /// The worker (re-)joins the fleet and serves rounds again.
    Join {
        /// The worker that joins.
        worker: usize,
    },
    /// The worker stays up but runs `multiplier` times slower for the next
    /// `rounds` rounds (a transient straggler burst).
    Stall {
        /// The worker that stalls.
        worker: usize,
        /// How many rounds the stall lasts.
        rounds: u64,
        /// Slowdown multiplier while stalled.
        multiplier: f64,
    },
    /// The worker returns detectably corrupt payloads for `rounds` rounds,
    /// then behaves honestly again (corrupt-then-rejoin).
    Corrupt {
        /// The worker that corrupts its results.
        worker: usize,
        /// How many rounds the corruption window lasts.
        rounds: u64,
    },
    /// The worker's link drops for `rounds` rounds and then comes back
    /// (a network flap with automatic re-admission).
    Flap {
        /// The worker whose link flaps.
        worker: usize,
        /// How many rounds the link stays down.
        rounds: u64,
    },
    /// A correlated straggler burst: every worker in `group` slows down by
    /// `multiplier` for `rounds` rounds (one event takes a whole rack slow).
    SlowBurst {
        /// The workers in the slow group (e.g. one rack).
        group: Vec<usize>,
        /// How many rounds the burst lasts.
        rounds: u64,
        /// Slowdown multiplier for the whole group.
        multiplier: f64,
    },
}

impl ChurnAction {
    /// The largest worker index this action touches, if any.
    fn max_worker(&self) -> Option<usize> {
        match self {
            ChurnAction::Crash { worker }
            | ChurnAction::Join { worker }
            | ChurnAction::Stall { worker, .. }
            | ChurnAction::Corrupt { worker, .. }
            | ChurnAction::Flap { worker, .. } => Some(*worker),
            ChurnAction::SlowBurst { group, .. } => group.iter().copied().max(),
        }
    }
}

/// A deterministic, seeded script of churn actions keyed by round index.
///
/// Build one with [`ChurnSchedule::quiet`] + [`ChurnSchedule::at`], with the
/// [`ChaosSchedule`] constructors, or with the seeded generator
/// [`ChurnSchedule::seeded`]. Install it on an executor
/// (`ThreadedExecutor::set_churn` / `SocketExecutor::set_churn`) and the
/// executor consumes it round by round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnSchedule {
    actions: BTreeMap<u64, Vec<ChurnAction>>,
}

impl ChurnSchedule {
    /// The empty schedule: a quiet fleet, no churn at any round.
    pub fn quiet() -> Self {
        ChurnSchedule::default()
    }

    /// Adds `action` at round `round` (builder style; actions at the same
    /// round fire in insertion order).
    pub fn at(mut self, round: u64, action: ChurnAction) -> Self {
        self.actions.entry(round).or_default().push(action);
        self
    }

    /// `true` iff the schedule contains no actions.
    pub fn is_quiet(&self) -> bool {
        self.actions.is_empty()
    }

    /// The actions scheduled at exactly round `round`.
    pub fn actions_at(&self, round: u64) -> &[ChurnAction] {
        self.actions.get(&round).map_or(&[], Vec::as_slice)
    }

    /// The last round with a scheduled action, or `None` when quiet.
    pub fn last_round(&self) -> Option<u64> {
        self.actions.keys().next_back().copied()
    }

    /// The largest worker index the schedule touches, or `None` when quiet.
    pub fn max_worker(&self) -> Option<usize> {
        self.actions
            .values()
            .flatten()
            .filter_map(ChurnAction::max_worker)
            .max()
    }

    /// A deterministic pseudo-random schedule over `workers` workers and
    /// `rounds` rounds: flaps and stalls with bounded duration, never more
    /// than `max_down` workers down at once. Same seed, same schedule —
    /// byte-for-byte — so property tests shrink reproducibly.
    pub fn seeded(seed: u64, workers: usize, rounds: u64, max_down: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut schedule = ChurnSchedule::quiet();
        if workers == 0 || rounds == 0 {
            return schedule;
        }
        // (worker, back_up_at) windows currently keeping a worker down.
        let mut down_windows: Vec<(usize, u64)> = Vec::new();
        let mut round = 1 + rng.gen_range(0..3.min(rounds));
        while round < rounds {
            down_windows.retain(|&(_, up_at)| up_at > round);
            let worker = rng.gen_range(0..workers);
            let busy = down_windows.iter().any(|&(w, _)| w == worker);
            let duration = 1 + rng.gen_range(0..3) as u64;
            if !busy {
                if down_windows.len() < max_down && rng.gen_bool(0.5) {
                    schedule = schedule.at(
                        round,
                        ChurnAction::Flap {
                            worker,
                            rounds: duration,
                        },
                    );
                    down_windows.push((worker, round + duration));
                } else {
                    schedule = schedule.at(
                        round,
                        ChurnAction::Stall {
                            worker,
                            rounds: duration,
                            multiplier: 2.0 + rng.gen_range(0.0..6.0),
                        },
                    );
                }
            }
            round += 1 + rng.gen_range(0..4) as u64;
        }
        schedule
    }
}

/// Constructors for the chaos-harness fault families — each returns an
/// ordinary [`ChurnSchedule`] scripting one named fault shape, so the
/// differential matrix test enumerates
/// `{crash, stall, corrupt-then-rejoin, flap} × {workers}` uniformly.
#[derive(Debug, Clone, Copy)]
pub struct ChaosSchedule;

impl ChaosSchedule {
    /// Every listed worker crashes at `round` (and stays down).
    pub fn crash(workers: &[usize], round: u64) -> ChurnSchedule {
        workers.iter().fold(ChurnSchedule::quiet(), |s, &worker| {
            s.at(round, ChurnAction::Crash { worker })
        })
    }

    /// Every listed worker stalls by `multiplier` for `rounds` rounds
    /// starting at `round`.
    pub fn stall(workers: &[usize], round: u64, rounds: u64, multiplier: f64) -> ChurnSchedule {
        workers.iter().fold(ChurnSchedule::quiet(), |s, &worker| {
            s.at(
                round,
                ChurnAction::Stall {
                    worker,
                    rounds,
                    multiplier,
                },
            )
        })
    }

    /// Every listed worker serves corrupt results for `rounds` rounds
    /// starting at `round`, then rejoins honestly.
    pub fn corrupt_then_rejoin(workers: &[usize], round: u64, rounds: u64) -> ChurnSchedule {
        workers.iter().fold(ChurnSchedule::quiet(), |s, &worker| {
            s.at(round, ChurnAction::Corrupt { worker, rounds })
        })
    }

    /// Every listed worker's link flaps down for `rounds` rounds starting at
    /// `round`, then re-admits.
    pub fn flap(workers: &[usize], round: u64, rounds: u64) -> ChurnSchedule {
        workers.iter().fold(ChurnSchedule::quiet(), |s, &worker| {
            s.at(round, ChurnAction::Flap { worker, rounds })
        })
    }
}

/// What happened to the fleet, as a typed record in the metrics stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEventKind {
    /// A worker crashed (scheduled, stays down).
    Crash,
    /// A worker (re-)joined the fleet.
    Join,
    /// A stall window opened on a worker.
    StallStart,
    /// A stall window closed.
    StallEnd,
    /// A corruption window opened on a worker.
    CorruptStart,
    /// A corruption window closed (the worker is honest again).
    CorruptEnd,
    /// A network flap took a worker's link down.
    FlapDown,
    /// A flapped link came back up (re-admission).
    FlapUp,
    /// The driver parked a round: live workers dropped below the recovery
    /// threshold, so the round waits instead of failing the job.
    Parked,
    /// A parked round resumed after re-admission restored decodability.
    Resumed,
    /// The stall budget ran out and the driver shrink-recoded `(N, K)` to
    /// restore decodability with the workers still live.
    ShrinkRecoded,
}

/// One typed churn record: what happened, to whom, at which schedule round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// The round (schedule clock) at which the event fired.
    pub round: u64,
    /// The worker involved (for fleet-level events: the live worker count).
    pub worker: usize,
    /// What happened.
    pub kind: ChurnEventKind,
}

/// The runtime state of a schedule being consumed: which workers are
/// currently down / stalled / corrupting, advanced round by round.
#[derive(Debug, Clone)]
pub struct ChurnState {
    schedule: ChurnSchedule,
    /// Highest round already processed (`None` before the first advance).
    processed: Option<u64>,
    round: u64,
    down: Vec<bool>,
    stall_until: Vec<u64>,
    stall_multiplier: Vec<f64>,
    corrupt_until: Vec<u64>,
    rejoin_at: Vec<Option<u64>>,
    events: Vec<ChurnEvent>,
}

impl ChurnState {
    /// A state consuming `schedule` over a fleet of `workers` workers.
    ///
    /// Panics if the schedule addresses a worker index `≥ workers`.
    pub fn new(schedule: ChurnSchedule, workers: usize) -> Self {
        if let Some(max) = schedule.max_worker() {
            assert!(
                max < workers,
                "churn schedule addresses worker {max} but the fleet has {workers} workers"
            );
        }
        ChurnState {
            schedule,
            processed: None,
            round: 0,
            down: vec![false; workers],
            stall_until: vec![0; workers],
            stall_multiplier: vec![1.0; workers],
            corrupt_until: vec![0; workers],
            rejoin_at: vec![None; workers],
            events: Vec::new(),
        }
    }

    /// Processes every scheduled tick up to and including `round` (skipped
    /// rounds fire their actions too — the clock is the round index, not the
    /// call count). Idempotent for non-increasing rounds.
    pub fn advance_to(&mut self, round: u64) {
        let start = match self.processed {
            Some(p) if round <= p => {
                self.round = self.round.max(round);
                return;
            }
            Some(p) => p + 1,
            None => 0,
        };
        for r in start..=round {
            self.tick(r);
        }
        self.processed = Some(round);
        self.round = round;
    }

    /// Applies one round tick: expiries first, then scheduled actions.
    fn tick(&mut self, r: u64) {
        for w in 0..self.down.len() {
            if self.rejoin_at[w] == Some(r) {
                self.rejoin_at[w] = None;
                if self.down[w] {
                    self.down[w] = false;
                    self.record(r, w, ChurnEventKind::FlapUp);
                }
            }
            if self.stall_until[w] != 0 && r >= self.stall_until[w] {
                self.stall_until[w] = 0;
                self.stall_multiplier[w] = 1.0;
                self.record(r, w, ChurnEventKind::StallEnd);
            }
            if self.corrupt_until[w] != 0 && r >= self.corrupt_until[w] {
                self.corrupt_until[w] = 0;
                self.record(r, w, ChurnEventKind::CorruptEnd);
            }
        }
        for action in self.schedule.actions_at(r).to_vec() {
            self.apply(r, &action);
        }
    }

    fn apply(&mut self, r: u64, action: &ChurnAction) {
        match *action {
            ChurnAction::Crash { worker } => {
                if !self.down[worker] {
                    self.down[worker] = true;
                    self.rejoin_at[worker] = None;
                    self.record(r, worker, ChurnEventKind::Crash);
                }
            }
            ChurnAction::Join { worker } => {
                if self.down[worker] {
                    self.down[worker] = false;
                    self.rejoin_at[worker] = None;
                    self.record(r, worker, ChurnEventKind::Join);
                }
            }
            ChurnAction::Stall {
                worker,
                rounds,
                multiplier,
            } => {
                self.stall_until[worker] = r + rounds.max(1);
                self.stall_multiplier[worker] = multiplier.max(1.0);
                self.record(r, worker, ChurnEventKind::StallStart);
            }
            ChurnAction::Corrupt { worker, rounds } => {
                self.corrupt_until[worker] = r + rounds.max(1);
                self.record(r, worker, ChurnEventKind::CorruptStart);
            }
            ChurnAction::Flap { worker, rounds } => {
                if !self.down[worker] {
                    self.down[worker] = true;
                    self.rejoin_at[worker] = Some(r + rounds.max(1));
                    self.record(r, worker, ChurnEventKind::FlapDown);
                }
            }
            ChurnAction::SlowBurst {
                ref group,
                rounds,
                multiplier,
            } => {
                for &worker in group {
                    self.stall_until[worker] = r + rounds.max(1);
                    self.stall_multiplier[worker] = multiplier.max(1.0);
                    self.record(r, worker, ChurnEventKind::StallStart);
                }
            }
        }
    }

    fn record(&mut self, round: u64, worker: usize, kind: ChurnEventKind) {
        self.events.push(ChurnEvent {
            round,
            worker,
            kind,
        });
    }

    /// The round the state has been advanced to.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// `true` iff worker `w` is currently down (crashed or mid-flap).
    pub fn is_down(&self, w: usize) -> bool {
        self.down[w]
    }

    /// Number of workers currently up.
    pub fn live_count(&self) -> usize {
        self.down.iter().filter(|&&d| !d).count()
    }

    /// The extra slowdown multiplier on worker `w` right now (1.0 = none).
    pub fn slowdown_multiplier(&self, w: usize) -> f64 {
        if self.round < self.stall_until[w] {
            self.stall_multiplier[w]
        } else {
            1.0
        }
    }

    /// `true` iff worker `w` is inside a corruption window right now.
    pub fn is_corrupting(&self, w: usize) -> bool {
        self.round < self.corrupt_until[w]
    }

    /// Every typed event recorded so far, in firing order.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// The schedule being consumed.
    pub fn schedule(&self) -> &ChurnSchedule {
        &self.schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_schedule_never_touches_the_fleet() {
        let mut state = ChurnState::new(ChurnSchedule::quiet(), 4);
        state.advance_to(100);
        assert_eq!(state.live_count(), 4);
        assert!(state.events().is_empty());
        assert!((0..4).all(|w| !state.is_down(w) && !state.is_corrupting(w)));
    }

    #[test]
    fn crash_is_permanent_until_join() {
        let schedule = ChurnSchedule::quiet()
            .at(2, ChurnAction::Crash { worker: 1 })
            .at(5, ChurnAction::Join { worker: 1 });
        let mut state = ChurnState::new(schedule, 3);
        state.advance_to(1);
        assert!(!state.is_down(1));
        state.advance_to(2);
        assert!(state.is_down(1));
        assert_eq!(state.live_count(), 2);
        state.advance_to(4);
        assert!(state.is_down(1));
        state.advance_to(5);
        assert!(!state.is_down(1));
        let kinds: Vec<_> = state.events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![ChurnEventKind::Crash, ChurnEventKind::Join]);
    }

    #[test]
    fn flap_rejoins_automatically() {
        let schedule = ChurnSchedule::quiet().at(
            3,
            ChurnAction::Flap {
                worker: 0,
                rounds: 2,
            },
        );
        let mut state = ChurnState::new(schedule, 2);
        state.advance_to(3);
        assert!(state.is_down(0));
        state.advance_to(4);
        assert!(state.is_down(0));
        state.advance_to(5);
        assert!(!state.is_down(0));
        let kinds: Vec<_> = state.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![ChurnEventKind::FlapDown, ChurnEventKind::FlapUp]
        );
    }

    #[test]
    fn skipped_rounds_still_fire_their_actions() {
        // The clock is the round index: advancing straight to round 10 must
        // process the flap at 3 AND its rejoin at 5.
        let schedule = ChurnSchedule::quiet().at(
            3,
            ChurnAction::Flap {
                worker: 0,
                rounds: 2,
            },
        );
        let mut state = ChurnState::new(schedule, 1);
        state.advance_to(10);
        assert!(!state.is_down(0));
        assert_eq!(state.events().len(), 2);
    }

    #[test]
    fn stall_window_applies_and_expires() {
        let schedule = ChurnSchedule::quiet().at(
            1,
            ChurnAction::Stall {
                worker: 2,
                rounds: 3,
                multiplier: 6.0,
            },
        );
        let mut state = ChurnState::new(schedule, 4);
        state.advance_to(0);
        assert_eq!(state.slowdown_multiplier(2), 1.0);
        state.advance_to(1);
        assert_eq!(state.slowdown_multiplier(2), 6.0);
        state.advance_to(3);
        assert_eq!(state.slowdown_multiplier(2), 6.0);
        state.advance_to(4);
        assert_eq!(state.slowdown_multiplier(2), 1.0);
        let kinds: Vec<_> = state.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![ChurnEventKind::StallStart, ChurnEventKind::StallEnd]
        );
    }

    #[test]
    fn corrupt_window_closes_on_schedule() {
        let schedule = ChurnSchedule::quiet().at(
            2,
            ChurnAction::Corrupt {
                worker: 1,
                rounds: 2,
            },
        );
        let mut state = ChurnState::new(schedule, 2);
        state.advance_to(2);
        assert!(state.is_corrupting(1));
        assert!(!state.is_down(1));
        state.advance_to(3);
        assert!(state.is_corrupting(1));
        state.advance_to(4);
        assert!(!state.is_corrupting(1));
    }

    #[test]
    fn slow_burst_takes_the_whole_group_down_together() {
        let schedule = ChurnSchedule::quiet().at(
            1,
            ChurnAction::SlowBurst {
                group: vec![0, 1, 2],
                rounds: 2,
                multiplier: 8.0,
            },
        );
        let mut state = ChurnState::new(schedule, 6);
        state.advance_to(1);
        for w in 0..3 {
            assert_eq!(state.slowdown_multiplier(w), 8.0);
        }
        for w in 3..6 {
            assert_eq!(state.slowdown_multiplier(w), 1.0);
        }
    }

    #[test]
    fn advance_is_idempotent_for_same_round() {
        let schedule = ChurnSchedule::quiet().at(1, ChurnAction::Crash { worker: 0 });
        let mut state = ChurnState::new(schedule, 2);
        state.advance_to(1);
        state.advance_to(1);
        state.advance_to(1);
        assert_eq!(state.events().len(), 1);
    }

    #[test]
    fn seeded_schedules_are_deterministic_and_bounded() {
        let a = ChurnSchedule::seeded(7, 8, 40, 2);
        let b = ChurnSchedule::seeded(7, 8, 40, 2);
        assert_eq!(a, b);
        assert!(!a.is_quiet());
        let c = ChurnSchedule::seeded(8, 8, 40, 2);
        assert_ne!(a, c);
        // Bound holds: replay and check live count never dips below 8 - 2.
        let mut state = ChurnState::new(a, 8);
        for round in 0..=45 {
            state.advance_to(round);
            assert!(state.live_count() >= 6, "round {round}: too many down");
        }
    }

    #[test]
    fn chaos_constructors_script_the_named_faults() {
        let crash = ChaosSchedule::crash(&[1, 4], 3);
        assert_eq!(crash.actions_at(3).len(), 2);
        let stall = ChaosSchedule::stall(&[0], 2, 4, 8.0);
        assert!(matches!(
            stall.actions_at(2)[0],
            ChurnAction::Stall {
                worker: 0,
                rounds: 4,
                ..
            }
        ));
        let corrupt = ChaosSchedule::corrupt_then_rejoin(&[2], 1, 3);
        assert!(matches!(
            corrupt.actions_at(1)[0],
            ChurnAction::Corrupt {
                worker: 2,
                rounds: 3
            }
        ));
        let flap = ChaosSchedule::flap(&[5], 4, 2);
        assert!(matches!(
            flap.actions_at(4)[0],
            ChurnAction::Flap {
                worker: 5,
                rounds: 2
            }
        ));
        assert_eq!(flap.last_round(), Some(4));
        assert_eq!(flap.max_worker(), Some(5));
    }

    #[test]
    #[should_panic(expected = "addresses worker")]
    fn schedule_beyond_fleet_width_panics() {
        let schedule = ChurnSchedule::quiet().at(1, ChurnAction::Crash { worker: 9 });
        let _ = ChurnState::new(schedule, 4);
    }
}
