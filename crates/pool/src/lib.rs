//! A small work-stealing thread pool with a `scope` API.
//!
//! The build environment is offline, so the workspace cannot depend on rayon;
//! this crate provides the subset of its execution model the AVCC executors
//! and serving fleet need, sized for the workloads in this repository:
//!
//! * **One global pool** ([`global`]), sized from
//!   [`std::thread::available_parallelism`] and overridable with the
//!   `AVCC_THREADS` environment variable (read once, at first use;
//!   `AVCC_THREADS=1` makes every pool operation run inline on the caller).
//! * **Scoped tasks** ([`ThreadPool::scope`]): spawned closures may borrow
//!   from the caller's stack, because `scope` does not return until every
//!   task spawned inside it has finished — the same guarantee
//!   [`std::thread::scope`] gives, without paying an OS-thread spawn per
//!   task.
//! * **Work stealing**: each worker owns a deque; it pushes and pops its own
//!   work LIFO (cache-warm) and steals FIFO from the shared injector or from
//!   the other workers when its own deque runs dry.
//! * **Scope-local helping, not blocking**: a thread that waits for a scope
//!   to drain — whether a pool worker or an external caller — executes
//!   pending tasks *of that scope* while it waits (background workers,
//!   which wait on nothing, run anything). This is what makes *nested*
//!   parallelism compose: a pool task may itself open a scope (an
//!   executor round driven from inside another pool task fans out its own
//!   worker tasks), and every waiter drains the very tasks it is waiting
//!   on, so the nesting can neither deadlock nor oversubscribe the machine
//!   with one OS thread per leaf task (the failure mode of the
//!   scoped-thread fan-out this pool replaced).
//!   Restricting helpers to their own scope keeps a waiter from nesting an
//!   unrelated task (and its runtime) inside its own call stack — callers
//!   that time their own work, like the cluster simulator's round
//!   dispatcher, would otherwise attribute a stranger's compute to
//!   themselves — and bounds helper re-entrancy by the scope nesting
//!   depth. Progress does not need foreign helping: by induction on
//!   nesting depth, the deepest blocked scope's pending tasks are either
//!   queued (its own waiter finds them) or running on a thread that is
//!   actively computing.
//!
//! # Execution model
//!
//! A [`ThreadPool`] of parallelism `n` owns `n − 1` background OS threads;
//! the caller of the blocking [`ThreadPool::scope`] is the `n`-th
//! participant. With `n = 1` there are no background threads at all and
//! every task runs inline, in spawn order, on the caller — useful both for
//! `AVCC_THREADS=1` reproducibility and for measuring parallel overhead.
//!
//! Panics in spawned tasks are caught, forwarded to the thread that called
//! `scope`, and re-thrown after the scope has fully drained (so sibling
//! tasks still complete and borrows never dangle).
//!
//! # Safety
//!
//! The crate contains exactly one `unsafe` operation:
//! `erase_task_lifetime` transmutes a `Box<dyn FnOnce() + Send + 'scope>`
//! to `'static` so it can sit in the pool's queues. Soundness is the scope
//! discipline: every erased task holds the [`Scope`]'s completion latch,
//! and [`ThreadPool::scope`] (including its panic path, via a drop guard)
//! does not return before the latch reaches zero — therefore no erased task
//! can outlive the borrows it captures. This is the same argument rayon
//! makes for its scoped jobs.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A queued unit of work: the erased closure plus the identity of the scope
/// it belongs to (the address of its `ScopeCore` allocation — stable and
/// unambiguous while any of the scope's tasks exist, because every task
/// holds an `Arc` to its core). Closures are erased to `'static` (see
/// [`erase_task_lifetime`]); the scope latch keeps the borrow alive.
struct QueuedTask {
    run: Box<dyn FnOnce() + Send + 'static>,
    scope: usize,
}

type Task = QueuedTask;

/// The single unsafe operation in this crate: forgets a task's borrow
/// lifetime so it can be queued in the (`'static`) pool.
///
/// # Safety
///
/// The caller must guarantee the task runs to completion before `'scope`
/// ends. [`ThreadPool::scope`] guarantees this by counting the task on the
/// scope's latch *before* erasure and refusing to return (even while
/// unwinding) until the latch drains.
unsafe fn erase_task_lifetime<'scope>(
    task: Box<dyn FnOnce() + Send + 'scope>,
) -> Box<dyn FnOnce() + Send + 'static> {
    // SAFETY: `dyn FnOnce() + Send` has the same layout regardless of its
    // lifetime bound; the latch discipline above prevents any use after
    // 'scope ends.
    unsafe { std::mem::transmute(task) }
}

/// Sleep/wake coordination: a generation counter bumped on every push and
/// every scope completion, so would-be sleepers can detect missed wakeups.
struct SleepState {
    epoch: u64,
    shutdown: bool,
}

/// State shared between the pool handle, its workers and active scopes.
struct Shared {
    /// Queue for tasks injected by threads that are not pool workers.
    injector: Mutex<VecDeque<Task>>,
    /// One deque per background worker: owner pushes/pops the back, thieves
    /// steal from the front.
    deques: Vec<Mutex<VecDeque<Task>>>,
    sleep: Mutex<SleepState>,
    wakeup: Condvar,
}

impl Shared {
    /// Announces new work (or a completed latch) to sleeping threads.
    fn notify_all(&self) {
        let mut sleep = self.sleep.lock().expect("pool sleep lock poisoned");
        sleep.epoch = sleep.epoch.wrapping_add(1);
        drop(sleep);
        self.wakeup.notify_all();
    }

    /// Pops a task: the worker's own deque first (LIFO — most recently
    /// spawned, cache-warm), then the injector, then the other workers'
    /// deques (FIFO — the oldest, largest-granularity work).
    ///
    /// With `only_scope` set, only tasks belonging to that scope are taken
    /// (the *scope-local helping* rule — see the crate docs): this is what
    /// waiting threads use, so a thread blocked on a scope never executes a
    /// foreign task inside its own call stack. Background workers pass
    /// `None` and run anything.
    fn find_task(&self, worker: Option<usize>, only_scope: Option<usize>) -> Option<Task> {
        let matches = |task: &Task| only_scope.is_none_or(|scope| task.scope == scope);
        if let Some(index) = worker {
            let mut deque = self.deques[index].lock().expect("pool deque lock poisoned");
            if let Some(position) = deque.iter().rposition(&matches) {
                return deque.remove(position);
            }
        }
        {
            let mut injector = self.injector.lock().expect("pool injector lock poisoned");
            if let Some(position) = injector.iter().position(&matches) {
                return injector.remove(position);
            }
        }
        let start = worker.map_or(0, |index| index + 1);
        let n = self.deques.len();
        for offset in 0..n {
            let victim = (start + offset) % n;
            if Some(victim) == worker {
                continue;
            }
            let mut deque = self.deques[victim]
                .lock()
                .expect("pool deque lock poisoned");
            if let Some(position) = deque.iter().position(&matches) {
                return deque.remove(position);
            }
        }
        None
    }

    /// Queues a task from the current thread: onto the worker's own deque
    /// when called from inside the pool, onto the injector otherwise.
    fn push(self: &Arc<Self>, task: Task) {
        match current_worker(self) {
            Some(index) => self.deques[index]
                .lock()
                .expect("pool deque lock poisoned")
                .push_back(task),
            None => self
                .injector
                .lock()
                .expect("pool injector lock poisoned")
                .push_back(task),
        }
        self.notify_all();
    }
}

thread_local! {
    /// `(pool identity, worker index)` for pool worker threads; the identity
    /// is the address of the pool's `Shared` allocation, so pools in tests
    /// never alias each other.
    static WORKER_INDEX: std::cell::Cell<Option<(usize, usize)>> =
        const { std::cell::Cell::new(None) };
}

/// The calling thread's worker index within `shared`, if it is one of that
/// pool's background workers.
fn current_worker(shared: &Arc<Shared>) -> Option<usize> {
    WORKER_INDEX.with(|cell| match cell.get() {
        Some((pool, index)) if pool == Arc::as_ptr(shared) as usize => Some(index),
        _ => None,
    })
}

impl Shared {
    /// One round of the idle protocol shared by the worker loop and the
    /// scope-wait guard: execute one pending task if any, otherwise sleep
    /// until new work arrives — unless `stop` already holds. Returns `true`
    /// iff `stop` was observed (always under the sleep lock).
    ///
    /// The lost-wakeup argument: snapshot the epoch, *then* re-scan the
    /// queues, and go to sleep only if the epoch is still unchanged when the
    /// sleep lock is re-acquired. Every push bumps the epoch under that lock
    /// *after* inserting into a queue, so a task that the re-scan missed
    /// implies an epoch bump that either prevents the sleep or, if the
    /// pusher is still waiting on the mutex, delivers its `notify_all` once
    /// the sleeper is actually parked. The same holds for `stop` flips,
    /// which also bump the epoch (scope completion via
    /// [`Shared::notify_all`], shutdown in [`ThreadPool`]'s `Drop`).
    fn work_or_sleep(
        &self,
        worker: Option<usize>,
        only_scope: Option<usize>,
        stop: impl Fn(&SleepState) -> bool,
    ) -> bool {
        if let Some(task) = self.find_task(worker, only_scope) {
            (task.run)();
            return false;
        }
        let seen = {
            let sleep = self.sleep.lock().expect("pool sleep lock poisoned");
            if stop(&sleep) {
                return true;
            }
            sleep.epoch
        };
        if let Some(task) = self.find_task(worker, only_scope) {
            (task.run)();
            return false;
        }
        let sleep = self.sleep.lock().expect("pool sleep lock poisoned");
        if stop(&sleep) {
            return true;
        }
        if sleep.epoch == seen {
            let _unused = self.wakeup.wait(sleep).expect("pool sleep lock poisoned");
        }
        false
    }
}

/// The background-worker main loop: run tasks (via [`Shared::work_or_sleep`])
/// until shutdown.
fn worker_loop(shared: Arc<Shared>, index: usize) {
    WORKER_INDEX.with(|cell| cell.set(Some((Arc::as_ptr(&shared) as usize, index))));
    while !shared.work_or_sleep(Some(index), None, |sleep| sleep.shutdown) {}
}

/// The completion latch and panic slot of one [`ThreadPool::scope`] call.
struct ScopeCore {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl ScopeCore {
    fn new() -> Arc<Self> {
        Arc::new(ScopeCore {
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
        })
    }

    /// Records the first panic observed among the scope's tasks.
    fn store_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock().expect("scope panic lock poisoned");
        slot.get_or_insert(payload);
    }
}

/// Handle through which tasks are spawned into an active scope; tasks may
/// borrow anything that outlives `'scope`.
pub struct Scope<'scope> {
    shared: Arc<Shared>,
    core: Arc<ScopeCore>,
    /// Invariant over `'scope` (mirrors `std::thread::Scope`), so the
    /// compiler cannot shrink task borrows to less than the scope's wait.
    _marker: std::marker::PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Spawns a task into the pool. The task may borrow from the enclosing
    /// frame; it is guaranteed to finish before the enclosing
    /// [`ThreadPool::scope`] call returns.
    pub fn spawn<F>(&self, task: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.core.pending.fetch_add(1, Ordering::SeqCst);
        let scope_id = Arc::as_ptr(&self.core) as usize;
        let core = Arc::clone(&self.core);
        let shared = Arc::clone(&self.shared);
        let wrapped: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                core.store_panic(payload);
            }
            core.pending.fetch_sub(1, Ordering::SeqCst);
            shared.notify_all();
        });
        // SAFETY: the task was counted on `core.pending` above, and
        // `ThreadPool::scope` (or its drop guard, on panic) spins the pool
        // until `pending == 0` before 'scope can end.
        let erased = unsafe { erase_task_lifetime(wrapped) };
        self.shared.push(QueuedTask {
            run: erased,
            scope: scope_id,
        });
    }
}

/// Drop guard ensuring a scope drains even when the scope body panics:
/// spawned tasks still borrow the enclosing frame, so unwinding past them
/// without waiting would dangle.
struct ScopeWaitGuard<'pool> {
    shared: &'pool Arc<Shared>,
    core: &'pool Arc<ScopeCore>,
}

impl Drop for ScopeWaitGuard<'_> {
    fn drop(&mut self) {
        // Help with *this scope's* tasks instead of blocking (scope-local
        // helping: running arbitrary foreign tasks here would nest them
        // inside the waiter's call stack and pollute any timing the caller
        // wraps around its own work), via the shared lost-wakeup-free idle
        // protocol. The stop condition is the scope latch reaching zero;
        // its decrement bumps the epoch through `notify_all`, so a sleeper
        // can never miss it.
        let worker = current_worker(self.shared);
        let scope_id = Arc::as_ptr(self.core) as usize;
        while self.core.pending.load(Ordering::SeqCst) != 0 {
            self.shared.work_or_sleep(worker, Some(scope_id), |_| {
                self.core.pending.load(Ordering::SeqCst) == 0
            });
        }
    }
}

/// A work-stealing thread pool. See the crate docs for the execution model;
/// most callers want the process-wide [`global`] pool rather than their own.
pub struct ThreadPool {
    shared: Arc<Shared>,
    parallelism: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("parallelism", &self.parallelism)
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool with the given total parallelism (clamped to at least
    /// 1): `parallelism − 1` background workers plus the calling thread
    /// whenever it blocks in [`ThreadPool::scope`].
    pub fn new(parallelism: usize) -> Self {
        let parallelism = parallelism.max(1);
        let workers = parallelism - 1;
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            sleep: Mutex::new(SleepState {
                epoch: 0,
                shutdown: false,
            }),
            wakeup: Condvar::new(),
        });
        for index in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("avcc-pool-{index}"))
                .spawn(move || worker_loop(shared, index))
                .expect("failed to spawn pool worker");
        }
        ThreadPool {
            shared,
            parallelism,
        }
    }

    /// The pool's total parallelism (background workers + the participating
    /// caller).
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Runs `body` with a [`Scope`] handle, executes every task spawned into
    /// the scope, and returns `body`'s result once all of them (including
    /// nested spawns) have finished.
    ///
    /// The calling thread *participates*: while waiting it executes pending
    /// pool tasks, so nested scopes on pool workers make progress instead of
    /// deadlocking, and a 1-thread pool degenerates to inline execution.
    ///
    /// # Panics
    /// Re-throws the first panic raised by `body` or by any spawned task,
    /// after the scope has fully drained.
    pub fn scope<'scope, R>(&self, body: impl FnOnce(&Scope<'scope>) -> R) -> R {
        let core = ScopeCore::new();
        let scope = Scope {
            shared: Arc::clone(&self.shared),
            core: Arc::clone(&core),
            _marker: std::marker::PhantomData,
        };
        let result = {
            // The guard drains the scope even if `body` panics mid-spawn.
            let _wait = ScopeWaitGuard {
                shared: &self.shared,
                core: &core,
            };
            body(&scope)
        };
        if let Some(payload) = core.panic.lock().expect("scope panic lock poisoned").take() {
            resume_unwind(payload);
        }
        result
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        let mut sleep = self.shared.sleep.lock().expect("pool sleep lock poisoned");
        sleep.shutdown = true;
        sleep.epoch = sleep.epoch.wrapping_add(1);
        drop(sleep);
        self.wakeup_all();
        // Workers exit at their next wakeup; detached join is fine here —
        // they hold only an Arc<Shared> and touch no external state.
    }
}

impl ThreadPool {
    fn wakeup_all(&self) {
        self.shared.wakeup.notify_all();
    }
}

/// Parallelism for the [`global`] pool: the `AVCC_THREADS` environment
/// variable when set to a positive integer, otherwise
/// [`std::thread::available_parallelism`].
fn configured_parallelism() -> usize {
    match std::env::var("AVCC_THREADS") {
        Ok(value) => match value.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!(
                    "avcc-pool: ignoring invalid AVCC_THREADS={value:?} (want an integer >= 1)"
                );
                default_parallelism()
            }
        },
        Err(_) => default_parallelism(),
    }
}

fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The process-wide pool every executor shares, created at first use. Its size
/// is decided once (`AVCC_THREADS` when set to a positive integer, otherwise
/// [`std::thread::available_parallelism`]); later changes to
/// `AVCC_THREADS` have no effect.
pub fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| ThreadPool::new(configured_parallelism()))
}

/// [`ThreadPool::scope`] on the [`global`] pool.
pub fn scope<'scope, R>(body: impl FnOnce(&Scope<'scope>) -> R) -> R {
    global().scope(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Range;
    use std::sync::atomic::AtomicU64;

    fn ranges(total: usize, parts: usize) -> Vec<Range<usize>> {
        if total == 0 || parts == 0 {
            return Vec::new();
        }
        let chunk = total.div_ceil(parts);
        (0..total)
            .step_by(chunk)
            .map(|start| start..(start + chunk).min(total))
            .collect()
    }

    #[test]
    fn scope_runs_every_spawned_task() {
        for parallelism in [1, 2, 4, 8] {
            let pool = ThreadPool::new(parallelism);
            let counter = AtomicU64::new(0);
            pool.scope(|scope| {
                for _ in 0..100 {
                    scope.spawn(|| {
                        counter.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
            assert_eq!(counter.load(Ordering::SeqCst), 100, "p = {parallelism}");
        }
    }

    #[test]
    fn tasks_can_borrow_the_callers_stack() {
        let pool = ThreadPool::new(4);
        let data: Vec<u64> = (0..1000).collect();
        let mut partials = [0u64; 4];
        pool.scope(|scope| {
            for (slot, range) in partials.iter_mut().zip(ranges(data.len(), 4)) {
                let data = &data;
                scope.spawn(move || *slot = data[range].iter().sum());
            }
        });
        assert_eq!(partials.iter().sum::<u64>(), 1000 * 999 / 2);
    }

    #[test]
    fn nested_scopes_make_progress() {
        // More nested scopes than pool threads: only possible to finish if
        // waiting threads help execute queued tasks.
        let pool = ThreadPool::new(2);
        let counter = AtomicU64::new(0);
        pool.scope(|outer| {
            for _ in 0..8 {
                let counter = &counter;
                let pool_ref = &pool;
                outer.spawn(move || {
                    pool_ref.scope(|inner| {
                        for _ in 0..8 {
                            inner.spawn(|| {
                                counter.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn deeply_nested_scopes_on_one_thread_run_inline() {
        let pool = ThreadPool::new(1);
        let mut log = Vec::new();
        pool.scope(|outer| {
            let log = &mut log;
            outer.spawn(move || {
                log.push("outer");
            });
        });
        pool.scope(|_| {});
        assert_eq!(log, vec!["outer"]);
    }

    #[test]
    fn scope_propagates_task_panics_after_draining() {
        let pool = ThreadPool::new(3);
        let completed = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                scope.spawn(|| panic!("task boom"));
                for _ in 0..20 {
                    scope.spawn(|| {
                        completed.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }));
        assert!(result.is_err());
        // Sibling tasks were not abandoned by the panic.
        assert_eq!(completed.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn scope_body_panic_still_drains_spawned_tasks() {
        let pool = ThreadPool::new(3);
        let completed = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                for _ in 0..10 {
                    scope.spawn(|| {
                        completed.fetch_add(1, Ordering::SeqCst);
                    });
                }
                panic!("body boom");
            });
        }));
        assert!(result.is_err());
        assert_eq!(completed.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn global_pool_is_usable() {
        let total = AtomicUsize::new(0);
        scope(|scope| {
            for range in ranges(1000, 8) {
                let total = &total;
                scope.spawn(move || {
                    total.fetch_add(range.len(), Ordering::SeqCst);
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 1000);
        assert!(global().parallelism() >= 1);
    }

    #[test]
    fn waiters_only_help_with_their_own_scope() {
        // Scope-local helping, deterministically observable on a 1-thread
        // pool: while A1 waits on its inner scope, the injector also holds
        // A1's *sibling* A2. The inner wait must skip A2 (a foreign task —
        // running it would nest A2 inside A1's call stack and its timing)
        // and run only the inner task; A2 runs after A1 completes.
        let pool = ThreadPool::new(1);
        let order = Mutex::new(Vec::new());
        pool.scope(|outer| {
            let order = &order;
            let pool_ref = &pool;
            outer.spawn(move || {
                order.lock().unwrap().push("a1-start");
                pool_ref.scope(|inner| {
                    inner.spawn(|| order.lock().unwrap().push("b"));
                });
                order.lock().unwrap().push("a1-end");
            });
            outer.spawn(move || order.lock().unwrap().push("a2"));
        });
        assert_eq!(
            *order.lock().unwrap(),
            vec!["a1-start", "b", "a1-end", "a2"]
        );
    }

    #[test]
    fn pools_do_not_alias_worker_indices() {
        // A worker of pool A must not be treated as a worker of pool B: spawn
        // from inside A's scope onto B and make sure B still drains.
        let a = ThreadPool::new(2);
        let b = ThreadPool::new(2);
        let counter = AtomicU64::new(0);
        a.scope(|scope| {
            let b = &b;
            let counter = &counter;
            scope.spawn(move || {
                b.scope(|inner| {
                    for _ in 0..4 {
                        inner.spawn(|| {
                            counter.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            });
        });
        assert_eq!(counter.load(Ordering::SeqCst), 4);
    }
}
