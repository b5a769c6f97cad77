//! Contiguous spans of independent work, one per core the host gives this
//! process.
//!
//! The master's one-time preprocessing (paper §IV-A steps 1–2: encode the
//! dataset, generate the verification keys), the lowering of the shares to
//! wire blocks, and the test accuracy and training loss it records after
//! every update are each a list of pieces that share nothing but read-only
//! inputs. [`map_spans`] cuts such a list into one contiguous span per thread,
//! runs the first span on the caller and the rest on scoped threads, and
//! returns the results in list order — so what is computed, and in which order
//! it is laid out, does not depend on how many threads ran it.
//!
//! This is `std::thread::scope` and nothing else: the threads live for one
//! call, borrow the caller's data, and are joined before the call returns. It
//! lives here because this is the lowest crate its callers (`avcc-coding`,
//! `avcc-verify`, `avcc-core`, `avcc-ml`) share; it is not a pool, keeps no
//! threads around and has no configuration.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Work, in multiply-adds (or element moves of comparable cost), below which
/// [`span_threads`] answers 1 and the caller's one body runs inline.
///
/// Spawning and joining one scoped thread costs 16–18 µs at the median on the
/// capture host (2 vCPUs; 30 µs at the 90th percentile and 0.3–0.7 ms at the
/// 99th, over 3 × 2 000 two-item [`map_spans`] calls), and the kernels that
/// run under it retire a multiply-add in 0.6–2.5 ns, so half a million
/// multiply-adds is 0.3–1.3 ms of work: the second core's half of that is
/// worth several spawns even on a bad one. Below the line sit every
/// unit-test shape, the 240 × 128 jobs of `serve_mixed` (encode ≈ 0.2 M,
/// keys ≈ 0.05 M) and the per-iteration evaluation of its training jobs
/// ((300 + 900) × 63 ≈ 0.08 M); above it the 1920 × 512 encode of
/// `matmul_batch` (≈ 3.9 M, its four parity shares), its twelve keys and
/// twelve wire blocks (≈ 1.5 M each), the parity encode behind `train_*`
/// set-up (≈ 1.4 M per round) and the
/// evaluation `train_*` runs after every update ((360 + 1 800) × 261
/// ≈ 0.56 M, `LogisticModel::evaluate`).
pub const SPAWN_MIN_WORK: usize = 1 << 19;

/// How many threads [`map_spans`] should use for `units` independent pieces
/// totalling `work` multiply-adds: 1 below [`SPAWN_MIN_WORK`], otherwise the
/// cores available to this process (`std::thread::available_parallelism`,
/// read once — std re-parses the cgroup files on every call), capped by the
/// number of pieces. Never 0.
pub fn span_threads(units: usize, work: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    if work < SPAWN_MIN_WORK {
        return 1;
    }
    let cores =
        *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get));
    cores.min(units).max(1)
}

/// Maps `f` over `items`, in up to `threads` contiguous spans run side by
/// side, and returns the results in item order.
///
/// The first span runs on the calling thread, the others on scoped threads
/// that are joined before this returns; with `threads ≤ 1` (or a single
/// item) nothing is spawned. A panic in `f` on any thread resurfaces on the
/// caller with its original payload.
pub fn map_spans<T, U, F>(items: Vec<T>, threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let per_span = items.len().div_ceil(threads.max(1)).max(1);
    let mut items = items.into_iter();
    let run = |span: Vec<T>| span.into_iter().map(&f).collect::<Vec<U>>();
    let first: Vec<T> = items.by_ref().take(per_span).collect();
    std::thread::scope(|scope| {
        let mut spawned = Vec::new();
        while items.len() > 0 {
            let span: Vec<T> = items.by_ref().take(per_span).collect();
            spawned.push(scope.spawn(move || run(span)));
        }
        let mut results = run(first);
        for handle in spawned {
            match handle.join() {
                Ok(part) => results.extend(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order_for_every_thread_count() {
        for len in [0usize, 1, 2, 5, 12, 13] {
            let items: Vec<usize> = (0..len).collect();
            let expected: Vec<usize> = items.iter().map(|i| i * i + 1).collect();
            for threads in [0, 1, 2, 3, 4, 12, 40] {
                let squares = map_spans(items.clone(), threads, |i| i * i + 1);
                assert_eq!(squares, expected, "len = {len}, threads = {threads}");
            }
        }
    }

    #[test]
    fn spans_are_contiguous_and_the_first_runs_on_the_caller() {
        let caller = std::thread::current().id();
        let threads_of = map_spans((0..7).collect(), 3, |_: usize| std::thread::current().id());
        // ⌈7 / 3⌉ = 3 items per span: [0, 1, 2] here, [3, 4, 5] and [6] on
        // two other threads.
        assert!(threads_of[..3].iter().all(|&id| id == caller));
        assert!(threads_of[3..6].iter().all(|&id| id == threads_of[3]));
        assert_ne!(threads_of[3], caller);
        assert_ne!(threads_of[6], caller);
        assert_ne!(threads_of[6], threads_of[3]);
    }

    #[test]
    fn items_may_carry_disjoint_mutable_borrows() {
        let mut buffer = vec![0u32; 10];
        let pieces: Vec<(usize, &mut [u32])> = buffer.chunks_mut(3).enumerate().collect();
        map_spans(pieces, 2, |(index, piece)| piece.fill(index as u32 + 1));
        assert_eq!(buffer, [1, 1, 1, 2, 2, 2, 3, 3, 3, 4]);
    }

    #[test]
    fn small_work_stays_inline_and_large_work_is_capped_by_the_units() {
        assert_eq!(span_threads(12, SPAWN_MIN_WORK - 1), 1);
        assert_eq!(span_threads(0, usize::MAX), 1);
        assert_eq!(span_threads(1, usize::MAX), 1);
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(span_threads(usize::MAX, SPAWN_MIN_WORK), cores);
    }

    #[test]
    #[should_panic(expected = "span 1 failed")]
    fn a_panic_on_a_spawned_span_reaches_the_caller_with_its_message() {
        map_spans(vec![0, 1], 2, |span: usize| {
            assert!(span == 0, "span {span} failed");
        });
    }
}
