//! [`std::thread::scope`] under the name the `avcc-e2e` harness's
//! `pool.scope12_us` probe binds; no workspace crate depends on this one, and
//! it goes when the harness is next re-bound.

#![forbid(unsafe_code)]

pub use std::thread::scope;

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_runs_every_spawned_task() {
        // The probe's call shape: spawn one empty task per worker, join all.
        let count = AtomicUsize::new(0);
        super::scope(|scope| {
            for _ in 0..12 {
                scope.spawn(|| count.fetch_add(1, Ordering::SeqCst));
            }
        });
        assert_eq!(count.load(Ordering::SeqCst), 12);
    }
}
