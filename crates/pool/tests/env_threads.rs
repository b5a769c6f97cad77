//! `AVCC_THREADS` override test.
//!
//! Lives in its own integration-test binary (one process per test file) so
//! the environment variable is guaranteed to be set before the global pool's
//! one-time initialization — unit tests inside the library share a process
//! and cannot control first-use order.

#[test]
fn avcc_threads_one_forces_an_inline_global_pool() {
    std::env::set_var("AVCC_THREADS", "1");
    assert_eq!(avcc_pool::global().parallelism(), 1);

    // Everything still works, inline, in spawn order on the calling thread.
    let caller = std::thread::current().id();
    let mut order = Vec::new();
    avcc_pool::scope(|scope| {
        let order = &mut order;
        scope.spawn(move || order.push((1, std::thread::current().id())));
    });
    avcc_pool::scope(|scope| {
        let order = &mut order;
        scope.spawn(move || order.push((2, std::thread::current().id())));
    });
    assert_eq!(
        order,
        vec![(1, caller), (2, caller)],
        "AVCC_THREADS=1 must run tasks inline on the caller"
    );

    // Several tasks in one scope all run before `scope` returns.
    let mut sums = [0usize; 3];
    avcc_pool::scope(|scope| {
        for (slot, range) in sums.iter_mut().zip([0..10, 10..60, 60..100]) {
            scope.spawn(move || *slot = range.sum());
        }
    });
    assert_eq!(sums.iter().sum::<usize>(), (0..100).sum::<usize>());
}
