//! Informational comparison of executor round latency: in-process threads vs
//! the TCP-loopback socket runtime vs UDS — same blocks, same inputs, same
//! kernel, so the spread is pure runtime overhead (frame encode/decode, CRC,
//! syscalls, loopback hops).
//!
//! A socket round being slower than a threaded round is expected physics;
//! the numbers feed `EXPERIMENTS.md`.

use std::time::Duration;

use avcc_sim::cluster::ClusterProfile;
use avcc_sim::executor::{Executor, ThreadedExecutor};
use avcc_sim::socket::{SocketConfig, SocketExecutor, Transport};
use avcc_sim::wire::Block;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

const Q: u64 = 18_446_744_069_414_584_321; // Goldilocks

fn elements(count: usize, seed: u64) -> Vec<u64> {
    (0..count as u64)
        .map(|i| {
            seed.wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(i.wrapping_mul(1_442_695_040_888_963_407))
                % Q
        })
        .collect()
}

fn blocks(workers: usize, rows: usize, cols: usize) -> Vec<Block> {
    (0..workers)
        .map(|w| Block {
            modulus: Q,
            rows: rows as u32,
            cols: cols as u32,
            elements: elements(rows * cols, 0x5EED + w as u64),
        })
        .collect()
}

fn inputs(workers: usize, cols: usize) -> Vec<Vec<Vec<u64>>> {
    (0..workers)
        .map(|w| vec![elements(cols, 0xF00D + w as u64)])
        .collect()
}

fn socket_config(transport: Transport) -> SocketConfig {
    SocketConfig {
        transport,
        connect_timeout: Duration::from_secs(20),
        round_timeout: Duration::from_secs(20),
        ..SocketConfig::default()
    }
}

/// One full round (dispatch + compute + collect) per iteration, with a fresh
/// round number each time so no executor can cache across iterations.
fn time_rounds(
    group: &mut criterion::BenchmarkGroup<'_>,
    id: BenchmarkId,
    executor: &mut dyn Executor,
    job: u64,
    inputs: &[Vec<Vec<u64>>],
    expected: usize,
) {
    let mut round = 0u64;
    group.bench_function(id, |b| {
        b.iter(|| {
            let outcomes = executor
                .execute_round(job, round, black_box(inputs))
                .expect("bench round");
            assert_eq!(outcomes.len(), expected, "bench round lost workers");
            round += 1;
            outcomes
        })
    });
}

fn bench_socket_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("socket_round");
    for (workers, rows, cols) in [(4usize, 32usize, 32usize), (8, 128, 64)] {
        let blocks = blocks(workers, rows, cols);
        let inputs = inputs(workers, cols);
        let job = 1u64;
        let label = format!("w{workers}_r{rows}x{cols}");

        let mut threaded = ThreadedExecutor::new(ClusterProfile::uniform(workers));
        threaded.install_blocks(job, &blocks).unwrap();
        time_rounds(
            &mut group,
            BenchmarkId::new(&label, "threaded"),
            &mut threaded,
            job,
            &inputs,
            workers,
        );

        let mut tcp = SocketExecutor::with_config(
            ClusterProfile::uniform(workers),
            socket_config(Transport::Tcp),
        )
        .expect("spawn TCP fleet");
        tcp.install_blocks(job, &blocks).unwrap();
        time_rounds(
            &mut group,
            BenchmarkId::new(&label, "tcp"),
            &mut tcp,
            job,
            &inputs,
            workers,
        );

        let mut uds = SocketExecutor::with_config(
            ClusterProfile::uniform(workers),
            socket_config(Transport::Uds),
        )
        .expect("spawn UDS fleet");
        uds.install_blocks(job, &blocks).unwrap();
        time_rounds(
            &mut group,
            BenchmarkId::new(&label, "uds"),
            &mut uds,
            job,
            &inputs,
            workers,
        );
    }
    group.finish();
}

criterion_group!(benches, bench_socket_round);
criterion_main!(benches);
