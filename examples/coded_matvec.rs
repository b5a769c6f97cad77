//! Coded matrix–vector multiplication on a *real threaded* cluster.
//!
//! This example exercises the public API at a lower level than the training
//! driver: it reproduces the paper's Fig. 1 workflow — encode a matrix with a
//! systematic `(N, K)` MDS code, hand each share to a worker thread, multiply
//! by a vector, verify each returned result with a Freivalds key and decode
//! from the fastest verified results — through the same round path the
//! trainer uses (`WireRunner` over an `Executor`), here the
//! `ThreadedExecutor`, so the straggler really is a thread that finishes late.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example coded_matvec
//! ```

use avcc::coding::{EncodedDataset, SchemeConfig};
use avcc::core::{BatchRoundTask, WireRunner};
use avcc::field::{F25, P25};
use avcc::linalg::{mat_vec, Matrix};
use avcc::sim::attack::{AttackModel, ByzantineSpec};
use avcc::sim::cluster::ClusterProfile;
use avcc::sim::executor::ThreadedExecutor;
use avcc::verify::{KeyGenConfig, MatVecKey};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let workers = 12;
    let partitions = 9;

    // A 900 x 63 integer matrix, split into 9 blocks and MDS-encoded into 12.
    let matrix = Matrix::from_vec(900, 63, avcc::field::random_matrix(&mut rng, 900, 63));
    let input: Vec<F25> = avcc::field::random_vector(&mut rng, 63);
    let expected = mat_vec(&matrix, &input);

    // No pads (T = 0), so the encode draws nothing from `rng`.
    let config = SchemeConfig::linear(workers, partitions, workers - partitions, 0)
        .expect("valid MDS configuration");
    let dataset = EncodedDataset::<P25>::encode(&matrix, config, &mut rng);
    let shares = dataset.shares();
    println!(
        "encoded {} data blocks into {} coded shares",
        partitions,
        shares.len()
    );

    // One-time Freivalds keys, one per worker.
    let keys: Vec<MatVecKey<P25>> = shares
        .iter()
        .map(|share| MatVecKey::generate(share, KeyGenConfig::default(), &mut rng))
        .collect();

    // Worker 2 is a straggler; worker 5 is Byzantine (reverse-value attack).
    let profile = ClusterProfile::uniform(workers).with_stragglers(&[2], 30.0);
    let byzantine = ByzantineSpec::new([5], AttackModel::reverse());
    let mut executor = ThreadedExecutor::new(profile);

    // One task per worker: its coded share and the broadcast input (a batch
    // of one). The runner ships the shares once, runs the round, and applies
    // the attack to worker 5's result on arrival.
    let tasks = BatchRoundTask::for_shares(shares, std::slice::from_ref(&input));
    let outcomes = WireRunner::new()
        .run_batch_round(&mut executor, 0, &tasks, &byzantine)
        .expect("the round runs");

    // Verify in arrival order, keep the first K verified results.
    let mut verified = Vec::new();
    for outcome in &outcomes {
        if verified.len() >= partitions {
            break;
        }
        let product = &outcome.payload[0];
        if keys[outcome.worker].verify(&input, product) {
            println!(
                "worker {:>2} arrived at {:>7.1} ms: verified",
                outcome.worker,
                outcome.arrival_seconds * 1e3
            );
            verified.push((outcome.worker, product.clone()));
        } else {
            println!(
                "worker {:>2} arrived at {:>7.1} ms: REJECTED (Byzantine)",
                outcome.worker,
                outcome.arrival_seconds * 1e3
            );
        }
    }

    let decoded: Vec<F25> = dataset
        .decoder()
        .decode_erasure(&verified)
        .expect("enough verified results to decode")
        .concat();
    assert_eq!(decoded, expected);
    println!(
        "decoded X*b correctly from {} verified results (out of {} workers)",
        verified.len(),
        workers
    );
}
