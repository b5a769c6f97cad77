//! Privacy–throughput tradeoff: sweeps the colluding-worker tolerance `T`
//! on quantized logistic regression and reports what each extra unit of
//! privacy costs in simulated training time.
//!
//! ```text
//! cargo run -p avcc-bench --bin privacy_sweep --release
//! ```
//!
//! With `N = 12` workers, degree-1 encoding and the paper's `S = 2, M = 1`
//! fault design, decodability needs `K + T <= 9`, so every step of `T` is
//! paid for with one partition of parallelism: the per-worker blocks grow
//! as `ceil(rows / K)` and each round slows down accordingly. This is the
//! CodedPrivateML tradeoff surfaced on the AVCC stack — the sweep holds the
//! fault scenario fixed (constant-attack Byzantine worker plus two
//! stragglers) and varies only `(K, T)`.
//!
//! Columns: `t` (colluding tolerance), `k` (data partitions), `threshold`
//! (recovery threshold), `final_accuracy`, `total_seconds` (modeled time of
//! the full run) and `seconds_per_iteration`.

use avcc_bench::{fmt, harness_tune};
use avcc_core::{run_experiment, ExperimentConfig, FaultScenario};
use avcc_field::P25;
use avcc_sim::attack::AttackModel;

fn main() {
    println!("# Privacy sweep: colluding tolerance T vs throughput (AVCC, quantized logistic regression)");
    println!(
        "# N = 12 workers, S = 2 stragglers, M = 1 Byzantine (constant attack), degree-1 encoding"
    );
    println!("t\tk\tthreshold\tfinal_accuracy\ttotal_seconds\tseconds_per_iteration");
    for colluding in 0..=4usize {
        let scenario = FaultScenario::paper(2, 1, AttackModel::constant());
        let mut config = harness_tune(ExperimentConfig::paper_avcc(2, 1, scenario));
        config.partitions = 9 - colluding;
        config.colluding = colluding;
        let coding = config.coding();
        let report = run_experiment::<P25>(&config).expect("privacy sweep run failed");
        let total = report.total_seconds();
        println!(
            "{colluding}\t{}\t{}\t{}\t{}\t{}",
            coding.partitions,
            coding.recovery_threshold(),
            fmt(report.final_accuracy(), 4),
            fmt(total, 2),
            fmt(total / report.len() as f64, 3),
        );
    }
}
