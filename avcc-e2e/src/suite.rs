//! The whole suite in one command, and the repeatability check built on it.
//!
//! Every (workload, pass) runs in its own child process re-executed from this
//! binary, so caches, the global pool and `VmHWM` start clean; passes are
//! interleaved across workloads (A B C D A B C D …) so slow drift of the host
//! lands on every workload alike. The reported value of a metric is the
//! median of its per-pass values, with the min–max over passes beside it.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::run::RunResult;
use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, spread, worsening};

/// What the suite needs to know.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Seed handed to every child.
    pub seed: u64,
    /// Length of each run's measured section.
    pub seconds: f64,
    /// Whether to add one traced pass per workload.
    pub traced: bool,
    /// Forwarded to the children: corrupt one output so the oracle must fire.
    pub sabotage: bool,
}

/// Timed passes per workload.
pub const PASSES: usize = 3;

/// Runs one (workload, mode) in a child process and reads its result line.
fn run_child(
    exe: &Path,
    workload: &str,
    config: &SuiteConfig,
    trace: bool,
) -> Result<RunResult, String> {
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &config.seed.to_string()])
        .args(["--seconds", &config.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if config.sabotage {
        command.arg("--sabotage");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot re-execute {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{workload}: child printed no result ({})", output.status))?;
    RunResult::from_json(line).map_err(|e| format!("{workload}: {e}"))
}

/// Per workload, the per-pass results of the timed passes and the traced
/// pass, if any.
pub struct SuiteReport {
    /// `timed[w][p]`: pass `p` of workload `w` (order of [`WORKLOADS`]).
    pub timed: Vec<Vec<RunResult>>,
    /// The traced pass of each workload.
    pub traced: Vec<Option<RunResult>>,
}

impl SuiteReport {
    /// Median over passes of an end-to-end metric of workload `w`.
    pub fn value(&self, w: usize, metric: &str) -> f64 {
        median(&self.pass_values(w, metric))
    }

    fn pass_values(&self, w: usize, metric: &str) -> Vec<f64> {
        self.timed[w]
            .iter()
            .filter_map(|r| r.metric(metric))
            .collect()
    }

    /// Operations attempted and failed across every pass of every workload.
    pub fn totals(&self) -> (u64, u64) {
        self.timed
            .iter()
            .flatten()
            .chain(self.traced.iter().flatten())
            .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed))
    }
}

/// Runs every workload: [`PASSES`] timed passes each, interleaved, then one
/// traced pass each.
pub fn run_suite(exe: &Path, config: &SuiteConfig) -> Result<SuiteReport, String> {
    let mut timed: Vec<Vec<RunResult>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    for pass in 0..PASSES {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            eprintln!("[suite] pass {} of {}: {}", pass + 1, PASSES, workload.name);
            timed[w].push(run_child(exe, workload.name, config, false)?);
        }
    }
    let mut traced = Vec::new();
    for workload in &WORKLOADS {
        traced.push(if config.traced {
            eprintln!("[suite] traced pass: {}", workload.name);
            Some(run_child(exe, workload.name, config, true)?)
        } else {
            None
        });
    }
    Ok(SuiteReport { timed, traced })
}

/// Prints every metric of every workload by name, with unit, pass spread and
/// the per-layer table of the traced pass.
pub fn print_report(report: &SuiteReport) {
    for (w, workload) in WORKLOADS.iter().enumerate() {
        println!("== {} — {}", workload.name, workload.why);
        println!(
            "   {:<16} {:>16} {:<5} {:>34}  bound",
            "end-to-end", "median", "unit", "spread over passes (min .. max)"
        );
        for metric in &END_TO_END {
            let values = report.pass_values(w, metric.name);
            let (lo, hi) = spread(&values);
            println!(
                "   {:<16} {:>16.6} {:<5} {:>16.6} .. {:<16.6} {:.2} ({} passes)",
                metric.name,
                median(&values),
                metric.unit,
                lo,
                hi,
                metric.bound,
                values.len()
            );
        }
        let attempted: u64 = report.timed[w].iter().map(|r| r.attempted).sum();
        let failed: u64 = report.timed[w].iter().map(|r| r.failed).sum();
        println!(
            "   {:<16} {:>16.6} {:<5} ({failed} of {attempted} operations)",
            "failed_share",
            failed as f64 / attempted.max(1) as f64,
            "ratio"
        );
        if let Some(traced) = &report.traced[w] {
            println!("   per-layer (traced pass; 0 = does not occur in this workload)");
            for layer in &PER_LAYER {
                println!(
                    "   {:<34} {:>16.6} {}",
                    layer.name,
                    traced.metric(layer.name).unwrap_or(0.0),
                    layer.unit
                );
            }
        }
        println!();
    }
}

/// Runs the timed suite twice back to back and prints, per end-to-end metric
/// and workload, both values, how much the second is worse than the first,
/// and the bound. Returns the number of breaches.
pub fn selfcheck(exe: &Path, config: &SuiteConfig) -> Result<usize, String> {
    let config = SuiteConfig {
        traced: false,
        ..config.clone()
    };
    let first = run_suite(exe, &config)?;
    let second = run_suite(exe, &config)?;
    let mut breaches = 0;
    println!(
        "{:<14} {:<14} {:>16} {:>16} {:>9} {:>6}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for metric in &END_TO_END {
            let (a, b) = (first.value(w, metric.name), second.value(w, metric.name));
            let worse = worsening(a, b, metric.higher_is_better);
            let breach = worse > metric.bound;
            breaches += usize::from(breach);
            println!(
                "{:<14} {:<14} {:>16.6} {:>16.6} {:>8.2}% {:>5.0}%{}",
                workload.name,
                metric.name,
                a,
                b,
                worse * 100.0,
                metric.bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    for report in [&first, &second] {
        let (attempted, failed) = report.totals();
        if failed > 0 {
            println!("{failed} of {attempted} operations failed their oracle");
            breaches += 1;
        }
    }
    Ok(breaches)
}
