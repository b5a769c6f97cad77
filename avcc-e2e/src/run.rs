//! One run: one workload, one seed, timed or traced — and the result line the
//! acceptance driver reads.

use std::path::PathBuf;

use avcc_sim::socket::{SocketExecutor, SocketMetrics, WorkerBackend};

use crate::json;
use crate::probes::Layers;
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, quartiles, samples_beyond, sorted, spread};
use crate::workloads;

/// Problem sizes: the benchmark's fixed shapes, or the toy shapes the smoke
/// tests run over an in-process fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The shapes `E2E.md` fixes. Never change these between commits.
    Full,
    /// Tiny shapes; exercises every code path in well under a second.
    Toy,
}

/// Everything that selects a run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name (one of [`spec::WORKLOADS`]).
    pub workload: String,
    /// Seed for datasets, job matrices, inputs and trainer seeds.
    pub seed: u64,
    /// Length of the measured section.
    pub seconds: f64,
    /// `false`: end-to-end metrics. `true`: traced run, per-layer metrics.
    pub trace: bool,
    /// Problem sizes.
    pub scale: Scale,
    /// How workers are realized: spawned `avcc-worker` processes in every
    /// measured run; in-process protocol threads in the toy-scale smoke tests,
    /// which must run without a built worker binary.
    pub backend: WorkerBackend,
    /// Corrupts one output before the oracle check, to show the check fires.
    pub sabotage: bool,
    /// Where a traced run writes its span file (`None`: not written).
    pub trace_dir: Option<PathBuf>,
}

/// A timed run is cut into this many segments, each on a freshly set-up
/// fleet: `setup_s` is the median of the set-ups, and the timings sample
/// five fleets rather than one (see [`end_to_end`]).
pub const SEGMENTS: usize = 5;

/// What one segment of a timed run produced.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    /// Seconds the segment's set-up took.
    pub setup_seconds: f64,
    /// Operations completed inside the timed section.
    pub ops: u64,
    /// Wall-clock of the timed section.
    pub wall_seconds: f64,
    /// Latency of every operation but the first (which ships the blocks).
    pub op_ms: Vec<f64>,
    /// Master-side socket counters over the timed section.
    pub wire: WireDelta,
    /// Operations checked against the oracle.
    pub attempted: u64,
    /// Operations that errored or failed the oracle.
    pub failed: u64,
    /// The segment did not have its expected round structure (e.g. a parked
    /// round), so its latencies are operation-averaged rather than exact.
    pub flagged: bool,
}

/// What the timed run of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// The run's segments, in order.
    pub segments: Vec<Segment>,
    /// `VmHWM` at the end of the last timed section, MiB.
    pub rss_mib: f64,
}

/// Difference of two [`SocketMetrics`] snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireDelta {
    /// Bytes the master sent.
    pub bytes_sent: u64,
    /// Bytes the master received.
    pub bytes_received: u64,
    /// Frames in either direction.
    pub frames: u64,
    /// Workers evicted mid-round.
    pub evictions: u64,
    /// Stale frames discarded.
    pub stale_frames: u64,
    /// Workers respawned.
    pub respawns: u64,
}

impl WireDelta {
    /// `after − before`.
    pub fn between(before: &SocketMetrics, after: &SocketMetrics) -> Self {
        WireDelta {
            bytes_sent: after.bytes_sent - before.bytes_sent,
            bytes_received: after.bytes_received - before.bytes_received,
            frames: (after.frames_sent - before.frames_sent)
                + (after.frames_received - before.frames_received),
            evictions: after.evictions - before.evictions,
            stale_frames: after.stale_frames - before.stale_frames,
            respawns: after.respawns - before.respawns,
        }
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &WireDelta) -> WireDelta {
        WireDelta {
            bytes_sent: self.bytes_sent + other.bytes_sent,
            bytes_received: self.bytes_received + other.bytes_received,
            frames: self.frames + other.frames,
            evictions: self.evictions + other.evictions,
            stale_frames: self.stale_frames + other.stale_frames,
            respawns: self.respawns + other.respawns,
        }
    }

    /// Runs `body` against `fleet` and returns its value with the counters'
    /// movement.
    pub fn over<T>(
        fleet: &mut SocketExecutor,
        body: impl FnOnce(&mut SocketExecutor) -> T,
    ) -> (T, Self) {
        let before = fleet.metrics();
        let value = body(fleet);
        let after = fleet.metrics();
        (value, Self::between(&before, &after))
    }

    /// Writes the per-operation wire counters into `layers`.
    pub fn record(&self, layers: &mut Layers, ops: u64) {
        let per_op = |v: u64| v as f64 / ops.max(1) as f64;
        layers.insert("wire.bytes_sent_per_op", per_op(self.bytes_sent));
        layers.insert("wire.bytes_recv_per_op", per_op(self.bytes_received));
        layers.insert("wire.frames_per_op", per_op(self.frames));
        layers.insert("sim.evictions", self.evictions as f64);
        layers.insert("sim.stale_frames", self.stale_frames as f64);
        layers.insert("sim.respawns", self.respawns as f64);
    }
}

/// The outcome of a run, ready to print.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Operations checked against the oracle (at least 1).
    pub attempted: u64,
    /// Operations that errored or failed the oracle.
    pub failed: u64,
    /// `(name, value, unit)` in the order of [`spec::END_TO_END`] or
    /// [`spec::PER_LAYER`].
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable remarks (sample counts, flags), for stderr.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Whether every checked output matched its oracle.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The value of the metric called `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    /// The one-object result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json::number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Reads a result line back (the suite reads its child processes').
    pub fn from_json(line: &str) -> Result<Self, String> {
        let value = json::parse(line)?;
        let count = |key: &str| {
            value
                .get(key)
                .and_then(json::Value::as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| format!("result line lacks {key}"))
        };
        let json::Value::Object(members) =
            value.get("metrics").ok_or("result line lacks metrics")?
        else {
            return Err("metrics is not an object".to_string());
        };
        let mut metrics = Vec::new();
        for (name, entry) in members {
            let known = END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
                .find(|(n, _)| n == name)
                .ok_or_else(|| format!("unknown metric {name}"))?;
            let number = entry
                .get("value")
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("metric {name} has no numeric value"))?;
            metrics.push((known.0, number, known.1));
        }
        Ok(RunResult {
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
            notes: Vec::new(),
        })
    }
}

/// A window: consecutive operations of one segment, at least
/// [`WINDOW_MIN_OPS`] of them and at least [`WINDOW_MIN_MS`] long.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Operations per second inside the window.
    pub ops_per_s: f64,
    /// Median operation latency, ms.
    pub p50_ms: f64,
    /// 95th-percentile operation latency (nearest rank), ms.
    pub p95_ms: f64,
}

/// Fewest operations in a window (so a p95 has a sample beyond it).
pub const WINDOW_MIN_OPS: usize = 25;
/// Shortest window, milliseconds.
pub const WINDOW_MIN_MS: f64 = 500.0;

/// Cuts one segment's operation latencies (in execution order) into windows
/// of `window_ops` operations; the last window absorbs the remainder, and a
/// segment shorter than one window is a single window.
pub fn windows(op_ms: &[f64], window_ops: usize) -> Vec<Window> {
    if op_ms.is_empty() {
        return Vec::new();
    }
    let count = (op_ms.len() / window_ops.max(1)).max(1);
    (0..count)
        .map(|k| {
            let end = if k + 1 == count {
                op_ms.len()
            } else {
                (k + 1) * window_ops
            };
            let ops = &op_ms[k * window_ops..end];
            let ordered = sorted(ops.to_vec());
            Window {
                ops_per_s: ops.len() as f64 / (ops.iter().sum::<f64>() / 1e3),
                p50_ms: percentile(&ordered, 50.0),
                p95_ms: percentile(&ordered, 95.0),
            }
        })
        .collect()
}

/// Turns a timed run into the end-to-end metrics.
///
/// Counts (operations, bytes, failures) are summed over the segments.
/// Timings are taken per *window* — about half a second of consecutive
/// operations, never fewer than 25 — and the run reports the **good
/// quartile** of the windows: the upper quartile of their throughputs, the
/// lower quartile of their p50s and of their p95s. The capture host is a
/// shared VM that alternates between a fast and a 1.3–1.5x slower mode (a
/// pure-CPU loop reads 34.5 or 51 ms; `train_quiet`'s half-second medians
/// wander between 1.6 and 2.7 ms inside one run), switching every few seconds
/// and spending a share of the time in each that drifts over minutes.
/// Disturbance only ever adds time, so the better windows are the closer look
/// at the program; the quartile rather than the single best window, because
/// the best is as exposed to one lucky window as the pooled numbers are to
/// the slow mode. Measured run-to-run spreads are in `E2E.md`; the pooled
/// values are printed beside the reported ones.
pub fn end_to_end(timed: &Timed) -> RunResult {
    let segments = &timed.segments;
    let total = |f: fn(&Segment) -> u64| segments.iter().map(f).sum::<u64>();
    let ops = total(|s| s.ops);
    let wall_seconds: f64 = segments.iter().map(|s| s.wall_seconds).sum();
    let wire = segments
        .iter()
        .fold(WireDelta::default(), |sum, s| sum.plus(&s.wire));
    let setups: Vec<f64> = segments.iter().map(|s| s.setup_seconds).collect();
    let pooled = sorted(
        segments
            .iter()
            .flat_map(|s| s.op_ms.iter().copied())
            .collect(),
    );
    let pooled_p50 = percentile(&pooled, 50.0);
    let window_ops = WINDOW_MIN_OPS.max((WINDOW_MIN_MS / pooled_p50.max(1e-6)).ceil() as usize);
    let all_windows: Vec<Window> = segments
        .iter()
        .flat_map(|s| windows(&s.op_ms, window_ops))
        .collect();
    // (lower quartile, upper quartile) of a per-window value.
    let window_quartiles = |f: fn(&Window) -> f64| {
        let values: Vec<f64> = all_windows.iter().map(f).collect();
        match values.len() {
            0 => (0.0, 0.0),
            1 => (values[0], values[0]),
            _ => {
                // The exclusive method extrapolates beyond the sample when
                // there are only two or three windows; never report a value
                // no window had.
                let (lo, hi) = spread(&values);
                let (q1, _, q3) = quartiles(&values);
                (q1.max(lo), q3.min(hi))
            }
        }
    };
    let value = |name: &str| match name {
        "setup_s" => median(&setups),
        "ops_per_s" => window_quartiles(|w| w.ops_per_s).1,
        "op_ms_p50" => window_quartiles(|w| w.p50_ms).0,
        "op_ms_p95" => window_quartiles(|w| w.p95_ms).0,
        "bytes_per_op" => (wire.bytes_sent + wire.bytes_received) as f64 / ops.max(1) as f64,
        "master_rss_mb" => timed.rss_mib,
        other => unreachable!("no end-to-end metric called {other}"),
    };
    let window_p50s = sorted(all_windows.iter().map(|w| w.p50_ms).collect());
    let mut notes = vec![
        format!(
            "{ops} operations in {wall_seconds:.3} s over {} segments; {} windows of {window_ops} operations (a shorter segment is one window)",
            segments.len(),
            all_windows.len(),
        ),
        format!(
            "pooled over the run: {:.3} ops/s, p50 {:.3} ms, p95 {:.3} ms ({} samples, {} beyond p95)",
            ops as f64 / wall_seconds,
            pooled_p50,
            percentile(&pooled, 95.0),
            pooled.len(),
            samples_beyond(pooled.len(), 95.0),
        ),
        format!(
            "window p50 ms: best {:.3}, median {:.3}, worst {:.3}",
            percentile(&window_p50s, 0.0),
            percentile(&window_p50s, 50.0),
            percentile(&window_p50s, 100.0),
        ),
    ];
    let flagged = segments.iter().filter(|s| s.flagged).count();
    if flagged > 0 {
        notes.push(format!(
            "flagged: rounds were re-dispatched in {flagged} segment(s); their latencies are per-operation averages"
        ));
    }
    RunResult {
        attempted: total(|s| s.attempted),
        failed: total(|s| s.failed),
        metrics: END_TO_END
            .iter()
            .map(|m| (m.name, value(m.name), m.unit))
            .collect(),
        notes,
    }
}

/// Turns a traced run's layer values into the per-layer metrics (`0` for a
/// metric the workload does not exercise).
pub fn per_layer(layers: &Layers, attempted: u64, failed: u64, notes: Vec<String>) -> RunResult {
    RunResult {
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.name, layers.get(m.name).copied().unwrap_or(0.0), m.unit))
            .collect(),
        notes,
    }
}

/// Runs the configured workload.
pub fn run(config: &RunConfig) -> Result<RunResult, String> {
    if spec::workload(&config.workload).is_none() {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {:?}; expected one of {}",
            config.workload,
            known.join(", ")
        ));
    }
    if !(config.seconds > 0.0 && config.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            config.seconds
        ));
    }
    match config.workload.as_str() {
        "train_quiet" => workloads::train::run(config, false),
        "train_faulty" => workloads::train::run(config, true),
        "matmul_batch" => workloads::matmul::run(config),
        "serve_mixed" => workloads::serve::run(config),
        _ => unreachable!("workload names were checked above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_cut_a_segment_and_absorb_the_remainder() {
        // Seven operations, windows of three: [1,1,1] and [2,2,2,2].
        let cut = windows(&[1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0], 3);
        assert_eq!(cut.len(), 2);
        assert!((cut[0].ops_per_s - 1000.0).abs() < 1e-9);
        assert!((cut[1].ops_per_s - 500.0).abs() < 1e-9);
        assert_eq!((cut[0].p50_ms, cut[1].p95_ms), (1.0, 2.0));
        // Shorter than one window: a single window over what there is.
        let short = windows(&[4.0, 6.0], 25);
        assert_eq!(short.len(), 1);
        assert!((short[0].ops_per_s - 200.0).abs() < 1e-9);
        assert!(windows(&[], 25).is_empty());
    }

    #[test]
    fn end_to_end_reports_the_good_quartile_of_windows_and_sums_the_counts() {
        let segment = |op_ms: Vec<f64>, setup_seconds: f64, failed: u64| Segment {
            setup_seconds,
            ops: op_ms.len() as u64 + 1,
            wall_seconds: op_ms.iter().sum::<f64>() / 1e3,
            wire: WireDelta {
                bytes_sent: 900,
                bytes_received: 100,
                ..WireDelta::default()
            },
            attempted: op_ms.len() as u64 + 1,
            failed,
            op_ms,
            flagged: false,
        };
        let timed = Timed {
            // A disturbed segment (30 ms operations) and a quiet one (20 ms).
            segments: vec![
                segment(vec![30.0; 40], 0.5, 0),
                segment(vec![20.0; 40], 0.1, 2),
                segment(vec![25.0; 40], 0.3, 0),
            ],
            rss_mib: 12.5,
        };
        let result = end_to_end(&timed);
        // Three windows (one per segment) at 20, 25 and 30 ms: the good
        // quartile of three values is the best of them.
        assert_eq!(result.metric("op_ms_p50"), Some(20.0));
        assert_eq!(result.metric("op_ms_p95"), Some(20.0));
        assert!((result.metric("ops_per_s").unwrap() - 50.0).abs() < 1e-9);
        assert_eq!(result.metric("setup_s"), Some(0.3));
        assert!((result.metric("bytes_per_op").unwrap() - 3000.0 / 123.0).abs() < 1e-9);
        assert_eq!(result.metric("master_rss_mb"), Some(12.5));
        assert_eq!((result.attempted, result.failed), (123, 2));
        assert!(!result.correct());
        assert!(result.to_json().contains("\"correct\": false"));
    }
}
