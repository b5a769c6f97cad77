//! The benchmark's fixed vocabulary: workload names, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the root of
//! the repository states the same sets (a test keeps the two equal), and
//! `E2E.md` gives the reason for each.

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists (one line).
    pub why: &'static str,
}

/// The four workloads, in the order the suite interleaves them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "train_quiet",
        why: "StaticVcc training on a quiet 12-process fleet: per-round runtime overhead and master-side collect are all there is; a straggler policy must not move it",
    },
    Workload {
        name: "train_faulty",
        why: "adaptive AVCC training with one x8 straggler and one reverse-value Byzantine worker: the master waits for a result it does not need, so early cutoff and pipelining show here",
    },
    Workload {
        name: "matmul_batch",
        why: "fresh 1920x512 P64 matrix per job, m=8, one liar per job: encode, 12 bulk LOAD_BLOCK frames and batched verification, so a small-frame or P25-only gain that costs bulk transfer or P64 shows here",
    },
    Workload {
        name: "serve_mixed",
        why: "serve_distributed over 4 training and 4 batched-matmul jobs on a fleet with one straggler: per-job fixed costs and cross-job pipelining, serial today",
    },
];

/// An end-to-end metric and the share of the parent's median by which it may
/// worsen before a change counts as a regression.
///
/// Every bound is the widest the driver allows. One bound per metric has to
/// hold on the noisiest workload, and on the capture host (a shared two-core
/// VM) the compute-bound workloads' timings move by 7–15 % between runs of the
/// same code, `train_faulty`'s bytes by 6 % (its number of re-encodes is
/// noise-driven). `E2E.md` lists the measured spread of every metric on every
/// workload; judge a change against those, not only against the bound.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when larger values are better.
    pub higher_is_better: bool,
    /// Regression bound (share of the parent's median).
    pub bound: f64,
}

/// The end-to-end metrics, reported by every workload.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p95",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "bytes_per_op",
        unit: "B",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "master_rss_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// A per-layer (traced-run) metric. Informational: no bound.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name; the prefix is the crate (layer) it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when larger values are better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// The per-layer metrics, reported by every traced run (`0` where a metric
/// does not occur in a workload — see `E2E.md`).
pub const PER_LAYER: [Layer; 58] = [
    lower("field.dot_ns_per_mac.p25", "ns"),
    lower("field.dot_ns_per_mac.p64", "ns"),
    lower("pool.scope12_us", "us"),
    lower("linalg.mat_vec_ns_per_mac", "ns"),
    lower("linalg.worker_compute_ms_p50", "ms"),
    lower("coding.encode_ms", "ms"),
    lower("coding.decode_ms", "ms"),
    lower("coding.decode_cold_ms", "ms"),
    higher("coding.decode_cache_hit_ratio", "ratio"),
    lower("coding.screen_ms", "ms"),
    lower("verify.keygen_ms", "ms"),
    lower("verify.check_us", "us"),
    lower("verify.batch_check_us", "us"),
    lower("verify.reject_ratio", "ratio"),
    lower("ml.evaluate_ms", "ms"),
    lower("ml.quantize_us", "us"),
    higher("wire.frame_encode_mb_s", "MB/s"),
    higher("wire.frame_decode_mb_s", "MB/s"),
    lower("wire.task_roundtrip_us", "us"),
    higher("wire.crc_mb_s", "MB/s"),
    lower("wire.bytes_sent_per_op", "B"),
    lower("wire.bytes_recv_per_op", "B"),
    lower("wire.frames_per_op", "count"),
    lower("sim.spawn_ms", "ms"),
    lower("sim.install_ms", "ms"),
    higher("sim.install_mb_s", "MB/s"),
    lower("sim.round_ms_p50.uds", "ms"),
    lower("sim.round_ms_p50.tcp", "ms"),
    lower("sim.round_ms_p50.threaded", "ms"),
    lower("sim.round_overhead_ms", "ms"),
    lower("sim.straggler_wait_ms", "ms"),
    lower("sim.evictions", "count"),
    lower("sim.stale_frames", "count"),
    lower("sim.respawns", "count"),
    lower("core.encode_round1_us", "us"),
    lower("core.collect_round1_ms", "ms"),
    lower("core.collect_round2_ms", "ms"),
    lower("core.engine_new_ms", "ms"),
    lower("core.collect_batch_ms", "ms"),
    lower("core.wire_runner_self_us", "us"),
    lower("core.collect_self_ms", "ms"),
    lower("core.reconfig_count", "count"),
    lower("core.reconfig_ms", "ms"),
    lower("core.quiet_reconfigs", "count"),
    higher("core.span_coverage", "ratio"),
    higher("serve.jobs_per_s.uds", "1/s"),
    higher("serve.jobs_per_s.fleet_pipelined", "1/s"),
    higher("serve.jobs_per_s.fleet_sync", "1/s"),
    lower("serve.job_overhead_ms", "ms"),
    lower("baseline.local_op_ms", "ms"),
    lower("trace.overhead_pct", "%"),
    lower("trace.op_ms_p50", "ms"),
    lower("trace.untraced_op_ms_p50", "ms"),
    higher("trace.ops", "count"),
    lower("e2e.wall_s", "s"),
    lower("e2e.failed_share", "ratio"),
    lower("e2e.flagged_passes", "count"),
    higher("host.available_parallelism", "count"),
];

/// Seconds one run measures for (the `run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// The workload called `name`, if there is one.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "bad unit {unit:?}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
    }

    fn field<'a>(object: &'a Value, key: &str) -> &'a Value {
        object
            .get(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json: missing {key}"))
    }

    #[test]
    fn benchmark_json_states_the_same_sets() {
        let manifest = json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let Value::Object(keys) = &manifest else {
            panic!("BENCHMARK.json must be an object");
        };
        let mut names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        names.sort_unstable();
        assert_eq!(
            names,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(
            field(&manifest, "run_seconds").as_f64(),
            Some(RUN_SECONDS as f64)
        );

        let workloads = field(&manifest, "workloads").as_array().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (listed, ours) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(listed, "name").as_str(), Some(ours.name));
            assert_eq!(field(listed, "why").as_str(), Some(ours.why));
        }

        let better = |higher: bool| if higher { "higher" } else { "lower" };
        let end_to_end = field(&manifest, "end_to_end").as_array().unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (listed, ours) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(field(listed, "name").as_str(), Some(ours.name));
            assert_eq!(field(listed, "unit").as_str(), Some(ours.unit));
            assert_eq!(
                field(listed, "better").as_str(),
                Some(better(ours.higher_is_better))
            );
            assert_eq!(field(listed, "bound").as_f64(), Some(ours.bound));
        }

        let per_layer = field(&manifest, "per_layer").as_array().unwrap();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (listed, ours) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(field(listed, "name").as_str(), Some(ours.name));
            assert_eq!(field(listed, "unit").as_str(), Some(ours.unit));
            assert_eq!(
                field(listed, "better").as_str(),
                Some(better(ours.higher_is_better))
            );
        }
    }
}
