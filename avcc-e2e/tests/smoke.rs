//! All four workloads at toy scale over an in-process fleet (protocol threads
//! behind real sockets — no worker binary needed): every mode runs, every
//! declared metric comes out, and the oracle fires when an output is wrong.

use avcc_e2e::run::{run, RunConfig, RunResult, Scale};
use avcc_e2e::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use avcc_sim::socket::WorkerBackend;

fn toy(workload: &str, trace: bool, sabotage: bool) -> RunResult {
    run(&RunConfig {
        workload: workload.to_string(),
        seed: 3,
        seconds: 0.2,
        trace,
        scale: Scale::Toy,
        backend: WorkerBackend::InProcess,
        sabotage,
        trace_dir: None,
    })
    .unwrap_or_else(|e| panic!("{workload} (trace {trace}): {e}"))
}

#[test]
fn timed_runs_report_every_end_to_end_metric_and_pass_their_oracles() {
    for workload in &WORKLOADS {
        let result = toy(workload.name, false, false);
        assert!(result.correct(), "{}: {:?}", workload.name, result);
        assert!(result.attempted >= 2, "{}", workload.name);
        let names: Vec<&str> = result.metrics.iter().map(|(n, _, _)| *n).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, declared, "{}", workload.name);
        for (name, value, _) in &result.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{}: {name} = {value}",
                workload.name
            );
        }
        // The result line survives its own parser.
        let parsed = RunResult::from_json(&result.to_json()).unwrap();
        assert_eq!(parsed.attempted, result.attempted);
        assert_eq!(parsed.metric("op_ms_p50"), result.metric("op_ms_p50"));
    }
}

#[test]
fn a_wrong_output_fails_the_run() {
    for workload in &WORKLOADS {
        let result = toy(workload.name, false, true);
        assert!(result.failed > 0, "{}: oracle did not fire", workload.name);
        assert!(!result.correct());
        assert!(result.to_json().contains("\"correct\": false"));
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    for workload in &WORKLOADS {
        let result = toy(workload.name, true, false);
        assert!(result.correct(), "{}: {:?}", workload.name, result.notes);
        let names: Vec<&str> = result.metrics.iter().map(|(n, _, _)| *n).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, declared, "{}", workload.name);
        assert!(result.metrics.iter().all(|(_, v, _)| v.is_finite()));
        assert!(
            result.metric("core.span_coverage").unwrap() >= 0.95,
            "{}: spans must account for the wall-clock",
            workload.name
        );
        assert!(result.metric("sim.round_ms_p50.uds").unwrap() > 0.0);
        assert!(result.metric("wire.bytes_sent_per_op").unwrap() > 0.0);
    }
    // Exactly the injected liar is rejected in every matmul job: 1 of 12.
    let matmul = toy("matmul_batch", true, false);
    let ratio = matmul.metric("verify.reject_ratio").unwrap();
    assert!((ratio - 1.0 / 12.0).abs() < 1e-12, "reject ratio {ratio}");
}

#[test]
fn unknown_workloads_and_bad_durations_are_refused() {
    let mut config = RunConfig {
        workload: "nope".to_string(),
        seed: 1,
        seconds: 0.1,
        trace: false,
        scale: Scale::Toy,
        backend: WorkerBackend::InProcess,
        sabotage: false,
        trace_dir: None,
    };
    assert!(run(&config).unwrap_err().contains("unknown workload"));
    config.workload = "train_quiet".to_string();
    config.seconds = 0.0;
    assert!(run(&config).unwrap_err().contains("--seconds"));
}
