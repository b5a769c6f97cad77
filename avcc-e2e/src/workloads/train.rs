//! `train_quiet` and `train_faulty`: the paper's two-round coded
//! logistic-regression iteration through `train_distributed` on the UDS
//! process fleet, checked bit-for-bit against `DistributedTrainer::train()`.

use std::time::Instant;

use avcc_coding::SchemeConfig;
use avcc_core::distributed::{train_distributed, DistributedError, WireRunner};
use avcc_core::{
    DistributedTrainer, FaultScenario, IterationRecord, SchemeFailure, SchemeKind, TrainerConfig,
    TrainingProblem, TrainingReport, TrainingRound,
};
use avcc_field::P25;
use avcc_ml::dataset::{Dataset, DatasetConfig};
use avcc_ml::logistic::LogisticModel;
use avcc_sim::attack::AttackModel;
use avcc_sim::churn::ChurnEventKind;
use avcc_sim::cluster::ClusterProfile;
use avcc_sim::executor::Executor;
use avcc_sim::socket::Transport;

use crate::fleet::{self, WORKERS};
use crate::probes::{self, median_ns, CodedRound, CodedRoundCosts, Layers};
use crate::run::{
    end_to_end, per_layer, RunConfig, RunResult, Scale, Segment, Timed, WireDelta, SEGMENTS,
};
use crate::stats::{median, percentile, sorted};
use crate::trace::{
    durations_ns, op_latencies_ms, self_ns_of, span, span_coverage, Capture, SharedRecorder,
    SpanExecutor, TickExecutor,
};

/// Problem size and the fixed operation counts of the un-timed passes.
struct Shape {
    dataset: DatasetConfig,
    /// Iterations of the pass that sizes the timed section.
    pilot_iterations: usize,
    /// Iterations of the adaptive pass that counts false-positive re-encodes
    /// on a quiet fleet.
    quiet_adaptive_iterations: usize,
}

fn shape(scale: Scale, faulty: bool, seed: u64) -> Shape {
    match scale {
        Scale::Full => Shape {
            dataset: DatasetConfig {
                train_samples: 1800,
                test_samples: 360,
                features: 255,
                informative: 85,
                seed,
                ..DatasetConfig::default()
            },
            pilot_iterations: if faulty { 24 } else { 300 },
            quiet_adaptive_iterations: 1000,
        },
        Scale::Toy => Shape {
            dataset: DatasetConfig {
                train_samples: 180,
                test_samples: 60,
                features: 27,
                informative: 9,
                seed,
                ..DatasetConfig::default()
            },
            pilot_iterations: 4,
            quiet_adaptive_iterations: 6,
        },
    }
}

/// The code both training workloads start from: `(N, K, S, M) = (12, 9, 2, 1)`.
fn coding() -> SchemeConfig {
    SchemeConfig::linear(WORKERS, 9, 2, 1).expect("the paper's configuration is feasible")
}

fn scenario(faulty: bool) -> FaultScenario {
    if faulty {
        FaultScenario::paper(1, 1, AttackModel::reverse())
    } else {
        FaultScenario::none()
    }
}

fn profile(faulty: bool) -> ClusterProfile {
    let scenario = scenario(faulty);
    ClusterProfile::uniform(WORKERS)
        .with_stragglers(&scenario.stragglers, scenario.straggler_multiplier)
}

/// Builds a trainer the way a user of the library would: `paper_defaults`
/// (dual-codeword screen on), real-time scale.
fn build(
    problem: &TrainingProblem,
    scheme: SchemeKind,
    faulty: bool,
    iterations: usize,
    seed: u64,
) -> DistributedTrainer<P25> {
    let scenario = scenario(faulty);
    DistributedTrainer::new(
        problem.clone(),
        profile(faulty),
        scenario.byzantine_spec(),
        TrainerConfig {
            iterations,
            time_scale: 1.0,
            seed: seed ^ 0x5EED_7A11,
            ..TrainerConfig::paper_defaults(scheme, coding())
        },
        scenario.label(),
    )
}

/// One `train_distributed` call observed through a [`TickExecutor`].
struct Driven {
    report: TrainingReport,
    /// Per-iteration latency, first iteration included.
    op_ms: Vec<f64>,
    wall_seconds: f64,
    flagged: bool,
}

fn drive(
    trainer: &mut DistributedTrainer<P25>,
    executor: &mut dyn Executor,
) -> Result<Driven, String> {
    let iterations = trainer.iterations();
    let mut tick = TickExecutor::new(executor, 2 * iterations);
    let started = Instant::now();
    let report =
        train_distributed(trainer, &mut tick).map_err(|e| format!("train_distributed: {e}"))?;
    let end = Instant::now();
    let wall_seconds = end.duration_since(started).as_secs_f64();
    let (op_ms, flagged) = match op_latencies_ms(&tick.ticks, 2, iterations, end) {
        Some(op_ms) => (op_ms, false),
        None => (
            vec![wall_seconds * 1e3 / iterations.max(1) as f64; iterations],
            true,
        ),
    };
    Ok(Driven {
        report,
        op_ms,
        wall_seconds,
        flagged,
    })
}

/// Counts iterations whose `(test_accuracy, train_loss)` differ in any bit
/// from the oracle's.
fn trajectory_mismatches(report: &TrainingReport, oracle: &TrainingReport) -> u64 {
    let differing = report
        .iterations
        .iter()
        .zip(&oracle.iterations)
        .filter(|(ours, theirs)| {
            ours.test_accuracy.to_bits() != theirs.test_accuracy.to_bits()
                || ours.train_loss.to_bits() != theirs.train_loss.to_bits()
        })
        .count();
    let missing = report.len().saturating_sub(oracle.len());
    (differing + missing) as u64
}

fn weights_differ(ours: &LogisticModel, oracle: &LogisticModel) -> bool {
    ours.weights.len() != oracle.weights.len()
        || ours
            .weights
            .iter()
            .zip(&oracle.weights)
            .any(|(a, b)| a.to_bits() != b.to_bits())
}

/// Corrupts one recorded output, standing in for a wrong program: the oracle
/// check must then fail the run.
fn sabotage(report: &mut TrainingReport) {
    if let Some(record) = report.iterations.last_mut() {
        record.train_loss += 1.0;
    }
}

fn sized_iterations(seconds: f64, op_ms: &[f64], at_least: usize) -> usize {
    let per_op_ms = median(&op_ms[op_ms.len().min(1)..]).max(1e-3);
    ((seconds * 1e3 / per_op_ms) as usize).max(at_least)
}

/// Runs `train_quiet` (`faulty = false`) or `train_faulty`.
pub fn run(config: &RunConfig, faulty: bool) -> Result<RunResult, String> {
    let shape = shape(config.scale, faulty, config.seed);
    let problem = TrainingProblem::from_dataset(&Dataset::gisette_like(shape.dataset), 9);
    // StaticVcc on the quiet fleet: the adaptive controller re-encodes a
    // quiet fleet on host noise, which would make K, bytes and timing differ
    // from run to run.
    let scheme = if faulty {
        SchemeKind::Avcc
    } else {
        SchemeKind::StaticVcc
    };
    if config.trace {
        traced(config, &shape, &problem, scheme, faulty)
    } else {
        timed(config, &shape, &problem, scheme, faulty)
    }
}

fn timed(
    config: &RunConfig,
    shape: &Shape,
    problem: &TrainingProblem,
    scheme: SchemeKind,
    faulty: bool,
) -> Result<RunResult, String> {
    let mut timed = Timed::default();
    let mut iterations = 0;
    let mut reports = Vec::with_capacity(SEGMENTS);
    let mut last_model = None;
    for segment in 0..SEGMENTS {
        // Set-up as a user pays it: the fleet, then the trainer (quantize,
        // encode both rounds, generate keys).
        let started = Instant::now();
        let (mut fleet, _) = fleet::spawn(profile(faulty), Transport::Uds, &config.backend)?;
        let mut trainer = if segment == 0 {
            build(problem, scheme, faulty, shape.pilot_iterations, config.seed)
        } else {
            build(problem, scheme, faulty, iterations, config.seed)
        };
        let setup_seconds = started.elapsed().as_secs_f64();
        if segment == 0 {
            // `train_distributed` takes its iteration count up front, so a
            // short pilot on the first fleet sizes every segment to its share
            // of `--seconds`.
            let pilot = drive(&mut trainer, &mut fleet)?;
            iterations = sized_iterations(
                config.seconds / SEGMENTS as f64,
                &pilot.op_ms,
                shape.pilot_iterations,
            );
            trainer = build(problem, scheme, faulty, iterations, config.seed);
        }
        let (driven, wire) = WireDelta::over(&mut fleet, |fleet| drive(&mut trainer, fleet));
        let driven = driven?;
        timed.rss_mib = fleet::peak_rss_mib().unwrap_or(0.0);
        timed.segments.push(Segment {
            setup_seconds,
            ops: iterations as u64,
            wall_seconds: driven.wall_seconds,
            op_ms: driven.op_ms[1..].to_vec(),
            wire,
            attempted: iterations as u64,
            failed: 0,
            flagged: driven.flagged,
        });
        reports.push(driven.report);
        last_model = Some(trainer.model().clone());
    }

    // Every segment trains the same problem from the same seed, so one oracle
    // run checks them all.
    let mut oracle = build(problem, scheme, faulty, iterations, config.seed);
    let oracle_report = oracle.train().map_err(|e| format!("oracle train(): {e}"))?;
    if config.sabotage {
        sabotage(&mut reports[0]);
    }
    for (segment, report) in timed.segments.iter_mut().zip(&reports) {
        segment.failed = trajectory_mismatches(report, &oracle_report);
    }
    let total_failed: u64 = timed.segments.iter().map(|s| s.failed).sum();
    if total_failed == 0 && last_model.is_some_and(|model| weights_differ(&model, oracle.model())) {
        timed.segments[SEGMENTS - 1].failed = 1;
    }
    Ok(end_to_end(&timed))
}

/// What the traced pass hands back besides its spans.
struct TracedPass {
    report: TrainingReport,
    /// Wall-clock of every iteration, ns.
    op_ns: Vec<u64>,
    /// Recovery threshold in force at each `execute_round` call.
    thresholds: Vec<usize>,
    captures: Vec<Capture>,
}

/// Channel ids `train_distributed` uses for the two rounds.
const CHANNEL_ROUND1: usize = 0;
const CHANNEL_ROUND2: usize = 1;

/// A round came back below the recovery threshold: note the park on the
/// first stall, and once the stall budget is spent shrink-recode. Returns
/// whether the iteration must restart on the new code.
fn park(
    trainer: &mut DistributedTrainer<P25>,
    iteration: usize,
    stalls: &mut usize,
    available: usize,
    required: usize,
) -> Result<bool, DistributedError> {
    if *stalls == 0 {
        trainer.note_fleet_event(iteration as u64, available, ChurnEventKind::Parked);
    }
    *stalls += 1;
    if *stalls > trainer.stall_budget() {
        trainer.shrink_to_fit(iteration as u64, available, required)?;
        return Ok(true);
    }
    Ok(false)
}

/// A collect succeeded; if the round had been parked, note the resume.
fn resume(
    trainer: &mut DistributedTrainer<P25>,
    iteration: usize,
    stalls: usize,
    responded: usize,
) {
    if stalls > 0 {
        trainer.note_fleet_event(iteration as u64, responded, ChurnEventKind::Resumed);
    }
}

/// One iteration through the public staged API, exactly as
/// `train_distributed` drives it (park, resume, shrink-recode), with a span
/// around every call.
fn traced_iteration(
    trainer: &mut DistributedTrainer<P25>,
    executor: &mut dyn Executor,
    runner: &mut WireRunner,
    recorder: &SharedRecorder,
    iteration: usize,
    cumulative: &mut f64,
    thresholds: &mut Vec<usize>,
) -> Result<IterationRecord, DistributedError> {
    'restart: loop {
        let round1_tasks = span(recorder, "core.encode_round1", || trainer.encode_round1());
        let byzantine = trainer.byzantine().clone();
        let mut stalls = 0usize;
        let round2_tasks = loop {
            thresholds.push(trainer.round_min_results(TrainingRound::Round1));
            let outcomes = span(recorder, "core.run_round", || {
                runner.run_round(executor, CHANNEL_ROUND1, &round1_tasks, &byzantine)
            })?;
            let collected = span(recorder, "core.collect_round1", || {
                trainer.collect_round1(&outcomes)
            });
            match collected {
                Ok(tasks) => {
                    resume(trainer, iteration, stalls, outcomes.len());
                    break tasks;
                }
                Err(SchemeFailure::NotEnoughResults {
                    available,
                    required,
                }) => {
                    if park(trainer, iteration, &mut stalls, available, required)? {
                        continue 'restart;
                    }
                }
                Err(other) => return Err(other.into()),
            }
        };
        let byzantine = trainer.byzantine().clone();
        let mut stalls = 0usize;
        loop {
            thresholds.push(trainer.round_min_results(TrainingRound::Round2));
            let outcomes = span(recorder, "core.run_round", || {
                runner.run_round(executor, CHANNEL_ROUND2, &round2_tasks, &byzantine)
            })?;
            let collected = span(recorder, "core.collect_round2", || {
                trainer.collect_round2(iteration, &outcomes, cumulative)
            });
            match collected {
                Ok(record) => {
                    resume(trainer, iteration, stalls, outcomes.len());
                    return Ok(record);
                }
                Err(SchemeFailure::NotEnoughResults {
                    available,
                    required,
                }) => {
                    if park(trainer, iteration, &mut stalls, available, required)? {
                        continue 'restart;
                    }
                }
                Err(other) => return Err(other.into()),
            }
        }
    }
}

fn drive_traced(
    trainer: &mut DistributedTrainer<P25>,
    executor: &mut dyn Executor,
    recorder: &SharedRecorder,
) -> Result<TracedPass, String> {
    let mut spans = SpanExecutor::new(executor, recorder.clone(), 2);
    let mut runner = WireRunner::new();
    let mut report = TrainingReport::new(trainer.scheme().label(), trainer.scenario_label());
    let mut cumulative = 0.0;
    let mut thresholds = Vec::new();
    let mut op_ns = Vec::with_capacity(trainer.iterations());
    for iteration in 0..trainer.iterations() {
        recorder.borrow_mut().set_op(iteration as u64);
        let started = Instant::now();
        let record = traced_iteration(
            trainer,
            &mut spans,
            &mut runner,
            recorder,
            iteration,
            &mut cumulative,
            &mut thresholds,
        )
        .map_err(|e| format!("traced iteration {iteration}: {e}"))?;
        op_ns.push(started.elapsed().as_nanos() as u64);
        report.push(record);
    }
    Ok(TracedPass {
        report,
        op_ns,
        thresholds,
        captures: spans.captures,
    })
}

fn traced(
    config: &RunConfig,
    shape: &Shape,
    problem: &TrainingProblem,
    scheme: SchemeKind,
    faulty: bool,
) -> Result<RunResult, String> {
    let mut layers = Layers::new();
    let mut notes = Vec::new();

    // One fleet for the whole run, so the passes compared for tracing
    // overhead see the same warm fleet (a fresh one runs slower for its first
    // second or two): a pilot that sizes the passes and warms the fleet, the
    // untraced reference through the product entry point, the traced pass.
    let (mut fleet, spawned) = fleet::spawn(profile(faulty), Transport::Uds, &config.backend)?;
    layers.insert("sim.spawn_ms", spawned.as_secs_f64() * 1e3);
    let mut pilot_trainer = build(problem, scheme, faulty, shape.pilot_iterations, config.seed);
    let pilot = drive(&mut pilot_trainer, &mut fleet)?;
    let iterations = sized_iterations(config.seconds * 0.5, &pilot.op_ms, shape.pilot_iterations);
    let reference_iterations = (iterations / 2).max(2);
    let mut reference_trainer = build(problem, scheme, faulty, reference_iterations, config.seed);
    let mut reference = drive(&mut reference_trainer, &mut fleet)?;
    let untraced_p50 = median(&reference.op_ms[reference_iterations / 2..]);

    let mut trainer = build(problem, scheme, faulty, iterations, config.seed);
    let recorder = SharedRecorder::default();
    let (pass, wire) = WireDelta::over(&mut fleet, |fleet| {
        drive_traced(&mut trainer, fleet, &recorder)
    });
    let mut pass = pass?;
    drop(fleet);
    wire.record(&mut layers, iterations as u64);

    // Both passes against one oracle run: the trajectory does not depend on
    // the configured iteration count, so the shorter pass is a prefix.
    let mut oracle = build(problem, scheme, faulty, iterations, config.seed);
    let oracle_report = oracle.train().map_err(|e| format!("oracle train(): {e}"))?;
    if config.sabotage {
        sabotage(&mut pass.report);
        sabotage(&mut reference.report);
    }
    let mut failed = trajectory_mismatches(&pass.report, &oracle_report)
        + trajectory_mismatches(&reference.report, &oracle_report);
    if failed == 0 && weights_differ(trainer.model(), oracle.model()) {
        failed = 1;
    }
    let attempted = (iterations + reference_iterations) as u64;

    let recorder = recorder.borrow();
    let spans = &recorder.spans;
    probes::write_trace(config, spans, &mut notes)?;

    // Spans → per-layer numbers.
    let steady_ns: Vec<f64> = pass.op_ns[pass.op_ns.len() / 2..]
        .iter()
        .map(|&v| v as f64)
        .collect();
    let traced_p50 = percentile(&sorted(steady_ns), 50.0) / 1e6;
    probes::trace_overhead(&mut layers, traced_p50, untraced_p50, iterations as u64);
    layers.insert(
        "core.span_coverage",
        span_coverage(spans, pass.op_ns.iter().sum()),
    );
    layers.insert(
        "core.encode_round1_us",
        median_ns(&durations_ns(spans, "core.encode_round1")) / 1e3,
    );
    let collect1_ms = median_ns(&durations_ns(spans, "core.collect_round1")) / 1e6;
    let collect2_ms = median_ns(&durations_ns(spans, "core.collect_round2")) / 1e6;
    layers.insert("core.collect_round1_ms", collect1_ms);
    layers.insert("core.collect_round2_ms", collect2_ms);
    layers.insert(
        "core.wire_runner_self_us",
        median_ns(&self_ns_of(spans, "core.run_round")) / 1e3,
    );
    probes::executor_spans(&mut layers, &recorder, |round, _| pass.thresholds[round]);
    let results_received: usize = recorder
        .rounds
        .iter()
        .map(|r| r.compute_seconds.len())
        .sum();

    let rejected: usize = pass
        .report
        .iterations
        .iter()
        .map(|r| r.detected_byzantine.len())
        .sum();
    // A record lists the workers rejected in either round once; results
    // arrive twice per iteration.
    layers.insert(
        "verify.reject_ratio",
        rejected as f64 / (results_received as f64 / 2.0).max(1.0),
    );
    let (hits, misses) = trainer.decode_cache_stats();
    layers.insert(
        "coding.decode_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let reconfigured: Vec<f64> = pass
        .report
        .iterations
        .iter()
        .zip(&pass.op_ns)
        .filter(|(record, _)| record.reconfigured)
        .map(|(_, &ns)| ns as f64 / 1e6)
        .collect();
    layers.insert("core.reconfig_count", reconfigured.len() as f64);
    if !reconfigured.is_empty() {
        layers.insert("core.reconfig_ms", median(&reconfigured) - traced_p50);
    }

    // Layer probes on the pass's real arguments.
    let protocol = problem.default_protocol::<P25>();
    let round1_matrix = problem.round1_matrix::<P25>(&protocol);
    let round2_matrix = problem.round2_matrix::<P25>(&protocol);
    let mut round_costs = Vec::new();
    for (matrix, capture) in [&round1_matrix, &round2_matrix]
        .into_iter()
        .zip(&pass.captures)
    {
        let Some(inputs) = capture.inputs.first() else {
            continue;
        };
        round_costs.push(probes::coded_round(
            &CodedRound {
                matrix,
                config: coding(),
                inputs: inputs.iter().map(|v| probes::lift::<P25>(v)).collect(),
                arrival_order: capture.arrival_order.clone(),
            },
            config.seed,
        ));
    }
    // An iteration pays both rounds: costs add up, except the single-check
    // costs, which are averaged over the two block shapes.
    let sum = |f: fn(&CodedRoundCosts) -> f64| round_costs.iter().map(f).sum::<f64>();
    let rounds = round_costs.len().max(1) as f64;
    CodedRoundCosts {
        encode: sum(|c| c.encode),
        keygen: sum(|c| c.keygen),
        worker_kernel: sum(|c| c.worker_kernel),
        worker_macs: sum(|c| c.worker_macs),
        check: sum(|c| c.check) / rounds,
        batch_check: sum(|c| c.batch_check) / rounds,
        screen: sum(|c| c.screen),
        decode_warm: sum(|c| c.decode_warm),
        decode_cold: sum(|c| c.decode_cold),
        threshold: coding().recovery_threshold(),
    }
    .record(&mut layers);

    let model = trainer.model().clone();
    let evaluate = probes::median_seconds(15, || {
        (
            model.evaluate_accuracy(&problem.test_features, &problem.test_labels),
            model.evaluate_loss(&problem.train_features, &problem.train_labels),
        )
    });
    layers.insert("ml.evaluate_ms", evaluate * 1e3);
    let errors = vec![0.25f64; problem.samples()];
    let gradient = avcc_linalg::mat_vec(&round2_matrix, &protocol.quantize_error::<P25>(&errors));
    layers.insert(
        "ml.quantize_us",
        1e6 * probes::median_seconds(30, || {
            (
                protocol.quantize_weights::<P25>(&model.weights),
                protocol.quantize_error::<P25>(&errors),
                protocol.dequantize_round2(&gradient),
            )
        }),
    );
    let checks = round_costs
        .iter()
        .map(|c| c.threshold as f64 * c.check)
        .sum::<f64>();
    layers.insert(
        "core.collect_self_ms",
        collect1_ms + collect2_ms
            - 1e3 * (sum(|c| c.screen) + checks + sum(|c| c.decode_warm) + evaluate),
    );

    // The same iteration with no coding, no fleet, one thread.
    let mut local = LogisticModel::zeros(problem.features());
    layers.insert(
        "baseline.local_op_ms",
        1e3 * probes::median_seconds(15, || {
            let (_, _, _, gradient) = protocol.reference_iteration::<P25>(
                &round1_matrix,
                &round2_matrix,
                &local.weights,
                &problem.train_labels,
            );
            local.apply_gradient(&gradient, 5.0, problem.samples());
            (
                local.evaluate_accuracy(&problem.test_features, &problem.test_labels),
                local.evaluate_loss(&problem.train_features, &problem.train_labels),
            )
        }),
    );

    let row_length = round1_matrix.cols();
    probes::kernels(&mut layers, row_length);
    if let Some(capture) = pass.captures.first() {
        probes::wire(&mut layers, capture);
    }
    probes::transports(
        &mut layers,
        &pass.captures,
        &profile(faulty),
        &config.backend,
    )?;

    if !faulty {
        // False-positive adaptations: the adaptive scheme on the same quiet
        // fleet. Informational — the count differs from run to run.
        let (mut fleet, _) = fleet::spawn(profile(false), Transport::Uds, &config.backend)?;
        let mut adaptive = build(
            problem,
            SchemeKind::Avcc,
            false,
            shape.quiet_adaptive_iterations,
            config.seed,
        );
        let report = train_distributed(&mut adaptive, &mut fleet)
            .map_err(|e| format!("adaptive pass on the quiet fleet: {e}"))?;
        layers.insert(
            "core.quiet_reconfigs",
            report.reconfiguration_count() as f64,
        );
    }

    probes::run_totals(
        &mut layers,
        pass.op_ns.iter().sum::<u64>() as f64 / 1e9,
        attempted,
        failed,
    );
    layers.insert("e2e.flagged_passes", f64::from(u8::from(reference.flagged)));
    notes.push(format!(
        "traced {iterations} iterations (+{} untraced reference); {} spans",
        reference_iterations,
        spans.len()
    ));
    Ok(per_layer(&layers, attempted, failed, notes))
}
