//! `serve_mixed`: `serve_distributed` over a mix of training and batched
//! matmul jobs on a fleet with one straggler — multi-job throughput on the
//! real fleet. One operation is one call over the eight-job mix.

use std::time::Instant;

use avcc_coding::SchemeConfig;
use avcc_core::{ExperimentConfig, FaultScenario, TrainingReport};
use avcc_field::{Fp, P25};
use avcc_linalg::{mat_vec, Matrix};
use avcc_ml::dataset::DatasetConfig;
use avcc_serve::{
    serve_distributed, CompletedJob, Fleet, JobOutput, JobSpec, Scheduler, SchedulerConfig,
};
use avcc_sim::attack::AttackModel;
use avcc_sim::cluster::ClusterProfile;
use avcc_sim::executor::Executor;
use avcc_sim::socket::Transport;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fleet::{self, WORKERS};
use crate::probes::{self, CodedRound, Layers};
use crate::run::{
    end_to_end, per_layer, RunConfig, RunResult, Scale, Segment, Timed, WireDelta, SEGMENTS,
};
use crate::stats::median;
use crate::trace::{span_if, SharedRecorder, SpanExecutor};

type F = Fp<P25>;

struct Shape {
    dataset: DatasetConfig,
    /// Iterations per training job. Short, so a run holds enough calls for a
    /// tail percentile; the per-job fixed costs this workload is about
    /// (trainer construction, block shipping) are paid in full regardless.
    iterations: usize,
    rows: usize,
    cols: usize,
    functions: usize,
}

fn shape(scale: Scale) -> Shape {
    match scale {
        Scale::Full => Shape {
            dataset: DatasetConfig::default(),
            iterations: 5,
            rows: 240,
            cols: 128,
            functions: 8,
        },
        Scale::Toy => Shape {
            dataset: DatasetConfig {
                train_samples: 180,
                test_samples: 60,
                features: 27,
                informative: 9,
                ..DatasetConfig::default()
            },
            iterations: 2,
            rows: 48,
            cols: 16,
            functions: 3,
        },
    }
}

fn matmul_coding() -> SchemeConfig {
    SchemeConfig::linear(WORKERS, 8, 2, 1).expect("(12, 8, 2, 1) is feasible")
}

/// One straggler, no Byzantine worker: the fleet sleeps for it, the training
/// jobs are configured for it.
fn scenario() -> FaultScenario {
    FaultScenario::paper(1, 0, AttackModel::None)
}

fn profile() -> ClusterProfile {
    let scenario = scenario();
    ClusterProfile::uniform(WORKERS)
        .with_stragglers(&scenario.stragglers, scenario.straggler_multiplier)
}

/// The eight jobs: training (uncoded, AVCC, uncoded, AVCC) interleaved with
/// four batched matmuls.
fn job_mix(shape: &Shape, seed: u64) -> Vec<JobSpec<P25>> {
    let mut jobs = Vec::with_capacity(8);
    for pair in 0..4u64 {
        let mut training = if pair % 2 == 0 {
            ExperimentConfig::paper_uncoded(scenario())
        } else {
            ExperimentConfig::paper_avcc(2, 1, scenario())
        };
        training.dataset = DatasetConfig {
            seed: seed.wrapping_add(pair),
            ..shape.dataset
        };
        training.iterations = shape.iterations;
        training.seed = seed.wrapping_mul(31).wrapping_add(pair + 1);
        jobs.push(JobSpec::Training(training));

        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(pair));
        jobs.push(JobSpec::MatMulBatch {
            matrix: Matrix::from_vec(
                shape.rows,
                shape.cols,
                avcc_field::random_matrix(&mut rng, shape.rows, shape.cols),
            ),
            inputs: (0..shape.functions)
                .map(|_| avcc_field::random_vector(&mut rng, shape.cols))
                .collect(),
            coding: matmul_coding(),
            seed: seed.wrapping_add(100 + pair),
        });
    }
    jobs
}

/// What each job must produce, computed once per run.
enum Expected {
    Trajectory(Vec<(u64, u64)>),
    Products(Vec<Vec<F>>),
}

fn trajectory(report: &TrainingReport) -> Vec<(u64, u64)> {
    report
        .iterations
        .iter()
        .map(|r| (r.test_accuracy.to_bits(), r.train_loss.to_bits()))
        .collect()
}

fn oracles(jobs: &[JobSpec<P25>]) -> Result<Vec<Expected>, String> {
    jobs.iter()
        .map(|job| match job {
            JobSpec::Training(config) => config
                .build_trainer::<P25>()
                .train()
                .map(|report| Expected::Trajectory(trajectory(&report)))
                .map_err(|e| format!("oracle train(): {e}")),
            JobSpec::MatMulBatch { matrix, inputs, .. } => Ok(Expected::Products(
                inputs.iter().map(|input| mat_vec(matrix, input)).collect(),
            )),
            JobSpec::CodedMatVec { matrix, input, .. } => {
                Ok(Expected::Products(vec![mat_vec(matrix, input)]))
            }
        })
        .collect()
}

fn job_is_correct(job: &CompletedJob<P25>, expected: &Expected) -> bool {
    match (&job.output, expected) {
        (JobOutput::Training(report), Expected::Trajectory(want)) => trajectory(report) == *want,
        (JobOutput::MatVecBatch(products), Expected::Products(want)) => products == want,
        (JobOutput::MatVec(product), Expected::Products(want)) => {
            want.len() == 1 && *product == want[0]
        }
        _ => false,
    }
}

#[derive(Default)]
struct Served {
    /// Latency of every call, ms.
    call_ms: Vec<f64>,
    jobs_attempted: u64,
    jobs_failed: u64,
    /// `active_seconds` of every job, by call.
    active_seconds: Vec<Vec<f64>>,
}

/// Calls `serve_distributed` over the mix until the calls themselves have
/// taken `seconds`.
fn serve_for(
    jobs: &[JobSpec<P25>],
    expected: &[Expected],
    seconds: f64,
    sabotage: bool,
    executor: &mut dyn Executor,
    recorder: Option<&SharedRecorder>,
) -> Served {
    let mut served = Served::default();
    let mut busy = 0.0;
    while busy < seconds || served.call_ms.len() < 2 {
        let specs = jobs.to_vec();
        if let Some(recorder) = recorder {
            recorder.borrow_mut().set_op(served.call_ms.len() as u64);
        }
        let started = Instant::now();
        let mut completed = span_if(recorder, "serve.call", || {
            serve_distributed(specs, executor)
        });
        let elapsed = started.elapsed().as_secs_f64();
        busy += elapsed;
        if sabotage && served.call_ms.is_empty() {
            if let Some(JobOutput::MatVecBatch(products)) =
                completed.get_mut(1).map(|job| &mut job.output)
            {
                products[0][0] += F::new(1);
            }
        }
        served.call_ms.push(elapsed * 1e3);
        served.jobs_attempted += jobs.len() as u64;
        served.jobs_failed += jobs.len().saturating_sub(completed.len()) as u64;
        served.jobs_failed += completed
            .iter()
            .zip(expected)
            .filter(|(job, expected)| !job_is_correct(job, expected))
            .count() as u64;
        served
            .active_seconds
            .push(completed.iter().map(|j| j.metrics.active_seconds).collect());
    }
    served
}

/// Runs `serve_mixed`.
pub fn run(config: &RunConfig) -> Result<RunResult, String> {
    let shape = shape(config.scale);
    let jobs = job_mix(&shape, config.seed);
    let expected = oracles(&jobs)?;
    if config.trace {
        return traced(config, &shape, &jobs, &expected);
    }

    let mut timed = Timed::default();
    for segment in 0..SEGMENTS {
        let (mut fleet, spawned) = fleet::spawn(profile(), Transport::Uds, &config.backend)?;
        let (served, wire) = WireDelta::over(&mut fleet, |fleet| {
            serve_for(
                &jobs,
                &expected,
                config.seconds / SEGMENTS as f64,
                config.sabotage && segment == 0,
                fleet,
                None,
            )
        });
        timed.rss_mib = fleet::peak_rss_mib().unwrap_or(0.0);
        timed.segments.push(Segment {
            setup_seconds: spawned.as_secs_f64(),
            ops: served.call_ms.len() as u64,
            wall_seconds: served.call_ms.iter().sum::<f64>() / 1e3,
            op_ms: served.call_ms[1..].to_vec(),
            wire,
            attempted: served.jobs_attempted,
            failed: served.jobs_failed,
            flagged: false,
        });
    }
    let mut result = end_to_end(&timed);
    result.notes.push(format!(
        "one operation = one serve_distributed call over {} jobs; attempted/failed count jobs",
        jobs.len()
    ));
    Ok(result)
}

fn traced(
    config: &RunConfig,
    shape: &Shape,
    jobs: &[JobSpec<P25>],
    expected: &[Expected],
) -> Result<RunResult, String> {
    let mut layers = Layers::new();
    let mut notes = Vec::new();
    let (mut fleet, spawned) = fleet::spawn(profile(), Transport::Uds, &config.backend)?;
    layers.insert("sim.spawn_ms", spawned.as_secs_f64() * 1e3);

    let reference = serve_for(
        jobs,
        expected,
        config.seconds * 0.25,
        config.sabotage,
        &mut fleet,
        None,
    );
    // A fresh fleet runs slower for its first second or two: compare the
    // second halves of both passes.
    let untraced_p50 = median(&reference.call_ms[reference.call_ms.len() / 2..]);

    let recorder = SharedRecorder::default();
    let ((served, captures), wire) = WireDelta::over(&mut fleet, |fleet| {
        let mut spans = SpanExecutor::new(fleet, recorder.clone(), 4);
        let served = serve_for(
            jobs,
            expected,
            config.seconds * 0.5,
            false,
            &mut spans,
            Some(&recorder),
        );
        (served, spans.captures)
    });
    drop(fleet);
    let calls = served.call_ms.len() as u64;
    wire.record(&mut layers, calls);

    let recorder = recorder.borrow();
    let spans = &recorder.spans;
    probes::write_trace(config, spans, &mut notes)?;

    let traced_p50 = median(&served.call_ms[served.call_ms.len() / 2..]);
    probes::trace_overhead(&mut layers, traced_p50, untraced_p50, calls);
    let wall_seconds = served.call_ms.iter().sum::<f64>() / 1e3;
    layers.insert(
        "serve.jobs_per_s.uds",
        served.jobs_attempted as f64 / wall_seconds,
    );
    // `serve_distributed` is one opaque call; only its executor children are
    // visible, so coverage of the call span by itself is total.
    layers.insert("core.span_coverage", 1.0);

    // A training round needs K = 9 results (the uncoded baseline gets exactly
    // 9 and needs them all), a batched matmul round K = 8.
    probes::executor_spans(&mut layers, &recorder, |_, round| {
        if round.functions > 1 {
            8
        } else {
            9
        }
    });

    // Per-job overhead: the job's active time minus the executor spans that
    // fall inside its window (jobs run back to back inside a call).
    let mut job_overhead_ms = Vec::new();
    let call_spans: Vec<usize> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "serve.call")
        .map(|(i, _)| i)
        .collect();
    for (&call, active) in call_spans.iter().zip(&served.active_seconds) {
        let mut window_start = spans[call].start_ns as f64;
        for &seconds in active {
            let window_end = window_start + seconds * 1e9;
            let inside: u64 = spans
                .iter()
                .filter(|s| {
                    s.parent == Some(call)
                        && (s.start_ns as f64) >= window_start
                        && (s.start_ns as f64) < window_end
                })
                .map(|s| s.duration_ns())
                .sum();
            job_overhead_ms.push(seconds * 1e3 - inside as f64 / 1e6);
            window_start = window_end;
        }
    }
    layers.insert("serve.job_overhead_ms", median(&job_overhead_ms));

    // The same eight jobs through the in-process scheduler: what pipelining
    // is worth where it exists today.
    for (name, scheduler_config) in [
        (
            "serve.jobs_per_s.fleet_pipelined",
            SchedulerConfig::default(),
        ),
        (
            "serve.jobs_per_s.fleet_sync",
            SchedulerConfig::synchronous(),
        ),
    ] {
        let mut scheduler = Scheduler::<P25>::new(scheduler_config);
        for job in jobs {
            scheduler
                .submit(job.clone())
                .map_err(|e| format!("in-process scheduler: {e}"))?;
        }
        let report = scheduler.run(&Fleet::new(4));
        layers.insert(name, report.metrics.jobs_per_second());
    }

    // Layer probes on the matmul job's real arguments and the training
    // problem's real data.
    if let (Some(JobSpec::MatMulBatch { matrix, inputs, .. }), Some(capture)) = (
        jobs.get(1),
        captures
            .iter()
            .find(|c| c.inputs.first().is_some_and(|i| i.len() > 1)),
    ) {
        let costs = probes::coded_round(
            &CodedRound {
                matrix,
                config: matmul_coding(),
                inputs: inputs.clone(),
                arrival_order: capture.arrival_order.clone(),
            },
            config.seed,
        );
        costs.record(&mut layers);
        probes::wire(&mut layers, capture);
    }
    if let Some(JobSpec::Training(training)) = jobs.first() {
        let mut trainer = training.build_trainer::<P25>();
        trainer.train().map_err(|e| format!("probe train(): {e}"))?;
        let problem = avcc_core::TrainingProblem::from_dataset(
            &avcc_ml::dataset::Dataset::gisette_like(training.dataset),
            training.partitions,
        );
        let model = trainer.model().clone();
        layers.insert(
            "ml.evaluate_ms",
            1e3 * probes::median_seconds(15, || {
                (
                    model.evaluate_accuracy(&problem.test_features, &problem.test_labels),
                    model.evaluate_loss(&problem.train_features, &problem.train_labels),
                )
            }),
        );
        // The call's work with no coding, no fleet, one thread: every
        // training job's iterations as plain field products, plus the
        // matmul jobs' products.
        let protocol = problem.default_protocol::<P25>();
        let round1 = problem.round1_matrix::<P25>(&protocol);
        let round2 = problem.round2_matrix::<P25>(&protocol);
        let mut local = avcc_ml::logistic::LogisticModel::zeros(problem.features());
        layers.insert(
            "baseline.local_op_ms",
            1e3 * probes::median_seconds(5, || {
                for _ in 0..4 * shape.iterations {
                    let (_, _, _, gradient) = protocol.reference_iteration::<P25>(
                        &round1,
                        &round2,
                        &local.weights,
                        &problem.train_labels,
                    );
                    local.apply_gradient(&gradient, training.learning_rate, problem.samples());
                    std::hint::black_box((
                        local.evaluate_accuracy(&problem.test_features, &problem.test_labels),
                        local.evaluate_loss(&problem.train_features, &problem.train_labels),
                    ));
                }
                jobs.iter()
                    .filter_map(|job| match job {
                        JobSpec::MatMulBatch { matrix, inputs, .. } => Some(
                            inputs
                                .iter()
                                .map(|input| mat_vec(matrix, input))
                                .collect::<Vec<_>>(),
                        ),
                        _ => None,
                    })
                    .collect::<Vec<_>>()
            }),
        );
    }
    probes::kernels(&mut layers, shape.cols);
    probes::transports(&mut layers, &captures, &profile(), &config.backend)?;

    let attempted = reference.jobs_attempted + served.jobs_attempted;
    let failed = reference.jobs_failed + served.jobs_failed;
    probes::run_totals(&mut layers, wall_seconds, attempted, failed);
    notes.push(format!(
        "traced {calls} calls (+{} untraced reference) of {} jobs; {} spans",
        reference.call_ms.len(),
        jobs.len(),
        spans.len()
    ));
    Ok(per_layer(&layers, attempted, failed, notes))
}
