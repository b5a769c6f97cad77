//! `matmul_batch`: one-shot coded matrix products, a fresh dataset per job.
//!
//! Per job the harness does exactly what a single-job `serve_distributed`
//! call does in its `MatMulBatch` arm — a fresh `WireRunner`, `AvccMatVec::new`
//! (encode + keys) → `dispatch_batch` → `WireRunner::run_batch_round` →
//! `collect_batch` — except that every job carries one reverse-value liar,
//! worker `job mod 12`.
//!
//! The runner is per job on purpose: a fresh runner numbers its wire jobs
//! from 0, so each job's blocks *replace* the previous job's on the master
//! and on every worker. One runner across jobs would keep every job's 12 MB
//! of blocks resident on both sides for the life of the fleet (nothing ever
//! drops a wire job), and past ~0.9 GB of fresh memory the capture host's
//! first-touch page faults get 7x slower — the run would measure the
//! hypervisor, not the program.

use std::time::Instant;

use avcc_coding::SchemeConfig;
use avcc_core::distributed::WireRunner;
use avcc_core::{AvccMatVec, MatVecEngine};
use avcc_field::{Fp, P64};
use avcc_linalg::{mat_vec, Matrix};
use avcc_sim::attack::{AttackModel, ByzantineSpec};
use avcc_sim::cluster::{ClusterProfile, NetworkModel};
use avcc_sim::executor::Executor;
use avcc_sim::socket::Transport;
use avcc_verify::KeyGenConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fleet::{self, WORKERS};
use crate::probes::{self, median_ns, CodedRound, Layers};
use crate::run::{
    end_to_end, per_layer, RunConfig, RunResult, Scale, Segment, Timed, WireDelta, SEGMENTS,
};
use crate::stats::median;
use crate::trace::{
    durations_ns, self_ns_of, span_coverage, span_if, SharedRecorder, SpanExecutor,
};

type F = Fp<P64>;

struct Shape {
    rows: usize,
    cols: usize,
    functions: usize,
}

fn shape(scale: Scale) -> Shape {
    match scale {
        Scale::Full => Shape {
            rows: 1920,
            cols: 512,
            functions: 8,
        },
        Scale::Toy => Shape {
            rows: 48,
            cols: 16,
            functions: 3,
        },
    }
}

/// `K = 8` puts encode and decode on the NTT paths of the Goldilocks field.
fn coding() -> SchemeConfig {
    SchemeConfig::linear(WORKERS, 8, 2, 1).expect("(12, 8, 2, 1) is feasible")
}

/// The inputs of job `job`: generated from the run seed, never seen by the
/// program except as arguments.
struct JobInputs {
    matrix: Matrix<F>,
    inputs: Vec<Vec<F>>,
    engine_seed: u64,
    liar: usize,
}

fn job_inputs(shape: &Shape, seed: u64, job: u64) -> JobInputs {
    let engine_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(job);
    let mut rng = StdRng::seed_from_u64(engine_seed ^ 0xDA7A);
    JobInputs {
        matrix: Matrix::from_vec(
            shape.rows,
            shape.cols,
            avcc_field::random_matrix(&mut rng, shape.rows, shape.cols),
        ),
        inputs: (0..shape.functions)
            .map(|_| avcc_field::random_vector(&mut rng, shape.cols))
            .collect(),
        engine_seed,
        liar: (job % WORKERS as u64) as usize,
    }
}

/// What one job returned.
struct JobOutcome {
    outputs: Vec<Vec<F>>,
    detected: Vec<usize>,
    results_received: usize,
    arrival_order: Vec<usize>,
    cache: (u64, u64),
}

/// One job, submit to decoded outputs. With a recorder, every call into a
/// layer gets a span.
fn serve_job(
    job: &JobInputs,
    executor: &mut dyn Executor,
    recorder: Option<&SharedRecorder>,
) -> Result<JobOutcome, String> {
    let mut runner = WireRunner::new();
    let mut rng = StdRng::seed_from_u64(job.engine_seed);
    let mut engine = span_if(recorder, "core.engine_new", || {
        AvccMatVec::<P64>::new(
            &job.matrix,
            coding(),
            KeyGenConfig { repetitions: 1 },
            &mut rng,
        )
    });
    let tasks = span_if(recorder, "core.dispatch_batch", || {
        engine.dispatch_batch(&job.inputs)
    });
    let byzantine = ByzantineSpec::new([job.liar], AttackModel::reverse());
    let outcomes = span_if(recorder, "core.run_batch_round", || {
        runner.run_batch_round(executor, 0, &tasks, &byzantine)
    })
    .map_err(|e| format!("run_batch_round: {e}"))?;
    let execution = span_if(recorder, "core.collect_batch", || {
        engine.collect_batch(
            &job.inputs,
            &outcomes,
            &NetworkModel::default(),
            1.0,
            &mut rng,
        )
    })
    .map_err(|e| format!("collect_batch: {e}"))?;
    let mut detected = execution.detected_byzantine;
    detected.sort_unstable();
    Ok(JobOutcome {
        outputs: execution.outputs,
        detected,
        results_received: outcomes.len(),
        arrival_order: outcomes.iter().map(|o| o.worker).collect(),
        cache: engine.decode_cache_stats(),
    })
}

/// The oracle: every output equals the plain product and exactly the
/// injected worker was detected.
fn job_is_correct(job: &JobInputs, outcome: &JobOutcome) -> bool {
    outcome.detected == [job.liar]
        && outcome.outputs.len() == job.inputs.len()
        && job
            .inputs
            .iter()
            .zip(&outcome.outputs)
            .all(|(input, output)| *output == mat_vec(&job.matrix, input))
}

/// Totals over a loop of jobs.
#[derive(Default)]
struct Served {
    op_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    detected: usize,
    results_received: usize,
    cache: (u64, u64),
    last: Option<(JobInputs, Vec<usize>)>,
}

/// Serves jobs `first_job..` until the operations themselves have taken
/// `seconds`; input generation and the oracle run between operations and are
/// not timed.
fn serve_for(
    shape: &Shape,
    config: &RunConfig,
    seconds: f64,
    first_job: u64,
    min_jobs: u64,
    executor: &mut dyn Executor,
    recorder: Option<&SharedRecorder>,
) -> Served {
    let mut served = Served::default();
    let mut busy = 0.0;
    let mut job_id = first_job;
    while busy < seconds || served.attempted < min_jobs {
        let job = job_inputs(shape, config.seed, job_id);
        if let Some(recorder) = recorder {
            recorder.borrow_mut().set_op(job_id);
        }
        let started = Instant::now();
        let result = serve_job(&job, executor, recorder);
        let elapsed = started.elapsed().as_secs_f64();
        busy += elapsed;
        served.op_ms.push(elapsed * 1e3);
        served.attempted += 1;
        match result {
            Ok(mut outcome) => {
                if config.sabotage && job_id == 0 {
                    outcome.outputs[0][0] += F::new(1);
                }
                if !job_is_correct(&job, &outcome) {
                    served.failed += 1;
                }
                served.detected += outcome.detected.len();
                served.results_received += outcome.results_received;
                served.cache.0 += outcome.cache.0;
                served.cache.1 += outcome.cache.1;
                served.last = Some((job, outcome.arrival_order));
            }
            Err(_) => served.failed += 1,
        }
        job_id += 1;
    }
    served
}

/// Runs `matmul_batch`.
pub fn run(config: &RunConfig) -> Result<RunResult, String> {
    let shape = shape(config.scale);
    let profile = ClusterProfile::uniform(WORKERS);
    if config.trace {
        return traced(config, &shape, &profile);
    }

    // No one-time dataset here (every job brings its own): set-up is the
    // fleet.
    let mut timed = Timed::default();
    let mut next_job = 0;
    for _ in 0..SEGMENTS {
        let (mut fleet, spawned) = fleet::spawn(profile.clone(), Transport::Uds, &config.backend)?;
        let (served, wire) = WireDelta::over(&mut fleet, |fleet| {
            serve_for(
                &shape,
                config,
                config.seconds / SEGMENTS as f64,
                next_job,
                2,
                fleet,
                None,
            )
        });
        timed.rss_mib = fleet::peak_rss_mib().unwrap_or(0.0);
        next_job += served.attempted;
        timed.segments.push(Segment {
            setup_seconds: spawned.as_secs_f64(),
            ops: served.attempted,
            wall_seconds: served.op_ms.iter().sum::<f64>() / 1e3,
            op_ms: served.op_ms[1..].to_vec(),
            wire,
            attempted: served.attempted,
            failed: served.failed,
            flagged: false,
        });
    }
    Ok(end_to_end(&timed))
}

fn traced(
    config: &RunConfig,
    shape: &Shape,
    profile: &ClusterProfile,
) -> Result<RunResult, String> {
    let mut layers = Layers::new();
    let mut notes = Vec::new();
    let (mut fleet, spawned) = fleet::spawn(profile.clone(), Transport::Uds, &config.backend)?;
    layers.insert("sim.spawn_ms", spawned.as_secs_f64() * 1e3);

    // Untraced reference first, then the traced pass on the same fleet with
    // later job numbers (fresh matrices).
    let reference = serve_for(shape, config, config.seconds * 0.25, 0, 2, &mut fleet, None);
    // A fresh fleet runs slower for its first second or two: compare the
    // second halves of both passes.
    let untraced_p50 = median(&reference.op_ms[reference.op_ms.len() / 2..]);

    let recorder = SharedRecorder::default();
    let first_traced = reference.attempted;
    let ((served, captures), wire) = WireDelta::over(&mut fleet, |fleet| {
        let mut spans = SpanExecutor::new(fleet, recorder.clone(), 1);
        let served = serve_for(
            shape,
            config,
            config.seconds * 0.5,
            first_traced,
            2,
            &mut spans,
            Some(&recorder),
        );
        (served, spans.captures)
    });
    drop(fleet);
    wire.record(&mut layers, served.attempted);

    let recorder = recorder.borrow();
    let spans = &recorder.spans;
    probes::write_trace(config, spans, &mut notes)?;

    let traced_p50 = median(&served.op_ms[served.op_ms.len() / 2..]);
    probes::trace_overhead(&mut layers, traced_p50, untraced_p50, served.attempted);
    let wall_ns = served.op_ms.iter().sum::<f64>() * 1e6;
    layers.insert("core.span_coverage", span_coverage(spans, wall_ns as u64));
    layers.insert(
        "core.engine_new_ms",
        median_ns(&durations_ns(spans, "core.engine_new")) / 1e6,
    );
    let collect_ms = median_ns(&durations_ns(spans, "core.collect_batch")) / 1e6;
    layers.insert("core.collect_batch_ms", collect_ms);
    layers.insert(
        "core.wire_runner_self_us",
        median_ns(&self_ns_of(spans, "core.run_batch_round")) / 1e3,
    );
    let threshold = coding().recovery_threshold();
    probes::executor_spans(&mut layers, &recorder, |_, _| threshold);
    layers.insert(
        "verify.reject_ratio",
        served.detected as f64 / served.results_received.max(1) as f64,
    );
    layers.insert(
        "coding.decode_cache_hit_ratio",
        served.cache.0 as f64 / (served.cache.0 + served.cache.1).max(1) as f64,
    );

    if let Some((job, arrival_order)) = &served.last {
        let costs = probes::coded_round(
            &CodedRound {
                matrix: &job.matrix,
                config: coding(),
                inputs: job.inputs.clone(),
                arrival_order: arrival_order.clone(),
            },
            config.seed,
        );
        costs.record(&mut layers);
        // A job decodes its m functions over one survivor set: the first
        // decode is cold, the rest hit the basis cache.
        let functions = job.inputs.len() as f64;
        layers.insert(
            "core.collect_self_ms",
            collect_ms
                - 1e3
                    * (costs.screen
                        + costs.threshold as f64 * costs.batch_check
                        + functions * costs.check
                        + costs.decode_cold
                        + (functions - 1.0) * costs.decode_warm),
        );
        layers.insert(
            "baseline.local_op_ms",
            1e3 * probes::median_seconds(9, || {
                job.inputs
                    .iter()
                    .map(|input| mat_vec(&job.matrix, input))
                    .collect::<Vec<_>>()
            }),
        );
    }
    probes::kernels(&mut layers, shape.cols);
    if let Some(capture) = captures.first() {
        probes::wire(&mut layers, capture);
    }
    probes::transports(&mut layers, &captures, profile, &config.backend)?;

    let attempted = reference.attempted + served.attempted;
    let failed = reference.failed + served.failed;
    probes::run_totals(&mut layers, wall_ns / 1e9, attempted, failed);
    notes.push(format!(
        "traced {} jobs (+{} untraced reference); {} spans",
        served.attempted,
        reference.attempted,
        spans.len()
    ));
    Ok(per_layer(&layers, attempted, failed, notes))
}
