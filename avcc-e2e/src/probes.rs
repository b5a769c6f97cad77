//! Layer probes: each times one layer's public function on arguments taken
//! from the traced pass (real shapes, real inputs, real survivor sets), so
//! the per-layer table can be read against the end-to-end numbers without
//! any instrumentation inside the crates.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use avcc_coding::{DualCodeword, EncodedDataset, LagrangeDecoder, SchemeConfig};
use avcc_field::{Fp, PrimeField, PrimeModulus, P25, P64};
use avcc_linalg::Matrix;
use avcc_sim::executor::{Executor, ThreadedExecutor};
use avcc_sim::socket::Transport;
use avcc_sim::wire::{
    crc32c, read_frame, write_frame, Block, Task, TaskResult, TypedBlock, DEFAULT_MAX_PAYLOAD,
};
use avcc_verify::{combine_with_powers, KeyGenConfig, MatVecKey};
use rand::rngs::StdRng;
use rand::SeedableRng;

use avcc_sim::socket::WorkerBackend;

use crate::fleet;
use crate::run::RunConfig;
use crate::stats::median;
use crate::trace::{durations_ns, write_jsonl, Capture, Recorder, RoundStat, Span};

/// Named per-layer values collected during a traced run.
pub type Layers = BTreeMap<&'static str, f64>;

/// Median seconds of `body` over `reps` runs (after one untimed warm-up).
pub fn median_seconds<T>(reps: usize, mut body: impl FnMut() -> T) -> f64 {
    black_box(body());
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let started = Instant::now();
            black_box(body());
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Lifts canonical residues captured off the wire back into the field.
pub fn lift<M: PrimeModulus>(values: &[u64]) -> Vec<Fp<M>> {
    values.iter().map(|&v| Fp::<M>::from_u64(v)).collect()
}

fn lower<M: PrimeModulus>(values: &[Fp<M>]) -> Vec<u64> {
    values.iter().map(|v| v.to_u64()).collect()
}

fn block_of<M: PrimeModulus>(matrix: &Matrix<Fp<M>>) -> Block {
    Block {
        modulus: M::MODULUS,
        rows: matrix.rows() as u32,
        cols: matrix.cols() as u32,
        elements: lower(matrix.data()),
    }
}

/// Arguments of one coded round, as the traced pass saw them.
pub struct CodedRound<'a, M: PrimeModulus> {
    /// The matrix the round's dataset encodes.
    pub matrix: &'a Matrix<Fp<M>>,
    /// The coding configuration.
    pub config: SchemeConfig,
    /// The round's `m` broadcast input vectors.
    pub inputs: Vec<Vec<Fp<M>>>,
    /// Worker ids in the order their results arrived.
    pub arrival_order: Vec<usize>,
}

/// Master-side cost of one coded round, layer by layer (seconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct CodedRoundCosts {
    /// `EncodedDataset::encode`.
    pub encode: f64,
    /// `MatVecKey::generate` for every worker.
    pub keygen: f64,
    /// One worker block times its inputs (`TypedBlock::execute`).
    pub worker_kernel: f64,
    /// MACs in that kernel call.
    pub worker_macs: f64,
    /// One worker's `verify(input, payload)`.
    pub check: f64,
    /// One worker's combined check: fold `m` claims by powers of σ, verify.
    pub batch_check: f64,
    /// `DualCodeword::screen` over every arrival.
    pub screen: f64,
    /// `decode_erasure` on a survivor set the decoder has seen.
    pub decode_warm: f64,
    /// `decode_erasure` on a first-seen survivor set.
    pub decode_cold: f64,
    /// Recovery threshold of the configuration.
    pub threshold: usize,
}

impl CodedRoundCosts {
    /// Writes the costs into `layers` under the coding / verify / linalg
    /// metric names.
    pub fn record(&self, layers: &mut Layers) {
        layers.insert("coding.encode_ms", self.encode * 1e3);
        layers.insert("verify.keygen_ms", self.keygen * 1e3);
        layers.insert(
            "linalg.mat_vec_ns_per_mac",
            self.worker_kernel * 1e9 / self.worker_macs.max(1.0),
        );
        layers.insert("coding.decode_ms", self.decode_warm * 1e3);
        layers.insert("coding.decode_cold_ms", self.decode_cold * 1e3);
        layers.insert("coding.screen_ms", self.screen * 1e3);
        layers.insert("verify.check_us", self.check * 1e6);
        layers.insert("verify.batch_check_us", self.batch_check * 1e6);
    }
}

/// Replays the master- and worker-side layers of one coded round.
pub fn coded_round<M: PrimeModulus>(round: &CodedRound<'_, M>, seed: u64) -> CodedRoundCosts {
    let mut rng = StdRng::seed_from_u64(seed);
    let key_config = KeyGenConfig { repetitions: 1 };
    let encode = median_seconds(5, || {
        EncodedDataset::<M>::encode(round.matrix, round.config, &mut rng)
    });
    let dataset = EncodedDataset::<M>::encode(round.matrix, round.config, &mut rng);
    let keygen = median_seconds(5, || {
        dataset
            .shares()
            .iter()
            .map(|share| MatVecKey::generate(share, key_config, &mut rng))
            .collect::<Vec<_>>()
    });
    let keys: Vec<MatVecKey<M>> = dataset
        .shares()
        .iter()
        .map(|share| MatVecKey::generate(share, key_config, &mut rng))
        .collect();

    // Every worker's honest results, through the worker's own kernel path.
    let wire_inputs: Vec<Vec<u64>> = round.inputs.iter().map(|v| lower(v)).collect();
    let typed: Vec<TypedBlock> = dataset
        .shares()
        .iter()
        .map(|share| TypedBlock::from_block(&block_of(share)).expect("canonical block"))
        .collect();
    let worker_kernel = median_seconds(15, || typed[0].execute(&wire_inputs).expect("kernel"));
    let worker_macs = (typed[0].rows() * typed[0].cols() * wire_inputs.len()) as f64;
    let payloads: Vec<Vec<Vec<Fp<M>>>> = typed
        .iter()
        .map(|block| {
            block
                .execute(&wire_inputs)
                .expect("kernel")
                .iter()
                .map(|v| lift::<M>(v))
                .collect()
        })
        .collect();

    let check = median_seconds(50, || keys[0].verify(&round.inputs[0], &payloads[0][0]));
    let sigma: Fp<M> = avcc_field::random_element(&mut rng);
    let combined_input = combine_with_powers(sigma, &round.inputs);
    let batch_check = median_seconds(50, || {
        let claim = combine_with_powers(sigma, &payloads[0]);
        keys[0].verify(&combined_input, &claim)
    });

    let claims: Vec<(usize, Vec<Fp<M>>)> = payloads
        .iter()
        .enumerate()
        .map(|(worker, p)| (worker, p[0].clone()))
        .collect();
    let dual = DualCodeword::<M>::new(round.config);
    let screen = if dual.screenable(claims.len()) {
        median_seconds(30, || {
            dual.screen(&claims, 1, &mut rng).expect("screenable")
        })
    } else {
        0.0
    };

    let threshold = round.config.recovery_threshold();
    let mut order: Vec<usize> = round
        .arrival_order
        .iter()
        .copied()
        .filter(|&w| w < claims.len())
        .collect();
    if order.len() < threshold {
        order = (0..claims.len()).collect();
    }
    let survivors: Vec<(usize, Vec<Fp<M>>)> = order[..threshold]
        .iter()
        .map(|&w| claims[w].clone())
        .collect();
    let decoder = LagrangeDecoder::<M>::new(round.config);
    let decode_warm = median_seconds(30, || decoder.decode_erasure(&survivors).expect("decode"));
    let cold: Vec<f64> = (0..7)
        .map(|_| {
            let fresh = LagrangeDecoder::<M>::new(round.config);
            let started = Instant::now();
            black_box(fresh.decode_erasure(&survivors).expect("decode"));
            started.elapsed().as_secs_f64()
        })
        .collect();

    CodedRoundCosts {
        encode,
        keygen,
        worker_kernel,
        worker_macs,
        check,
        batch_check,
        screen,
        decode_warm,
        decode_cold: median(&cold),
        threshold,
    }
}

/// Field, pool and CRC kernels: independent of the workload except for the
/// dot-product length, which is the workload's row length.
pub fn kernels(layers: &mut Layers, row_length: usize) {
    fn dot_ns_per_mac<M: PrimeModulus>(len: usize) -> f64 {
        let mut rng = StdRng::seed_from_u64(len as u64);
        let a: Vec<Fp<M>> = avcc_field::random_vector(&mut rng, len);
        let b: Vec<Fp<M>> = avcc_field::random_vector(&mut rng, len);
        let calls = (200_000 / len.max(1)).max(1);
        let seconds = median_seconds(15, || {
            (0..calls).fold(Fp::<M>::from_u64(0), |acc, _| {
                acc + <Fp<M> as PrimeField>::dot_product(black_box(&a), black_box(&b))
            })
        });
        seconds * 1e9 / (calls * len.max(1)) as f64
    }
    layers.insert(
        "field.dot_ns_per_mac.p25",
        dot_ns_per_mac::<P25>(row_length),
    );
    layers.insert(
        "field.dot_ns_per_mac.p64",
        dot_ns_per_mac::<P64>(row_length),
    );
    layers.insert(
        "pool.scope12_us",
        1e6 * median_seconds(200, || {
            avcc_pool::scope(|scope| {
                for _ in 0..fleet::WORKERS {
                    scope.spawn(|| {});
                }
            })
        }),
    );
    let mebibyte: Vec<u8> = (0..1 << 20).map(|i| (i * 31 + 7) as u8).collect();
    layers.insert(
        "wire.crc_mb_s",
        mebibyte.len() as f64 / 1e6 / median_seconds(15, || crc32c(black_box(&mebibyte))),
    );
}

/// Frame-level wire costs on the traced pass's real `LOAD_BLOCK`, `TASK` and
/// `TASK_RESULT`.
pub fn wire(layers: &mut Layers, capture: &Capture) {
    let Some(block) = capture.blocks.first() else {
        return;
    };
    let frame = block.frame(capture.job);
    let mut encoded = Vec::with_capacity(frame.wire_len());
    let encode = median_seconds(9, || {
        encoded.clear();
        write_frame(&mut encoded, &frame).expect("write to a Vec")
    });
    layers.insert(
        "wire.frame_encode_mb_s",
        encoded.len() as f64 / 1e6 / encode,
    );
    let decode = median_seconds(9, || {
        let (frame, _) = read_frame(&mut encoded.as_slice(), DEFAULT_MAX_PAYLOAD).expect("frame");
        Block::decode(&frame.payload).expect("block")
    });
    layers.insert(
        "wire.frame_decode_mb_s",
        encoded.len() as f64 / 1e6 / decode,
    );

    let Some(inputs) = capture.inputs.first() else {
        return;
    };
    let task = Task {
        sleep_micros: 0,
        inputs: inputs.clone(),
    };
    let outputs = TypedBlock::from_block(block)
        .and_then(|typed| typed.execute(inputs))
        .expect("captured block and inputs are canonical");
    let result = TaskResult {
        worker: 0,
        compute_seconds: 0.0,
        outputs,
    };
    let mut buffer = Vec::new();
    let roundtrip = median_seconds(200, || {
        buffer.clear();
        write_frame(&mut buffer, &task.frame(capture.job, 1)).expect("write to a Vec");
        let (frame, _) = read_frame(&mut buffer.as_slice(), DEFAULT_MAX_PAYLOAD).expect("frame");
        let decoded_task = Task::decode(&frame.payload).expect("task");
        buffer.clear();
        write_frame(&mut buffer, &result.frame(capture.job, 1)).expect("write to a Vec");
        let (frame, _) = read_frame(&mut buffer.as_slice(), DEFAULT_MAX_PAYLOAD).expect("frame");
        (
            decoded_task,
            TaskResult::decode(&frame.payload).expect("result"),
        )
    });
    layers.insert("wire.task_roundtrip_us", roundtrip * 1e6);
}

/// Median round time (ms) of the captured rounds replayed on `executor`,
/// cycling through the captured jobs, for at most `budget`.
fn replay(executor: &mut dyn Executor, captures: &[&Capture], budget: Duration) -> f64 {
    for capture in captures {
        if executor
            .install_blocks(capture.job, &capture.blocks)
            .is_err()
        {
            return 0.0;
        }
    }
    let deadline = Instant::now() + budget;
    let mut samples = Vec::new();
    for round in 0..400u64 {
        let capture = captures[round as usize % captures.len()];
        let started = Instant::now();
        if executor
            .execute_round(capture.job, round, &capture.inputs)
            .is_err()
        {
            return 0.0;
        }
        samples.push(started.elapsed().as_secs_f64() * 1e3);
        if round >= 20 && Instant::now() >= deadline {
            break;
        }
    }
    // The first rounds still pay for lazily created pool threads and cold
    // caches; they are not what a steady round costs.
    median(&samples[samples.len().min(4)..])
}

/// Replays the captured rounds on a TCP fleet and on the in-process threaded
/// executor, under the profile the UDS fleet ran with: the gap between the
/// three is what the transport costs.
pub fn transports(
    layers: &mut Layers,
    captures: &[Capture],
    profile: &avcc_sim::cluster::ClusterProfile,
    backend: &WorkerBackend,
) -> Result<(), String> {
    let usable: Vec<&Capture> = captures
        .iter()
        .filter(|c| !c.inputs.is_empty())
        .take(2)
        .collect();
    if usable.is_empty() {
        return Ok(());
    }
    let budget = Duration::from_millis(1500);
    let (mut tcp, _) = fleet::spawn(profile.clone(), Transport::Tcp, backend)?;
    layers.insert("sim.round_ms_p50.tcp", replay(&mut tcp, &usable, budget));
    drop(tcp);
    let mut threaded = ThreadedExecutor::new(profile.clone());
    threaded.sleep_per_slowdown_unit = fleet::SLEEP_PER_SLOWDOWN_UNIT;
    layers.insert(
        "sim.round_ms_p50.threaded",
        replay(&mut threaded, &usable, budget),
    );
    Ok(())
}

/// Median of nanosecond durations, as `f64` nanoseconds.
pub fn median_ns(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// Writes the traced pass's spans to `trace-<workload>.jsonl` in the run's
/// trace directory, if it has one.
pub fn write_trace(
    config: &RunConfig,
    spans: &[Span],
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let Some(dir) = &config.trace_dir else {
        return Ok(());
    };
    let path = dir.join(format!("trace-{}.jsonl", config.workload));
    std::fs::File::create(&path)
        .and_then(|file| write_jsonl(spans, &mut std::io::BufWriter::new(file)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    notes.push(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
    Ok(())
}

/// The `trace.*` metrics: the traced pass against its untraced reference.
pub fn trace_overhead(layers: &mut Layers, traced_p50_ms: f64, untraced_p50_ms: f64, ops: u64) {
    layers.insert("trace.op_ms_p50", traced_p50_ms);
    layers.insert("trace.untraced_op_ms_p50", untraced_p50_ms);
    layers.insert(
        "trace.overhead_pct",
        100.0 * (traced_p50_ms - untraced_p50_ms) / untraced_p50_ms,
    );
    layers.insert("trace.ops", ops as f64);
}

/// The `sim.*` and worker-compute metrics the [`crate::trace::SpanExecutor`]
/// collected. `threshold(i, round)` is the number of results round `i`
/// needed; anything that arrived after that many was waited for in vain.
pub fn executor_spans(
    layers: &mut Layers,
    recorder: &Recorder,
    threshold: impl Fn(usize, &RoundStat) -> usize,
) {
    let spans = &recorder.spans;
    let installs = durations_ns(spans, "sim.install_blocks");
    layers.insert("sim.install_ms", median_ns(&installs) / 1e6);
    let install_seconds = installs.iter().sum::<u64>() as f64 / 1e9;
    let install_bytes: u64 = recorder.install_bytes.iter().map(|(_, b)| b).sum();
    if install_seconds > 0.0 {
        layers.insert(
            "sim.install_mb_s",
            install_bytes as f64 / 1e6 / install_seconds,
        );
    }
    layers.insert(
        "sim.round_ms_p50.uds",
        median_ns(&durations_ns(spans, "sim.execute_round")) / 1e6,
    );
    let mut overhead_ms = Vec::with_capacity(recorder.rounds.len());
    let mut waited_ms = Vec::with_capacity(recorder.rounds.len());
    let mut compute_ms = Vec::new();
    for (index, stat) in recorder.rounds.iter().enumerate() {
        let slowest = stat.compute_seconds.iter().copied().fold(0.0, f64::max);
        overhead_ms.push(spans[stat.span].duration_ns() as f64 / 1e6 - slowest * 1e3);
        if let (Some(last), Some(needed)) = (
            stat.arrival_seconds.last(),
            stat.arrival_seconds
                .get(threshold(index, stat).saturating_sub(1)),
        ) {
            waited_ms.push((last - needed) * 1e3);
        }
        compute_ms.extend(stat.compute_seconds.iter().map(|s| s * 1e3));
    }
    layers.insert("sim.round_overhead_ms", median(&overhead_ms));
    layers.insert("sim.straggler_wait_ms", median(&waited_ms));
    layers.insert("linalg.worker_compute_ms_p50", median(&compute_ms));
}

/// The run-level informational metrics every traced run ends with.
pub fn run_totals(layers: &mut Layers, wall_seconds: f64, attempted: u64, failed: u64) {
    layers.insert("e2e.wall_s", wall_seconds);
    layers.insert("e2e.failed_share", failed as f64 / attempted.max(1) as f64);
    layers.insert(
        "host.available_parallelism",
        std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64),
    );
}
