//! Harness-side observation of the program under test.
//!
//! Nothing in the crates is instrumented: the harness wraps the executor it
//! hands to the product entry points. [`TickExecutor`] stores one timestamp
//! per round (timed runs); [`SpanExecutor`] records `install_blocks` /
//! `execute_round` spans into a [`Recorder`] shared with the harness, which
//! puts its own spans around every call into a layer (traced runs).

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use avcc_sim::churn::ChurnEvent;
use avcc_sim::cluster::ClusterProfile;
use avcc_sim::executor::{Eviction, Executor, ExecutorError, WorkerOutcome};
use avcc_sim::wire::Block;

/// Raw outcomes of one round, as every executor returns them.
pub type RawOutcomes = Vec<WorkerOutcome<Vec<Vec<u64>>>>;

/// A pass-through executor that stores one [`Instant`] per `execute_round`
/// entry and nothing else, so a timed run can recover per-operation latency
/// from inside a single product call such as `train_distributed`.
pub struct TickExecutor<'a> {
    inner: &'a mut dyn Executor,
    /// Entry instant of every `execute_round` call, in call order.
    pub ticks: Vec<Instant>,
}

impl<'a> TickExecutor<'a> {
    /// Wraps `inner`, reserving room for `expected_rounds` timestamps so the
    /// timed section does not reallocate.
    pub fn new(inner: &'a mut dyn Executor, expected_rounds: usize) -> Self {
        TickExecutor {
            inner,
            ticks: Vec::with_capacity(expected_rounds + 16),
        }
    }
}

impl Executor for TickExecutor<'_> {
    fn workers(&self) -> usize {
        self.inner.workers()
    }
    fn profile(&self) -> &ClusterProfile {
        self.inner.profile()
    }
    fn install_blocks(&mut self, job: u64, blocks: &[Block]) -> Result<(), ExecutorError> {
        self.inner.install_blocks(job, blocks)
    }
    fn execute_round(
        &mut self,
        job: u64,
        round: u64,
        inputs: &[Vec<Vec<u64>>],
    ) -> Result<RawOutcomes, ExecutorError> {
        self.ticks.push(Instant::now());
        self.inner.execute_round(job, round, inputs)
    }
    fn round_evictions(&self) -> &[Eviction] {
        self.inner.round_evictions()
    }
    fn churn_events(&self) -> &[ChurnEvent] {
        self.inner.churn_events()
    }
    fn live_workers(&self) -> usize {
        self.inner.live_workers()
    }
}

/// Per-operation latencies in milliseconds from round-entry ticks, where an
/// operation spans `rounds_per_op` consecutive rounds: the gap between
/// successive first-round entries, the last operation closed by `end`.
/// Returns `None` when the tick count is not `ops × rounds_per_op` (a parked
/// or re-dispatched round), in which case the caller flags the pass.
pub fn op_latencies_ms(
    ticks: &[Instant],
    rounds_per_op: usize,
    ops: usize,
    end: Instant,
) -> Option<Vec<f64>> {
    if ticks.len() != ops * rounds_per_op {
        return None;
    }
    Some(
        (0..ops)
            .map(|op| {
                let start = ticks[op * rounds_per_op];
                let stop = if op + 1 < ops {
                    ticks[(op + 1) * rounds_per_op]
                } else {
                    end
                };
                stop.duration_since(start).as_secs_f64() * 1e3
            })
            .collect(),
    )
}

/// One recorded span. Spans of one operation share `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.collect_round1`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (iteration, job) this span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What the [`SpanExecutor`] saw come back from one round.
#[derive(Debug, Clone)]
pub struct RoundStat {
    /// Index of the round's `sim.execute_round` span.
    pub span: usize,
    /// Input vectors per worker task (`m`; 1 for a training round).
    pub functions: usize,
    /// Worker-reported compute seconds, one per outcome.
    pub compute_seconds: Vec<f64>,
    /// Arrival seconds since round start, ascending.
    pub arrival_seconds: Vec<f64>,
}

/// The in-memory span recorder: a flat span list plus the open-span stack
/// that supplies each new span's parent.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// Every span recorded so far, in entry order.
    pub spans: Vec<Span>,
    /// Per-round observations from the [`SpanExecutor`].
    pub rounds: Vec<RoundStat>,
    /// Bytes handed to `install_blocks`, per `sim.install_blocks` span.
    pub install_bytes: Vec<(usize, u64)>,
    stack: Vec<usize>,
    op: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            rounds: Vec::new(),
            install_bytes: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the operation id stamped on spans entered from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span under the innermost open span and returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(index);
        index
    }

    /// Closes the innermost open span, which must be `index`.
    pub fn exit(&mut self, index: usize) {
        let open = self.stack.pop();
        assert_eq!(open, Some(index), "spans must close innermost-first");
        self.spans[index].end_ns = self.now_ns();
    }
}

/// A recorder shared between the harness and its [`SpanExecutor`] (both live
/// on the one harness thread).
pub type SharedRecorder = Rc<RefCell<Recorder>>;

/// Runs `body` inside a span named `name`.
pub fn span<T>(recorder: &SharedRecorder, name: &'static str, body: impl FnOnce() -> T) -> T {
    let index = recorder.borrow_mut().enter(name);
    let value = body();
    recorder.borrow_mut().exit(index);
    value
}

/// [`span`] when there is a recorder (a traced pass), plain `body()` when
/// there is none (a timed pass).
pub fn span_if<T>(
    recorder: Option<&SharedRecorder>,
    name: &'static str,
    body: impl FnOnce() -> T,
) -> T {
    match recorder {
        Some(recorder) => span(recorder, name, body),
        None => body(),
    }
}

/// The first blocks and inputs seen for a job — real arguments the layer
/// probes and the transport replays run on.
#[derive(Debug, Clone, Default)]
pub struct Capture {
    /// Wire job id.
    pub job: u64,
    /// The blocks installed for the job.
    pub blocks: Vec<Block>,
    /// The inputs of the job's first round.
    pub inputs: Vec<Vec<Vec<u64>>>,
    /// Worker ids of that round's outcomes, in arrival order.
    pub arrival_order: Vec<usize>,
}

/// A pass-through executor recording `sim.install_blocks` and
/// `sim.execute_round` spans (children of whatever harness span is open),
/// per-round arrival statistics, and the first `(blocks, inputs)` per job.
pub struct SpanExecutor<'a> {
    inner: &'a mut dyn Executor,
    recorder: SharedRecorder,
    /// Captured arguments, at most `capture_limit` jobs.
    pub captures: Vec<Capture>,
    capture_limit: usize,
}

impl<'a> SpanExecutor<'a> {
    /// Wraps `inner`; keeps the arguments of the first `capture_limit` jobs.
    pub fn new(
        inner: &'a mut dyn Executor,
        recorder: SharedRecorder,
        capture_limit: usize,
    ) -> Self {
        SpanExecutor {
            inner,
            recorder,
            captures: Vec::new(),
            capture_limit,
        }
    }
}

impl Executor for SpanExecutor<'_> {
    fn workers(&self) -> usize {
        self.inner.workers()
    }
    fn profile(&self) -> &ClusterProfile {
        self.inner.profile()
    }
    fn install_blocks(&mut self, job: u64, blocks: &[Block]) -> Result<(), ExecutorError> {
        let index = self.recorder.borrow_mut().enter("sim.install_blocks");
        let result = self.inner.install_blocks(job, blocks);
        let mut recorder = self.recorder.borrow_mut();
        recorder.exit(index);
        let bytes: u64 = blocks.iter().map(|b| 8 * b.elements.len() as u64).sum();
        recorder.install_bytes.push((index, bytes));
        drop(recorder);
        if self.captures.len() < self.capture_limit {
            self.captures.push(Capture {
                job,
                blocks: blocks.to_vec(),
                ..Capture::default()
            });
        }
        result
    }
    fn execute_round(
        &mut self,
        job: u64,
        round: u64,
        inputs: &[Vec<Vec<u64>>],
    ) -> Result<RawOutcomes, ExecutorError> {
        let index = self.recorder.borrow_mut().enter("sim.execute_round");
        let result = self.inner.execute_round(job, round, inputs);
        let mut recorder = self.recorder.borrow_mut();
        recorder.exit(index);
        if let Ok(outcomes) = &result {
            let mut arrival_seconds: Vec<f64> =
                outcomes.iter().map(|o| o.arrival_seconds).collect();
            arrival_seconds.sort_by(|a, b| a.partial_cmp(b).expect("finite arrival times"));
            recorder.rounds.push(RoundStat {
                span: index,
                functions: inputs.first().map_or(0, Vec::len),
                compute_seconds: outcomes.iter().map(|o| o.compute_seconds).collect(),
                arrival_seconds,
            });
            drop(recorder);
            if let Some(capture) = self
                .captures
                .iter_mut()
                .find(|c| c.job == job && c.inputs.is_empty())
            {
                capture.inputs = inputs.to_vec();
                capture.arrival_order = outcomes.iter().map(|o| o.worker).collect();
            }
        }
        result
    }
    fn round_evictions(&self) -> &[Eviction] {
        self.inner.round_evictions()
    }
    fn churn_events(&self) -> &[ChurnEvent] {
        self.inner.churn_events()
    }
    fn live_workers(&self) -> usize {
        self.inner.live_workers()
    }
}

/// Self time of every span: its duration minus the part its direct children
/// cover (children of one parent never overlap — one harness thread).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Durations (ns) of every span called `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// Self times (ns) of every span called `name`.
pub fn self_ns_of(spans: &[Span], name: &str) -> Vec<u64> {
    let own = self_times_ns(spans);
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == name)
        .map(|(_, t)| t)
        .collect()
}

/// Share of the operations' wall-clock that top-level spans account for:
/// `Σ top-level span durations / wall_ns`. The trace is only trusted as a
/// breakdown of the wall-clock when this is at least 0.95.
pub fn span_coverage(spans: &[Span], wall_ns: u64) -> f64 {
    if wall_ns == 0 {
        return 0.0;
    }
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum();
    covered as f64 / wall_ns as f64
}

/// Writes the spans as JSON lines (`name, start_ns, end_ns, parent, op_id`).
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for (index, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
            span.name, span.start_ns, span.end_ns, span.op
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn hand_built() -> Vec<Span> {
        let s = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        };
        vec![
            s("core.run_round", 0, 100, None),
            s("sim.execute_round", 10, 80, Some(0)),
            s("core.collect", 100, 160, None),
            s("coding.decode", 110, 130, Some(2)),
            s("verify.check", 130, 150, Some(2)),
            s("field.dot", 132, 138, Some(4)),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = hand_built();
        assert_eq!(self_times_ns(&spans), vec![30, 70, 20, 20, 14, 6]);
        assert_eq!(self_ns_of(&spans, "core.collect"), vec![20]);
        assert_eq!(durations_ns(&spans, "sim.execute_round"), vec![70]);
        // Self times of a tree sum to the duration of its roots.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 160);
    }

    #[test]
    fn coverage_counts_top_level_spans_against_the_wall_clock() {
        let spans = hand_built();
        assert!((span_coverage(&spans, 160) - 1.0).abs() < 1e-12);
        assert!((span_coverage(&spans, 200) - 0.8).abs() < 1e-12);
        assert_eq!(span_coverage(&spans, 0), 0.0);
    }

    #[test]
    fn recorder_nests_spans_and_stamps_the_operation() {
        let recorder: SharedRecorder = Rc::default();
        recorder.borrow_mut().set_op(7);
        span(&recorder, "outer", || {
            span(&recorder, "inner", || ());
        });
        let r = recorder.borrow();
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[0].parent, None);
        assert!(r.spans.iter().all(|s| s.op == 7));
        assert!(r.spans[0].end_ns >= r.spans[1].end_ns);
    }

    #[test]
    fn op_latencies_pair_rounds_into_operations() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let ticks = vec![at(0), at(4), at(10), at(13)];
        let ops = op_latencies_ms(&ticks, 2, 2, at(25)).unwrap();
        assert!((ops[0] - 10.0).abs() < 1e-9 && (ops[1] - 15.0).abs() < 1e-9);
        // A re-dispatched round breaks the 2-rounds-per-iteration shape.
        assert!(op_latencies_ms(&ticks[..3], 2, 2, at(25)).is_none());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut out = Vec::new();
        write_jsonl(&hand_built(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 6);
        assert!(text.lines().next().unwrap().contains("\"parent\":null"));
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
    }
}
