//! The distributed matrix–vector session.
//!
//! One type, [`CodedMatVec`], runs every scheme: a lightweight *session*
//! over a shared [`avcc_coding::EncodedDataset`] (the `(K, K)` code, whose
//! shares are the row bands, for the uncoded scheme; an `(N, K)` code for
//! LCC/AVCC) plus the scheme's integrity check — none, error decoding, or
//! Freivalds keys with the dual-codeword screen. [`CodedMatVec::uncoded`],
//! [`CodedMatVec::lcc`] and [`CodedMatVec::over`] (AVCC) take an `Arc`'d
//! dataset encoded once; [`CodedMatVec::new`] encodes a private one for AVCC.
//!
//! Every round is a *batch* of `m ≥ 1` input vectors over the same blocks,
//! and every round takes the same path:
//!
//! ```text
//! dispatch_batch ─▶ WireRunner ─▶ Executor::{submit, poll, retire}_round ─▶ collect_batch
//! ```
//!
//! [`MatVecEngine::dispatch_batch`] builds one [`BatchRoundTask`] per worker;
//! the [`WireRunner`] (or the in-process fleet scheduler) runs them, closing
//! the round once [`MatVecEngine::min_results`] non-straggling results are
//! in; [`MatVecEngine::collect_batch`] drops malformed arrivals, lets the
//! scheme's survivor rule pick and decode the results it trusts (all of
//! them, the fastest `N − S` error-decoded, or the first threshold that pass
//! Freivalds), and reconstructs the `m` products and accounts the round's
//! costs.
//!
//! A training round is the batch of one (`m = 1`): the trainer passes its one
//! input as `std::slice::from_ref(..)` and reads `outputs[0]`. With one
//! function the `(m − 1)/q` batching term vanishes and no combining scalar is
//! drawn.

use avcc_field::{Fp, PrimeModulus};
use avcc_sim::attack::ByzantineSpec;
use avcc_sim::cluster::NetworkModel;
use avcc_sim::executor::{Executor, WorkerOutcome};
use rand::rngs::StdRng;

use crate::distributed::{BatchOutcomes, DistributedError, WireRunner};
use crate::rounds::{BatchExecution, BatchRoundTask, SchemeFailure};

pub mod avcc;

pub use avcc::{AvccMatVec, CodedMatVec};

/// A distributed matrix–vector engine: one per (scheme, matrix) pair.
/// [`CodedMatVec`] is the one implementation; the trait stays as the
/// interface the serving and benchmark layers call.
///
/// The training driver holds two sessions — one for round 1 (`X`,
/// row-partitioned) and one for round 2 (`Xᵀ`, row-partitioned) — and feeds
/// them the quantized weight vector and the quantized error vector
/// respectively, one function per round.
pub trait MatVecEngine<M: PrimeModulus> {
    /// Human-readable scheme name (for reports).
    fn name(&self) -> &'static str;

    /// The number of workers this engine dispatches to. The executor must be
    /// at least this wide.
    fn workers(&self) -> usize;

    /// The minimum number of arrived results a collect needs before it can
    /// possibly succeed: the recovery threshold for AVCC, the designed wait
    /// count for LCC, all workers for the uncoded scheme.
    ///
    /// A collect may still fail with that many results (e.g. a Byzantine
    /// payload among an exactly-threshold AVCC prefix); callers that stream
    /// arrivals should retry with more results until all
    /// [`MatVecEngine::workers`] have arrived.
    fn min_results(&self) -> usize;

    /// Builds the round's worker tasks for `m` broadcast inputs, one task per
    /// worker (each carrying all `m` inputs), in worker order.
    fn dispatch_batch(&self, inputs: &[Vec<Fp<M>>]) -> Vec<BatchRoundTask<M>>;

    /// Reconstructs a round from arrival-ordered worker `outcomes` of the
    /// tasks built by [`MatVecEngine::dispatch_batch`] for the same `inputs`:
    /// `m` products over one dispatch, one wait, and (for AVCC) one batched
    /// Freivalds check per examined arrival with per-function fallback.
    /// Arrivals of the wrong shape, from a worker outside `[0, workers)`, or
    /// repeating a worker that already arrived are dropped first.
    ///
    /// `network` feeds the cost model's broadcast term; the master's
    /// verification and decoding are charged as the round's
    /// [`OpCounts`](avcc_sim::OpCounts) at
    /// [`SECONDS_PER_MAC`](avcc_sim::SECONDS_PER_MAC). `time_scale` is
    /// ignored. Harness compatibility; remove at the next `benchmark`
    /// re-bind. The outputs are bit-identical to `m` independent rounds over
    /// the same dataset — all decode paths are exact over the field. On `Err`
    /// the engine's state is unchanged, so the call may be retried with more
    /// outcomes.
    fn collect_batch(
        &mut self,
        inputs: &[Vec<Fp<M>>],
        outcomes: &[WorkerOutcome<Vec<Vec<Fp<M>>>>],
        network: &NetworkModel,
        time_scale: f64,
        rng: &mut StdRng,
    ) -> Result<BatchExecution<M>, SchemeFailure>;

    /// Always `(0, 0)`: the decoder keeps no cache. Harness compatibility;
    /// remove at the next `benchmark` re-bind.
    fn decode_cache_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Runs one round — `m` products of the engine's matrix with `inputs` —
    /// on `executor` under the given attack: dispatch, run through
    /// [`WireRunner::run_streaming_round`], collect as soon as
    /// [`MatVecEngine::min_results`] non-straggling results allow it. Workers
    /// the round did not wait for join its observed stragglers. Byzantine
    /// workers corrupt every function of their payload (a corrupted node does
    /// not selectively spare sub-results).
    fn execute_batch(
        &mut self,
        inputs: &[Vec<Fp<M>>],
        executor: &mut dyn Executor,
        byzantine: &ByzantineSpec,
        rng: &mut StdRng,
    ) -> Result<BatchExecution<M>, DistributedError> {
        let tasks = self.dispatch_batch(inputs);
        let network = executor.profile().network;
        let quorum = Some(self.min_results());
        let collect = |outcomes: &mut BatchOutcomes<M>, late: &[usize]| {
            let mut execution = self.collect_batch(inputs, outcomes, &network, 1.0, rng)?;
            execution.observed_stragglers.extend_from_slice(late);
            Ok(execution)
        };
        let execution = WireRunner::new()
            .run_streaming_round(executor, 0, &tasks, byzantine, quorum, collect)?;
        Ok(execution?)
    }
}
