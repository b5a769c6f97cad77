//! The coded session behind all three of the paper's schemes.
//!
//! A [`CodedMatVec`] is a session over one shared [`EncodedDataset`] plus the
//! check that establishes a round's integrity. The check is all that tells
//! the schemes apart — it fixes how many results a round waits for, which of
//! them it decodes from, and what the master pays:
//!
//! * **None** — the uncoded baseline (paper §V). The dataset is the `(K, K)`
//!   code at `T = 0`, whose systematic shares are the row bands themselves.
//!   The master waits for **every** worker — a single straggler delays the
//!   whole round — and erasure-decodes their results, which on that code
//!   hands each band through; a Byzantine worker's corrupted block flows
//!   straight into the product, which is what degrades the uncoded accuracy
//!   curves in Fig. 3.
//! * **Error decoding** — the LCC baseline (§II-A, the evaluation's main
//!   comparator). The master takes the fastest `N − S` results and
//!   Reed–Solomon error-decodes each function
//!   ([`avcc_coding::LagrangeDecoder::decode_with_errors`], whose error
//!   locator is the dual-codeword screen). Byzantine workers surface only
//!   *during* decoding, which is why LCC cannot start early and why each
//!   costs two extra workers (eq. 1). Beyond the designed `M` a real decoder
//!   emits a wrong reconstruction; the session reproduces that by erasure-
//!   decoding the fastest threshold results, corrupted or not, which is what
//!   degrades the LCC accuracy curves in Fig. 3(b)/(d).
//! * **Freivalds** — AVCC (§IV). The master holds one Freivalds key per
//!   worker. Once the round closes, `collect_batch` checks the arrivals in
//!   arrival order and stops at the first recovery threshold of accepted
//!   ones; rejected workers are reported as detected Byzantine, and the
//!   product is erasure-decoded from the accepted set. A Byzantine worker so
//!   costs exactly one extra wait — the same as a straggler — instead of
//!   LCC's two (eq. 2 vs eq. 1). When strictly more than the threshold
//!   arrived, a **pre-decode dual-codeword screen**
//!   ([`avcc_coding::DualCodeword`], on unless
//!   [`CodedMatVec::with_screening`] turns it off) runs first: one
//!   `O(R·width)` SCRAPE-style pass checks every returned block for
//!   RS-codeword membership and, on failure, localizes the corrupted workers.
//!   The screen suggests, Freivalds decides: the localized workers, reported
//!   in `screened_workers`, become suspects that are checked after every
//!   other arrival, one combined check each, and only a suspect that fails
//!   its check joins `detected_byzantine`. So a liar the screen found costs
//!   no honest wait, and colluding liars who steer the localization onto
//!   honest workers (beyond its `⌊ν/2⌋` radius, see [`avcc_coding::screen`])
//!   frame nobody. The screen proves the blocks *consistent with one
//!   polynomial*, Freivalds proves them *the right polynomial* (a full
//!   coalition shifting the round onto another codeword passes the screen
//!   but not Freivalds).
//!
//! One `collect_batch` body serves all three: a shared prologue drops
//! malformed arrivals and detects stragglers, the scheme's survivor rule
//! picks the results it trusts and decodes them through one prepared
//! erasure decode, and a shared epilogue assembles the products and accounts
//! the round. Each MAC count comes from the code that ran it (the decode, a
//! Freivalds key, the screen), except LCC's modeled Reed–Solomon decode.

use std::sync::Arc;

use avcc_coding::decoder::DecodeError;
use avcc_coding::{DualCodeword, EncodedDataset, SchemeConfig, ScreenOutcome};
use avcc_field::{map_spans, span_threads, Fp, PrimeModulus};
use avcc_linalg::Matrix;
use avcc_sim::cluster::NetworkModel;
use avcc_sim::executor::WorkerOutcome;
use avcc_sim::metrics::OpCounts;
use avcc_verify::{combine_with_powers, KeyGenConfig, MatVecKey};
use rand::rngs::StdRng;
use rand::Rng;

use crate::engines::MatVecEngine;
use crate::rounds::{
    detect_stragglers, field_vector_bytes, has_dispatched_shape, waiting_costs, BatchExecution,
    BatchRoundTask, SchemeFailure,
};

/// One worker's arrival: one result vector per function.
type Arrival<M> = WorkerOutcome<Vec<Vec<Fp<M>>>>;

/// The distributed matrix–vector session of every scheme: a shared
/// [`EncodedDataset`] plus the scheme's integrity check.
///
/// [`CodedMatVec::over`] and [`CodedMatVec::new`] open the paper's verified
/// (AVCC) session; [`CodedMatVec::lcc`] and [`CodedMatVec::uncoded`] open its
/// two baselines. Cloning the session clones the `Arc` onto the dataset, so
/// clones keep sharing one encode.
#[derive(Debug, Clone)]
pub struct CodedMatVec<M: PrimeModulus> {
    dataset: Arc<EncodedDataset<M>>,
    check: Check<M>,
}

/// The AVCC session under its old name. Harness compatibility; remove at the
/// next `benchmark` re-bind.
pub type AvccMatVec<M> = CodedMatVec<M>;

/// How a session establishes a round's integrity.
#[derive(Debug, Clone)]
enum Check<M: PrimeModulus> {
    /// The uncoded baseline: wait for every worker, check nothing.
    None,
    /// LCC: the fastest `N − S` results, error-decoded.
    ErrorDecoding,
    /// AVCC: per-worker Freivalds keys, behind the optional screen.
    Freivalds(Freivalds<M>),
}

/// AVCC's master-side state.
#[derive(Debug, Clone)]
struct Freivalds<M: PrimeModulus> {
    keys: Vec<MatVecKey<M>>,
    screen: DualCodeword<M>,
    screening: bool,
}

/// What a survivor rule hands the shared epilogue.
struct Survivors<'a, M: PrimeModulus> {
    /// The arrivals the round waited for and decoded from; the round pays
    /// for the slowest of them.
    used: Vec<&'a Arrival<M>>,
    /// Per function, the `K` decoded data blocks in order.
    blocks: Vec<Vec<Vec<Fp<M>>>>,
    verify_macs: u64,
    decode_macs: u64,
    detected_byzantine: Vec<usize>,
    screened_workers: Vec<usize>,
    corrupted_functions: Vec<usize>,
}

impl<'a, M: PrimeModulus> Survivors<'a, M> {
    /// Erasure-decodes every function from `used`'s results through one
    /// prepared basis, charging the MACs the decode ran and nothing else.
    fn decoded(
        dataset: &EncodedDataset<M>,
        used: Vec<&'a Arrival<M>>,
        functions: usize,
    ) -> Result<Self, SchemeFailure> {
        let workers: Vec<usize> = used.iter().map(|arrival| arrival.worker).collect();
        let prepared = dataset.decoder().prepare(&workers)?;
        let blocks = (0..functions)
            .map(|function| {
                let lanes: Vec<&[Fp<M>]> = used
                    .iter()
                    .map(|arrival| arrival.payload[function].as_slice())
                    .collect();
                prepared.apply(&lanes)
            })
            .collect::<Result<_, _>>()?;
        let decode_macs = functions as u64 * prepared.macs(dataset.block_rows());
        Ok(Survivors {
            used,
            blocks,
            verify_macs: 0,
            decode_macs,
            detected_byzantine: Vec::new(),
            screened_workers: Vec::new(),
            corrupted_functions: Vec::new(),
        })
    }
}

impl<M: PrimeModulus> CodedMatVec<M> {
    /// Opens an AVCC session over an already-encoded dataset, generating one
    /// Freivalds verification key per worker (§IV-A step 2). The expensive
    /// step 1 — encoding — was paid once when the dataset was built, and is
    /// shared with every other session over the same `Arc`.
    ///
    /// Every secret is drawn first, on the calling thread, in worker order —
    /// the stream a loop of [`MatVecKey::generate`] calls draws — and only
    /// then are the `N` products `s_i = r_iᵀ·X̃_i` computed, in one span of
    /// workers per available core ([`avcc_field::map_spans`]; inline when the
    /// shares are small). The keys, and the rng's position afterwards, do not
    /// depend on how many threads computed them.
    pub fn over<R: Rng + ?Sized>(
        dataset: Arc<EncodedDataset<M>>,
        key_config: KeyGenConfig,
        rng: &mut R,
    ) -> Self {
        let shares = dataset.shares();
        let drawn: Vec<_> = shares
            .iter()
            .map(|share| {
                let secrets = MatVecKey::draw_secrets(share.rows(), key_config, rng);
                (share, secrets)
            })
            .collect();
        let multiplies =
            shares.iter().map(|share| share.len()).sum::<usize>() * key_config.repetitions;
        let threads = span_threads(shares.len(), multiplies);
        let keys = map_spans(drawn, threads, |(share, secrets)| {
            MatVecKey::from_secrets(share, secrets)
        });
        let screen = DualCodeword::new(*dataset.scheme());
        CodedMatVec {
            dataset,
            check: Check::Freivalds(Freivalds {
                keys,
                screen,
                screening: true,
            }),
        }
    }

    /// Encodes the matrix and generates one Freivalds verification key per
    /// worker (the one-time preprocessing of §IV-A steps 1–2) —
    /// [`EncodedDataset::encode`] plus [`CodedMatVec::over`].
    ///
    /// If the row count is not divisible by `config.partitions` — which
    /// happens when the dynamic-coding controller switches to a smaller `K` —
    /// the matrix is padded with zero rows and the decoded output is trimmed
    /// back, so callers never observe the padding.
    pub fn new<R: Rng + ?Sized>(
        matrix: &Matrix<Fp<M>>,
        config: SchemeConfig,
        key_config: KeyGenConfig,
        rng: &mut R,
    ) -> Self {
        let dataset = Arc::new(EncodedDataset::encode(matrix, config, rng));
        Self::over(dataset, key_config, rng)
    }

    /// Opens an LCC session over an already-encoded dataset.
    pub fn lcc(dataset: Arc<EncodedDataset<M>>) -> Self {
        CodedMatVec {
            dataset,
            check: Check::ErrorDecoding,
        }
    }

    /// Opens an uncoded session over an already-encoded dataset.
    ///
    /// # Panics
    /// Panics unless the dataset's code is `(K, K)` at `T = 0`, the code
    /// without redundancy whose shares are the row bands.
    pub fn uncoded(dataset: Arc<EncodedDataset<M>>) -> Self {
        let scheme = dataset.scheme();
        assert!(
            scheme.workers == scheme.partitions && scheme.colluding == 0,
            "the uncoded session needs the (K, K) code at T = 0, not {scheme}"
        );
        CodedMatVec {
            dataset,
            check: Check::None,
        }
    }

    /// Enables or disables AVCC's pre-decode dual-codeword screen (on by
    /// default; a session that does not verify has none to switch). The
    /// paper-figure experiment driver turns it off: Fig. 3–5 reproduce Tang
    /// et al.'s AVCC, whose master never screens — Freivalds verification
    /// plus erasure decoding already absorbs those fault patterns, so there
    /// the screen only adds master-side cost to the figures' cost model.
    /// Every other consumer (serving jobs, the socket runtime, direct
    /// sessions) keeps it on for pre-decode localization.
    pub fn with_screening(mut self, enabled: bool) -> Self {
        if let Check::Freivalds(freivalds) = &mut self.check {
            freivalds.screening = enabled;
        }
        self
    }

    /// The shared encoded dataset this session dispatches against.
    pub fn dataset(&self) -> &Arc<EncodedDataset<M>> {
        &self.dataset
    }

    /// The uncoded survivor rule: all `K` workers, erasure-decoded. Every
    /// share of the `(K, K)` code is systematic, so the decode runs no MACs.
    fn wait_for_all<'a>(
        &self,
        arrivals: Vec<&'a Arrival<M>>,
        functions: usize,
    ) -> Result<Survivors<'a, M>, SchemeFailure> {
        let workers = self.dataset.workers();
        if arrivals.len() < workers {
            return Err(SchemeFailure::NotEnoughResults {
                available: arrivals.len(),
                required: workers,
            });
        }
        Survivors::decoded(&self.dataset, arrivals, functions)
    }

    /// The LCC survivor rule: the fastest `N − S` results, each function
    /// error-decoded on its own (Byzantine identification is a decode-side
    /// by-product), detections unioned across the batch in first-located
    /// order. Error decoding needs `threshold + 2M` of them (eq. 1); a round
    /// with fewer is short of results, like any other, and may be parked.
    fn error_decode<'a>(
        &self,
        mut arrivals: Vec<&'a Arrival<M>>,
        functions: usize,
        rng: &mut StdRng,
    ) -> Result<Survivors<'a, M>, SchemeFailure> {
        let config = *self.dataset.scheme();
        let wait_count = config.lcc_wait_count().min(arrivals.len());
        let threshold = config.recovery_threshold();
        let required = threshold + 2 * config.byzantine;
        if wait_count < required {
            return Err(SchemeFailure::NotEnoughResults {
                available: wait_count,
                required,
            });
        }
        arrivals.truncate(wait_count);
        let decoder = self.dataset.decoder();
        let mut blocks = Vec::with_capacity(functions);
        let mut detected_byzantine: Vec<usize> = Vec::new();
        for function in 0..functions {
            let results: Vec<(usize, Vec<Fp<M>>)> = arrivals
                .iter()
                .map(|o| (o.worker, o.payload[function].clone()))
                .collect();
            let (decoded, located) =
                match decoder.decode_with_errors(&results, config.byzantine, rng) {
                    Ok(outcome) => outcome,
                    // Beyond the designed correction capability: a real
                    // decoder emits an incorrect reconstruction. Erasure-
                    // decode the fastest threshold results, corrupted or not.
                    Err(DecodeError::TooManyErrors) => {
                        (decoder.decode_erasure(&results[..threshold])?, Vec::new())
                    }
                    Err(other) => return Err(other.into()),
                };
            for worker in located {
                if !detected_byzantine.contains(&worker) {
                    detected_byzantine.push(worker);
                }
            }
            blocks.push(decoded);
        }
        Ok(Survivors {
            used: arrivals,
            blocks,
            verify_macs: 0,
            decode_macs: self.reed_solomon_decode_macs(functions, wait_count),
            detected_byzantine,
            screened_workers: Vec::new(),
            corrupted_functions: Vec::new(),
        })
    }

    /// LCC's decode MACs for one round: a model of the Reed–Solomon decoder
    /// of Yu et al.'s LCC (PAPERS.md), the baseline the paper compares
    /// against, not a count of this repository's locator — an interpolation
    /// through all `wait_count` results plus a `wait_count²` syndrome/locator
    /// term, once per function.
    fn reed_solomon_decode_macs(&self, functions: usize, wait_count: usize) -> u64 {
        let interpolation = self.dataset.block_rows() * wait_count * self.dataset.partitions();
        (functions * (interpolation + wait_count * wait_count)) as u64
    }
}

impl<M: PrimeModulus> Freivalds<M> {
    /// The AVCC survivor rule: screen, then verify the unscreened arrivals
    /// in arrival order up to the recovery threshold and every screened one
    /// after them, then erasure-decode the accepted results.
    ///
    /// With m > 1 one scalar σ batches the whole round: the master combines
    /// the m inputs into x_c = Σ σ^j x_j once, combines each arrival's m
    /// claims into y_c = Σ σ^j y_j, and runs a single Freivalds check per
    /// arrival — verifying m products costs barely more than one. A failed
    /// combined check falls back to the m per-function checks to localize
    /// which function(s) the worker corrupted. A single function is its own
    /// combination: no σ is drawn (so the rng stream is exactly the
    /// single-function round's) and nothing is combined.
    fn verify<'a>(
        &self,
        dataset: &EncodedDataset<M>,
        inputs: &[Vec<Fp<M>>],
        arrivals: Vec<&'a Arrival<M>>,
        rng: &mut StdRng,
    ) -> Result<Survivors<'a, M>, SchemeFailure> {
        let functions = inputs.len();
        let cols = inputs[0].len();
        let threshold = dataset.recovery_threshold();
        let block_rows = dataset.block_rows();
        let sigma: Option<Fp<M>> = (functions > 1).then(|| avcc_field::random_element(rng));
        let combine = |parts: &[Vec<Fp<M>>]| match sigma {
            Some(sigma) => combine_with_powers(sigma, parts),
            None => parts[0].clone(),
        };
        let combined_input = combine(inputs);
        // Pre-decode dual-codeword screen: with more than threshold arrivals
        // there is dual redundancy, and one O(R·width) pass localizes
        // corrupted blocks before any Freivalds work. The σ-combined claims
        // Σ σ^j·Ỹ_i^{(j)} are themselves evaluations of the combined
        // polynomial (degree unchanged), so one screen over them covers all m
        // functions at once — the same amortization as the batched Freivalds
        // pass.
        let combined_claims: Vec<(usize, Vec<Fp<M>>)> = arrivals
            .iter()
            .map(|arrival| (arrival.worker, combine(&arrival.payload)))
            .collect();
        // Combining (m > 1 only) costs `m` MACs per coordinate: the inputs
        // once, plus every arrival's claims — the screen needs them all.
        let mut verify_macs = match sigma {
            Some(_) => (functions * cols + arrivals.len() * functions * block_rows) as u64,
            None => 0,
        };
        let (screened_workers, screen_macs) = self.screen_claims(&combined_claims, rng);
        verify_macs += screen_macs;
        // The screen only suggests: the workers it localized are suspects,
        // examined after every other arrival. The others are checked in
        // arrival order up to the threshold; then each suspect gets one
        // combined check, which convicts a liar the screen found and clears
        // an honest worker that colluding liars framed.
        let (suspects, others): (Vec<_>, Vec<_>) = arrivals
            .iter()
            .zip(&combined_claims)
            .partition(|(arrival, _)| screened_workers.contains(&arrival.worker));
        let mut verified: Vec<&Arrival<M>> = Vec::with_capacity(threshold);
        let mut detected_byzantine = Vec::new();
        let mut corrupted_functions = Vec::new();
        for (&arrival, (_, combined_claim)) in others.into_iter().chain(suspects) {
            if verified.len() >= threshold && !screened_workers.contains(&arrival.worker) {
                continue;
            }
            let key = &self.keys[arrival.worker];
            let accepted = key.verify(&combined_input, combined_claim);
            verify_macs += key.check_macs();
            if !accepted {
                verify_macs += self.localize(inputs, arrival, &mut corrupted_functions);
                detected_byzantine.push(arrival.worker);
            } else if verified.len() < threshold {
                verified.push(arrival);
            }
        }
        corrupted_functions.sort_unstable();
        if verified.len() < threshold {
            return Err(SchemeFailure::NotEnoughResults {
                available: verified.len(),
                required: threshold,
            });
        }
        Ok(Survivors {
            verify_macs,
            detected_byzantine,
            screened_workers,
            corrupted_functions,
            ..Survivors::decoded(dataset, verified, functions)?
        })
    }

    /// Runs the pre-decode screen over a round's arrivals: returns the
    /// localized corrupted workers (empty when the round is clean, not
    /// screenable, or localization did not converge) plus the screening MAC
    /// count.
    fn screen_claims<R: Rng + ?Sized>(
        &self,
        claims: &[(usize, Vec<Fp<M>>)],
        rng: &mut R,
    ) -> (Vec<usize>, u64) {
        if !self.screening || !self.screen.screenable(claims.len()) {
            return (Vec::new(), 0);
        }
        match self.screen.screen(claims, 1, rng) {
            Ok(report) => {
                let workers = match report.outcome {
                    ScreenOutcome::Corrupted { workers } => workers,
                    ScreenOutcome::Clean | ScreenOutcome::Unlocalized => Vec::new(),
                };
                (workers, report.macs)
            }
            // The prologue already dropped what the screen would refuse
            // (shape mismatches, repeats); anything else falls through to
            // Freivalds, which checks every result it uses.
            Err(_) => (Vec::new(), 0),
        }
    }

    /// Names the function(s) a rejected worker corrupted, adding them to
    /// `corrupted`, and returns the MACs of the Freivalds checks that took:
    /// one check per function for a batch, none for a single function — the
    /// check that rejected the worker already names it.
    fn localize(
        &self,
        inputs: &[Vec<Fp<M>>],
        arrival: &Arrival<M>,
        corrupted: &mut Vec<usize>,
    ) -> u64 {
        if inputs.len() == 1 {
            if corrupted.is_empty() {
                corrupted.push(0);
            }
            return 0;
        }
        let key = &self.keys[arrival.worker];
        for (function, (input, claim)) in inputs.iter().zip(&arrival.payload).enumerate() {
            if !key.verify(input, claim) && !corrupted.contains(&function) {
                corrupted.push(function);
            }
        }
        inputs.len() as u64 * key.check_macs()
    }
}

impl<M: PrimeModulus> MatVecEngine<M> for CodedMatVec<M> {
    fn name(&self) -> &'static str {
        match self.check {
            Check::None => "uncoded",
            Check::ErrorDecoding => "lcc",
            Check::Freivalds(_) => "avcc",
        }
    }

    fn workers(&self) -> usize {
        self.dataset.workers()
    }

    fn min_results(&self) -> usize {
        match self.check {
            Check::None => self.dataset.workers(),
            Check::ErrorDecoding => self.dataset.scheme().lcc_wait_count(),
            Check::Freivalds(_) => self.dataset.recovery_threshold(),
        }
    }

    fn dispatch_batch(&self, inputs: &[Vec<Fp<M>>]) -> Vec<BatchRoundTask<M>> {
        BatchRoundTask::for_shares(self.dataset.shares(), inputs)
    }

    fn collect_batch(
        &mut self,
        inputs: &[Vec<Fp<M>>],
        outcomes: &[Arrival<M>],
        network: &NetworkModel,
        _time_scale: f64,
        rng: &mut StdRng,
    ) -> Result<BatchExecution<M>, SchemeFailure> {
        assert!(!inputs.is_empty(), "batched round needs at least one input");
        let functions = inputs.len();
        let cols = inputs[0].len();
        let workers = self.dataset.workers();
        let block_rows = self.dataset.block_rows();
        // A worker chooses what it sends. An arrival of the wrong shape, from
        // outside the fleet, or repeating a worker that already arrived never
        // reaches a key, the decoder or the output: it is dropped here,
        // exactly like a result that never arrived.
        let mut arrived = vec![false; workers];
        let arrivals: Vec<&Arrival<M>> = outcomes
            .iter()
            .filter(|outcome| {
                has_dispatched_shape(&outcome.payload, functions, block_rows)
                    && outcome.worker < workers
                    && !std::mem::replace(&mut arrived[outcome.worker], true)
            })
            .collect();
        let observed_stragglers = detect_stragglers(&arrivals);

        let survivors = match &self.check {
            Check::None => self.wait_for_all(arrivals, functions)?,
            Check::ErrorDecoding => self.error_decode(arrivals, functions, rng)?,
            Check::Freivalds(freivalds) => {
                freivalds.verify(&self.dataset, inputs, arrivals, rng)?
            }
        };

        let outputs = survivors
            .blocks
            .into_iter()
            .map(|blocks| {
                let mut output = blocks.concat();
                output.truncate(self.dataset.output_rows());
                output
            })
            .collect();
        let ops = OpCounts {
            worker_macs: (block_rows * functions * cols) as u64,
            verify_macs: survivors.verify_macs,
            decode_macs: survivors.decode_macs,
        };
        let costs = waiting_costs(
            &survivors.used,
            network,
            field_vector_bytes(functions * cols),
            workers,
            &ops,
        );
        Ok(BatchExecution {
            outputs,
            costs,
            ops,
            used_workers: survivors.used.iter().map(|o| o.worker).collect(),
            detected_byzantine: survivors.detected_byzantine,
            observed_stragglers,
            screened_workers: survivors.screened_workers,
            corrupted_functions: survivors.corrupted_functions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::DistributedError;
    use avcc_field::{F25, P25};
    use avcc_linalg::mat_vec;
    use avcc_sim::attack::{AttackModel, ByzantineSpec};
    use avcc_sim::cluster::ClusterProfile;
    use avcc_sim::executor::VirtualExecutor;
    use rand::SeedableRng;

    /// A matrix, one round's inputs (a batch of one) and their products.
    fn setup() -> (Matrix<F25>, Vec<Vec<F25>>, Vec<Vec<F25>>) {
        let mut rng = StdRng::seed_from_u64(1);
        let matrix = Matrix::from_vec(18, 6, avcc_field::random_matrix(&mut rng, 18, 6));
        let input = avcc_field::random_vector(&mut rng, 6);
        let expected = vec![mat_vec(&matrix, &input)];
        (matrix, vec![input], expected)
    }

    fn engine(matrix: &Matrix<F25>, s: usize, m: usize, seed: u64) -> CodedMatVec<P25> {
        let config = SchemeConfig::linear(12, 9, s, m).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        CodedMatVec::new(matrix, config, KeyGenConfig::default(), &mut rng)
    }

    /// Honest arrivals of `workers`, in that order, for a direct collect.
    fn arrivals<M: PrimeModulus>(
        engine: &CodedMatVec<M>,
        inputs: &[Vec<Fp<M>>],
        workers: &[usize],
    ) -> Vec<Arrival<M>> {
        let tasks = engine.dispatch_batch(inputs);
        workers
            .iter()
            .enumerate()
            .map(|(position, &worker)| WorkerOutcome {
                worker,
                payload: tasks[worker].run(),
                compute_seconds: 0.001,
                network_seconds: 0.0001,
                arrival_seconds: 0.001 * (position + 1) as f64,
                corrupted: false,
            })
            .collect()
    }

    #[test]
    fn reported_decode_macs_are_the_macs_the_decode_ran() {
        // The closed form, derived without the basis: the decode hands a
        // systematic survivor's vector through (at T = 0 worker k < K sits on
        // β_k; at T > 0 no worker does) and combines all R lanes for every
        // other band, so each function costs
        // (K − systematic survivors among the first R) · R · width MACs.
        fn check<M: PrimeModulus>(colluding: usize, seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (workers, partitions) = (12, 8 - colluding);
            let config = SchemeConfig::new(workers, partitions, 2, 1, colluding).unwrap();
            let threshold = config.recovery_threshold();
            let matrix = Matrix::from_vec(20, 5, avcc_field::random_matrix(&mut rng, 20, 5));
            let mut engine =
                CodedMatVec::<M>::new(&matrix, config, KeyGenConfig::default(), &mut rng);
            let width = engine.dataset().block_rows();
            for _ in 0..8 {
                let mut order: Vec<usize> = (0..workers).collect();
                for i in (1..workers).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
                let functions = rng.gen_range(1..4);
                let inputs: Vec<Vec<Fp<M>>> = (0..functions)
                    .map(|_| avcc_field::random_vector(&mut rng, 5))
                    .collect();
                let outcomes = arrivals(&engine, &inputs, &order);
                let round = engine
                    .collect_batch(&inputs, &outcomes, &NetworkModel::default(), 1.0, &mut rng)
                    .unwrap();
                let expected: Vec<_> = inputs.iter().map(|input| mat_vec(&matrix, input)).collect();
                assert_eq!(round.outputs, expected);
                assert_eq!(round.used_workers, order[..threshold]);
                let systematic = order[..threshold]
                    .iter()
                    .filter(|&&worker| colluding == 0 && worker < partitions)
                    .count();
                let per_function = (partitions - systematic) * threshold * width;
                assert_eq!(
                    round.ops.decode_macs,
                    (functions * per_function) as u64,
                    "T = {colluding}, survivors {:?}",
                    &order[..threshold]
                );
            }
        }
        for (colluding, seed) in [(0, 90), (2, 91)] {
            check::<P25>(colluding, seed);
            check::<avcc_field::P64>(colluding, seed);
        }
    }

    #[test]
    fn keys_do_not_depend_on_how_many_threads_multiplied_them() {
        // `over` draws every secret first and multiplies afterwards, in spans
        // when the shares are bulk (960 × 512 is past the inline threshold,
        // 16 × 5 far below it): the keys must equal the sequential
        // draw-multiply-draw-multiply loop's, and the rng must end where that
        // loop leaves it — pinned to the values the parent of this code drew.
        use avcc_field::P64;
        use rand::RngCore;
        let config = SchemeConfig::linear(12, 8, 2, 1).unwrap();
        let recorded_next = [0x206a_97d2_534e_bf46u64, 0x8a1b_aae1_bf11_7a88];
        for (rows, cols, recorded) in [(16, 5, Some(recorded_next)), (960, 512, None)] {
            for (case, repetitions) in [1usize, 3].into_iter().enumerate() {
                let key_config = KeyGenConfig { repetitions };
                let mut rng = StdRng::seed_from_u64(77);
                let matrix = Matrix::from_vec(
                    rows,
                    cols,
                    avcc_field::random_matrix::<P64, _>(&mut rng, rows, cols),
                );
                let dataset = Arc::new(EncodedDataset::encode(&matrix, config, &mut rng));
                let mut sequential_rng = rng.clone();
                let engine = CodedMatVec::over(Arc::clone(&dataset), key_config, &mut rng);
                let sequential: Vec<_> = dataset
                    .shares()
                    .iter()
                    .map(|share| MatVecKey::generate(share, key_config, &mut sequential_rng))
                    .collect();
                let Check::Freivalds(freivalds) = &engine.check else {
                    unreachable!("`over` opens a verifying session")
                };
                assert_eq!(
                    freivalds.keys, sequential,
                    "{rows} × {cols}, t = {repetitions}"
                );
                let next = rng.next_u64();
                assert_eq!(next, sequential_rng.next_u64());
                if let Some(recorded) = recorded {
                    assert_eq!(next, recorded[case], "t = {repetitions}");
                }
            }
        }
    }

    #[test]
    fn clean_round_uses_exactly_the_threshold() {
        let (matrix, inputs, expected) = setup();
        let mut engine = engine(&matrix, 2, 1, 2);
        let mut executor = VirtualExecutor::new(ClusterProfile::uniform(12));
        let mut rng = StdRng::seed_from_u64(3);
        let round = engine
            .execute_batch(&inputs, &mut executor, &ByzantineSpec::none(), &mut rng)
            .unwrap();
        assert_eq!(round.outputs, expected);
        assert_eq!(round.used_workers.len(), 9);
        assert!(round.detected_byzantine.is_empty());
        assert!(round.costs.verification > 0.0);
    }

    #[test]
    fn byzantine_results_are_rejected_and_reported() {
        let (matrix, inputs, expected) = setup();
        let mut engine = engine(&matrix, 1, 2, 4);
        // Uniform workers arrive in worker order, so both liars are among
        // the first eleven arrivals, all of which the master must verify.
        let mut executor = VirtualExecutor::new(ClusterProfile::uniform(12));
        let byzantine = ByzantineSpec::new([0, 6], AttackModel::constant());
        let mut rng = StdRng::seed_from_u64(5);
        let round = engine
            .execute_batch(&inputs, &mut executor, &byzantine, &mut rng)
            .unwrap();
        assert_eq!(round.outputs, expected, "AVCC must still decode correctly");
        let mut detected = round.detected_byzantine.clone();
        detected.sort_unstable();
        assert_eq!(detected, vec![0, 6]);
        assert!(!round.used_workers.contains(&0));
        assert!(!round.used_workers.contains(&6));
    }

    #[test]
    fn reverse_value_attack_is_also_rejected() {
        let (matrix, inputs, expected) = setup();
        let mut engine = engine(&matrix, 2, 1, 6);
        // Uniform workers arrive in worker order: the liar is the fifth
        // arrival, ahead of the ninth verified result.
        let mut executor = VirtualExecutor::new(ClusterProfile::uniform(12));
        let byzantine = ByzantineSpec::new([4], AttackModel::reverse());
        let mut rng = StdRng::seed_from_u64(7);
        let round = engine
            .execute_batch(&inputs, &mut executor, &byzantine, &mut rng)
            .unwrap();
        assert_eq!(round.outputs, expected);
        assert_eq!(round.detected_byzantine, vec![4]);
    }

    #[test]
    fn reverse_value_liars_are_caught_on_the_systematic_goldilocks_code() {
        // The bulk matrix job's code: Goldilocks, (N, K, S, M) = (12, 8, 2, 1)
        // at T = 0, whose shares 0..8 are the data bands themselves. A liar
        // holding a copied band and one holding a parity share must both be
        // rejected, and the product decoded exactly either way.
        use avcc_field::{F64, P64};
        let mut rng = StdRng::seed_from_u64(60);
        let matrix = Matrix::from_vec(40, 6, avcc_field::random_matrix(&mut rng, 40, 6));
        let input: Vec<F64> = avcc_field::random_vector(&mut rng, 6);
        let expected = vec![mat_vec(&matrix, &input)];
        let config = SchemeConfig::linear(12, 8, 2, 1).unwrap();
        let mut engine =
            CodedMatVec::<P64>::new(&matrix, config, KeyGenConfig::default(), &mut rng);
        let encoder = avcc_coding::LagrangeEncoder::<P64>::new(config);
        assert!(encoder.points().is_systematic(8));
        assert_eq!(engine.dataset().share(3).data(), &matrix.data()[90..120]);
        for liar in [3, 10] {
            // Every honest worker slowed down, so the liar is among the
            // arrivals the master verifies (in worker order, liar 10 would
            // arrive after the eighth verified result).
            let honest: Vec<usize> = (0..12).filter(|&w| w != liar).collect();
            let profile = ClusterProfile::uniform(12).with_stragglers(&honest, 50.0);
            let mut executor = VirtualExecutor::new(profile);
            let byzantine = ByzantineSpec::new([liar], AttackModel::reverse());
            let mut round_rng = StdRng::seed_from_u64(61 + liar as u64);
            let round = engine
                .execute_batch(
                    std::slice::from_ref(&input),
                    &mut executor,
                    &byzantine,
                    &mut round_rng,
                )
                .unwrap();
            assert_eq!(round.outputs, expected, "liar {liar}");
            assert_eq!(round.detected_byzantine, vec![liar]);
            assert!(!round.used_workers.contains(&liar));
        }
    }

    #[test]
    fn stragglers_are_not_waited_for() {
        let (matrix, inputs, expected) = setup();
        let mut engine = engine(&matrix, 2, 1, 8);
        let profile = ClusterProfile::uniform(12).with_stragglers(&[1, 9], 300.0);
        let mut executor = VirtualExecutor::new(profile);
        let mut rng = StdRng::seed_from_u64(9);
        let round = engine
            .execute_batch(&inputs, &mut executor, &ByzantineSpec::none(), &mut rng)
            .unwrap();
        assert_eq!(round.outputs, expected);
        assert!(!round.used_workers.contains(&1));
        assert!(!round.used_workers.contains(&9));
    }

    #[test]
    fn combined_stragglers_and_byzantine_within_budget_still_decode() {
        let (matrix, inputs, expected) = setup();
        // (N=12, K=9, S+M=3): two stragglers plus one Byzantine node.
        let mut engine = engine(&matrix, 2, 1, 10);
        let profile = ClusterProfile::uniform(12).with_stragglers(&[2, 3], 300.0);
        let mut executor = VirtualExecutor::new(profile);
        let byzantine = ByzantineSpec::new([7], AttackModel::constant());
        let mut rng = StdRng::seed_from_u64(11);
        let round = engine
            .execute_batch(&inputs, &mut executor, &byzantine, &mut rng)
            .unwrap();
        assert_eq!(round.outputs, expected);
        assert_eq!(round.detected_byzantine, vec![7]);
    }

    #[test]
    fn straggler_round_on_goldilocks_decodes_the_exact_product() {
        use avcc_field::{F64, P64};
        // Goldilocks field, K = 8 and N = 16 on the systematic layout: the
        // straggler round below (two of the four stragglers hold data bands)
        // and a round with every worker present both reproduce the exact
        // product, and agree with a fresh decode of their survivor set.
        let mut rng = StdRng::seed_from_u64(40);
        let matrix = Matrix::from_vec(16, 6, avcc_field::random_matrix(&mut rng, 16, 6));
        let input: Vec<F64> = avcc_field::random_vector(&mut rng, 6);
        let expected = mat_vec(&matrix, &input);
        let config = SchemeConfig::linear(16, 8, 4, 0).unwrap();
        let mut engine =
            CodedMatVec::<P64>::new(&matrix, config, KeyGenConfig::default(), &mut rng);
        let encoder = avcc_coding::LagrangeEncoder::<P64>::new(config);
        assert!(encoder.points().is_systematic(8));
        let decoder = avcc_coding::LagrangeDecoder::<P64>::new(config);
        let straggling = ClusterProfile::uniform(16).with_stragglers(&[0, 5, 11, 13], 300.0);
        for profile in [straggling, ClusterProfile::uniform(16)] {
            let mut executor = VirtualExecutor::new(profile);
            let mut round_rng = StdRng::seed_from_u64(41);
            let round = engine
                .execute_batch(
                    std::slice::from_ref(&input),
                    &mut executor,
                    &ByzantineSpec::none(),
                    &mut round_rng,
                )
                .unwrap();
            assert_eq!(round.outputs[0], expected);
            let survivors: Vec<(usize, Vec<F64>)> = round
                .used_workers
                .iter()
                .map(|&w| (w, mat_vec(engine.dataset().share(w), &input)))
                .collect();
            let oracle = decoder.decode_erasure(&survivors).unwrap();
            assert_eq!(round.outputs[0], oracle.concat());
            for straggler in executor.profile().straggler_indices() {
                assert!(!round.used_workers.contains(&straggler));
            }
        }
    }

    #[test]
    fn too_many_byzantine_workers_fail_loudly_not_silently() {
        let (matrix, inputs, _) = setup();
        // Every worker Byzantine: verification rejects them all and the engine
        // reports the shortfall instead of producing garbage.
        let mut engine = engine(&matrix, 2, 1, 12);
        let mut executor = VirtualExecutor::new(ClusterProfile::uniform(12));
        let byzantine = ByzantineSpec::new(0..12, AttackModel::constant());
        let mut rng = StdRng::seed_from_u64(13);
        let outcome = engine.execute_batch(&inputs, &mut executor, &byzantine, &mut rng);
        assert!(matches!(
            outcome,
            Err(DistributedError::Scheme(SchemeFailure::NotEnoughResults {
                required: 9,
                ..
            }))
        ));
    }

    /// The LCC baseline: error decoding over the fastest `N − S`.
    mod lcc {
        use super::*;

        fn lcc_session<R: Rng>(
            matrix: &Matrix<F25>,
            config: SchemeConfig,
            rng: &mut R,
        ) -> CodedMatVec<P25> {
            CodedMatVec::lcc(Arc::new(EncodedDataset::encode(matrix, config, rng)))
        }

        #[test]
        fn clean_round_decodes_from_fastest_results() {
            let (matrix, inputs, expected) = setup();
            let config = SchemeConfig::linear(12, 9, 1, 1).unwrap();
            let mut rng = StdRng::seed_from_u64(2);
            let mut engine = lcc_session(&matrix, config, &mut rng);
            let mut executor = VirtualExecutor::new(ClusterProfile::uniform(12));
            let round = engine
                .execute_batch(&inputs, &mut executor, &ByzantineSpec::none(), &mut rng)
                .unwrap();
            assert_eq!(round.outputs, expected);
            assert_eq!(round.used_workers.len(), 11); // N - S
            assert!(round.detected_byzantine.is_empty());
        }

        #[test]
        fn single_byzantine_worker_is_corrected_and_identified() {
            let (matrix, inputs, expected) = setup();
            let config = SchemeConfig::linear(12, 9, 1, 1).unwrap();
            let mut rng = StdRng::seed_from_u64(3);
            let mut engine = lcc_session(&matrix, config, &mut rng);
            // Uniform workers arrive in worker order: LCC decodes from workers
            // 0..=10, the liar among them.
            let mut executor = VirtualExecutor::new(ClusterProfile::uniform(12));
            let byzantine = ByzantineSpec::new([5], AttackModel::reverse());
            let round = engine
                .execute_batch(&inputs, &mut executor, &byzantine, &mut rng)
                .unwrap();
            assert_eq!(round.outputs, expected);
            assert_eq!(round.detected_byzantine, vec![5]);
        }

        #[test]
        fn byzantine_workers_beyond_the_design_corrupt_the_output() {
            let (matrix, inputs, expected) = setup();
            // Designed for M = 1 only; corrupt two workers. Uniform workers
            // arrive in worker order, so both liars are among the eleven results
            // LCC waits for, and among the nine its fallback erasure decode uses.
            let config = SchemeConfig::linear(12, 9, 1, 1).unwrap();
            let mut rng = StdRng::seed_from_u64(4);
            let mut engine = lcc_session(&matrix, config, &mut rng);
            let mut executor = VirtualExecutor::new(ClusterProfile::uniform(12));
            let byzantine = ByzantineSpec::new([2, 5], AttackModel::constant());
            let round = engine
                .execute_batch(&inputs, &mut executor, &byzantine, &mut rng)
                .unwrap();
            assert_ne!(round.outputs, expected, "LCC beyond capability should err");
            assert!(round.detected_byzantine.is_empty());
        }

        #[test]
        fn a_round_short_of_threshold_plus_two_m_is_not_enough_results() {
            // (12, 9, 1, 1) error-decodes from 9 + 2·1 = 11 results. Nine or
            // ten honest arrivals are a round short of results, which the
            // driver parks until more workers respond, not a failed decode.
            let (matrix, inputs, _) = setup();
            let config = SchemeConfig::linear(12, 9, 1, 1).unwrap();
            let mut rng = StdRng::seed_from_u64(6);
            let mut engine = lcc_session(&matrix, config, &mut rng);
            for available in [9, 10] {
                let workers: Vec<usize> = (0..available).collect();
                let outcomes = arrivals(&engine, &inputs, &workers);
                let round = engine.collect_batch(
                    &inputs,
                    &outcomes,
                    &NetworkModel::default(),
                    1.0,
                    &mut rng,
                );
                assert_eq!(
                    round.err(),
                    Some(SchemeFailure::NotEnoughResults {
                        available,
                        required: 11
                    })
                );
            }
        }

        #[test]
        fn straggler_is_not_waited_for() {
            let (matrix, inputs, expected) = setup();
            let config = SchemeConfig::linear(12, 9, 1, 1).unwrap();
            let mut rng = StdRng::seed_from_u64(5);
            let mut engine = lcc_session(&matrix, config, &mut rng);
            let profile = ClusterProfile::uniform(12).with_stragglers(&[3], 300.0);
            let mut executor = VirtualExecutor::new(profile);
            let round = engine
                .execute_batch(&inputs, &mut executor, &ByzantineSpec::none(), &mut rng)
                .unwrap();
            assert_eq!(round.outputs, expected);
            assert!(
                !round.used_workers.contains(&3),
                "straggler should be excluded"
            );
            assert!(round.observed_stragglers.contains(&3));
        }
    }

    /// The uncoded baseline: every worker, erasure-decoded.
    mod uncoded {
        use super::*;

        /// The `(K, K)` code's session: the matrix's `partitions` row bands.
        fn uncoded_session<R: Rng>(
            matrix: &Matrix<F25>,
            partitions: usize,
            rng: &mut R,
        ) -> CodedMatVec<P25> {
            let bands = SchemeConfig::linear(partitions, partitions, 0, 0).unwrap();
            CodedMatVec::uncoded(Arc::new(EncodedDataset::encode(matrix, bands, rng)))
        }

        /// A matrix and one round's inputs (a batch of one).
        fn setup(rows: usize, cols: usize) -> (Matrix<F25>, Vec<Vec<F25>>) {
            let mut rng = StdRng::seed_from_u64(1);
            let matrix =
                Matrix::from_vec(rows, cols, avcc_field::random_matrix(&mut rng, rows, cols));
            let input = avcc_field::random_vector(&mut rng, cols);
            (matrix, vec![input])
        }

        #[test]
        fn honest_round_reconstructs_the_product() {
            let (matrix, inputs) = setup(18, 5);
            let expected = mat_vec(&matrix, &inputs[0]);
            let mut rng = StdRng::seed_from_u64(2);
            let mut engine = uncoded_session(&matrix, 9, &mut rng);
            let mut executor = VirtualExecutor::new(ClusterProfile::uniform(9));
            let round = engine
                .execute_batch(&inputs, &mut executor, &ByzantineSpec::none(), &mut rng)
                .unwrap();
            assert_eq!(round.outputs[0], expected);
            assert_eq!(round.used_workers.len(), 9);
            assert!(round.detected_byzantine.is_empty());
        }

        #[test]
        fn byzantine_corruption_silently_pollutes_the_output() {
            let (matrix, inputs) = setup(12, 4);
            let expected = mat_vec(&matrix, &inputs[0]);
            let mut rng = StdRng::seed_from_u64(3);
            let mut engine = uncoded_session(&matrix, 6, &mut rng);
            let mut executor = VirtualExecutor::new(ClusterProfile::uniform(6));
            let byzantine = ByzantineSpec::new([2], AttackModel::constant());
            let round = engine
                .execute_batch(&inputs, &mut executor, &byzantine, &mut rng)
                .unwrap();
            assert_ne!(
                round.outputs[0], expected,
                "corruption should reach the output"
            );
            // The uncoded scheme has no way to notice.
            assert!(round.detected_byzantine.is_empty());
            // Untouched blocks are still correct.
            assert_eq!(round.outputs[0][..4], expected[..4]);
        }

        #[test]
        fn straggler_inflates_the_round_cost() {
            let (matrix, inputs) = setup(12, 4);
            let mut rng = StdRng::seed_from_u64(4);
            let mut engine = uncoded_session(&matrix, 6, &mut rng);
            let mut fast = VirtualExecutor::new(ClusterProfile::uniform(6));
            let mut slow =
                VirtualExecutor::new(ClusterProfile::uniform(6).with_stragglers(&[0], 200.0));
            let mut compute = |executor: &mut VirtualExecutor| {
                engine
                    .execute_batch(&inputs, executor, &ByzantineSpec::none(), &mut rng)
                    .unwrap()
                    .costs
                    .compute
            };
            let (fast_compute, slow_compute) = (compute(&mut fast), compute(&mut slow));
            // A 2 × 4 block per worker is 8 MACs at the modeled rate; the round
            // waits for the ×200 straggler.
            assert_eq!(fast_compute, 8.0 * avcc_sim::SECONDS_PER_MAC);
            assert_eq!(slow_compute, fast_compute * 200.0);
        }

        #[test]
        fn indivisible_rows_decode_exactly_and_trim() {
            // 22 rows over K = 6 are bands of 4 rows, the last holding the two
            // real rows left and two zero rows; 9 rows over K = 4 are bands of 3,
            // the last all padding. The output is the product, padding cut off.
            for (rows, partitions) in [(22, 6), (9, 4)] {
                let (matrix, inputs) = setup(rows, 4);
                let mut rng = StdRng::seed_from_u64(5);
                let mut engine = uncoded_session(&matrix, partitions, &mut rng);
                assert_eq!(engine.dataset().block_rows(), rows.div_ceil(partitions));
                let mut executor = VirtualExecutor::new(ClusterProfile::uniform(partitions));
                let round = engine
                    .execute_batch(&inputs, &mut executor, &ByzantineSpec::none(), &mut rng)
                    .unwrap();
                assert_eq!(
                    round.outputs[0],
                    mat_vec(&matrix, &inputs[0]),
                    "{rows} rows"
                );
                assert_eq!(round.ops.decode_macs, 0);
            }
        }
    }
}
