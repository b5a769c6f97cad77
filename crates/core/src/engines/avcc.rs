//! The AVCC engine (paper §IV): coded computing for stragglers and privacy,
//! Freivalds verification for Byzantine workers.
//!
//! The data is Lagrange/MDS encoded exactly as for LCC, but the master holds a
//! per-worker Freivalds key and verifies each result *the moment it arrives*.
//! Results that fail verification are discarded (their workers are reported as
//! detected Byzantine); decoding starts as soon as the recovery threshold of
//! *verified* results is available, so a Byzantine worker costs exactly one
//! extra wait — the same as a straggler — instead of LCC's two (eq. 2 vs
//! eq. 1).
//!
//! Since PR9 a **pre-decode dual-codeword screen**
//! ([`avcc_coding::DualCodeword`]) runs first whenever strictly more than the
//! recovery threshold of results arrived: one `O(R·width)` SCRAPE-style
//! inner product checks all returned blocks for RS-codeword membership at
//! once and, on failure, localizes the corrupted workers by syndrome power
//! sums. Screened-out workers are dropped before any Freivalds work — they
//! become erasures exactly like stragglers — and are reported both in
//! `detected_byzantine` and in the new `screened_workers` field. The
//! per-arrival Freivalds check stays downstream as the belt to this
//! suspender: the screen proves the blocks *consistent with one polynomial*,
//! Freivalds proves them *the right polynomial* (a full coalition shifting
//! the round onto a different codeword passes the screen but not Freivalds).

use std::sync::Arc;

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

/// The AVCC distributed matrix–vector engine: a per-function session over a
/// shared [`EncodedDataset`], plus the per-worker Freivalds keys.
///
/// Cloning the session clones the `Arc` onto the dataset, so clones keep
/// sharing one encode.
#[derive(Debug, Clone)]
pub struct AvccMatVec<M: PrimeModulus> {
    dataset: Arc<EncodedDataset<M>>,
    keys: Vec<MatVecKey<M>>,
    screen: DualCodeword<M>,
    screen_enabled: bool,
}

impl<M: PrimeModulus> AvccMatVec<M> {
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
        AvccMatVec {
            dataset,
            keys,
            screen,
            screen_enabled: true,
        }
    }

    /// Enables or disables the pre-decode dual-codeword screen (on by
    /// default). The paper-figure experiment driver turns it off: Fig. 3–5
    /// reproduce Tang et al.'s AVCC, whose master never screens — Freivalds
    /// verification plus erasure decoding already absorbs those fault
    /// patterns, so there the screen only adds master-side cost to the
    /// figures' cost model. Every other consumer (serving jobs, the socket
    /// runtime, direct sessions) keeps it on for pre-decode localization.
    pub fn with_screening(mut self, enabled: bool) -> Self {
        self.screen_enabled = enabled;
        self
    }

    /// Encodes the matrix and generates one Freivalds verification key per
    /// worker (the one-time preprocessing of §IV-A steps 1–2) — the
    /// single-function convenience wrapper around [`EncodedDataset::encode`]
    /// plus [`AvccMatVec::over`].
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

    /// The shared encoded dataset this session dispatches against.
    pub fn dataset(&self) -> &Arc<EncodedDataset<M>> {
        &self.dataset
    }

    /// The scheme configuration.
    pub fn config(&self) -> &SchemeConfig {
        self.dataset.scheme()
    }

    /// Total size of the encoded data shipped to the workers, in bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.dataset.encoded_bytes()
    }

    /// The recovery threshold (number of verified results needed to decode).
    pub fn recovery_threshold(&self) -> usize {
        self.dataset.recovery_threshold()
    }

    /// The pre-decode dual-codeword screen this session runs on arrivals
    /// (shared configuration/points with the dataset's encoder and decoder).
    pub fn screen(&self) -> &DualCodeword<M> {
        &self.screen
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
        if !self.screen_enabled || !self.screen.screenable(claims.len()) {
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
            // Malformed rounds (shape mismatches, duplicates) fall through to
            // the existing verification/decode paths, which report them.
            Err(_) => (Vec::new(), 0),
        }
    }

    /// Names the function(s) a rejected worker corrupted, adding them to
    /// `corrupted`, and returns how many Freivalds checks that took: one per
    /// function for a batch, none for a single function — the check (or
    /// screen) that rejected the worker already names it.
    fn localize(
        &self,
        inputs: &[Vec<Fp<M>>],
        outcome: &WorkerOutcome<Vec<Vec<Fp<M>>>>,
        corrupted: &mut Vec<usize>,
    ) -> usize {
        if inputs.len() == 1 {
            if corrupted.is_empty() {
                corrupted.push(0);
            }
            return 0;
        }
        for (function, (input, claim)) in inputs.iter().zip(&outcome.payload).enumerate() {
            if !self.keys[outcome.worker].verify(input, claim) && !corrupted.contains(&function) {
                corrupted.push(function);
            }
        }
        inputs.len()
    }
}

impl<M: PrimeModulus> MatVecEngine<M> for AvccMatVec<M> {
    fn name(&self) -> &'static str {
        "avcc"
    }

    fn workers(&self) -> usize {
        self.dataset.workers()
    }

    fn min_results(&self) -> usize {
        self.dataset.recovery_threshold()
    }

    fn dispatch_batch(&self, inputs: &[Vec<Fp<M>>]) -> Vec<BatchRoundTask<M>> {
        BatchRoundTask::for_shares(self.dataset.shares(), inputs)
    }

    fn collect_batch(
        &mut self,
        inputs: &[Vec<Fp<M>>],
        outcomes: &[WorkerOutcome<Vec<Vec<Fp<M>>>>],
        network: &NetworkModel,
        _time_scale: f64,
        rng: &mut StdRng,
    ) -> Result<BatchExecution<M>, SchemeFailure> {
        assert!(!inputs.is_empty(), "batched round needs at least one input");
        let functions = inputs.len();
        let cols = inputs[0].len();
        let observed_stragglers = detect_stragglers(outcomes);
        let threshold = self.dataset.recovery_threshold();
        let block_rows = self.dataset.block_rows();
        // A wrong-shaped arrival never reaches a key or the decoder: it is
        // dropped here, exactly like a result that never arrived.
        let outcomes: Vec<&WorkerOutcome<Vec<Vec<Fp<M>>>>> = outcomes
            .iter()
            .filter(|outcome| has_dispatched_shape(&outcome.payload, functions, block_rows))
            .collect();

        // Verify results in arrival order and stop as soon as the threshold of
        // verified results is reached — the key property that lets AVCC start
        // decoding before the stragglers (and without LCC's 2M overhead).
        //
        // With m > 1 one scalar σ batches the whole round: the master
        // combines the m inputs into x_c = Σ σ^j x_j once, combines each
        // arrival's m claims into y_c = Σ σ^j y_j, and runs a single Freivalds
        // check per arrival — verifying m products costs barely more than
        // one. A failed combined check falls back to the m per-function
        // checks to localize which function(s) the worker corrupted. A single
        // function is its own combination: no σ is drawn (so the rng stream
        // is exactly the single-function round's) and nothing is combined.
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
        // pass. Screened-out workers are erased exactly like stragglers.
        let combined_claims: Vec<(usize, Vec<Fp<M>>)> = outcomes
            .iter()
            .map(|outcome| (outcome.worker, combine(&outcome.payload)))
            .collect();
        let (screened_workers, screen_macs) = self.screen_claims(&combined_claims, rng);
        let mut verifications = 0usize;
        let mut fallback_checks = 0usize;
        let mut verified: Vec<&WorkerOutcome<Vec<Vec<Fp<M>>>>> = Vec::with_capacity(threshold);
        let mut detected_byzantine = screened_workers.clone();
        let mut corrupted_functions = Vec::new();
        // Screened-out workers skip the combined check entirely, but their
        // corrupted functions are still localized.
        for &worker in &screened_workers {
            let outcome = outcomes
                .iter()
                .find(|outcome| outcome.worker == worker)
                .expect("screened workers come from the arrivals");
            fallback_checks += self.localize(inputs, outcome, &mut corrupted_functions);
        }
        for (outcome, (_, combined_claim)) in outcomes.iter().zip(&combined_claims) {
            if verified.len() >= threshold {
                break;
            }
            if screened_workers.contains(&outcome.worker) {
                continue;
            }
            let accepted = self.keys[outcome.worker].verify(&combined_input, combined_claim);
            verifications += 1;
            if accepted {
                verified.push(outcome);
            } else {
                fallback_checks += self.localize(inputs, outcome, &mut corrupted_functions);
                detected_byzantine.push(outcome.worker);
            }
        }
        corrupted_functions.sort_unstable();
        if verified.len() < threshold {
            return Err(SchemeFailure::NotEnoughResults {
                available: verified.len(),
                required: threshold,
            });
        }

        // One interpolation basis for the verified survivor set, applied to
        // each of the m functions' borrowed result lanes.
        let decoder = self.dataset.decoder();
        let survivors: Vec<usize> = verified.iter().map(|o| o.worker).collect();
        let prepared = decoder.prepare(&survivors)?;
        let mut outputs = Vec::with_capacity(functions);
        for function in 0..functions {
            let lanes: Vec<&[Fp<M>]> = verified
                .iter()
                .map(|o| o.payload[function].as_slice())
                .collect();
            let blocks = prepared.apply(&lanes)?;
            let mut output = Vec::with_capacity(self.dataset.partitions() * block_rows);
            for block in blocks {
                output.extend(block);
            }
            output.truncate(self.dataset.output_rows());
            outputs.push(output);
        }

        // Combining (m > 1 only) costs `m` MACs per coordinate (inputs once,
        // plus every arrival's claims — the screen needs them all); each
        // combined check is one ordinary Freivalds check — one inner product
        // over the payload plus one over the input; fallbacks are ordinary
        // per-function checks; the screen adds its reported MACs.
        let combine_macs = match sigma {
            Some(_) => functions * cols + outcomes.len() * functions * block_rows,
            None => 0,
        };
        let ops = OpCounts {
            worker_macs: (block_rows * functions * cols) as u64,
            verify_macs: (combine_macs + (verifications + fallback_checks) * (block_rows + cols))
                as u64
                + screen_macs,
            decode_macs: (functions * block_rows * threshold * self.dataset.partitions()) as u64,
        };
        let costs = waiting_costs(
            &verified,
            network,
            field_vector_bytes(functions * cols),
            self.dataset.workers(),
            &ops,
        );
        Ok(BatchExecution {
            outputs,
            costs,
            ops,
            used_workers: survivors,
            detected_byzantine,
            observed_stragglers,
            screened_workers,
            corrupted_functions,
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

    fn engine(matrix: &Matrix<F25>, s: usize, m: usize, seed: u64) -> AvccMatVec<P25> {
        let config = SchemeConfig::linear(12, 9, s, m).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        AvccMatVec::new(matrix, config, KeyGenConfig::default(), &mut rng)
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
                let engine = AvccMatVec::over(Arc::clone(&dataset), key_config, &mut rng);
                let sequential: Vec<_> = dataset
                    .shares()
                    .iter()
                    .map(|share| MatVecKey::generate(share, key_config, &mut sequential_rng))
                    .collect();
                assert_eq!(
                    engine.keys, sequential,
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
        let mut engine = AvccMatVec::<P64>::new(&matrix, config, KeyGenConfig::default(), &mut rng);
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
        let mut engine = AvccMatVec::<P64>::new(&matrix, config, KeyGenConfig::default(), &mut rng);
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
}
