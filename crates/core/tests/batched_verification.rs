//! The batched round's contract: `m` products collected through
//! `dispatch_batch`/`collect_batch` are bit-identical to `m` independent
//! single-function rounds (and to the plain `mat_vec` oracle), the batched
//! Freivalds pass accepts exactly when every per-function check accepts, and
//! a corrupted function inside a batch is localized by the per-function
//! fallback — across schemes and moduli. And the other direction of "a
//! single product is a batch of one": `m = 1` through `collect_batch`
//! reproduces the dedicated single-function collect it replaced, down to the
//! rng stream.

use std::sync::Arc;

use avcc_coding::{EncodedDataset, SchemeConfig};
use avcc_core::{AvccMatVec, LccMatVec, MatVecEngine, UncodedMatVec};
use avcc_field::{Fp, PrimeModulus, P25, P251, P64};
use avcc_linalg::{mat_vec, Matrix};
use avcc_sim::attack::ByzantineSpec;
use avcc_sim::cluster::ClusterProfile;
use avcc_sim::executor::{Executor, ExecutorError, VirtualExecutor, WorkerOutcome};
use avcc_sim::wire::Block;
use avcc_sim::NetworkModel;
use avcc_verify::KeyGenConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn random_matrix<M: PrimeModulus>(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix<Fp<M>> {
    Matrix::from_vec(rows, cols, avcc_field::random_matrix(rng, rows, cols))
}

fn random_inputs<M: PrimeModulus>(
    rng: &mut StdRng,
    functions: usize,
    cols: usize,
) -> Vec<Vec<Fp<M>>> {
    (0..functions)
        .map(|_| avcc_field::random_vector(rng, cols))
        .collect()
}

/// Runs one batched round and `m` independent single rounds for every scheme
/// over one modulus, asserting all outputs equal the `mat_vec` oracle exactly.
fn batch_matches_singles_for_modulus<M: PrimeModulus>(seed: u64, functions: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let matrix = random_matrix::<M>(&mut rng, 18, 6);
    let inputs = random_inputs::<M>(&mut rng, functions, 6);
    let oracle: Vec<Vec<Fp<M>>> = inputs.iter().map(|input| mat_vec(&matrix, input)).collect();
    // AVCC tolerates (S=2, M=1) at N=12; the same budget is LCC-infeasible
    // (eq. 1 needs S + 2M headroom), so LCC gets its own (S=1, M=1) dataset.
    // The uncoded baseline uses the raw partition of the same matrix.
    let avcc_config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
    let lcc_config = SchemeConfig::linear(12, 9, 1, 1).unwrap();
    let avcc_coded = Arc::new(EncodedDataset::<M>::encode(&matrix, avcc_config, &mut rng));
    let lcc_coded = Arc::new(EncodedDataset::<M>::encode(&matrix, lcc_config, &mut rng));
    let raw = Arc::new(EncodedDataset::<M>::partitioned(&matrix, 9));
    let mut engines: Vec<Box<dyn MatVecEngine<M>>> = vec![
        Box::new(AvccMatVec::over(
            avcc_coded,
            KeyGenConfig::default(),
            &mut rng,
        )),
        Box::new(LccMatVec::over(lcc_coded)),
        Box::new(UncodedMatVec::over(raw)),
    ];

    for engine in engines.iter_mut() {
        let mut executor = VirtualExecutor::new(ClusterProfile::uniform(engine.workers()));
        let mut round_rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let batch = engine
            .execute_batch(
                &inputs,
                &mut executor,
                &ByzantineSpec::none(),
                &mut round_rng,
            )
            .unwrap();
        assert_eq!(batch.outputs.len(), functions);
        assert!(batch.corrupted_functions.is_empty());
        assert!(batch.detected_byzantine.is_empty());
        for (function, output) in batch.outputs.iter().enumerate() {
            assert_eq!(
                output,
                &oracle[function],
                "{}: batched function {function} diverged from the oracle",
                engine.name()
            );
        }
        // m independent single-function rounds over the same session.
        for (function, input) in inputs.iter().enumerate() {
            let single = engine
                .execute_batch(
                    std::slice::from_ref(input),
                    &mut executor,
                    &ByzantineSpec::none(),
                    &mut round_rng,
                )
                .unwrap();
            assert_eq!(
                single.outputs,
                [oracle[function].clone()],
                "{}: single function {function} diverged from the oracle",
                engine.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn batched_rounds_match_independent_rounds_across_schemes(
        seed in 0u64..1000,
        functions in 1usize..6,
    ) {
        batch_matches_singles_for_modulus::<P25>(seed, functions);
        batch_matches_singles_for_modulus::<P64>(seed, functions);
    }
}

/// Builds arrival-ordered batch outcomes by running the dispatched tasks
/// directly, corrupting the listed `(worker, function)` payload entries.
fn manual_outcomes<M: PrimeModulus>(
    engine: &AvccMatVec<M>,
    inputs: &[Vec<Fp<M>>],
    corruptions: &[(usize, usize)],
) -> Vec<WorkerOutcome<Vec<Vec<Fp<M>>>>> {
    engine
        .dispatch_batch(inputs)
        .iter()
        .map(|task| {
            let worker = task.worker;
            let mut payload = task.run();
            for &(bad_worker, function) in corruptions {
                if worker == bad_worker {
                    payload[function][0] += Fp::<M>::ONE;
                }
            }
            WorkerOutcome {
                worker,
                payload,
                compute_seconds: 0.001,
                network_seconds: 0.0001,
                arrival_seconds: 0.001 * (worker + 1) as f64,
                corrupted: corruptions.iter().any(|&(bad, _)| bad == worker),
            }
        })
        .collect()
}

/// The reject side of the batched check: corrupting exactly one function of
/// one worker fails the combined check for that worker only, the fallback
/// localizes the function, and the decoded outputs are still exact.
fn corrupted_function_is_localized_for_modulus<M: PrimeModulus>(seed: u64, bad_function: usize) {
    let functions = 4;
    let mut rng = StdRng::seed_from_u64(seed);
    let matrix = random_matrix::<M>(&mut rng, 18, 6);
    let inputs = random_inputs::<M>(&mut rng, functions, 6);
    let oracle: Vec<Vec<Fp<M>>> = inputs.iter().map(|input| mat_vec(&matrix, input)).collect();
    let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
    let mut engine = AvccMatVec::<M>::new(&matrix, config, KeyGenConfig::default(), &mut rng);

    // Worker 0 arrives first (so the master is guaranteed to examine it) and
    // corrupts exactly one function of its batch payload.
    let outcomes = manual_outcomes(&engine, &inputs, &[(0, bad_function)]);
    let mut collect_rng = StdRng::seed_from_u64(seed ^ 0xbad);
    let batch = engine
        .collect_batch(
            &inputs,
            &outcomes,
            &NetworkModel::default(),
            1.0,
            &mut collect_rng,
        )
        .unwrap();

    assert_eq!(batch.detected_byzantine, vec![0]);
    assert!(!batch.used_workers.contains(&0));
    assert_eq!(
        batch.corrupted_functions,
        vec![bad_function],
        "fallback must localize exactly the corrupted function"
    );
    for (function, output) in batch.outputs.iter().enumerate() {
        assert_eq!(
            output, &oracle[function],
            "function {function} must decode exactly"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn corrupted_function_is_localized_across_moduli(
        seed in 0u64..1000,
        bad_function in 0usize..4,
    ) {
        corrupted_function_is_localized_for_modulus::<P25>(seed, bad_function);
        corrupted_function_is_localized_for_modulus::<P64>(seed, bad_function);
    }
}

#[test]
fn multiple_corrupted_functions_are_all_localized() {
    let functions = 5;
    let mut rng = StdRng::seed_from_u64(77);
    let matrix = random_matrix::<P25>(&mut rng, 18, 6);
    let inputs = random_inputs::<P25>(&mut rng, functions, 6);
    let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
    let mut engine = AvccMatVec::<P25>::new(&matrix, config, KeyGenConfig::default(), &mut rng);

    // Worker 0 corrupts functions 1 and 3; worker 2 corrupts function 1.
    let outcomes = manual_outcomes(&engine, &inputs, &[(0, 1), (0, 3), (2, 1)]);
    let mut collect_rng = StdRng::seed_from_u64(78);
    let batch = engine
        .collect_batch(
            &inputs,
            &outcomes,
            &NetworkModel::default(),
            1.0,
            &mut collect_rng,
        )
        .unwrap();
    assert_eq!(batch.detected_byzantine, vec![0, 2]);
    assert_eq!(batch.corrupted_functions, vec![1, 3]);
    for (function, input) in inputs.iter().enumerate() {
        assert_eq!(batch.outputs[function], mat_vec(&matrix, input));
    }
}

/// How a hostile worker misshapes every part of an otherwise correct,
/// CRC-valid, canonical payload.
#[derive(Debug, Clone, Copy)]
enum Reshape {
    Shorten,
    Lengthen,
    Empty,
}

impl Reshape {
    fn apply<T: Default>(self, parts: &mut [Vec<T>]) {
        for part in parts {
            match self {
                Reshape::Shorten => drop(part.pop()),
                Reshape::Lengthen => part.push(T::default()),
                Reshape::Empty => part.clear(),
            }
        }
    }
}

/// Passes every call through to a `VirtualExecutor`, then reshapes the
/// victim's payload and moves it to the front of the arrival order, so the
/// master is guaranteed to examine it.
struct ReshapingExecutor {
    inner: VirtualExecutor,
    victim: usize,
    reshape: Reshape,
}

impl Executor for ReshapingExecutor {
    fn workers(&self) -> usize {
        self.inner.workers()
    }
    fn profile(&self) -> &ClusterProfile {
        Executor::profile(&self.inner)
    }
    fn install_blocks(&mut self, job: u64, blocks: &[Block]) -> Result<(), ExecutorError> {
        self.inner.install_blocks(job, blocks)
    }
    fn execute_round(
        &mut self,
        job: u64,
        round: u64,
        inputs: &[Vec<Vec<u64>>],
    ) -> Result<Vec<WorkerOutcome<Vec<Vec<u64>>>>, ExecutorError> {
        let mut outcomes = self.inner.execute_round(job, round, inputs)?;
        for outcome in outcomes.iter_mut().filter(|o| o.worker == self.victim) {
            self.reshape.apply(&mut outcome.payload);
            outcome.arrival_seconds = 0.0;
        }
        Ok(outcomes)
    }
}

/// A worker chooses the shape of what it sends: a result whose vectors are
/// not one block's rows long must be dropped like a result that never
/// arrived — over the wire path and for in-process callers of
/// `collect_batch` — and the round decodes from the rest exactly as if the
/// worker had been absent.
#[test]
fn a_wrong_length_result_is_dropped_before_verification() {
    for functions in [1usize, 3] {
        for reshape in [Reshape::Shorten, Reshape::Lengthen, Reshape::Empty] {
            let case = format!("m = {functions}, {reshape:?}");
            let mut rng = StdRng::seed_from_u64(500 + functions as u64);
            let matrix = random_matrix::<P25>(&mut rng, 18, 6);
            let inputs = random_inputs::<P25>(&mut rng, functions, 6);
            let oracle: Vec<Vec<Fp<P25>>> = inputs.iter().map(|x| mat_vec(&matrix, x)).collect();
            let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
            let mut engine =
                AvccMatVec::<P25>::new(&matrix, config, KeyGenConfig::default(), &mut rng);

            let mut executor = ReshapingExecutor {
                inner: VirtualExecutor::new(ClusterProfile::uniform(12)),
                victim: 0,
                reshape,
            };
            let wired = engine
                .execute_batch(
                    &inputs,
                    &mut executor,
                    &ByzantineSpec::none(),
                    &mut StdRng::seed_from_u64(501),
                )
                .unwrap();
            assert_eq!(wired.outputs, oracle, "{case}");
            assert!(!wired.used_workers.contains(&0), "{case}");
            assert!(wired.detected_byzantine.is_empty(), "{case}");

            let honest = manual_outcomes(&engine, &inputs, &[]);
            let mut hostile = honest.clone();
            reshape.apply(&mut hostile[0].payload);
            let mut collect = |outcomes: &[WorkerOutcome<Vec<Vec<Fp<P25>>>>]| {
                engine
                    .collect_batch(
                        &inputs,
                        outcomes,
                        &NetworkModel::default(),
                        1.0,
                        &mut StdRng::seed_from_u64(502),
                    )
                    .unwrap()
            };
            let (direct, absent) = (collect(&hostile), collect(&honest[1..]));
            assert_eq!(direct.outputs, oracle, "{case}");
            assert_eq!(direct.used_workers, absent.used_workers, "{case}");
            assert_eq!(
                direct.detected_byzantine, absent.detected_byzantine,
                "{case}"
            );
            assert_eq!(direct.ops, absent.ops, "{case}");
        }
    }
}

/// Runs `collect_batch` (screen off, so the σ-combined Freivalds check is
/// all that stands between worker 0 and the decoder) once for **every**
/// `σ ∈ F_251`, by scanning rng seeds until each value has been the
/// collect's first draw. Worker 0 arrives first with `corrupted` functions
/// wrong. Returns the σ values whose combined check accepted it.
fn sigmas_accepting_worker_zero(functions: usize, corrupted: &[usize], seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let matrix = random_matrix::<P251>(&mut rng, 18, 6);
    let inputs = random_inputs::<P251>(&mut rng, functions, 6);
    let oracle: Vec<Vec<Fp<P251>>> = inputs.iter().map(|x| mat_vec(&matrix, x)).collect();
    let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
    let mut engine = AvccMatVec::<P251>::new(&matrix, config, KeyGenConfig::default(), &mut rng)
        .with_screening(false);
    let corruptions: Vec<(usize, usize)> = corrupted.iter().map(|&j| (0, j)).collect();
    let outcomes = manual_outcomes(&engine, &inputs, &corruptions);

    let mut accepted = Vec::new();
    let mut seen = [false; 251];
    for collect_seed in 0u64.. {
        if seen.iter().all(|&s| s) {
            break;
        }
        // With m > 1 and the screen off, σ is the collect's first draw.
        let sigma: Fp<P251> = avcc_field::random_element(&mut StdRng::seed_from_u64(collect_seed));
        if std::mem::replace(&mut seen[sigma.value() as usize], true) {
            continue;
        }
        let batch = engine
            .collect_batch(
                &inputs,
                &outcomes,
                &NetworkModel::default(),
                1.0,
                &mut StdRng::seed_from_u64(collect_seed),
            )
            .unwrap();
        if batch.used_workers.contains(&0) {
            // A false accept: the corrupted claims went into the decode.
            assert!(batch.detected_byzantine.is_empty(), "σ = {sigma:?}");
            assert_ne!(batch.outputs, oracle, "σ = {sigma:?}");
            accepted.push(sigma.value());
        } else {
            // Rejected: the per-function fallback names exactly what was
            // corrupted, and the round decodes from the honest rest.
            assert_eq!(batch.detected_byzantine, vec![0], "σ = {sigma:?}");
            assert_eq!(batch.corrupted_functions, corrupted, "σ = {sigma:?}");
            assert_eq!(batch.outputs, oracle, "σ = {sigma:?}");
        }
    }
    accepted
}

/// The batched-Freivalds bound where it is observable (Kim–Kruglik–Kiah):
/// the combined check accepts a wrong claim only at the roots of
/// `σ ↦ Σ_j σ^j (r·e_j)`, a nonzero polynomial of degree `≤ m − 1` — so at
/// most `m − 1` of the 251 possible σ, counted exhaustively. On the 25-bit
/// and 64-bit fields the same bound is `(m − 1)/q ≈ 0`; `F_251` is where a
/// violation would show.
#[test]
fn batched_check_accepts_a_wrong_claim_for_at_most_m_minus_one_sigmas() {
    for (functions, corrupted, seed) in [
        (3usize, &[1usize][..], 610u64),
        (4, &[1, 3], 611),
        (5, &[0, 2, 4], 612),
        (8, &[7], 613),
    ] {
        let accepted = sigmas_accepting_worker_zero(functions, corrupted, seed);
        assert!(
            accepted.len() < functions,
            "m = {functions}: σ ∈ {accepted:?} all accepted a wrong claim"
        );
    }
}

/// The bound is tight, not vacuous: with `m = 2` and both functions wrong
/// the polynomial `(r·e_0) + σ (r·e_1)` has exactly one root, the scan finds
/// it, and at that σ the master decodes a wrong product without noticing.
#[test]
fn two_wrong_functions_have_exactly_one_accepting_sigma() {
    let accepted = sigmas_accepting_worker_zero(2, &[0, 1], 620);
    assert_eq!(accepted.len(), 1);
    assert_ne!(accepted[0], 0, "both functions are wrong, so σ = 0 rejects");
}

#[test]
fn empty_arrivals_fail_loudly() {
    let mut rng = StdRng::seed_from_u64(123);
    let matrix = random_matrix::<P25>(&mut rng, 18, 6);
    let inputs = random_inputs::<P25>(&mut rng, 2, 6);
    let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
    let mut engine = AvccMatVec::<P25>::new(&matrix, config, KeyGenConfig::default(), &mut rng);
    let mut collect_rng = StdRng::seed_from_u64(124);
    let result = engine.collect_batch(
        &inputs,
        &[],
        &NetworkModel::default(),
        1.0,
        &mut collect_rng,
    );
    assert!(matches!(
        result,
        Err(avcc_core::SchemeFailure::NotEnoughResults {
            available: 0,
            required: 9
        })
    ));
}

#[test]
fn a_batch_of_one_reproduces_the_recorded_single_function_round() {
    // Fixed arrivals: worker `w` arrives `w`-th, worker 1 corrupts its first
    // element, worker 7 computes 50× slower. Each row is what the dedicated
    // single-function `collect` of that engine reported, recorded at the
    // commit that still had one: (engine, used workers, detected, screened,
    // (worker, verify, decode) MACs, the caller's rng's next draw). The LCC
    // row's draw was re-recorded when its error locator became the
    // dual-codeword screen, which draws a different number of values.
    type Workers = &'static [usize];
    type Recorded = (&'static str, Workers, Workers, Workers, [u64; 3], u64);
    const VERIFIED: Workers = &[0, 2, 3, 4, 5, 6, 7, 8, 9];
    const WAITED_FOR: Workers = &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
    const EVERYONE: Workers = &[0, 1, 2, 3, 4, 5, 6, 7, 8];
    const UNTOUCHED: u64 = 7086638178683056257; // first draw of seed 77
    #[rustfmt::skip]
    let recorded: [Recorded; 4] = [
        ("avcc",             VERIFIED,   &[1], &[1], [12, 249, 162], 8159428425992391467),
        ("avcc, screen off", VERIFIED,   &[1], &[],  [12, 80, 162],  UNTOUCHED),
        ("lcc",              WAITED_FOR, &[1], &[],  [12, 0, 319],   7691228355860892142),
        ("uncoded",          EVERYONE,   &[],  &[],  [12, 0, 0],     UNTOUCHED),
    ];

    let mut rng = StdRng::seed_from_u64(2024);
    let matrix = random_matrix::<P25>(&mut rng, 18, 6);
    let input: Vec<Fp<P25>> = avcc_field::random_vector(&mut rng, 6);
    let oracle = mat_vec(&matrix, &input);
    let avcc = SchemeConfig::linear(12, 9, 2, 1).unwrap();
    let lcc = SchemeConfig::linear(12, 9, 1, 1).unwrap();
    let keys = KeyGenConfig::default();
    let mut engines: Vec<Box<dyn MatVecEngine<P25>>> = vec![
        Box::new(AvccMatVec::new(&matrix, avcc, keys, &mut rng)),
        Box::new(AvccMatVec::new(&matrix, avcc, keys, &mut rng).with_screening(false)),
        Box::new(LccMatVec::new(&matrix, lcc, &mut rng)),
        Box::new(UncodedMatVec::new(&matrix, 9)),
    ];
    for (engine, (name, used, detected, screened, macs, next_draw)) in
        engines.iter_mut().zip(recorded)
    {
        let inputs = std::slice::from_ref(&input);
        let outcomes: Vec<WorkerOutcome<Vec<Vec<Fp<P25>>>>> = engine
            .dispatch_batch(inputs)
            .iter()
            .map(|task| {
                let mut payload = task.run();
                if task.worker == 1 {
                    payload[0][0] += Fp::<P25>::ONE;
                }
                WorkerOutcome {
                    worker: task.worker,
                    payload,
                    compute_seconds: if task.worker == 7 { 0.05 } else { 0.001 },
                    network_seconds: 0.0001,
                    arrival_seconds: 0.001 * (task.worker + 1) as f64,
                    corrupted: task.worker == 1,
                }
            })
            .collect();
        let mut collect_rng = StdRng::seed_from_u64(77);
        let network = NetworkModel::default();
        let round = engine
            .collect_batch(inputs, &outcomes, &network, 1.0, &mut collect_rng)
            .unwrap();
        // Every protected scheme decodes the exact product; the uncoded
        // baseline lets worker 1's corruption through, at its block's start.
        let mut expected = oracle.clone();
        if name == "uncoded" {
            expected[2] += Fp::<P25>::ONE;
        }
        assert_eq!(round.outputs, [expected], "{name}: output");
        assert_eq!(round.used_workers, used, "{name}: used");
        assert_eq!(round.detected_byzantine, detected, "{name}: detected");
        assert_eq!(round.screened_workers, screened, "{name}: screened");
        assert_eq!(round.observed_stragglers, [7], "{name}: stragglers");
        let ops = round.ops;
        let ops = [ops.worker_macs, ops.verify_macs, ops.decode_macs];
        assert_eq!(ops, macs, "{name}: op counts");
        assert_eq!(collect_rng.next_u64(), next_draw, "{name}: rng");
    }
}
