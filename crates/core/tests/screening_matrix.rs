//! The adversarial screening matrix: scheme × attack × straggler count.
//!
//! Every cell plants a known Byzantine set mounting one of the five attack
//! models (None / ReverseValue / Constant / SparseFlip / Colluding), drops a
//! known straggler set, and asserts three things:
//!
//! 1. **Soundness + completeness of the screen**: the standalone
//!    [`DualCodeword`] check reports `Clean` exactly on attack-free rounds
//!    and localizes the planted Byzantine set *exactly* otherwise.
//! 2. **Bit-identical output**: the AVCC engine's screened collect decodes
//!    the same product, bit for bit, as the detect-and-redecode oracle
//!    (Berlekamp–Welch [`decode_with_errors`] over the same corrupted
//!    claims) — and both equal the plain `mat_vec` oracle.
//! 3. **Oracle agreement on localization**: the worker sets identified by
//!    the screen, the engine, and the error decoder all match the planted
//!    set.
//!
//! [`decode_with_errors`]: avcc_coding::LagrangeDecoder::decode_with_errors

use std::sync::Arc;

use avcc_coding::{DualCodeword, EncodedDataset, SchemeConfig, ScreenOutcome};
use avcc_core::{AvccMatVec, MatVecEngine};
use avcc_field::{Fp, PrimeModulus, P25, P251, P64};
use avcc_linalg::{mat_vec, Matrix};
use avcc_sim::attack::{AttackModel, ByzantineSpec};
use avcc_sim::executor::WorkerOutcome;
use avcc_sim::NetworkModel;
use avcc_verify::KeyGenConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The five attack models of the matrix, paired with how many workers mount
/// each (clamped to the scheme's Byzantine budget per cell).
fn attack_rows() -> Vec<(AttackModel, usize)> {
    vec![
        (AttackModel::None, 0),
        (AttackModel::reverse(), 3),
        (AttackModel::constant(), 3),
        // Sparse corruption is the hardest screening case: only two symbols
        // of each Byzantine block differ from the honest value.
        (AttackModel::sparse_flip(2), 3),
        // Colluders transmit *identical* forged blocks.
        (AttackModel::colluding(2), 2),
    ]
}

/// Runs the engine's dispatched tasks honestly, applies the attack
/// master-side (exactly as the executors do), and drops the straggler set.
/// Outcomes arrive in worker order.
fn manual_outcomes<M: PrimeModulus>(
    engine: &AvccMatVec<M>,
    input: &[Fp<M>],
    byzantine: &ByzantineSpec,
    stragglers: &[usize],
) -> Vec<WorkerOutcome<Vec<Fp<M>>>> {
    engine
        .dispatch(input)
        .iter()
        .filter(|task| !stragglers.contains(&task.worker))
        .map(|task| {
            let worker = task.worker;
            let mut payload = task.run();
            let corrupted = byzantine.corrupt(worker, &mut payload);
            WorkerOutcome {
                worker,
                payload,
                compute_seconds: 0.001,
                network_seconds: 0.0001,
                arrival_seconds: 0.001 * (worker + 1) as f64,
                corrupted,
            }
        })
        .collect()
}

/// One cell of the matrix: plant `byzantine` workers mounting `attack`,
/// drop `straggler_count` workers, and check screen, engine and oracle
/// against each other.
fn run_cell<M: PrimeModulus>(
    config: SchemeConfig,
    attack: AttackModel,
    byzantine_count: usize,
    straggler_count: usize,
    seed: u64,
) {
    let workers = config.workers;
    let threshold = config.recovery_threshold();
    // Straggle from the top, plant Byzantine workers low — disjoint sets.
    let stragglers: Vec<usize> = (workers - straggler_count..workers).collect();
    let planted: Vec<usize> = [1usize, 7, 12]
        .into_iter()
        .take(byzantine_count.min(config.byzantine))
        .collect();
    let responders = workers - straggler_count;
    assert!(
        planted.len() <= (responders - threshold) / 2,
        "cell must stay within the screen's localization capacity"
    );

    let mut rng = StdRng::seed_from_u64(seed);
    let rows = 3 * config.partitions;
    let cols = 6;
    let matrix = Matrix::from_vec(rows, cols, avcc_field::random_matrix(&mut rng, rows, cols));
    let input: Vec<Fp<M>> = avcc_field::random_vector(&mut rng, cols);
    let oracle_product = mat_vec(&matrix, &input);

    let dataset = Arc::new(EncodedDataset::<M>::encode(&matrix, config, &mut rng));
    let mut engine = AvccMatVec::over(Arc::clone(&dataset), KeyGenConfig::default(), &mut rng);
    let spec = ByzantineSpec::new(planted.iter().copied(), attack);
    let outcomes = manual_outcomes(&engine, &input, &spec, &stragglers);
    let claims: Vec<(usize, Vec<Fp<M>>)> = outcomes
        .iter()
        .map(|o| (o.worker, o.payload.clone()))
        .collect();

    // (1) The standalone screen: Clean on honest rounds, exact localization
    // of the planted set otherwise.
    let screen = DualCodeword::<M>::new(config);
    let mut screen_rng = StdRng::seed_from_u64(seed ^ 0x5c4ee);
    let report = screen.screen(&claims, 2, &mut screen_rng).unwrap();
    let expect_corruption = !matches!(attack, AttackModel::None) && !planted.is_empty();
    match report.outcome {
        ScreenOutcome::Clean => assert!(
            !expect_corruption,
            "screen missed the planted set {planted:?} under {attack:?}"
        ),
        ScreenOutcome::Corrupted { ref workers } => {
            assert!(expect_corruption, "false positive on an honest round");
            assert_eq!(
                workers, &planted,
                "screen must localize exactly the planted set under {attack:?}"
            );
        }
        ScreenOutcome::Unlocalized => panic!(
            "screen failed to localize {planted:?} under {attack:?} with \
             {responders} responders (threshold {threshold})"
        ),
    }

    // (2) The detect-and-redecode oracle: Berlekamp–Welch error decoding
    // over the same claims finds the same workers and the same product.
    let mut oracle_rng = StdRng::seed_from_u64(seed ^ 0x0c1e);
    let (blocks, error_positions) = dataset
        .decoder()
        .expect("AVCC dataset is coded")
        .decode_with_errors(&claims, planted.len(), &mut oracle_rng)
        .unwrap();
    let mut located = error_positions;
    located.sort_unstable();
    assert_eq!(located, planted, "oracle localization diverged");
    let redecoded: Vec<Fp<M>> = blocks.into_iter().flatten().collect();
    assert_eq!(redecoded, oracle_product, "oracle decode diverged");

    // (3) The engine's screened collect: bit-identical output, screened set
    // equal to the planted set, screened ⊆ detected.
    let mut collect_rng = StdRng::seed_from_u64(seed ^ 0xc011ec7);
    let execution = engine
        .collect(
            &input,
            &outcomes,
            &NetworkModel::default(),
            1.0,
            &mut collect_rng,
        )
        .unwrap();
    assert_eq!(
        execution.output, oracle_product,
        "screened decode must be bit-identical to the redecode oracle"
    );
    assert_eq!(
        execution.screened_workers, planted,
        "engine screening must evict exactly the planted set under {attack:?}"
    );
    assert!(execution
        .screened_workers
        .iter()
        .all(|w| execution.detected_byzantine.contains(w)));
    for evicted in &execution.screened_workers {
        assert!(
            !execution.used_workers.contains(evicted),
            "screened worker {evicted} must not feed the decoder"
        );
    }
}

/// The full matrix for one modulus: two schemes (a plain MDS-style config
/// and a privacy-padded one) × five attacks × three straggler counts.
fn matrix_for_modulus<M: PrimeModulus>(seed: u64) {
    // Plain config: N=16, K=8, S=2, M=3 — threshold 8, so up to
    // (14 − 8)/2 = 3 localizable errors even with both stragglers out.
    let plain = SchemeConfig::linear(16, 8, 2, 3).unwrap();
    // Privacy-padded config: T=2 random pads, threshold (6+2−1)+1 = 8,
    // Byzantine budget M=2.
    let padded = SchemeConfig::new(16, 6, 2, 2, 2, 1).unwrap();
    for config in [plain, padded] {
        for (attack, byzantine_count) in attack_rows() {
            for straggler_count in 0..=2usize {
                run_cell::<M>(config, attack, byzantine_count, straggler_count, seed);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn screening_matrix_holds_across_moduli(seed in 0u64..1000) {
        matrix_for_modulus::<P25>(seed);
        // P64 puts the points in subgroup position (the NTT encode and
        // subproduct-tree decode paths).
        matrix_for_modulus::<P64>(seed);
    }
}

/// An attack the screen provably cannot see: when *every* responder sends
/// the same constant vector, the claims form a valid (constant-polynomial)
/// codeword, so the screen reports `Clean` — and the engine's Freivalds
/// backstop is what rejects the round. Belt and suspenders, by design.
#[test]
fn all_worker_constant_attack_passes_screen_but_fails_freivalds() {
    let config = SchemeConfig::linear(16, 8, 2, 3).unwrap();
    let mut rng = StdRng::seed_from_u64(41);
    let matrix = Matrix::from_vec(24, 6, avcc_field::random_matrix(&mut rng, 24, 6));
    let input: Vec<Fp<P25>> = avcc_field::random_vector(&mut rng, 6);
    let dataset = Arc::new(EncodedDataset::<P25>::encode(&matrix, config, &mut rng));
    let mut engine = AvccMatVec::over(Arc::clone(&dataset), KeyGenConfig::default(), &mut rng);

    let spec = ByzantineSpec::new(0..16, AttackModel::constant());
    let outcomes = manual_outcomes(&engine, &input, &spec, &[]);
    let claims: Vec<(usize, Vec<Fp<P25>>)> = outcomes
        .iter()
        .map(|o| (o.worker, o.payload.clone()))
        .collect();

    let screen = DualCodeword::<P25>::new(config);
    let report = screen.screen(&claims, 2, &mut rng).unwrap();
    assert_eq!(report.outcome, ScreenOutcome::Clean);

    let result = engine.collect(&input, &outcomes, &NetworkModel::default(), 1.0, &mut rng);
    assert!(matches!(
        result,
        Err(avcc_core::SchemeFailure::NotEnoughResults { .. })
    ));
}

/// The other half of belt-and-suspenders, on the field where the screen's
/// `1/q` escape is reachable: for a dual polynomial `Q` with `Q(α_c) = 0`
/// (found by scanning collect seeds — with `m = 1` the screen's `ν`
/// coefficients are the first draws) the screen reports `Clean` on a round
/// with worker `c` corrupted, and the engine still names `c` through its
/// Freivalds key and decodes the exact product from the others.
#[test]
fn screen_escape_is_caught_by_freivalds_and_decodes_exactly() {
    let config = SchemeConfig::linear(4, 2, 1, 1).unwrap();
    let mut rng = StdRng::seed_from_u64(43);
    let matrix = Matrix::from_vec(4, 3, avcc_field::random_matrix(&mut rng, 4, 3));
    let input: Vec<Fp<P251>> = avcc_field::random_vector(&mut rng, 3);
    let product = mat_vec(&matrix, &input);
    let mut engine = AvccMatVec::<P251>::new(&matrix, config, KeyGenConfig::default(), &mut rng);
    let victim = 1;
    let alpha_victim = avcc_coding::points::EvaluationPoints::<P251>::auto(
        config.partitions,
        config.colluding,
        config.workers,
    )
    .alpha()[victim];
    let spec = ByzantineSpec::new([victim], AttackModel::reverse());

    // ν = 1 (worker 3 straggles) and ν = 2 (everyone responds).
    for stragglers in [vec![3], vec![]] {
        let outcomes = manual_outcomes(&engine, &input, &spec, &stragglers);
        assert!(
            outcomes[victim].corrupted,
            "the attack must change the payload"
        );
        let dual_dim = outcomes.len() - config.recovery_threshold();
        let escaping_seed = (0u64..)
            .find(|&seed| {
                let q: Vec<Fp<P251>> =
                    avcc_field::random_vector(&mut StdRng::seed_from_u64(seed), dual_dim);
                q.iter()
                    .rev()
                    .fold(Fp::new(0), |value, &c| value * alpha_victim + c)
                    == Fp::new(0)
            })
            .expect("one seed in q escapes");

        let claims: Vec<(usize, Vec<Fp<P251>>)> = outcomes
            .iter()
            .map(|o| (o.worker, o.payload.clone()))
            .collect();
        let report = DualCodeword::<P251>::new(config)
            .screen(&claims, 1, &mut StdRng::seed_from_u64(escaping_seed))
            .unwrap();
        assert_eq!(report.outcome, ScreenOutcome::Clean, "ν = {dual_dim}");

        let execution = engine
            .collect(
                &input,
                &outcomes,
                &NetworkModel::default(),
                1.0,
                &mut StdRng::seed_from_u64(escaping_seed),
            )
            .unwrap();
        assert!(execution.screened_workers.is_empty(), "ν = {dual_dim}");
        assert_eq!(execution.detected_byzantine, vec![victim], "ν = {dual_dim}");
        assert!(!execution.used_workers.contains(&victim));
        assert_eq!(execution.output, product, "ν = {dual_dim}");
    }
}
