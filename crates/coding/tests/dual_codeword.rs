//! Property tests for the SCRAPE-style dual-codeword screen: honest rounds
//! always pass on every modulus, with and without pads (including boundary
//! values next to the modulus), corrupted rounds are rejected and localized
//! exactly, and the escape rate of a single corrupted symbol meets the
//! documented Schwartz–Zippel bound `(1/q)^k` on the tiny `q = 251` field —
//! exactly, over every dual polynomial, and empirically over random ones.

use avcc_coding::points::EvaluationPoints;
use avcc_coding::{DualCodeword, SchemeConfig, ScreenError, ScreenOutcome};
use avcc_field::{random_vector, Fp, PrimeModulus, P25, P251, P64};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Evaluates `poly` (coefficients ascending) at `x`.
fn horner<M: PrimeModulus>(poly: &[Fp<M>], x: Fp<M>) -> Fp<M> {
    let mut value = Fp::<M>::ZERO;
    for &coefficient in poly.iter().rev() {
        value = value * x + coefficient;
    }
    value
}

/// An honest round: `width` independent random polynomials of degree below
/// the recovery threshold, evaluated at every worker α-point — exactly the
/// shape of worker results in a linear AVCC round.
fn honest_round<M: PrimeModulus>(
    config: SchemeConfig,
    width: usize,
    seed: u64,
) -> Vec<(usize, Vec<Fp<M>>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let threshold = config.recovery_threshold();
    let polys: Vec<Vec<Fp<M>>> = (0..width)
        .map(|_| random_vector(&mut rng, threshold))
        .collect();
    evaluate_round(config, &polys)
}

/// A round whose polynomial coefficients sit at the field boundary
/// (`q − 1`, `q − 2`, …): the hardest values for lazy-reduction arithmetic.
fn boundary_round<M: PrimeModulus>(config: SchemeConfig, width: usize) -> Vec<(usize, Vec<Fp<M>>)> {
    let threshold = config.recovery_threshold();
    let polys: Vec<Vec<Fp<M>>> = (0..width)
        .map(|c| {
            (0..threshold)
                .map(|k| Fp::<M>::new(M::MODULUS - 1 - ((c + k) as u64 % 3)))
                .collect()
        })
        .collect();
    evaluate_round(config, &polys)
}

fn evaluate_round<M: PrimeModulus>(
    config: SchemeConfig,
    polys: &[Vec<Fp<M>>],
) -> Vec<(usize, Vec<Fp<M>>)> {
    let points =
        EvaluationPoints::<M>::standard(config.partitions, config.colluding, config.workers);
    points
        .alpha()
        .iter()
        .enumerate()
        .map(|(worker, &alpha)| {
            let vector = polys.iter().map(|poly| horner(poly, alpha)).collect();
            (worker, vector)
        })
        .collect()
}

/// Honest rounds pass with every responder subset large enough to screen.
fn assert_honest_passes<M: PrimeModulus>(config: SchemeConfig, seed: u64) {
    let screen = DualCodeword::<M>::new(config);
    let threshold = config.recovery_threshold();
    let round = honest_round::<M>(config, 5, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    for responders in (threshold + 1)..=config.workers {
        let subset = round[config.workers - responders..].to_vec();
        let report = screen.screen(&subset, 2, &mut rng).expect("screenable");
        assert_eq!(
            report.outcome,
            ScreenOutcome::Clean,
            "honest round must pass with {responders} responders (modulus {})",
            M::MODULUS
        );
    }
}

#[test]
fn honest_rounds_pass_on_every_modulus() {
    assert_honest_passes::<P25>(SchemeConfig::linear(12, 9, 2, 1).unwrap(), 1);
    assert_honest_passes::<P251>(SchemeConfig::linear(10, 4, 2, 2).unwrap(), 3);
    // The systematic Goldilocks layout, from all 16 responders down to
    // threshold + 1.
    assert!(EvaluationPoints::<P64>::standard(8, 0, 16).is_systematic(8));
    assert_honest_passes::<P64>(SchemeConfig::linear(16, 8, 4, 2).unwrap(), 4);
    // Privacy pads shift the threshold; the screen must follow it.
    assert_honest_passes::<P64>(SchemeConfig::new(16, 6, 2, 2, 2, 1).unwrap(), 5);
}

#[test]
fn boundary_values_near_the_modulus_pass() {
    let mut rng = StdRng::seed_from_u64(99);
    macro_rules! check {
        ($modulus:ty, $config:expr) => {
            let config = $config;
            let screen = DualCodeword::<$modulus>::new(config);
            let round = boundary_round::<$modulus>(config, 3);
            let report = screen.screen(&round, 2, &mut rng).expect("screenable");
            assert_eq!(report.outcome, ScreenOutcome::Clean);
        };
    }
    check!(P25, SchemeConfig::linear(12, 9, 2, 1).unwrap());
    check!(P64, SchemeConfig::linear(16, 8, 4, 2).unwrap());
    check!(P251, SchemeConfig::linear(10, 4, 2, 2).unwrap());
}

#[test]
fn single_corruption_is_rejected_and_localized() {
    let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
    let screen = DualCodeword::<P25>::new(config);
    let mut rng = StdRng::seed_from_u64(7);
    for victim in 0..config.workers {
        let mut round = honest_round::<P25>(config, 5, 40 + victim as u64);
        round[victim].1[3] += Fp::<P25>::new(1);
        let report = screen.screen(&round, 1, &mut rng).expect("screenable");
        assert_eq!(
            report.outcome,
            ScreenOutcome::Corrupted {
                workers: vec![victim]
            },
            "single corrupted symbol at worker {victim} must be localized"
        );
    }
}

#[test]
fn multiple_corruptions_are_localized_exactly_up_to_the_budget() {
    // ν = 16 − 8 = 8 responders of redundancy → up to 4 locatable errors.
    let config = SchemeConfig::linear(16, 8, 4, 2).unwrap();
    let screen = DualCodeword::<P64>::new(config);
    assert_eq!(screen.max_locatable(16), 4);
    let mut rng = StdRng::seed_from_u64(11);
    for planted in [vec![0], vec![3, 9], vec![1, 7, 14], vec![2, 5, 8, 15]] {
        let mut round = honest_round::<P64>(config, 6, 60 + planted.len() as u64);
        for (offset, &victim) in planted.iter().enumerate() {
            for (c, value) in round[victim].1.iter_mut().enumerate() {
                *value += Fp::<P64>::new((offset + c) as u64 * 31 + 1);
            }
        }
        let report = screen.screen(&round, 1, &mut rng).expect("screenable");
        assert_eq!(
            report.outcome,
            ScreenOutcome::Corrupted {
                workers: planted.clone()
            },
            "planted set {planted:?} must be localized exactly"
        );
    }
}

#[test]
fn identical_colluding_corruption_is_still_localized() {
    let config = SchemeConfig::linear(16, 8, 4, 2).unwrap();
    let screen = DualCodeword::<P64>::new(config);
    let mut round = honest_round::<P64>(config, 4, 77);
    // Two colluders send the *same* wrong vector — coordinated corruption.
    let forged: Vec<Fp<P64>> = (0..4).map(|c| Fp::<P64>::new(c as u64 + 5)).collect();
    round[4].1 = forged.clone();
    round[10].1 = forged;
    let mut rng = StdRng::seed_from_u64(78);
    let report = screen.screen(&round, 1, &mut rng).expect("screenable");
    assert_eq!(
        report.outcome,
        ScreenOutcome::Corrupted {
            workers: vec![4, 10]
        }
    );
}

#[test]
fn threshold_plus_one_detects_but_cannot_localize() {
    let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
    let screen = DualCodeword::<P25>::new(config);
    assert_eq!(screen.max_locatable(10), 0);
    let mut round = honest_round::<P25>(config, 3, 13);
    round.truncate(10); // threshold 9 + 1: ν = 1, detection only.
    round[2].1[0] += Fp::<P25>::new(9);
    let mut rng = StdRng::seed_from_u64(14);
    let report = screen.screen(&round, 1, &mut rng).expect("screenable");
    assert_eq!(report.outcome, ScreenOutcome::Unlocalized);
}

#[test]
fn malformed_rounds_are_rejected() {
    let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
    let screen = DualCodeword::<P25>::new(config);
    let round = honest_round::<P25>(config, 3, 21);
    let mut rng = StdRng::seed_from_u64(22);

    // Exactly threshold responders: no dual redundancy.
    let too_few = round[..9].to_vec();
    assert_eq!(
        screen.screen(&too_few, 1, &mut rng),
        Err(ScreenError::NotScreenable {
            responders: 9,
            required: 10
        })
    );
    assert!(!screen.screenable(9));
    assert!(screen.screenable(10));

    let mut duplicated = round.clone();
    duplicated[1] = duplicated[0].clone();
    assert_eq!(
        screen.screen(&duplicated, 1, &mut rng),
        Err(ScreenError::DuplicateWorker { worker: 0 })
    );

    let mut unknown = round.clone();
    unknown[0].0 = 99;
    assert_eq!(
        screen.screen(&unknown, 1, &mut rng),
        Err(ScreenError::UnknownWorker { worker: 99 })
    );

    let mut ragged = round.clone();
    ragged[2].1.pop();
    assert_eq!(
        screen.screen(&ragged, 1, &mut rng),
        Err(ScreenError::ShapeMismatch)
    );

    assert_eq!(
        screen.screen(&[], 1, &mut rng),
        Err(ScreenError::EmptyRound)
    );
}

#[test]
fn arrival_order_does_not_change_the_report() {
    let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
    let screen = DualCodeword::<P25>::new(config);
    let round = honest_round::<P25>(config, 3, 31);
    let subset = round[1..].to_vec();
    let report = screen
        .screen(&subset, 1, &mut StdRng::seed_from_u64(32))
        .unwrap();
    assert_eq!(report.outcome, ScreenOutcome::Clean);
    let mut shuffled = subset.clone();
    shuffled.reverse();
    let reordered = screen
        .screen(&shuffled, 1, &mut StdRng::seed_from_u64(32))
        .unwrap();
    assert_eq!(reordered, report);
    // A clone is the same screen.
    let cloned = screen
        .clone()
        .screen(&subset, 1, &mut StdRng::seed_from_u64(32))
        .unwrap();
    assert_eq!(cloned, report);
}

/// The Schwartz–Zippel escape bound, measured: on `q = 251` a single
/// corrupted symbol escapes one dual vector iff `Q(α_victim) = 0`, i.e. with
/// probability `1/251 ≈ 0.4%`. Two independent vectors square the bound
/// (`1/63001`), which over these trials means zero escapes.
#[test]
fn empirical_escape_rate_respects_the_schwartz_zippel_bound() {
    let config = SchemeConfig::linear(10, 4, 2, 2).unwrap();
    let screen = DualCodeword::<P251>::new(config);
    let round = honest_round::<P251>(config, 3, 51);
    let mut rng = StdRng::seed_from_u64(52);
    let trials = 2000usize;
    let mut single_vector_escapes = 0usize;
    let mut double_vector_escapes = 0usize;
    for trial in 0..trials {
        let mut corrupted = round.clone();
        let victim = trial % config.workers;
        let delta = Fp::<P251>::new(rng.gen_range(1..251u64));
        corrupted[victim].1[trial % 3] += delta;
        let single = screen.screen(&corrupted, 1, &mut rng).unwrap();
        if single.outcome == ScreenOutcome::Clean {
            single_vector_escapes += 1;
        }
        let double = screen.screen(&corrupted, 2, &mut rng).unwrap();
        if double.outcome == ScreenOutcome::Clean {
            double_vector_escapes += 1;
        }
    }
    let escape_rate = single_vector_escapes as f64 / trials as f64;
    // Expected 1/251 ≈ 0.004; 2% is a generous deterministic-seed margin.
    assert!(
        escape_rate <= 0.02,
        "single-vector escape rate {escape_rate} exceeds the 1/q envelope"
    );
    assert_eq!(
        double_vector_escapes, 0,
        "two dual vectors must catch every corruption at (1/q)² odds"
    );
}

/// An [`RngCore`] double that replays scripted field elements of `F₂₅₁`:
/// the `k`-th `random_element` draw returns `values[k]` (the generator word
/// `⌈v·2⁶⁴/q⌉` is what `gen_range(0..q)`'s multiply-shift maps back to `v`).
/// Drawing past the script panics, so a test also pins *how many* elements
/// the screen consumes.
struct Scripted {
    values: Vec<u64>,
    drawn: usize,
}

impl Scripted {
    fn new(values: &[u64]) -> Self {
        Scripted {
            values: values.to_vec(),
            drawn: 0,
        }
    }
}

impl RngCore for Scripted {
    fn next_u64(&mut self) -> u64 {
        let value = self.values[self.drawn];
        self.drawn += 1;
        ((value as u128) << 64).div_ceil(P251::MODULUS as u128) as u64
    }
}

/// The escape bound where it is observable: over `F₂₅₁`, with one corrupted
/// responder `c` and one dual vector, the screen is driven through *every*
/// dual polynomial `Q` of degree `< ν`. Exactly the `q^{ν−1}` choices with
/// `Q(α_c) = 0` report `Clean` — the `1/q` bound is tight, not vacuous — and
/// every other choice reports the corruption: localized when `⌊ν/2⌋ ≥ 1`,
/// `Unlocalized` when `ν = 1`.
#[test]
fn exhaustive_dual_polynomials_escape_exactly_one_in_q() {
    const Q: u64 = P251::MODULUS;
    for value in 0..Q {
        let drawn: Fp<P251> = avcc_field::random_element(&mut Scripted::new(&[value]));
        assert_eq!(drawn, Fp::new(value), "the script must replay {value}");
    }

    let config = SchemeConfig::linear(4, 2, 1, 1).unwrap();
    assert_eq!(config.recovery_threshold(), 2);
    let screen = DualCodeword::<P251>::new(config);
    let alpha =
        EvaluationPoints::<P251>::standard(config.partitions, config.colluding, config.workers)
            .alpha()
            .to_vec();
    let honest = honest_round::<P251>(config, 2, 71);

    // ν = 1: three responders, Q = q₀. No localization draws at all.
    for victim in 0..3 {
        let mut round = honest[..3].to_vec();
        round[victim].1[0] += Fp::new(17);
        let mut clean = 0u64;
        for q0 in 0..Q {
            let mut rng = Scripted::new(&[q0]);
            let report = screen.screen(&round, 1, &mut rng).unwrap();
            assert_eq!(rng.drawn, 1);
            if q0 == 0 {
                assert_eq!(report.outcome, ScreenOutcome::Clean);
                clean += 1;
            } else {
                assert_eq!(report.outcome, ScreenOutcome::Unlocalized, "q0 = {q0}");
            }
        }
        assert_eq!(clean, 1, "ν = 1: q⁰ escaping choices (victim {victim})");
    }

    // ν = 2: all four respond, Q = q₀ + q₁·z. The fingerprint ρ = (1, 0) is
    // scripted non-colliding (the corruption sits in coordinate 0), and the
    // last scripted element feeds the validation re-screen of the other three.
    let victim = 2;
    let mut round = honest.clone();
    round[victim].1[0] += Fp::new(17);
    let mut clean = 0u64;
    for q0 in 0..Q {
        for q1 in 0..Q {
            let mut rng = Scripted::new(&[q0, q1, 1, 0, 1]);
            let report = screen.screen(&round, 1, &mut rng).unwrap();
            let escapes = horner(&[Fp::new(q0), Fp::new(q1)], alpha[victim]) == Fp::new(0);
            if escapes {
                assert_eq!(report.outcome, ScreenOutcome::Clean, "Q = {q0} + {q1}z");
                assert_eq!(rng.drawn, 2);
                clean += 1;
            } else {
                assert_eq!(
                    report.outcome,
                    ScreenOutcome::Corrupted {
                        workers: vec![victim]
                    },
                    "Q = {q0} + {q1}z"
                );
                assert_eq!(rng.drawn, 5);
            }
        }
    }
    assert_eq!(clean, Q, "ν = 2: q¹ escaping choices");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Honest rounds pass for any responder subset.
    #[test]
    fn prop_honest_rounds_always_pass(seed in any::<u64>(), drop in 0usize..2) {
        let config = SchemeConfig::linear(12, 9, 2, 1).unwrap();
        let screen = DualCodeword::<P25>::new(config);
        let round = honest_round::<P25>(config, 4, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xf00d);
        let report = screen.screen(&round[drop..], 2, &mut rng).unwrap();
        prop_assert_eq!(report.outcome, ScreenOutcome::Clean);
    }

    /// Any single corrupted symbol is rejected and localized exactly, on the
    /// Goldilocks field, for any victim and any screened subset.
    #[test]
    fn prop_single_corruption_localized_on_goldilocks(
        seed in any::<u64>(),
        victim in 0usize..16,
        drop in 0usize..3,
    ) {
        let config = SchemeConfig::linear(16, 8, 4, 2).unwrap();
        let screen = DualCodeword::<P64>::new(config);
        let mut round = honest_round::<P64>(config, 4, seed);
        round[victim].1[1] += Fp::<P64>::new(seed % 1000 + 1);
        // Keep the victim in the screened subset.
        let subset: Vec<_> = round
            .iter()
            .enumerate()
            .filter(|(w, _)| *w == victim || *w >= drop)
            .map(|(_, entry)| entry.clone())
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
        let report = screen.screen(&subset, 1, &mut rng).unwrap();
        prop_assert_eq!(
            report.outcome,
            ScreenOutcome::Corrupted { workers: vec![victim] }
        );
    }
}
