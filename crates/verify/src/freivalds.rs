//! The Freivalds integrity check (paper §IV-A, step 3) and its soundness
//! accounting.
//!
//! The check itself is one dot product on each side of eq. (8) / eq. (9):
//! `s⁽¹⁾·w = r⁽¹⁾·z̃` for round 1 and `s⁽²⁾·e = r⁽²⁾·g̃` for round 2. A worker
//! that returns the correct product always passes; a worker that returns
//! anything else passes with probability at most `1/q` per key repetition
//! (eq. 10/11), because the difference vector is nonzero and a uniformly
//! random `r` is orthogonal to a fixed nonzero vector with probability `1/q`.
//!
//! A *power-structured* variant is also provided
//! ([`check_with_power_key`]): the secret vector is the power series
//! `r = (1, ρ, ρ², …)` of a single field element, cutting per-repetition key
//! storage from `rows(A)` elements to one. Expanding the series is a long
//! dependent product chain — exactly the shape the Montgomery route
//! ([`avcc_field::PrimeModulus::MONTGOMERY_CHAINS`]) accelerates — and the
//! soundness error grows only to `(rows − 1)/q` (Schwartz–Zippel on the
//! degree-`< rows` difference polynomial `Σ_i Δ_i ρ^i`).

use avcc_field::{dot, power_series, Fp, PrimeModulus};

use crate::keys::MatVecKey;

/// The outcome of a verification together with its cost, so the simulator can
/// charge verification time per worker exactly as Fig. 4 does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreivaldsCheck {
    /// `true` iff every repetition of the check passed.
    pub accepted: bool,
    /// Number of field multiply-accumulate operations performed.
    pub operations: usize,
}

/// Verifies a claimed matrix–vector product against a key. Equivalent to
/// [`MatVecKey::verify`] but also reports the operation count.
pub fn check_mat_vec<M: PrimeModulus>(
    key: &MatVecKey<M>,
    input: &[Fp<M>],
    claimed: &[Fp<M>],
) -> FreivaldsCheck {
    let accepted = key.verify(input, claimed);
    FreivaldsCheck {
        accepted,
        operations: key.verification_cost(),
    }
}

/// Verifies a claimed product with explicit `(r, s)` vectors — the raw form of
/// eq. (8): accepts iff `s·input = r·claimed`.
pub fn check_with_key_pair<M: PrimeModulus>(
    r: &[Fp<M>],
    s: &[Fp<M>],
    input: &[Fp<M>],
    claimed: &[Fp<M>],
) -> bool {
    dot(s, input) == dot(r, claimed)
}

/// Upper bound on the probability that a *wrong* result is accepted:
/// `q^{-repetitions}` (eq. 10/11 generalized to repeated keys).
pub fn soundness_error(modulus: u64, repetitions: u32) -> f64 {
    (1.0 / modulus as f64).powi(repetitions as i32)
}

/// Expands the power-structured secret `ρ` into the verification vector
/// `r = (1, ρ, ρ², …, ρ^{length−1})`.
///
/// This is one dependent product chain of `length − 1` multiplies; on
/// chain-routed moduli it runs through the Montgomery hybrid multiply (the
/// base is lifted once, every step's output is already canonical).
pub fn expand_power_key<M: PrimeModulus>(rho: Fp<M>, length: usize) -> Vec<Fp<M>> {
    power_series(rho, length)
}

/// Verifies a claimed product with a power-structured key: accepts iff
/// `s·input = r·claimed` for `r = (1, ρ, …)` expanded on the fly, where
/// `s = rᵀ·A` was precomputed at key-generation time from the same `ρ`.
///
/// Completeness is exact; the soundness error per repetition is at most
/// `(claimed.len() − 1)/q` (see [`power_key_soundness_error`]).
pub fn check_with_power_key<M: PrimeModulus>(
    rho: Fp<M>,
    s: &[Fp<M>],
    input: &[Fp<M>],
    claimed: &[Fp<M>],
) -> bool {
    let r = expand_power_key(rho, claimed.len());
    dot(s, input) == dot(&r, claimed)
}

/// Upper bound on the probability that a *wrong* result passes the
/// power-structured check: `((length − 1)/q)^repetitions` — the Schwartz–
/// Zippel bound for a nonzero polynomial of degree below `length` evaluated
/// at a uniformly random point.
pub fn power_key_soundness_error(modulus: u64, length: usize, repetitions: u32) -> f64 {
    ((length.saturating_sub(1)) as f64 / modulus as f64).powi(repetitions as i32)
}

/// Folds `m` same-length vectors into the random linear combination
/// `Σ_j σ^j · v_j` — the master-side half of the *batched* Freivalds check.
///
/// To verify `m` claimed products `y_j ≐ Ã·x_j` against one key, the master
/// draws a single scalar `σ`, combines the inputs into `x_c = Σ σ^j x_j`
/// (once, shared by every worker) and each worker's claims into
/// `y_c = Σ σ^j y_j`, and runs **one** check `verify(x_c, y_c)` — linearity
/// makes the combined claim correct whenever every individual claim is.
/// If any individual claim is wrong, the combined check still catches it
/// except with probability `(m − 1)/q` (Schwartz–Zippel on the degree-`< m`
/// polynomial `σ ↦ Σ_j Δ_j σ^j` per coordinate), on top of the key's own
/// soundness error — see [`batch_soundness_error`]. A failed combined check
/// is then localized by falling back to the `m` per-function checks.
///
/// # Panics
/// Panics if `vectors` is empty or the lengths disagree.
pub fn combine_with_powers<M: PrimeModulus>(sigma: Fp<M>, vectors: &[Vec<Fp<M>>]) -> Vec<Fp<M>> {
    assert!(!vectors.is_empty(), "cannot combine an empty batch");
    let length = vectors[0].len();
    let powers = power_series(sigma, vectors.len());
    let mut combined = vec![Fp::<M>::ZERO; length];
    for (power, vector) in powers.iter().zip(vectors) {
        assert_eq!(vector.len(), length, "batch vectors must share one length");
        for (acc, &value) in combined.iter_mut().zip(vector) {
            *acc += *power * value;
        }
    }
    combined
}

/// Upper bound on the probability that a batch of `functions` claimed
/// products containing at least one wrong result passes the batched check:
/// the `(functions − 1)/q` failure of the random power combination (the
/// wrong results may cancel in `Σ σ^j Δ_j`) plus the underlying key's own
/// soundness error at `repetitions` repetitions.
pub fn batch_soundness_error(modulus: u64, functions: usize, repetitions: u32) -> f64 {
    (functions.saturating_sub(1) as f64 / modulus as f64) + soundness_error(modulus, repetitions)
}

/// The paper's comparison of verification cost against recomputation: a
/// Freivalds check needs about `rows + cols` multiply-accumulates while
/// recomputing the product needs `rows · cols`; the ratio is the speedup of
/// verification over recomputation.
pub fn verification_speedup(rows: usize, cols: usize) -> f64 {
    (rows * cols) as f64 / (rows + cols) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyGenConfig;
    use avcc_field::{PrimeField, F25, F251, P251};
    use avcc_linalg::{mat_vec, Matrix};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn check_reports_cost_and_acceptance() {
        let mut rng = StdRng::seed_from_u64(1);
        let block = Matrix::from_vec(8, 5, avcc_field::random_matrix(&mut rng, 8, 5));
        let key = MatVecKey::generate(&block, KeyGenConfig::default(), &mut rng);
        let w: Vec<F25> = avcc_field::random_vector(&mut rng, 5);
        let z = mat_vec(&block, &w);
        let check = check_mat_vec(&key, &w, &z);
        assert!(check.accepted);
        assert_eq!(check.operations, 13);
        let mut corrupted = z;
        corrupted[0] += F25::ONE;
        assert!(!check_mat_vec(&key, &w, &corrupted).accepted);
    }

    #[test]
    fn raw_key_pair_check_matches_definition() {
        let mut rng = StdRng::seed_from_u64(2);
        let block = Matrix::from_vec(3, 3, avcc_field::random_matrix(&mut rng, 3, 3));
        let r: Vec<F25> = avcc_field::random_vector(&mut rng, 3);
        let s = avcc_linalg::matt_vec(&block, &r);
        let w: Vec<F25> = avcc_field::random_vector(&mut rng, 3);
        let z = mat_vec(&block, &w);
        assert!(check_with_key_pair(&r, &s, &w, &z));
        let wrong: Vec<F25> = z.iter().map(|&v| v + F25::ONE).collect();
        assert!(!check_with_key_pair(&r, &s, &w, &wrong));
    }

    #[test]
    fn soundness_error_matches_field_size() {
        assert!((soundness_error(33_554_393, 1) - 2.98e-8).abs() < 1e-9);
        let double = soundness_error(33_554_393, 2);
        assert!(double < 1e-15);
        assert_eq!(soundness_error(251, 1), 1.0 / 251.0);
    }

    #[test]
    fn power_key_accepts_correct_and_rejects_corrupted_results() {
        let mut rng = StdRng::seed_from_u64(4);
        let block = Matrix::from_vec(9, 5, avcc_field::random_matrix(&mut rng, 9, 5));
        let rho: F25 = avcc_field::random_element(&mut rng);
        // s = rᵀA for r = (1, ρ, ρ², …, ρ^{rows−1}).
        let r = expand_power_key(rho, block.rows());
        let s = avcc_linalg::matt_vec(&block, &r);
        for _ in 0..10 {
            let w: Vec<F25> = avcc_field::random_vector(&mut rng, 5);
            let z = mat_vec(&block, &w);
            assert!(check_with_power_key(rho, &s, &w, &z));
            let mut corrupted = z;
            corrupted[4] += F25::ONE;
            assert!(!check_with_power_key(rho, &s, &w, &corrupted));
        }
    }

    #[test]
    fn power_key_expansion_is_the_power_series() {
        let rho = F25::from_u64(7);
        let r = expand_power_key(rho, 5);
        assert_eq!(
            r,
            vec![
                F25::ONE,
                rho,
                rho * rho,
                rho * rho * rho,
                rho * rho * rho * rho
            ]
        );
    }

    #[test]
    fn power_key_soundness_error_is_schwartz_zippel() {
        assert_eq!(power_key_soundness_error(251, 1, 1), 0.0);
        assert_eq!(power_key_soundness_error(251, 252, 1), 1.0);
        let single = power_key_soundness_error(33_554_393, 667, 1);
        assert!((single - 666.0 / 33_554_393.0).abs() < 1e-12);
        assert!(power_key_soundness_error(33_554_393, 667, 2) < single * single * 1.01);
    }

    /// Wrong answers against a power-structured key in the tiny field pass at
    /// a rate bounded by (rows−1)/q — the degraded but still negligible
    /// Schwartz–Zippel bound.
    #[test]
    fn empirical_power_key_soundness_in_tiny_field() {
        let mut rng = StdRng::seed_from_u64(5);
        let block = Matrix::from_vec(4, 4, avcc_field::random_matrix(&mut rng, 4, 4));
        let trials = 20_000;
        let mut accepted_wrong = 0u32;
        for _ in 0..trials {
            let rho: F251 = avcc_field::random_element(&mut rng);
            let r = expand_power_key(rho, 4);
            let s = avcc_linalg::matt_vec(&block, &r);
            let w: Vec<F251> = avcc_field::random_vector(&mut rng, 4);
            let mut z = mat_vec(&block, &w);
            let index = rng.gen_range(0..4usize);
            z[index] += F251::from_u64(rng.gen_range(1..251));
            if check_with_power_key(rho, &s, &w, &z) {
                accepted_wrong += 1;
            }
        }
        let rate = accepted_wrong as f64 / trials as f64;
        let bound = power_key_soundness_error(251, 4, 1);
        assert!(
            rate < 3.0 * bound + 1e-3,
            "false-acceptance rate {rate} too far above (m-1)/q = {bound}"
        );
    }

    #[test]
    fn power_combination_is_the_explicit_sum() {
        let sigma = F25::from_u64(3);
        let batch = vec![
            vec![F25::from_u64(1), F25::from_u64(2)],
            vec![F25::from_u64(4), F25::from_u64(5)],
            vec![F25::from_u64(6), F25::from_u64(0)],
        ];
        let combined = combine_with_powers(sigma, &batch);
        let sigma2 = sigma * sigma;
        assert_eq!(
            combined,
            vec![
                batch[0][0] + sigma * batch[1][0] + sigma2 * batch[2][0],
                batch[0][1] + sigma * batch[1][1] + sigma2 * batch[2][1],
            ]
        );
    }

    /// The batched check accepts iff all `m` individual checks accept
    /// (completeness side — exactly, by linearity), and a corrupted batch is
    /// rejected w.h.p. (soundness side, exercised statistically over σ).
    #[test]
    fn batched_check_matches_individual_checks() {
        let mut rng = StdRng::seed_from_u64(6);
        let block = Matrix::from_vec(8, 5, avcc_field::random_matrix(&mut rng, 8, 5));
        let key = MatVecKey::<avcc_field::P25>::generate(&block, KeyGenConfig::default(), &mut rng);
        let inputs: Vec<Vec<F25>> = (0..4)
            .map(|_| avcc_field::random_vector(&mut rng, 5))
            .collect();
        let claims: Vec<Vec<F25>> = inputs.iter().map(|w| mat_vec(&block, w)).collect();
        for _ in 0..10 {
            let sigma: F25 = avcc_field::random_element(&mut rng);
            let x_c = combine_with_powers(sigma, &inputs);
            let y_c = combine_with_powers(sigma, &claims);
            assert!(key.verify(&x_c, &y_c), "honest batch must always pass");
            assert!(inputs.iter().zip(&claims).all(|(w, z)| key.verify(w, z)));

            let mut corrupted = claims.clone();
            corrupted[2][0] += F25::ONE;
            let y_bad = combine_with_powers(sigma, &corrupted);
            assert!(!key.verify(&x_c, &y_bad), "corrupted batch must be caught");
            // The per-function fallback localizes function 2.
            let failing: Vec<usize> = corrupted
                .iter()
                .enumerate()
                .filter(|(j, z)| !key.verify(&inputs[*j], z))
                .map(|(j, _)| j)
                .collect();
            assert_eq!(failing, vec![2]);
        }
    }

    #[test]
    fn batch_soundness_adds_the_combination_term() {
        assert_eq!(batch_soundness_error(251, 1, 1), soundness_error(251, 1));
        let m8 = batch_soundness_error(33_554_393, 8, 1);
        assert!((m8 - (7.0 + 1.0) / 33_554_393.0).abs() < 1e-12);
    }

    #[test]
    fn verification_speedup_is_large_for_paper_dimensions() {
        // GISETTE block: m/K = 667 rows, d = 5000 columns.
        let speedup = verification_speedup(667, 5000);
        assert!(speedup > 500.0, "speedup {speedup} unexpectedly small");
    }

    /// Empirically measures the acceptance rate of *random wrong answers* in a
    /// tiny field: it must be close to the theoretical 1/q (here 1/251), which
    /// demonstrates eq. (10) — and that the bound is tight, not just an upper
    /// bound.
    #[test]
    fn empirical_soundness_in_tiny_field() {
        let mut rng = StdRng::seed_from_u64(3);
        let block = Matrix::from_vec(4, 4, avcc_field::random_matrix(&mut rng, 4, 4));
        let key = MatVecKey::<P251>::generate(&block, KeyGenConfig::default(), &mut rng);
        let trials = 20_000;
        let mut accepted_wrong = 0u32;
        for _ in 0..trials {
            let w: Vec<F251> = avcc_field::random_vector(&mut rng, 4);
            let mut z = mat_vec(&block, &w);
            // Corrupt one coordinate by a random nonzero delta.
            let index = rng.gen_range(0..4usize);
            z[index] += F251::from_u64(rng.gen_range(1..251));
            if key.verify(&w, &z) {
                accepted_wrong += 1;
            }
        }
        let rate = accepted_wrong as f64 / trials as f64;
        let theoretical = 1.0 / 251.0;
        assert!(
            rate < 3.0 * theoretical + 1e-3,
            "false-acceptance rate {rate} too far above 1/q = {theoretical}"
        );
    }
}
