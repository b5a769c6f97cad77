//! The σ-combination behind the *batched* Freivalds check, and the
//! soundness tests of the check itself (paper §IV-A, step 3).
//!
//! The check is one dot product on each side of eq. (8) / eq. (9):
//! `s⁽¹⁾·w = r⁽¹⁾·z̃` for round 1 and `s⁽²⁾·e = r⁽²⁾·g̃` for round 2
//! ([`MatVecKey::verify`](crate::keys::MatVecKey::verify)). A worker that
//! returns the correct product always passes; a worker that returns anything
//! else passes with probability at most `1/q` per key repetition (eq. 10/11),
//! because the difference vector is nonzero and a uniformly random `r` is
//! orthogonal to a fixed nonzero vector with probability `1/q`.

use avcc_field::{power_series, Fp, PrimeModulus};

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
/// `q^{-repetitions}` soundness error. A failed combined check is then
/// localized by falling back to the `m` per-function checks.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{KeyGenConfig, MatVecKey};
    use avcc_field::{PrimeField, F25, F251, P251};
    use avcc_linalg::{mat_vec, Matrix};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
