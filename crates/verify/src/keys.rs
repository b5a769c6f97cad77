//! Verification-key generation (paper §IV-A, step 2).
//!
//! For each worker `i` the master draws secret uniformly random vectors and
//! precomputes their products with the worker's coded block:
//!
//! * round 1 (computes `z̃ = X̃ w`): `r⁽¹⁾ ∈ F^{m/K}`, `s⁽¹⁾ = r⁽¹⁾·X̃` (eq. 6),
//! * round 2 (computes `g̃ = X̃ᵀ e`): `r⁽²⁾ ∈ F^{d}`, `s⁽²⁾ = r⁽²⁾·X̃ᵀ` (eq. 7).
//!
//! Both are one [`MatVecKey::generate`] call on the matrix the worker
//! multiplies by in that round (the engines hold one key per worker per round
//! matrix).
//!
//! Generating a key has an rng half and a compute half:
//! [`MatVecKey::draw_secrets`] draws the `r`s and [`MatVecKey::from_secrets`]
//! multiplies them into the matrix (`generate` is their composition). A
//! caller with many keys to make draws every secret first, in key order, and
//! then computes the products side by side — the rng stream is the one a
//! loop of `generate` calls consumes.
//!
//! Key generation costs one pass over the coded block per key, but it is a
//! **one-time** cost amortized over every training iteration — exactly the
//! argument the paper makes when accounting per-iteration overheads (Fig. 4).

use avcc_field::{random_vector, Fp, PrimeModulus};
use avcc_linalg::{matt_vec, Matrix};
use rand::Rng;

/// Configuration for key generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyGenConfig {
    /// Number of independent `(r, s)` pairs per key. One pair gives soundness
    /// error `1/q`; `t` pairs give `q⁻ᵗ`.
    pub repetitions: usize,
}

impl Default for KeyGenConfig {
    fn default() -> Self {
        KeyGenConfig { repetitions: 1 }
    }
}

/// One Freivalds repetition: the secret vector `r` and its precomputed
/// product `s = rᵀA`.
pub type KeyPair<M> = (Vec<Fp<M>>, Vec<Fp<M>>);

/// A Freivalds key for verifying products with a fixed matrix `A`:
/// each repetition holds `(r, s = rᵀA)`, so a claimed `y = A·x` is accepted
/// iff `r·y = s·x` for every repetition.
///
/// The `r`s are the master's secret: a worker that knew them could forge a
/// passing result. They come from the caller's rng and nowhere else
/// ([`draw_secrets`](Self::draw_secrets)); everything after the draw is a
/// deterministic function of the matrix and the secrets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatVecKey<M: PrimeModulus> {
    /// One `(r, s)` pair per repetition; `r` has length `rows(A)`, `s` has
    /// length `cols(A)`.
    pairs: Vec<KeyPair<M>>,
    rows: usize,
    cols: usize,
}

impl<M: PrimeModulus> MatVecKey<M> {
    /// Generates a key for the matrix `A` with the given number of
    /// repetitions: [`draw_secrets`](Self::draw_secrets), then
    /// [`from_secrets`](Self::from_secrets).
    pub fn generate<R: Rng + ?Sized>(
        matrix: &Matrix<Fp<M>>,
        config: KeyGenConfig,
        rng: &mut R,
    ) -> Self {
        Self::from_secrets(matrix, Self::draw_secrets(matrix.rows(), config, rng))
    }

    /// The rng half of [`generate`](Self::generate): one uniformly random
    /// secret `r ∈ F^{rows}` per repetition, in repetition order.
    ///
    /// # Panics
    /// Panics if `config.repetitions` is zero.
    pub fn draw_secrets<R: Rng + ?Sized>(
        rows: usize,
        config: KeyGenConfig,
        rng: &mut R,
    ) -> Vec<Vec<Fp<M>>> {
        assert!(config.repetitions > 0, "need at least one key repetition");
        (0..config.repetitions)
            .map(|_| random_vector(rng, rows))
            .collect()
    }

    /// The compute half of [`generate`](Self::generate): pairs each secret
    /// `r` with `s = rᵀA = Aᵀr`, one pass over `matrix` per secret.
    ///
    /// # Panics
    /// Panics if there is no secret or one's length is not `matrix.rows()`.
    pub fn from_secrets(matrix: &Matrix<Fp<M>>, secrets: Vec<Vec<Fp<M>>>) -> Self {
        assert!(!secrets.is_empty(), "need at least one key repetition");
        let pairs = secrets
            .into_iter()
            .map(|r| {
                let s = matt_vec(matrix, &r);
                (r, s)
            })
            .collect();
        MatVecKey {
            pairs,
            rows: matrix.rows(),
            cols: matrix.cols(),
        }
    }

    /// Number of repetitions.
    pub fn repetitions(&self) -> usize {
        self.pairs.len()
    }

    /// Verifies a claimed result: accepts iff `r·claimed = s·input` for every
    /// repetition. Completeness is exact (a correct result always passes);
    /// soundness error is `q^{-repetitions}`.
    ///
    /// # Panics
    /// Panics if the input or claimed-result lengths do not match the key.
    pub fn verify(&self, input: &[Fp<M>], claimed: &[Fp<M>]) -> bool {
        assert_eq!(
            input.len(),
            self.cols,
            "input length {} does not match key ({})",
            input.len(),
            self.cols
        );
        assert_eq!(
            claimed.len(),
            self.rows,
            "claimed result length {} does not match key ({})",
            claimed.len(),
            self.rows
        );
        self.pairs
            .iter()
            .all(|(r, s)| avcc_field::dot(r, claimed) == avcc_field::dot(s, input))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avcc_field::{PrimeField, F25};
    use avcc_linalg::mat_vec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_block(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix<F25> {
        Matrix::from_vec(rows, cols, avcc_field::random_matrix(rng, rows, cols))
    }

    #[test]
    fn correct_results_always_pass_round1() {
        let mut rng = StdRng::seed_from_u64(1);
        let block = random_block(&mut rng, 10, 6);
        let key = MatVecKey::generate(&block, KeyGenConfig::default(), &mut rng);
        for _ in 0..20 {
            let w: Vec<F25> = avcc_field::random_vector(&mut rng, 6);
            let z = mat_vec(&block, &w);
            assert!(key.verify(&w, &z));
        }
    }

    #[test]
    fn corrupted_results_are_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let block = random_block(&mut rng, 12, 8);
        let key = MatVecKey::generate(&block, KeyGenConfig::default(), &mut rng);
        let w: Vec<F25> = avcc_field::random_vector(&mut rng, 8);
        let mut z = mat_vec(&block, &w);
        z[3] += F25::ONE;
        assert!(!key.verify(&w, &z));
        // Reverse-value attack.
        let reversed: Vec<F25> = mat_vec(&block, &w).iter().map(|&v| -v).collect();
        assert!(!key.verify(&w, &reversed));
        // Constant attack.
        let constant = vec![F25::from_u64(5); 12];
        assert!(!key.verify(&w, &constant));
    }

    #[test]
    fn multiple_repetitions_still_accept_correct_results() {
        let mut rng = StdRng::seed_from_u64(6);
        let block = random_block(&mut rng, 9, 9);
        let key = MatVecKey::generate(&block, KeyGenConfig { repetitions: 3 }, &mut rng);
        assert_eq!(key.repetitions(), 3);
        let w: Vec<F25> = avcc_field::random_vector(&mut rng, 9);
        assert!(key.verify(&w, &mat_vec(&block, &w)));
    }

    #[test]
    #[should_panic(expected = "does not match key")]
    fn mismatched_input_length_panics() {
        let mut rng = StdRng::seed_from_u64(8);
        let block = random_block(&mut rng, 4, 4);
        let key = MatVecKey::generate(&block, KeyGenConfig::default(), &mut rng);
        let _ = key.verify(&[F25::ZERO; 3], &[F25::ZERO; 4]);
    }

    #[test]
    #[should_panic(expected = "at least one key repetition")]
    fn zero_repetitions_panics() {
        let mut rng = StdRng::seed_from_u64(9);
        let block = random_block(&mut rng, 4, 4);
        let _ = MatVecKey::generate(&block, KeyGenConfig { repetitions: 0 }, &mut rng);
    }
}
