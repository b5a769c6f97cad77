//! Sampling of uniformly random field elements.
//!
//! Uniform randomness over `F_q` is load-bearing in two places of the AVCC
//! protocol: the Lagrange privacy pads `W_{K+1..K+T}` (Theorem 1, T-privacy)
//! and the Freivalds verification keys `r` (the `1/q` soundness error of the
//! integrity check). [`random_element`] maps one 64-bit RNG word onto
//! `[0, q)` by multiply-shift (`⌊word · q / 2^64⌋`, the `rand` shim's
//! `gen_range`), with no rejection, so it is close to uniform but not
//! exactly: each residue receives `⌊2^64/q⌋` or `⌈2^64/q⌉` of the `2^64`
//! words.
//!
//! * **`q = 2^25 − 39`** (the paper's field): every residue's probability is
//!   within a factor `1 ± q/2^64`, i.e. `1 ± 2^-39`, of `1/q`.
//! * **Goldilocks** (`q = 2^64 − 2^32 + 1`): `⌊2^64/q⌋ = 1`, so `2^32 − 1`
//!   residues are drawn with probability `2^-63` and the rest with `2^-64`;
//!   the statistical distance from uniform is about `2^-32`. No residue is
//!   more than twice as likely as under the uniform law, so the bias at most
//!   doubles a Freivalds key's `1/q` soundness error (still about `2^-63`).
//!
//! Tests check uniformity empirically. Changing the sampler would move every
//! seeded draw the workspace pins.

use rand::Rng;

use crate::fp::{Fp, PrimeModulus};

/// Samples a uniformly random field element.
pub fn random_element<M: PrimeModulus, R: Rng + ?Sized>(rng: &mut R) -> Fp<M> {
    // Multiply-shift onto the canonical range: no rejection, so the draw
    // carries the small bias the module doc bounds.
    Fp::<M>::new(rng.gen_range(0..M::MODULUS))
}

/// Samples a vector of `len` uniformly random field elements.
pub fn random_vector<M: PrimeModulus, R: Rng + ?Sized>(rng: &mut R, len: usize) -> Vec<Fp<M>> {
    (0..len).map(|_| random_element(rng)).collect()
}

/// Samples a row-major `rows × cols` matrix of uniformly random elements.
pub fn random_matrix<M: PrimeModulus, R: Rng + ?Sized>(
    rng: &mut R,
    rows: usize,
    cols: usize,
) -> Vec<Fp<M>> {
    random_vector(rng, rows * cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::{PrimeField, P25, P251};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_elements_are_canonical() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let e: Fp<P25> = random_element(&mut rng);
            assert!(e.to_u64() < P25::MODULUS);
        }
    }

    #[test]
    fn random_vector_has_requested_length() {
        let mut rng = StdRng::seed_from_u64(2);
        let v: Vec<Fp<P25>> = random_vector(&mut rng, 37);
        assert_eq!(v.len(), 37);
    }

    #[test]
    fn random_matrix_has_requested_size() {
        let mut rng = StdRng::seed_from_u64(3);
        let m: Vec<Fp<P25>> = random_matrix(&mut rng, 4, 9);
        assert_eq!(m.len(), 36);
    }

    #[test]
    fn sampling_is_roughly_uniform_in_small_field() {
        // Chi-square style sanity check over F_251: each residue should appear
        // close to count/251 times.
        let mut rng = StdRng::seed_from_u64(5);
        let samples = 251 * 400;
        let mut histogram = vec![0u32; 251];
        for _ in 0..samples {
            let e: Fp<P251> = random_element(&mut rng);
            histogram[e.to_u64() as usize] += 1;
        }
        let expected = 400.0;
        for (residue, &count) in histogram.iter().enumerate() {
            let deviation = (count as f64 - expected).abs() / expected;
            assert!(
                deviation < 0.35,
                "residue {residue} count {count} deviates too much from {expected}"
            );
        }
    }

    #[test]
    fn seeded_sampling_is_reproducible() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let va: Vec<Fp<P25>> = random_vector(&mut a, 16);
        let vb: Vec<Fp<P25>> = random_vector(&mut b, 16);
        assert_eq!(va, vb);
    }
}
