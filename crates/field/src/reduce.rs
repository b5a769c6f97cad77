//! Specialized wide modular reduction: `u128 → [0, q)` without hardware
//! division.
//!
//! Every hot loop in the AVCC pipeline (Lagrange encoding, the worker kernels
//! `X̃w` / `X̃ᵀe`, Freivalds verification, RS decoding) bottoms out in a
//! multiply-reduce of two canonical representatives. A generic
//! `(a as u128 * b as u128) % q` compiles to a 128-bit division — dozens of
//! cycles on the hottest instruction in the system. This module provides
//! branch-light alternatives, selected per modulus through
//! [`crate::fp::PrimeModulus::reduce_wide`]:
//!
//! * [`reduce_pseudo_mersenne25`] — for `q = 2^25 − 39`: `2^25 ≡ 39 (mod q)`,
//!   so a value folds as `(x & (2^25−1)) + 39·(x >> 25)`, shedding ≈19.7 bits
//!   per fold. Products of canonical representatives are below `2^50`, so the
//!   hot path is three folds plus one conditional subtraction.
//! * [`reduce_goldilocks64`] — for the Goldilocks prime
//!   `q = 2^64 − 2^32 + 1`: with `ε = 2^32 − 1` the identities `2^64 ≡ ε` and
//!   `2^96 ≡ −1 (mod q)` collapse a 128-bit value
//!   `x = lo + 2^64·hi_lo + 2^96·hi_hi` (where `hi_lo`, `hi_hi` are the two
//!   32-bit halves of the high word) into `lo + ε·hi_lo − hi_hi` using only
//!   64-bit adds, one 32×32→64 multiply and two carry corrections.
//! * [`reduce_barrett`] — the generic fallback (used by `F_251` and any future
//!   modulus without a special form): one 128×128→256-bit high multiply by the
//!   precomputed `μ = ⌊2^128 / q⌋` estimates the quotient to within 2, then at
//!   most two conditional subtractions correct the remainder.
//!
//! All three accept the **full** `u128` range, which is what lets the batch
//! kernels ([`crate::batch`]) accumulate many unreduced products and reduce
//! once per lane.

/// The high 128 bits of the 256-bit product `a · b`.
#[inline]
pub const fn mulhi_u128(a: u128, b: u128) -> u128 {
    const LO: u128 = (1u128 << 64) - 1;
    let (a_lo, a_hi) = (a & LO, a >> 64);
    let (b_lo, b_hi) = (b & LO, b >> 64);
    let ll = a_lo * b_lo;
    let lh = a_lo * b_hi;
    let hl = a_hi * b_lo;
    let hh = a_hi * b_hi;
    // Carries out of the middle 64-bit column.
    let mid = (ll >> 64) + (lh & LO) + (hl & LO);
    hh + (lh >> 64) + (hl >> 64) + (mid >> 64)
}

/// Barrett constant `μ = ⌊2^128 / q⌋` for a modulus `q`.
///
/// `q` is prime (in particular, not a power of two), so
/// `⌊(2^128 − 1) / q⌋ = ⌊2^128 / q⌋` and the computation stays in `u128`.
#[inline]
pub const fn barrett_mu(modulus: u64) -> u128 {
    u128::MAX / modulus as u128
}

/// Barrett reduction of a full-range `u128` by a modulus below `2^64`.
///
/// With `q̂ = mulhi(x, μ)` the true quotient satisfies
/// `q̂ ≤ ⌊x/q⌋ ≤ q̂ + 2`, so after subtracting `q̂·q` at most two conditional
/// subtractions remain — no division anywhere.
#[inline]
pub const fn reduce_barrett(value: u128, modulus: u64, mu: u128) -> u64 {
    let quotient = mulhi_u128(value, mu);
    let mut remainder = value - quotient * modulus as u128;
    while remainder >= modulus as u128 {
        remainder -= modulus as u128;
    }
    remainder as u64
}

/// Pseudo-Mersenne reduction of a full-range `u128` modulo `q = 2^25 − 39`
/// (`2^25 ≡ 39`).
#[inline]
pub const fn reduce_pseudo_mersenne25(value: u128) -> u64 {
    const Q: u64 = (1u64 << 25) - 39;
    const MASK128: u128 = (1u128 << 25) - 1;
    const MASK: u64 = (1u64 << 25) - 1;
    // Each fold sheds ≈19.7 bits. Values below 2^64 (in particular any
    // product of canonical representatives, < 2^50) skip this loop entirely.
    let mut wide = value;
    while wide >> 64 != 0 {
        wide = (wide & MASK128) + 39 * (wide >> 25);
    }
    // 64 bits → ≤ 45 bits → ≤ 26 bits → ≤ 2^25 + 38.
    let x = wide as u64;
    let x = (x & MASK) + 39 * (x >> 25);
    let x = (x & MASK) + 39 * (x >> 25);
    let x = (x & MASK) + 39 * (x >> 25);
    if x >= Q {
        x - Q
    } else {
        x
    }
}

/// The Goldilocks prime `q = 2^64 − 2^32 + 1`.
pub const GOLDILOCKS: u64 = 0xFFFF_FFFF_0000_0001;

/// `ε = 2^32 − 1 = 2^64 mod q` for the Goldilocks prime.
const GOLDILOCKS_EPSILON: u64 = 0xFFFF_FFFF;

/// Goldilocks reduction of a full-range `u128` modulo `q = 2^64 − 2^32 + 1`.
///
/// Splitting `x = lo + 2^64·hi_lo + 2^96·hi_hi` (with `hi_lo`, `hi_hi` the
/// 32-bit halves of the high word) and using `2^64 ≡ ε = 2^32 − 1`,
/// `2^96 ≡ −1 (mod q)` gives `x ≡ lo − hi_hi + ε·hi_lo`. Both carry cases are
/// folded back through the same identities, so the whole reduction is
/// branch-light 64-bit arithmetic — cheaper than Barrett's 128×128 high
/// multiply, which matters because `WIDE_BATCH = 1` for this modulus (the
/// batch kernels reduce after every product).
#[inline]
pub const fn reduce_goldilocks64(value: u128) -> u64 {
    let lo = value as u64;
    let hi = (value >> 64) as u64;
    let hi_hi = hi >> 32;
    let hi_lo = hi & GOLDILOCKS_EPSILON;
    // t0 = lo − hi_hi (mod q). On borrow the wrapped value is `true + 2^64`,
    // and `2^64 ≡ ε`, so subtract ε again — this cannot re-borrow because a
    // borrow implies the wrapped value is at least `2^64 − 2^32 + 1`.
    let (mut t0, borrow) = lo.overflowing_sub(hi_hi);
    if borrow {
        t0 = t0.wrapping_sub(GOLDILOCKS_EPSILON);
    }
    // t1 = ε·hi_lo ≤ (2^32 − 1)^2 < 2^64.
    let t1 = GOLDILOCKS_EPSILON * hi_lo;
    // t2 = t0 + t1 (mod q). On carry the wrapped value is `true − 2^64`, so
    // add ε back — this cannot re-carry because `t1 ≤ (2^32 − 1)^2` keeps the
    // wrapped value below `2^64 − 2^33`.
    let (mut t2, carry) = t0.overflowing_add(t1);
    if carry {
        t2 = t2.wrapping_add(GOLDILOCKS_EPSILON);
    }
    if t2 >= GOLDILOCKS {
        t2 - GOLDILOCKS
    } else {
        t2
    }
}

/// `2^128 mod q`: the weight of one carry out of a wrapping `u128` sum,
/// which [`crate::batch::CarryAccumulator::finish`] multiplies the carry
/// count by.
pub const fn pow2_128_mod(modulus: u64) -> u64 {
    (((u128::MAX % modulus as u128) + 1) % modulus as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `2^61 − 1`: one more odd modulus, between the 25-bit and the
    /// Goldilocks one, for the generic Barrett backend.
    const M61: u64 = (1u64 << 61) - 1;
    const P25: u64 = (1u64 << 25) - 39;
    const P251: u64 = 251;

    fn naive(value: u128, modulus: u64) -> u64 {
        (value % modulus as u128) as u64
    }

    /// Boundary inputs every backend must reduce exactly: 0, 1, q−1, q,
    /// (q−1)², and the extremes of the `u64`/`u128` ranges.
    fn boundary_inputs(modulus: u64) -> Vec<u128> {
        let q = modulus as u128;
        vec![
            0,
            1,
            q - 1,
            q,
            q + 1,
            (q - 1) * (q - 1),
            (q - 1) * (q - 1) + q,
            u64::MAX as u128,
            u64::MAX as u128 + 1,
            u128::MAX - 1,
            u128::MAX,
        ]
    }

    #[test]
    fn mulhi_matches_truncated_schoolbook() {
        assert_eq!(mulhi_u128(0, u128::MAX), 0);
        assert_eq!(mulhi_u128(u128::MAX, u128::MAX), u128::MAX - 1);
        assert_eq!(mulhi_u128(1 << 64, 1 << 64), 1);
        assert_eq!(mulhi_u128(u128::MAX, 2), 1);
    }

    #[test]
    fn pseudo_mersenne25_matches_naive_on_boundaries() {
        for input in boundary_inputs(P25) {
            assert_eq!(
                reduce_pseudo_mersenne25(input),
                naive(input, P25),
                "input {input}"
            );
        }
    }

    #[test]
    fn goldilocks_matches_naive_on_boundaries() {
        for input in boundary_inputs(GOLDILOCKS) {
            assert_eq!(
                reduce_goldilocks64(input),
                naive(input, GOLDILOCKS),
                "input {input}"
            );
        }
        // The carry/borrow corner cases: high word maximizing each half.
        for hi in [
            0u64,
            1,
            GOLDILOCKS_EPSILON,
            GOLDILOCKS_EPSILON + 1,
            u64::MAX - 1,
            u64::MAX,
        ] {
            for lo in [0u64, 1, GOLDILOCKS - 1, GOLDILOCKS, u64::MAX] {
                let input = (hi as u128) << 64 | lo as u128;
                assert_eq!(
                    reduce_goldilocks64(input),
                    naive(input, GOLDILOCKS),
                    "hi {hi}, lo {lo}"
                );
            }
        }
    }

    #[test]
    fn goldilocks_pow_matches_naive_references() {
        use crate::fp::{Fp, PrimeField, P64};
        type G = Fp<P64>;
        // 7 generates the multiplicative group, so 7^((q−1)/2^32) has order
        // exactly 2^32: its 2^31-th power is −1.
        let root = G::from_u64(7).pow((GOLDILOCKS - 1) >> 32);
        assert_eq!(root.to_u64(), 1_753_635_133_440_165_772);
        assert_eq!(root.pow(1 << 31).to_u64(), GOLDILOCKS - 1);
        assert_eq!(G::from_u64(5).pow(0), G::ONE);
        assert_eq!(G::from_u64(GOLDILOCKS + 3).pow(2).to_u64(), 9);
    }

    const ALL_MODULI: [u64; 4] = [P25, M61, P251, GOLDILOCKS];

    #[test]
    fn pow2_128_mod_is_two_to_the_128_reduced() {
        for modulus in ALL_MODULI {
            let r = (1u128 << 64) % modulus as u128;
            assert_eq!(
                pow2_128_mod(modulus) as u128,
                r * r % modulus as u128,
                "modulus {modulus}"
            );
        }
    }

    #[test]
    fn barrett_matches_naive_on_boundaries_for_all_moduli() {
        for modulus in [P25, M61, P251] {
            let mu = barrett_mu(modulus);
            for input in boundary_inputs(modulus) {
                assert_eq!(
                    reduce_barrett(input, modulus, mu),
                    naive(input, modulus),
                    "modulus {modulus}, input {input}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn prop_pseudo_mersenne25_matches_naive(hi in any::<u64>(), lo in any::<u64>()) {
            let input = (hi as u128) << 64 | lo as u128;
            prop_assert_eq!(reduce_pseudo_mersenne25(input), naive(input, P25));
        }

        #[test]
        fn prop_goldilocks_matches_naive(hi in any::<u64>(), lo in any::<u64>()) {
            let input = (hi as u128) << 64 | lo as u128;
            prop_assert_eq!(reduce_goldilocks64(input), naive(input, GOLDILOCKS));
        }

        #[test]
        fn prop_barrett_matches_naive_all_moduli(hi in any::<u64>(), lo in any::<u64>()) {
            let input = (hi as u128) << 64 | lo as u128;
            for modulus in [P25, M61, P251, GOLDILOCKS] {
                let mu = barrett_mu(modulus);
                prop_assert_eq!(reduce_barrett(input, modulus, mu), naive(input, modulus));
            }
        }

        #[test]
        fn prop_product_range_reduces_exactly(a in 0..P25, b in 0..P25) {
            // The hot-path shape: products of canonical representatives.
            let product = a as u128 * b as u128;
            prop_assert_eq!(reduce_pseudo_mersenne25(product), naive(product, P25));
        }
    }
}
