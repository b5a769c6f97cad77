//! Fixed-point quantization between real numbers and the finite field.
//!
//! The paper (§V, "Quantization and Parameter Selection") quantizes inputs and
//! model weights as `x_r = round(2^l · x)` and embeds the integers into `F_q`
//! using a two's-complement style representation: representatives larger than
//! `(q−1)/2` are negative. After the distributed computation, the master
//! subtracts `q` from large representatives and rescales by `2^{−l}`.
//!
//! The [`Quantizer`] tracks the precision `l` and performs the conversions;
//! [`SignedEmbedding`] captures only the sign convention (used when a value is
//! already an integer, like the GISETTE pixel counts). The module also exposes
//! the overflow analysis the paper uses to pick `q`: the worst-case inner
//! product of length `d` must satisfy `d (q−1)² ≤ 2^63 − 1` when accumulated in
//! a 64-bit register.

use crate::fp::{Fp, PrimeField, PrimeModulus};

/// Errors produced by quantization.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantError {
    /// The scaled magnitude does not fit in the signed range of the field.
    Overflow {
        /// The value that failed to quantize.
        value_repr: String,
        /// Number of precision bits in use.
        bits: u32,
        /// Largest representable magnitude at this precision.
        max_magnitude: f64,
    },
    /// The input was NaN or infinite.
    NotFinite,
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantError::Overflow {
                value_repr,
                bits,
                max_magnitude,
            } => write!(
                f,
                "value {value_repr} does not fit in the field at {bits} precision bits \
                 (max magnitude {max_magnitude})"
            ),
            QuantError::NotFinite => write!(f, "cannot quantize a NaN or infinite value"),
        }
    }
}

impl std::error::Error for QuantError {}

/// The sign convention used to embed integers in the field.
///
/// Representatives in `[0, (q−1)/2]` are non-negative; representatives in
/// `((q−1)/2, q)` represent the negative number `value − q`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SignedEmbedding;

impl SignedEmbedding {
    /// Embeds a signed integer into the field.
    pub fn encode<M: PrimeModulus>(self, value: i64) -> Fp<M> {
        Fp::<M>::from_i64(value)
    }

    /// Recovers the signed integer from a field element.
    pub fn decode<M: PrimeModulus>(self, element: Fp<M>) -> i64 {
        element.to_i64()
    }

    /// The largest magnitude representable without ambiguity: `(q−1)/2`.
    pub fn max_magnitude<M: PrimeModulus>(self) -> u64 {
        (M::MODULUS - 1) / 2
    }
}

/// Fixed-point quantizer with `l` fractional bits (the paper uses `l = 5` for
/// the model weights and `l = 0` for the non-negative GISETTE features).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantizer {
    bits: u32,
}

impl Quantizer {
    /// Creates a quantizer with `bits` fractional precision bits.
    pub fn new(bits: u32) -> Self {
        Quantizer { bits }
    }

    /// The number of fractional precision bits `l`.
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// The scale factor `2^l`.
    pub fn scale(self) -> f64 {
        (1u64 << self.bits) as f64
    }

    /// Quantizes a real number: `round(2^l x)` embedded with the signed
    /// convention. Fails if the value is not finite or its scaled magnitude
    /// exceeds `(q−1)/2`.
    pub fn quantize<M: PrimeModulus>(self, value: f64) -> Result<Fp<M>, QuantError> {
        if !value.is_finite() {
            return Err(QuantError::NotFinite);
        }
        let scaled = (value * self.scale()).round();
        let max_magnitude = ((M::MODULUS - 1) / 2) as f64;
        if scaled.abs() > max_magnitude {
            return Err(QuantError::Overflow {
                value_repr: format!("{value}"),
                bits: self.bits,
                max_magnitude: max_magnitude / self.scale(),
            });
        }
        Ok(Fp::<M>::from_i64(scaled as i64))
    }

    /// Quantizes a slice of reals. Fails on the first offending element.
    pub fn quantize_slice<M: PrimeModulus>(self, values: &[f64]) -> Result<Vec<Fp<M>>, QuantError> {
        values.iter().map(|&v| self.quantize(v)).collect()
    }

    /// Quantizes, saturating out-of-range magnitudes to the representable
    /// extreme instead of failing (used for the error vector `e`, whose
    /// entries are probabilities minus labels and therefore bounded, but kept
    /// total for robustness).
    pub fn quantize_saturating<M: PrimeModulus>(self, value: f64) -> Fp<M> {
        let max_magnitude = ((M::MODULUS - 1) / 2) as i64;
        if !value.is_finite() {
            return Fp::<M>::ZERO;
        }
        let scaled = (value * self.scale()).round();
        let clamped = scaled.clamp(-(max_magnitude as f64), max_magnitude as f64) as i64;
        Fp::<M>::from_i64(clamped)
    }

    /// Dequantizes a single field element produced by a computation whose
    /// total scale is `2^(total_bits)` — e.g. `X·w` where `X` used `l_x` bits
    /// and `w` used `l_w` bits has `total_bits = l_x + l_w`.
    pub fn dequantize_with_scale<M: PrimeModulus>(element: Fp<M>, total_bits: u32) -> f64 {
        element.to_i64() as f64 / (1u64 << total_bits) as f64
    }

    /// Dequantizes assuming this quantizer's own scale.
    pub fn dequantize<M: PrimeModulus>(self, element: Fp<M>) -> f64 {
        Self::dequantize_with_scale(element, self.bits)
    }

    /// Dequantizes a slice with an explicit total scale.
    pub fn dequantize_slice_with_scale<M: PrimeModulus>(
        elements: &[Fp<M>],
        total_bits: u32,
    ) -> Vec<f64> {
        elements
            .iter()
            .map(|&e| Self::dequantize_with_scale(e, total_bits))
            .collect()
    }
}

/// Checks the paper's field-size constraint: with feature dimension `d`, the
/// worst-case inner-product accumulation `d (q−1)²` must fit in a signed
/// 64-bit register (`≤ 2^63 − 1`).
pub fn worst_case_fits_u63<M: PrimeModulus>(dimension: u64) -> bool {
    let per_term = (M::MODULUS - 1) as u128 * (M::MODULUS - 1) as u128;
    dimension as u128 * per_term <= (i64::MAX as u128)
}

/// The largest dimension `d` for which the worst-case accumulation fits in a
/// signed 64-bit register for the field `M`.
pub fn max_safe_dimension<M: PrimeModulus>() -> u64 {
    let per_term = (M::MODULUS - 1) as u128 * (M::MODULUS - 1) as u128;
    (i64::MAX as u128 / per_term) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::{P25, P64};
    use proptest::prelude::*;

    type F = Fp<P25>;

    #[test]
    fn quantize_dequantize_round_trip_within_precision() {
        let q = Quantizer::new(5);
        for value in [-3.75, -0.5, 0.0, 0.03125, 1.0, 7.25] {
            let element: F = q.quantize(value).unwrap();
            let recovered = q.dequantize(element);
            assert!(
                (recovered - value).abs() <= 1.0 / 64.0,
                "{value} -> {recovered}"
            );
        }
    }

    #[test]
    fn quantize_rejects_nan_and_infinity() {
        let q = Quantizer::new(5);
        assert_eq!(q.quantize::<P25>(f64::NAN), Err(QuantError::NotFinite));
        assert_eq!(q.quantize::<P25>(f64::INFINITY), Err(QuantError::NotFinite));
    }

    #[test]
    fn quantize_rejects_overflow() {
        let q = Quantizer::new(5);
        let too_big = (P25::MODULUS as f64) * 10.0;
        assert!(matches!(
            q.quantize::<P25>(too_big),
            Err(QuantError::Overflow { .. })
        ));
    }

    #[test]
    fn saturating_quantize_clamps() {
        let q = Quantizer::new(5);
        let too_big = (P25::MODULUS as f64) * 10.0;
        let saturated: F = q.quantize_saturating(too_big);
        assert_eq!(saturated.to_i64(), ((P25::MODULUS - 1) / 2) as i64);
        let negative: F = q.quantize_saturating(-too_big);
        assert_eq!(negative.to_i64(), -(((P25::MODULUS - 1) / 2) as i64));
    }

    #[test]
    fn dequantize_with_combined_scale() {
        // x quantized at 0 bits, w at 5 bits: the product has scale 2^5.
        let x = F::from_i64(7);
        let w: F = Quantizer::new(5).quantize(0.5).unwrap();
        let product = x * w;
        let value = Quantizer::dequantize_with_scale(product, 5);
        assert!((value - 3.5).abs() < 1e-9);
    }

    #[test]
    fn signed_embedding_encodes_negatives_above_half() {
        let e = SignedEmbedding;
        let element: F = e.encode(-5);
        assert!(element.to_u64() > (P25::MODULUS - 1) / 2);
        assert_eq!(e.decode(element), -5);
    }

    #[test]
    fn paper_field_satisfies_gisette_constraint() {
        // The paper's justification for q = 2^25 - 39 with d = 5000.
        assert!(worst_case_fits_u63::<P25>(5000));
        assert!(max_safe_dimension::<P25>() >= 5000);
    }

    #[test]
    fn large_field_fails_u63_constraint() {
        assert!(!worst_case_fits_u63::<P64>(1));
    }

    #[test]
    fn quantizer_error_is_displayable() {
        let q = Quantizer::new(5);
        let err = q.quantize::<P25>(1e18).unwrap_err();
        assert!(err.to_string().contains("does not fit"));
    }

    proptest! {
        #[test]
        fn prop_round_trip_error_bounded(value in -1000.0f64..1000.0f64, bits in 0u32..12) {
            let q = Quantizer::new(bits);
            let element: F = q.quantize(value).unwrap();
            let recovered = q.dequantize(element);
            // Rounding error is at most half an LSB.
            prop_assert!((recovered - value).abs() <= 0.5 / q.scale() + 1e-12);
        }

        #[test]
        fn prop_quantization_is_monotone(a in -100.0f64..100.0, b in -100.0f64..100.0) {
            let q = Quantizer::new(6);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let qa: F = q.quantize(lo).unwrap();
            let qb: F = q.quantize(hi).unwrap();
            prop_assert!(qa.to_i64() <= qb.to_i64());
        }
    }
}
