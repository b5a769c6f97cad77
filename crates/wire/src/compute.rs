//! Worker-side typed compute: from a modulus-tagged block to the same
//! `mat_vec` kernel the in-process executors run.
//!
//! The wire layer is modulus-erased (`u64` residues); this module is where a
//! worker re-types a block once at `LOAD_BLOCK` time — validating every
//! element against the canonical-residue invariant — and then executes tasks
//! with the identical register-blocked [`avcc_linalg::mat_vec`] kernel the
//! threaded executor uses. Same kernel, same canonical residues in and out:
//! this is what makes socket results bit-identical to in-process results.
//!
//! A block arrives either as a [`Block`] value (the in-process executors:
//! [`TypedBlock::from_block`]) or as the payload bytes of a `LOAD_BLOCK`
//! frame (the worker loop: [`TypedBlock::from_payload`], which goes from the
//! bytes to field elements in one pass, with no `Vec<u64>` in between). Both
//! end in the same element loop.

use avcc_field::{Fp, PrimeField, PrimeModulus, P25, P251, P61, P64};
use avcc_linalg::{mat_vec, Matrix};

use crate::codec::WireReader;
use crate::error::WireError;
use crate::message::Block;

/// A block re-typed under its modulus, ready to multiply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypedBlock {
    /// `q = 2^25 − 39` (the paper's field).
    P25(Matrix<Fp<P25>>),
    /// `q = 2^61 − 1`.
    P61(Matrix<Fp<P61>>),
    /// `q = 251` (exhaustive-test field).
    P251(Matrix<Fp<P251>>),
    /// Goldilocks `q = 2^64 − 2^32 + 1` (NTT field).
    P64(Matrix<Fp<P64>>),
}

/// The one block-element loop: checks the shape against the element count
/// and every element against the modulus, in element order.
fn typed_matrix<M: PrimeModulus>(
    rows: u32,
    cols: u32,
    elements: impl ExactSizeIterator<Item = u64>,
) -> Result<Matrix<Fp<M>>, WireError> {
    // `Block`'s fields are public, so a block that never went through
    // `Block::decode` can disagree with its own shape.
    let count = (rows as usize).checked_mul(cols as usize);
    if count != Some(elements.len()) {
        return Err(WireError::Malformed {
            context: "BLOCK rows*cols does not match its element count",
        });
    }
    let mut data = Vec::with_capacity(elements.len());
    for (index, raw) in elements.enumerate() {
        if raw >= M::MODULUS {
            return Err(WireError::NonCanonical {
                index,
                value: raw,
                modulus: M::MODULUS,
            });
        }
        data.push(<Fp<M> as PrimeField>::from_u64(raw));
    }
    Ok(Matrix::from_vec(rows as usize, cols as usize, data))
}

fn execute_typed<M: PrimeModulus>(
    matrix: &Matrix<Fp<M>>,
    inputs: &[Vec<u64>],
) -> Result<Vec<Vec<u64>>, WireError> {
    let mut outputs = Vec::with_capacity(inputs.len());
    for input in inputs {
        if input.len() != matrix.cols() {
            return Err(WireError::Malformed {
                context: "TASK input length does not match block columns",
            });
        }
        let mut typed = Vec::with_capacity(input.len());
        for (index, &raw) in input.iter().enumerate() {
            if raw >= M::MODULUS {
                return Err(WireError::NonCanonical {
                    index,
                    value: raw,
                    modulus: M::MODULUS,
                });
            }
            typed.push(<Fp<M> as PrimeField>::from_u64(raw));
        }
        let product = mat_vec(matrix, &typed);
        outputs.push(product.into_iter().map(PrimeField::to_u64).collect());
    }
    Ok(outputs)
}

impl TypedBlock {
    /// Types `rows × cols` raw elements under `modulus`, rejecting unknown
    /// moduli, a shape that disagrees with the element count, and
    /// non-canonical elements — in that order.
    fn typed(
        modulus: u64,
        rows: u32,
        cols: u32,
        elements: impl ExactSizeIterator<Item = u64>,
    ) -> Result<Self, WireError> {
        match modulus {
            m if m == P25::MODULUS => Ok(Self::P25(typed_matrix(rows, cols, elements)?)),
            m if m == P61::MODULUS => Ok(Self::P61(typed_matrix(rows, cols, elements)?)),
            m if m == P251::MODULUS => Ok(Self::P251(typed_matrix(rows, cols, elements)?)),
            m if m == P64::MODULUS => Ok(Self::P64(typed_matrix(rows, cols, elements)?)),
            other => Err(WireError::UnknownModulus { modulus: other }),
        }
    }

    /// Re-types a wire block, rejecting unknown moduli, a shape that
    /// disagrees with the element count, and non-canonical elements.
    pub fn from_block(block: &Block) -> Result<Self, WireError> {
        Self::typed(
            block.modulus,
            block.rows,
            block.cols,
            block.elements.iter().copied(),
        )
    }

    /// Re-types the payload of a `LOAD_BLOCK` frame in one pass over its
    /// bytes: exactly [`Block::decode`] followed by
    /// [`TypedBlock::from_block`] — the same rejections, in the same order,
    /// with the same errors — without materializing the `Vec<u64>` between
    /// them.
    pub fn from_payload(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(payload);
        let modulus = r.take_u64("BLOCK modulus")?;
        let rows = r.take_u32("BLOCK rows")?;
        let cols = r.take_u32("BLOCK cols")?;
        let count = (rows as usize)
            .checked_mul(cols as usize)
            .ok_or(WireError::Malformed {
                context: "BLOCK rows*cols overflows",
            })?;
        // The element bytes must be all that is left, no fewer and no more:
        // both are settled before the modulus or any element is looked at.
        let body = r.take_rest();
        match body.len().cmp(&count.saturating_mul(8)) {
            std::cmp::Ordering::Less => {
                return Err(WireError::Truncated {
                    context: "BLOCK elements",
                })
            }
            std::cmp::Ordering::Greater => {
                return Err(WireError::Malformed {
                    context: "trailing bytes after BLOCK elements",
                })
            }
            std::cmp::Ordering::Equal => {}
        }
        let elements = body
            .chunks_exact(8)
            .map(|raw| u64::from_le_bytes(raw.try_into().expect("chunks of 8 bytes")));
        Self::typed(modulus, rows, cols, elements)
    }

    /// Row count of the block.
    pub fn rows(&self) -> usize {
        match self {
            Self::P25(m) => m.rows(),
            Self::P61(m) => m.rows(),
            Self::P251(m) => m.rows(),
            Self::P64(m) => m.rows(),
        }
    }

    /// Column count of the block.
    pub fn cols(&self) -> usize {
        match self {
            Self::P25(m) => m.cols(),
            Self::P61(m) => m.cols(),
            Self::P251(m) => m.cols(),
            Self::P64(m) => m.cols(),
        }
    }

    /// The modulus the block is typed under.
    pub fn modulus(&self) -> u64 {
        match self {
            Self::P25(_) => P25::MODULUS,
            Self::P61(_) => P61::MODULUS,
            Self::P251(_) => P251::MODULUS,
            Self::P64(_) => P64::MODULUS,
        }
    }

    /// Multiplies the block against each input vector, returning canonical
    /// residues.
    pub fn execute(&self, inputs: &[Vec<u64>]) -> Result<Vec<Vec<u64>>, WireError> {
        match self {
            Self::P25(m) => execute_typed(m, inputs),
            Self::P61(m) => execute_typed(m, inputs),
            Self::P251(m) => execute_typed(m, inputs),
            Self::P64(m) => execute_typed(m, inputs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avcc_field::F251;

    fn block_251() -> Block {
        Block {
            modulus: 251,
            rows: 2,
            cols: 3,
            elements: vec![1, 2, 3, 4, 5, 6],
        }
    }

    #[test]
    fn execute_matches_serial_mat_vec() {
        let typed = TypedBlock::from_block(&block_251()).unwrap();
        let outputs = typed.execute(&[vec![7, 8, 9]]).unwrap();
        let matrix = Matrix::from_vec(2, 3, (1..=6u64).map(F251::new).collect());
        let expected: Vec<u64> = mat_vec(&matrix, &[F251::new(7), F251::new(8), F251::new(9)])
            .into_iter()
            .map(PrimeField::to_u64)
            .collect();
        assert_eq!(outputs, vec![expected]);
    }

    #[test]
    fn unknown_modulus_rejected() {
        let mut block = block_251();
        block.modulus = 97;
        assert_eq!(
            TypedBlock::from_block(&block).unwrap_err(),
            WireError::UnknownModulus { modulus: 97 }
        );
    }

    #[test]
    fn non_canonical_block_element_rejected() {
        let mut block = block_251();
        block.elements[4] = 251;
        assert!(matches!(
            TypedBlock::from_block(&block).unwrap_err(),
            WireError::NonCanonical { index: 4, .. }
        ));
    }

    #[test]
    fn inconsistent_shape_is_malformed_not_a_panic() {
        let mut block = block_251();
        block.elements.truncate(3);
        assert!(matches!(
            TypedBlock::from_block(&block).unwrap_err(),
            WireError::Malformed { .. }
        ));
        // Overflows `usize` on 32-bit targets; a plain mismatch elsewhere.
        block.rows = u32::MAX;
        block.cols = u32::MAX;
        assert!(matches!(
            TypedBlock::from_block(&block).unwrap_err(),
            WireError::Malformed { .. }
        ));
    }

    #[test]
    fn non_canonical_input_rejected() {
        let typed = TypedBlock::from_block(&block_251()).unwrap();
        assert!(matches!(
            typed.execute(&[vec![7, 252, 9]]).unwrap_err(),
            WireError::NonCanonical { index: 1, .. }
        ));
    }

    #[test]
    fn wrong_input_length_rejected() {
        let typed = TypedBlock::from_block(&block_251()).unwrap();
        assert!(typed.execute(&[vec![7, 8]]).is_err());
    }

    /// The two-step path `from_payload` must be indistinguishable from.
    fn decode_then_type(payload: &[u8]) -> Result<TypedBlock, WireError> {
        TypedBlock::from_block(&Block::decode(payload)?)
    }

    #[test]
    fn one_pass_decode_equals_decode_then_type_on_valid_payloads() {
        for modulus in [P25::MODULUS, P61::MODULUS, P251::MODULUS, P64::MODULUS] {
            for (rows, cols) in [(0u32, 0u32), (0, 3), (1, 1), (3, 5)] {
                let count = (rows * cols) as u64;
                let block = Block {
                    modulus,
                    rows,
                    cols,
                    // q − 1 and 0, the canonical extremes, then a spread.
                    elements: (0..count)
                        .map(|i| match i {
                            0 => modulus - 1,
                            1 => 0,
                            _ => i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % modulus,
                        })
                        .collect(),
                };
                let payload = block.encode();
                let typed = TypedBlock::from_payload(&payload).unwrap();
                assert_eq!(Ok(&typed), decode_then_type(&payload).as_ref());
                assert_eq!(typed.modulus(), modulus);
                assert_eq!((typed.rows(), typed.cols()), (rows as usize, cols as usize));
            }
        }
    }

    #[test]
    fn one_pass_decode_rejects_hostile_payloads_exactly_as_the_two_step_path() {
        let header = |modulus: u64, rows: u32, cols: u32| {
            let mut bytes = modulus.to_le_bytes().to_vec();
            bytes.extend_from_slice(&rows.to_le_bytes());
            bytes.extend_from_slice(&cols.to_le_bytes());
            bytes
        };
        let with_elements = |mut bytes: Vec<u8>, elements: &[u64]| {
            for element in elements {
                bytes.extend_from_slice(&element.to_le_bytes());
            }
            bytes
        };
        let valid = with_elements(header(251, 2, 3), &[1, 2, 3, 4, 5, 6]);
        assert!(TypedBlock::from_payload(&valid).is_ok());

        let truncated = |context| WireError::Truncated { context };
        let malformed = |context| WireError::Malformed { context };
        let non_canonical = |index, value| WireError::NonCanonical {
            index,
            value,
            modulus: 251,
        };
        let mut one_byte_long = valid.clone();
        one_byte_long.push(0);
        let cases: Vec<(&str, Vec<u8>, WireError)> = vec![
            ("empty", Vec::new(), truncated("BLOCK modulus")),
            (
                "15-byte payload",
                valid[..15].to_vec(),
                truncated("BLOCK cols"),
            ),
            (
                "one element short",
                valid[..valid.len() - 8].to_vec(),
                truncated("BLOCK elements"),
            ),
            (
                "one byte short",
                valid[..valid.len() - 1].to_vec(),
                truncated("BLOCK elements"),
            ),
            (
                "one byte long",
                one_byte_long,
                malformed("trailing bytes after BLOCK elements"),
            ),
            (
                "rows·cols beyond any payload",
                with_elements(header(251, u32::MAX, u32::MAX), &[1, 2]),
                if usize::BITS >= 64 {
                    truncated("BLOCK elements")
                } else {
                    malformed("BLOCK rows*cols overflows")
                },
            ),
            (
                "rows·cols below the element count",
                with_elements(header(251, 2, 2), &[1, 2, 3, 4, 5, 6]),
                malformed("trailing bytes after BLOCK elements"),
            ),
            (
                "rows·cols above the element count",
                with_elements(header(251, 2, 4), &[1, 2, 3, 4, 5, 6]),
                truncated("BLOCK elements"),
            ),
            (
                "unknown modulus",
                with_elements(header(97, 2, 3), &[1, 2, 3, 4, 5, 6]),
                WireError::UnknownModulus { modulus: 97 },
            ),
            (
                // Settled before the elements are looked at, as in two steps.
                "unknown modulus and a bad element",
                with_elements(header(97, 1, 2), &[1, u64::MAX]),
                WireError::UnknownModulus { modulus: 97 },
            ),
            (
                "element = q",
                with_elements(header(251, 2, 3), &[1, 2, 3, 4, 251, 6]),
                non_canonical(4, 251),
            ),
            (
                "element = u64::MAX",
                with_elements(header(251, 2, 3), &[1, 2, u64::MAX, 4, 5, 6]),
                non_canonical(2, u64::MAX),
            ),
            (
                "two bad elements: the first is reported",
                with_elements(header(251, 2, 3), &[1, 300, 3, 4, 5, u64::MAX]),
                non_canonical(1, 300),
            ),
        ];
        for (name, payload, expected) in cases {
            let one_pass = TypedBlock::from_payload(&payload).unwrap_err();
            assert_eq!(one_pass, expected, "{name}");
            assert_eq!(one_pass, decode_then_type(&payload).unwrap_err(), "{name}");
        }
    }

    #[test]
    fn all_supported_moduli_type_check() {
        for modulus in [P25::MODULUS, P61::MODULUS, P251::MODULUS, P64::MODULUS] {
            let block = Block {
                modulus,
                rows: 1,
                cols: 2,
                elements: vec![0, 1],
            };
            let typed = TypedBlock::from_block(&block).unwrap();
            assert_eq!(typed.modulus(), modulus);
            assert_eq!((typed.rows(), typed.cols()), (1, 2));
        }
    }
}
