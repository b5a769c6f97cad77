//! Worker-side typed compute: from a modulus-tagged block to the same
//! `mat_vec` kernel the in-process executors run.
//!
//! The wire layer is modulus-erased (raw residues); this module is where a
//! worker re-types a block once at `LOAD_BLOCK` time — validating every
//! element against the canonical-residue invariant — and then executes tasks
//! with the identical register-blocked [`avcc_linalg::mat_vec`] kernel the
//! threaded executor uses. Same kernel, same canonical residues in and out:
//! this is what makes socket results bit-identical to in-process results.
//!
//! A block of a modulus that takes narrow lanes (the paper's 25-bit field,
//! and `F_251`) is stored as `u32`, and each task input is narrowed to `u32`
//! once it has passed its canonicity check, so the kernel streams half the
//! bytes a block of field elements would take. Each of a fleet's blocks is
//! evicted from cache between that worker's tasks, so this is the traffic a
//! task pays. The wider moduli keep [`Fp`] storage.
//!
//! A block arrives either as a [`Block`] value (the in-process executors:
//! [`TypedBlock::from_block`]) or as the payload bytes of a `LOAD_BLOCK`
//! frame (the worker loop: [`TypedBlock::from_payload`], which goes from the
//! bytes, 4 or 8 per element, to stored residues in one pass, with no
//! `Vec<u64>` in between). Both end in the same element loop.

use avcc_field::{Fp, PrimeModulus, Residue, P25, P251, P61, P64};
use avcc_linalg::{mat_vec, Matrix};

use crate::codec::{le_elements, ElementWidth, WireReader};
use crate::error::WireError;
use crate::message::Block;

/// A block re-typed under its modulus, ready to multiply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypedBlock {
    /// `q = 2^25 − 39` (the paper's field), stored as `u32`.
    P25(Matrix<u32>),
    /// `q = 2^61 − 1`.
    P61(Matrix<Fp<P61>>),
    /// `q = 251` (exhaustive-test field), stored as `u32`.
    P251(Matrix<u32>),
    /// Goldilocks `q = 2^64 − 2^32 + 1` (NTT field).
    P64(Matrix<Fp<P64>>),
}

/// The one block-element loop: checks the shape against the element count
/// and every element against the modulus, in element order.
fn typed_matrix<M: PrimeModulus, S: Residue<M>>(
    rows: u32,
    cols: u32,
    elements: impl ExactSizeIterator<Item = u64>,
) -> Result<Matrix<S>, WireError> {
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
        data.push(S::from_residue(raw));
    }
    Ok(Matrix::from_vec(rows as usize, cols as usize, data))
}

/// Checks each input against the modulus, stores it as the block is stored,
/// and multiplies.
fn execute_typed<M: PrimeModulus, S: Residue<M>>(
    matrix: &Matrix<S>,
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
            typed.push(S::from_residue(raw));
        }
        let product = mat_vec::<M, S>(matrix, &typed);
        outputs.push(product.into_iter().map(S::residue).collect());
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
            m if m == P25::MODULUS => Ok(Self::P25(typed_matrix::<P25, _>(rows, cols, elements)?)),
            m if m == P61::MODULUS => Ok(Self::P61(typed_matrix::<P61, _>(rows, cols, elements)?)),
            m if m == P251::MODULUS => {
                Ok(Self::P251(typed_matrix::<P251, _>(rows, cols, elements)?))
            }
            m if m == P64::MODULUS => Ok(Self::P64(typed_matrix::<P64, _>(rows, cols, elements)?)),
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
        // The element bytes must be all that is left, exactly 4 or 8 per
        // element: settled before the modulus or any element is looked at.
        let (width, body) = r.take_element_bytes(
            count,
            "BLOCK elements",
            "trailing bytes after BLOCK elements",
        )?;
        match width {
            ElementWidth::Narrow => Self::typed(modulus, rows, cols, le_elements::<4>(body)),
            ElementWidth::Wide => Self::typed(modulus, rows, cols, le_elements::<8>(body)),
        }
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
            Self::P25(m) => execute_typed::<P25, _>(m, inputs),
            Self::P61(m) => execute_typed::<P61, _>(m, inputs),
            Self::P251(m) => execute_typed::<P251, _>(m, inputs),
            Self::P64(m) => execute_typed::<P64, _>(m, inputs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::WireWriter;
    use crate::message::Task;
    use avcc_field::{PrimeField, F251};

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
        // 4-byte TASK inputs of the 25-bit field, as they come off the wire:
        // q itself and u32::MAX are named with their index.
        let q = P25::MODULUS;
        let typed = TypedBlock::from_block(&Block {
            modulus: q,
            rows: 2,
            cols: 3,
            elements: vec![1, 2, 3, 4, 5, q - 1],
        })
        .unwrap();
        for (index, value) in [(1, q), (2, u32::MAX as u64)] {
            let mut input = vec![7, 8, 9];
            input[index] = value;
            let task = Task {
                sleep_micros: 0,
                inputs: vec![input],
            };
            let payload = task.encode();
            assert_eq!(payload.len(), 16 + 3 * 4, "sent 4 bytes wide");
            let decoded = Task::decode(&payload).unwrap();
            assert_eq!(
                typed.execute(&decoded.inputs).unwrap_err(),
                WireError::NonCanonical {
                    index,
                    value,
                    modulus: q
                }
            );
        }
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

    /// A `LOAD_BLOCK` payload whose elements are written `width` wide.
    fn payload_at(
        width: ElementWidth,
        modulus: u64,
        rows: u32,
        cols: u32,
        elements: &[u64],
    ) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64(modulus);
        w.put_u32(rows);
        w.put_u32(cols);
        w.put_elements(elements, width);
        w.into_bytes()
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
                // What a sender writes, and every width the elements fit: a
                // narrow modulus may also arrive 8 bytes wide.
                let payload = block.encode();
                let narrow = ElementWidth::of([block.elements.as_slice()]) == ElementWidth::Narrow;
                assert_eq!(narrow, modulus <= 1 << 32 || count == 0);
                let mut payloads = vec![payload_at(
                    ElementWidth::Wide,
                    modulus,
                    rows,
                    cols,
                    &block.elements,
                )];
                if narrow {
                    payloads.push(payload_at(
                        ElementWidth::Narrow,
                        modulus,
                        rows,
                        cols,
                        &block.elements,
                    ));
                }
                assert!(payloads.contains(&payload));
                for payload in payloads {
                    let typed = TypedBlock::from_payload(&payload).unwrap();
                    assert_eq!(Ok(&typed), decode_then_type(&payload).as_ref());
                    assert_eq!(Ok(&typed), TypedBlock::from_block(&block).as_ref());
                    assert_eq!(typed.modulus(), modulus);
                    assert_eq!((typed.rows(), typed.cols()), (rows as usize, cols as usize));
                }
            }
        }
    }

    #[test]
    fn one_pass_decode_rejects_hostile_payloads_exactly_as_the_two_step_path() {
        let header = |modulus: u64, rows: u32, cols: u32| {
            payload_at(ElementWidth::Wide, modulus, rows, cols, &[])
        };
        let truncated = |context| WireError::Truncated { context };
        let malformed = |context| WireError::Malformed { context };
        let neither = malformed("element array is neither 4 nor 8 bytes per element");
        let trailing = malformed("trailing bytes after BLOCK elements");
        let non_canonical = |index, value, modulus| WireError::NonCanonical {
            index,
            value,
            modulus,
        };
        let q = P25::MODULUS;
        for width in [ElementWidth::Narrow, ElementWidth::Wide] {
            let with_elements = |modulus: u64, rows: u32, cols: u32, elements: &[u64]| {
                payload_at(width, modulus, rows, cols, elements)
            };
            // The error where the two widths part ways.
            let by_width = |narrow: WireError, wide: WireError| match width {
                ElementWidth::Narrow => narrow,
                ElementWidth::Wide => wide,
            };
            let bytes = width.bytes();
            let valid = with_elements(251, 2, 3, &[1, 2, 3, 4, 5, 6]);
            assert!(TypedBlock::from_payload(&valid).is_ok());
            let mut one_byte_long = valid.clone();
            one_byte_long.push(0);
            let mut cases: Vec<(&str, Vec<u8>, WireError)> = vec![
                ("empty", Vec::new(), truncated("BLOCK modulus")),
                (
                    "15-byte payload",
                    valid[..15].to_vec(),
                    truncated("BLOCK cols"),
                ),
                (
                    "header only",
                    header(251, 2, 3),
                    truncated("BLOCK elements"),
                ),
                (
                    "one element short",
                    valid[..valid.len() - bytes].to_vec(),
                    by_width(truncated("BLOCK elements"), neither.clone()),
                ),
                (
                    "one byte short",
                    valid[..valid.len() - 1].to_vec(),
                    by_width(truncated("BLOCK elements"), neither.clone()),
                ),
                (
                    "one byte long",
                    one_byte_long,
                    by_width(neither.clone(), trailing.clone()),
                ),
                (
                    "rows·cols beyond any payload",
                    with_elements(251, u32::MAX, u32::MAX, &[1, 2]),
                    if usize::BITS >= 64 {
                        truncated("BLOCK elements")
                    } else {
                        malformed("BLOCK rows*cols overflows")
                    },
                ),
                (
                    "rows·cols below the element count",
                    with_elements(251, 2, 2, &[1, 2, 3, 4, 5, 6]),
                    by_width(neither.clone(), trailing.clone()),
                ),
                (
                    "rows·cols above the element count",
                    with_elements(251, 2, 4, &[1, 2, 3, 4, 5, 6]),
                    by_width(truncated("BLOCK elements"), neither.clone()),
                ),
                (
                    "unknown modulus",
                    with_elements(97, 2, 3, &[1, 2, 3, 4, 5, 6]),
                    WireError::UnknownModulus { modulus: 97 },
                ),
                (
                    // Settled before the elements are looked at, as in two steps.
                    "unknown modulus and a bad element",
                    with_elements(97, 1, 2, &[1, u32::MAX as u64]),
                    WireError::UnknownModulus { modulus: 97 },
                ),
                (
                    "element = q",
                    with_elements(251, 2, 3, &[1, 2, 3, 4, 251, 6]),
                    non_canonical(4, 251, 251),
                ),
                (
                    "element = u32::MAX",
                    with_elements(251, 2, 3, &[1, 2, u32::MAX as u64, 4, 5, 6]),
                    non_canonical(2, u32::MAX as u64, 251),
                ),
                (
                    "two bad elements: the first is reported",
                    with_elements(251, 2, 3, &[1, 300, 3, 4, 5, u32::MAX as u64]),
                    non_canonical(1, 300, 251),
                ),
                (
                    "25-bit block, element = q",
                    with_elements(q, 1, 3, &[0, q, q - 1]),
                    non_canonical(1, q, q),
                ),
                (
                    "25-bit block, element = u32::MAX",
                    with_elements(q, 1, 3, &[0, q - 1, u32::MAX as u64]),
                    non_canonical(2, u32::MAX as u64, q),
                ),
            ];
            if width == ElementWidth::Wide {
                // Only an 8-byte element can hold these.
                cases.extend([
                    (
                        "element = u64::MAX",
                        with_elements(251, 2, 3, &[1, 2, u64::MAX, 4, 5, 6]),
                        non_canonical(2, u64::MAX, 251),
                    ),
                    (
                        "25-bit block, element = 2^32",
                        with_elements(q, 1, 3, &[0, 1 << 32, 1]),
                        non_canonical(1, 1 << 32, q),
                    ),
                ]);
            }
            for (name, payload, expected) in cases {
                let one_pass = TypedBlock::from_payload(&payload).unwrap_err();
                assert_eq!(one_pass, expected, "{name}, {width:?}");
                assert_eq!(
                    one_pass,
                    decode_then_type(&payload).unwrap_err(),
                    "{name}, {width:?}"
                );
            }
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

    #[test]
    fn narrow_moduli_are_stored_as_u32() {
        let block = |modulus| Block {
            modulus,
            rows: 1,
            cols: 2,
            elements: vec![0, 1],
        };
        assert!(avcc_field::batch::narrow_lanes::<P25>());
        assert!(avcc_field::batch::narrow_lanes::<P251>());
        let stored = |modulus| match TypedBlock::from_block(&block(modulus)) {
            Ok(TypedBlock::P25(m) | TypedBlock::P251(m)) => m,
            other => panic!("not stored as u32: {other:?}"),
        };
        assert_eq!(stored(P25::MODULUS).data(), [0u32, 1]);
        assert_eq!(stored(P251::MODULUS).data(), [0u32, 1]);
    }
}
