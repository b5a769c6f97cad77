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
//! `Vec<u64>` in between). Both end in the same element loop. Task inputs
//! likewise: `u64` residues ([`TypedBlock::execute`]) or the payload of a
//! `TASK` frame ([`TypedBlock::execute_payload`]), whose inputs — 2, 4 or 8
//! bytes per element — are read straight into the block's storage, one
//! branch-free pass per input.

use avcc_field::{Fp, PrimeModulus, Residue, P25, P251, P64};
use avcc_linalg::{mat_vec, Matrix};

use crate::codec::{le_elements, short_elements, ElementWidth, WireReader};
use crate::error::WireError;
use crate::message::{Block, TaskPayload};

/// A block re-typed under its modulus, ready to multiply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypedBlock {
    /// `q = 2^25 − 39` (the paper's field), stored as `u32`.
    P25(Matrix<u32>),
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

/// How a block stores a task input's residues, with the two ways into that
/// storage from the wire. Into `u32` lanes neither branches, so a loop of
/// either vectorizes.
trait Lanes<M: PrimeModulus>: Residue<M> {
    /// The residue of a 2-byte element `c` for `q > 2^16`: `c`, plus `q` when
    /// `c < 0` — always canonical, so never checked.
    fn lift_short(c: i16) -> Self;

    /// Stores `value`, which the caller checks is below `q`; for one that is
    /// not, what is stored does not matter, as the caller rejects the input.
    fn canonical(value: u64) -> Self;
}

impl<M: PrimeModulus> Lanes<M> for u32 {
    #[inline(always)]
    fn lift_short(c: i16) -> Self {
        let c = i32::from(c);
        (c as u32).wrapping_add((c >> 31) as u32 & M::MODULUS as u32)
    }

    #[inline(always)]
    fn canonical(value: u64) -> Self {
        value as u32
    }
}

impl<M: PrimeModulus> Lanes<M> for Fp<M> {
    #[inline(always)]
    fn lift_short(c: i16) -> Self {
        Fp::new(crate::codec::lift_short(c, M::MODULUS))
    }

    #[inline(always)]
    fn canonical(value: u64) -> Self {
        Fp::new(value)
    }
}

/// One task input as it reaches a block: `u64` residues, or the bytes of its
/// element array at one width.
#[derive(Clone, Copy)]
enum Input<'a> {
    Residues(&'a [u64]),
    Bytes(ElementWidth, &'a [u8]),
}

impl Input<'_> {
    fn len(self) -> usize {
        match self {
            Self::Residues(values) => values.len(),
            Self::Bytes(width, bytes) => bytes.len() / width.bytes(),
        }
    }

    /// Appends the input's residues to `lanes`, rejecting a non-canonical
    /// element (the first, by its index in the input) and a 2-byte input to
    /// a block of `q ≤ 2^16`, for which a lifted 2-byte element need not be
    /// canonical.
    fn lift_into<M: PrimeModulus, S: Lanes<M>>(self, lanes: &mut Vec<S>) -> Result<(), WireError> {
        match self {
            Self::Residues(values) => lift_checked::<M, S>(values.iter().copied(), lanes),
            Self::Bytes(ElementWidth::Short { .. }, _) if M::MODULUS <= 1 << 16 => {
                Err(WireError::Malformed {
                    context: "2-byte TASK inputs need a block modulus above 2^16",
                })
            }
            Self::Bytes(ElementWidth::Short { .. }, bytes) => {
                lanes.extend(short_elements(bytes).map(S::lift_short));
                Ok(())
            }
            Self::Bytes(ElementWidth::Narrow, bytes) => {
                lift_checked::<M, S>(le_elements::<4>(bytes), lanes)
            }
            Self::Bytes(ElementWidth::Wide, bytes) => {
                lift_checked::<M, S>(le_elements::<8>(bytes), lanes)
            }
        }
    }
}

/// Appends `elements` to `lanes` and checks each is below `q`: the check is
/// an AND-fold beside the stores, and only an input that fails it is read
/// again, to name its first non-canonical element.
fn lift_checked<M: PrimeModulus, S: Lanes<M>>(
    elements: impl Iterator<Item = u64> + Clone,
    lanes: &mut Vec<S>,
) -> Result<(), WireError> {
    let mut canonical = true;
    lanes.extend(elements.clone().map(|raw| {
        canonical &= raw < M::MODULUS;
        S::canonical(raw)
    }));
    if canonical {
        return Ok(());
    }
    match elements.enumerate().find(|&(_, raw)| raw >= M::MODULUS) {
        Some((index, value)) => Err(WireError::NonCanonical {
            index,
            value,
            modulus: M::MODULUS,
        }),
        None => Ok(()),
    }
}

/// Lifts each input into the block's storage and multiplies.
fn execute_typed<'a, M: PrimeModulus, S: Lanes<M>>(
    matrix: &Matrix<S>,
    inputs: impl ExactSizeIterator<Item = Input<'a>>,
) -> Result<Vec<Vec<u64>>, WireError> {
    let mut outputs = Vec::with_capacity(inputs.len());
    let mut lanes = Vec::with_capacity(matrix.cols());
    for input in inputs {
        if input.len() != matrix.cols() {
            return Err(WireError::Malformed {
                context: "TASK input length does not match block columns",
            });
        }
        lanes.clear();
        input.lift_into::<M, S>(&mut lanes)?;
        let product = mat_vec::<M, S>(matrix, &lanes);
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
            None,
        )?;
        // Without a task modulus, the array is 4 or 8 bytes wide.
        match width {
            ElementWidth::Wide => Self::typed(modulus, rows, cols, le_elements::<8>(body)),
            _ => Self::typed(modulus, rows, cols, le_elements::<4>(body)),
        }
    }

    /// Row count of the block.
    pub fn rows(&self) -> usize {
        match self {
            Self::P25(m) => m.rows(),
            Self::P251(m) => m.rows(),
            Self::P64(m) => m.rows(),
        }
    }

    /// Column count of the block.
    pub fn cols(&self) -> usize {
        match self {
            Self::P25(m) => m.cols(),
            Self::P251(m) => m.cols(),
            Self::P64(m) => m.cols(),
        }
    }

    /// The modulus the block is typed under.
    pub fn modulus(&self) -> u64 {
        match self {
            Self::P25(_) => P25::MODULUS,
            Self::P251(_) => P251::MODULUS,
            Self::P64(_) => P64::MODULUS,
        }
    }

    /// Multiplies the block against each input vector, returning canonical
    /// residues.
    pub fn execute(&self, inputs: &[Vec<u64>]) -> Result<Vec<Vec<u64>>, WireError> {
        self.execute_inputs(inputs.iter().map(|input| Input::Residues(input)))
    }

    /// Runs the payload of a `TASK` frame against this block and returns the
    /// task's `sleep_micros` and its outputs. The inputs may be 2 bytes per
    /// element as well as 4 or 8, the width read off their length; each goes
    /// from its bytes into the block's storage in one pass, with no
    /// `Vec<u64>` in between. For a 4- or 8-byte payload this is exactly
    /// [`Task::decode`](crate::Task::decode) followed by
    /// [`TypedBlock::execute`] — the same rejections, in the same order. A
    /// 2-byte payload to a block of `q ≤ 2^16` is malformed.
    pub fn execute_payload(&self, payload: &[u8]) -> Result<(u64, Vec<Vec<u64>>), WireError> {
        let task = TaskPayload::parse(payload, Some(self.modulus()))?;
        let outputs =
            self.execute_inputs(task.inputs().map(|bytes| Input::Bytes(task.width, bytes)))?;
        Ok((task.sleep_micros, outputs))
    }

    fn execute_inputs<'a>(
        &self,
        inputs: impl ExactSizeIterator<Item = Input<'a>>,
    ) -> Result<Vec<Vec<u64>>, WireError> {
        match self {
            Self::P25(m) => execute_typed::<P25, _>(m, inputs),
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
        // 2^61 − 1 is prime, but no field of the workspace is typed under it.
        for modulus in [97, (1 << 61) - 1] {
            let mut block = block_251();
            block.modulus = modulus;
            assert_eq!(
                TypedBlock::from_block(&block).unwrap_err(),
                WireError::UnknownModulus { modulus }
            );
        }
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
            // A non-canonical element is never folded into a 2-byte residue.
            assert_eq!(task.encode_in(q), payload);
            let decoded = Task::decode(&payload).unwrap();
            let expected = WireError::NonCanonical {
                index,
                value,
                modulus: q,
            };
            assert_eq!(typed.execute(&decoded.inputs).unwrap_err(), expected);
            assert_eq!(typed.execute_payload(&payload).unwrap_err(), expected);
        }
        // 8 bytes wide, past the first input: the index is within its input.
        let task = Task {
            sleep_micros: 0,
            inputs: vec![vec![7, 8, 9], vec![7, 8, 1 << 40]],
        };
        assert_eq!(
            typed.execute_payload(&task.encode_in(q)).unwrap_err(),
            WireError::NonCanonical {
                index: 2,
                value: 1 << 40,
                modulus: q
            }
        );
    }

    #[test]
    fn wrong_input_length_rejected() {
        let typed = TypedBlock::from_block(&block_251()).unwrap();
        assert!(typed.execute(&[vec![7, 8]]).is_err());
        // Checked before the elements, as in two steps.
        let task = Task {
            sleep_micros: 0,
            inputs: vec![vec![7, 300]],
        };
        let malformed = WireError::Malformed {
            context: "TASK input length does not match block columns",
        };
        assert_eq!(typed.execute(&task.inputs), Err(malformed.clone()));
        assert_eq!(typed.execute_payload(&task.encode()), Err(malformed));
    }

    /// A `TASK` payload of `functions` inputs of `input_len` elements whose
    /// element array is `element_bytes` zero bytes.
    fn task_payload(functions: u32, input_len: u32, element_bytes: usize) -> Vec<u8> {
        let mut bytes = 0u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&functions.to_le_bytes());
        bytes.extend_from_slice(&input_len.to_le_bytes());
        bytes.resize(bytes.len() + element_bytes, 0);
        bytes
    }

    #[test]
    fn task_payloads_of_every_length_against_25_bit_and_251_blocks() {
        // Two inputs of three elements, n = 6, against 2 × 3 blocks: every
        // length is settled before an element is read, and a 2-byte array is
        // meaningless to a block of q ≤ 2^16. Never a panic, never
        // `NonCanonical`.
        let p25 = TypedBlock::from_block(&Block {
            modulus: P25::MODULUS,
            ..block_251()
        })
        .unwrap();
        let p251 = TypedBlock::from_block(&block_251()).unwrap();
        let n = 6;
        let zeros = Ok((0, vec![vec![0u64; 2]; 2]));
        let truncated = Err(WireError::Truncated {
            context: "TASK inputs",
        });
        let malformed = |context| Err(WireError::Malformed { context });
        let neither = malformed("element array is neither 2, 4 nor 8 bytes per element");
        let trailing = malformed("trailing bytes after TASK inputs");
        for (block, two_bytes) in [
            (&p25, zeros.clone()),
            (
                &p251,
                malformed("2-byte TASK inputs need a block modulus above 2^16"),
            ),
        ] {
            let cases = [
                ("2n − 1", 2 * n - 1, truncated.clone()),
                ("2n", 2 * n, two_bytes),
                ("2n + 1", 2 * n + 1, neither.clone()),
                ("3n", 3 * n, neither.clone()),
                ("4n", 4 * n, zeros.clone()),
                ("8n", 8 * n, zeros.clone()),
                ("8n + 1", 8 * n + 1, trailing.clone()),
            ];
            for (name, len, expected) in cases {
                let payload = task_payload(2, 3, len);
                assert_eq!(
                    block.execute_payload(&payload),
                    expected,
                    "{name}, q = {}",
                    block.modulus()
                );
            }
            for (name, payload, expected) in [
                ("header cut short", vec![0; 15], {
                    Err(WireError::Truncated {
                        context: "TASK input_len",
                    })
                }),
                (
                    "functions × input_len overflows",
                    task_payload(u32::MAX, u32::MAX, 8),
                    truncated.clone(),
                ),
                (
                    "2^32 empty inputs",
                    task_payload(u32::MAX, 0, 0),
                    malformed("TASK inputs"),
                ),
                ("no inputs", task_payload(0, 5, 0), Ok((0, Vec::new()))),
                (
                    "no inputs, one byte",
                    task_payload(0, 5, 1),
                    trailing.clone(),
                ),
            ] {
                assert_eq!(block.execute_payload(&payload), expected, "{name}");
            }
        }
    }

    #[test]
    fn two_byte_elements_lift_to_the_residues_they_stand_for() {
        // `u32` lanes (the 25-bit field) and field elements (Goldilocks): an
        // identity block returns each input's residue.
        for modulus in [P25::MODULUS, P64::MODULUS] {
            let block = TypedBlock::from_block(&Block {
                modulus,
                rows: 4,
                cols: 4,
                elements: (0..16).map(|i| u64::from(i % 5 == 0)).collect(),
            })
            .unwrap();
            let mut payload = task_payload(1, 4, 0);
            payload[..8].copy_from_slice(&9u64.to_le_bytes());
            for c in [i16::MIN, -1, 0, i16::MAX] {
                payload.extend_from_slice(&c.to_le_bytes());
            }
            assert_eq!(
                block.execute_payload(&payload),
                Ok((9, vec![vec![modulus - 32768, modulus - 1, 0, 32767]]))
            );
        }
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
        for modulus in [P25::MODULUS, P251::MODULUS, P64::MODULUS] {
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
            let by_width = |narrow: WireError, wide: WireError| {
                if width == ElementWidth::Narrow {
                    narrow
                } else {
                    wide
                }
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
                    "2^61 − 1, a prime no field is typed under",
                    with_elements((1 << 61) - 1, 2, 3, &[1, 2, 3, 4, 5, 6]),
                    WireError::UnknownModulus {
                        modulus: (1 << 61) - 1,
                    },
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
        for modulus in [P25::MODULUS, P251::MODULUS, P64::MODULUS] {
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
