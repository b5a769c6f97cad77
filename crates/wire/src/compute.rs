//! Worker-side typed compute: from a modulus-tagged [`Block`] to the same
//! `mat_vec` kernel the in-process executors run.
//!
//! The wire layer is modulus-erased (`u64` residues); this module is where a
//! worker re-types a block once at `LOAD_BLOCK` time — validating every
//! element against the canonical-residue invariant — and then executes tasks
//! with the identical register-blocked [`avcc_linalg::mat_vec`] kernel the
//! threaded executor uses. Same kernel, same canonical residues in and out:
//! this is what makes socket results bit-identical to in-process results.

use avcc_field::{Fp, PrimeField, PrimeModulus, P25, P251, P61, P64};
use avcc_linalg::{mat_vec, Matrix};

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

fn typed_matrix<M: PrimeModulus>(block: &Block) -> Result<Matrix<Fp<M>>, WireError> {
    // `Block`'s fields are public, so a block that never went through
    // `Block::decode` can disagree with its own shape.
    let count = (block.rows as usize).checked_mul(block.cols as usize);
    if count != Some(block.elements.len()) {
        return Err(WireError::Malformed {
            context: "BLOCK rows*cols does not match its element count",
        });
    }
    let mut data = Vec::with_capacity(block.elements.len());
    for (index, &raw) in block.elements.iter().enumerate() {
        if raw >= M::MODULUS {
            return Err(WireError::NonCanonical {
                index,
                value: raw,
                modulus: M::MODULUS,
            });
        }
        data.push(<Fp<M> as PrimeField>::from_u64(raw));
    }
    Ok(Matrix::from_vec(
        block.rows as usize,
        block.cols as usize,
        data,
    ))
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
    /// Re-types a wire block, rejecting unknown moduli, a shape that
    /// disagrees with the element count, and non-canonical elements.
    pub fn from_block(block: &Block) -> Result<Self, WireError> {
        match block.modulus {
            m if m == P25::MODULUS => Ok(Self::P25(typed_matrix::<P25>(block)?)),
            m if m == P61::MODULUS => Ok(Self::P61(typed_matrix::<P61>(block)?)),
            m if m == P251::MODULUS => Ok(Self::P251(typed_matrix::<P251>(block)?)),
            m if m == P64::MODULUS => Ok(Self::P64(typed_matrix::<P64>(block)?)),
            other => Err(WireError::UnknownModulus { modulus: other }),
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
