//! Dense linear algebra over a prime field: Gaussian elimination and rank
//! computation.
//!
//! The sizes involved are tiny (at most `N × N` with `N` the number of
//! workers, 12 in the paper's testbed), so a straightforward `O(n³)`
//! elimination with partial "pivoting" (any nonzero pivot works in a field) is
//! the right tool. The dual-codeword screen's error-locator step sits on top
//! of [`solve`], and the T-privacy test uses [`rank`] to check the
//! invertibility of the bottom `T × T` submatrices of the encoding matrix
//! (Lemma 2 of the LCC paper, used in Theorem 1 of AVCC).

use avcc_field::PrimeField;

/// Errors from the linear solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinearSolveError {
    /// The system is singular (no unique solution).
    Singular,
    /// Matrix/vector dimensions do not line up.
    DimensionMismatch {
        /// Human-readable description of the mismatch.
        details: String,
    },
}

impl std::fmt::Display for LinearSolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinearSolveError::Singular => write!(f, "singular linear system"),
            LinearSolveError::DimensionMismatch { details } => {
                write!(f, "dimension mismatch: {details}")
            }
        }
    }
}

impl std::error::Error for LinearSolveError {}

/// Solves the square system `A x = b` by Gauss–Jordan elimination.
///
/// `matrix` is row-major with `n × n` entries; `rhs` has length `n`.
pub fn solve<F: PrimeField>(matrix: &[F], rhs: &[F], n: usize) -> Result<Vec<F>, LinearSolveError> {
    if matrix.len() != n * n {
        return Err(LinearSolveError::DimensionMismatch {
            details: format!("matrix has {} entries, expected {}", matrix.len(), n * n),
        });
    }
    if rhs.len() != n {
        return Err(LinearSolveError::DimensionMismatch {
            details: format!("rhs has {} entries, expected {}", rhs.len(), n),
        });
    }
    // Augmented matrix [A | b].
    let width = n + 1;
    let mut augmented = vec![F::ZERO; n * width];
    for row in 0..n {
        augmented[row * width..row * width + n].copy_from_slice(&matrix[row * n..(row + 1) * n]);
        augmented[row * width + n] = rhs[row];
    }
    gauss_jordan(&mut augmented, n, width)?;
    Ok((0..n).map(|row| augmented[row * width + n]).collect())
}

/// Reduces the first `n` columns of the `rows × width` augmented matrix to the
/// identity, applying the same operations to the remaining columns.
fn gauss_jordan<F: PrimeField>(
    augmented: &mut [F],
    n: usize,
    width: usize,
) -> Result<(), LinearSolveError> {
    for pivot_column in 0..n {
        // Find a row with a nonzero pivot.
        let pivot_row = (pivot_column..n)
            .find(|&row| !augmented[row * width + pivot_column].is_zero())
            .ok_or(LinearSolveError::Singular)?;
        if pivot_row != pivot_column {
            for column in 0..width {
                augmented.swap(pivot_row * width + column, pivot_column * width + column);
            }
        }
        let pivot_inverse = augmented[pivot_column * width + pivot_column].inverse();
        for column in 0..width {
            augmented[pivot_column * width + column] *= pivot_inverse;
        }
        for row in 0..n {
            if row == pivot_column {
                continue;
            }
            let factor = augmented[row * width + pivot_column];
            if factor.is_zero() {
                continue;
            }
            for column in 0..width {
                let value = augmented[pivot_column * width + column];
                augmented[row * width + column] -= factor * value;
            }
        }
    }
    Ok(())
}

/// Computes the rank of a row-major `rows × cols` matrix by forward
/// elimination.
pub fn rank<F: PrimeField>(matrix: &[F], rows: usize, cols: usize) -> usize {
    assert_eq!(matrix.len(), rows * cols, "rank: dimension mismatch");
    let mut work = matrix.to_vec();
    let mut rank = 0usize;
    let mut pivot_row = 0usize;
    for pivot_column in 0..cols {
        if pivot_row >= rows {
            break;
        }
        let Some(found) = (pivot_row..rows).find(|&row| !work[row * cols + pivot_column].is_zero())
        else {
            continue;
        };
        if found != pivot_row {
            for column in 0..cols {
                work.swap(found * cols + column, pivot_row * cols + column);
            }
        }
        let pivot_inverse = work[pivot_row * cols + pivot_column].inverse();
        for column in pivot_column..cols {
            work[pivot_row * cols + column] *= pivot_inverse;
        }
        for row in (pivot_row + 1)..rows {
            let factor = work[row * cols + pivot_column];
            if factor.is_zero() {
                continue;
            }
            for column in pivot_column..cols {
                let value = work[pivot_row * cols + column];
                work[row * cols + column] -= factor * value;
            }
        }
        rank += 1;
        pivot_row += 1;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use avcc_field::F25;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fm(values: &[i64]) -> Vec<F25> {
        values.iter().map(|&v| F25::from_i64(v)).collect()
    }

    #[test]
    fn solves_small_known_system() {
        // 2x + y = 5, x + 3y = 10  =>  x = 1, y = 3
        let a = fm(&[2, 1, 1, 3]);
        let b = fm(&[5, 10]);
        let x = solve(&a, &b, 2).unwrap();
        assert_eq!(x, fm(&[1, 3]));
    }

    #[test]
    fn identity_solves_to_rhs() {
        let identity = fm(&[1, 0, 0, 0, 1, 0, 0, 0, 1]);
        let b = fm(&[7, 8, 9]);
        assert_eq!(solve(&identity, &b, 3).unwrap(), b);
    }

    #[test]
    fn singular_system_is_detected() {
        let a = fm(&[1, 2, 2, 4]);
        let b = fm(&[1, 2]);
        assert_eq!(solve(&a, &b, 2), Err(LinearSolveError::Singular));
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let a = fm(&[1, 2, 3]);
        let b = fm(&[1, 2]);
        assert!(matches!(
            solve(&a, &b, 2),
            Err(LinearSolveError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rank_of_identity_is_full() {
        let identity = fm(&[1, 0, 0, 0, 1, 0, 0, 0, 1]);
        assert_eq!(rank(&identity, 3, 3), 3);
    }

    #[test]
    fn rank_detects_dependent_rows() {
        let a = fm(&[1, 2, 3, 2, 4, 6, 0, 1, 1]);
        assert_eq!(rank(&a, 3, 3), 2);
    }

    #[test]
    fn rank_of_wide_matrix() {
        let a = fm(&[1, 0, 5, 0, 1, 7]);
        assert_eq!(rank(&a, 2, 3), 2);
    }

    proptest! {
        #[test]
        fn prop_solve_then_substitute(seed in any::<u64>(), n in 1usize..6) {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            let matrix: Vec<F25> = (0..n * n)
                .map(|_| F25::from_u64(rng.gen_range(0..F25::MODULUS)))
                .collect();
            let rhs: Vec<F25> = (0..n)
                .map(|_| F25::from_u64(rng.gen_range(0..F25::MODULUS)))
                .collect();
            match solve(&matrix, &rhs, n) {
                Ok(solution) => {
                    let reconstructed: Vec<F25> = matrix
                        .chunks(n)
                        .map(|row| row.iter().zip(&solution).map(|(&a, &x)| a * x).sum())
                        .collect();
                    prop_assert_eq!(reconstructed, rhs);
                }
                Err(LinearSolveError::Singular) => {
                    prop_assert!(rank(&matrix, n, n) < n);
                }
                Err(other) => prop_assert!(false, "unexpected error {other:?}"),
            }
        }
    }
}
