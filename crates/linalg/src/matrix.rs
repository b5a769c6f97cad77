//! A row-major dense matrix container.
//!
//! [`Matrix`] is deliberately minimal: it stores elements contiguously in
//! row-major order and exposes the partitioning operations the coding layer
//! needs (splitting a dataset into `K` row blocks) plus simple accessors.
//! Numeric kernels live in [`crate::field_ops`] and [`crate::real_ops`] so
//! that the container itself stays element-type agnostic.

/// Output rows per band of [`Matrix::transpose`]: 16 elements of 8 bytes
/// are two cache lines of each input row, and 16 output lines fill at once.
const TRANSPOSE_BAND: usize = 16;

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Matrix<T> {
    /// Creates a `rows × cols` matrix filled with `T::default()`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::default(); rows * cols],
        }
    }
}

impl<T> Matrix<T> {
    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` iff the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying row-major data slice.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// A view of row `i`.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[T] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element accessor.
    ///
    /// # Panics
    /// Panics on out-of-bounds indices.
    pub fn get(&self, i: usize, j: usize) -> &T {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }

    /// Sets element `(i, j)`.
    pub fn set(&mut self, i: usize, j: usize, value: T) {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        self.data[i * self.cols + j] = value;
    }

    /// Iterates over the rows as slices: exactly [`rows`](Self::rows) of
    /// them, empty ones for a zero-column matrix.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[T]> {
        (0..self.rows).map(move |i| &self.data[i * self.cols..(i + 1) * self.cols])
    }
}

impl<T: Copy> Matrix<T> {
    /// Returns the transpose.
    ///
    /// Written one band of 16 output rows at a time: each input row gives
    /// the band a contiguous run, and the band's rows fill together, so every
    /// input and output cache line is touched once — where reading whole
    /// columns walks the input `cols` elements apart.
    pub fn transpose(&self) -> Matrix<T> {
        let (rows, cols) = (self.rows, self.cols);
        let Some(&fill) = self.data.first() else {
            return Matrix {
                rows: cols,
                cols: rows,
                data: Vec::new(),
            };
        };
        let mut data = vec![fill; self.data.len()];
        // Output rows `j0..j0 + width` are input columns `j0..j0 + width`.
        for (band, out) in data.chunks_mut(TRANSPOSE_BAND * rows).enumerate() {
            let j0 = band * TRANSPOSE_BAND;
            let width = out.len() / rows;
            for (i, row) in self.rows_iter().enumerate() {
                for (out_row, &value) in out.chunks_exact_mut(rows).zip(&row[j0..j0 + width]) {
                    out_row[i] = value;
                }
            }
        }
        Matrix {
            rows: cols,
            cols: rows,
            data,
        }
    }

    /// Returns a copy of the sub-matrix consisting of rows `[start, end)`.
    pub fn row_slice(&self, start: usize, end: usize) -> Matrix<T> {
        assert!(
            start <= end && end <= self.rows,
            "invalid row range {start}..{end}"
        );
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Maps every element through `f`, producing a matrix of a new type.
    pub fn map<U, G: FnMut(T) -> U>(&self, mut f: G) -> Matrix<U> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix<i64> {
        Matrix::from_vec(2, 3, vec![1, 2, 3, 4, 5, 6])
    }

    #[test]
    fn construction_and_accessors() {
        let m = sample();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.len(), 6);
        assert_eq!(*m.get(0, 2), 3);
        assert_eq!(*m.get(1, 0), 4);
        assert_eq!(m.row(1), &[4, 5, 6]);
    }

    #[test]
    fn zeros_is_default_filled() {
        let m: Matrix<i64> = Matrix::zeros(2, 2);
        assert!(m.data().iter().all(|&x| x == 0));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn wrong_data_length_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1, 2, 3]);
    }

    #[test]
    fn set_and_get_round_trip() {
        let mut m = sample();
        m.set(0, 1, 99);
        assert_eq!(*m.get(0, 1), 99);
    }

    #[test]
    fn transpose_swaps_dimensions_and_entries() {
        let t = sample().transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(*t.get(2, 0), 3);
        assert_eq!(*t.get(0, 1), 4);
        assert_eq!(t.transpose(), sample());
    }

    #[test]
    fn transpose_matches_the_element_definition() {
        for (rows, cols) in [
            (0, 0),
            (0, 5),
            (5, 0),
            (1, 7),
            (1, 40),
            (33, 65),
            (1800, 261),
        ] {
            let m = Matrix::from_vec(rows, cols, (0..rows * cols).map(|x| x as u64).collect());
            let t = m.transpose();
            assert_eq!((t.rows(), t.cols()), (cols, rows));
            for i in 0..rows {
                for j in 0..cols {
                    assert_eq!(t.get(j, i), m.get(i, j), "({i}, {j}) of {rows} x {cols}");
                }
            }
        }
    }

    #[test]
    fn row_slice_extracts_range() {
        let m = Matrix::from_vec(4, 1, vec![10, 20, 30, 40]);
        assert_eq!(m.row_slice(1, 3), Matrix::from_vec(2, 1, vec![20, 30]));
        assert_eq!(m.row_slice(2, 2).rows(), 0);
    }

    #[test]
    fn map_changes_element_type() {
        let m = sample().map(|x| x as f64 * 0.5);
        assert_eq!(*m.get(1, 2), 3.0);
    }

    #[test]
    fn rows_iter_yields_all_rows() {
        let m = sample();
        let rows: Vec<&[i64]> = m.rows_iter().collect();
        assert_eq!(rows, vec![&[1, 2, 3][..], &[4, 5, 6][..]]);
    }

    #[test]
    fn rows_iter_yields_every_row_of_a_degenerate_matrix() {
        for (rows, cols) in [(0usize, 0usize), (3, 0), (0, 3)] {
            let m: Matrix<i64> = Matrix::zeros(rows, cols);
            let yielded: Vec<&[i64]> = m.rows_iter().collect();
            assert_eq!(yielded.len(), rows, "{rows} x {cols}");
            assert!(yielded.iter().all(|row| row.len() == cols));
        }
    }
}
