//! A row-major dense matrix container.
//!
//! [`Matrix`] is deliberately minimal: it stores elements contiguously in
//! row-major order and exposes the partitioning operations the coding layer
//! needs (cutting a dataset into `K` row bands) plus simple accessors.
//! Numeric kernels live in [`crate::field_ops`] and [`crate::real_ops`] so
//! that the container itself stays element-type agnostic.
//!
//! # Shared storage
//!
//! A matrix is a band of consecutive rows of a reference-counted buffer.
//! [`Matrix::from_vec`] takes its `Vec` without copying it, and
//! [`Clone`] and [`Matrix::row_slice`] are O(1): they hand out another view
//! of the same buffer. That is how the systematic shares of a code are the
//! data itself (Yu et al., *Lagrange Coded Computing*: at the data points
//! worker `k`'s share *is* block `X_k`) rather than a copy of it.
//!
//! [`Matrix::set`], the only mutator, copies on write: a matrix that shares
//! its buffer first copies its own rows into a buffer of its own, so no
//! write is ever seen through another view. Equality and `Debug` read the
//! rows a view covers, never where they are stored.
//!
//! A view keeps its **whole** parent buffer alive, however few rows it
//! covers: hold a small band of a large temporary only as long as the
//! temporary would have lived anyway.

use std::fmt;
use std::sync::Arc;

/// Output rows per band of [`Matrix::transpose`]: 16 elements of 8 bytes
/// are two cache lines of each input row, and 16 output lines fill at once.
const TRANSPOSE_BAND: usize = 16;

/// A dense row-major matrix: rows `first..first + rows` of a shared
/// row-major buffer of `cols`-wide rows (see the module docs).
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    first: usize,
    storage: Arc<Vec<T>>,
}

impl<T: Copy + Default> Matrix<T> {
    /// Creates a `rows × cols` matrix filled with `T::default()`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix::from_vec(rows, cols, vec![T::default(); rows * cols])
    }
}

impl<T> Matrix<T> {
    /// Builds a matrix from a row-major data vector, taking the vector as
    /// its storage without copying it.
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
        Matrix {
            rows,
            cols,
            first: 0,
            storage: Arc::new(data),
        }
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
        self.rows * self.cols
    }

    /// `true` iff the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The underlying row-major data slice.
    pub fn data(&self) -> &[T] {
        let start = self.first * self.cols;
        &self.storage[start..start + self.len()]
    }

    /// A view of row `i`.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[T] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data()[i * self.cols..(i + 1) * self.cols]
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
        &self.data()[i * self.cols + j]
    }

    /// Iterates over the rows as slices: exactly [`rows`](Self::rows) of
    /// them, empty ones for a zero-column matrix.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[T]> {
        let data = self.data();
        (0..self.rows).map(move |i| &data[i * self.cols..(i + 1) * self.cols])
    }

    /// A view of the rows `[start, end)`: O(1), sharing this matrix's
    /// storage (and keeping all of it alive; see the module docs).
    ///
    /// # Panics
    /// Panics unless `start <= end <= rows`.
    pub fn row_slice(&self, start: usize, end: usize) -> Matrix<T> {
        assert!(
            start <= end && end <= self.rows,
            "invalid row range {start}..{end}"
        );
        Matrix {
            rows: end - start,
            cols: self.cols,
            first: self.first + start,
            storage: Arc::clone(&self.storage),
        }
    }
}

impl<T: Clone> Matrix<T> {
    /// Sets element `(i, j)`. Copy on write: a matrix whose storage another
    /// view shares first copies its own rows into storage of its own.
    pub fn set(&mut self, i: usize, j: usize, value: T) {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        if Arc::get_mut(&mut self.storage).is_none() {
            *self = Matrix::from_vec(self.rows, self.cols, self.data().to_vec());
        }
        let at = (self.first + i) * self.cols + j;
        Arc::make_mut(&mut self.storage)[at] = value;
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
        let Some(&fill) = self.data().first() else {
            return Matrix::from_vec(cols, rows, Vec::new());
        };
        let mut data = vec![fill; self.len()];
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
        Matrix::from_vec(cols, rows, data)
    }

    /// Maps every element through `f`, producing a matrix of a new type.
    pub fn map<U, G: FnMut(T) -> U>(&self, mut f: G) -> Matrix<U> {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data().iter().map(|&x| f(x)).collect(),
        )
    }
}

/// O(1): another view of the same storage (see the module docs).
impl<T> Clone for Matrix<T> {
    fn clone(&self) -> Self {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            first: self.first,
            storage: Arc::clone(&self.storage),
        }
    }
}

/// Equal shapes and equal elements, wherever each view's rows are stored.
impl<T: PartialEq> PartialEq for Matrix<T> {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.data() == other.data()
    }
}

impl<T: Eq> Eq for Matrix<T> {}

/// The shape and the elements, as the rows a view covers.
impl<T: fmt::Debug> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Matrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("data", &self.data())
            .finish()
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
    fn set_copies_on_write_and_leaves_every_other_view_unchanged() {
        // On the clone: the parent keeps its element and its storage.
        let parent = sample();
        let mut copy = parent.clone();
        copy.set(1, 2, 60);
        assert_eq!(parent, sample());
        assert_eq!(copy.data(), &[1, 2, 3, 4, 5, 60]);
        assert!(!Arc::ptr_eq(&parent.storage, &copy.storage));
        // On the parent: the band view keeps the old row.
        let mut parent = sample();
        let band = parent.row_slice(1, 2);
        parent.set(1, 0, 40);
        assert_eq!(band.data(), &[4, 5, 6]);
        assert_eq!(parent.row(1), &[40, 5, 6]);
        // On the band: it copies only its own rows, at its own offsets.
        let parent = sample();
        let mut band = parent.row_slice(1, 2);
        band.set(0, 1, 50);
        assert_eq!(band, Matrix::from_vec(1, 3, vec![4, 50, 6]));
        assert_eq!(band.storage.len(), 3);
        assert_eq!(parent, sample());
        // Unshared storage is written in place.
        let mut only = sample();
        let before = only.data().as_ptr();
        only.set(0, 0, 10);
        assert_eq!(only.data().as_ptr(), before);
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
        // A band of a band is a band of the parent.
        assert_eq!(m.row_slice(1, 4).row_slice(1, 3).data(), &[30, 40]);
    }

    #[test]
    fn clones_and_row_slices_are_views_of_one_storage() {
        let data = (0..12).collect::<Vec<i64>>();
        let at = data.as_ptr();
        let m = Matrix::from_vec(4, 3, data);
        assert_eq!(m.data().as_ptr(), at, "from_vec keeps its vector");
        let copy = m.clone();
        assert!(Arc::ptr_eq(&m.storage, &copy.storage));
        assert_eq!(copy.data().as_ptr(), at);
        let band = m.row_slice(1, 3);
        assert!(Arc::ptr_eq(&m.storage, &band.storage));
        assert_eq!(band.data(), &m.data()[3..9]);
        assert_eq!(band.data().as_ptr(), m.data()[3..].as_ptr());
        assert_eq!(band.row(1), m.row(2));
        assert_eq!(band.rows_iter().count(), 2);
    }

    #[test]
    fn equality_and_debug_read_the_rows_not_where_they_are_stored() {
        // Rows 0..2 and 2..4 of one buffer hold the same elements.
        let m = Matrix::from_vec(4, 2, vec![1, 2, 3, 4, 1, 2, 3, 4]);
        let (top, bottom) = (m.row_slice(0, 2), m.row_slice(2, 4));
        assert_eq!(top, bottom);
        assert_eq!(top, Matrix::from_vec(2, 2, vec![1, 2, 3, 4]));
        assert_ne!(top, m.row_slice(1, 3));
        assert_eq!(format!("{top:?}"), format!("{bottom:?}"));
        assert_eq!(
            format!("{top:?}"),
            "Matrix { rows: 2, cols: 2, data: [1, 2, 3, 4] }"
        );
        // Same elements, different shape: not equal.
        assert_ne!(top, Matrix::from_vec(1, 4, vec![1, 2, 3, 4]));
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
