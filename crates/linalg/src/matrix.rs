use std::fmt;
use std::ops::{Index, IndexMut};

use crate::LinalgError;

/// A dense, row-major `f64` matrix.
///
/// This is the workhorse container for the spectral embedding (`U` matrices
/// whose columns are eigenvectors) and for small dense kernels. It favours
/// simplicity and cache-friendly row access over BLAS-level performance;
/// the largest dense matrices in the AutoNCS flow are `n × n` for networks
/// of a few hundred neurons.
///
/// # Examples
///
/// ```
/// use ncs_linalg::DenseMatrix;
///
/// let mut m = DenseMatrix::zeros(2, 3);
/// m[(0, 2)] = 5.0;
/// assert_eq!(m[(0, 2)], 5.0);
/// assert_eq!(m.shape(), (2, 3));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates an `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// ```
    /// use ncs_linalg::DenseMatrix;
    /// let i = DenseMatrix::identity(3);
    /// assert_eq!(i[(1, 1)], 1.0);
    /// assert_eq!(i[(0, 1)], 0.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for zero rows and
    /// [`LinalgError::RaggedRows`] if rows have unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::Empty);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::RaggedRows { row: i });
            }
            data.extend_from_slice(r);
        }
        Ok(DenseMatrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                expected: (rows, cols),
                found: (data.len(), 1),
            });
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow of row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= ncols()`.
    pub fn column(&self, j: usize) -> Vec<f64> {
        assert!(
            j < self.cols,
            "column {j} out of bounds for {} cols",
            self.cols
        );
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// The underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage (rows are
    /// contiguous runs of `ncols()` elements) — the entry point for
    /// kernels that work on strips of whole rows.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns the row-major storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `v.len() != ncols()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.cols, 1),
                found: (v.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Checks numeric symmetry within tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Maximum absolute entry (0.0 for an all-zero matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{}", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            let row = self.row(i);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:10.4}")).collect();
            let ellipsis = if self.cols > 8 { " ..." } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_index() {
        let mut m = DenseMatrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        m[(2, 3)] = 7.5;
        assert_eq!(m[(2, 3)], 7.5);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = DenseMatrix::from_rows(&[&[1.0, 2.0][..], &[3.0][..]]).unwrap_err();
        assert_eq!(err, LinalgError::RaggedRows { row: 1 });
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert_eq!(DenseMatrix::from_rows(&[]).unwrap_err(), LinalgError::Empty);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0][..], &[4.0, 5.0, 6.0][..]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matvec_known() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]).unwrap();
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn symmetry_check() {
        let s = DenseMatrix::from_rows(&[&[1.0, 2.0][..], &[2.0, 1.0][..]]).unwrap();
        assert!(s.is_symmetric(0.0));
        let ns = DenseMatrix::from_rows(&[&[1.0, 2.0][..], &[2.5, 1.0][..]]).unwrap();
        assert!(!ns.is_symmetric(1e-9));
        assert!(ns.is_symmetric(1.0));
        assert!(!DenseMatrix::zeros(2, 3).is_symmetric(1.0));
    }

    #[test]
    fn norms() {
        let m = DenseMatrix::from_rows(&[&[3.0, -4.0][..]]).unwrap();
        assert_eq!(m.max_abs(), 4.0);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn row_and_column_access() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]).unwrap();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.column(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        DenseMatrix::zeros(1, 1).row(1);
    }

    #[test]
    fn display_is_nonempty() {
        let s = DenseMatrix::identity(2).to_string();
        assert!(s.contains("DenseMatrix 2x2"));
    }
}
