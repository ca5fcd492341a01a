use crate::{DenseMatrix, LinalgError};

/// A `(row, col, value)` entry used to build sparse matrices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triplet {
    /// Row index.
    pub row: usize,
    /// Column index.
    pub col: usize,
    /// Entry value.
    pub value: f64,
}

impl Triplet {
    /// Convenience constructor.
    pub fn new(row: usize, col: usize, value: f64) -> Self {
        Triplet { row, col, value }
    }
}

/// Compressed sparse row matrix over `f64`.
///
/// Used to hold large, very sparse binary connection matrices (the paper's
/// testbenches are > 93 % sparse) without densifying. Duplicate triplets
/// are summed during construction; explicit zeros are dropped.
///
/// # Examples
///
/// ```
/// use ncs_linalg::{CsrMatrix, Triplet};
///
/// # fn main() -> Result<(), ncs_linalg::LinalgError> {
/// let m = CsrMatrix::from_triplets(2, 3, &[
///     Triplet::new(0, 1, 2.0),
///     Triplet::new(1, 2, 3.0),
/// ])?;
/// assert_eq!(m.get(0, 1), 2.0);
/// assert_eq!(m.get(0, 0), 0.0);
/// assert_eq!(m.nnz(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from triplets, summing duplicates and dropping
    /// resulting zeros.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if any triplet index is
    /// out of bounds.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[Triplet],
    ) -> Result<Self, LinalgError> {
        for t in triplets {
            if t.row >= rows || t.col >= cols {
                return Err(LinalgError::DimensionMismatch {
                    expected: (rows, cols),
                    found: (t.row, t.col),
                });
            }
        }
        let mut sorted: Vec<Triplet> = triplets.to_vec();
        sorted.sort_by_key(|a| (a.row, a.col));
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut iter = sorted.into_iter().peekable();
        while let Some(first) = iter.next() {
            let mut value = first.value;
            while let Some(next) = iter.peek() {
                if next.row == first.row && next.col == first.col {
                    value += next.value;
                    iter.next();
                } else {
                    break;
                }
            }
            // ncs-lint: allow(float-eq) — duplicates that sum to exactly zero are dropped
            if value != 0.0 {
                row_ptr[first.row + 1] += 1;
                col_idx.push(first.col);
                values.push(value);
            }
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Builds a CSR matrix from a dense one, dropping entries with
    /// `|v| <= tol`. Rows arrive pre-sorted, so the CSR arrays are built
    /// directly — no triplet round-trip, no fallible index validation.
    pub fn from_dense(m: &DenseMatrix, tol: f64) -> Self {
        let mut row_ptr = Vec::with_capacity(m.nrows() + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for i in 0..m.nrows() {
            for j in 0..m.ncols() {
                if m[(i, j)].abs() > tol {
                    col_idx.push(j);
                    values.push(m[(i, j)]);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            rows: m.nrows(),
            cols: m.ncols(),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Starts a direct row-major build with `nnz_hint` entries
    /// pre-reserved. See [`CsrBuilder`].
    pub fn builder(rows: usize, cols: usize, nnz_hint: usize) -> CsrBuilder {
        CsrBuilder::with_capacity(rows, cols, nnz_hint)
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structurally nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Entry lookup; returns 0.0 for entries not stored.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row},{col}) out of bounds"
        );
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        match self.col_idx[lo..hi].binary_search(&col) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Iterator over `(col, value)` pairs of a row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= nrows()`.
    pub fn row_entries(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(row < self.rows, "row {row} out of bounds");
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Iterator over all stored entries as triplets.
    pub fn iter(&self) -> impl Iterator<Item = Triplet> + '_ {
        (0..self.rows)
            .flat_map(move |r| self.row_entries(r).map(move |(c, v)| Triplet::new(r, c, v)))
    }

    /// Sparse matrix-vector product.
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
        let mut out = vec![0.0; self.rows];
        self.matvec_into(v, &mut out);
        Ok(out)
    }

    /// Infallible matrix–vector product into a caller-provided buffer.
    /// Skips the allocation and the `Result` of [`CsrMatrix::matvec`] for
    /// hot loops (e.g. one call per Lanczos iteration) where the shapes
    /// are fixed by construction.
    ///
    /// Each row is one ascending dot product over its stored entries.
    ///
    /// # Panics
    ///
    /// Panics (via slice indexing) if `v` is shorter than `ncols()` or
    /// `out` is shorter than `nrows()`.
    // ncs-lint: hot
    pub fn matvec_into(&self, v: &[f64], out: &mut [f64]) {
        for (r, slot) in out[..self.rows].iter_mut().enumerate() {
            *slot = self.row_entries(r).map(|(c, val)| val * v[c]).sum();
        }
    }

    /// Row sums — for a graph adjacency matrix these are the node degrees.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|r| self.row_entries(r).map(|(_, v)| v).sum())
            .collect()
    }

    /// Converts to a dense matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(self.rows, self.cols);
        for t in self.iter() {
            m[(t.row, t.col)] = t.value;
        }
        m
    }
}

/// Direct row-major CSR construction without the triplet round-trip.
///
/// [`CsrMatrix::from_triplets`] sorts its input (O(nnz log nnz) plus a
/// second copy of every entry); when the producer already walks entries
/// in row-major, column-ascending order — e.g. a word-level scan over a
/// bit-packed connection matrix — this builder appends straight into the
/// CSR arrays in O(nnz).
///
/// # Examples
///
/// ```
/// use ncs_linalg::CsrMatrix;
///
/// let mut b = CsrMatrix::builder(2, 3, 2);
/// b.push(1, 2.0); // row 0
/// b.finish_row();
/// b.push(2, 3.0); // row 1
/// b.finish_row();
/// let m = b.finish();
/// assert_eq!(m.get(0, 1), 2.0);
/// assert_eq!(m.nnz(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrBuilder {
    /// Starts a build for a `rows × cols` matrix, reserving room for
    /// `nnz_hint` entries up front so pushes never reallocate when the
    /// caller knows the count (degrees of a bitset are a popcount away).
    pub fn with_capacity(rows: usize, cols: usize, nnz_hint: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        CsrBuilder {
            rows,
            cols,
            row_ptr,
            col_idx: Vec::with_capacity(nnz_hint),
            values: Vec::with_capacity(nnz_hint),
        }
    }

    /// Appends an entry to the current (unfinished) row.
    ///
    /// # Panics
    ///
    /// Panics if all rows are already finished, `col` is out of bounds,
    /// or `col` does not strictly increase within the row — the builder
    /// exists for producers that are already row-major and sorted, so a
    /// violation is a logic error, not a data condition.
    pub fn push(&mut self, col: usize, value: f64) {
        assert!(
            self.row_ptr.len() <= self.rows,
            "all {} rows already finished",
            self.rows
        );
        assert!(col < self.cols, "column {col} out of bounds");
        // `row_ptr` starts with one sentinel entry and only ever grows.
        let row_start = self.row_ptr[self.row_ptr.len() - 1];
        if self.col_idx.len() > row_start {
            let prev = self.col_idx[self.col_idx.len() - 1];
            assert!(prev < col, "columns must strictly increase within a row");
        }
        self.col_idx.push(col);
        self.values.push(value);
    }

    /// Closes the current row (also used for empty rows).
    ///
    /// # Panics
    ///
    /// Panics if all rows are already finished.
    pub fn finish_row(&mut self) {
        assert!(
            self.row_ptr.len() <= self.rows,
            "all {} rows already finished",
            self.rows
        );
        self.row_ptr.push(self.col_idx.len());
    }

    /// Finalizes the matrix.
    ///
    /// # Panics
    ///
    /// Panics unless exactly `rows` rows were finished.
    pub fn finish(self) -> CsrMatrix {
        assert!(
            self.row_ptr.len() == self.rows + 1,
            "finished {} of {} rows",
            self.row_ptr.len() - 1,
            self.rows
        );
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr: self.row_ptr,
            col_idx: self.col_idx,
            values: self.values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_lookup() {
        let m = CsrMatrix::from_triplets(
            3,
            3,
            &[
                Triplet::new(0, 0, 1.0),
                Triplet::new(2, 1, 4.0),
                Triplet::new(0, 2, 2.0),
            ],
        )
        .unwrap();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(2, 1), 4.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn duplicates_are_summed_and_zeros_dropped() {
        let m = CsrMatrix::from_triplets(
            2,
            2,
            &[
                Triplet::new(0, 0, 1.0),
                Triplet::new(0, 0, 2.0),
                Triplet::new(1, 1, 3.0),
                Triplet::new(1, 1, -3.0),
            ],
        )
        .unwrap();
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.nnz(), 1, "cancelled entries are not stored");
    }

    #[test]
    fn out_of_bounds_triplet_rejected() {
        assert!(CsrMatrix::from_triplets(2, 2, &[Triplet::new(2, 0, 1.0)]).is_err());
    }

    #[test]
    fn matvec_matches_dense() {
        let m = CsrMatrix::from_triplets(
            2,
            3,
            &[
                Triplet::new(0, 1, 2.0),
                Triplet::new(1, 0, 1.0),
                Triplet::new(1, 2, -1.0),
            ],
        )
        .unwrap();
        let v = [1.0, 2.0, 3.0];
        let sparse = m.matvec(&v).unwrap();
        let dense = m.to_dense().matvec(&v).unwrap();
        assert_eq!(sparse, dense);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn dense_roundtrip() {
        let d = DenseMatrix::from_rows(&[&[0.0, 1.5][..], &[2.5, 0.0][..]]).unwrap();
        let s = CsrMatrix::from_dense(&d, 0.0);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn row_sums_are_degrees() {
        let m = CsrMatrix::from_triplets(
            2,
            2,
            &[
                Triplet::new(0, 0, 1.0),
                Triplet::new(0, 1, 1.0),
                Triplet::new(1, 0, 1.0),
            ],
        )
        .unwrap();
        assert_eq!(m.row_sums(), vec![2.0, 1.0]);
    }

    #[test]
    fn builder_matches_from_triplets() {
        let trips = [
            Triplet::new(0, 1, 2.0),
            Triplet::new(0, 4, -1.0),
            Triplet::new(2, 0, 5.0),
        ];
        let reference = CsrMatrix::from_triplets(4, 5, &trips).unwrap();
        let mut b = CsrMatrix::builder(4, 5, trips.len());
        b.push(1, 2.0);
        b.push(4, -1.0);
        b.finish_row();
        b.finish_row(); // row 1 empty
        b.push(0, 5.0);
        b.finish_row();
        b.finish_row(); // row 3 empty
        assert_eq!(b.finish(), reference);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn builder_rejects_unsorted_columns() {
        let mut b = CsrMatrix::builder(1, 5, 2);
        b.push(3, 1.0);
        b.push(1, 1.0);
    }

    #[test]
    #[should_panic(expected = "rows")]
    fn builder_rejects_unfinished_rows() {
        let b = CsrMatrix::builder(2, 2, 0);
        let _ = b.finish();
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn builder_rejects_out_of_bounds_column() {
        let mut b = CsrMatrix::builder(1, 2, 0);
        b.push(2, 1.0);
    }

    #[test]
    fn iter_yields_all_entries_in_row_order() {
        let trips = [Triplet::new(1, 0, 5.0), Triplet::new(0, 1, 3.0)];
        let m = CsrMatrix::from_triplets(2, 2, &trips).unwrap();
        let collected: Vec<Triplet> = m.iter().collect();
        assert_eq!(
            collected,
            vec![Triplet::new(0, 1, 3.0), Triplet::new(1, 0, 5.0)]
        );
    }
}
