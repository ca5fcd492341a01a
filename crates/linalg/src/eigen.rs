use crate::{DenseMatrix, LinalgError};

/// Full eigendecomposition of a real symmetric matrix.
///
/// Implements the classic EISPACK pair `tred2` (Householder reduction to
/// tridiagonal form with accumulation of the orthogonal transform) and
/// `tql2` (implicit-shift QL iteration). Eigenvalues are returned in
/// ascending order; the `i`-th column of [`SymmetricEigen::eigenvectors`]
/// is the unit eigenvector for the `i`-th eigenvalue.
///
/// This is exactly the kernel that the MSC step of AutoNCS needs: the
/// spectral embedding uses the eigenvectors of the graph Laplacian
/// corresponding to the *smallest* eigenvalues, i.e. the first `k` columns.
///
/// # Examples
///
/// ```
/// use ncs_linalg::{DenseMatrix, SymmetricEigen};
///
/// # fn main() -> Result<(), ncs_linalg::LinalgError> {
/// // Path-graph Laplacian on 3 nodes: eigenvalues 0, 1, 3.
/// let l = DenseMatrix::from_rows(&[
///     &[1.0, -1.0, 0.0][..],
///     &[-1.0, 2.0, -1.0][..],
///     &[0.0, -1.0, 1.0][..],
/// ])?;
/// let eig = SymmetricEigen::new(&l)?;
/// assert!(eig.eigenvalues()[0].abs() < 1e-10);
/// assert!((eig.eigenvalues()[1] - 1.0).abs() < 1e-10);
/// assert!((eig.eigenvalues()[2] - 3.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    eigenvalues: Vec<f64>,
    eigenvectors: DenseMatrix,
}

impl SymmetricEigen {
    /// Maximum QL iterations per eigenvalue before reporting failure.
    const MAX_ITER: usize = 64;

    /// Computes the eigendecomposition of a symmetric matrix `a`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] / [`LinalgError::Empty`] for bad shapes.
    /// * [`LinalgError::NotSymmetric`] if `a` deviates from symmetry by more
    ///   than `1e-8 * max_abs`.
    /// * [`LinalgError::NoConvergence`] if QL iteration stalls (essentially
    ///   never happens for well-formed input).
    pub fn new(a: &DenseMatrix) -> Result<Self, LinalgError> {
        let (r, c) = a.shape();
        if r == 0 || c == 0 {
            return Err(LinalgError::Empty);
        }
        if r != c {
            return Err(LinalgError::NotSquare { shape: (r, c) });
        }
        let tol = 1e-8 * a.max_abs().max(1.0);
        for i in 0..r {
            for j in (i + 1)..r {
                if (a[(i, j)] - a[(j, i)]).abs() > tol {
                    return Err(LinalgError::NotSymmetric { at: (i, j) });
                }
            }
        }
        // Work on the symmetrized copy so that tiny asymmetries cannot bias
        // the reduction.
        let n = r;
        let mut z = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                z[(i, j)] = 0.5 * (a[(i, j)] + a[(j, i)]);
            }
        }
        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n];
        tred2(&mut z, &mut d, &mut e);
        let sweeps = tql2(&mut z, &mut d, &mut e)?;
        ncs_trace::record("eigen.ql_sweeps", sweeps as u64);
        // Sort ascending, permuting eigenvector columns accordingly.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| d[i].total_cmp(&d[j]));
        let mut values = Vec::with_capacity(n);
        let mut vectors = DenseMatrix::zeros(n, n);
        for (new_j, &old_j) in order.iter().enumerate() {
            values.push(d[old_j]);
            for i in 0..n {
                vectors[(i, new_j)] = z[(i, old_j)];
            }
        }
        Ok(SymmetricEigen {
            eigenvalues: values,
            eigenvectors: vectors,
        })
    }

    /// Eigenvalues in ascending order.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Orthogonal matrix whose `i`-th column is the eigenvector for
    /// `eigenvalues()[i]`.
    pub fn eigenvectors(&self) -> &DenseMatrix {
        &self.eigenvectors
    }

    /// Consumes the decomposition, returning `(eigenvalues, eigenvectors)`.
    pub fn into_parts(self) -> (Vec<f64>, DenseMatrix) {
        (self.eigenvalues, self.eigenvectors)
    }
}

/// Solution of the generalized symmetric eigenproblem `L u = λ D u` with a
/// **diagonal** `D`, as used by normalized spectral clustering (Shi–Malik).
///
/// The problem is whitened into the ordinary symmetric problem
/// `D^{-1/2} L D^{-1/2} v = λ v` with `u = D^{-1/2} v`. Diagonal entries of
/// `D` that are zero (isolated graph nodes) are clamped to 1.0, which leaves
/// the corresponding rows of `L` untouched (they are all-zero anyway) and
/// assigns those nodes eigenvalue 0 — the standard guard in spectral
/// clustering implementations.
///
/// # Examples
///
/// ```
/// use ncs_linalg::{DenseMatrix, GeneralizedEigen};
///
/// # fn main() -> Result<(), ncs_linalg::LinalgError> {
/// // Two disconnected edges: the two smallest generalized eigenvalues are 0.
/// let l = DenseMatrix::from_rows(&[
///     &[1.0, -1.0, 0.0, 0.0][..],
///     &[-1.0, 1.0, 0.0, 0.0][..],
///     &[0.0, 0.0, 1.0, -1.0][..],
///     &[0.0, 0.0, -1.0, 1.0][..],
/// ])?;
/// let d = vec![1.0, 1.0, 1.0, 1.0];
/// let ge = GeneralizedEigen::new(&l, &d)?;
/// assert!(ge.eigenvalues()[0].abs() < 1e-10);
/// assert!(ge.eigenvalues()[1].abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GeneralizedEigen {
    eigenvalues: Vec<f64>,
    eigenvectors: DenseMatrix,
}

impl GeneralizedEigen {
    /// Solves `L u = λ D u` for symmetric `l` and diagonal `d` (given as the
    /// vector of diagonal entries).
    ///
    /// # Errors
    ///
    /// Propagates shape/symmetry errors from [`SymmetricEigen::new`], and
    /// returns [`LinalgError::DimensionMismatch`] if `d.len() != l.nrows()`.
    /// Negative diagonal entries yield [`LinalgError::NotPositive`].
    pub fn new(l: &DenseMatrix, d: &[f64]) -> Result<Self, LinalgError> {
        let n = l.nrows();
        if d.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: (n, 1),
                found: (d.len(), 1),
            });
        }
        if d.iter().any(|&v| v < 0.0) {
            return Err(LinalgError::NotPositive {
                what: "degree matrix diagonal",
            });
        }
        let inv_sqrt: Vec<f64> = d
            .iter()
            .map(|&v| if v > 0.0 { 1.0 / v.sqrt() } else { 1.0 })
            .collect();
        let mut b = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                b[(i, j)] = l[(i, j)] * inv_sqrt[i] * inv_sqrt[j];
            }
        }
        let eig = SymmetricEigen::new(&b)?;
        let (values, mut vectors) = eig.into_parts();
        // Un-whiten: u = D^{-1/2} v, then renormalize columns so callers get
        // a well-scaled embedding.
        for j in 0..n {
            let mut norm = 0.0;
            for i in 0..n {
                vectors[(i, j)] *= inv_sqrt[i];
                norm += vectors[(i, j)] * vectors[(i, j)];
            }
            let norm = norm.sqrt();
            if norm > 0.0 {
                for i in 0..n {
                    vectors[(i, j)] /= norm;
                }
            }
        }
        Ok(GeneralizedEigen {
            eigenvalues: values,
            eigenvectors: vectors,
        })
    }

    /// Generalized eigenvalues in ascending order.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Matrix whose `i`-th column is the generalized eigenvector for
    /// `eigenvalues()[i]`, normalized to unit Euclidean length.
    pub fn eigenvectors(&self) -> &DenseMatrix {
        &self.eigenvectors
    }

    /// The first `k` eigenvector columns as an `n × k` embedding matrix —
    /// exactly the `U` matrix of Algorithm 1 (MSC) in the paper.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the problem dimension.
    pub fn embedding(&self, k: usize) -> DenseMatrix {
        let n = self.eigenvectors.nrows();
        assert!(
            k <= n,
            "requested {k} eigenvectors from a {n}-dimensional problem"
        );
        let mut u = DenseMatrix::zeros(n, k);
        for i in 0..n {
            for j in 0..k {
                u[(i, j)] = self.eigenvectors[(i, j)];
            }
        }
        u
    }
}

/// Rows per fold chunk in the `tred2` accumulation. The chunk grid is
/// part of the numeric contract: each transform column's products are
/// summed per chunk of this many rows, and the chunk partials are folded
/// in ascending chunk order, so this constant determines the rounding of
/// the result.
const TRED2_GRAIN: usize = 32;

/// Householder reduction of a symmetric matrix (stored in `z`) to
/// tridiagonal form; `d` receives the diagonal, `e` the subdiagonal
/// (`e[0]` unused), and `z` is overwritten with the accumulated orthogonal
/// transformation.
///
/// The classic EISPACK sweep updates only the lower triangle; here every
/// rank-2 update is applied to the **full** active block, which keeps the
/// block bit-exactly symmetric (IEEE `+`/`*` are commutative), so the
/// reduction's `A·u` product is a sum along each row ([`row_dots`]).
/// Column `i` of the transform (written at step `i`) lies outside every
/// later active block, so the accumulated transform is unaffected. The
/// accumulation folds each transform column's products in
/// [`TRED2_GRAIN`]-row partials, in ascending order.
// ncs-lint: hot
fn tred2(z: &mut DenseMatrix, d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    if n == 0 {
        return;
    }
    let a = z.as_mut_slice();
    let mut u = vec![0.0; n];
    let mut p = vec![0.0; n];
    // --- Reduction sweep (i descending) ---
    for i in (1..n).rev() {
        let l = i - 1;
        u[..i].copy_from_slice(&a[i * n..i * n + i]);
        let mut h = 0.0;
        if l == 0 {
            e[i] = u[0];
        } else {
            let scale: f64 = u[..i].iter().map(|x| x.abs()).sum();
            // ncs-lint: allow(float-eq) — exact zero means the row is structurally empty (Householder skip)
            if scale == 0.0 {
                e[i] = u[l];
            } else {
                for x in &mut u[..i] {
                    *x /= scale;
                    h += *x * *x;
                }
                let f = u[l];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                u[l] = f - g;
                a[i * n..i * n + i].copy_from_slice(&u[..i]);
                row_dots(a, n, &u[..i], &mut p[..i]);
                for j in 0..i {
                    p[j] /= h;
                    a[j * n + i] = u[j] / h;
                }
                let mut f_acc = 0.0;
                for j in 0..i {
                    f_acc += p[j] * u[j];
                }
                let hh = f_acc / (h + h);
                for j in 0..i {
                    p[j] -= hh * u[j];
                }
                // Full-width symmetric rank-2 update of the active block.
                for j in 0..i {
                    let (uj, pj) = (u[j], p[j]);
                    let row = &mut a[j * n..j * n + i];
                    for ((x, &pk), &uk) in row.iter_mut().zip(&p[..i]).zip(&u[..i]) {
                        *x -= uj * pk + pj * uk;
                    }
                }
            }
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
    // --- Accumulation of the orthogonal transform (i ascending) ---
    // Step i reads row i's Householder vector (columns 0..i) and `d[i]`,
    // neither of which any earlier step touches.
    let mut g = vec![0.0; n];
    let mut partial = vec![0.0; n];
    for i in 0..n {
        // ncs-lint: allow(float-eq) — exact zero marks an untouched transform column
        if d[i] != 0.0 {
            u[..i].copy_from_slice(&a[i * n..i * n + i]);
            // g[j] = Σ_k z[i][k]·z[k][j], summed per TRED2_GRAIN-row
            // chunk of k and folded in ascending chunk order.
            g[..i].fill(0.0);
            for start in (0..i).step_by(TRED2_GRAIN) {
                partial[..i].fill(0.0);
                for k in start..(start + TRED2_GRAIN).min(i) {
                    let uk = u[k];
                    for (s, &x) in partial[..i].iter_mut().zip(&a[k * n..k * n + i]) {
                        *s += x * uk;
                    }
                }
                for (gj, &s) in g[..i].iter_mut().zip(&partial[..i]) {
                    *gj += s;
                }
            }
            for k in 0..i {
                let row = &mut a[k * n..k * n + n];
                let zki = row[i];
                for (x, &gj) in row[..i].iter_mut().zip(&g[..i]) {
                    *x -= gj * zki;
                }
            }
        }
        d[i] = a[i * n + i];
        a[i * n + i] = 1.0;
        a[i * n..i * n + i].fill(0.0);
        for k in 0..i {
            a[k * n + i] = 0.0;
        }
    }
}

/// `p[j] = Σ_k a[j][k]·u[k]` over `k` in `0..u.len()`, for every row `j`
/// of `p` (`a` row-major with row stride `n`). Rows go four at a time as
/// four independent sums, each in ascending `k`: their dependency chains
/// overlap, and every `p[j]` keeps the bits of the plain sequential dot
/// product.
fn row_dots(a: &[f64], n: usize, u: &[f64], p: &mut [f64]) {
    let row = |j: usize| &a[j * n..j * n + u.len()];
    let quads = p.len() / 4 * 4;
    for (q, out) in p[..quads].chunks_exact_mut(4).enumerate() {
        let j = 4 * q;
        let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
        let rows = row(j)
            .iter()
            .zip(row(j + 1))
            .zip(row(j + 2))
            .zip(row(j + 3));
        for ((((&x0, &x1), &x2), &x3), &uk) in rows.zip(u) {
            s0 += x0 * uk;
            s1 += x1 * uk;
            s2 += x2 * uk;
            s3 += x3 * uk;
        }
        out.copy_from_slice(&[s0, s1, s2, s3]);
    }
    for (j, out) in p.iter_mut().enumerate().skip(quads) {
        let mut s = 0.0;
        for (&x, &uk) in row(j).iter().zip(u) {
            s += x * uk;
        }
        *out = s;
    }
}

/// Rows per strip in the `tql2` rotation replay. Each rotation updates
/// two strip-wide lane vectors of the strip's tile, so this sets the
/// vector length of the replay's inner loop. Every row still receives
/// the identical rotation sequence, so the strip width cannot affect
/// result bits.
const TQL2_STRIP_GRAIN: usize = 16;

/// One strip of eigenvector rows held column-major: `tile[c][r]` is
/// column `c` of the strip's row `r`, zero-padded to the full strip
/// width (padding lanes are never stored back).
type StripTile = Vec<[f64; TQL2_STRIP_GRAIN]>;

/// Implicit-shift QL iteration on a tridiagonal matrix `(d, e)` with
/// eigenvector accumulation into `z`.
///
/// The rows of `z` are held column-major in strips of
/// [`TQL2_STRIP_GRAIN`] rows for the whole solve. The scalar recurrence
/// logs each sweep's Givens rotations `(i, s, c)` in order, and every
/// strip replays the sweep as it completes ([`rotate_strip`]), so the
/// log never holds more than one sweep. A rotation touches each row
/// independently (columns `i`/`i+1` of that row only), so replaying the
/// identical sequence per row is exactly the arithmetic of applying
/// each rotation to every row the moment it is formed.
pub(crate) fn tql2(
    z: &mut DenseMatrix,
    d: &mut [f64],
    e: &mut [f64],
) -> Result<usize, LinalgError> {
    let n = d.len();
    if n == 1 {
        return Ok(0);
    }
    let cols = z.ncols();
    let strip_len = TQL2_STRIP_GRAIN * cols;
    let mut tiles: Vec<StripTile> = z
        .as_slice()
        .chunks(strip_len)
        .map(|strip| load_strip(strip, cols))
        .collect();
    let mut log: Vec<(usize, f64, f64)> = Vec::new();
    let sweeps = tql2_kernel(d, e, &mut log, |sweep| {
        for tile in &mut tiles {
            rotate_strip(tile, sweep);
        }
        sweep.clear();
    })?;
    for (strip, tile) in z.as_mut_slice().chunks_mut(strip_len).zip(&tiles) {
        store_strip(tile, strip, cols);
    }
    Ok(sweeps)
}

/// Copies a strip of whole rows of width `cols` into a [`StripTile`].
fn load_strip(strip: &[f64], cols: usize) -> StripTile {
    let mut tile = vec![[0.0; TQL2_STRIP_GRAIN]; cols];
    for (r, row) in strip.chunks_exact(cols).enumerate() {
        for (lanes, &v) in tile.iter_mut().zip(row) {
            lanes[r] = v;
        }
    }
    tile
}

/// Copies a [`StripTile`] back into its strip of rows.
fn store_strip(tile: &StripTile, strip: &mut [f64], cols: usize) {
    for (r, row) in strip.chunks_exact_mut(cols).enumerate() {
        for (lanes, v) in tile.iter().zip(row) {
            *v = lanes[r];
        }
    }
}

/// Applies Givens rotations, in order, to a strip: each rotation updates
/// two fixed-width lane vectors (columns `i` and `i + 1` of every row in
/// the strip), instead of every row replaying the rotations as one
/// serial chain of dependent updates. Per element the arithmetic is the
/// row replay's, in the same order.
// ncs-lint: hot
fn rotate_strip(tile: &mut StripTile, rotations: &[(usize, f64, f64)]) {
    for &(i, s, c) in rotations {
        let (left, right) = tile.split_at_mut(i + 1);
        let (x, y) = (&mut left[i], &mut right[0]);
        for k in 0..TQL2_STRIP_GRAIN {
            let f = y[k];
            y[k] = s * x[k] + c * f;
            x[k] = c * x[k] - s * f;
        }
    }
}

/// The scalar QL recurrence: appends every Givens rotation `(i, s, c)`
/// it performs to `log`, in order, and hands the log to `sweep_done`
/// after each sweep. Whoever clears the log must first have applied its
/// rotations to columns `(i, i + 1)` of the eigenvector rows. Returns the
/// total number of QL sweeps performed — a pure function of the input
/// bits.
///
/// Splitting uses the local test `|e[m]| ≤ ε(|d[m]| + |d[m+1]|)`. Inside
/// a block of near-zero diagonals that test can never fire (ISC's
/// remainders with many isolated neurons produce such blocks), so when
/// an eigenvalue exhausts [`SymmetricEigen::MAX_ITER`] sweeps the split
/// falls back to EISPACK's norm-relative test `|e[m]| ≤ ε·max_k(|d_k| +
/// |e_k|)` for the rest of the decomposition, with another `MAX_ITER`
/// sweeps before failing. Inputs that converge under the local test
/// never reach the fallback, so their bits are unchanged by it.
fn tql2_kernel(
    d: &mut [f64],
    e: &mut [f64],
    log: &mut Vec<(usize, f64, f64)>,
    mut sweep_done: impl FnMut(&mut Vec<(usize, f64, f64)>),
) -> Result<usize, LinalgError> {
    let n = d.len();
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    let mut sweeps = 0;
    // ε·‖T‖ once the norm-relative fallback is engaged.
    let mut norm_tol: Option<f64> = None;
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small subdiagonal element to split the problem.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd || norm_tol.is_some_and(|t| e[m].abs() <= t) {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > SymmetricEigen::MAX_ITER {
                if norm_tol.is_some() {
                    return Err(LinalgError::NoConvergence {
                        kernel: "tql2",
                        iterations: iter,
                    });
                }
                let norm = d
                    .iter()
                    .zip(e.iter())
                    .map(|(dk, ek)| dk.abs() + ek.abs())
                    .fold(0.0, f64::max);
                norm_tol = Some(f64::EPSILON * norm);
                iter = 0;
                continue;
            }
            sweeps += 1;
            // Form the implicit Wilkinson shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            let sign_r = if g >= 0.0 { r.abs() } else { -r.abs() };
            g = d[m] - d[l] + e[l] / (g + sign_r);
            let (mut s, mut c) = (1.0, 1.0);
            let mut p = 0.0;
            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                // ncs-lint: allow(float-eq) — exact underflow triggers the deflation recovery path
                if r == 0.0 {
                    // Deflate: recover from underflow and restart this l.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                log.push((i, s, c));
            }
            sweep_done(log);
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(sweeps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &DenseMatrix, eig: &SymmetricEigen) -> f64 {
        let n = a.nrows();
        let mut worst = 0.0_f64;
        for j in 0..n {
            let v = eig.eigenvectors().column(j);
            let av = a.matvec(&v).unwrap();
            let lam = eig.eigenvalues()[j];
            for i in 0..n {
                worst = worst.max((av[i] - lam * v[i]).abs());
            }
        }
        worst
    }

    #[test]
    fn one_by_one() {
        let a = DenseMatrix::from_rows(&[&[4.2][..]]).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert_eq!(eig.eigenvalues(), &[4.2]);
        assert!((eig.eigenvectors()[(0, 0)].abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_by_two_known() {
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0][..], &[1.0, 2.0][..]]).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert!((eig.eigenvalues()[0] - 1.0).abs() < 1e-12);
        assert!((eig.eigenvalues()[1] - 3.0).abs() < 1e-12);
        assert!(residual(&a, &eig) < 1e-10);
    }

    #[test]
    fn diagonal_matrix_eigenvalues_sorted() {
        let a = DenseMatrix::from_rows(&[
            &[3.0, 0.0, 0.0][..],
            &[0.0, -1.0, 0.0][..],
            &[0.0, 0.0, 2.0][..],
        ])
        .unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert!((eig.eigenvalues()[0] + 1.0).abs() < 1e-12);
        assert!((eig.eigenvalues()[1] - 2.0).abs() < 1e-12);
        assert!((eig.eigenvalues()[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_matrix() {
        let a = DenseMatrix::zeros(4, 4);
        let eig = SymmetricEigen::new(&a).unwrap();
        assert!(eig.eigenvalues().iter().all(|v| v.abs() < 1e-14));
    }

    #[test]
    fn rejects_asymmetric() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0][..], &[0.0, 1.0][..]]).unwrap();
        assert!(matches!(
            SymmetricEigen::new(&a),
            Err(LinalgError::NotSymmetric { .. })
        ));
    }

    #[test]
    fn rejects_non_square_and_empty() {
        assert!(matches!(
            SymmetricEigen::new(&DenseMatrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn laplacian_of_path_graph() {
        // Known spectrum of the path graph P4 Laplacian: 2 - 2 cos(k*pi/4).
        let a = DenseMatrix::from_rows(&[
            &[1.0, -1.0, 0.0, 0.0][..],
            &[-1.0, 2.0, -1.0, 0.0][..],
            &[0.0, -1.0, 2.0, -1.0][..],
            &[0.0, 0.0, -1.0, 1.0][..],
        ])
        .unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        for (k, &lam) in eig.eigenvalues().iter().enumerate() {
            let expect = 2.0 - 2.0 * (k as f64 * std::f64::consts::PI / 4.0).cos();
            assert!((lam - expect).abs() < 1e-10, "k={k}: {lam} vs {expect}");
        }
        assert!(residual(&a, &eig) < 1e-9);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        // Deterministic pseudo-random symmetric matrix.
        let n = 20;
        let mut a = DenseMatrix::zeros(n, n);
        let mut state = 0x9e3779b97f4a7c15_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        for i in 0..n {
            for j in i..n {
                let v = next();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let eig = SymmetricEigen::new(&a).unwrap();
        let q = eig.eigenvectors();
        for i in 0..n {
            for j in 0..n {
                let dot: f64 = (0..n).map(|k| q[(k, i)] * q[(k, j)]).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-9, "({i},{j}) dot={dot}");
            }
        }
        assert!(residual(&a, &eig) < 1e-8);
        // Trace equals sum of eigenvalues.
        let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let sum: f64 = eig.eigenvalues().iter().sum();
        assert!((trace - sum).abs() < 1e-8);
    }

    /// Deterministic pseudo-random symmetric matrix.
    fn random_symmetric(n: usize) -> DenseMatrix {
        let mut a = DenseMatrix::zeros(n, n);
        let mut state = 0x2545f4914f6cdd1d_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        for i in 0..n {
            for j in i..n {
                let v = next();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        a
    }

    /// The `tql2` the strip replay replaced, kept as its bit-exactness
    /// oracle: the same recurrence with every rotation applied to all rows
    /// the moment it is formed.
    fn tql2_oracle(
        z: &mut DenseMatrix,
        d: &mut [f64],
        e: &mut [f64],
    ) -> Result<usize, LinalgError> {
        let n = d.len();
        if n == 1 {
            return Ok(0);
        }
        let cols = z.ncols();
        for i in 1..n {
            e[i - 1] = e[i];
        }
        e[n - 1] = 0.0;
        let mut sweeps = 0;
        for l in 0..n {
            let mut iter = 0;
            loop {
                let mut m = l;
                while m + 1 < n {
                    let dd = d[m].abs() + d[m + 1].abs();
                    if e[m].abs() <= f64::EPSILON * dd {
                        break;
                    }
                    m += 1;
                }
                if m == l {
                    break;
                }
                iter += 1;
                sweeps += 1;
                if iter > SymmetricEigen::MAX_ITER {
                    return Err(LinalgError::NoConvergence {
                        kernel: "tql2",
                        iterations: iter,
                    });
                }
                let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
                let mut r = g.hypot(1.0);
                let sign_r = if g >= 0.0 { r.abs() } else { -r.abs() };
                g = d[m] - d[l] + e[l] / (g + sign_r);
                let (mut s, mut c) = (1.0, 1.0);
                let mut p = 0.0;
                let mut underflow = false;
                for i in (l..m).rev() {
                    let f = s * e[i];
                    let b = c * e[i];
                    r = f.hypot(g);
                    e[i + 1] = r;
                    if r == 0.0 {
                        d[i + 1] -= p;
                        e[m] = 0.0;
                        underflow = true;
                        break;
                    }
                    s = f / r;
                    c = g / r;
                    g = d[i + 1] - p;
                    r = (d[i] - g) * s + 2.0 * c * b;
                    p = s * r;
                    d[i + 1] = g + p;
                    g = c * r - b;
                    for row in z.as_mut_slice().chunks_mut(cols) {
                        let f = row[i + 1];
                        row[i + 1] = s * row[i] + c * f;
                        row[i] = c * row[i] - s * f;
                    }
                }
                if underflow {
                    continue;
                }
                d[l] -= p;
                e[l] = g;
                e[m] = 0.0;
            }
        }
        Ok(sweeps)
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// Runs `tql2` on `(z, d, e)` and asserts eigenvalues, eigenvectors
    /// and the sweep count equal the oracle's bit for bit.
    fn assert_tql2_matches_oracle(z: &DenseMatrix, d: &[f64], e: &[f64]) {
        let (mut z_ref, mut d_ref, mut e_ref) = (z.clone(), d.to_vec(), e.to_vec());
        let sweeps_ref = tql2_oracle(&mut z_ref, &mut d_ref, &mut e_ref).unwrap();
        let (mut z_new, mut d_new, mut e_new) = (z.clone(), d.to_vec(), e.to_vec());
        let sweeps = tql2(&mut z_new, &mut d_new, &mut e_new);
        let n = d.len();
        assert_eq!(sweeps.unwrap(), sweeps_ref, "sweeps n={n}");
        assert_eq!(bits(&d_new), bits(&d_ref), "eigenvalues n={n}");
        assert_eq!(
            bits(z_new.as_slice()),
            bits(z_ref.as_slice()),
            "eigenvectors n={n}"
        );
    }

    #[test]
    fn strip_replay_matches_the_immediate_rotation_oracle() {
        // 40, 100 and 131 are not multiples of the strip width.
        for n in [2, 17, 40, 100, 128, 131, 160] {
            let mut z = random_symmetric(n);
            let mut d = vec![0.0; n];
            let mut e = vec![0.0; n];
            tred2(&mut z, &mut d, &mut e);
            assert_tql2_matches_oracle(&z, &d, &e);
        }
    }

    #[test]
    fn strip_replay_matches_the_oracle_on_ritz_shaped_problems() {
        // The Lanczos caller's shape: an identity start, the Ritz
        // tridiagonal in (d, e[1..]), and exact-zero betas where the
        // Krylov basis restarted.
        for m in [24, 150] {
            let mut state = 0x853c49e6748fea9b_u64;
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let d: Vec<f64> = (0..m).map(|_| 2.0 * next() - 1.0).collect();
            let mut e: Vec<f64> = (0..m).map(|_| next()).collect();
            e[0] = 0.0;
            e[m / 3] = 0.0;
            assert_tql2_matches_oracle(&DenseMatrix::identity(m), &d, &e);
        }
    }

    #[test]
    fn generalized_reduces_to_ordinary_for_identity_d() {
        let l = DenseMatrix::from_rows(&[&[2.0, -1.0][..], &[-1.0, 2.0][..]]).unwrap();
        let ge = GeneralizedEigen::new(&l, &[1.0, 1.0]).unwrap();
        let se = SymmetricEigen::new(&l).unwrap();
        for (a, b) in ge.eigenvalues().iter().zip(se.eigenvalues()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn generalized_eigen_residual() {
        // L = D - W for a triangle graph plus a pendant.
        let w = DenseMatrix::from_rows(&[
            &[0.0, 1.0, 1.0, 0.0][..],
            &[1.0, 0.0, 1.0, 0.0][..],
            &[1.0, 1.0, 0.0, 1.0][..],
            &[0.0, 0.0, 1.0, 0.0][..],
        ])
        .unwrap();
        let d: Vec<f64> = (0..4).map(|i| w.row(i).iter().sum()).collect();
        let mut l = DenseMatrix::zeros(4, 4);
        for i in 0..4 {
            for j in 0..4 {
                l[(i, j)] = if i == j { d[i] } else { 0.0 } - w[(i, j)];
            }
        }
        let ge = GeneralizedEigen::new(&l, &d).unwrap();
        // Verify L u = lambda D u for every pair.
        for j in 0..4 {
            let u = ge.eigenvectors().column(j);
            let lu = l.matvec(&u).unwrap();
            let lam = ge.eigenvalues()[j];
            for i in 0..4 {
                assert!(
                    (lu[i] - lam * d[i] * u[i]).abs() < 1e-9,
                    "col {j} row {i}: {} vs {}",
                    lu[i],
                    lam * d[i] * u[i]
                );
            }
        }
        // Connected graph: exactly one ~zero eigenvalue, all in [0, 2].
        assert!(ge.eigenvalues()[0].abs() < 1e-10);
        assert!(ge.eigenvalues()[1] > 1e-6);
        assert!(*ge.eigenvalues().last().unwrap() <= 2.0 + 1e-9);
    }

    #[test]
    fn generalized_handles_isolated_nodes() {
        // Node 2 is isolated (zero degree).
        let l = DenseMatrix::from_rows(&[
            &[1.0, -1.0, 0.0][..],
            &[-1.0, 1.0, 0.0][..],
            &[0.0, 0.0, 0.0][..],
        ])
        .unwrap();
        let ge = GeneralizedEigen::new(&l, &[1.0, 1.0, 0.0]).unwrap();
        assert!(ge.eigenvalues()[0].abs() < 1e-10);
        assert!(ge.eigenvalues()[1].abs() < 1e-10);
    }

    #[test]
    fn generalized_rejects_bad_inputs() {
        let l = DenseMatrix::identity(2);
        assert!(GeneralizedEigen::new(&l, &[1.0]).is_err());
        assert!(matches!(
            GeneralizedEigen::new(&l, &[1.0, -2.0]),
            Err(LinalgError::NotPositive { .. })
        ));
    }

    #[test]
    fn embedding_takes_first_columns() {
        let l = DenseMatrix::from_rows(&[&[2.0, -1.0][..], &[-1.0, 2.0][..]]).unwrap();
        let ge = GeneralizedEigen::new(&l, &[1.0, 1.0]).unwrap();
        let u = ge.embedding(1);
        assert_eq!(u.shape(), (2, 1));
        assert_eq!(u[(0, 0)], ge.eigenvectors()[(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "requested")]
    fn embedding_overflow_panics() {
        let l = DenseMatrix::identity(2);
        let ge = GeneralizedEigen::new(&l, &[1.0, 1.0]).unwrap();
        let _ = ge.embedding(3);
    }
}
