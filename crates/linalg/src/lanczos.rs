//! Lanczos iteration for a few extremal eigenpairs of a large symmetric
//! operator.
//!
//! The dense [`SymmetricEigen`](crate::SymmetricEigen) solver is `O(n³)`,
//! which is fine for the paper's 300-500 neuron testbenches but not for
//! the workloads its introduction motivates (deep networks with "more
//! than 4000 input nodes"). Spectral clustering only needs the `k`
//! smallest eigenvectors of the normalized Laplacian, and the Laplacian is
//! extremely sparse — exactly the setting where Lanczos with full
//! reorthogonalization shines: `O(m·nnz + m²·n)` for `m ≈ 2k` iterations.

use crate::eigen::tql2;
use crate::vector::{axpy, dot, norm};
use crate::{DenseMatrix, LinalgError};

/// Computes the `k` **largest** eigenpairs of a symmetric linear operator
/// given only as a matrix-vector product, using Lanczos with full
/// reorthogonalization.
///
/// Returns `(eigenvalues, vectors)` with eigenvalues in *descending* order
/// and the `i`-th column of `vectors` the Ritz vector for the `i`-th
/// value. Callers wanting the smallest eigenvalues of a matrix `B` with a
/// known spectral upper bound `c` should pass the operator `c·I − B` and
/// map the results back (`λ_B = c − λ_C`, same vectors) — this is what the
/// spectral-clustering front end does with `c = 2` for the normalized
/// Laplacian.
///
/// The Krylov subspace is restarted with fresh deterministic pseudo-random
/// directions whenever an invariant subspace is exhausted (disconnected
/// graphs produce these routinely), so high-multiplicity extremal
/// eigenvalues are recovered too.
///
/// # Errors
///
/// Returns [`LinalgError::Empty`] for `n == 0`,
/// [`LinalgError::DimensionMismatch`] for `k > n`, and propagates
/// tridiagonal-solver failures.
///
/// # Examples
///
/// ```
/// use ncs_linalg::{lanczos_largest, DenseMatrix};
///
/// # fn main() -> Result<(), ncs_linalg::LinalgError> {
/// let a = DenseMatrix::from_rows(&[
///     &[2.0, 1.0, 0.0][..],
///     &[1.0, 2.0, 1.0][..],
///     &[0.0, 1.0, 2.0][..],
/// ])?;
/// let (values, _) = lanczos_largest(|x, y| {
///     let r = a.matvec(x).expect("square matvec");
///     y.copy_from_slice(&r);
/// }, 3, 1, 0)?;
/// assert!((values[0] - (2.0 + std::f64::consts::SQRT_2)).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
pub fn lanczos_largest<F>(
    matvec: F,
    n: usize,
    k: usize,
    seed: u64,
) -> Result<(Vec<f64>, DenseMatrix), LinalgError>
where
    F: Fn(&[f64], &mut [f64]),
{
    lanczos_largest_seeded(matvec, n, k, seed, None)
}

/// [`lanczos_largest`] with optional **warm-start directions**.
///
/// Each column of `warm` is orthogonalized against the Krylov basis built
/// so far and, if anything survives normalization, used as the next
/// starting direction — the first column seeds the initial vector, later
/// columns are consumed by invariant-subspace restarts. Only after every
/// warm column is exhausted does the solver fall back to the deterministic
/// pseudo-random restarts of the cold path, drawn from the same `seed`
/// stream.
///
/// Callers that solve a slowly-drifting sequence of operators (the ISC
/// loop re-embeds an ever-shrinking network each iteration) pass the
/// previous solve's Ritz vectors: they are near-invariant subspaces of the
/// perturbed operator, so the Krylov space concentrates on the extremal
/// spectrum within a few iterations instead of rediscovering it from
/// noise. `warm = None` (or a matrix with zero columns) reproduces
/// [`lanczos_largest`] bit for bit.
///
/// # Errors
///
/// Everything [`lanczos_largest`] returns, plus
/// [`LinalgError::DimensionMismatch`] when `warm` has a row count other
/// than `n`.
// ncs-lint: hot
pub fn lanczos_largest_seeded<F>(
    matvec: F,
    n: usize,
    k: usize,
    seed: u64,
    warm: Option<&DenseMatrix>,
) -> Result<(Vec<f64>, DenseMatrix), LinalgError>
where
    F: Fn(&[f64], &mut [f64]),
{
    if n == 0 {
        return Err(LinalgError::Empty);
    }
    if k == 0 || k > n {
        return Err(LinalgError::DimensionMismatch {
            expected: (n, 1),
            found: (k, 1),
        });
    }
    if let Some(w) = warm {
        if w.nrows() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: (n, w.ncols()),
                found: (w.nrows(), w.ncols()),
            });
        }
    }
    // Subspace size: enough slack for clustered spectra, capped at n.
    let m_target = (2 * k + 40).min(n);

    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m_target);
    let mut alphas: Vec<f64> = Vec::with_capacity(m_target);
    let mut betas: Vec<f64> = Vec::with_capacity(m_target);
    let mut rng_state = seed ^ 0x9e3779b97f4a7c15;
    let mut next_random = move || {
        rng_state = rng_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((rng_state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };

    let mut warm_next = 0usize;
    let mut fresh_direction =
        |basis: &[Vec<f64>], next_random: &mut dyn FnMut() -> f64| -> Option<Vec<f64>> {
            // Warm-start columns first: previous Ritz vectors are
            // near-invariant directions of the perturbed operator, so they
            // beat random noise as starting points. Consume them in order.
            if let Some(w) = warm {
                while warm_next < w.ncols() {
                    let mut v = w.column(warm_next);
                    warm_next += 1;
                    for b in basis {
                        let c = dot(b, &v);
                        axpy(-c, b, &mut v);
                    }
                    let nv = norm(&v);
                    if nv > 1e-8 {
                        for x in &mut v {
                            *x /= nv;
                        }
                        return Some(v);
                    }
                }
            }
            // Then a few random restarts; orthogonalize against the basis.
            for _ in 0..8 {
                let mut v: Vec<f64> = (0..n).map(|_| next_random()).collect();
                for b in basis {
                    let c = dot(b, &v);
                    axpy(-c, b, &mut v);
                }
                let nv = norm(&v);
                if nv > 1e-8 {
                    for x in &mut v {
                        *x /= nv;
                    }
                    return Some(v);
                }
            }
            None
        };

    let Some(mut v) = fresh_direction(&basis, &mut next_random) else {
        // Eight random restarts all collapsed under normalization — only
        // possible with a degenerate RNG stream; refuse rather than spin.
        return Err(LinalgError::NoConvergence {
            kernel: "lanczos starting vector",
            iterations: 8,
        });
    };
    let mut w = vec![0.0; n];
    let mut restarts = 0u64;
    while basis.len() < m_target {
        matvec(&v, &mut w);
        let alpha = dot(&v, &w);
        // w -= alpha*v + beta*prev  (three-term recurrence)...
        axpy(-alpha, &v, &mut w);
        if let Some(prev) = basis.last() {
            let beta_prev = *betas.last().unwrap_or(&0.0);
            axpy(-beta_prev, prev, &mut w);
        }
        // Move `v` into the basis instead of cloning: the storage the
        // basis keeps anyway is the only per-iteration allocation left.
        basis.push(std::mem::take(&mut v));
        alphas.push(alpha);
        // ...then full reorthogonalization (twice) for numerical hygiene.
        for _ in 0..2 {
            for b in &basis {
                let c = dot(b, &w);
                // ncs-lint: allow(float-eq) — exact zero just skips a no-op axpy
                if c != 0.0 {
                    axpy(-c, b, &mut w);
                }
            }
        }
        let beta = norm(&w);
        if basis.len() == m_target {
            break;
        }
        if beta < 1e-10 {
            // Invariant subspace exhausted: restart in a fresh direction
            // with a zero coupling coefficient.
            match fresh_direction(&basis, &mut next_random) {
                Some(fresh) => {
                    restarts += 1;
                    betas.push(0.0);
                    v = fresh;
                }
                None => break, // the whole space is spanned
            }
        } else {
            betas.push(beta);
            v = w.iter().map(|x| x / beta).collect();
        }
    }

    // Solve the tridiagonal Ritz problem (d = alphas, e = betas).
    let m = basis.len();
    ncs_trace::add("lanczos.restarts", restarts);
    ncs_trace::record("lanczos.basis", m as u64);
    let mut d = alphas.clone();
    // tql2 expects the subdiagonal in e[1..m].
    let mut e = vec![0.0; m];
    for (i, &b) in betas.iter().enumerate() {
        if i + 1 < m {
            e[i + 1] = b;
        }
    }
    let mut z = DenseMatrix::identity(m);
    let sweeps = tql2(&mut z, &mut d, &mut e)?;
    ncs_trace::record("eigen.ql_sweeps", sweeps as u64);

    // Pick the k largest Ritz values.
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by(|&a, &b| d[b].total_cmp(&d[a]));
    let k_found = k.min(m);
    let mut values = Vec::with_capacity(k_found);
    let mut vectors = DenseMatrix::zeros(n, k_found);
    // Each Ritz vector is summed in one contiguous buffer, then copied
    // into its column of the row-major result: a column's entries lie
    // `k_found` apart, so summing into them directly strides every add.
    let mut ritz_vector = vec![0.0; n];
    for (col, &ritz) in order.iter().take(k_found).enumerate() {
        values.push(d[ritz]);
        // Ritz vector = Σ_j z[j][ritz] · basis_j.
        ritz_vector.fill(0.0);
        for (j, b) in basis.iter().enumerate() {
            let coeff = z[(j, ritz)];
            // ncs-lint: allow(float-eq) — exact zero just skips a no-op axpy
            if coeff != 0.0 {
                axpy(coeff, b, &mut ritz_vector);
            }
        }
        // Normalize for safety (full reorthogonalization keeps this ~1).
        let nrm = norm(&ritz_vector);
        if nrm > 0.0 {
            for x in &mut ritz_vector {
                *x /= nrm;
            }
        }
        for (row, &x) in vectors
            .as_mut_slice()
            .chunks_exact_mut(k_found)
            .zip(&ritz_vector)
        {
            row[col] = x;
        }
    }
    Ok((values, vectors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymmetricEigen;

    fn dense_operator(a: &DenseMatrix) -> impl Fn(&[f64], &mut [f64]) + '_ {
        move |x, y| {
            let r = a.matvec(x).expect("square matvec");
            y.copy_from_slice(&r);
        }
    }

    fn random_symmetric(n: usize, seed: u64) -> DenseMatrix {
        let mut a = DenseMatrix::zeros(n, n);
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
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

    #[test]
    fn matches_dense_solver_on_largest_eigenvalues() {
        let a = random_symmetric(60, 5);
        let dense = SymmetricEigen::new(&a).unwrap();
        let (values, vectors) = lanczos_largest(dense_operator(&a), 60, 5, 1).unwrap();
        let n = 60;
        for (idx, &lam) in values.iter().enumerate() {
            let expect = dense.eigenvalues()[n - 1 - idx];
            assert!((lam - expect).abs() < 1e-7, "ritz {idx}: {lam} vs {expect}");
            // Residual check: ||A v - λ v|| small.
            let v = vectors.column(idx);
            let av = a.matvec(&v).unwrap();
            let res: f64 = av
                .iter()
                .zip(&v)
                .map(|(x, y)| (x - lam * y) * (x - lam * y))
                .sum::<f64>()
                .sqrt();
            assert!(res < 1e-6, "residual {res} for ritz {idx}");
        }
    }

    #[test]
    fn handles_high_multiplicity_via_restarts() {
        // Block-diagonal: four disconnected 2-node graphs whose shifted
        // Laplacians all share the top eigenvalue 2 with multiplicity 4.
        let n = 8;
        let mut c = DenseMatrix::zeros(n, n);
        for b in 0..4 {
            let i = 2 * b;
            // 2I - L for a single edge: [[1, 1], [1, 1]]; top eigenvalue 2.
            c[(i, i)] = 1.0;
            c[(i + 1, i + 1)] = 1.0;
            c[(i, i + 1)] = 1.0;
            c[(i + 1, i)] = 1.0;
        }
        let (values, vectors) = lanczos_largest(dense_operator(&c), n, 4, 3).unwrap();
        for &v in &values {
            assert!((v - 2.0).abs() < 1e-8, "expected eigenvalue 2, got {v}");
        }
        // The four Ritz vectors are mutually orthogonal.
        for a in 0..4 {
            for b in (a + 1)..4 {
                let d: f64 = (0..n).map(|i| vectors[(i, a)] * vectors[(i, b)]).sum();
                assert!(d.abs() < 1e-8, "columns {a},{b} not orthogonal: {d}");
            }
        }
    }

    #[test]
    fn k_equals_n_recovers_everything() {
        let a = random_symmetric(12, 9);
        let dense = SymmetricEigen::new(&a).unwrap();
        let (values, _) = lanczos_largest(dense_operator(&a), 12, 12, 2).unwrap();
        for (idx, &lam) in values.iter().enumerate() {
            let expect = dense.eigenvalues()[11 - idx];
            assert!((lam - expect).abs() < 1e-7, "{lam} vs {expect}");
        }
    }

    #[test]
    fn rejects_degenerate_requests() {
        let noop = |_: &[f64], _: &mut [f64]| {};
        assert!(matches!(
            lanczos_largest(noop, 0, 1, 0),
            Err(LinalgError::Empty)
        ));
        assert!(lanczos_largest(noop, 4, 0, 0).is_err());
        assert!(lanczos_largest(noop, 4, 5, 0).is_err());
    }

    #[test]
    fn warm_seeded_matches_cold_quality() {
        // Re-solving with the previous Ritz vectors as warm directions must
        // land on the same eigenvalues (the subspace already contains
        // them); the result stays a valid eigendecomposition.
        let a = random_symmetric(60, 17);
        let dense = SymmetricEigen::new(&a).unwrap();
        let (_, cold_vectors) = lanczos_largest(dense_operator(&a), 60, 5, 1).unwrap();
        let (values, vectors) =
            lanczos_largest_seeded(dense_operator(&a), 60, 5, 2, Some(&cold_vectors)).unwrap();
        for (idx, &lam) in values.iter().enumerate() {
            let expect = dense.eigenvalues()[59 - idx];
            assert!((lam - expect).abs() < 1e-7, "ritz {idx}: {lam} vs {expect}");
            let v = vectors.column(idx);
            let av = a.matvec(&v).unwrap();
            let res: f64 = av
                .iter()
                .zip(&v)
                .map(|(x, y)| (x - lam * y) * (x - lam * y))
                .sum::<f64>()
                .sqrt();
            // A hair looser than the cold-start gate: warm directions spend
            // the fixed subspace budget on the extremal end, so trailing
            // pairs of a flat random spectrum settle slightly less tightly.
            assert!(res < 1e-4, "residual {res} for ritz {idx}");
        }
    }

    #[test]
    fn empty_warm_matrix_is_bit_identical_to_cold() {
        // Zero warm columns leave the RNG stream untouched, so the seeded
        // entry point degenerates to the cold path exactly.
        let a = random_symmetric(24, 29);
        let warm = DenseMatrix::zeros(24, 0);
        let (cv, cx) = lanczos_largest(dense_operator(&a), 24, 4, 5).unwrap();
        let (wv, wx) = lanczos_largest_seeded(dense_operator(&a), 24, 4, 5, Some(&warm)).unwrap();
        for (c, w) in cv.iter().zip(&wv) {
            assert_eq!(c.to_bits(), w.to_bits());
        }
        for i in 0..24 {
            for j in 0..4 {
                assert_eq!(cx[(i, j)].to_bits(), wx[(i, j)].to_bits());
            }
        }
    }

    #[test]
    fn warm_seed_dimension_mismatch_rejected() {
        let a = random_symmetric(10, 3);
        let warm = DenseMatrix::zeros(9, 2);
        assert!(matches!(
            lanczos_largest_seeded(dense_operator(&a), 10, 2, 0, Some(&warm)),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn ritz_solve_records_its_ql_sweeps() {
        // The Ritz problem's QL sweeps are reported like the dense
        // solver's: one `eigen.ql_sweeps` sample per solve.
        let a = random_symmetric(40, 11);
        let (_, events) = ncs_trace::capture(|| lanczos_largest(dense_operator(&a), 40, 3, 4));
        let report = ncs_trace::TraceReport::from_events(&events);
        let sweeps = report
            .samples
            .iter()
            .find(|s| s.name == "eigen.ql_sweeps")
            .expect("the Ritz solve records its sweeps");
        assert_eq!(sweeps.count, 1, "one Ritz solve, one sample");
        assert!(sweeps.sum > 0, "QL needs at least one sweep");
    }

    #[test]
    fn zero_operator_returns_zero_eigenvalues() {
        let zero = |_: &[f64], y: &mut [f64]| y.fill(0.0);
        let (values, _) = lanczos_largest(zero, 6, 3, 7).unwrap();
        for v in values {
            assert!(v.abs() < 1e-10);
        }
    }
}
