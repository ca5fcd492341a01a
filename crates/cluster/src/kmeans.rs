use ncs_linalg::{vector, DenseMatrix};
use ncs_rng::Rng;

use crate::ClusterError;

/// Result of a k-means run over the rows of an embedding matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct KmeansResult {
    /// Cluster index per point (row).
    pub assignment: Vec<usize>,
    /// `k × dim` centroid matrix.
    pub centroids: DenseMatrix,
    /// Sum of squared distances from points to their centroids.
    pub inertia: f64,
    /// Lloyd iterations performed.
    pub iterations: usize,
}

impl KmeansResult {
    /// Members of cluster `c`.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| (a == c).then_some(i))
            .collect()
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.nrows()
    }

    /// Size of each cluster.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k()];
        for &a in &self.assignment {
            sizes[a] += 1;
        }
        sizes
    }
}

/// Lloyd's k-means over the rows of `points`, seeded with k-means++.
///
/// This is the clustering primitive used inside MSC (Algorithm 1, step 6)
/// and GCP. Empty clusters are repaired by re-seeding them on the point
/// farthest from its current centroid, so the returned assignment always
/// uses exactly `k` labels when `k <= n`.
///
/// # Errors
///
/// Returns [`ClusterError::InvalidClusterCount`] unless `1 <= k <= n`.
///
/// # Examples
///
/// ```
/// use ncs_linalg::DenseMatrix;
/// use ncs_cluster::kmeans;
///
/// # fn main() -> Result<(), ncs_cluster::ClusterError> {
/// // Two obvious groups on the number line.
/// let pts = DenseMatrix::from_vec(4, 1, vec![0.0, 0.1, 10.0, 10.1]).unwrap();
/// let result = kmeans(&pts, 2, 42, 100)?;
/// assert_eq!(result.assignment[0], result.assignment[1]);
/// assert_eq!(result.assignment[2], result.assignment[3]);
/// assert_ne!(result.assignment[0], result.assignment[2]);
/// # Ok(())
/// # }
/// ```
pub fn kmeans(
    points: &DenseMatrix,
    k: usize,
    seed: u64,
    max_iterations: usize,
) -> Result<KmeansResult, ClusterError> {
    let n = points.nrows();
    if k == 0 || k > n {
        return Err(ClusterError::InvalidClusterCount { k, points: n });
    }
    let mut rng = Rng::seed_from_u64(seed);
    let centroids = plus_plus_init(points, k, &mut rng);
    lloyd(points, centroids, max_iterations)
}

/// Lloyd iteration warm-started from caller-provided centroids; used by GCP
/// where centroids evolve across outer iterations.
///
/// # Errors
///
/// Returns [`ClusterError::InvalidClusterCount`] if `centroids` is empty,
/// has more rows than points, or its column count differs from the points'.
pub(crate) fn kmeans_with_centroids(
    points: &DenseMatrix,
    centroids: DenseMatrix,
    max_iterations: usize,
) -> Result<KmeansResult, ClusterError> {
    let n = points.nrows();
    let k = centroids.nrows();
    if k == 0 || k > n || centroids.ncols() != points.ncols() {
        return Err(ClusterError::InvalidClusterCount { k, points: n });
    }
    lloyd(points, centroids, max_iterations)
}

fn plus_plus_init(points: &DenseMatrix, k: usize, rng: &mut Rng) -> DenseMatrix {
    let n = points.nrows();
    let dim = points.ncols();
    let mut centroids = DenseMatrix::zeros(k, dim);
    let first = rng.gen_range(0..n);
    centroids.row_mut(0).copy_from_slice(points.row(first));
    let mut dist_sq: Vec<f64> = (0..n)
        .map(|i| vector::distance_sq(points.row(i), centroids.row(0)))
        .collect();
    for c in 1..k {
        let total: f64 = dist_sq.iter().sum();
        let chosen = if total <= 0.0 {
            // All points coincide with chosen centroids; pick round-robin.
            c % n
        } else {
            let mut target = rng.gen_f64() * total;
            let mut idx = n - 1;
            for (i, &d) in dist_sq.iter().enumerate() {
                if target < d {
                    idx = i;
                    break;
                }
                target -= d;
            }
            idx
        };
        centroids.row_mut(c).copy_from_slice(points.row(chosen));
        for (i, slot) in dist_sq.iter_mut().enumerate() {
            let d = vector::distance_sq(points.row(i), centroids.row(c));
            if d < *slot {
                *slot = d;
            }
        }
    }
    centroids
}

/// Labels every point with its nearest centroid (the lowest index on a
/// tie), returning whether any label changed.
// ncs-lint: hot
fn assign_chunk(points: &DenseMatrix, centroids: &DenseMatrix, out: &mut [usize]) -> bool {
    let k = centroids.nrows();
    let mut changed = false;
    for (i, slot) in out.iter_mut().enumerate() {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for c in 0..k {
            let d = vector::distance_sq(points.row(i), centroids.row(c));
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        if *slot != best {
            *slot = best;
            changed = true;
        }
    }
    changed
}

fn lloyd(
    points: &DenseMatrix,
    mut centroids: DenseMatrix,
    max_iterations: usize,
) -> Result<KmeansResult, ClusterError> {
    let n = points.nrows();
    let k = centroids.nrows();
    let dim = points.ncols();
    let mut assignment = vec![0usize; n];
    let mut iterations = 0;
    loop {
        // Assignment step.
        let mut changed = assign_chunk(points, &centroids, &mut assignment);
        // Update step.
        let mut sums = DenseMatrix::zeros(k, dim);
        let mut counts = vec![0usize; k];
        for i in 0..n {
            counts[assignment[i]] += 1;
            let row = points.row(i);
            let target = sums.row_mut(assignment[i]);
            for (t, &v) in target.iter_mut().zip(row) {
                *t += v;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                let inv = 1.0 / counts[c] as f64;
                let src = sums.row(c).to_vec();
                for (t, v) in centroids.row_mut(c).iter_mut().zip(src) {
                    *t = v * inv;
                }
            } else {
                // Empty-cluster repair: move the point farthest from its
                // centroid whose source cluster keeps at least one member,
                // so repairs of several empty clusters cannot steal from
                // each other (degenerate all-duplicate inputs).
                // `k <= n` guarantees a donor cluster with more than one
                // member; if that invariant ever broke, leaving the
                // cluster empty beats panicking mid-flow.
                let far = (0..n)
                    .filter(|&i| counts[assignment[i]] > 1)
                    .max_by(|&a, &b| {
                        let da = vector::distance_sq(points.row(a), centroids.row(assignment[a]));
                        let db = vector::distance_sq(points.row(b), centroids.row(assignment[b]));
                        da.total_cmp(&db)
                    });
                if let Some(far) = far {
                    counts[assignment[far]] -= 1;
                    counts[c] += 1;
                    centroids.row_mut(c).copy_from_slice(points.row(far));
                    assignment[far] = c;
                    changed = true;
                }
            }
        }
        iterations += 1;
        if !changed || iterations >= max_iterations {
            break;
        }
    }
    ncs_trace::record("kmeans.iterations", iterations as u64);
    let inertia = (0..n)
        .map(|i| vector::distance_sq(points.row(i), centroids.row(assignment[i])))
        .sum();
    Ok(KmeansResult {
        assignment,
        centroids,
        inertia,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points() -> DenseMatrix {
        // Three tight groups in 2D.
        DenseMatrix::from_rows(&[
            &[0.0, 0.0][..],
            &[0.1, 0.0][..],
            &[0.0, 0.1][..],
            &[5.0, 5.0][..],
            &[5.1, 5.0][..],
            &[5.0, 5.1][..],
            &[-5.0, 5.0][..],
            &[-5.1, 5.0][..],
        ])
        .unwrap()
    }

    #[test]
    fn recovers_obvious_groups() {
        let r = kmeans(&grid_points(), 3, 7, 100).unwrap();
        assert_eq!(r.assignment[0], r.assignment[1]);
        assert_eq!(r.assignment[0], r.assignment[2]);
        assert_eq!(r.assignment[3], r.assignment[4]);
        assert_eq!(r.assignment[6], r.assignment[7]);
        assert_ne!(r.assignment[0], r.assignment[3]);
        assert_ne!(r.assignment[3], r.assignment[6]);
        assert!(r.inertia < 0.2);
    }

    #[test]
    fn k_equals_n_gives_singletons() {
        let pts = DenseMatrix::from_vec(3, 1, vec![0.0, 1.0, 2.0]).unwrap();
        let r = kmeans(&pts, 3, 0, 50).unwrap();
        assert_eq!(r.sizes(), vec![1, 1, 1]);
        assert!(r.inertia < 1e-12);
    }

    #[test]
    fn k_one_gives_single_cluster_at_mean() {
        let pts = DenseMatrix::from_vec(4, 1, vec![0.0, 2.0, 4.0, 6.0]).unwrap();
        let r = kmeans(&pts, 1, 0, 50).unwrap();
        assert!(r.assignment.iter().all(|&a| a == 0));
        assert!((r.centroids[(0, 0)] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_k_rejected() {
        let pts = DenseMatrix::zeros(3, 2);
        assert!(kmeans(&pts, 0, 0, 10).is_err());
        assert!(kmeans(&pts, 4, 0, 10).is_err());
    }

    #[test]
    fn duplicate_points_do_not_crash() {
        let pts = DenseMatrix::from_vec(5, 1, vec![1.0; 5]).unwrap();
        let r = kmeans(&pts, 3, 3, 50).unwrap();
        assert_eq!(r.assignment.len(), 5);
        // All clusters non-empty thanks to repair.
        assert!(r.sizes().iter().all(|&s| s >= 1));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = kmeans(&grid_points(), 3, 11, 100).unwrap();
        let b = kmeans(&grid_points(), 3, 11, 100).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn members_and_sizes_consistent() {
        let r = kmeans(&grid_points(), 3, 7, 100).unwrap();
        let total: usize = (0..r.k()).map(|c| r.members(c).len()).sum();
        assert_eq!(total, 8);
        assert_eq!(r.sizes().iter().sum::<usize>(), 8);
    }

    #[test]
    fn warm_start_accepts_matching_centroids() {
        let pts = grid_points();
        let init = DenseMatrix::from_rows(&[&[0.0, 0.0][..], &[5.0, 5.0][..]]).unwrap();
        let r = kmeans_with_centroids(&pts, init, 100).unwrap();
        assert_eq!(r.k(), 2);
        let bad = DenseMatrix::zeros(2, 3);
        assert!(kmeans_with_centroids(&pts, bad, 100).is_err());
    }
}
