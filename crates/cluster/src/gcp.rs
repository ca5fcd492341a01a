use ncs_linalg::DenseMatrix;
use ncs_net::ConnectionMatrix;

use crate::kmeans::kmeans_with_centroids;
use crate::msc::{embedding_width, EmbeddingSource};
use crate::{kmeans, ClusterError, Clustering};

/// Above this neuron count GCP skips the global k-means and produces the
/// clustering purely by recursive bisection of oversize clusters —
/// O(n·d·log(n/s)) instead of the O(n·k·d) per Lloyd sweep that turns
/// quadratic once k grows with n. Far above every paper testbench, so the
/// small-flow results are untouched.
pub(crate) const GCP_BISECTION_MIN_N: usize = 1024;
const _: () = assert!(crate::DENSE_EIGEN_MAX_N < GCP_BISECTION_MIN_N);

/// Outer (re-embedding) iterations before GCP keeps its current
/// clustering, which the inner split loop has already made size-feasible.
const GCP_MAX_OUTER_ITERATIONS: usize = 16;

/// Lloyd iteration budget per k-means call.
const GCP_KMEANS_ITERATIONS: usize = 100;

/// **Greedy Cluster size Prediction** (Algorithm 2).
///
/// Bounds the largest cluster below the maximum available crossbar size
/// *during* clustering: whenever k-means produces a cluster larger than
/// `s`, that cluster is immediately bisected by a 2-means on its own
/// embedding rows, `k` is incremented, and the centroid set is updated —
/// instead of restarting the whole clustering with a larger `k` as the
/// [traversing](crate::traversing) baseline does. The paper reports GCP
/// reaching near-identical quality at roughly half the runtime (Figure 4).
///
/// The full spectral embedding is computed once (Algorithm 2, step 1);
/// outer iterations only widen the number of embedding columns in use.
///
/// # Errors
///
/// Returns [`ClusterError::InvalidSizeLimit`] for a zero size limit and
/// propagates eigensolver errors.
///
/// # Examples
///
/// ```
/// use ncs_net::generators;
/// use ncs_cluster::gcp;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (net, _) = generators::planted_clusters(120, 2, 0.5, 0.02, 3)?;
/// let clustering = gcp(&net, 40, 0)?;
/// assert!(clustering.max_cluster_size() <= 40);
/// # Ok(())
/// # }
/// ```
pub fn gcp(
    net: &ConnectionMatrix,
    max_cluster_size: usize,
    seed: u64,
) -> Result<Clustering, ClusterError> {
    if max_cluster_size == 0 {
        return Err(ClusterError::InvalidSizeLimit { limit: 0 });
    }
    let n = net.neurons();
    let width = embedding_width(n, max_cluster_size);
    let source = EmbeddingSource::new(net, width, seed, None)?;
    gcp_from_embedding(&source, n, max_cluster_size, seed)
}

/// GCP with size limit `s ≥ 1` on a precomputed spectral embedding
/// (shared with ISC, which re-embeds the shrinking remainder itself).
pub(crate) fn gcp_from_embedding(
    source: &EmbeddingSource,
    n: usize,
    s: usize,
    seed: u64,
) -> Result<Clustering, ClusterError> {
    // Bisection starts above the dense solver's largest network, so it
    // reads a Lanczos embedding in place.
    if n >= GCP_BISECTION_MIN_N {
        if let EmbeddingSource::Partial(u) = source {
            return Ok(gcp_bisection(u, n, s));
        }
    }
    // Step 2: predicted cluster count k = n / s (at least 1).
    let mut k = n.div_ceil(s).max(1);
    let mut assignment: Option<Vec<usize>> = None;
    let mut clusters = Vec::new();
    for outer in 0..GCP_MAX_OUTER_ITERATIONS {
        let u = source.embedding(k.min(n));
        // Centroids: warm-start from the previous assignment when
        // available, otherwise k-means++ on the current embedding.
        let result = match &assignment {
            None => kmeans(
                &u,
                k.min(n),
                seed.wrapping_add(outer as u64),
                GCP_KMEANS_ITERATIONS,
            )?,
            Some(prev) => {
                let centroids = centroids_from_assignment(&u, prev, k.min(n));
                kmeans_with_centroids(&u, centroids, GCP_KMEANS_ITERATIONS)?
            }
        };
        clusters = clusters_of(&result.assignment, k.min(n));
        // Inner loop: split every oversize cluster into two sub-clusters.
        let mut flag_outer = false;
        loop {
            let mut flag_inner = false;
            let mut j = 0;
            while j < clusters.len() {
                if clusters[j].len() > s {
                    let (a, b) = bisect(&u, &clusters[j], seed.wrapping_add(j as u64));
                    clusters[j] = a;
                    clusters.push(b);
                    ncs_trace::add("gcp.splits", 1);
                    flag_inner = true;
                    flag_outer = true;
                } else {
                    j += 1;
                }
            }
            if !flag_inner {
                break;
            }
        }
        k = clusters.len();
        let mut assign = vec![0usize; n];
        for (c, members) in clusters.iter().enumerate() {
            for &m in members {
                assign[m] = c;
            }
        }
        assignment = Some(assign);
        if !flag_outer {
            ncs_trace::record("gcp.outer_iterations", (outer + 1) as u64);
            break;
        }
    }
    Ok(Clustering::new(clusters, n))
}

/// Split-only GCP for large networks: start from a single all-neuron
/// cluster and recursively bisect every oversize cluster on the Lanczos
/// embedding `u`.
/// Skipping the global k-means removes the O(n·k·d) Lloyd sweeps that
/// dominate once `k` grows with `n`, and the balanced spectral cut in
/// [`spread_split`] replaces the 2-means used on the small-n path — a
/// 2-means can peel one stray neuron per split off a sparse remainder
/// network, degenerating into thousands of near-empty clusters, while the
/// balanced cut shrinks every part geometrically. Total work is
/// O(n·d·log(n/s)).
// ncs-lint: hot
fn gcp_bisection(u: &DenseMatrix, n: usize, s: usize) -> Clustering {
    let mut clusters: Vec<Vec<usize>> = vec![(0..n).collect()];
    let mut j = 0;
    while j < clusters.len() {
        if clusters[j].len() > s {
            let (a, b) = spread_split(u, &clusters[j]);
            clusters[j] = a;
            clusters.push(b);
            ncs_trace::add("gcp.splits", 1);
        } else {
            j += 1;
        }
    }
    ncs_trace::record("gcp.outer_iterations", 1);
    Clustering::new(clusters, n)
}

/// Deterministic balanced spectral cut: orders `members` by their
/// coordinate in the embedding column with the largest variance (the
/// direction along which the cluster is most spread) and cuts at the
/// largest coordinate gap within the middle half of the ordering. The
/// gap seeks the natural community boundary; restricting it to the
/// middle half guarantees both sides keep at least a quarter of the
/// members, so recursion depth stays logarithmic.
fn spread_split(u: &DenseMatrix, members: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let len = members.len();
    debug_assert!(len >= 2, "only oversize clusters are split");
    let mut best_col = 0usize;
    let mut best_var = f64::NEG_INFINITY;
    for c in 0..u.ncols() {
        let mut sum = 0.0;
        let mut sq = 0.0;
        for &m in members {
            let v = u[(m, c)];
            sum += v;
            sq += v * v;
        }
        let mean = sum / len as f64;
        let var = sq / len as f64 - mean * mean;
        if var > best_var {
            best_var = var;
            best_col = c;
        }
    }
    let mut order: Vec<usize> = members.to_vec();
    order.sort_by(|&a, &b| {
        u[(a, best_col)]
            .total_cmp(&u[(b, best_col)])
            .then(a.cmp(&b))
    });
    // Cut after the largest gap among positions that leave both sides
    // with at least len/4 members (and never empty).
    let lo = (len / 4).max(1);
    let hi = len - lo;
    let mut cut = len / 2;
    let mut best_gap = f64::NEG_INFINITY;
    for p in lo..=hi.min(len - 1) {
        let gap = u[(order[p], best_col)] - u[(order[p - 1], best_col)];
        if gap > best_gap {
            best_gap = gap;
            cut = p;
        }
    }
    let b = order.split_off(cut);
    (order, b)
}

fn clusters_of(assignment: &[usize], k: usize) -> Vec<Vec<usize>> {
    let mut clusters = vec![Vec::new(); k];
    for (i, &a) in assignment.iter().enumerate() {
        clusters[a].push(i);
    }
    clusters.retain(|c| !c.is_empty());
    clusters
}

fn centroids_from_assignment(u: &DenseMatrix, assignment: &[usize], k: usize) -> DenseMatrix {
    let dim = u.ncols();
    let mut centroids = DenseMatrix::zeros(k, dim);
    let mut counts = vec![0usize; k];
    for (i, &a) in assignment.iter().enumerate() {
        if a < k {
            counts[a] += 1;
            let row = u.row(i);
            for (t, &v) in centroids.row_mut(a).iter_mut().zip(row) {
                *t += v;
            }
        }
    }
    for (c, &count) in counts.iter().enumerate() {
        if count > 0 {
            let inv = 1.0 / count as f64;
            for t in centroids.row_mut(c).iter_mut() {
                *t *= inv;
            }
        }
    }
    centroids
}

/// Splits an oversize cluster into two non-empty halves with a 2-means on
/// its embedding rows, falling back to an index split for degenerate
/// (all-identical) embeddings.
fn bisect(u: &DenseMatrix, members: &[usize], seed: u64) -> (Vec<usize>, Vec<usize>) {
    let dim = u.ncols();
    let mut sub = DenseMatrix::zeros(members.len(), dim);
    for (r, &m) in members.iter().enumerate() {
        sub.row_mut(r).copy_from_slice(u.row(m));
    }
    if let Ok(result) = kmeans(&sub, 2, seed, 60) {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for (r, &m) in members.iter().enumerate() {
            if result.assignment[r] == 0 {
                a.push(m);
            } else {
                b.push(m);
            }
        }
        if !a.is_empty() && !b.is_empty() {
            return (a, b);
        }
    }
    let mid = members.len() / 2;
    (members[..mid].to_vec(), members[mid..].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncs_net::generators;

    #[test]
    fn respects_size_limit() {
        let net = generators::uniform_random(150, 0.06, 5).unwrap();
        for limit in [16usize, 32, 64] {
            let c = gcp(&net, limit, 0).unwrap();
            assert!(
                c.max_cluster_size() <= limit,
                "limit {limit} violated: {}",
                c.max_cluster_size()
            );
            // Every neuron appears exactly once.
            assert_eq!(c.sizes().iter().sum::<usize>(), 150);
        }
    }

    #[test]
    fn zero_limit_rejected() {
        let net = ConnectionMatrix::from_pairs(4, [(0, 1)]).unwrap();
        assert!(gcp(&net, 0, 0).is_err());
    }

    #[test]
    fn limit_above_n_keeps_structure() {
        let (net, _) = generators::planted_clusters(40, 2, 0.6, 0.01, 1).unwrap();
        let c = gcp(&net, 100, 0).unwrap();
        // No size pressure: expect very few clusters and low outliers.
        assert!(c.len() <= 4);
        assert!(c.outlier_ratio(&net) < 0.2);
    }

    #[test]
    fn preserves_community_quality_under_limit() {
        let (net, _) = generators::planted_clusters(120, 4, 0.5, 0.01, 9).unwrap();
        let c = gcp(&net, 30, 0).unwrap();
        assert!(c.max_cluster_size() <= 30);
        assert!(
            c.outlier_ratio(&net) < 0.35,
            "outlier ratio {}",
            c.outlier_ratio(&net)
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let net = generators::uniform_random(60, 0.08, 2).unwrap();
        let a = gcp(&net, 20, 3).unwrap();
        let b = gcp(&net, 20, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn large_networks_use_the_sparse_bisection_path() {
        // n = 1100 clears both DENSE_EIGEN_MAX_N (sparse embedding) and
        // GCP_BISECTION_MIN_N (split-only clustering).
        let (net, _) = generators::block_sparse(1100, 64, 0.4, 1, 5).unwrap();
        let (c, events) = ncs_trace::capture(|| gcp(&net, 64, 0).unwrap());
        assert!(c.max_cluster_size() <= 64);
        assert_eq!(c.sizes().iter().sum::<usize>(), 1100);
        let report = ncs_trace::TraceReport::from_events(&events);
        let counter = |name: &str| {
            report
                .counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.total)
        };
        assert!(
            counter("gcp.splits") >= 16,
            "split-only path must reach the cluster count by bisection"
        );
        assert!(
            counter("isc.sparse_matvecs") > 0,
            "embedding above DENSE_EIGEN_MAX_N must be Lanczos-driven"
        );
        // Deterministic per seed.
        let again = gcp(&net, 64, 0).unwrap();
        assert_eq!(c, again);
    }

    #[test]
    fn bisect_degenerate_points_still_splits() {
        let u = DenseMatrix::zeros(6, 2);
        let members: Vec<usize> = (0..6).collect();
        let (a, b) = bisect(&u, &members, 0);
        assert!(!a.is_empty() && !b.is_empty());
        assert_eq!(a.len() + b.len(), 6);
    }
}
