use ncs_net::ConnectionMatrix;

use crate::msc::{msc_from_embedding, EmbeddingSource};
use crate::{spectral_embedding, ClusterError, Clustering};

/// The **traversing** baseline for cluster-size limitation (Section 3.3).
///
/// Instead of GCP's greedy in-loop splitting, this baseline "passively"
/// enforces the crossbar size limit by exhaustively increasing the cluster
/// count `k` in MSC until the largest cluster fits. The spectral embedding
/// is factorized once and reused across the scan, so the comparison with
/// [`gcp`](crate::gcp) (Figure 4 of the paper: same quality, ~2× slower)
/// isolates the clustering loop itself.
///
/// # Errors
///
/// Returns [`ClusterError::InvalidSizeLimit`] for a zero limit,
/// [`ClusterError::TraversingBudgetExceeded`] if no feasible `k ≤ n` is
/// found (cannot happen for `limit ≥ 1` since `k = n` yields singletons),
/// and propagates eigensolver errors.
///
/// # Examples
///
/// ```
/// use ncs_net::generators;
/// use ncs_cluster::traversing;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = generators::uniform_random(80, 0.08, 4)?;
/// let clustering = traversing(&net, 25, 42)?;
/// assert!(clustering.max_cluster_size() <= 25);
/// # Ok(())
/// # }
/// ```
pub fn traversing(
    net: &ConnectionMatrix,
    max_cluster_size: usize,
    seed: u64,
) -> Result<Clustering, ClusterError> {
    if max_cluster_size == 0 {
        return Err(ClusterError::InvalidSizeLimit { limit: 0 });
    }
    let n = net.neurons();
    let eig = EmbeddingSource::Dense(spectral_embedding(net)?);
    let mut k = n.div_ceil(max_cluster_size).max(1);
    while k <= n {
        let clustering = msc_from_embedding(&eig, k, seed)?;
        if clustering.max_cluster_size() <= max_cluster_size {
            return Ok(clustering);
        }
        k += 1;
    }
    Err(ClusterError::TraversingBudgetExceeded { max_k: n })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncs_net::generators;

    #[test]
    fn respects_size_limit() {
        let net = generators::uniform_random(70, 0.08, 6).unwrap();
        let c = traversing(&net, 20, 1).unwrap();
        assert!(c.max_cluster_size() <= 20);
        assert_eq!(c.sizes().iter().sum::<usize>(), 70);
    }

    #[test]
    fn zero_limit_rejected() {
        let net = ConnectionMatrix::from_pairs(3, [(0, 1)]).unwrap();
        assert!(traversing(&net, 0, 0).is_err());
    }

    #[test]
    fn quality_comparable_to_gcp() {
        use crate::gcp;
        let (net, _) = generators::planted_clusters(100, 4, 0.5, 0.01, 8).unwrap();
        let trav = traversing(&net, 30, 5).unwrap();
        let greedy = gcp(&net, 30, 5).unwrap();
        let a = trav.outlier_ratio(&net);
        let b = greedy.outlier_ratio(&net);
        // Figure 4: the two clusterings are "very close". Allow a generous
        // band since seeds differ from the paper's.
        assert!((a - b).abs() < 0.25, "traversing {a} vs gcp {b}");
    }

    #[test]
    fn limit_one_gives_singletons() {
        let net = ConnectionMatrix::from_pairs(5, [(0, 1), (1, 0)]).unwrap();
        let c = traversing(&net, 1, 0).unwrap();
        assert_eq!(c.max_cluster_size(), 1);
        assert_eq!(c.len(), 5);
    }
}
