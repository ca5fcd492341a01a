use ncs_linalg::{lanczos_largest_seeded, CsrMatrix, DenseMatrix, GeneralizedEigen};
use ncs_net::ConnectionMatrix;

use crate::{kmeans, ClusterError, Clustering};

/// Largest network the clustering pipeline hands to the dense QL
/// eigensolver. At or below this size the dense decomposition is both
/// fast and the bit-pinned reference; above it every spectral embedding
/// goes through the sparse Lanczos path, which never materializes an
/// `n × n` matrix. The paper's Hopfield testbenches (N ≤ 500) all stay on
/// the dense reference path.
pub const DENSE_EIGEN_MAX_N: usize = 512;

/// Most Lanczos columns ISC and GCP embed a network in. The uncapped
/// width reaches exactly 72 at 32 predicted clusters (2,048 neurons on
/// 64-wide crossbars), so the cap binds only on larger networks, where it
/// keeps the `O(n·width)` Lanczos working set linear in `n`.
const EMBED_WIDTH_MAX: usize = 72;

/// Lanczos embedding width for clustering `n` neurons into parts of at
/// most `s ≥ 1`: twice the predicted cluster count `⌈n / s⌉` plus 8
/// columns of headroom, so GCP's splits rarely exhaust the budget, capped
/// at [`EMBED_WIDTH_MAX`] and at `n`.
pub(crate) fn embedding_width(n: usize, s: usize) -> usize {
    (2 * n.div_ceil(s).max(1) + 8).min(EMBED_WIDTH_MAX).min(n)
}

/// Computes the spectral embedding of a network: the generalized
/// eigendecomposition of `L u = λ D u` where the similarity `W` is the
/// symmetrized binary connection matrix, `D` its degree matrix and
/// `L = D − W` the unnormalized Laplacian (Algorithm 1, steps 1-4).
///
/// Returning the full decomposition (all `n` eigenvectors, ascending
/// eigenvalues) lets GCP and the traversing baseline reuse one expensive
/// factorization across many values of `k`, exactly as Algorithm 2 step 1
/// prescribes.
///
/// # Errors
///
/// Propagates eigensolver failures ([`ClusterError::Linalg`]).
///
/// # Examples
///
/// ```
/// use ncs_net::ConnectionMatrix;
/// use ncs_cluster::spectral_embedding;
///
/// # fn main() -> Result<(), ncs_cluster::ClusterError> {
/// let net = ConnectionMatrix::from_pairs(4, [(0, 1), (1, 0), (2, 3), (3, 2)])?;
/// let eig = spectral_embedding(&net)?;
/// // Two connected components => two (near-)zero eigenvalues.
/// assert!(eig.eigenvalues()[1].abs() < 1e-9);
/// assert!(eig.eigenvalues()[2] > 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn spectral_embedding(net: &ConnectionMatrix) -> Result<GeneralizedEigen, ClusterError> {
    let sym = net.symmetrized();
    let n = sym.neurons();
    // `sym` is symmetric by construction, so its out-degrees *are* the
    // undirected node degrees — no second symmetrized copy needed.
    let degrees: Vec<f64> = sym.out_degrees().into_iter().map(|d| d as f64).collect();
    // Diagonal = degree, minus one per neighbour — including a self-loop
    // hitting the diagonal.
    let mut laplacian = DenseMatrix::zeros(n, n);
    for (i, &d) in degrees.iter().enumerate() {
        let row = laplacian.row_mut(i);
        row[i] = d;
        for j in sym.row_neighbors(i) {
            row[j] -= 1.0;
        }
    }
    Ok(GeneralizedEigen::new(&laplacian, &degrees)?)
}

/// **Modified Spectral Clustering** (Algorithm 1).
///
/// Classic normalized spectral clustering with the similarity redefined as
/// the number of connections between neurons: build the Laplacian of the
/// (symmetrized) connection matrix, embed each neuron as the `i`-th row of
/// the `n × k` matrix of the `k` smallest generalized eigenvectors, and
/// k-means the rows into `k` clusters. Connections that end up inside a
/// cluster can be mapped to a crossbar; connections across clusters are
/// *outliers*.
///
/// # Errors
///
/// Returns [`ClusterError::InvalidClusterCount`] for `k` outside
/// `1..=neurons`, or propagates eigensolver failures.
///
/// # Examples
///
/// ```
/// use ncs_net::generators;
/// use ncs_cluster::msc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (net, _) = generators::planted_clusters(60, 3, 0.7, 0.01, 5)?;
/// let clustering = msc(&net, 3, 42)?;
/// // Nearly all connections land inside clusters.
/// assert!(clustering.outlier_ratio(&net) < 0.15);
/// # Ok(())
/// # }
/// ```
pub fn msc(net: &ConnectionMatrix, k: usize, seed: u64) -> Result<Clustering, ClusterError> {
    let n = net.neurons();
    if k == 0 || k > n {
        return Err(ClusterError::InvalidClusterCount { k, points: n });
    }
    msc_from_embedding(&EmbeddingSource::new(net, k, seed, None)?, k, seed)
}

/// MSC step 5-6 on a precomputed embedding; shared with the traversing
/// baseline so that repeated `k` scans do not refactorize.
pub(crate) fn msc_from_embedding(
    source: &EmbeddingSource,
    k: usize,
    seed: u64,
) -> Result<Clustering, ClusterError> {
    let result = kmeans(&source.embedding(k), k, seed, 200)?;
    Ok(Clustering::from_assignment(&result.assignment, k))
}

/// A spectral embedding that GCP can slice by column count: either the
/// full dense decomposition (every `k` available) or a Lanczos partial
/// embedding with a fixed column budget.
#[derive(Debug, Clone)]
pub(crate) enum EmbeddingSource {
    Dense(GeneralizedEigen),
    Partial(DenseMatrix),
}

impl EmbeddingSource {
    /// Embeds `net` with the solver its size calls for: the full dense
    /// decomposition at or below [`DENSE_EIGEN_MAX_N`] neurons, else
    /// `width` Lanczos columns from `seed`, warm-started from `warm`.
    pub(crate) fn new(
        net: &ConnectionMatrix,
        width: usize,
        seed: u64,
        warm: Option<&DenseMatrix>,
    ) -> Result<Self, ClusterError> {
        if net.neurons() <= DENSE_EIGEN_MAX_N {
            Ok(EmbeddingSource::Dense(spectral_embedding(net)?))
        } else {
            EmbeddingSource::lanczos(net, width, seed, warm)
        }
    }

    /// The Lanczos arm of [`EmbeddingSource::new`], at any network size.
    pub(crate) fn lanczos(
        net: &ConnectionMatrix,
        width: usize,
        seed: u64,
        warm: Option<&DenseMatrix>,
    ) -> Result<Self, ClusterError> {
        if warm.is_some() {
            ncs_trace::add("isc.warm_starts", 1);
        }
        let u = spectral_embedding_partial_warm(net, width, seed, warm)?;
        Ok(EmbeddingSource::Partial(u))
    }

    /// First `min(k, max_k)` embedding columns.
    pub(crate) fn embedding(&self, k: usize) -> DenseMatrix {
        match self {
            EmbeddingSource::Dense(eig) => eig.embedding(k.min(self.max_k())),
            EmbeddingSource::Partial(u) => {
                let k = k.min(u.ncols());
                let mut out = DenseMatrix::zeros(u.nrows(), k);
                for i in 0..u.nrows() {
                    for j in 0..k {
                        out[(i, j)] = u[(i, j)];
                    }
                }
                out
            }
        }
    }

    /// Widest available embedding.
    pub(crate) fn max_k(&self) -> usize {
        match self {
            EmbeddingSource::Dense(eig) => eig.eigenvectors().ncols(),
            EmbeddingSource::Partial(u) => u.ncols(),
        }
    }
}

/// Sparse **partial** spectral embedding: the `k` smallest generalized
/// eigenvectors of `L u = λ D u` computed with Lanczos on the (shifted)
/// normalized Laplacian instead of a dense `O(n³)` factorization.
///
/// The normalized Laplacian's spectrum lies in `[0, 2]`, so its smallest
/// eigenvalues are the largest of `C = 2I − B`, which is what
/// [`lanczos_largest`] extracts from sparse matvecs in
/// `O(k·nnz + k²·n)`. Use this for networks with thousands of neurons —
/// the deep-network workloads the paper's introduction motivates — where
/// the dense path in [`spectral_embedding`] becomes the bottleneck.
///
/// # Errors
///
/// Returns [`ClusterError::InvalidClusterCount`] for `k` outside
/// `1..=neurons`, or propagates solver failures.
///
/// # Examples
///
/// ```
/// use ncs_net::generators;
/// use ncs_cluster::spectral_embedding_partial;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (net, _) = generators::planted_clusters(200, 4, 0.3, 0.01, 3)?;
/// let u = spectral_embedding_partial(&net, 4, 42)?;
/// assert_eq!(u.shape(), (200, 4));
/// # Ok(())
/// # }
/// ```
pub fn spectral_embedding_partial(
    net: &ConnectionMatrix,
    k: usize,
    seed: u64,
) -> Result<DenseMatrix, ClusterError> {
    spectral_embedding_partial_warm(net, k, seed, None)
}

/// [`spectral_embedding_partial`] with optional **warm-start directions**
/// from a previous embedding of a similar network.
///
/// `warm` is a prior *embedding* matrix `u` (rows = neurons, columns =
/// eigenvectors, as returned by this function). Since the embedding is the
/// un-whitened eigenvector `u = D^{-1/2}·v`, each column is re-whitened
/// against the *current* degree matrix (`v = D^{1/2}·u`, isolated neurons
/// zeroed) before seeding the Lanczos Krylov basis — see
/// [`lanczos_largest_seeded`](ncs_linalg::lanczos_largest_seeded). A warm
/// matrix whose row count does not match `net` is silently ignored (the
/// caller's network changed shape; a cold solve is the correct fallback).
///
/// The ISC loop uses this to carry each iteration's embedding into the
/// next: connection removal perturbs the normalized Laplacian only
/// mildly, so the previous Ritz vectors are near-invariant directions and
/// the solver converges in far fewer effective iterations.
///
/// # Errors
///
/// Same as [`spectral_embedding_partial`].
pub fn spectral_embedding_partial_warm(
    net: &ConnectionMatrix,
    k: usize,
    seed: u64,
    warm: Option<&DenseMatrix>,
) -> Result<DenseMatrix, ClusterError> {
    let n = net.neurons();
    if k == 0 || k > n {
        return Err(ClusterError::InvalidClusterCount { k, points: n });
    }
    // Symmetrize only when needed: the ISC loop feeds symmetric networks
    // (removal of symmetric clusters preserves symmetry), and skipping
    // the copy keeps live bitmaps to one per solve at scale.
    let sym_storage;
    let sym = if net.is_symmetric() {
        net
    } else {
        sym_storage = net.symmetrized();
        &sym_storage
    };
    let degrees: Vec<f64> = sym.out_degrees().into_iter().map(|d| d as f64).collect();
    let inv_sqrt: Vec<f64> = degrees
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 1.0 })
        .collect();
    // Normalized adjacency W̃ with entries w_ij·d_i^{-1/2}·d_j^{-1/2};
    // B = I_connected − W̃, and we feed Lanczos C = 2I − B.
    let w_norm = normalized_adjacency_csr(sym, &inv_sqrt);
    ncs_trace::record("cluster.laplacian_nnz", w_norm.nnz() as u64);
    let connected: Vec<f64> = degrees
        .iter()
        .map(|&d| if d > 0.0 { 1.0 } else { 0.0 })
        .collect();
    // Warm directions arrive in embedding space (u = D^{-1/2}·v); whiten
    // them back into eigenvector space against the current degrees. A
    // row-count mismatch means the network changed shape — drop the seed.
    let whitened = warm.filter(|w| w.nrows() == n).map(|w| {
        let mut v = DenseMatrix::zeros(n, w.ncols());
        for c in 0..w.ncols() {
            for i in 0..n {
                if degrees[i] > 0.0 {
                    v[(i, c)] = w[(i, c)] * degrees[i].sqrt();
                }
            }
        }
        v
    });
    let (_, vectors) = lanczos_largest_seeded(
        |x, y| {
            // Infallible by shape: w_norm is n×n and Lanczos hands us
            // length-n slices.
            ncs_trace::add("isc.sparse_matvecs", 1);
            w_norm.matvec_into(x, y);
            for i in 0..n {
                y[i] += (2.0 - connected[i]) * x[i];
            }
        },
        n,
        k,
        seed,
        whitened.as_ref(),
    )?;
    // Un-whiten: u = D^{-1/2} v, renormalized per column. Lanczos returns
    // columns in descending C order == ascending Laplacian order, which is
    // exactly the MSC embedding order.
    let mut u = DenseMatrix::zeros(n, k);
    for col in 0..k.min(vectors.ncols()) {
        let mut nrm = 0.0;
        for i in 0..n {
            let val = vectors[(i, col)] * inv_sqrt[i];
            u[(i, col)] = val;
            nrm += val * val;
        }
        let nrm = nrm.sqrt();
        if nrm > 0.0 {
            for i in 0..n {
                u[(i, col)] /= nrm;
            }
        }
    }
    Ok(u)
}

/// Assembles the degree-normalized adjacency `W̃` (entries
/// `w_ij·d_i^{-1/2}·d_j^{-1/2}`) of an already-symmetric connection
/// matrix straight into CSR. The bitset's word-level neighbour scan feeds
/// [`CsrBuilder`](ncs_linalg::CsrBuilder) in row-major order, so the
/// whole build is O(nnz) — no triplet buffer, no sort, and never a dense
/// `n × n` intermediate.
// ncs-lint: hot
fn normalized_adjacency_csr(sym: &ConnectionMatrix, inv_sqrt: &[f64]) -> CsrMatrix {
    let n = sym.neurons();
    let nnz: usize = sym.out_degrees().iter().sum();
    let mut b = CsrMatrix::builder(n, n, nnz);
    for i in 0..n {
        let di = inv_sqrt[i];
        for j in sym.row_neighbors(i) {
            b.push(j, di * inv_sqrt[j]);
        }
        b.finish_row();
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncs_net::generators;

    #[test]
    fn separates_disconnected_components() {
        // Two 3-cliques with no cross connections.
        let mut pairs = Vec::new();
        for base in [0usize, 3] {
            for a in 0..3 {
                for b in 0..3 {
                    if a != b {
                        pairs.push((base + a, base + b));
                    }
                }
            }
        }
        let net = ConnectionMatrix::from_pairs(6, pairs).unwrap();
        let c = msc(&net, 2, 1).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.outlier_count(&net), 0);
        // Each clique lands wholly in one cluster.
        let first = c.cluster_of(0).unwrap();
        assert_eq!(c.cluster_of(1), Some(first));
        assert_eq!(c.cluster_of(2), Some(first));
        let second = c.cluster_of(3).unwrap();
        assert_ne!(first, second);
        assert_eq!(c.cluster_of(4), Some(second));
    }

    #[test]
    fn recovers_planted_communities() {
        let (net, truth) = generators::planted_clusters(90, 3, 0.6, 0.005, 11).unwrap();
        let c = msc(&net, 3, 7).unwrap();
        // Measure purity: majority label per cluster.
        let mut correct = 0;
        for members in c.iter() {
            let mut counts = [0usize; 3];
            for &m in members {
                counts[truth[m]] += 1;
            }
            correct += counts.iter().max().unwrap();
        }
        assert!(
            correct as f64 / 90.0 > 0.9,
            "purity {}",
            correct as f64 / 90.0
        );
        assert!(c.outlier_ratio(&net) < 0.1);
    }

    #[test]
    fn clustering_reduces_outliers_vs_random_partition() {
        let (net, _) = generators::planted_clusters(80, 4, 0.5, 0.02, 3).unwrap();
        let spectral = msc(&net, 4, 9).unwrap();
        // A contiguous-chunks partition ignores the hidden structure.
        let naive = Clustering::new(
            (0..4)
                .map(|c| ((c * 20)..((c + 1) * 20)).collect())
                .collect(),
            80,
        );
        assert!(
            spectral.outlier_ratio(&net) < naive.outlier_ratio(&net),
            "spectral {} vs naive {}",
            spectral.outlier_ratio(&net),
            naive.outlier_ratio(&net)
        );
    }

    #[test]
    fn rejects_bad_k() {
        let net = ConnectionMatrix::from_pairs(4, [(0, 1)]).unwrap();
        assert!(msc(&net, 0, 0).is_err());
        assert!(msc(&net, 5, 0).is_err());
    }

    #[test]
    fn handles_networks_with_isolated_neurons() {
        let net = ConnectionMatrix::from_pairs(5, [(0, 1), (1, 0)]).unwrap();
        let c = msc(&net, 2, 0).unwrap();
        assert_eq!(c.outlier_count(&net) + c.within_connections(&net), 2);
    }

    #[test]
    fn partial_embedding_agrees_with_dense_on_cluster_recovery() {
        let (net, truth) = generators::planted_clusters(120, 3, 0.5, 0.005, 13).unwrap();
        let u = spectral_embedding_partial(&net, 3, 7).unwrap();
        let result = crate::kmeans(&u, 3, 7, 200).unwrap();
        let c = Clustering::from_assignment(&result.assignment, 3);
        let mut correct = 0;
        for members in c.iter() {
            let mut counts = [0usize; 3];
            for &m in members {
                counts[truth[m]] += 1;
            }
            correct += counts.iter().max().unwrap();
        }
        assert!(
            correct as f64 / 120.0 > 0.9,
            "purity {}",
            correct as f64 / 120.0
        );
    }

    #[test]
    fn warm_partial_embedding_recovers_clusters() {
        // Seeding with an earlier embedding must not hurt cluster recovery.
        let (net, truth) = generators::planted_clusters(120, 3, 0.5, 0.005, 13).unwrap();
        let cold = spectral_embedding_partial(&net, 3, 7).unwrap();
        let warm = spectral_embedding_partial_warm(&net, 3, 8, Some(&cold)).unwrap();
        let result = crate::kmeans(&warm, 3, 7, 200).unwrap();
        let c = Clustering::from_assignment(&result.assignment, 3);
        let mut correct = 0;
        for members in c.iter() {
            let mut counts = [0usize; 3];
            for &m in members {
                counts[truth[m]] += 1;
            }
            correct += counts.iter().max().unwrap();
        }
        assert!(
            correct as f64 / 120.0 > 0.9,
            "purity {}",
            correct as f64 / 120.0
        );
    }

    #[test]
    fn warm_embedding_with_wrong_shape_is_ignored() {
        // A stale warm matrix from a different-size network falls back to
        // the cold path instead of erroring — bit-identical to cold.
        let (net, _) = generators::planted_clusters(80, 4, 0.5, 0.02, 3).unwrap();
        let stale = DenseMatrix::zeros(60, 4);
        let cold = spectral_embedding_partial(&net, 4, 9).unwrap();
        let warm = spectral_embedding_partial_warm(&net, 4, 9, Some(&stale)).unwrap();
        assert_eq!(cold.shape(), warm.shape());
        for i in 0..80 {
            for j in 0..4 {
                assert_eq!(cold[(i, j)].to_bits(), warm[(i, j)].to_bits());
            }
        }
    }

    #[test]
    fn direct_csr_assembly_matches_triplet_path() {
        // The O(nnz) builder walk must produce bit-for-bit the matrix the
        // old sort-based triplet construction did.
        let (net, _) = generators::planted_clusters(130, 4, 0.4, 0.03, 21).unwrap();
        let sym = net.symmetrized();
        let degrees: Vec<f64> = sym.out_degrees().into_iter().map(|d| d as f64).collect();
        let inv_sqrt: Vec<f64> = degrees
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 1.0 })
            .collect();
        let direct = normalized_adjacency_csr(&sym, &inv_sqrt);
        let triplets: Vec<ncs_linalg::Triplet> = sym
            .iter()
            .map(|(i, j)| ncs_linalg::Triplet::new(i, j, inv_sqrt[i] * inv_sqrt[j]))
            .collect();
        let reference = CsrMatrix::from_triplets(130, 130, &triplets).unwrap();
        assert_eq!(direct, reference);
    }

    #[test]
    fn msc_routes_large_networks_through_the_sparse_path() {
        // Above DENSE_EIGEN_MAX_N the auto route must still recover
        // planted structure (and, by construction, never build a dense
        // n×n Laplacian).
        let n = DENSE_EIGEN_MAX_N + 48;
        let (net, truth) = generators::block_sparse(n, 70, 0.5, 1, 3).unwrap();
        let k = n.div_ceil(70);
        let c = msc(&net, k, 11).unwrap();
        let mut correct = 0;
        for members in c.iter() {
            let mut counts = vec![0usize; k];
            for &m in members {
                counts[truth[m]] += 1;
            }
            correct += counts.iter().max().unwrap();
        }
        assert!(
            correct as f64 / n as f64 > 0.85,
            "purity {}",
            correct as f64 / n as f64
        );
    }

    #[test]
    fn embedding_width_is_capped_at_72() {
        // 2·⌈n/s⌉ + 8 reaches the cap at exactly 32 predicted clusters.
        assert_eq!(embedding_width(31 * 64, 64), 70);
        assert_eq!(embedding_width(32 * 64, 64), 72);
        assert_eq!(embedding_width(32 * 64 + 1, 64), 72);
        assert_eq!(embedding_width(20_000, 16), 72);
        // Never wider than the network.
        assert_eq!(embedding_width(1, 64), 1);
        assert_eq!(embedding_width(5, 64), 5);
        for n in 1..200 {
            assert!(embedding_width(n, 4) <= n);
        }
    }

    #[test]
    fn isc_and_gcp_embed_at_the_capped_width() {
        use crate::{gcp, CrossbarSizeSet, Isc, IscOptions};
        // ⌈1100 / 16⌉ = 69 predicted clusters ask for 146 columns; the
        // cap holds both to 72, so Lanczos builds a 2·72 + 40 basis.
        let (net, _) = generators::block_sparse(1100, 16, 0.5, 1, 3).unwrap();
        let basis = |run: &dyn Fn()| {
            let ((), events) = ncs_trace::capture(run);
            let report = ncs_trace::TraceReport::from_events(&events);
            let s = report.samples.iter().find(|s| s.name == "lanczos.basis");
            s.map(|s| (s.min, s.max))
        };
        let one_iteration = IscOptions {
            sizes: CrossbarSizeSet::single(16).unwrap(),
            max_iterations: 1,
            ..IscOptions::default()
        };
        let run_isc = || {
            Isc::new(one_iteration.clone()).run(&net).unwrap();
        };
        assert_eq!(basis(&run_isc), Some((184, 184)), "ISC");
        let run_gcp = || {
            gcp(&net, 16, 0).unwrap();
        };
        assert_eq!(basis(&run_gcp), Some((184, 184)), "GCP");
    }

    #[test]
    fn partial_embedding_validates_k() {
        let net = ConnectionMatrix::from_pairs(4, [(0, 1)]).unwrap();
        assert!(spectral_embedding_partial(&net, 0, 0).is_err());
        assert!(spectral_embedding_partial(&net, 5, 0).is_err());
    }

    /// ISC's remainder after 7 iterations on paper testbench 1 at seed 19:
    /// 244 connections among 300 neurons, 164 of them isolated, as flat
    /// `(from, to)` pairs. Its whitened Laplacian has a block of
    /// near-zero diagonals (d ≈ 1e-114, e ≈ 6e-114 against ‖T‖ ≈ 2.3)
    /// that the local QL split test never deflates.
    const TB1_SEED19_REMAINDER: [usize; 488] = [
        0, 254, 1, 47, 1, 274, 6, 14, 6, 111, 6, 163, 7, 233, 8, 116, 8, 256, 10, 137, 12, 58, 12,
        64, 12, 99, 12, 171, 14, 6, 14, 28, 14, 62, 14, 160, 14, 276, 15, 51, 18, 47, 21, 207, 25,
        30, 27, 238, 28, 14, 28, 151, 28, 192, 28, 249, 30, 25, 30, 261, 32, 76, 32, 138, 32, 280,
        33, 87, 33, 92, 33, 291, 34, 53, 34, 122, 43, 200, 44, 244, 45, 204, 47, 1, 47, 18, 47, 49,
        47, 67, 47, 77, 47, 83, 47, 122, 48, 196, 49, 47, 51, 15, 51, 188, 51, 265, 52, 175, 53,
        34, 56, 135, 56, 222, 56, 258, 57, 88, 58, 12, 60, 66, 62, 14, 62, 233, 64, 12, 64, 175,
        66, 60, 66, 86, 66, 137, 66, 215, 67, 47, 68, 271, 69, 279, 71, 259, 72, 214, 74, 83, 76,
        32, 77, 47, 80, 83, 80, 119, 80, 210, 80, 251, 82, 83, 83, 47, 83, 74, 83, 80, 83, 82, 83,
        188, 83, 219, 86, 66, 86, 200, 87, 33, 87, 92, 88, 57, 90, 93, 90, 115, 90, 219, 90, 235,
        90, 266, 92, 33, 92, 87, 92, 233, 93, 90, 93, 259, 95, 291, 96, 212, 96, 233, 99, 12, 99,
        279, 104, 147, 111, 6, 114, 157, 114, 175, 114, 268, 114, 289, 115, 90, 115, 163, 115, 205,
        116, 8, 119, 80, 121, 280, 122, 34, 122, 47, 124, 259, 131, 268, 132, 284, 134, 150, 134,
        197, 134, 225, 134, 245, 135, 56, 136, 163, 137, 10, 137, 66, 137, 188, 137, 189, 138, 32,
        138, 291, 138, 295, 142, 175, 143, 151, 144, 182, 147, 104, 150, 134, 150, 246, 151, 28,
        151, 143, 156, 271, 157, 114, 160, 14, 161, 205, 163, 6, 163, 115, 163, 136, 164, 233, 171,
        12, 175, 52, 175, 64, 175, 114, 175, 142, 176, 186, 182, 144, 184, 284, 186, 176, 188, 51,
        188, 83, 188, 137, 189, 137, 192, 28, 194, 212, 196, 48, 197, 134, 200, 43, 200, 86, 204,
        45, 204, 223, 204, 286, 205, 115, 205, 161, 207, 21, 210, 80, 212, 96, 212, 194, 212, 215,
        214, 72, 215, 66, 215, 212, 219, 83, 219, 90, 219, 271, 222, 56, 223, 204, 225, 134, 233,
        7, 233, 62, 233, 92, 233, 96, 233, 164, 235, 90, 238, 27, 238, 251, 244, 44, 245, 134, 245,
        246, 246, 150, 246, 245, 249, 28, 251, 80, 251, 238, 253, 260, 254, 0, 256, 8, 258, 56,
        259, 71, 259, 93, 259, 124, 260, 253, 261, 30, 265, 51, 266, 90, 268, 114, 268, 131, 271,
        68, 271, 156, 271, 219, 271, 275, 272, 276, 274, 1, 275, 271, 276, 14, 276, 272, 279, 69,
        279, 99, 280, 32, 280, 121, 280, 291, 284, 132, 284, 184, 286, 204, 289, 114, 291, 33, 291,
        95, 291, 138, 291, 280, 295, 138,
    ];

    #[test]
    fn embedding_converges_on_a_remainder_of_mostly_isolated_neurons() {
        let pairs = TB1_SEED19_REMAINDER.chunks_exact(2).map(|p| (p[0], p[1]));
        let net = ConnectionMatrix::from_pairs(300, pairs).unwrap();
        assert_eq!(net.connections(), 244);
        let eig = spectral_embedding(&net).unwrap();
        let values = eig.eigenvalues();
        // Normalized-Laplacian spectrum: within [0, 2], one zero per
        // connected component (at least the 164 isolated neurons).
        assert!(values.iter().all(|v| (-1e-9..=2.0 + 1e-9).contains(v)));
        assert!(values.iter().filter(|v| v.abs() < 1e-9).count() >= 164);
        assert!(eig.eigenvectors().as_slice().iter().all(|v| v.is_finite()));
        // Absolute bits, pinned as an FNV-1a hash of the eigenvalues then
        // the eigenvector matrix (row-major): the isolated neurons drive
        // the Householder reduction through its `scale == 0` skip.
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for x in values.iter().chain(eig.eigenvectors().as_slice()) {
            for b in x.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(
            h, 0x9d1e_5df9_cb3f_8fea,
            "embedding bits drifted: {h:#018x}"
        );
    }

    #[test]
    fn k_equals_n_makes_everything_outliers() {
        let net = ConnectionMatrix::from_pairs(4, [(0, 1), (1, 0), (2, 3), (3, 2)]).unwrap();
        let c = msc(&net, 4, 0).unwrap();
        // Singleton clusters cannot contain any (off-diagonal) connection.
        assert_eq!(c.within_connections(&net), 0);
        assert_eq!(c.outlier_ratio(&net), 1.0);
    }
}
