//! Synthetic sparse-network generators.
//!
//! Besides the paper's Hopfield testbenches, the AutoNCS framework is
//! motivated by other sparse workloads — most prominently LDPC decoding
//! networks for IEEE 802.11, whose sparsity exceeds 99 %. This module
//! provides generators for such networks plus structured generators used by
//! tests and ablation benches.

use ncs_rng::Rng;

use crate::{ConnectionMatrix, NetError};

/// Uniform random (Erdős–Rényi style) directed network with a given
/// connection density.
///
/// # Errors
///
/// Returns [`NetError::EmptyRequest`] for `n == 0` and
/// [`NetError::InvalidSparsity`] for `density ∉ [0, 1]`.
///
/// # Examples
///
/// ```
/// let net = ncs_net::generators::uniform_random(200, 0.05, 42)?;
/// assert!((net.density() - 0.05).abs() < 0.01);
/// # Ok::<(), ncs_net::NetError>(())
/// ```
pub fn uniform_random(n: usize, density: f64, seed: u64) -> Result<ConnectionMatrix, NetError> {
    if !(0.0..=1.0).contains(&density) {
        return Err(NetError::InvalidSparsity { value: density });
    }
    let mut net = ConnectionMatrix::empty(n)?;
    let mut rng = Rng::seed_from_u64(seed);
    for i in 0..n {
        for j in 0..n {
            if rng.gen_f64() < density {
                net.connect(i, j)?;
            }
        }
    }
    Ok(net)
}

/// A network with `clusters` planted dense communities of equal size plus
/// uniform background noise, with neuron indices shuffled so the structure
/// is not visible along the diagonal. Ground truth for clustering tests.
///
/// Returns the network and the planted community assignment (community id
/// per neuron).
///
/// # Errors
///
/// Returns [`NetError::EmptyRequest`] for `n == 0` or `clusters == 0`, and
/// [`NetError::InvalidSparsity`] for densities outside `[0, 1]`.
pub fn planted_clusters(
    n: usize,
    clusters: usize,
    inside_density: f64,
    noise_density: f64,
    seed: u64,
) -> Result<(ConnectionMatrix, Vec<usize>), NetError> {
    if clusters == 0 {
        return Err(NetError::EmptyRequest {
            what: "cluster set",
        });
    }
    for d in [inside_density, noise_density] {
        if !(0.0..=1.0).contains(&d) {
            return Err(NetError::InvalidSparsity { value: d });
        }
    }
    let mut net = ConnectionMatrix::empty(n)?;
    let mut rng = Rng::seed_from_u64(seed);
    // Random permutation hides the block structure.
    let mut perm: Vec<usize> = (0..n).collect();
    for k in (1..n).rev() {
        let j = rng.gen_range(0..=k);
        perm.swap(k, j);
    }
    let community = |neuron: usize| -> usize { neuron * clusters / n };
    let mut assignment = vec![0usize; n];
    for (logical, &physical) in perm.iter().enumerate() {
        assignment[physical] = community(logical);
    }
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            let same = community(a) == community(b);
            let p = if same { inside_density } else { noise_density };
            if rng.gen_f64() < p {
                net.connect(perm[a], perm[b])?;
                net.connect(perm[b], perm[a])?;
            }
        }
    }
    Ok((net, assignment))
}

/// An LDPC-style network: a random regular bipartite parity-check graph
/// between `variable` and `check` nodes, expressed over `variable + check`
/// neurons as in a message-passing decoder. Each variable node connects to
/// `var_degree` distinct check nodes (bidirectionally, since messages flow
/// both ways).
///
/// For 802.11-like codes (e.g. 648 variables, 324 checks, degree 3-4) the
/// resulting sparsity is > 99 %, matching the motivation in Section 2.2 of
/// the paper.
///
/// # Errors
///
/// Returns [`NetError::EmptyRequest`] for zero-sized parts and
/// [`NetError::NeuronOutOfRange`] if `var_degree > check`.
pub fn ldpc_like(
    variable: usize,
    check: usize,
    var_degree: usize,
    seed: u64,
) -> Result<ConnectionMatrix, NetError> {
    if variable == 0 || check == 0 {
        return Err(NetError::EmptyRequest { what: "ldpc graph" });
    }
    if var_degree > check {
        return Err(NetError::NeuronOutOfRange {
            index: var_degree,
            neurons: check,
        });
    }
    let n = variable + check;
    let mut net = ConnectionMatrix::empty(n)?;
    let mut rng = Rng::seed_from_u64(seed);
    let mut checks: Vec<usize> = (0..check).collect();
    for v in 0..variable {
        // Partial Fisher-Yates to pick var_degree distinct checks.
        for k in 0..var_degree {
            let j = rng.gen_range(k..check);
            checks.swap(k, j);
            let c = variable + checks[k];
            net.connect(v, c)?;
            net.connect(c, v)?;
        }
    }
    Ok(net)
}

/// A banded network where neuron `i` connects to neighbours within
/// `bandwidth` (wrap-around). Models the locally-connected biology cited in
/// the paper (neocortex connections limited to a neighbourhood) and is a
/// best case for clustering.
///
/// # Errors
///
/// Returns [`NetError::EmptyRequest`] for `n == 0`.
pub fn banded(
    n: usize,
    bandwidth: usize,
    seed: u64,
    density: f64,
) -> Result<ConnectionMatrix, NetError> {
    if !(0.0..=1.0).contains(&density) {
        return Err(NetError::InvalidSparsity { value: density });
    }
    let mut net = ConnectionMatrix::empty(n)?;
    let mut rng = Rng::seed_from_u64(seed);
    for i in 0..n {
        for offset in 1..=bandwidth {
            let j = (i + offset) % n;
            if rng.gen_f64() < density {
                net.connect(i, j)?;
                net.connect(j, i)?;
            }
        }
    }
    Ok(net)
}

/// A scale-free network grown by preferential attachment (Barabási–Albert
/// style): each new neuron connects bidirectionally to `edges_per_node`
/// existing neurons chosen with probability proportional to their degree.
/// Produces the hub-dominated topologies typical of biological and learned
/// connectomes — a stress test for clustering, since hubs straddle
/// clusters.
///
/// # Errors
///
/// Returns [`NetError::EmptyRequest`] for `n == 0` or
/// `edges_per_node == 0`, and [`NetError::NeuronOutOfRange`] if
/// `edges_per_node >= n`.
pub fn scale_free(
    n: usize,
    edges_per_node: usize,
    seed: u64,
) -> Result<ConnectionMatrix, NetError> {
    if edges_per_node == 0 {
        return Err(NetError::EmptyRequest {
            what: "scale-free edge budget",
        });
    }
    if n == 0 {
        return Err(NetError::EmptyRequest {
            what: "scale-free network",
        });
    }
    if edges_per_node >= n {
        return Err(NetError::NeuronOutOfRange {
            index: edges_per_node,
            neurons: n,
        });
    }
    let mut net = ConnectionMatrix::empty(n)?;
    let mut rng = Rng::seed_from_u64(seed);
    // Seed clique over the first m+1 neurons.
    let m = edges_per_node;
    let mut endpoints: Vec<usize> = Vec::new();
    for a in 0..=m {
        for b in (a + 1)..=m {
            net.connect(a, b)?;
            net.connect(b, a)?;
            endpoints.push(a);
            endpoints.push(b);
        }
    }
    for v in (m + 1)..n {
        let mut chosen: Vec<usize> = Vec::with_capacity(m);
        while chosen.len() < m {
            // Preferential attachment: sample an endpoint uniformly.
            let candidate = endpoints[rng.gen_range(0..endpoints.len())];
            if candidate != v && !chosen.contains(&candidate) {
                chosen.push(candidate);
            }
        }
        for &u in &chosen {
            net.connect(v, u)?;
            net.connect(u, v)?;
            endpoints.push(v);
            endpoints.push(u);
        }
    }
    Ok(net)
}

/// A layered feed-forward network like the deep networks cited in the
/// paper's Section 2.2 (ref \[7\]): consecutive layers are connected with
/// the given density, everything else is disconnected. Returns the network
/// and the layer boundaries (`boundaries[l]..boundaries[l+1]` is layer
/// `l`).
///
/// # Errors
///
/// Returns [`NetError::EmptyRequest`] for an empty layer list or a zero
/// layer size, and [`NetError::InvalidSparsity`] for a density outside
/// `[0, 1]`.
pub fn layered(
    layer_sizes: &[usize],
    density: f64,
    seed: u64,
) -> Result<(ConnectionMatrix, Vec<usize>), NetError> {
    if layer_sizes.is_empty() || layer_sizes.contains(&0) {
        return Err(NetError::EmptyRequest {
            what: "layered network",
        });
    }
    if !(0.0..=1.0).contains(&density) {
        return Err(NetError::InvalidSparsity { value: density });
    }
    let n: usize = layer_sizes.iter().sum();
    let mut boundaries = Vec::with_capacity(layer_sizes.len() + 1);
    let mut acc = 0;
    boundaries.push(0);
    for &s in layer_sizes {
        acc += s;
        boundaries.push(acc);
    }
    let mut net = ConnectionMatrix::empty(n)?;
    let mut rng = Rng::seed_from_u64(seed);
    for l in 0..layer_sizes.len() - 1 {
        for from in boundaries[l]..boundaries[l + 1] {
            for to in boundaries[l + 1]..boundaries[l + 2] {
                if rng.gen_f64() < density {
                    net.connect(from, to)?;
                }
            }
        }
    }
    Ok((net, boundaries))
}

/// A block-sparse network: neurons tiled into consecutive blocks of
/// `block` neurons, dense symmetric connectivity inside each block
/// (`inside_density`), plus `bridges_per_block` random bidirectional
/// single connections from each block to the rest of the network.
///
/// Construction cost and connection count are O(n·block), independent of
/// n² — this is the scale workload for the sparse-first clustering
/// pipeline (constant average degree, so nnz grows linearly with n).
/// The inter-block bridges are single connections in otherwise-empty
/// block pairs, the cross-cluster outliers a good clustering leaves as
/// discrete synapses. Returns the network and the planted block id per
/// neuron.
///
/// # Errors
///
/// Returns [`NetError::EmptyRequest`] for `n == 0` or `block == 0`, and
/// [`NetError::InvalidSparsity`] for `inside_density ∉ [0, 1]`.
pub fn block_sparse(
    n: usize,
    block: usize,
    inside_density: f64,
    bridges_per_block: usize,
    seed: u64,
) -> Result<(ConnectionMatrix, Vec<usize>), NetError> {
    if block == 0 {
        return Err(NetError::EmptyRequest { what: "block size" });
    }
    if !(0.0..=1.0).contains(&inside_density) {
        return Err(NetError::InvalidSparsity {
            value: inside_density,
        });
    }
    let mut net = ConnectionMatrix::empty(n)?;
    let mut rng = Rng::seed_from_u64(seed);
    let blocks = n.div_ceil(block);
    for b in 0..blocks {
        let start = b * block;
        let end = ((b + 1) * block).min(n);
        for a in start..end {
            for c in (a + 1)..end {
                if rng.gen_f64() < inside_density {
                    net.connect(a, c)?;
                    net.connect(c, a)?;
                }
            }
        }
    }
    if blocks > 1 {
        for b in 0..blocks {
            let start = b * block;
            let end = ((b + 1) * block).min(n);
            for _ in 0..bridges_per_block {
                let from = rng.gen_range(start..end);
                // Uniform target outside this block.
                let mut to = rng.gen_range(0..n - (end - start));
                if to >= start {
                    to += end - start;
                }
                net.connect(from, to)?;
                net.connect(to, from)?;
            }
        }
    }
    let assignment = (0..n).map(|i| i / block).collect();
    Ok((net, assignment))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_density_is_close() {
        let net = uniform_random(100, 0.1, 7).unwrap();
        assert!((net.density() - 0.1).abs() < 0.02);
        assert!(uniform_random(10, 1.5, 0).is_err());
        assert!(uniform_random(0, 0.5, 0).is_err());
    }

    #[test]
    fn uniform_extremes() {
        assert_eq!(uniform_random(10, 0.0, 0).unwrap().connections(), 0);
        assert_eq!(uniform_random(10, 1.0, 0).unwrap().connections(), 100);
    }

    #[test]
    fn planted_clusters_have_internal_structure() {
        let (net, assignment) = planted_clusters(80, 4, 0.6, 0.01, 13).unwrap();
        assert_eq!(assignment.len(), 80);
        // Count within vs across community connections.
        let mut within = 0;
        let mut across = 0;
        for (i, j) in net.iter() {
            if assignment[i] == assignment[j] {
                within += 1;
            } else {
                across += 1;
            }
        }
        assert!(within > across * 3, "within {within} across {across}");
        assert!(net.is_symmetric());
    }

    #[test]
    fn planted_rejects_bad_args() {
        assert!(planted_clusters(10, 0, 0.5, 0.0, 0).is_err());
        assert!(planted_clusters(10, 2, 1.5, 0.0, 0).is_err());
    }

    #[test]
    fn ldpc_structure_and_sparsity() {
        let net = ldpc_like(648, 324, 4, 3).unwrap();
        assert_eq!(net.neurons(), 972);
        assert!(net.sparsity() > 0.99, "sparsity {}", net.sparsity());
        assert!(net.is_symmetric());
        // Variable nodes have degree exactly var_degree (each edge counted
        // once per direction).
        for v in 0..648 {
            assert_eq!(net.fanout(v), 4);
        }
        // No variable-variable or check-check connections.
        for (i, j) in net.iter() {
            let i_var = i < 648;
            let j_var = j < 648;
            assert_ne!(i_var, j_var, "({i},{j}) violates bipartiteness");
        }
        assert!(ldpc_like(0, 10, 2, 0).is_err());
        assert!(ldpc_like(10, 3, 5, 0).is_err());
    }

    #[test]
    fn scale_free_has_hubs() {
        let net = scale_free(200, 3, 17).unwrap();
        assert!(net.is_symmetric());
        let mut degrees: Vec<usize> = (0..200).map(|i| net.fanout(i)).collect();
        degrees.sort_unstable();
        // Heavy tail: the max degree dwarfs the median.
        let median = degrees[100];
        let max = *degrees.last().unwrap();
        assert!(max >= median * 3, "max {max} vs median {median}");
        // Every late-joining neuron has at least edges_per_node links.
        assert!(degrees[0] >= 3);
        assert!(scale_free(10, 0, 0).is_err());
        assert!(scale_free(0, 2, 0).is_err());
        assert!(scale_free(3, 3, 0).is_err());
    }

    #[test]
    fn layered_connects_only_adjacent_layers() {
        let (net, bounds) = layered(&[10, 20, 5], 0.5, 3).unwrap();
        assert_eq!(net.neurons(), 35);
        assert_eq!(bounds, vec![0, 10, 30, 35]);
        let layer_of = |x: usize| bounds.iter().rposition(|&b| b <= x).unwrap();
        for (f, t) in net.iter() {
            assert_eq!(layer_of(f) + 1, layer_of(t), "({f},{t}) skips layers");
        }
        assert!(layered(&[], 0.5, 0).is_err());
        assert!(layered(&[3, 0], 0.5, 0).is_err());
        assert!(layered(&[3, 3], 1.5, 0).is_err());
    }

    #[test]
    fn layered_full_density_is_complete_bipartite() {
        let (net, _) = layered(&[4, 6], 1.0, 0).unwrap();
        assert_eq!(net.connections(), 24);
    }

    #[test]
    fn block_sparse_structure() {
        let (net, blocks) = block_sparse(300, 50, 0.4, 2, 11).unwrap();
        assert_eq!(net.neurons(), 300);
        assert!(net.is_symmetric());
        assert_eq!(blocks.len(), 300);
        assert_eq!(blocks[49], 0);
        assert_eq!(blocks[50], 1);
        // Mostly intra-block: each block contributes at most 2 bridge
        // edges (4 directed connections), the rest stay inside.
        let mut within = 0;
        let mut across = 0;
        for (i, j) in net.iter() {
            if blocks[i] == blocks[j] {
                within += 1;
            } else {
                across += 1;
            }
        }
        assert!(within > across * 10, "within {within} across {across}");
        assert!(across > 0, "bridges must connect blocks");
        // nnz scales with n, not n²: average degree is bounded by the
        // block size plus the bridge budget.
        assert!(net.connections() < 300 * 52 * 2);
        assert!(block_sparse(10, 0, 0.5, 1, 0).is_err());
        assert!(block_sparse(0, 4, 0.5, 1, 0).is_err());
        assert!(block_sparse(10, 4, 1.5, 1, 0).is_err());
    }

    #[test]
    fn block_sparse_single_block_has_no_bridges() {
        let (net, blocks) = block_sparse(30, 64, 1.0, 3, 5).unwrap();
        assert_eq!(blocks, vec![0; 30]);
        // Complete within the single block, minus the diagonal.
        assert_eq!(net.connections(), 30 * 29);
    }

    #[test]
    fn banded_respects_bandwidth() {
        let net = banded(50, 3, 1, 1.0).unwrap();
        for (i, j) in net.iter() {
            let d = (i as isize - j as isize).unsigned_abs();
            let wrapped = d.min(50 - d);
            assert!(wrapped <= 3, "({i},{j}) distance {wrapped}");
        }
        assert!(banded(10, 2, 0, -0.1).is_err());
    }
}
