use ncs_linalg::DenseMatrix;
use ncs_net::ConnectionMatrix;

use crate::gcp::gcp_from_embedding;
use crate::msc::{embedding_width, EmbeddingSource};
use crate::{
    crossbar_preference, full_crossbar, min_satisfiable_size, ClusterError, CpModel,
    CrossbarAssignment, CrossbarSizeSet, HybridMapping,
};

/// Options for [`Isc`].
#[derive(Debug, Clone, PartialEq)]
pub struct IscOptions {
    /// Available crossbar sizes `S` (the paper uses 16..=64 step 4).
    pub sizes: CrossbarSizeSet,
    /// Stop threshold `t` on the per-iteration average crossbar
    /// utilization. `None` derives it from the FullCro baseline's average
    /// utilization, matching the experimental setup in Section 4.2.
    pub utilization_threshold: Option<f64>,
    /// CP quantile above which clusters are realized each iteration. The
    /// paper empirically removes the top 25 %, i.e. quantile 0.75.
    pub selection_quantile: f64,
    /// How crossbar preference is computed.
    pub cp_model: CpModel,
    /// RNG seed driving all k-means initializations.
    pub seed: u64,
    /// Hard cap on ISC iterations (safety net; the utilization threshold
    /// is the intended stop).
    pub max_iterations: usize,
    /// Whether to apply Algorithm 3's lines 6-8 literally and stop as soon
    /// as the CP-quantile cluster is smaller than the smallest crossbar
    /// class. Section 4.2 describes the utilization threshold as the
    /// operative stop ("the iteration of ISC stops when the average
    /// crossbar utilization is below that of the baseline design"), and on
    /// our regenerated testbenches the literal check fires several
    /// iterations early, so it defaults to `false`.
    pub quantile_size_stop: bool,
}

impl Default for IscOptions {
    fn default() -> Self {
        IscOptions {
            sizes: CrossbarSizeSet::paper(),
            utilization_threshold: None,
            selection_quantile: 0.75,
            cp_model: CpModel::default(),
            seed: 0,
            max_iterations: 64,
            quantile_size_stop: false,
        }
    }
}

/// Why an ISC run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Per-iteration average utilization fell below the threshold `t`
    /// (Algorithm 3 line 17).
    UtilizationBelowThreshold,
    /// The quantile cluster no longer fills even the smallest crossbar
    /// (Algorithm 3 lines 6-8).
    QuantileClusterTooSmall,
    /// Every connection has been clustered.
    NoConnectionsLeft,
    /// An iteration selected clusters but removed no connections.
    NothingRemoved,
    /// The `max_iterations` safety cap fired.
    IterationBudget,
}

/// Per-iteration record of an ISC run (the data behind Figures 6-9).
#[derive(Debug, Clone, PartialEq)]
pub struct IscIteration {
    /// 1-based iteration number `m`.
    pub iteration: usize,
    /// Clusters produced by GCP this iteration.
    pub clusters_formed: usize,
    /// Clusters selected (CP ≥ quantile) and realized on crossbars.
    pub clusters_selected: usize,
    /// Connections moved from the remaining network into crossbars.
    pub connections_removed: usize,
    /// Outlier ratio after this iteration (remaining / original).
    pub outlier_ratio: f64,
    /// Average utilization of the crossbars placed this iteration.
    pub average_utilization: f64,
    /// Average CP of the crossbars placed this iteration.
    pub average_cp: f64,
}

/// Full trace of an ISC run.
#[derive(Debug, Clone, PartialEq)]
pub struct IscTrace {
    /// One record per completed iteration.
    pub iterations: Vec<IscIteration>,
    /// Why the run stopped.
    pub stop_reason: StopReason,
    /// The utilization threshold `t` that was in effect.
    pub threshold: f64,
}

/// How ISC embeds each iteration's remainder, given the network, the
/// Lanczos width, the seed and the previous Lanczos embedding:
/// [`EmbeddingSource::new`] outside the tests.
type Embed = fn(
    &ConnectionMatrix,
    usize,
    u64,
    Option<&DenseMatrix>,
) -> Result<EmbeddingSource, ClusterError>;

/// Mirrors one completed [`IscIteration`] onto the `ncs-trace` counters,
/// so the observability stream and the returned [`IscTrace`] are derived
/// from the same bookkeeping (one source of truth, never two tallies).
fn trace_iteration(rec: &IscIteration) {
    ncs_trace::add("isc.iterations", 1);
    ncs_trace::add("isc.clusters_selected", rec.clusters_selected as u64);
    ncs_trace::add("isc.connections_removed", rec.connections_removed as u64);
}

/// **Iterative Spectral Clustering** (Algorithm 3) with the partial
/// selection strategy.
///
/// Each iteration clusters the *remaining* network with MSC+GCP, ranks the
/// clusters by [crossbar preference](CpModel), realizes only those at or
/// above the CP quantile on the minimum satisfiable crossbar from `S`, and
/// removes their connections. Re-clustering the remainder sidesteps the
/// *cluster concealing* effect described in Section 3.4; keeping
/// low-CP clusters in the pool lets their connections merge with
/// yet-unclustered ones in later rounds. Iteration stops when the
/// freshly-placed crossbars' average utilization drops below `t`; whatever
/// remains becomes discrete synapses. Above
/// [`DENSE_EIGEN_MAX_N`](crate::DENSE_EIGEN_MAX_N) neurons each embedding
/// is a Lanczos solve warm-started from the previous iteration's.
///
/// # Examples
///
/// ```
/// use ncs_cluster::{Isc, IscOptions};
/// use ncs_net::generators;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = generators::planted_clusters(128, 4, 0.4, 0.01, 2)?.0;
/// let (mapping, trace) = Isc::new(IscOptions::default()).run_traced(&net)?;
/// mapping.verify_covers(&net).expect("mapping covers the network");
/// assert!(!trace.iterations.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Isc {
    options: IscOptions,
}

impl Isc {
    /// Creates an ISC runner with the given options.
    pub fn new(options: IscOptions) -> Self {
        Isc { options }
    }

    /// The options in effect.
    pub fn options(&self) -> &IscOptions {
        &self.options
    }

    /// Runs ISC and returns the hybrid mapping.
    ///
    /// # Errors
    ///
    /// See [`Isc::run_traced`].
    pub fn run(&self, net: &ConnectionMatrix) -> Result<HybridMapping, ClusterError> {
        self.run_traced(net).map(|(mapping, _)| mapping)
    }

    /// Runs ISC and returns both the mapping and the per-iteration trace.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidThreshold`] for a threshold or
    /// selection quantile outside `[0, 1]`, and propagates clustering
    /// failures.
    pub fn run_traced(
        &self,
        net: &ConnectionMatrix,
    ) -> Result<(HybridMapping, IscTrace), ClusterError> {
        self.run_with(net, EmbeddingSource::new)
    }

    /// [`Isc::run_traced`] with the per-iteration embedding as a
    /// parameter, so the tests can run the loop on Lanczos at any size and
    /// without warm starts.
    fn run_with(
        &self,
        net: &ConnectionMatrix,
        embed: Embed,
    ) -> Result<(HybridMapping, IscTrace), ClusterError> {
        let _span = ncs_trace::span("cluster.isc");
        let opts = &self.options;
        if !(0.0..=1.0).contains(&opts.selection_quantile) {
            return Err(ClusterError::InvalidThreshold {
                value: opts.selection_quantile,
            });
        }
        let threshold = match opts.utilization_threshold {
            Some(t) if !(0.0..=1.0).contains(&t) => {
                return Err(ClusterError::InvalidThreshold { value: t })
            }
            Some(t) => t,
            None => full_crossbar(net, opts.sizes.max())?.average_utilization(),
        };
        let total = net.connections();
        let mut remaining = net.clone();
        let mut crossbars: Vec<CrossbarAssignment> = Vec::new();
        let mut iterations = Vec::new();
        let mut stop_reason = StopReason::IterationBudget;
        // The previous iteration's Lanczos embedding: connection removal
        // perturbs the Laplacian only mildly, so its Ritz vectors are
        // near-invariant directions that seed the next solve.
        let mut warm: Option<DenseMatrix> = None;
        // Per-cluster scratch, hoisted so the candidate loop allocates
        // nothing per cluster (O(n·clusters) zeroing becomes O(n) total).
        let mut mask = vec![false; remaining.neurons()];
        let mut active_mask = vec![false; remaining.neurons()];

        for m in 1..=opts.max_iterations {
            if remaining.connections() == 0 {
                stop_reason = StopReason::NoConnectionsLeft;
                break;
            }
            // Line 3: cluster the remaining network with MSC+GCP.
            let n = remaining.neurons();
            let width = embedding_width(n, opts.sizes.max());
            let seed = opts.seed.wrapping_add(m as u64);
            let source = embed(&remaining, width, seed, warm.as_ref())?;
            let gcp_seed = opts.seed.wrapping_add(m as u64 * 0x9e37);
            let clustering = gcp_from_embedding(&source, n, opts.sizes.max(), gcp_seed)?;
            warm = match source {
                EmbeddingSource::Partial(u) => Some(u),
                EmbeddingSource::Dense(_) => None,
            };

            // Line 4: compute CP per cluster (on the remaining network).
            // A cluster's crossbar only needs rows/columns for the members
            // that actually carry within-cluster connections, so the size
            // is chosen for those *active* members.
            struct Candidate {
                active: Vec<usize>,
                connections: Vec<(usize, usize)>,
                cp: f64,
            }
            let mut candidates: Vec<Candidate> = Vec::with_capacity(clustering.len());
            for members in clustering.iter() {
                for &mm in members {
                    mask[mm] = true;
                }
                let mut connections = Vec::new();
                for &f in members {
                    for t in remaining.fanout_of(f) {
                        if mask[t] {
                            connections.push((f, t));
                            active_mask[f] = true;
                            active_mask[t] = true;
                        }
                    }
                }
                let active: Vec<usize> = members
                    .iter()
                    .copied()
                    .filter(|&mm| active_mask[mm])
                    .collect();
                // Every set entry of both masks is a member, so clearing
                // over `members` restores the scratch for the next cluster.
                for &mm in members {
                    mask[mm] = false;
                    active_mask[mm] = false;
                }
                let size = opts
                    .sizes
                    .smallest_fitting(active.len())
                    .unwrap_or(opts.sizes.max());
                candidates.push(Candidate {
                    cp: crossbar_preference(connections.len(), size, opts.cp_model),
                    active,
                    connections,
                });
            }

            // Line 5: the CP quantile q.
            let mut cps: Vec<f64> = candidates.iter().map(|c| c.cp).collect();
            cps.sort_by(|a, b| a.total_cmp(b));
            let q_idx = ((opts.selection_quantile * cps.len() as f64).ceil() as usize)
                .saturating_sub(1)
                .min(cps.len() - 1);
            let q = cps[q_idx];

            // Lines 6-8 (optional, see `quantile_size_stop`): stop when the
            // quantile cluster cannot fill even the smallest crossbar class.
            if opts.quantile_size_stop {
                let quantile_cluster = candidates
                    .iter()
                    .filter(|c| c.cp >= q)
                    .min_by(|a, b| a.cp.total_cmp(&b.cp));
                if let Some(qc) = quantile_cluster {
                    if qc.active.len() < opts.sizes.min() {
                        stop_reason = StopReason::QuantileClusterTooSmall;
                        break;
                    }
                }
            }

            // Lines 9-14: realize the selected clusters, remove their
            // connections from the remainder.
            let mut removed = 0usize;
            let mut selected = 0usize;
            let mut util_sum = 0.0;
            let mut cp_sum = 0.0;
            for c in candidates {
                if c.cp >= q && !c.connections.is_empty() {
                    let size = min_satisfiable_size(&opts.sizes, c.active.len())?;
                    removed += remaining.remove_within(&c.active);
                    let xbar =
                        CrossbarAssignment::new(c.active.clone(), c.active, size, c.connections);
                    util_sum += xbar.utilization();
                    cp_sum += xbar.cp(opts.cp_model);
                    crossbars.push(xbar);
                    selected += 1;
                }
            }

            // Line 15: per-iteration average utilization drives the stop.
            let avg_util = if selected > 0 {
                util_sum / selected as f64
            } else {
                0.0
            };
            let avg_cp = if selected > 0 {
                cp_sum / selected as f64
            } else {
                0.0
            };
            let record = IscIteration {
                iteration: m,
                clusters_formed: clustering.len(),
                clusters_selected: selected,
                connections_removed: removed,
                outlier_ratio: if total == 0 {
                    0.0
                } else {
                    remaining.connections() as f64 / total as f64
                },
                average_utilization: avg_util,
                average_cp: avg_cp,
            };
            trace_iteration(&record);
            iterations.push(record);
            if removed == 0 {
                stop_reason = StopReason::NothingRemoved;
                break;
            }
            if avg_util < threshold {
                stop_reason = StopReason::UtilizationBelowThreshold;
                break;
            }
        }

        // Line 18: remaining connections become discrete synapses.
        let outliers: Vec<(usize, usize)> = remaining.iter().collect();
        ncs_trace::record("isc.outliers", outliers.len() as u64);
        let mapping = HybridMapping::new(net.neurons(), crossbars, outliers);
        Ok((
            mapping,
            IscTrace {
                iterations,
                stop_reason,
                threshold,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DENSE_EIGEN_MAX_N;
    use ncs_net::generators;

    fn structured_net() -> ConnectionMatrix {
        generators::planted_clusters(128, 4, 0.4, 0.01, 21)
            .unwrap()
            .0
    }

    #[test]
    fn covering_invariant_holds() {
        let net = structured_net();
        let mapping = Isc::new(IscOptions::default()).run(&net).unwrap();
        mapping.verify_covers(&net).unwrap();
    }

    #[test]
    fn outlier_ratio_decreases_monotonically() {
        let net = structured_net();
        let (_, trace) = Isc::new(IscOptions::default()).run_traced(&net).unwrap();
        let mut last = 1.0;
        for it in &trace.iterations {
            assert!(
                it.outlier_ratio <= last + 1e-12,
                "iteration {}",
                it.iteration
            );
            last = it.outlier_ratio;
        }
        assert!(!trace.iterations.is_empty());
    }

    #[test]
    fn clusters_structured_network_well() {
        let net = structured_net();
        let (mapping, _) = Isc::new(IscOptions::default()).run_traced(&net).unwrap();
        assert!(
            mapping.outlier_ratio() < 0.5,
            "outlier ratio {} too high for a structured network",
            mapping.outlier_ratio()
        );
        // Crossbars never exceed the largest class and always come from S.
        let sizes = CrossbarSizeSet::paper();
        for c in mapping.crossbars() {
            assert!(sizes.sizes().contains(&c.size));
            assert!(c.inputs.len() <= c.size);
        }
    }

    #[test]
    fn beats_fullcro_utilization() {
        let net = structured_net();
        let mapping = Isc::new(IscOptions::default()).run(&net).unwrap();
        let baseline = full_crossbar(&net, 64).unwrap();
        assert!(
            mapping.average_utilization() > baseline.average_utilization(),
            "isc {} vs fullcro {}",
            mapping.average_utilization(),
            baseline.average_utilization()
        );
    }

    #[test]
    fn explicit_threshold_is_respected() {
        let net = structured_net();
        // Impossibly high threshold => stop after the first iteration.
        let opts = IscOptions {
            utilization_threshold: Some(0.99),
            ..IscOptions::default()
        };
        let (_, trace) = Isc::new(opts).run_traced(&net).unwrap();
        assert_eq!(trace.iterations.len(), 1);
        assert_eq!(trace.stop_reason, StopReason::UtilizationBelowThreshold);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let net = ConnectionMatrix::from_pairs(4, [(0, 1)]).unwrap();
        let opts = IscOptions {
            utilization_threshold: Some(1.5),
            ..IscOptions::default()
        };
        assert!(Isc::new(opts).run(&net).is_err());
        let opts = IscOptions {
            selection_quantile: -0.1,
            ..IscOptions::default()
        };
        assert!(Isc::new(opts).run(&net).is_err());
    }

    #[test]
    fn empty_network_maps_to_nothing() {
        let net = ConnectionMatrix::empty(32).unwrap();
        let (mapping, trace) = Isc::new(IscOptions::default()).run_traced(&net).unwrap();
        assert_eq!(mapping.crossbars().len(), 0);
        assert_eq!(mapping.outliers().len(), 0);
        assert_eq!(trace.stop_reason, StopReason::NoConnectionsLeft);
    }

    #[test]
    fn trace_records_are_consistent() {
        let net = structured_net();
        let (mapping, trace) = Isc::new(IscOptions::default()).run_traced(&net).unwrap();
        let total_removed: usize = trace.iterations.iter().map(|i| i.connections_removed).sum();
        assert_eq!(total_removed, mapping.realized_connections());
        let total_selected: usize = trace.iterations.iter().map(|i| i.clusters_selected).sum();
        assert_eq!(total_selected, mapping.crossbars().len());
    }

    #[test]
    fn deterministic_per_seed() {
        let net = structured_net();
        let a = Isc::new(IscOptions::default()).run(&net).unwrap();
        let b = Isc::new(IscOptions::default()).run(&net).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn iteration_budget_stops_the_loop() {
        let net = structured_net();
        let opts = IscOptions {
            max_iterations: 1,
            // A permissive threshold so the budget is the binding stop.
            utilization_threshold: Some(0.0),
            ..IscOptions::default()
        };
        let (_, trace) = Isc::new(opts).run_traced(&net).unwrap();
        assert_eq!(trace.iterations.len(), 1);
        assert_eq!(trace.stop_reason, StopReason::IterationBudget);
    }

    #[test]
    fn literal_quantile_stop_never_worsens_utilization() {
        // The paper-literal lines 6-8 stop can only cut iterations short,
        // which keeps only the better crossbars.
        let net = structured_net();
        let loose = Isc::new(IscOptions::default()).run(&net).unwrap();
        let strict = Isc::new(IscOptions {
            quantile_size_stop: true,
            ..IscOptions::default()
        })
        .run(&net)
        .unwrap();
        assert!(strict.crossbars().len() <= loose.crossbars().len());
        assert!(strict.average_utilization() >= loose.average_utilization() - 1e-9);
        strict.verify_covers(&net).unwrap();
    }

    /// The loop's Lanczos path at any network size, warm-started.
    fn run_lanczos(net: &ConnectionMatrix) -> (HybridMapping, IscTrace) {
        Isc::new(IscOptions::default())
            .run_with(net, EmbeddingSource::lanczos)
            .unwrap()
    }

    #[test]
    fn lanczos_backend_matches_dense_quality() {
        let net = structured_net();
        let dense = Isc::new(IscOptions::default()).run(&net).unwrap();
        let (lanczos, _) = run_lanczos(&net);
        lanczos.verify_covers(&net).unwrap();
        // Same ballpark of coverage; the partial solver is an
        // approximation, so allow a band.
        assert!(
            (lanczos.outlier_ratio() - dense.outlier_ratio()).abs() < 0.2,
            "lanczos {} vs dense {}",
            lanczos.outlier_ratio(),
            dense.outlier_ratio()
        );
    }

    #[test]
    fn warm_started_lanczos_matches_cold_trace() {
        // Warm-starting changes where the Krylov iteration *starts*, so on
        // nets whose later iterations sit on near-tie cluster boundaries
        // the approximate partial solver can legitimately tile the
        // remainder differently. This planted two-community instance has
        // robust decisions at every iteration (verified to agree across
        // oversample budgets 8/16/32), so warm and cold runs must produce
        // the identical trace and mapping — and determinism keeps this
        // equality pinned.
        let net = generators::planted_clusters(96, 2, 0.8, 0.002, 4)
            .unwrap()
            .0;
        let (warm_map, warm_trace) = run_lanczos(&net);
        let (cold_map, cold_trace) = Isc::new(IscOptions::default())
            .run_with(&net, |net, width, seed, _| {
                EmbeddingSource::lanczos(net, width, seed, None)
            })
            .unwrap();
        assert_eq!(warm_trace, cold_trace);
        assert_eq!(warm_map, cold_map);
        assert!(
            warm_trace.iterations.len() >= 2,
            "need several iterations for the warm path to actually engage"
        );
    }

    #[test]
    fn warm_start_counter_fires() {
        let net = structured_net();
        let (_, events) = ncs_trace::capture(|| run_lanczos(&net));
        let report = ncs_trace::TraceReport::from_events(&events);
        let warm = report
            .counters
            .iter()
            .find(|c| c.name == "isc.warm_starts")
            .map_or(0, |c| c.total);
        assert!(warm >= 1, "warm starts never engaged: {warm}");
    }

    #[test]
    fn sparse_lanczos_mapping_matches_the_dense_reference_on_small_networks() {
        // Dense-vs-sparse equivalence, end to end: on this robust
        // two-community instance (decisions verified stable across
        // oversample budgets) the approximate Lanczos pipeline must
        // reproduce the dense reference mapping exactly — every crossbar,
        // member list, and outlier.
        let net = generators::planted_clusters(96, 2, 0.8, 0.002, 4)
            .unwrap()
            .0;
        let reference = Isc::new(IscOptions::default()).run(&net).unwrap();
        reference.verify_covers(&net).unwrap();
        assert_eq!(run_lanczos(&net).0, reference);
    }

    #[test]
    fn backend_resolution_switches_at_the_threshold() {
        // One 3-cycle among isolated neurons keeps both solves cheap; the
        // decision looks only at the neuron count.
        let net = |n| ConnectionMatrix::from_pairs(n, [(0, 1), (1, 2), (2, 0)]).unwrap();
        let dense = EmbeddingSource::new(&net(DENSE_EIGEN_MAX_N), 4, 0, None).unwrap();
        assert!(matches!(dense, EmbeddingSource::Dense(_)));
        assert_eq!(dense.max_k(), DENSE_EIGEN_MAX_N);
        let sparse = EmbeddingSource::new(&net(DENSE_EIGEN_MAX_N + 1), 4, 0, None).unwrap();
        assert!(matches!(sparse, EmbeddingSource::Partial(_)));
        assert_eq!(sparse.max_k(), 4);
    }

    #[test]
    fn crossbars_are_trimmed_to_active_members() {
        let net = structured_net();
        let (mapping, _) = Isc::new(IscOptions::default()).run_traced(&net).unwrap();
        for xbar in mapping.crossbars() {
            // Every listed input/output neuron actually carries at least
            // one of the crossbar's connections.
            for &m in xbar.inputs.iter().chain(&xbar.outputs) {
                assert!(
                    xbar.connections.iter().any(|&(f, t)| f == m || t == m),
                    "neuron {m} is wired to a crossbar it does not use"
                );
            }
        }
    }
}
