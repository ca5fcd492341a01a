//! Integration tests for the clustering stack (MSC → GCP → ISC) against
//! the network substrate, checking the paper's qualitative claims on
//! scaled-down workloads.

use ncs_cluster::stats::{FaninFanoutProfile, MappingComparison};
use ncs_cluster::CpModel;
use ncs_cluster::{full_crossbar, gcp, msc, traversing, CrossbarSizeSet, Isc, IscOptions};
use ncs_net::{generators, Testbench, TestbenchSpec};

/// A scaled-down analogue of the paper's testbenches: Hopfield-derived
/// sparse network small enough for debug-mode tests.
fn mini_testbench(seed: u64) -> ncs_net::ConnectionMatrix {
    let spec = TestbenchSpec {
        id: 99,
        patterns: 6,
        neurons: 120,
        sparsity: 0.90,
    };
    Testbench::from_spec(spec, seed).unwrap().network().clone()
}

#[test]
fn msc_concentrates_connections_into_clusters() {
    // Figure 3's claim: after MSC the connections group into clusters.
    let net = mini_testbench(5);
    let k = net.neurons().div_ceil(32);
    let clustering = msc(&net, k, 1).unwrap();
    // A handful of clusters should capture a large share of connections.
    let ratio = clustering.outlier_ratio(&net);
    assert!(ratio < 0.75, "outlier ratio after one MSC pass: {ratio}");
}

#[test]
fn gcp_and_traversing_agree_on_quality() {
    // Figure 4's claim: GCP and traversing produce very close clusterings.
    let net = mini_testbench(7);
    let limit = 24;
    let g = gcp(&net, limit, 2).unwrap();
    let t = traversing(&net, limit, 2).unwrap();
    assert!(g.max_cluster_size() <= limit);
    assert!(t.max_cluster_size() <= limit);
    let (go, to) = (g.outlier_ratio(&net), t.outlier_ratio(&net));
    assert!((go - to).abs() < 0.25, "gcp {go} vs traversing {to}");
}

#[test]
fn isc_outliers_shrink_below_half() {
    // Figure 6's claim (scaled down): iterating ISC leaves only a small
    // fraction of connections as outliers.
    let net = mini_testbench(11);
    let opts = IscOptions {
        sizes: CrossbarSizeSet::new([8, 12, 16, 20, 24, 28, 32]).unwrap(),
        seed: 4,
        ..IscOptions::default()
    };
    let (mapping, trace) = Isc::new(opts).run_traced(&net).unwrap();
    assert!(
        trace.iterations.len() >= 2,
        "expected multiple ISC iterations"
    );
    assert!(
        mapping.outlier_ratio() < 0.5,
        "outlier ratio {} after {} iterations",
        mapping.outlier_ratio(),
        trace.iterations.len()
    );
}

#[test]
fn isc_utilization_beats_fullcro_substantially() {
    let net = mini_testbench(13);
    let sizes = CrossbarSizeSet::new([8, 12, 16, 20, 24, 28, 32]).unwrap();
    let max = sizes.max();
    let opts = IscOptions {
        sizes,
        seed: 5,
        ..IscOptions::default()
    };
    let mapping = Isc::new(opts).run(&net).unwrap();
    let baseline = full_crossbar(&net, max).unwrap();
    let cmp = MappingComparison::new(&mapping, &baseline, CpModel::default());
    assert!(
        cmp.normalized_utilization() > 1.5,
        "normalized utilization {}",
        cmp.normalized_utilization()
    );
}

#[test]
fn fanin_fanout_sum_is_at_most_baseline() {
    // Figure 9(d)'s claim: after ISC the average total fanin+fanout is
    // below the baseline's (~80% in the paper), because crossbars absorb
    // connections into single neuron-to-crossbar wires.
    let net = mini_testbench(17);
    let sizes = CrossbarSizeSet::new([8, 12, 16, 20, 24, 28, 32]).unwrap();
    let max = sizes.max();
    let mapping = Isc::new(IscOptions {
        sizes,
        seed: 6,
        ..IscOptions::default()
    })
    .run(&net)
    .unwrap();
    let baseline = full_crossbar(&net, max).unwrap();
    let ours = FaninFanoutProfile::of(&mapping);
    let base = FaninFanoutProfile::of(&baseline);
    // Crossbar ports collapse many connections into one wire, so the
    // hybrid design needs fewer wire endpoints overall (the paper reports
    // ~80% of baseline).
    assert!(
        ours.average_sum() <= base.average_sum() * 1.05,
        "ours {} vs baseline {}",
        ours.average_sum(),
        base.average_sum()
    );
    // ...and many neurons end up crossbar-only.
    assert!(ours.crossbar_only_fraction() > 0.2);
}

#[test]
fn isc_works_on_ldpc_like_extreme_sparsity() {
    let net = generators::ldpc_like(120, 60, 3, 19).unwrap();
    assert!(net.sparsity() > 0.97);
    let opts = IscOptions {
        sizes: CrossbarSizeSet::new([8, 16, 24, 32]).unwrap(),
        seed: 1,
        ..IscOptions::default()
    };
    let (mapping, _) = Isc::new(opts).run_traced(&net).unwrap();
    mapping.verify_covers(&net).unwrap();
    let baseline = full_crossbar(&net, 32).unwrap();
    assert!(mapping.average_utilization() >= baseline.average_utilization());
}

#[test]
fn hopfield_testbench_recognition_survives_sparsification() {
    // Section 4.1's claim: all testbenches offer a recognition rate above
    // 90% (checked on the scaled-down analogue; the full-size testbenches
    // are checked by the paper_claims suite in release mode).
    let spec = TestbenchSpec {
        id: 99,
        patterns: 5,
        neurons: 150,
        sparsity: 0.88,
    };
    let tb = Testbench::from_spec(spec, 23).unwrap();
    let report = tb.recognition_rate(0.02, 555).unwrap();
    assert!(report.rate() >= 0.8, "recognition rate {}", report.rate());
}
