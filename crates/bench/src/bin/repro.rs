//! Reproduction harness: regenerates every table and figure of the
//! AutoNCS paper (DAC 2015) from scratch, writing CSV series and PPM plots
//! under `results/`.
//!
//! Usage:
//!
//! ```text
//! repro <command>
//!
//! commands:
//!   fig3     MSC before/after on the 400x400 network (Figure 3)
//!   fig4     GCP vs traversing: quality + runtime (Figure 4)
//!   fig5     outlier re-clustering, one ISC round (Figure 5)
//!   fig6     ISC iteration snapshots on the 400x400 network (Figure 6)
//!   fig7     ISC series for testbench 1 (Figure 7)
//!   fig8     ISC series for testbench 2 (Figure 8)
//!   fig9     ISC series for testbench 3 (Figure 9)
//!   fig10    placement + congestion maps, FullCro vs AutoNCS, tb3 (Figure 10)
//!   table1   physical cost evaluation over all three testbenches (Table 1)
//!   ablation design-choice ablations (CP model, selection quantile,
//!            literal Algorithm-3 stop) — not in the paper, motivated by
//!            DESIGN.md's substitution notes
//!   reliability crossbar size vs analog accuracy (the Section 2.1
//!            64x64-limit rationale, paper ref \[6\])
//!   dnn      intro-scale workload: a deep layered network with thousands
//!            of neurons, which ISC embeds with Lanczos
//!   all      everything above
//! ```

use std::time::Instant;

use autoncs::{plot, AutoNcs, CostTable};
use ncs_bench::{report_artifact, testbench, write_ppm, write_text, SEED};
use ncs_cluster::stats::{FaninFanoutProfile, MappingComparison};
use ncs_cluster::{full_crossbar, gcp, msc, traversing, CpModel, Isc, IscOptions};
use ncs_net::ConnectionMatrix;
use ncs_phys::Netlist;

fn main() {
    let command = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match command.as_str() {
        "fig3" => fig3(),
        "fig4" => fig4(),
        "fig5" => fig5(),
        "fig6" => fig6(),
        "fig7" => fig_isc_series(1),
        "fig8" => fig_isc_series(2),
        "fig9" => fig_isc_series(3),
        "fig10" => fig10(),
        "table1" => table1(),
        "ablation" => ablation(),
        "reliability" => reliability(),
        "dnn" => dnn(),
        "all" => {
            fig3();
            fig4();
            fig5();
            fig6();
            fig_isc_series(1);
            fig_isc_series(2);
            fig_isc_series(3);
            fig10();
            table1();
            ablation();
            reliability();
            dnn();
        }
        other => {
            eprintln!("unknown command {other:?}; see the module docs for the list");
            std::process::exit(2);
        }
    }
}

/// The 400x400 network used by Figures 3-6 (paper testbench 2).
fn fig_network() -> ConnectionMatrix {
    testbench(2).network().clone()
}

/// Figure 3: a single MSC pass groups scattered connections into clusters.
fn fig3() {
    println!("[fig3] MSC before/after on the 400x400 network");
    let net = fig_network();
    let k = net.neurons().div_ceil(64);
    let clustering = msc(&net, k, SEED).expect("MSC on testbench 2");
    let outliers = clustering.outlier_ratio(&net);
    println!(
        "  k = {k}: {} clusters, outlier ratio {:.1}% (paper: 57% outliers after one pass)",
        clustering.len(),
        outliers * 100.0
    );
    report_artifact(&write_ppm(
        "fig3a_original.ppm",
        &plot::connection_matrix(&net),
    ));
    report_artifact(&write_ppm(
        "fig3b_clustered.ppm",
        &plot::clustered_matrix(&net, clustering.iter()),
    ));
    let mut csv = String::from("metric,value\n");
    csv.push_str(&format!("k,{k}\nclusters,{}\n", clustering.len()));
    csv.push_str(&format!("outlier_ratio,{outliers:.4}\n"));
    report_artifact(&write_text("fig3_msc.csv", &csv));
}

/// Figure 4: GCP constrains cluster sizes as well as the traversing
/// baseline at roughly half the runtime.
fn fig4() {
    println!("[fig4] GCP vs traversing at size cap 64");
    let net = fig_network();
    let t0 = Instant::now();
    let g = gcp(&net, 64, SEED).expect("GCP");
    let gcp_time = t0.elapsed();
    let t1 = Instant::now();
    let t = traversing(&net, 64, SEED).expect("traversing");
    let trav_time = t1.elapsed();
    println!(
        "  gcp:        max size {:2}, outliers {:.1}%, {:?}",
        g.max_cluster_size(),
        g.outlier_ratio(&net) * 100.0,
        gcp_time
    );
    println!(
        "  traversing: max size {:2}, outliers {:.1}%, {:?} ({:.2}x gcp; paper: 190ms vs 106ms)",
        t.max_cluster_size(),
        t.outlier_ratio(&net) * 100.0,
        trav_time,
        trav_time.as_secs_f64() / gcp_time.as_secs_f64()
    );
    report_artifact(&write_ppm(
        "fig4a_gcp.ppm",
        &plot::clustered_matrix(&net, g.iter()),
    ));
    report_artifact(&write_ppm(
        "fig4b_traversing.ppm",
        &plot::clustered_matrix(&net, t.iter()),
    ));
    let mut csv = String::from("algorithm,max_cluster_size,outlier_ratio,time_ms\n");
    csv.push_str(&format!(
        "gcp,{},{:.4},{:.2}\n",
        g.max_cluster_size(),
        g.outlier_ratio(&net),
        gcp_time.as_secs_f64() * 1e3
    ));
    csv.push_str(&format!(
        "traversing,{},{:.4},{:.2}\n",
        t.max_cluster_size(),
        t.outlier_ratio(&net),
        trav_time.as_secs_f64() * 1e3
    ));
    report_artifact(&write_text("fig4_gcp_vs_traversing.csv", &csv));
}

/// Figure 5: remove the first round's clusters, re-cluster the remaining
/// (outlier-only) network.
fn fig5() {
    println!("[fig5] re-clustering the remaining network");
    let net = fig_network();
    let clustering = gcp(&net, 64, SEED).expect("GCP");
    let mut remaining = net.clone();
    for members in clustering.iter() {
        remaining.remove_within(members);
    }
    println!(
        "  remaining after removing round-1 clusters: {} of {} connections",
        remaining.connections(),
        net.connections()
    );
    report_artifact(&write_ppm(
        "fig5a_outliers.ppm",
        &plot::connection_matrix(&remaining),
    ));
    let second = gcp(&remaining, 64, SEED + 1).expect("GCP on remaining network");
    println!(
        "  after another MSC+GCP round: outlier ratio {:.1}% of the remaining network",
        second.outlier_ratio(&remaining) * 100.0
    );
    report_artifact(&write_ppm(
        "fig5b_clustered_outliers.ppm",
        &plot::clustered_matrix(&remaining, second.iter()),
    ));
}

/// Figure 6: full ISC on the 400x400 network, with matrix snapshots.
fn fig6() {
    println!("[fig6] ISC iterations on the 400x400 network");
    let net = fig_network();
    let (mapping, trace) = Isc::new(IscOptions {
        seed: SEED,
        ..IscOptions::default()
    })
    .run_traced(&net)
    .expect("ISC");
    let mut csv = String::from(
        "iteration,clusters_formed,clusters_selected,connections_removed,outlier_ratio\n",
    );
    for it in &trace.iterations {
        println!(
            "  iter {:2}: {:3} clusters, {:2} selected, outliers left {:.1}%",
            it.iteration,
            it.clusters_formed,
            it.clusters_selected,
            it.outlier_ratio * 100.0
        );
        csv.push_str(&format!(
            "{},{},{},{},{:.4}\n",
            it.iteration,
            it.clusters_formed,
            it.clusters_selected,
            it.connections_removed,
            it.outlier_ratio
        ));
    }
    println!(
        "  final outlier ratio {:.1}% after {} iterations (paper: <5% after 11)",
        mapping.outlier_ratio() * 100.0,
        trace.iterations.len()
    );
    report_artifact(&write_text("fig6_isc_iterations.csv", &csv));
    report_artifact(&write_ppm(
        "fig6_final_mapping.ppm",
        &plot::mapping_matrix(&net, &mapping),
    ));
}

/// Figures 7-9: the per-testbench ISC analysis — (a) outlier ratio per
/// iteration, (b) normalized utilization + CP per iteration, (c) crossbar
/// size distribution, (d) per-neuron fanin+fanout profile.
fn fig_isc_series(id: usize) {
    println!("[fig{}] ISC series for testbench {id}", id + 6);
    let tb = testbench(id);
    let net = tb.network();
    let baseline = full_crossbar(net, 64).expect("FullCro baseline");
    let (mapping, trace) = Isc::new(IscOptions {
        seed: SEED,
        ..IscOptions::default()
    })
    .run_traced(net)
    .expect("ISC");
    let base_util = baseline.average_utilization();

    // (a)+(b): per-iteration series.
    let mut csv =
        String::from("iteration,outlier_ratio,avg_utilization,normalized_utilization,avg_cp\n");
    for it in &trace.iterations {
        csv.push_str(&format!(
            "{},{:.4},{:.4},{:.4},{:.4}\n",
            it.iteration,
            it.outlier_ratio,
            it.average_utilization,
            it.average_utilization / base_util,
            it.average_cp
        ));
    }
    report_artifact(&write_text(&format!("fig{}_iterations.csv", id + 6), &csv));

    // (c): crossbar size distribution.
    let mut csv = String::from("size,count\n");
    for (size, count) in mapping.size_histogram() {
        csv.push_str(&format!("{size},{count}\n"));
    }
    report_artifact(&write_text(
        &format!("fig{}_size_histogram.csv", id + 6),
        &csv,
    ));

    // (d): per-neuron fanin+fanout, normalized to the baseline average.
    let profile = FaninFanoutProfile::of(&mapping);
    let base_profile = FaninFanoutProfile::of(&baseline);
    let norm = base_profile.average_sum().max(1e-12);
    let mut csv = String::from("rank,crossbar,synapse,sum\n");
    for (rank, (c, s, sum)) in profile.sorted_series().into_iter().enumerate() {
        csv.push_str(&format!(
            "{rank},{:.4},{:.4},{:.4}\n",
            c as f64 / norm,
            s as f64 / norm,
            sum as f64 / norm
        ));
    }
    report_artifact(&write_text(
        &format!("fig{}_fanin_fanout.csv", id + 6),
        &csv,
    ));

    let cmp = MappingComparison::new(&mapping, &baseline, CpModel::default());
    println!(
        "  {} iterations, outliers {:.1}%, normalized utilization {:.2}x, avg fanin+fanout {:.0}% of baseline (paper: ~80%)",
        trace.iterations.len(),
        mapping.outlier_ratio() * 100.0,
        cmp.normalized_utilization(),
        cmp.normalized_fanin_fanout() * 100.0
    );
    println!(
        "  crossbar-only neurons: {:.0}% of connected neurons",
        profile.crossbar_only_fraction() * 100.0
    );
}

/// Figure 10: placement plots and congestion heatmaps for testbench 3,
/// FullCro vs AutoNCS.
fn fig10() {
    println!("[fig10] placement & congestion maps for testbench 3");
    let tb = testbench(3);
    let net = tb.network();
    let framework = AutoNcs::new();
    let baseline = framework.baseline(net).expect("baseline flow");
    let ours = framework.run(net).expect("AutoNCS flow");
    for (tag, result) in [("fullcro", &baseline), ("autoncs", &ours)] {
        let nl: &Netlist = &result.design.netlist;
        report_artifact(&write_ppm(
            &format!("fig10_{tag}_placement.ppm"),
            &plot::placement_plot(nl, &result.design.placement, 4.0),
        ));
        report_artifact(&write_ppm(
            &format!("fig10_{tag}_congestion.ppm"),
            &plot::congestion_heatmap(&result.design.routing.congestion),
        ));
        println!(
            "  {tag}: area {:.0} um2, max bin congestion {}",
            result.design.cost.area_um2,
            result.design.routing.congestion.max_usage()
        );
    }
}

/// Table 1: the physical design cost evaluation over all three
/// testbenches.
fn table1() {
    println!("[table1] physical design cost evaluation");
    let framework = AutoNcs::new();
    let mut table = CostTable::new();
    for id in [1usize, 2, 3] {
        let tb = testbench(id);
        let t0 = Instant::now();
        let report = framework.compare(tb.network()).expect("comparison flow");
        println!(
            "  testbench {id}: WL {:+.1}%, area {:+.1}%, delay {:+.1}% ({:?})",
            report.wirelength_reduction() * 100.0,
            report.area_reduction() * 100.0,
            report.delay_reduction() * 100.0,
            t0.elapsed()
        );
        table.push(report.to_row(format!("tb{id}")));
    }
    let (w, a, d) = table.average_reductions();
    println!(
        "  average reductions: wirelength {:.2}%, area {:.2}%, delay {:.2}%",
        w * 100.0,
        a * 100.0,
        d * 100.0
    );
    println!("  (paper: 47.80%, 31.97%, 47.18%)");
    print!("{table}");
    report_artifact(&write_text("table1.csv", &table.to_csv()));
}

/// Ablations over the design choices DESIGN.md calls out: the reading of
/// the (garbled) CP formula, the top-25 % selection quantile, and the
/// literal Algorithm 3 lines 6-8 stop check.
fn ablation() {
    println!("[ablation] ISC design-choice ablations on testbench 2");
    let net = fig_network();
    let baseline = full_crossbar(&net, 64).expect("FullCro baseline");
    let base_util = baseline.average_utilization();
    let mut csv = String::from(
        "variant,iterations,crossbars,synapses,outlier_ratio,avg_utilization,norm_utilization\n",
    );
    let variants: Vec<(&str, IscOptions)> = vec![
        (
            "default(cp=m/s*sqrt(u),q=0.75)",
            IscOptions {
                seed: SEED,
                ..IscOptions::default()
            },
        ),
        (
            "cp=m*u/s",
            IscOptions {
                seed: SEED,
                cp_model: CpModel::MuOverS,
                ..IscOptions::default()
            },
        ),
        (
            "quantile=0.50",
            IscOptions {
                seed: SEED,
                selection_quantile: 0.50,
                ..IscOptions::default()
            },
        ),
        (
            "quantile=0.90",
            IscOptions {
                seed: SEED,
                selection_quantile: 0.90,
                ..IscOptions::default()
            },
        ),
        (
            "literal-quantile-stop",
            IscOptions {
                seed: SEED,
                quantile_size_stop: true,
                ..IscOptions::default()
            },
        ),
    ];
    for (name, opts) in variants {
        let (mapping, trace) = Isc::new(opts).run_traced(&net).expect("ISC variant");
        println!(
            "  {name:<32} iters {:2}, crossbars {:3}, outliers {:.1}%, util {:.4} ({:.2}x baseline)",
            trace.iterations.len(),
            mapping.crossbars().len(),
            mapping.outlier_ratio() * 100.0,
            mapping.average_utilization(),
            mapping.average_utilization() / base_util
        );
        csv.push_str(&format!(
            "{name},{},{},{},{:.4},{:.4},{:.4}\n",
            trace.iterations.len(),
            mapping.crossbars().len(),
            mapping.outliers().len(),
            mapping.outlier_ratio(),
            mapping.average_utilization(),
            mapping.average_utilization() / base_util
        ));
    }
    report_artifact(&write_text("ablation_isc.csv", &csv));
}

/// Intro-scale workload: the paper motivates AutoNCS with deep networks
/// of "more than 4000 input nodes". This maps a five-layer sparse network
/// of 2,500 neurons with the flow's own ISC options, which embed a network
/// this size with Lanczos (the dense O(n^3) path would dominate runtime).
fn dnn() {
    println!("[dnn] intro-scale deep network, Lanczos-embedded");
    let layers = [1000usize, 800, 400, 200, 100];
    let (net, _) = ncs_net::generators::layered(&layers, 0.02, SEED).expect("layered network");
    println!("  layers {layers:?} -> {net}");
    let t0 = Instant::now();
    let opts = IscOptions {
        seed: SEED,
        ..IscOptions::default()
    };
    let (mapping, trace) = Isc::new(opts).run_traced(&net).expect("ISC with Lanczos");
    let elapsed = t0.elapsed();
    mapping
        .verify_covers(&net)
        .expect("mapping covers the network");
    let baseline = full_crossbar(&net, 64).expect("FullCro baseline");
    println!(
        "  isc: {} iterations in {:.2?}, {} crossbars + {} synapses, outliers {:.1}%",
        trace.iterations.len(),
        elapsed,
        mapping.crossbars().len(),
        mapping.outliers().len(),
        mapping.outlier_ratio() * 100.0
    );
    println!(
        "  utilization {:.4} vs FullCro {:.4} ({:.2}x)",
        mapping.average_utilization(),
        baseline.average_utilization(),
        mapping.average_utilization() / baseline.average_utilization().max(1e-12)
    );
    let mut csv = String::from("metric,value\n");
    csv.push_str(&format!("neurons,{}\n", net.neurons()));
    csv.push_str(&format!("connections,{}\n", net.connections()));
    csv.push_str(&format!("iterations,{}\n", trace.iterations.len()));
    csv.push_str(&format!("crossbars,{}\n", mapping.crossbars().len()));
    csv.push_str(&format!("synapses,{}\n", mapping.outliers().len()));
    csv.push_str(&format!("outlier_ratio,{:.4}\n", mapping.outlier_ratio()));
    csv.push_str(&format!(
        "utilization,{:.4}\n",
        mapping.average_utilization()
    ));
    csv.push_str(&format!(
        "baseline_utilization,{:.4}\n",
        baseline.average_utilization()
    ));
    csv.push_str(&format!("seconds,{:.2}\n", elapsed.as_secs_f64()));
    report_artifact(&write_text("dnn_lanczos.csv", &csv));
}

/// Crossbar size-reliability sweep: the device-level experiment behind
/// Section 2.1's 64x64 crossbar limit (paper ref \[6\]).
fn reliability() {
    println!("[reliability] analog error vs crossbar size");
    let device = ncs_xbar::DeviceModel::default();
    let points = ncs_xbar::reliability_sweep(&device, &[16, 24, 32, 48, 64, 96, 128], 0.1, 3, SEED)
        .expect("reliability sweep");
    let mut csv = String::from("size,ir_drop_error,combined_error\n");
    for p in &points {
        println!(
            "  {:3}x{:<3} ir-drop error {:.4}, with variation {:.4}",
            p.size, p.size, p.ir_drop_error, p.combined_error
        );
        csv.push_str(&format!(
            "{},{:.6},{:.6}\n",
            p.size, p.ir_drop_error, p.combined_error
        ));
    }
    report_artifact(&write_text("reliability_sweep.csv", &csv));
}
