//! In-tree benchmark runner: the successor of the former criterion
//! benches, rebuilt on [`ncs_bench::harness`] so the workspace builds with
//! zero registry dependencies.
//!
//! Usage:
//!
//! ```text
//! bench [group ...]
//!
//! groups:
//!   clustering        msc, gcp vs traversing (Figure 4), isc
//!   flow              end-to-end AutoNCS vs FullCro pipeline (Table 1)
//!   hopfield          train / sparsify / recall at testbench scales
//!   linalg            dense eigensolver, spectral embedding, CG minimizer
//!   physical_design   placement (autoncs vs fullcro) and maze routing
//!   place             incremental detailed swap; global placement of tb1/tb3
//!   route             maze router on planted clusters and the tb1/tb3 flow
//!   scale             sparse-first gen→cluster→map at 2k-20k neurons
//!   serve             flow-service cold vs warm latency over real sockets
//!   xbar              ideal vs IR-drop crossbar evaluation
//! ```
//!
//! With no arguments every group runs. Each group writes a
//! `results/BENCH_<group>.json` artifact (schema documented on
//! `BenchGroup::to_json`); sample count is tunable via
//! `NCS_BENCH_SAMPLES`.

use autoncs::AutoNcs;
use ncs_bench::{report_artifact, testbench, BenchGroup, SEED};
use ncs_cluster::{full_crossbar, gcp, msc, spectral_embedding, traversing, Isc, IscOptions};
use ncs_linalg::optimize::{minimize, CgOptions};
use ncs_linalg::{DenseMatrix, SymmetricEigen};
use ncs_net::{generators, HopfieldNetwork, PatternSet, Testbench, TestbenchSpec};
use ncs_phys::{detailed_swap, place, route, Netlist, PlacerOptions, RouterOptions};
use ncs_tech::TechnologyModel;
use ncs_xbar::{CrossbarArray, DeviceModel};

fn main() {
    let requested: Vec<String> = std::env::args().skip(1).collect();
    let all = [
        "clustering",
        "flow",
        "hopfield",
        "linalg",
        "physical_design",
        "place",
        "route",
        "scale",
        "serve",
        "xbar",
    ];
    let groups: Vec<&str> = if requested.is_empty() {
        all.to_vec()
    } else {
        requested.iter().map(String::as_str).collect()
    };
    for group in groups {
        match group {
            "clustering" => clustering(),
            "flow" => flow(),
            "hopfield" => hopfield(),
            "linalg" => linalg(),
            "physical_design" => physical_design(),
            "place" => place_hot_path(),
            "route" => route_hot_path(),
            "scale" => scale(),
            "serve" => serve(),
            "xbar" => xbar(),
            other => {
                eprintln!("unknown bench group {other:?}; known: {all:?}");
                std::process::exit(2);
            }
        }
    }
}

/// Clustering benches. The headline comparison is `gcp` vs `traversing`
/// on the 400x400 network — the paper's Figure 4 reports GCP reaching the
/// same quality at roughly half the runtime (106 ms vs 190 ms on their
/// machine).
fn clustering() {
    println!("[bench] clustering");
    let mut group = BenchGroup::new("clustering");
    for n in [100usize, 200] {
        let net = generators::uniform_random(n, 0.06, SEED).unwrap();
        let k = n.div_ceil(32);
        group.bench(&format!("msc/{n}"), || msc(&net, k, SEED).unwrap());
    }
    let net = testbench(2).network().clone();
    group.bench("gcp_vs_traversing/gcp", || gcp(&net, 64, SEED).unwrap());
    group.bench("gcp_vs_traversing/traversing", || {
        traversing(&net, 64, SEED).unwrap()
    });
    // A naive traversing that re-factorizes the Laplacian for every k it
    // scans — the regime where the paper's ~2x GCP speedup shows up; our
    // library traversing shares one factorization across the scan.
    group.bench("gcp_vs_traversing/traversing_naive", || {
        let n = net.neurons();
        let mut k = n.div_ceil(64).max(1);
        loop {
            let clustering = msc(&net, k, SEED).unwrap();
            if clustering.max_cluster_size() <= 64 || k == n {
                return clustering;
            }
            k += 1;
        }
    });
    for n in [192usize, 256] {
        let net = generators::planted_clusters(n, n / 32, 0.4, 0.01, SEED)
            .unwrap()
            .0;
        group.bench(&format!("isc/{n}"), || {
            Isc::new(IscOptions {
                seed: SEED,
                ..IscOptions::default()
            })
            .run(&net)
            .unwrap()
        });
    }
    report_artifact(&group.write_json());
}

/// End-to-end flow benches: the Table 1 pipeline (clustering + placement
/// + routing) for AutoNCS and the FullCro baseline on a scaled testbench.
fn flow() {
    println!("[bench] flow");
    // A half-scale testbench keeps each iteration under a second while
    // exercising the exact Table 1 pipeline.
    let spec = TestbenchSpec {
        id: 90,
        patterns: 8,
        neurons: 160,
        sparsity: 0.92,
    };
    let tb = Testbench::from_spec(spec, SEED).unwrap();
    let framework = AutoNcs::fast();
    let mut group = BenchGroup::new("flow");
    group.bench("autoncs", || framework.run(tb.network()).unwrap());
    group.bench("fullcro", || framework.baseline(tb.network()).unwrap());
    // One extra traced run *outside* the timed loop: the medians above
    // stay on the zero-cost disabled path, while the artifact still
    // carries a per-stage breakdown plus results/TRACE_flow.json.
    let (_, events) = ncs_trace::capture(|| {
        framework.run(tb.network()).unwrap();
        framework.baseline(tb.network()).unwrap();
    });
    let report = ncs_trace::TraceReport::from_events(&events);
    group.set_stages(
        report
            .spans
            .iter()
            .map(|s| ncs_bench::StageTime {
                name: s.name.to_string(),
                calls: s.count,
                total_ns: s.total_ns,
            })
            .collect(),
    );
    report_artifact(&report.export("flow").expect("write trace artifact"));
    report_artifact(&group.write_json());
}

/// Benches for the Hopfield substrate: training, sparsification, and
/// recall at the paper's testbench scales.
fn hopfield() {
    println!("[bench] hopfield");
    let mut group = BenchGroup::new("hopfield");
    for n in [300usize, 500] {
        let patterns = PatternSet::random_qr(n / 20, n, SEED).unwrap();
        group.bench(&format!("train/{n}"), || {
            HopfieldNetwork::train(&patterns).unwrap()
        });
    }
    let patterns = PatternSet::random_qr(20, 400, SEED).unwrap();
    let trained = HopfieldNetwork::train(&patterns).unwrap();
    group.bench("sparsify/to_94_percent", || {
        let mut h = trained.clone();
        h.sparsify_to(0.94).unwrap();
        h
    });
    let patterns = PatternSet::random_qr(15, 300, SEED).unwrap();
    let mut recall_net = HopfieldNetwork::train(&patterns).unwrap();
    recall_net.sparsify_to(0.9447).unwrap();
    let noisy = patterns.noisy_pattern(0, 0.02, 7).unwrap();
    group.bench("recall/sync", || recall_net.recall(&noisy, 50).unwrap());
    group.bench("recall/async", || {
        recall_net.recall_async(&noisy, 50).unwrap()
    });
    report_artifact(&group.write_json());
}

/// Benches for the numeric kernels backing MSC (the dense generalized
/// eigensolver) and the placer (the conjugate-gradient minimizer).
fn linalg() {
    println!("[bench] linalg");
    let mut group = BenchGroup::new("linalg");
    for n in [64usize, 128, 256] {
        let mut a = DenseMatrix::zeros(n, n);
        let mut state = 1u64;
        for i in 0..n {
            for j in i..n {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let v = ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        group.bench(&format!("symmetric_eigen/{n}"), || {
            SymmetricEigen::new(&a).unwrap()
        });
    }
    for n in [100usize, 200] {
        let net = generators::uniform_random(n, 0.06, SEED).unwrap();
        group.bench(&format!("spectral_embedding/{n}"), || {
            spectral_embedding(&net).unwrap()
        });
    }
    group.bench("cg_quadratic_500d", || {
        minimize(
            |x, g| {
                let mut v = 0.0;
                for i in 0..x.len() {
                    let w = 1.0 + (i % 11) as f64;
                    g[i] = 2.0 * w * x[i];
                    v += w * x[i] * x[i];
                }
                v
            },
            (0..500).map(|i| (i as f64 * 0.31).sin()).collect(),
            &CgOptions::default(),
        )
    });
    report_artifact(&group.write_json());
}

/// Benches for the placement and routing substrate on realistic hybrid
/// mappings.
fn physical_design() {
    println!("[bench] physical_design");
    let net = generators::planted_clusters(128, 4, 0.4, 0.01, SEED)
        .unwrap()
        .0;
    let tech = TechnologyModel::nm45();
    let hybrid = Isc::new(IscOptions {
        seed: SEED,
        ..IscOptions::default()
    })
    .run(&net)
    .unwrap();
    let baseline = full_crossbar(&net, 64).unwrap();
    let mut group = BenchGroup::new("physical_design");
    for (tag, mapping) in [("autoncs", &hybrid), ("fullcro", &baseline)] {
        let nl = Netlist::from_mapping(mapping, &tech);
        group.bench(&format!("placement/{tag}"), || {
            place(&nl, &PlacerOptions::fast()).unwrap()
        });
    }
    let nl = Netlist::from_mapping(&hybrid, &tech);
    let p = place(&nl, &PlacerOptions::fast()).unwrap();
    group.bench("routing/maze_route", || {
        route(&nl, &p, &tech, &RouterOptions::default()).unwrap()
    });
    report_artifact(&group.write_json());
}

/// Hot-path router benches: `route()` on placed hybrid mappings of two
/// planted-cluster sizes, and on the seed-42 tb1 and tb3 netlists of the
/// flow, each placed once outside the timed loop.
fn route_hot_path() {
    println!("[bench] route");
    let tech = TechnologyModel::nm45();
    let mut group = BenchGroup::new("route");
    for n in [192usize, 256] {
        let net = generators::planted_clusters(n, n / 32, 0.4, 0.01, SEED)
            .unwrap()
            .0;
        let hybrid = Isc::new(IscOptions {
            seed: SEED,
            ..IscOptions::default()
        })
        .run(&net)
        .unwrap();
        let nl = Netlist::from_mapping(&hybrid, &tech);
        let p = place(&nl, &PlacerOptions::fast()).unwrap();
        group.bench(&format!("planted/{n}"), || {
            route(&nl, &p, &tech, &RouterOptions::default()).unwrap()
        });
    }
    let framework = AutoNcs::new();
    let options = framework.implement_options();
    for (name, nl) in flow_netlists(&framework) {
        let p = place(&nl, &options.placer).unwrap();
        group.bench(&format!("flow/{name}"), || {
            route(&nl, &p, framework.technology(), &options.router).unwrap()
        });
    }
    report_artifact(&group.write_json());
}

/// The AutoNCS and FullCro netlists the flow places and routes for the
/// seed-42 tb1 and tb3, named `tb<id>-<autoncs|fullcro>`.
fn flow_netlists(framework: &AutoNcs) -> Vec<(String, Netlist)> {
    let mut netlists = Vec::new();
    for id in [1, 3] {
        let tb = testbench(id);
        let (autoncs, _) = framework.map(tb.network()).unwrap();
        let fullcro = full_crossbar(tb.network(), framework.isc_options().sizes.max()).unwrap();
        for (tag, mapping) in [("autoncs", &autoncs), ("fullcro", &fullcro)] {
            let nl = Netlist::from_mapping(mapping, framework.technology());
            netlists.push((format!("tb{id}-{tag}"), nl));
        }
    }
    netlists
}

/// Hot-path placement benches: the incremental detailed swap on a
/// planted-cluster netlist, starting from the same analytic placement
/// each iteration, and the default `place()` on the seed-42 tb1 and tb3
/// netlists of the flow.
fn place_hot_path() {
    println!("[bench] place");
    let tech = TechnologyModel::nm45();
    let mut group = BenchGroup::new("place");
    let net = generators::planted_clusters(256, 8, 0.4, 0.01, SEED)
        .unwrap()
        .0;
    let hybrid = Isc::new(IscOptions {
        seed: SEED,
        ..IscOptions::default()
    })
    .run(&net)
    .unwrap();
    let analytic_only = PlacerOptions {
        detailed_swap_passes: 0,
        ..PlacerOptions::fast()
    };
    let nl = Netlist::from_mapping(&hybrid, &tech);
    let base = place(&nl, &analytic_only).unwrap();
    group.bench("incremental/pairwise", || {
        let mut p = base.clone();
        detailed_swap(&nl, &mut p, 8);
        p
    });
    for (name, nl) in flow_netlists(&AutoNcs::new()) {
        group.bench(&format!("global/{name}"), || {
            place(&nl, &PlacerOptions::default()).unwrap()
        });
    }
    report_artifact(&group.write_json());
}

/// Scale benches for the sparse-first pipeline: generate a block-sparse
/// network and map it (ISC with the flow's own options, at the bench
/// seed) at 2k-20k neurons. Writes a bespoke `results/BENCH_scale.json`
/// carrying, per size, the gen/map medians, the connection count, the
/// mapping's crossbars and outliers, the peak RSS of the map run (VmHWM,
/// reset between sizes), and the footprint a dense `8n²` matrix would have
/// needed — `scripts/check_bench_scale.py` gates a sub-quadratic
/// wall-clock fit and an O(nnz)-style memory bound on that file. Sizes
/// run in ascending order so the watermark is meaningful even where the
/// reset is unsupported. Defaults to 3 samples (a 20k map run is tens of
/// seconds); `NCS_BENCH_SAMPLES` overrides as usual.
fn scale() {
    use std::fmt::Write as _;

    println!("[bench] scale");
    let samples = std::env::var("NCS_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s: &usize| s > 0)
        .unwrap_or(3);
    let mut group = BenchGroup::new("scale").samples(samples).warmup(0);
    let opts = IscOptions {
        seed: SEED,
        ..IscOptions::default()
    };
    let mut rows = String::new();
    let mut reset_supported = true;
    for (idx, &n) in [2000usize, 5000, 10_000, 20_000].iter().enumerate() {
        let gen_ns = group
            .bench(&format!("gen/{n}"), || {
                generators::block_sparse(n, 64, 0.5, 2, SEED).unwrap()
            })
            .median_ns;
        let (net, _) = generators::block_sparse(n, 64, 0.5, 2, SEED).unwrap();
        let nnz = net.connections();
        reset_supported &= ncs_bench::memory::reset_peak_rss();
        // Each sample's mapping replaces the previous one, which is
        // dropped before the run so the peak RSS holds one mapping.
        let mut mapping = None;
        let map_ns = group
            .bench(&format!("map/{n}"), || {
                mapping = None;
                mapping = Some(Isc::new(opts.clone()).run(&net).unwrap());
            })
            .median_ns;
        let peak = ncs_bench::memory::peak_rss_bytes().unwrap_or(0);
        // Correctness outside the timed loop: the mapping still covers
        // every connection at every scale.
        let mapping = mapping.expect("the group takes at least one sample");
        mapping.verify_covers(&net).unwrap();
        let dense_bytes = 8 * (n as u64) * (n as u64);
        if idx > 0 {
            rows.push(',');
        }
        let _ = write!(
            rows,
            "\n    {{\"n\": {n}, \"nnz\": {nnz}, \"gen_median_ns\": {gen_ns}, \
             \"map_median_ns\": {map_ns}, \"peak_rss_bytes\": {peak}, \
             \"dense_bytes\": {dense_bytes}, \"crossbars\": {}, \"outliers\": {}}}",
            mapping.crossbars().len(),
            mapping.outliers().len()
        );
        println!(
            "  scale/{n}: nnz {nnz}, peak {:.1} MiB (dense would be {:.1} MiB)",
            peak as f64 / (1u64 << 20) as f64,
            dense_bytes as f64 / (1u64 << 20) as f64
        );
    }
    let json = format!(
        "{{\n  \"group\": \"scale\",\n  \"samples\": {},\n  \"hardware_threads\": {},\n  \
         \"peak_rss_supported\": {},\n  \"sizes\": [{}\n  ]\n}}\n",
        samples,
        group.hardware_threads(),
        reset_supported,
        rows
    );
    report_artifact(&ncs_bench::write_text("BENCH_scale.json", &json));
}

/// Flow-service benches: the same pinned map job measured cold (the
/// content-addressed cache is cleared before every request, so each
/// iteration pays the full clustering run plus the socket round-trip)
/// and warm (primed once; every timed iteration replays the cached
/// bytes). Both paths go over a real loopback socket through the same
/// framed protocol, so the gap is pure cache effect —
/// `scripts/check_bench_serve.py` gates cold ≥ 10x warm on the
/// artifact. A `stats` round-trip is timed too as the protocol-overhead
/// floor.
fn serve() {
    use ncs_serve::{MapSpec, ServeClient, ServeOptions, Server};

    println!("[bench] serve");
    let mut server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let net = generators::planted_clusters(96, 4, 0.4, 0.01, SEED)
        .unwrap()
        .0;
    let mut net_bytes = Vec::new();
    ncs_net::io::write_edge_list(&net, &mut net_bytes).unwrap();
    let spec = MapSpec {
        net: net_bytes,
        seed: SEED,
        max_size: 16,
    };

    let mut group = BenchGroup::new("serve");
    group.bench("map_cold", || {
        client.clear_cache().unwrap();
        client.map(spec.clone()).unwrap()
    });
    // Prime the cache once; every warm iteration must replay the exact
    // cold bytes (byte identity is the service's contract, so a drift
    // here is a correctness failure, not a perf artifact).
    let primed = client.map(spec.clone()).unwrap();
    group.bench("map_warm", || {
        let warm = client.map(spec.clone()).unwrap();
        assert_eq!(warm, primed, "warm response must replay the cold bytes");
        warm
    });
    group.bench("stats_roundtrip", || client.stats().unwrap());
    report_artifact(&group.write_json());
    server.shutdown();
}

/// Benches for the analog crossbar device model: ideal dot product vs the
/// IR-drop nodal solve across array sizes.
fn xbar() {
    println!("[bench] xbar");
    let programmed = |n: usize| {
        let weights: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| ((i * 31 + j * 7) % 100) as f64 / 100.0)
                    .collect()
            })
            .collect();
        CrossbarArray::program(&weights, &DeviceModel::default()).expect("valid weights")
    };
    let mut group = BenchGroup::new("xbar");
    for n in [16usize, 64] {
        let array = programmed(n);
        let inputs: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
        group.bench(&format!("ideal/{n}"), || {
            array.evaluate_ideal(&inputs).unwrap()
        });
    }
    for n in [16usize, 32, 64] {
        let array = programmed(n);
        let inputs: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
        group.bench(&format!("ir_drop/{n}"), || {
            array.evaluate_ir_drop(&inputs).unwrap()
        });
    }
    report_artifact(&group.write_json());
}
