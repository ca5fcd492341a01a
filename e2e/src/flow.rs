//! The flow workloads: a paper testbench through `AutoNcs::compare` (one
//! Table 1 row: `run`, then `baseline`), or a block-sparse net through
//! `AutoNcs::map`.

use std::time::{Duration, Instant};

use autoncs::{AutoNcs, ComparisonReport};
use ncs_cluster::{full_crossbar, HybridMapping, Isc};
use ncs_net::{generators, ConnectionMatrix, Testbench, TestbenchSpec};
use ncs_phys::{place, route, Netlist, PhysicalCost, PhysicalDesign};
use ncs_trace::{TraceEvent, TraceReport};

use crate::metrics::{self, Outcome};
use crate::{input_seed, Corpus};

/// How a workload's networks are generated from a seed.
#[derive(Debug, Clone, Copy)]
pub enum Input {
    /// A trained, sparsified Hopfield testbench.
    Paper { spec: TestbenchSpec, corpus: Corpus },
    /// `generators::block_sparse(neurons, 64, 0.5, 2, seed)`.
    BlockSparse { neurons: usize },
}

impl Input {
    fn generate(self, seed: u64) -> Result<ConnectionMatrix, String> {
        match self {
            Input::Paper { spec, corpus } => {
                Testbench::from_spec(spec, corpus.seed(seed)).map(|tb| tb.network().clone())
            }
            Input::BlockSparse { neurons } => {
                generators::block_sparse(neurons, 64, 0.5, 2, seed).map(|(net, _)| net)
            }
        }
        .map_err(|e| format!("input generation failed: {e}"))
    }
}

/// One flow workload.
#[derive(Debug, Clone, Copy)]
pub struct FlowWorkload {
    pub input: Input,
    /// Networks per run, taken in turn by the operations.
    pub inputs: usize,
    /// `compare` (placement and routing included) rather than `map`.
    pub physical: bool,
}

/// The layers a traced run of this workload enters.
pub fn layers(physical: bool) -> &'static [&'static str] {
    if physical {
        &["net", "cluster", "phys", "par", "trace"]
    } else {
        &["net", "cluster", "par", "trace"]
    }
}

/// What one operation produced.
pub enum OpResult {
    Compare(Box<ComparisonReport>),
    Map(HybridMapping),
}

fn run_op(framework: &AutoNcs, net: &ConnectionMatrix, physical: bool) -> Result<OpResult, String> {
    if physical {
        framework
            .compare(net)
            .map(|report| OpResult::Compare(Box::new(report)))
    } else {
        framework
            .map(net)
            .map(|(mapping, _)| OpResult::Map(mapping))
    }
    .map_err(|e| format!("flow failed: {e}"))
}

/// Checks one operation's outputs. Returns a fingerprint that every other
/// operation on the same network must reproduce bit for bit.
pub fn check(net: &ConnectionMatrix, op: &OpResult) -> Result<Vec<u64>, String> {
    match op {
        OpResult::Map(mapping) => {
            mapping.verify_covers(net)?;
            Ok(vec![
                mapping.crossbars().len() as u64,
                mapping.outliers().len() as u64,
                mapping.average_utilization().to_bits(),
            ])
        }
        OpResult::Compare(report) => {
            for (flow, result) in [("AutoNCS", &report.autoncs), ("FullCro", &report.baseline)] {
                result
                    .mapping
                    .verify_covers(net)
                    .and_then(|()| check_design(&result.design))
                    .map_err(|e| format!("{flow}: {e}"))?;
            }
            // The Table 1 direction bands of tests/paper_claims.rs.
            for (what, reduction, floor) in [
                ("wirelength", report.wirelength_reduction(), 0.2),
                ("area", report.area_reduction(), 0.05),
                ("delay", report.delay_reduction(), 0.2),
            ] {
                if reduction.is_nan() || reduction <= floor {
                    return Err(format!(
                        "{what} reduction {reduction:.4} is not above {floor}"
                    ));
                }
            }
            Ok(vec![
                report.autoncs.design.cost.total().to_bits(),
                report.baseline.design.cost.total().to_bits(),
            ])
        }
    }
}

/// The placement is overlap-free and every wire is routed.
fn check_design(design: &PhysicalDesign) -> Result<(), String> {
    let overlap = design.placement.overlap_area_um2(&design.netlist);
    if overlap.is_nan() || overlap >= 1e-6 {
        return Err(format!("placement overlap is {overlap} um2"));
    }
    let mut routed: Vec<usize> = design.routing.routed.iter().map(|r| r.wire).collect();
    routed.sort_unstable();
    routed.dedup();
    if routed.len() != design.netlist.wires.len() {
        return Err(format!(
            "{} of {} wires are routed",
            routed.len(),
            design.netlist.wires.len()
        ));
    }
    Ok(())
}

/// Set-up: the run's networks, with the median time to generate them all.
fn generate_inputs(
    workload: &FlowWorkload,
    seed: u64,
) -> Result<(Vec<ConnectionMatrix>, f64), String> {
    metrics::setup_median(|| {
        (0..workload.inputs)
            .map(|i| workload.input.generate(input_seed(seed, i)))
            .collect()
    })
}

/// Timed operations, tracing off.
pub fn timed(workload: &FlowWorkload, seed: u64, budget: Duration) -> Result<Outcome, String> {
    let framework = AutoNcs::new();
    let mut out = Outcome::default();
    let (nets, setup_s) = generate_inputs(workload, seed)?;
    let mut fingerprints: Vec<Option<Vec<u64>>> = vec![None; nets.len()];
    let (mut op_s, mut peak_mib) = (Vec::new(), Vec::new());
    metrics::repeat_for(budget, nets.len(), |i| {
        let k = i % nets.len();
        metrics::reset_peak_rss()?;
        let start = Instant::now();
        let op = run_op(&framework, &nets[k], workload.physical);
        op_s.push(start.elapsed().as_secs_f64());
        peak_mib.push(metrics::peak_rss_mib()?);
        out.attempted += 1;
        let checked = op
            .and_then(|op| check(&nets[k], &op))
            .and_then(|fingerprint| match &fingerprints[k] {
                Some(first) if *first != fingerprint => {
                    Err("a repeat of the input gave a different result".to_string())
                }
                Some(_) => Ok(()),
                None => {
                    fingerprints[k] = Some(fingerprint);
                    Ok(())
                }
            });
        if let Err(e) = checked {
            out.failures.push(format!("input {k}: {e}"));
        }
        Ok(())
    })?;
    // The run's networks differ in how much work they make, so the mean over
    // whole rounds, each network weighed once per round, is steadier from
    // seed to seed than a median over them.
    let busy_s: f64 = op_s.iter().sum();
    out.set("op_s", busy_s / op_s.len() as f64);
    out.set("ops_per_s", op_s.len() as f64 / busy_s);
    out.set("setup_s", setup_s);
    out.set("peak_rss_mib", metrics::median(&peak_mib));
    Ok(out)
}

/// Runs `f` inside `ncs_trace::capture`, keeping its events, and returns
/// its result with its wall time in seconds.
fn layer<T>(events: &mut Vec<TraceEvent>, f: impl FnOnce() -> T) -> (T, f64) {
    let ((out, secs), captured) = ncs_trace::capture(|| {
        let start = Instant::now();
        let out = f();
        (out, start.elapsed().as_secs_f64())
    });
    events.extend(captured);
    (out, secs)
}

/// One untraced operation, then the same operation composed from each
/// layer's public entry point, each call timed and traced on its own.
pub fn traced(workload: &FlowWorkload, seed: u64) -> Result<Outcome, String> {
    let framework = AutoNcs::new();
    let mut out = Outcome::default();
    let (nets, gen_s) = generate_inputs(workload, seed)?;
    let net = &nets[0];
    out.set("net.gen_s", gen_s);

    let start = Instant::now();
    let reference = run_op(&framework, net, workload.physical)?;
    let untraced_s = start.elapsed().as_secs_f64();
    out.attempted += 1;
    if let Err(e) = check(net, &reference) {
        out.failures.push(format!("untraced: {e}"));
    }

    let mut events = Vec::new();
    let start = Instant::now();
    let composed = compose(&framework, net, workload.physical, &mut events, &mut out)?;
    let traced_s = start.elapsed().as_secs_f64();
    out.attempted += 1;
    let agrees = match (&reference, &composed) {
        (OpResult::Compare(facade), Composed::Compare { autoncs, fullcro }) => {
            facade.autoncs.design.cost.total().to_bits() == autoncs.to_bits()
                && facade.baseline.design.cost.total().to_bits() == fullcro.to_bits()
        }
        (OpResult::Map(facade), Composed::Map(mapping)) => facade == mapping,
        _ => false,
    };
    if !agrees {
        out.failures
            .push("the composed layers disagree with the facade's result".to_string());
    }
    let layer_s: f64 = out
        .metrics
        .iter()
        .filter(|(name, _)| !name.starts_with("net.") && name.ends_with("_s"))
        .map(|(_, secs)| secs)
        .sum();
    out.notes.push(format!(
        "timed layer calls cover {layer_s:.3} s of the traced operation's {traced_s:.3} s ({:.1} %); untraced it took {untraced_s:.3} s",
        layer_s / traced_s * 100.0
    ));

    let report = TraceReport::from_events(&events);
    let count = |name: &str| {
        let total: u64 = report
            .counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.total)
            .sum();
        total as f64
    };
    let sample_sum = |name: &str| {
        let total: u64 = report
            .samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.sum)
            .sum();
        total as f64
    };
    out.set("cluster.isc_iterations", count("isc.iterations"));
    out.set("cluster.eigen_ql_sweeps", sample_sum("eigen.ql_sweeps"));
    out.set("cluster.kmeans_iterations", sample_sum("kmeans.iterations"));
    out.set("cluster.lanczos_restarts", count("lanczos.restarts"));
    out.set("cluster.sparse_matvecs", count("isc.sparse_matvecs"));
    out.set("cluster.warm_starts", count("isc.warm_starts"));
    out.set("cluster.gcp_splits", count("gcp.splits"));
    let (pool, inline) = (count("par.pool_dispatches"), count("par.inline_fallbacks"));
    out.set("par.pool_dispatches", pool);
    out.set("par.inline_fallbacks", inline);
    out.set("par.inline_ratio", ratio(inline, pool + inline));
    if workload.physical {
        out.set("phys.cg_iterations", count("place.cg_iterations"));
        out.set(
            "phys.place_outer_iterations",
            sample_sum("place.outer_iterations"),
        );
        let commits = count("route.commits");
        let (requeues, failed) = (count("route.requeues"), count("route.failed"));
        out.set("phys.route_commits", commits);
        out.set("phys.route_requeues", requeues);
        out.set("phys.route_failed", failed);
        out.set(
            "phys.route_commit_ratio",
            ratio(commits, commits + requeues + failed),
        );
        out.set(
            "phys.route_window_expansions",
            count("route.window_expansions"),
        );
        out.set("phys.route_relaxations", sample_sum("route.relaxations"));
    }
    out.set("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0);
    Ok(out)
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// What the composed layer calls produced, for comparison with the facade.
enum Composed {
    Compare { autoncs: f64, fullcro: f64 },
    Map(HybridMapping),
}

/// `AutoNcs::compare` (or `map`) rebuilt from the layers' public entry
/// points with the facade's own options. Each call is sequential and none
/// nests in another, so each call's time is also its self time.
fn compose(
    framework: &AutoNcs,
    net: &ConnectionMatrix,
    physical: bool,
    events: &mut Vec<TraceEvent>,
    out: &mut Outcome,
) -> Result<Composed, String> {
    let isc = Isc::new(framework.isc_options().clone());
    let (mapped, secs) = layer(events, || isc.run_traced(net));
    let (mapping, _) = mapped.map_err(|e| format!("ISC failed: {e}"))?;
    out.set("cluster.isc_s", secs);
    out.set("cluster.crossbars", mapping.crossbars().len() as f64);
    out.set("cluster.outlier_pct", mapping.outlier_ratio() * 100.0);
    out.set(
        "cluster.xbar_util_pct",
        mapping.average_utilization() * 100.0,
    );
    if !physical {
        return Ok(Composed::Map(mapping));
    }

    let options = framework.implement_options();
    let tech = framework.technology();
    let phys_err = |e: ncs_phys::PhysError| format!("physical design failed: {e}");
    let (netlist, secs) = layer(events, || Netlist::from_mapping(&mapping, tech));
    out.set("phys.netlist_s", secs);
    out.set("phys.cells", netlist.cells.len() as f64);
    out.set("phys.wires", netlist.wires.len() as f64);
    let (placement, secs) = layer(events, || place(&netlist, &options.placer));
    let placement = placement.map_err(phys_err)?;
    out.set("phys.place_s", secs);
    let (routing, secs) = layer(events, || {
        route(&netlist, &placement, tech, &options.router)
    });
    let routing = routing.map_err(phys_err)?;
    out.set("phys.route_s", secs);
    out.set("phys.max_congestion", routing.congestion.max_usage() as f64);
    let (cost, secs) = layer(events, || {
        PhysicalCost::evaluate(&netlist, &placement, &routing, tech, options.weights)
    });
    out.set("phys.cost_s", secs);

    let fullcro = full_crossbar(net, framework.isc_options().sizes.max())
        .map_err(|e| format!("FullCro mapping failed: {e}"))?;
    let fc_netlist = Netlist::from_mapping(&fullcro, tech);
    let (fc_placement, secs) = layer(events, || place(&fc_netlist, &options.placer));
    let fc_placement = fc_placement.map_err(phys_err)?;
    out.set("phys.place_fullcro_s", secs);
    let (fc_routing, secs) = layer(events, || {
        route(&fc_netlist, &fc_placement, tech, &options.router)
    });
    let fc_routing = fc_routing.map_err(phys_err)?;
    out.set("phys.route_fullcro_s", secs);
    let fc_cost = PhysicalCost::evaluate(
        &fc_netlist,
        &fc_placement,
        &fc_routing,
        tech,
        options.weights,
    );

    out.set("phys.cost_eq3", cost.total());
    out.set("phys.wirelength_um", cost.wirelength_um);
    out.set("phys.area_um2", cost.area_um2);
    out.set("phys.delay_ns", cost.average_delay_ns);
    out.set(
        "phys.cost_reduction_pct",
        (1.0 - cost.total() / fc_cost.total()) * 100.0,
    );
    Ok(Composed::Compare {
        autoncs: cost.total(),
        fullcro: fc_cost.total(),
    })
}
