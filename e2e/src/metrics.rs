//! Metric names and units, the measurement loop, and the one-line JSON
//! result every run ends with.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by every workload under `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_s", "s"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every workload under `--trace 1`. The
/// name up to its first `.` is the layer; a workload that never enters a
/// layer reports that layer's metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.gen_s", "s"),
    ("cluster.isc_s", "s"),
    ("cluster.isc_iterations", "count"),
    ("cluster.crossbars", "count"),
    ("cluster.outlier_pct", "%"),
    ("cluster.xbar_util_pct", "%"),
    ("cluster.eigen_ql_sweeps", "count"),
    ("cluster.kmeans_iterations", "count"),
    ("cluster.lanczos_restarts", "count"),
    ("cluster.sparse_matvecs", "count"),
    ("cluster.warm_starts", "count"),
    ("cluster.gcp_splits", "count"),
    ("phys.netlist_s", "s"),
    ("phys.cells", "count"),
    ("phys.wires", "count"),
    ("phys.place_s", "s"),
    ("phys.cg_iterations", "count"),
    ("phys.place_outer_iterations", "count"),
    ("phys.place_fullcro_s", "s"),
    ("phys.route_s", "s"),
    ("phys.route_fullcro_s", "s"),
    ("phys.route_commits", "count"),
    ("phys.route_requeues", "count"),
    ("phys.route_failed", "count"),
    ("phys.route_commit_ratio", "ratio"),
    ("phys.route_window_expansions", "count"),
    ("phys.route_relaxations", "count"),
    ("phys.max_congestion", "count"),
    ("phys.cost_s", "s"),
    ("phys.cost_eq3", "um-equiv"),
    ("phys.wirelength_um", "um"),
    ("phys.area_um2", "um2"),
    ("phys.delay_ns", "ns"),
    ("phys.cost_reduction_pct", "%"),
    ("par.pool_dispatches", "count"),
    ("par.inline_fallbacks", "count"),
    ("par.inline_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("serve.hit_ratio", "ratio"),
    ("serve.misses", "count"),
    ("serve.evictions", "count"),
    ("serve.batches", "count"),
    ("serve.max_batch", "count"),
    ("serve.warm_p50_ms", "ms"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.req_p99_ms", "ms"),
];

/// Set-up is repeated this many times per run and reported as the median.
pub const SETUP_REPS: usize = 15;

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// One line per failed correctness check.
    pub failures: Vec<String>,
    /// Lines printed with the metric table.
    pub notes: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Failed operations, never more than were attempted.
    pub fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted)
    }

    /// The metrics of `spec` in spec order with their units. With `layers`,
    /// a metric of one of those layers must have been set and one of any
    /// other layer reads 0; without, every metric must have been set. A
    /// value outside `spec` or one that is not finite is an error.
    pub fn rows(
        &self,
        spec: &[(&'static str, &'static str)],
        layers: Option<&[&str]>,
    ) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        if let Some(name) = self
            .metrics
            .keys()
            .find(|name| !spec.iter().any(|(n, _)| n == *name))
        {
            return Err(format!("metric {name} is not in the metric list"));
        }
        let mut rows = Vec::with_capacity(spec.len());
        for &(name, unit) in spec {
            let layer = name.split('.').next().unwrap_or(name);
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if layers.is_some_and(|l| !l.contains(&layer)) => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            rows.push((name, value, unit));
        }
        Ok(rows)
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn json_line(outcome: &Outcome, rows: &[(&str, f64, &str)]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failed(),
        metrics.join(", ")
    )
}

/// Nearest-rank quantile `q ∈ [0, 1]` of `xs` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Runs `setup` [`SETUP_REPS`] times and returns the last result with the
/// median wall time in seconds.
pub fn setup_median<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        last = Some(setup()?);
        secs.push(start.elapsed().as_secs_f64());
    }
    let last = last.ok_or("no set-up ran")?;
    Ok((last, median(&secs)))
}

/// Calls `rep(i)` for i = 0, 1, … in rounds of `round` calls: one round,
/// then more for as long as one more round, as long as the last one, still
/// ends within `budget`. Whole rounds give each of a run's inputs the same
/// weight. An error from `rep` ends the run.
pub fn repeat_for(
    budget: Duration,
    round: usize,
    mut rep: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut reps = 0;
    loop {
        let began = Instant::now();
        for _ in 0..round {
            rep(reps)?;
            reps += 1;
        }
        if start.elapsed() + began.elapsed() > budget {
            return Ok(());
        }
    }
}

/// Resets the process's peak-RSS mark, so that [`peak_rss_mib`] reads the
/// peak of what runs after this call.
pub fn reset_peak_rss() -> Result<(), String> {
    if ncs_bench::memory::reset_peak_rss() {
        Ok(())
    } else {
        Err("the peak RSS cannot be reset on this host".to_string())
    }
}

/// Peak resident set of this process since the last [`reset_peak_rss`],
/// MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    ncs_bench::memory::peak_rss_bytes()
        .map(|bytes| bytes as f64 / f64::from(1u32 << 20))
        .ok_or_else(|| "peak RSS is unavailable on this host".to_string())
}
