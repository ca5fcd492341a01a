//! Minimal in-tree benchmark harness.
//!
//! Replaces the former criterion dependency so benches build offline with
//! zero registry crates. The model is deliberately simple: each benchmark
//! runs `warmup` throwaway iterations, then `samples` timed iterations,
//! and reports the median / min / mean wall-clock time per iteration.
//! Medians are robust to the occasional scheduler hiccup, which is all a
//! perf *trajectory* needs — commit-to-commit comparisons on the same
//! machine.
//!
//! Results are written as machine-readable `BENCH_<group>.json` files
//! under `results/` (see [`BenchGroup::write_json`] for the schema), so CI
//! or a later PR can diff medians across commits.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Timing summary for one benchmark, all durations in nanoseconds per
/// iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name, unique within its group (e.g. `"msc/200"`).
    pub name: String,
    /// Timed iterations.
    pub samples: usize,
    /// Median wall-clock nanoseconds per iteration.
    pub median_ns: u128,
    /// Fastest iteration.
    pub min_ns: u128,
    /// Arithmetic mean.
    pub mean_ns: u128,
}

impl BenchResult {
    /// Median time in milliseconds (for human-readable logs).
    pub fn median_ms(&self) -> f64 {
        self.median_ns as f64 / 1e6
    }
}

/// Wall-clock total of one instrumented flow stage, taken from an
/// `ncs-trace` capture outside the timed loop — so the timed medians stay
/// on the zero-cost disabled path while the artifact still carries a
/// per-stage breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTime {
    /// Stage (span) name, e.g. `"flow.map"`.
    pub name: String,
    /// Times the stage ran during the capture.
    pub calls: u64,
    /// Total nanoseconds across all calls.
    pub total_ns: u128,
}

/// A named scalar quality metric recorded alongside the timings — final
/// HPWL, post-legalization overlap, iteration counts. Timings answer "how
/// fast", metrics answer "did the fast path give up any quality"; a
/// gate script can read both from the same artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, unique within its group (e.g. `"placement/hpwl_um"`).
    pub name: String,
    /// Scalar value (units are part of the name by convention).
    pub value: f64,
}

/// A named collection of benchmark results that serializes to one
/// `BENCH_<group>.json` artifact.
#[derive(Debug, Clone)]
pub struct BenchGroup {
    name: String,
    warmup: usize,
    samples: usize,
    /// Hardware threads of the host, recorded so timings can be read
    /// against the machine that produced them.
    hardware_threads: usize,
    results: Vec<BenchResult>,
    stages: Vec<StageTime>,
    metrics: Vec<Metric>,
}

impl BenchGroup {
    /// Creates a group with the default effort (2 warmup + 10 timed
    /// iterations per bench, overridable via the `NCS_BENCH_SAMPLES`
    /// environment variable).
    pub fn new(name: &str) -> Self {
        let samples = std::env::var("NCS_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&s: &usize| s > 0)
            .unwrap_or(10);
        BenchGroup {
            name: name.to_string(),
            warmup: 2,
            samples,
            hardware_threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            results: Vec::new(),
            stages: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Overrides the per-bench sample count.
    pub fn samples(mut self, samples: usize) -> Self {
        assert!(samples > 0, "sample count must be positive");
        self.samples = samples;
        self
    }

    /// Overrides the warmup iteration count. Groups whose single
    /// iteration costs tens of seconds (the 20k-neuron scale benches)
    /// opt out of warmup entirely — at that runtime the caches are a
    /// rounding error and the medians are already over full pipelines.
    pub fn warmup(mut self, warmup: usize) -> Self {
        self.warmup = warmup;
        self
    }

    /// Times `f` and records the result under `name`. The closure's return
    /// value is passed through [`black_box`] so the optimizer cannot
    /// discard the computation.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> &BenchResult {
        for _ in 0..self.warmup {
            black_box(f());
        }
        let mut times: Vec<u128> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            black_box(f());
            times.push(t0.elapsed().as_nanos());
        }
        times.sort_unstable();
        let median_ns = if times.len() % 2 == 1 {
            times[times.len() / 2]
        } else {
            (times[times.len() / 2 - 1] + times[times.len() / 2]) / 2
        };
        let result = BenchResult {
            name: name.to_string(),
            samples: self.samples,
            median_ns,
            min_ns: times[0],
            mean_ns: times.iter().sum::<u128>() / times.len() as u128,
        };
        println!(
            "  {}/{name}: median {:.3} ms (min {:.3} ms, {} samples)",
            self.name,
            result.median_ms(),
            result.min_ns as f64 / 1e6,
            result.samples
        );
        self.results.push(result);
        self.results.last().expect("just pushed")
    }

    /// Group name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Results recorded so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Attaches a per-stage timing breakdown (from a traced run outside
    /// the timed loop); it serializes as the optional `stages` array.
    pub fn set_stages(&mut self, stages: Vec<StageTime>) {
        self.stages = stages;
    }

    /// Stage timings attached so far.
    pub fn stages(&self) -> &[StageTime] {
        &self.stages
    }

    /// Records a scalar quality metric (computed outside the timed loop);
    /// it serializes into the optional `metrics` array.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value — a NaN in the artifact would turn a
    /// CI quality gate into a silent pass.
    pub fn record_metric(&mut self, name: &str, value: f64) -> &Metric {
        assert!(value.is_finite(), "metric {name:?} must be finite: {value}");
        println!("  {}/{name}: {value}", self.name);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
        });
        self.metrics.last().expect("just pushed")
    }

    /// Quality metrics recorded so far.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Hardware threads detected on this host.
    pub fn hardware_threads(&self) -> usize {
        self.hardware_threads
    }

    /// Serializes the group to the `BENCH_*.json` schema:
    ///
    /// ```json
    /// {
    ///   "group": "clustering",
    ///   "warmup": 2,
    ///   "hardware_threads": 4,
    ///   "benches": [
    ///     {"name": "msc/100", "samples": 10,
    ///      "median_ns": 1000, "min_ns": 900, "mean_ns": 1100}
    ///   ]
    /// }
    /// ```
    ///
    /// A `stages` array with
    /// `{"name", "calls", "total_ns"}` entries is present only when
    /// [`BenchGroup::set_stages`] attached a traced breakdown; a
    /// `metrics` array with `{"name", "value"}` entries is present only
    /// when [`BenchGroup::record_metric`] recorded quality numbers.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"group\": {},\n  \"warmup\": {},\n  \"hardware_threads\": {},\n  \"benches\": [",
            json_string(&self.name),
            self.warmup,
            self.hardware_threads
        );
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\": {}, \"samples\": {}, \"median_ns\": {}, \"min_ns\": {}, \"mean_ns\": {}}}",
                json_string(&r.name),
                r.samples,
                r.median_ns,
                r.min_ns,
                r.mean_ns
            );
        }
        out.push_str("\n  ]");
        if !self.stages.is_empty() {
            out.push_str(",\n  \"stages\": [");
            for (i, s) in self.stages.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\n    {{\"name\": {}, \"calls\": {}, \"total_ns\": {}}}",
                    json_string(&s.name),
                    s.calls,
                    s.total_ns
                );
            }
            out.push_str("\n  ]");
        }
        if !self.metrics.is_empty() {
            out.push_str(",\n  \"metrics\": [");
            for (i, m) in self.metrics.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\n    {{\"name\": {}, \"value\": {}}}",
                    json_string(&m.name),
                    m.value
                );
            }
            out.push_str("\n  ]");
        }
        out.push_str("\n}\n");
        out
    }

    /// Writes `results/BENCH_<group>.json` and returns its path.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors, like the other artifact writers.
    pub fn write_json(&self) -> std::path::PathBuf {
        crate::write_text(&format!("BENCH_{}.json", self.name), &self.to_json())
    }
}

/// Escapes a string for embedding in JSON output.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_plausible_times() {
        let mut group = BenchGroup::new("harness_selftest").samples(5);
        let r = group
            .bench("spin", || {
                let mut acc = 0u64;
                for i in 0..10_000u64 {
                    acc = acc.wrapping_add(i * i);
                }
                acc
            })
            .clone();
        assert_eq!(r.samples, 5);
        assert!(r.min_ns > 0);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.median_ns <= r.mean_ns * 2);
    }

    #[test]
    fn json_schema_is_well_formed() {
        let mut group = BenchGroup::new("schema").samples(1);
        group.bench("noop", || 1);
        group.bench("q\"uote", || 2);
        let json = group.to_json();
        assert!(json.starts_with("{\n  \"group\": \"schema\""));
        assert!(json.contains("\"name\": \"noop\""));
        assert!(json.contains("\\\"uote"));
        assert!(json.ends_with("]\n}\n"));
        // Balanced braces/brackets (cheap structural sanity check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_string_escapes_controls() {
        assert_eq!(json_string("a\nb"), "\"a\\nb\"");
        assert_eq!(json_string("c:\\d"), "\"c:\\\\d\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_samples_rejected() {
        let _ = BenchGroup::new("bad").samples(0);
    }

    #[test]
    fn stages_section_appears_only_when_attached() {
        let mut group = BenchGroup::new("stages_selftest").samples(1);
        group.bench("noop", || 1);
        assert!(!group.to_json().contains("\"stages\""));
        group.set_stages(vec![
            StageTime {
                name: "flow.map".into(),
                calls: 2,
                total_ns: 1234,
            },
            StageTime {
                name: "flow.implement".into(),
                calls: 2,
                total_ns: 5678,
            },
        ]);
        assert_eq!(group.stages().len(), 2);
        let json = group.to_json();
        assert!(json.contains("\"stages\": ["), "{json}");
        assert!(json.contains("\"name\": \"flow.map\", \"calls\": 2, \"total_ns\": 1234"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn metrics_section_appears_only_when_recorded() {
        let mut group = BenchGroup::new("metrics_selftest").samples(1);
        group.bench("noop", || 1);
        assert!(!group.to_json().contains("\"metrics\""));
        group.record_metric("placement/hpwl_um", 1234.5);
        group.record_metric("placement/overlap_um2", 0.0);
        assert_eq!(group.metrics().len(), 2);
        let json = group.to_json();
        assert!(json.contains("\"metrics\": ["), "{json}");
        assert!(json.contains("\"name\": \"placement/hpwl_um\", \"value\": 1234.5"));
        assert!(json.contains("\"name\": \"placement/overlap_um2\", \"value\": 0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_metrics_are_rejected() {
        let mut group = BenchGroup::new("metrics_nan").samples(1);
        group.record_metric("bad", f64::NAN);
    }
}
