//! Deterministic structured tracing for the AutoNCS workspace.
//!
//! Every flow stage — eigensolver sweeps, k-means/ISC iterations, placer
//! outer loops, router batch commits — can report what it did through
//! three primitives:
//!
//! * [`span`] — an RAII guard measuring the monotonic elapsed time of a
//!   stage (`Open`/`Close` event pair),
//! * [`add`] — a named counter increment,
//! * [`record`] — a named distribution sample (e.g. an iteration count).
//!
//! All three are **gated**: when tracing is disabled (the default) they
//! reduce to a single thread-local flag read and emit nothing, so BENCH
//! numbers are unaffected. Tracing turns on via the `NCS_TRACE`
//! environment variable (`1`/`true`/`on`, sampled once per process) or an
//! in-process [`set_trace_override`] — the programmatic equivalent used
//! by tests and the bench harness.
//!
//! # Determinism contract
//!
//! Events land in a **per-thread** sink in call order. The flow is
//! serial, so the stream a flow run produces on its calling thread is a
//! pure function of the inputs: bit-identical across runs and immune to
//! scheduler interleaving. The golden-trace test in
//! `tests/determinism.rs` pins exactly this. (An event emitted from
//! another thread, such as an `ncs_par::par_map_queue` worker of the
//! serve scheduler, goes to that thread's private sink and is dropped
//! with it — it can never corrupt the caller's stream.)
//!
//! Timings (`elapsed_ns`) are the one non-deterministic field; the
//! [`structure`] view strips them so streams can be compared exactly.
//!
//! # Example
//!
//! ```
//! use ncs_trace::{capture, structure, TraceEvent};
//!
//! let ((), events) = capture(|| {
//!     let _s = ncs_trace::span("demo.stage");
//!     ncs_trace::add("demo.widgets", 3);
//! });
//! assert_eq!(
//!     structure(&events),
//!     vec!["open demo.stage span=0 depth=0", "count demo.widgets +3", "close demo.stage span=0"],
//! );
//! assert!(matches!(events[2], TraceEvent::Close { .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// One entry of a trace event stream.
///
/// `Open`/`Close` pairs share a `span` id assigned in open order (reset
/// by [`take_events`]); everything except `elapsed_ns` is deterministic
/// at a fixed seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A span opened.
    Open {
        /// Span id, dense in open order within one drained stream.
        span: usize,
        /// Nesting depth at open time (0 = top level).
        depth: usize,
        /// Static span name, e.g. `"flow.map"`.
        name: &'static str,
    },
    /// A span closed.
    Close {
        /// Id of the matching `Open`.
        span: usize,
        /// Static span name.
        name: &'static str,
        /// Monotonic elapsed nanoseconds between open and close.
        elapsed_ns: u128,
    },
    /// A named counter increment.
    Count {
        /// Counter name, e.g. `"route.commits"`.
        name: &'static str,
        /// Increment (always ≥ 1; zero deltas are dropped at the gate).
        delta: u64,
    },
    /// A named distribution sample.
    Sample {
        /// Distribution name, e.g. `"kmeans.iterations"`.
        name: &'static str,
        /// The sampled value.
        value: u64,
    },
}

/// Thread-local enable override: 0 = none, 1 = forced off, 2 = forced on.
const OVERRIDE_NONE: u8 = 0;
const OVERRIDE_OFF: u8 = 1;
const OVERRIDE_ON: u8 = 2;

thread_local! {
    static OVERRIDE: Cell<u8> = const { Cell::new(OVERRIDE_NONE) };
    static SINK: RefCell<SinkState> = RefCell::new(SinkState::default());
}

#[derive(Default)]
struct SinkState {
    events: Vec<TraceEvent>,
    next_span: usize,
    depth: usize,
}

/// `NCS_TRACE`, resolved once per process.
static ENV_ENABLED: OnceLock<bool> = OnceLock::new();

/// Whether tracing is enabled on the current thread.
///
/// Priority: [`set_trace_override`] (this thread only) > `NCS_TRACE`
/// (read once per process). The disabled path is one thread-local read
/// plus, at most, one `OnceLock` load — cheap enough to leave in the
/// hottest serial control paths.
pub fn enabled() -> bool {
    match OVERRIDE.with(Cell::get) {
        OVERRIDE_OFF => false,
        OVERRIDE_ON => true,
        _ => {
            *ENV_ENABLED.get_or_init(|| resolve_enabled(std::env::var("NCS_TRACE").ok().as_deref()))
        }
    }
}

/// Pure `NCS_TRACE` resolution, separated from process state so it can
/// be unit-tested without touching the environment.
///
/// `"1"`, `"true"` and `"on"` (after trimming) enable tracing; anything
/// else — including unset — leaves it off.
pub fn resolve_enabled(env_value: Option<&str>) -> bool {
    matches!(env_value.map(str::trim), Some("1" | "true" | "on"))
}

/// Installs (`Some(on)`) or removes (`None`) a **thread-local** tracing
/// override that takes priority over `NCS_TRACE`.
///
/// Thread-local on purpose: a test capturing a trace enables only its
/// own thread, so concurrently running tests (and worker threads)
/// cannot pollute the captured stream.
pub fn set_trace_override(on: Option<bool>) {
    let v = match on {
        None => OVERRIDE_NONE,
        Some(false) => OVERRIDE_OFF,
        Some(true) => OVERRIDE_ON,
    };
    OVERRIDE.with(|c| c.set(v));
}

/// Returns the current thread's override installed by
/// [`set_trace_override`].
pub fn trace_override() -> Option<bool> {
    match OVERRIDE.with(Cell::get) {
        OVERRIDE_OFF => Some(false),
        OVERRIDE_ON => Some(true),
        _ => None,
    }
}

/// RAII guard returned by [`span`]: emits the matching `Close` event
/// (with monotonic elapsed time) when dropped. Inert when tracing was
/// disabled at open time, so a mid-span override flip never unbalances
/// the stream.
#[must_use = "a span measures the scope it is bound to; binding to _ closes it immediately"]
pub struct Span {
    open: Option<(usize, &'static str, Instant)>,
}

/// Opens a named span on the current thread's event stream.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    let id = SINK.with(|s| {
        let mut s = s.borrow_mut();
        let id = s.next_span;
        s.next_span += 1;
        let depth = s.depth;
        s.depth += 1;
        s.events.push(TraceEvent::Open {
            span: id,
            depth,
            name,
        });
        id
    });
    Span {
        open: Some((id, name, Instant::now())),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((id, name, start)) = self.open.take() {
            let elapsed_ns = start.elapsed().as_nanos();
            SINK.with(|s| {
                let mut s = s.borrow_mut();
                s.depth = s.depth.saturating_sub(1);
                s.events.push(TraceEvent::Close {
                    span: id,
                    name,
                    elapsed_ns,
                });
            });
        }
    }
}

/// Increments the named counter by `delta`. Zero deltas are dropped so
/// "nothing happened" leaves no event behind.
pub fn add(name: &'static str, delta: u64) {
    if delta == 0 || !enabled() {
        return;
    }
    SINK.with(|s| {
        s.borrow_mut()
            .events
            .push(TraceEvent::Count { name, delta });
    });
}

/// Records one sample of the named distribution (iteration counts,
/// sizes, residual-scale integers — anything worth a histogram).
pub fn record(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    SINK.with(|s| {
        s.borrow_mut()
            .events
            .push(TraceEvent::Sample { name, value });
    });
}

/// Drains and returns the current thread's event stream, resetting span
/// ids and depth for the next capture.
pub fn take_events() -> Vec<TraceEvent> {
    SINK.with(|s| {
        let mut s = s.borrow_mut();
        s.next_span = 0;
        s.depth = 0;
        std::mem::take(&mut s.events)
    })
}

/// Runs `f` with tracing force-enabled on this thread and returns its
/// result together with the events it emitted.
///
/// Any stale events left on this thread are discarded first, and the
/// previous override is restored afterwards, so captures compose with
/// the `NCS_TRACE` environment and with each other.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Vec<TraceEvent>) {
    let prev = trace_override();
    set_trace_override(Some(true));
    drop(take_events());
    let out = f();
    let events = take_events();
    set_trace_override(prev);
    (out, events)
}

/// The timing-free view of an event stream: one line per event with
/// names, span ids, depths, counter deltas and sample values — but no
/// `elapsed_ns`. Two runs of a deterministic flow produce **equal**
/// structures even though their timings differ; the determinism tests
/// compare exactly this.
pub fn structure(events: &[TraceEvent]) -> Vec<String> {
    events
        .iter()
        .map(|e| match e {
            TraceEvent::Open { span, depth, name } => {
                format!("open {name} span={span} depth={depth}")
            }
            TraceEvent::Close { span, name, .. } => format!("close {name} span={span}"),
            TraceEvent::Count { name, delta } => format!("count {name} +{delta}"),
            TraceEvent::Sample { name, value } => format!("sample {name} {value}"),
        })
        .collect()
}

/// Aggregate statistics of one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// Span name.
    pub name: &'static str,
    /// Number of `Open`/`Close` pairs seen.
    pub count: u64,
    /// Sum of elapsed nanoseconds over all closes.
    pub total_ns: u128,
}

/// Aggregate total of one counter name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterStat {
    /// Counter name.
    pub name: &'static str,
    /// Sum of all deltas.
    pub total: u64,
}

/// Aggregate statistics of one sample distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleStat {
    /// Distribution name.
    pub name: &'static str,
    /// Number of samples.
    pub count: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Sum of all samples.
    pub sum: u64,
}

/// Per-name aggregation of an event stream: span timings, counter
/// totals and sample distributions, each in **first-appearance order**
/// (a deterministic order, unlike any hash map's).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceReport {
    /// Span statistics in first-open order.
    pub spans: Vec<SpanStat>,
    /// Counter totals in first-increment order.
    pub counters: Vec<CounterStat>,
    /// Sample distributions in first-sample order.
    pub samples: Vec<SampleStat>,
}

impl TraceReport {
    /// Aggregates an event stream.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut report = TraceReport::default();
        for e in events {
            match e {
                TraceEvent::Open { name, .. } => {
                    if !report.spans.iter().any(|s| s.name == *name) {
                        report.spans.push(SpanStat {
                            name,
                            count: 0,
                            total_ns: 0,
                        });
                    }
                }
                TraceEvent::Close {
                    name, elapsed_ns, ..
                } => {
                    // An Open always precedes its Close in one stream;
                    // a Close drained without its Open (split capture)
                    // still aggregates by materializing the slot here.
                    if !report.spans.iter().any(|s| s.name == *name) {
                        report.spans.push(SpanStat {
                            name,
                            count: 0,
                            total_ns: 0,
                        });
                    }
                    if let Some(slot) = report.spans.iter_mut().find(|s| s.name == *name) {
                        slot.count += 1;
                        slot.total_ns += elapsed_ns;
                    }
                }
                TraceEvent::Count { name, delta } => {
                    match report.counters.iter_mut().find(|c| c.name == *name) {
                        Some(c) => c.total += delta,
                        None => report.counters.push(CounterStat {
                            name,
                            total: *delta,
                        }),
                    }
                }
                TraceEvent::Sample { name, value } => {
                    match report.samples.iter_mut().find(|s| s.name == *name) {
                        Some(s) => {
                            s.count += 1;
                            s.min = s.min.min(*value);
                            s.max = s.max.max(*value);
                            s.sum += value;
                        }
                        None => report.samples.push(SampleStat {
                            name,
                            count: 1,
                            min: *value,
                            max: *value,
                            sum: *value,
                        }),
                    }
                }
            }
        }
        report
    }

    /// Hand-rolled JSON rendering (the workspace has no serializer):
    /// `{"spans": [...], "counters": [...], "samples": [...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}}}",
                s.name, s.count, s.total_ns
            );
        }
        out.push_str("\n  ],\n  \"counters\": [");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\": \"{}\", \"total\": {}}}",
                c.name, c.total
            );
        }
        out.push_str("\n  ],\n  \"samples\": [");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\": \"{}\", \"count\": {}, \"min\": {}, \"max\": {}, \"sum\": {}}}",
                s.name, s.count, s.min, s.max, s.sum
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Renders the per-stage summary table the `autoncs` CLI prints
    /// under `NCS_TRACE=1`.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            let _ = writeln!(out, "{:<26} {:>6} {:>12}", "stage", "calls", "total ms");
            for s in &self.spans {
                let _ = writeln!(
                    out,
                    "{:<26} {:>6} {:>12.3}",
                    s.name,
                    s.count,
                    s.total_ns as f64 / 1e6
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:<26} {:>12}", "counter", "total");
            for c in &self.counters {
                let _ = writeln!(out, "{:<26} {:>12}", c.name, c.total);
            }
        }
        if !self.samples.is_empty() {
            let _ = writeln!(
                out,
                "{:<26} {:>6} {:>8} {:>8} {:>10}",
                "sample", "n", "min", "max", "sum"
            );
            for s in &self.samples {
                let _ = writeln!(
                    out,
                    "{:<26} {:>6} {:>8} {:>8} {:>10}",
                    s.name, s.count, s.min, s.max, s.sum
                );
            }
        }
        out
    }

    /// Writes the report as `results/TRACE_<flow>.json` (creating the
    /// `results/` directory if needed, like the bench artifacts) and
    /// returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-write failures.
    pub fn export(&self, flow: &str) -> std::io::Result<std::path::PathBuf> {
        let dir = std::path::Path::new("results");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("TRACE_{flow}.json"));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every test in this module drives its own thread-local override
    /// and sink, so no cross-test locking is needed.
    #[test]
    fn resolve_enabled_accepts_the_documented_spellings() {
        assert!(resolve_enabled(Some("1")));
        assert!(resolve_enabled(Some("true")));
        assert!(resolve_enabled(Some(" on ")));
        assert!(!resolve_enabled(Some("0")));
        assert!(!resolve_enabled(Some("yes")));
        assert!(!resolve_enabled(Some("")));
        assert!(!resolve_enabled(None));
    }

    #[test]
    fn override_round_trips_and_gates_emission() {
        set_trace_override(Some(false));
        assert_eq!(trace_override(), Some(false));
        add("t.counter", 1);
        let _s = span("t.span");
        drop(take_events());
        set_trace_override(Some(true));
        assert_eq!(trace_override(), Some(true));
        add("t.counter", 2);
        let events = take_events();
        set_trace_override(None);
        assert_eq!(trace_override(), None);
        assert_eq!(
            events,
            vec![TraceEvent::Count {
                name: "t.counter",
                delta: 2
            }]
        );
    }

    #[test]
    fn spans_nest_and_record_monotonic_time() {
        let ((), events) = capture(|| {
            let _outer = span("t.outer");
            {
                let _inner = span("t.inner");
            }
        });
        assert_eq!(
            structure(&events),
            vec![
                "open t.outer span=0 depth=0",
                "open t.inner span=1 depth=1",
                "close t.inner span=1",
                "close t.outer span=0",
            ]
        );
        let elapsed = |name: &str| {
            events
                .iter()
                .find_map(|e| match e {
                    TraceEvent::Close {
                        name: n,
                        elapsed_ns,
                        ..
                    } if *n == name => Some(*elapsed_ns),
                    _ => None,
                })
                .unwrap()
        };
        // Monotonic clock: the outer span contains the inner one.
        assert!(elapsed("t.outer") >= elapsed("t.inner"));
    }

    #[test]
    fn disabled_path_emits_nothing_and_zero_deltas_are_dropped() {
        set_trace_override(Some(false));
        drop(take_events());
        let _s = span("t.ghost");
        add("t.ghost", 7);
        record("t.ghost", 7);
        drop(_s);
        assert!(take_events().is_empty());
        set_trace_override(Some(true));
        add("t.zero", 0);
        assert!(take_events().is_empty(), "zero deltas are dropped");
        set_trace_override(None);
    }

    #[test]
    fn capture_discards_stale_events_and_restores_override() {
        set_trace_override(Some(true));
        add("t.stale", 1);
        let ((), events) = capture(|| add("t.fresh", 1));
        assert_eq!(
            structure(&events),
            vec!["count t.fresh +1"],
            "stale pre-capture events must not leak in"
        );
        assert_eq!(trace_override(), Some(true), "override restored");
        set_trace_override(None);
        drop(take_events());
    }

    #[test]
    fn take_events_resets_span_ids() {
        let ((), first) = capture(|| {
            let _a = span("t.a");
        });
        let ((), second) = capture(|| {
            let _b = span("t.b");
        });
        assert!(matches!(first[0], TraceEvent::Open { span: 0, .. }));
        assert!(
            matches!(second[0], TraceEvent::Open { span: 0, .. }),
            "span ids restart per drained stream"
        );
    }

    #[test]
    fn report_aggregates_in_first_appearance_order() {
        let ((), events) = capture(|| {
            {
                let _s = span("t.stage");
            }
            {
                let _s = span("t.stage");
            }
            add("t.beta", 2);
            add("t.alpha", 1);
            add("t.beta", 3);
            record("t.dist", 4);
            record("t.dist", 10);
            record("t.dist", 7);
        });
        let report = TraceReport::from_events(&events);
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].name, "t.stage");
        assert_eq!(report.spans[0].count, 2);
        assert_eq!(
            report
                .counters
                .iter()
                .map(|c| (c.name, c.total))
                .collect::<Vec<_>>(),
            vec![("t.beta", 5), ("t.alpha", 1)],
            "counters keep first-increment order"
        );
        assert_eq!(report.samples.len(), 1);
        let s = &report.samples[0];
        assert_eq!((s.count, s.min, s.max, s.sum), (3, 4, 10, 21));
    }

    #[test]
    fn json_is_balanced_and_carries_every_name() {
        let ((), events) = capture(|| {
            let _s = span("t.stage");
            add("t.count", 1);
            record("t.dist", 9);
        });
        let json = TraceReport::from_events(&events).to_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "balanced brackets"
        );
        for name in ["t.stage", "t.count", "t.dist"] {
            assert!(json.contains(name), "missing {name}");
        }
        let table = TraceReport::from_events(&events).render_table();
        assert!(table.contains("t.stage") && table.contains("t.count"));
    }

    #[test]
    fn worker_threads_do_not_pollute_the_calling_stream() {
        // The contract behind the per-thread sink: an event emitted on
        // another thread lands in that thread's sink, not ours.
        let ((), events) = capture(|| {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    set_trace_override(Some(true));
                    add("t.worker", 1);
                    drop(take_events());
                });
            });
            add("t.main", 1);
        });
        assert_eq!(structure(&events), vec!["count t.main +1"]);
    }
}
