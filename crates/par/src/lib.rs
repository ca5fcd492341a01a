//! Deterministic scoped parallelism for the AutoNCS workspace.
//!
//! Every primitive in this crate obeys one contract: **the chunk layout
//! is a function of the problem size only, never of the thread count or
//! of scheduling**. Workers fill pre-indexed output slots (or return
//! per-chunk partials that are folded sequentially in chunk order), so a
//! kernel built on these primitives produces bit-identical floating
//! point results at `NCS_THREADS=1`, `NCS_THREADS=4`, or any other
//! setting. The single-thread case never spawns: it runs the identical
//! chunk/fold structure inline on the calling thread.
//!
//! Workers never wait on one another: each runs its own contiguous run
//! of chunks (or, in [`par_map_queue`], claims items from one atomic
//! counter) and is joined by the launching thread. There are no
//! barriers and no shared exchange buffers; a kernel that needs a serial
//! step between parallel phases makes two launches.
//!
//! There is no persistent thread pool either: a launch that engages
//! spawns its workers with [`std::thread::scope`] and joins them before
//! it returns, so every launch pays OS thread creation and teardown.
//! (`pool_threads` and the `par.pool_dispatches` counter keep their
//! names; a "pool dispatch" is one such spawn-and-join launch.)
//!
//! # Serial cutoffs
//!
//! Spawning and joining workers costs tens of microseconds per launch;
//! a small kernel loses more to that than it gains from extra cores.
//! Every primitive therefore takes a [`Cutoff`]: a calibrated minimum
//! amount of work below which the launch runs inline on the calling
//! thread, with the **same chunk grid and fold order**, so results are
//! bit-identical on both sides of the cutoff. The engage/fallback
//! decision is a pure function of the problem size — never of the
//! thread count — and is surfaced through two trace counters,
//! `par.pool_dispatches` and `par.inline_fallbacks`, which therefore
//! also stay bit-identical across thread counts.
//!
//! # Thread-count resolution
//!
//! The *requested* count, [`threads`], resolves in priority order:
//!
//! 1. an in-process override installed with [`set_thread_override`]
//!    (used by benches and determinism tests — no racy env mutation),
//! 2. the `NCS_THREADS` environment variable (read once per process;
//!    `0` or unparseable values fall back to the hardware default),
//! 3. [`std::thread::available_parallelism`].
//!
//! `0` uniformly means "hardware default" for both the environment
//! variable and the override. The count a launch actually spawns,
//! [`pool_threads`], additionally caps environment-resolved requests at
//! [`hardware_threads`]: this crate's workers are CPU-bound, so
//! oversubscribing a core only adds spawn and context-switch cost — and
//! because the chunk grid ignores the worker count, capping it cannot
//! change a single result bit. An explicit override is exempt from the
//! cap so determinism tests can still force genuinely oversubscribed
//! launches.
//!
//! # Shadow-access checking
//!
//! `NCS_SHADOW=1` (or [`set_shadow_override`]) arms an in-house race
//! detector for the invariant bit-identity rests on: every
//! [`par_chunks_mut`] launch verifies its worker claim table — pairwise
//! disjoint, covering the input exactly — before any worker spawns, and
//! panics on a bad one. Off by default; see [`shadow`] for the
//! contract.
//!
//! # Example
//!
//! ```
//! // A chunked sum: same bits at any thread count, because the chunk
//! // grid depends only on (len, grain) and partials fold in order.
//! let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin()).collect();
//! let total = ncs_par::par_map_reduce(
//!     xs.len(),
//!     128,
//!     ncs_par::Cutoff::NONE,
//!     |r| xs[r].iter().sum::<f64>(),
//!     0.0,
//!     |acc, part| acc + part,
//! );
//! let serial: f64 = ncs_par::chunk_ranges(xs.len(), 128)
//!     .map(|r| xs[r].iter().sum::<f64>())
//!     .sum();
//! assert_eq!(total.to_bits(), serial.to_bits());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod shadow;

pub use shadow::set_shadow_override;

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// Upper bound on the worker count, to keep a typo'd `NCS_THREADS`
/// from spawning thousands of threads.
pub const MAX_THREADS: usize = 64;

/// In-process override: 0 means "no override".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `NCS_THREADS` / hardware default, resolved once per process.
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

/// Hardware parallelism, resolved once per process.
static HW_THREADS: OnceLock<usize> = OnceLock::new();

/// The machine's available parallelism, clamped to
/// `1..=`[`MAX_THREADS`] and sampled once per process.
pub fn hardware_threads() -> usize {
    *HW_THREADS.get_or_init(|| {
        thread::available_parallelism()
            .map_or(1, |n| n.get())
            .clamp(1, MAX_THREADS)
    })
}

/// Resolves the *requested* worker count.
///
/// Priority: [`set_thread_override`] > `NCS_THREADS` > hardware
/// parallelism. Always in `1..=`[`MAX_THREADS`]. Note the environment
/// variable is sampled once per process, on first use. Launches spawn
/// [`pool_threads`] workers, which may be fewer.
pub fn threads() -> usize {
    let forced = OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    *ENV_THREADS.get_or_init(|| {
        let hw = thread::available_parallelism().map_or(1, |n| n.get());
        resolve_threads(std::env::var("NCS_THREADS").ok().as_deref(), hw)
    })
}

/// The worker count a launch actually spawns: the requested count,
/// capped at [`hardware_threads`] unless it came from an explicit
/// [`set_thread_override`].
///
/// The cap exists because the workers are CPU-bound: on a 1-core host,
/// `NCS_THREADS=4` would mean four workers time-sharing one core, paying
/// spawn and context-switch cost for no extra throughput. The chunk grid
/// is a function of the problem size only, so capping the worker count
/// cannot change any result bit. Overrides bypass the cap so determinism
/// tests can force real oversubscribed launches.
pub fn pool_threads() -> usize {
    match thread_override() {
        Some(n) => n,
        None => threads().min(hardware_threads()),
    }
}

/// Pure thread-count resolution, separated from process state so it can
/// be unit-tested without touching the environment.
///
/// `None`, an unparseable string, or `0` yield the hardware default;
/// everything is clamped to `1..=`[`MAX_THREADS`].
pub fn resolve_threads(env_value: Option<&str>, hardware: usize) -> usize {
    let requested = env_value
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(hardware);
    requested.clamp(1, MAX_THREADS)
}

/// Installs (`Some(n)`) or removes (`None`) an in-process thread-count
/// override that takes priority over `NCS_THREADS`.
///
/// Determinism tests and benches use this to compare thread counts
/// within one process. `Some(0)` means "hardware default", matching
/// the `NCS_THREADS=0` environment semantics, and is resolved to
/// [`hardware_threads`] at install time (so [`thread_override`]
/// reports the resolved count).
pub fn set_thread_override(n: Option<usize>) {
    let v = n.map_or(0, |x| {
        if x == 0 {
            hardware_threads()
        } else {
            x.clamp(1, MAX_THREADS)
        }
    });
    OVERRIDE.store(v, Ordering::Relaxed);
}

/// Returns the current override installed by [`set_thread_override`].
pub fn thread_override() -> Option<usize> {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

/// A size-aware serial cutoff: the minimum amount of work a launch must
/// carry before it is worth spawning workers for.
///
/// A launch over `items` items spawns workers when
/// `items * work_per_item >= min_work`; below that it runs inline on
/// the calling thread **with the identical chunk grid and fold order**,
/// so the cutoff can never change result bits — only where the work
/// runs. `work_per_item` lets callers express per-item cost in
/// whatever unit they calibrated `min_work` in (flops, touched
/// entries, grid cells), defaulting to 1.
///
/// The decision is a pure function of the problem size, which keeps
/// the `par.pool_dispatches` / `par.inline_fallbacks` trace counters —
/// and therefore whole trace streams — bit-identical across thread
/// counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cutoff {
    min_work: usize,
    work_per_item: usize,
}

impl Cutoff {
    /// No cutoff: every non-trivial launch spawns workers.
    pub const NONE: Cutoff = Cutoff {
        min_work: 0,
        work_per_item: 1,
    };

    /// A cutoff that engages once total work reaches `min_work` units.
    pub const fn min_work(min_work: usize) -> Cutoff {
        Cutoff {
            min_work,
            work_per_item: 1,
        }
    }

    /// Sets the per-item work estimate (clamped to ≥ 1) used to convert
    /// an item count into total work units.
    pub const fn work_per_item(self, work: usize) -> Cutoff {
        Cutoff {
            min_work: self.min_work,
            work_per_item: if work == 0 { 1 } else { work },
        }
    }

    /// Whether a launch over `items` items carries enough total work to
    /// spawn workers.
    pub fn engages(&self, items: usize) -> bool {
        items.saturating_mul(self.work_per_item) >= self.min_work
    }
}

/// Decides the worker count for a launch over `items` items split into
/// `chunks` chunks, recording the decision as a trace counter.
///
/// Both inputs are functions of the problem size only, so the counter
/// stream is identical at any thread count; only the returned worker
/// count (never observable in results) depends on [`pool_threads`].
fn launch_workers(items: usize, chunks: usize, cutoff: Cutoff) -> usize {
    if chunks <= 1 || !cutoff.engages(items) {
        ncs_trace::add("par.inline_fallbacks", 1);
        1
    } else {
        ncs_trace::add("par.pool_dispatches", 1);
        pool_threads().min(chunks)
    }
}

/// Number of fixed-size chunks covering `len` items at `grain` items
/// per chunk (the last chunk may be short). `grain` is clamped to ≥ 1.
pub fn chunk_count(len: usize, grain: usize) -> usize {
    len.div_ceil(grain.max(1))
}

/// The fixed chunk grid: disjoint, ascending ranges covering `0..len`.
///
/// This grid — a function of `(len, grain)` only — is the unit of work
/// distribution everywhere in this crate, which is what makes results
/// independent of the thread count.
pub fn chunk_ranges(len: usize, grain: usize) -> impl Iterator<Item = Range<usize>> {
    let grain = grain.max(1);
    (0..chunk_count(len, grain)).map(move |c| (c * grain)..((c + 1) * grain).min(len))
}

/// Joins a scoped worker, propagating any panic to the caller.
fn join<R>(handle: thread::ScopedJoinHandle<'_, R>) -> R {
    match handle.join() {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Splits `0..chunks` into `workers` contiguous, ascending runs.
fn worker_runs(chunks: usize, workers: usize) -> impl Iterator<Item = Range<usize>> {
    (0..workers).map(move |w| (w * chunks / workers)..((w + 1) * chunks / workers))
}

/// The element-range claim table of a launch: worker `w` owns
/// `claims[w]`. This single table both feeds the `split_at_mut` loop
/// and is what the shadow-access checker verifies, so the ranges the
/// checker approves are exactly the ranges the workers receive.
fn worker_elem_claims(
    chunks: usize,
    workers: usize,
    grain: usize,
    len: usize,
) -> Vec<Range<usize>> {
    worker_runs(chunks, workers)
        .map(|run| (run.start * grain).min(len)..(run.end * grain).min(len))
        .collect()
}

/// Applies `f` to every chunk of `data` (mutably), returning the
/// per-chunk results in chunk order.
///
/// `f` receives the global element offset of the chunk plus the chunk
/// slice. Chunks are assigned to workers as contiguous runs, so the
/// returned `Vec` is always in ascending chunk order regardless of the
/// thread count; below the `cutoff` (measured in elements of `data`),
/// or with one thread, the chunks run inline, in order.
pub fn par_chunks_mut<T, A, F>(data: &mut [T], grain: usize, cutoff: Cutoff, f: F) -> Vec<A>
where
    T: Send,
    A: Send,
    F: Fn(usize, &mut [T]) -> A + Sync,
{
    let len = data.len();
    let grain = grain.max(1);
    let chunks = chunk_count(len, grain);
    let workers = launch_workers(len, chunks, cutoff);
    if workers <= 1 {
        if shadow::enabled() {
            let grid: Vec<Range<usize>> = chunk_ranges(len, grain).collect();
            shadow::check_launch("par_chunks_mut", len, &grid);
        }
        let mut out = Vec::with_capacity(chunks);
        let mut start = 0;
        for chunk in data.chunks_mut(grain) {
            out.push(f(start, chunk));
            start += chunk.len();
        }
        return out;
    }
    let claims = worker_elem_claims(chunks, workers, grain, len);
    if shadow::enabled() {
        // Verified before any worker spawns: a bad claim table panics on
        // the launching thread before any chunk runs.
        shadow::check_launch("par_chunks_mut", len, &claims);
    }
    let mut per_worker: Vec<Vec<A>> = Vec::with_capacity(workers);
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        let mut rest = data;
        for claim in &claims {
            let (mine, tail) = rest.split_at_mut(claim.end - claim.start);
            rest = tail;
            let base = claim.start;
            let fref = &f;
            handles.push(scope.spawn(move || {
                let mut out = Vec::with_capacity(chunk_count(mine.len(), grain));
                let mut start = base;
                for chunk in mine.chunks_mut(grain) {
                    out.push(fref(start, chunk));
                    start += chunk.len();
                }
                out
            }));
        }
        for h in handles {
            per_worker.push(join(h));
        }
    });
    per_worker.into_iter().flatten().collect()
}

/// Maps every chunk range of `0..len` through `map` and folds the
/// per-chunk partials **sequentially, in ascending chunk order**.
///
/// Because `map` sees only the chunk range (whose layout is a function
/// of `(len, grain)`) and the fold is an ordered serial pass on the
/// calling thread, the result is bit-identical at any thread count and
/// on either side of the `cutoff` (measured in items of `0..len`) —
/// the inline path maps the same chunks in the same order.
pub fn par_map_reduce<A, B, M, F>(
    len: usize,
    grain: usize,
    cutoff: Cutoff,
    map: M,
    init: B,
    mut fold: F,
) -> B
where
    A: Send,
    M: Fn(Range<usize>) -> A + Sync,
    F: FnMut(B, A) -> B,
{
    let grain = grain.max(1);
    let chunks = chunk_count(len, grain);
    let workers = launch_workers(len, chunks, cutoff);
    if workers <= 1 {
        let mut acc = init;
        for r in chunk_ranges(len, grain) {
            acc = fold(acc, map(r));
        }
        return acc;
    }
    let mut per_worker: Vec<Vec<A>> = Vec::with_capacity(workers);
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for run in worker_runs(chunks, workers) {
            let mref = &map;
            handles.push(scope.spawn(move || {
                run.map(|c| mref((c * grain)..((c + 1) * grain).min(len)))
                    .collect::<Vec<A>>()
            }));
        }
        for h in handles {
            per_worker.push(join(h));
        }
    });
    let mut acc = init;
    for a in per_worker.into_iter().flatten() {
        acc = fold(acc, a);
    }
    acc
}

/// Maps every item of `items` through `f` on a work queue, returning
/// results in item order (slot `i` always holds `f(i, &items[i])`):
/// workers claim items one at a time from an atomic next-item counter
/// instead of taking fixed contiguous runs, then results are
/// reassembled in item order.
///
/// This is the right shape when per-item cost varies wildly (the serve
/// scheduler's cache misses: one cold job may take tens of milliseconds
/// while the rest take one) — a straggler item no longer delays claims
/// of the items after it. The *claim order* is scheduling-dependent,
/// but each result is keyed by its item index and sorted before
/// returning, so as long as `f` is a pure function of `(i, &items[i])`
/// the output is identical to the serial `items.iter().map(...)` pass
/// — which is exactly what runs below the `cutoff` or with one worker.
pub fn par_map_queue<T, R, F>(items: &[T], cutoff: Cutoff, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = launch_workers(n, n, cutoff);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut per_worker: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let fref = &f;
            let nref = &next;
            handles.push(scope.spawn(move || {
                let mut got = Vec::new();
                loop {
                    let i = nref.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    got.push((i, fref(i, &items[i])));
                }
                got
            }));
        }
        for h in handles {
            per_worker.push(join(h));
        }
    });
    let mut all: Vec<(usize, R)> = per_worker.into_iter().flatten().collect();
    all.sort_by_key(|&(i, _)| i);
    all.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serialises tests that mutate the process-wide thread override.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    fn with_override<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_thread_override(Some(n));
        let out = f();
        set_thread_override(None);
        out
    }

    #[test]
    fn resolve_threads_parses_and_clamps() {
        assert_eq!(resolve_threads(None, 8), 8);
        assert_eq!(resolve_threads(Some("3"), 8), 3);
        assert_eq!(resolve_threads(Some(" 2 "), 8), 2);
        assert_eq!(resolve_threads(Some("0"), 8), 8, "0 means auto");
        assert_eq!(resolve_threads(Some("nope"), 8), 8);
        assert_eq!(resolve_threads(Some("9999"), 8), MAX_THREADS);
        assert_eq!(resolve_threads(None, 0), 1, "hardware floor is 1");
    }

    #[test]
    fn override_round_trips() {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_thread_override(Some(5));
        assert_eq!(thread_override(), Some(5));
        assert_eq!(threads(), 5);
        set_thread_override(None);
        assert_eq!(thread_override(), None);
    }

    #[test]
    fn override_zero_means_hardware_default() {
        // Unified with the NCS_THREADS=0 env semantics: 0 is "auto",
        // resolved against the machine, never a clamp to 1.
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_thread_override(Some(0));
        assert_eq!(thread_override(), Some(hardware_threads()));
        assert_eq!(threads(), hardware_threads());
        set_thread_override(None);
        assert_eq!(thread_override(), None);
    }

    #[test]
    fn pool_threads_caps_env_but_not_override() {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_thread_override(None);
        assert!(pool_threads() <= hardware_threads());
        // An explicit override is exact, even when oversubscribed.
        set_thread_override(Some(hardware_threads() + 3));
        assert_eq!(pool_threads(), hardware_threads() + 3);
        set_thread_override(None);
    }

    #[test]
    fn hardware_threads_is_sane() {
        let hw = hardware_threads();
        assert!((1..=MAX_THREADS).contains(&hw));
        assert_eq!(hw, hardware_threads(), "cached value is stable");
    }

    #[test]
    fn cutoff_engages_by_total_work() {
        assert!(Cutoff::NONE.engages(0), "no cutoff engages everything");
        let c = Cutoff::min_work(1000);
        assert!(!c.engages(999));
        assert!(c.engages(1000));
        let weighted = Cutoff::min_work(1000).work_per_item(250);
        assert!(!weighted.engages(3));
        assert!(weighted.engages(4));
        // A zero per-item weight clamps to 1 instead of dividing by zero.
        assert!(!Cutoff::min_work(2).work_per_item(0).engages(1));
        assert!(Cutoff::min_work(2).work_per_item(0).engages(2));
    }

    #[test]
    fn chunk_grid_covers_len_exactly() {
        for (len, grain) in [(0, 4), (1, 4), (7, 3), (12, 3), (12, 100), (5, 0)] {
            let ranges: Vec<_> = chunk_ranges(len, grain).collect();
            assert_eq!(ranges.len(), chunk_count(len, grain));
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "ranges must be ascending and disjoint");
                assert!(r.end > r.start);
                next = r.end;
            }
            assert_eq!(next, len, "ranges must cover 0..len");
        }
    }

    #[test]
    fn par_chunks_mut_matches_serial_at_any_thread_count() {
        let expect: Vec<f64> = (0..103).map(|i| (i as f64) * 2.0).collect();
        for t in [1, 2, 5] {
            let mut data: Vec<f64> = (0..103).map(|i| i as f64).collect();
            let sums = with_override(t, || {
                par_chunks_mut(&mut data, 10, Cutoff::NONE, |start, chunk| {
                    for (k, x) in chunk.iter_mut().enumerate() {
                        assert_eq!(*x, (start + k) as f64, "offsets must be global");
                        *x *= 2.0;
                    }
                    chunk.iter().sum::<f64>()
                })
            });
            assert_eq!(data, expect);
            assert_eq!(sums.len(), chunk_count(103, 10));
            let flat: f64 = sums.iter().sum();
            assert_eq!(flat, expect.iter().sum::<f64>());
        }
    }

    #[test]
    fn par_map_reduce_is_bit_identical_across_thread_counts() {
        let xs: Vec<f64> = (0..997).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let sum_at = |t: usize| {
            with_override(t, || {
                par_map_reduce(
                    xs.len(),
                    64,
                    Cutoff::NONE,
                    |r| xs[r].iter().sum::<f64>(),
                    0.0f64,
                    |acc, p| acc + p,
                )
            })
        };
        let reference = sum_at(1);
        for t in [2, 3, 7] {
            assert_eq!(sum_at(t).to_bits(), reference.to_bits());
        }
        // And the serial path is exactly the ordered chunk fold.
        let by_hand: f64 = chunk_ranges(xs.len(), 64)
            .map(|r| xs[r].iter().sum::<f64>())
            .sum();
        assert_eq!(reference.to_bits(), by_hand.to_bits());
    }

    #[test]
    fn cutoff_sides_are_bit_identical() {
        // The same launch, forced inline by a huge cutoff vs dispatched
        // with none, must agree to the bit at an oversubscribed count.
        let xs: Vec<f64> = (0..2048).map(|i| (i as f64).cos() / 3.0).collect();
        let run = |cutoff: Cutoff| {
            with_override(4, || {
                par_map_reduce(
                    xs.len(),
                    32,
                    cutoff,
                    |r| xs[r].iter().sum::<f64>(),
                    0.0f64,
                    |acc, p| acc + p,
                )
            })
        };
        let inline = run(Cutoff::min_work(usize::MAX));
        let pooled = run(Cutoff::NONE);
        assert_eq!(inline.to_bits(), pooled.to_bits());
    }

    #[test]
    fn par_map_queue_preserves_item_order() {
        // Claim order is scheduling-dependent; the output must not be.
        let items: Vec<usize> = (0..201).collect();
        let expect: Vec<(usize, usize)> = items.iter().map(|&x| (x, x * 3)).collect();
        for t in [1, 2, 4, 7] {
            let out = with_override(t, || {
                par_map_queue(&items, Cutoff::NONE, |i, &x| {
                    // Uneven per-item cost to scramble the claim order.
                    if x % 13 == 0 {
                        std::thread::yield_now();
                    }
                    (i, x * 3)
                })
            });
            assert_eq!(out, expect);
        }
        // Below the cutoff the serial pass produces the same output.
        let inline = with_override(4, || {
            par_map_queue(&items, Cutoff::min_work(usize::MAX), |i, &x| (i, x * 3))
        });
        assert_eq!(inline, expect);
    }

    #[test]
    fn launch_decisions_are_trace_visible_and_size_only() {
        // The dispatch/fallback counters must be a pure function of the
        // problem size: identical event streams at 1 and 4 threads.
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let run = |t: usize| {
            set_thread_override(Some(t));
            let ((), events) = ncs_trace::capture(|| {
                // Engages: plenty of work, no cutoff.
                par_map_reduce(
                    4096,
                    64,
                    Cutoff::NONE,
                    |r| r.len() as f64,
                    0.0f64,
                    |a, p| a + p,
                );
                // Falls back: below a huge cutoff.
                par_map_reduce(
                    4096,
                    64,
                    Cutoff::min_work(usize::MAX),
                    |r| r.len() as f64,
                    0.0f64,
                    |a, p| a + p,
                );
                // Falls back: a single chunk can't use a pool.
                let mut one = [0.0f64; 3];
                par_chunks_mut(&mut one, 8, Cutoff::NONE, |_, _| ());
            });
            set_thread_override(None);
            events
        };
        let at1 = run(1);
        let at4 = run(4);
        assert_eq!(ncs_trace::structure(&at1), ncs_trace::structure(&at4));
        let count = |events: &[ncs_trace::TraceEvent], which: &str| {
            events
                .iter()
                .filter(
                    |e| matches!(e, ncs_trace::TraceEvent::Count { name, .. } if *name == which),
                )
                .count()
        };
        assert_eq!(count(&at1, "par.pool_dispatches"), 1);
        assert_eq!(count(&at1, "par.inline_fallbacks"), 2);
    }

    #[test]
    fn shadow_checker_passes_clean_launches() {
        // A correct launch at an oversubscribed count passes its armed
        // claim-table check (a bad table panics at launch instead).
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_shadow_override(Some(true));
        set_thread_override(Some(3));
        let mut data = vec![0u32; 37];
        par_chunks_mut(&mut data, 4, Cutoff::NONE, |_, c| {
            for x in c.iter_mut() {
                *x += 1;
            }
        });
        assert!(data.iter().all(|&x| x == 1));
        set_thread_override(None);
        set_shadow_override(None);
    }

    #[test]
    fn deliberately_overlapping_chunk_claims_are_caught() {
        // The claim table a buggy worker-run split would hand to
        // par_chunks_mut: each worker's end rounds up one extra chunk,
        // so every boundary chunk gains a second writer.
        let (len, grain, workers) = (100usize, 10usize, 4usize);
        let chunks = chunk_count(len, grain);
        let buggy: Vec<Range<usize>> = (0..workers)
            .map(|w| {
                let start = w * chunks / workers * grain;
                let end = ((w + 1) * chunks / workers * grain + grain).min(len);
                start..end
            })
            .collect();
        let err = shadow::verify_claims(len, &buggy).unwrap_err();
        assert!(matches!(err, shadow::ShadowError::Overlap { .. }), "{err}");
        // The exact table the real split computes passes.
        assert_eq!(
            shadow::verify_claims(len, &worker_elem_claims(chunks, workers, grain, len)),
            Ok(())
        );
    }

    #[test]
    #[should_panic(expected = "shadow-access checker")]
    fn launch_assertion_panics_on_bad_claims() {
        shadow::check_launch("par_chunks_mut", 10, &[0..6, 4..10]);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let mut empty: [f64; 0] = [];
        assert!(par_chunks_mut(&mut empty, 4, Cutoff::NONE, |_, _| 0).is_empty());
        assert_eq!(
            par_map_reduce(0, 4, Cutoff::NONE, |_| 1.0f64, 7.0f64, |a, b| a + b).to_bits(),
            7.0f64.to_bits()
        );
        let empty_q: [u8; 0] = [];
        assert!(par_map_queue(&empty_q, Cutoff::NONE, |_, &x| x).is_empty());
    }
}
