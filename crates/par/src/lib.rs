//! Thread-count resolution and the serve scheduler's work queue.
//!
//! The AutoNCS flow is serial: clustering, placement and routing run on
//! the calling thread and never read the thread count. This crate keeps
//! the one parallel launch that pays, [`par_map_queue`], which computes
//! a batch of the serve scheduler's cache misses, and the resolution of
//! how many workers it may spawn.
//!
//! There is no persistent thread pool: a launch that engages spawns its
//! workers with [`std::thread::scope`] and joins them before it returns.
//! Workers never wait on one another; each claims items from one atomic
//! counter, and results are reassembled in item order, so the output is
//! the serial pass's at any thread count.
//!
//! # Thread-count resolution
//!
//! The *requested* count, [`threads`], resolves in priority order:
//!
//! 1. an in-process override installed with [`set_thread_override`]
//!    (used by tests — no racy env mutation),
//! 2. the `NCS_THREADS` environment variable (read once per process;
//!    `0` or unparseable values fall back to the hardware default),
//! 3. [`std::thread::available_parallelism`].
//!
//! `0` uniformly means "hardware default" for both the environment
//! variable and the override. The count a launch actually spawns,
//! [`pool_threads`], additionally caps environment-resolved requests at
//! [`hardware_threads`]: the workers are CPU-bound, so oversubscribing a
//! core only adds spawn and context-switch cost. An explicit override is
//! exempt from the cap so tests can still force genuinely
//! oversubscribed launches.
//!
//! # Example
//!
//! ```
//! // Results come back in item order, whichever worker computed them.
//! let items: Vec<u64> = (0..100).collect();
//! let squares = ncs_par::par_map_queue(&items, |_, &x| x * x);
//! assert_eq!(squares, items.iter().map(|&x| x * x).collect::<Vec<_>>());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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
/// spawn and context-switch cost for no extra throughput. Overrides
/// bypass the cap so tests can force real oversubscribed launches.
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
/// Tests use this to compare thread counts within one process.
/// `Some(0)` means "hardware default", matching the `NCS_THREADS=0`
/// environment semantics, and is resolved to [`hardware_threads`] at
/// install time (so [`thread_override`] reports the resolved count).
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

/// Joins a scoped worker, propagating any panic to the caller.
fn join<R>(handle: thread::ScopedJoinHandle<'_, R>) -> R {
    match handle.join() {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    }
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
/// — which is exactly what runs for zero or one item, or with one
/// worker.
pub fn par_map_queue<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = if n < 2 { 1 } else { pool_threads().min(n) };
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
    fn par_map_queue_preserves_item_order() {
        // Claim order is scheduling-dependent; the output must not be.
        let items: Vec<usize> = (0..201).collect();
        let expect: Vec<(usize, usize)> = items.iter().map(|&x| (x, x * 3)).collect();
        for t in [1, 2, 4, 7] {
            let out = with_override(t, || {
                par_map_queue(&items, |i, &x| {
                    // Uneven per-item cost to scramble the claim order.
                    if x % 13 == 0 {
                        std::thread::yield_now();
                    }
                    (i, x * 3)
                })
            });
            assert_eq!(out, expect);
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let empty: [u8; 0] = [];
        let out = with_override(4, || par_map_queue(&empty, |_, &x| x));
        assert!(out.is_empty());
    }
}
