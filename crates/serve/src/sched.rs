//! The deterministic job scheduler.
//!
//! Connection threads submit prepared jobs into a FIFO queue; a single
//! scheduler thread owns the [`StageCache`] outright (no lock contention
//! on the hot path) and drains the queue in bounded batches. Each batch
//! is processed in three deterministic phases:
//!
//! 1. **Lookup, in admission order.** Every job consults the cache;
//!    duplicate keys *within* the batch coalesce onto the first
//!    occurrence and count as hits — exactly what serial submission
//!    would have produced, so hit/miss counters are independent of how
//!    jobs happen to group into batches.
//! 2. **Compute the distinct misses** on `ncs_par::par_map_queue`
//!    (atomic claim counter, results re-sorted by index — the
//!    workspace's model for order-independent parallelism). Results are
//!    bit-deterministic because every flow stage is.
//! 3. **Insert and deliver, in admission order.** Responses are filled
//!    into per-job slots in request order regardless of completion
//!    order.
//!
//! The combination gives the service's ordering guarantee: for any
//! interleaving of concurrent clients, each job's response bytes — and
//! the global hit/miss totals over successful jobs — equal those of
//! serial submission (first occurrence of a distinct job is the one
//! miss; every other occurrence is a hit).

use std::collections::{BTreeMap, VecDeque};
use std::num::NonZeroUsize;
use std::sync::{Arc, Condvar, Mutex};

use ncs_par::par_map_queue;

use crate::cache::StageCache;
use crate::error::ServeError;
use crate::hash::Key;
use crate::job::{self, PreparedJob, Stage, StageRow};

/// How many recent requests the `stats` dump remembers.
const RECENT_LIMIT: usize = 32;

/// A write-once rendezvous slot a submitter blocks on.
#[derive(Debug)]
pub struct Slot<T> {
    inner: Arc<(Mutex<Option<T>>, Condvar)>,
}

impl<T> Clone for Slot<T> {
    fn clone(&self) -> Self {
        Slot {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Slot<T> {
    /// An empty slot.
    pub fn new() -> Self {
        Slot {
            inner: Arc::new((Mutex::new(None), Condvar::new())),
        }
    }

    /// Fills the slot and wakes every waiter.
    pub fn fill(&self, value: T) {
        let (lock, cv) = &*self.inner;
        let mut guard = lock.lock().unwrap_or_else(|e| e.into_inner());
        *guard = Some(value);
        cv.notify_all();
    }

    /// Blocks until the slot is filled, then takes the value.
    pub fn wait(&self) -> T {
        let (lock, cv) = &*self.inner;
        let mut guard = lock.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(value) = guard.take() {
                return value;
            }
            guard = cv.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A job's delivered result: shared response bytes or a failure.
pub type JobResult = Result<Arc<Vec<u8>>, ServeError>;

/// What [`job::execute`] returns for one computed miss: the raw
/// response bytes (or failure) plus the per-stage span table.
type Executed = (Result<Vec<u8>, ServeError>, Vec<StageRow>);

/// One queued operation.
enum Pending {
    Job(Box<PreparedJob>, Slot<JobResult>),
    Stats(Slot<String>),
    Clear(Slot<u64>),
}

struct QueueState {
    queue: VecDeque<Pending>,
    shutdown: bool,
}

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct SchedOptions {
    /// Max jobs admitted into one batch.
    pub batch_limit: NonZeroUsize,
    /// Cache capacity in entries.
    pub cache_capacity: usize,
    /// Capture per-request stage tables (`ncs_trace::capture` around
    /// each executed job).
    pub trace_stages: bool,
}

impl Default for SchedOptions {
    fn default() -> Self {
        SchedOptions {
            batch_limit: NonZeroUsize::new(16).unwrap_or(NonZeroUsize::MIN),
            cache_capacity: 256,
            trace_stages: false,
        }
    }
}

/// One line of the recent-request table in the `stats` dump.
#[derive(Debug, Clone)]
struct RequestRecord {
    stage: Stage,
    key: Key,
    hit: bool,
    spans: Vec<StageRow>,
}

/// Aggregate scheduler counters.
#[derive(Debug, Clone, Copy, Default)]
struct SchedCounters {
    jobs: u64,
    batches: u64,
    max_batch: usize,
}

/// The scheduler-thread-owned state: cache, counters, recent requests.
pub struct SchedulerCore {
    cache: StageCache,
    options: SchedOptions,
    counters: SchedCounters,
    recent: VecDeque<RequestRecord>,
    /// `ncs-trace` counter totals drained from this thread's sink after
    /// every batch (keeps the sink bounded under `NCS_TRACE=1`).
    trace_totals: BTreeMap<&'static str, u64>,
}

impl SchedulerCore {
    /// Fresh state for the given options.
    pub fn new(options: SchedOptions) -> Self {
        SchedulerCore {
            cache: StageCache::new(options.cache_capacity),
            options,
            counters: SchedCounters::default(),
            recent: VecDeque::new(),
            trace_totals: BTreeMap::new(),
        }
    }

    fn remember(&mut self, record: RequestRecord) {
        if self.recent.len() == RECENT_LIMIT {
            self.recent.pop_front();
        }
        self.recent.push_back(record);
    }

    /// Runs one batch: lookup / compute / deliver, as documented on the
    /// module. Public within the crate so unit tests drive batches
    /// directly without sockets.
    pub fn process_batch(&mut self, batch: Vec<(PreparedJob, Slot<JobResult>)>) {
        self.counters.batches += 1;
        self.counters.jobs += batch.len() as u64;
        self.counters.max_batch = self.counters.max_batch.max(batch.len());

        // Phase 1: admission-order lookups with within-batch coalescing.
        // `Outcome::Lead(i)` marks the first occurrence of a missing key;
        // `Follow(i)` a duplicate of lead `i` later in the same batch.
        enum Outcome {
            Hit(Arc<Vec<u8>>),
            Lead,
            Follow(usize),
        }
        let mut lead_of: BTreeMap<Key, usize> = BTreeMap::new();
        let mut outcomes = Vec::with_capacity(batch.len());
        for (i, (prepared, _)) in batch.iter().enumerate() {
            if let Some(&lead) = lead_of.get(&prepared.key) {
                // Serial submission would have hit the entry the lead
                // inserts; count it as the hit it will be.
                self.cache.note_coalesced_hit(prepared.stage);
                outcomes.push(Outcome::Follow(lead));
                continue;
            }
            match self.cache.lookup(prepared.stage, &prepared.key) {
                Some(bytes) => outcomes.push(Outcome::Hit(bytes)),
                None => {
                    lead_of.insert(prepared.key, i);
                    outcomes.push(Outcome::Lead);
                }
            }
        }

        // Phase 2: compute the distinct misses on the deterministic
        // parallel queue. Results come back indexed by position, so the
        // delivery order below is admission order no matter which worker
        // finished first.
        let miss_jobs: Vec<&PreparedJob> = outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| matches!(o, Outcome::Lead))
            .map(|(i, _)| &batch[i].0)
            .collect();
        let trace_stages = self.options.trace_stages;
        let computed: Vec<Executed> = par_map_queue(&miss_jobs, |_, prepared| {
            job::execute(prepared, trace_stages)
        });
        let mut computed_of: BTreeMap<usize, (JobResult, Vec<StageRow>)> = BTreeMap::new();
        for ((lead_index, _), (result, spans)) in outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| matches!(o, Outcome::Lead))
            .zip(computed)
        {
            computed_of.insert(lead_index, (result.map(Arc::new), spans));
        }

        // Phase 3: insert successful results and deliver in admission
        // order.
        for (lead_index, (result, _)) in &computed_of {
            if let Ok(bytes) = result {
                let prepared = &batch[*lead_index].0;
                self.cache
                    .insert(prepared.stage, prepared.key, Arc::clone(bytes));
            }
        }
        for (i, outcome) in outcomes.iter().enumerate() {
            let (prepared, slot) = &batch[i];
            let (result, hit, spans) = match outcome {
                Outcome::Hit(bytes) => (Ok(Arc::clone(bytes)), true, Vec::new()),
                Outcome::Lead => match computed_of.get(&i) {
                    Some((result, spans)) => (result.clone(), false, spans.clone()),
                    None => (Err(ServeError::ServerClosed), false, Vec::new()),
                },
                Outcome::Follow(lead) => match computed_of.get(lead) {
                    Some((result, _)) => (result.clone(), true, Vec::new()),
                    None => (Err(ServeError::ServerClosed), true, Vec::new()),
                },
            };
            self.remember(RequestRecord {
                stage: prepared.stage,
                key: prepared.key,
                hit,
                spans,
            });
            slot.fill(result);
        }

        self.drain_own_trace_sink();
    }

    /// Folds this thread's accumulated trace events into bounded
    /// per-name totals, so `NCS_TRACE=1` cannot grow the scheduler's
    /// sink without bound over a long-running daemon.
    fn drain_own_trace_sink(&mut self) {
        if !ncs_trace::enabled() {
            return;
        }
        let report = ncs_trace::TraceReport::from_events(&ncs_trace::take_events());
        for c in &report.counters {
            *self.trace_totals.entry(c.name).or_insert(0) += c.total;
        }
    }

    /// Renders the `stats` response as hand-rolled JSON.
    pub fn stats_json(&self) -> String {
        use std::fmt::Write as _;
        let s = self.cache.stats();
        let mut out = String::from("{\n  \"cache\": {");
        let _ = write!(
            out,
            "\"entries\": {}, \"capacity\": {}, \"bytes\": {}, \"stages\": {{",
            s.entries, s.capacity, s.bytes
        );
        for (i, stage) in [Stage::Gen, Stage::Map, Stage::Implement]
            .iter()
            .enumerate()
        {
            let c = s.stages[stage.index()];
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}}}",
                stage.name(),
                c.hits,
                c.misses,
                c.evictions
            );
        }
        out.push_str("}},\n  \"scheduler\": {");
        let _ = write!(
            out,
            "\"jobs\": {}, \"batches\": {}, \"max_batch\": {}",
            self.counters.jobs, self.counters.batches, self.counters.max_batch
        );
        out.push_str("},\n  \"trace_counters\": {");
        for (i, (name, total)) in self.trace_totals.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {total}");
        }
        out.push_str("},\n  \"recent\": [");
        for (i, r) in self.recent.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"stage\": \"{}\", \"key\": \"{}\", \"hit\": {}, \"spans\": [",
                r.stage.name(),
                r.key.to_hex(),
                r.hit
            );
            for (j, row) in r.spans.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}}}",
                    row.name, row.count, row.total_ns
                );
            }
            out.push_str("]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Drops every cache entry, returning the count.
    pub fn clear_cache(&mut self) -> u64 {
        self.cache.clear() as u64
    }
}

/// Shared handle connection threads use to submit work.
pub struct Scheduler {
    state: Mutex<QueueState>,
    cv: Condvar,
    options: SchedOptions,
}

impl Scheduler {
    /// A new scheduler handle (the processing loop is driven separately
    /// via [`Scheduler::run`]).
    pub fn new(options: SchedOptions) -> Self {
        Scheduler {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            options,
        }
    }

    /// The configured options.
    pub fn options(&self) -> &SchedOptions {
        &self.options
    }

    fn enqueue(&self, op: Pending) -> bool {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.shutdown {
            return false;
        }
        state.queue.push_back(op);
        self.cv.notify_all();
        true
    }

    /// Submits a job; blocks until the scheduler delivers its result.
    pub fn run_job(&self, job: PreparedJob) -> JobResult {
        let slot = Slot::new();
        if !self.enqueue(Pending::Job(Box::new(job), slot.clone())) {
            return Err(ServeError::ServerClosed);
        }
        slot.wait()
    }

    /// Requests the stats dump.
    ///
    /// # Errors
    ///
    /// [`ServeError::ServerClosed`] when the scheduler has shut down.
    pub fn stats(&self) -> Result<String, ServeError> {
        let slot = Slot::new();
        if !self.enqueue(Pending::Stats(slot.clone())) {
            return Err(ServeError::ServerClosed);
        }
        Ok(slot.wait())
    }

    /// Clears the cache, returning how many entries were dropped.
    ///
    /// # Errors
    ///
    /// [`ServeError::ServerClosed`] when the scheduler has shut down.
    pub fn clear_cache(&self) -> Result<u64, ServeError> {
        let slot = Slot::new();
        if !self.enqueue(Pending::Clear(slot.clone())) {
            return Err(ServeError::ServerClosed);
        }
        Ok(slot.wait())
    }

    /// Signals shutdown and wakes the processing loop.
    pub fn shutdown(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.shutdown = true;
        self.cv.notify_all();
    }

    /// The scheduler loop: drains operations until shutdown, batching
    /// contiguous runs of jobs up to `batch_limit`. Control operations
    /// (stats, clear) are barriers — they observe every effect of the
    /// jobs admitted before them. On shutdown, every queued job is
    /// answered with [`ServeError::ServerClosed`] rather than dropped.
    pub fn run(&self, core: &mut SchedulerCore) {
        loop {
            let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            while state.queue.is_empty() && !state.shutdown {
                state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
            }
            if state.shutdown {
                let drained: Vec<Pending> = state.queue.drain(..).collect();
                drop(state);
                for op in drained {
                    match op {
                        Pending::Job(_, slot) => slot.fill(Err(ServeError::ServerClosed)),
                        Pending::Stats(slot) => slot.fill(core.stats_json()),
                        Pending::Clear(slot) => slot.fill(core.clear_cache()),
                    }
                }
                return;
            }
            // Drain one batch: either a contiguous run of jobs (bounded
            // by batch_limit) or a single leading control operation.
            let mut batch = Vec::new();
            let mut control = None;
            while batch.len() < self.options.batch_limit.get() {
                match state.queue.front() {
                    Some(Pending::Job(..)) => {
                        if let Some(Pending::Job(job, slot)) = state.queue.pop_front() {
                            batch.push((*job, slot));
                        }
                    }
                    Some(_) if batch.is_empty() => {
                        control = state.queue.pop_front();
                        break;
                    }
                    _ => break,
                }
            }
            drop(state);
            match control {
                Some(Pending::Stats(slot)) => slot.fill(core.stats_json()),
                Some(Pending::Clear(slot)) => slot.fill(core.clear_cache()),
                Some(Pending::Job(..)) | None => {}
            }
            if !batch.is_empty() {
                core.process_batch(batch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{MapSpec, Request};

    const NET: &[u8] = b"neurons 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n0 3\n";
    const NET_DENSE: &[u8] = b"neurons 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n4 5\n5 0\n";

    fn map_job(seed: u64) -> PreparedJob {
        map_job_on(NET, seed)
    }

    fn map_job_on(net: &[u8], seed: u64) -> PreparedJob {
        job::prepare(&Request::Map(MapSpec {
            net: net.to_vec(),
            seed,
            max_size: 16,
        }))
        .expect("prepare")
    }

    type PreparedBatch = (Vec<(PreparedJob, Slot<JobResult>)>, Vec<Slot<JobResult>>);

    fn batch_of(jobs: Vec<PreparedJob>) -> PreparedBatch {
        let slots: Vec<Slot<JobResult>> = jobs.iter().map(|_| Slot::new()).collect();
        let batch = jobs.into_iter().zip(slots.iter().cloned()).collect();
        (batch, slots)
    }

    #[test]
    fn within_batch_duplicates_coalesce_into_one_miss() {
        let mut core = SchedulerCore::new(SchedOptions::default());
        let (batch, slots) = batch_of(vec![map_job(1), map_job(1), map_job_on(NET_DENSE, 1)]);
        core.process_batch(batch);
        let a = slots[0].wait().expect("job runs");
        let b = slots[1].wait().expect("job runs");
        let c = slots[2].wait().expect("job runs");
        assert_eq!(a, b, "duplicates share the computed bytes");
        assert_ne!(a, c, "different networks differ");
        let s = core.cache_stats();
        assert_eq!(s.stages[Stage::Map.index()].misses, 2, "two distinct jobs");
        assert_eq!(
            s.stages[Stage::Map.index()].hits,
            1,
            "one coalesced duplicate"
        );
    }

    #[test]
    fn across_batch_repeats_are_hits_with_identical_bytes() {
        let mut core = SchedulerCore::new(SchedOptions::default());
        let (batch, slots) = batch_of(vec![map_job(5)]);
        core.process_batch(batch);
        let cold = slots[0].wait().expect("job runs");
        let (batch, slots) = batch_of(vec![map_job(5)]);
        core.process_batch(batch);
        let warm = slots[0].wait().expect("job runs");
        assert_eq!(cold, warm, "warm bytes replay the cold bytes exactly");
        let s = core.cache_stats();
        assert_eq!(s.stages[Stage::Map.index()].misses, 1);
        assert_eq!(s.stages[Stage::Map.index()].hits, 1);
    }

    #[test]
    fn stats_json_names_every_section() {
        let mut core = SchedulerCore::new(SchedOptions::default());
        let (batch, slots) = batch_of(vec![map_job(1)]);
        core.process_batch(batch);
        slots[0].wait().expect("job runs");
        let json = core.stats_json();
        for needle in [
            "\"cache\"",
            "\"scheduler\"",
            "\"trace_counters\"",
            "\"recent\"",
            "\"stage\": \"map\"",
            "\"hit\": false",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn a_batch_limit_of_one_admits_a_job() {
        let sched = Scheduler::new(SchedOptions {
            batch_limit: NonZeroUsize::MIN,
            ..SchedOptions::default()
        });
        let mut core = SchedulerCore::new(sched.options().clone());
        let result = std::thread::scope(|s| {
            s.spawn(|| sched.run(&mut core));
            let result = sched.run_job(map_job(1));
            sched.shutdown();
            result
        });
        assert!(result.is_ok(), "the job runs: {result:?}");
        assert_eq!(core.counters.jobs, 1);
        assert_eq!(core.counters.max_batch, 1);
    }

    #[test]
    fn scheduler_rejects_work_after_shutdown() {
        let sched = Scheduler::new(SchedOptions::default());
        sched.shutdown();
        assert_eq!(
            sched.run_job(map_job(1)).unwrap_err(),
            ServeError::ServerClosed
        );
        assert_eq!(sched.stats().unwrap_err(), ServeError::ServerClosed);
        assert_eq!(sched.clear_cache().unwrap_err(), ServeError::ServerClosed);
    }

    impl SchedulerCore {
        fn cache_stats(&self) -> crate::cache::CacheStats {
            self.cache.stats()
        }
    }
}
