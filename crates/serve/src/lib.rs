//! `ncs-serve` — the AutoNCS flow as a long-running batched service.
//!
//! The EDA flow reproduced in this workspace (gen → cluster/map →
//! place/route) is a pure function of `(input, options, seed)`, which
//! makes it an ideal memoization target. This crate turns the batch
//! flow into a daemon:
//!
//! - **Protocol** ([`proto`]): length-prefixed binary frames over TCP,
//!   hand-rolled and `std`-only. Malformed input yields structured
//!   error frames or a clean close — never a panic or a hang.
//! - **Scheduler** ([`sched`]): FIFO admission into bounded batches,
//!   distinct misses computed on `ncs_par::par_map_queue` (the
//!   workspace's only parallel compute: the flow itself is serial),
//!   results delivered in request order. Hit/miss accounting is
//!   independent of batch boundaries and thread count.
//! - **Cache** ([`cache`]): in-memory content-addressed store keyed by
//!   a stable 128-bit hash ([`hash`]) of the canonicalized input, the
//!   seed and the size limit ([`job`]), with deterministic
//!   LRU eviction and per-stage hit/miss/eviction counters mirrored to
//!   `ncs-trace`.
//! - **Server/client** ([`server`], [`client`]): the accept/handler
//!   thread plumbing and a small blocking client shared by the CLI,
//!   the bench harness and the integration tests.
//!
//! Because every stage is bit-deterministic (PRs 1–8), a warm cache
//! entry is byte-identical to a fresh run — the service-level test
//! suite asserts exactly that, and `bench serve` records the cold/warm
//! latency gap it buys.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod error;
pub mod hash;
pub mod job;
pub mod proto;
pub mod sched;
pub mod server;

pub use cache::{CacheStats, StageCache, StageCounters};
pub use client::ServeClient;
pub use error::ServeError;
pub use hash::{fnv64, Key, StableHasher};
pub use job::{PreparedJob, Stage};
pub use proto::{GenKind, GenSpec, MapSpec, ProtoError, Request, Response};
pub use sched::{SchedOptions, Scheduler, SchedulerCore};
pub use server::{ServeOptions, Server};
