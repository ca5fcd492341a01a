//! Job preparation, cache-key derivation and execution.
//!
//! A request becomes a [`PreparedJob`] on the connection thread:
//! the network is parsed and *canonicalized* (re-serialized through
//! `ncs_net::io::write_edge_list`, whose output order is deterministic),
//! the flow options are derived exactly as the `autoncs` CLI derives
//! them, and the 128-bit cache [`Key`] is computed over
//!
//! ```text
//! (version, stage tag, canonical input bytes, seed, max_size)
//! ```
//!
//! so two textually different encodings of the same network — comment
//! lines, edge order, whitespace — share one cache entry, while any
//! change to the seed, the size limit or the connectivity produces a
//! different key. The flow options are a pure function of
//! `(seed, max_size)` ([`FlowConfig::derive`]) and the cache lives inside
//! one process, so the key needs no separate options field. Execution then runs the pure flow stage and encodes
//! the result into canonical response bytes (every float as `to_bits()`),
//! which is what the cache stores and what warm responses replay
//! byte-for-byte.

use ncs_cluster::{CrossbarSizeSet, Isc, IscOptions, IscTrace};
use ncs_net::{generators, io as netio, ConnectionMatrix};
use ncs_phys::{implement_mapping, ImplementOptions, PhysicalDesign};
use ncs_tech::TechnologyModel;

use crate::error::ServeError;
use crate::hash::{Key, StableHasher};
use crate::proto::{self, GenKind, GenSpec, MapSpec, Request};

/// Version of the canonical encodings: the byte after the `NCSM`/`NCSI`
/// magic of every encoded result, also hashed first into every cache
/// key. Bump it when an encoding changes.
pub const CACHE_KEY_VERSION: u8 = 1;

/// The flow stages the service caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Synthetic-network generation.
    Gen,
    /// ISC clustering to a hybrid mapping.
    Map,
    /// The full flow through placement/routing/cost.
    Implement,
}

impl Stage {
    /// Number of stages (sizes the per-stage counter arrays).
    pub const COUNT: usize = 3;

    /// Dense index for counter arrays.
    pub fn index(self) -> usize {
        match self {
            Stage::Gen => 0,
            Stage::Map => 1,
            Stage::Implement => 2,
        }
    }

    /// Tag byte hashed into the cache key.
    pub fn tag(self) -> u8 {
        match self {
            Stage::Gen => 1,
            Stage::Map => 2,
            Stage::Implement => 3,
        }
    }

    /// Stable name for stats dumps.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Gen => "gen",
            Stage::Map => "map",
            Stage::Implement => "implement",
        }
    }

    /// `ncs-trace` counter bumped on a cache hit.
    pub fn hit_counter(self) -> &'static str {
        match self {
            Stage::Gen => "serve.cache.hit.gen",
            Stage::Map => "serve.cache.hit.map",
            Stage::Implement => "serve.cache.hit.implement",
        }
    }

    /// `ncs-trace` counter bumped on a cache miss.
    pub fn miss_counter(self) -> &'static str {
        match self {
            Stage::Gen => "serve.cache.miss.gen",
            Stage::Map => "serve.cache.miss.map",
            Stage::Implement => "serve.cache.miss.implement",
        }
    }

    /// `ncs-trace` counter bumped when an entry of this stage is evicted.
    pub fn evict_counter(self) -> &'static str {
        match self {
            Stage::Gen => "serve.cache.evict.gen",
            Stage::Map => "serve.cache.evict.map",
            Stage::Implement => "serve.cache.evict.implement",
        }
    }
}

/// Flow configuration derived from the two request knobs, mirroring
/// the `autoncs` CLI's `framework()` exactly: same size set, same
/// defaults, same technology model. Both knobs are in the cache key, so
/// the configuration they derive needs no key field of its own.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// ISC clustering options.
    pub isc: IscOptions,
    /// Placement/routing/cost options.
    pub implement: ImplementOptions,
    /// Technology model.
    pub tech: TechnologyModel,
}

impl FlowConfig {
    /// Builds the configuration for `(seed, max_size)`: ISC over the
    /// crossbar sizes 16, 20, …, `max_size`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Cluster`] with [`ncs_cluster::ClusterError::InvalidSizeLimit`]
    /// unless `max_size` is one of the paper's sizes 16, 20, …, 64.
    pub fn derive(seed: u64, max_size: u32) -> Result<Self, ServeError> {
        let sizes = CrossbarSizeSet::paper_up_to(max_size as usize)?;
        Ok(FlowConfig {
            isc: IscOptions {
                sizes,
                seed,
                ..IscOptions::default()
            },
            implement: ImplementOptions::default(),
            tech: TechnologyModel::nm45(),
        })
    }
}

/// The input of a prepared job.
#[derive(Debug, Clone)]
enum Payload {
    Gen(GenSpec),
    Flow {
        net: ConnectionMatrix,
        config: Box<FlowConfig>,
    },
}

/// A request parsed, canonicalized and keyed — ready for the scheduler.
#[derive(Debug, Clone)]
pub struct PreparedJob {
    /// Which stage this job runs.
    pub stage: Stage,
    /// Content-addressed cache key.
    pub key: Key,
    payload: Payload,
}

/// One row of the per-request stage table (a span aggregate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRow {
    /// Span name (e.g. `flow.map`).
    pub name: &'static str,
    /// Times the span opened during this job.
    pub count: u64,
    /// Total nanoseconds across all opens (wall-clock; informational).
    pub total_ns: u128,
}

/// Canonicalizes an edge-list byte string: parse, then re-serialize.
///
/// # Errors
///
/// [`ServeError::Parse`] when the bytes are not a valid edge list.
pub fn canonicalize_net(bytes: &[u8]) -> Result<(ConnectionMatrix, Vec<u8>), ServeError> {
    let net = netio::read_edge_list(bytes).map_err(|e| ServeError::Parse {
        message: e.to_string(),
    })?;
    let mut canonical = Vec::new();
    netio::write_edge_list(&net, &mut canonical).map_err(|e| ServeError::io("canonicalize", &e))?;
    Ok((net, canonical))
}

fn gen_key(spec: &GenSpec) -> Key {
    let mut h = StableHasher::new();
    h.write_u8(CACHE_KEY_VERSION);
    h.write_u8(Stage::Gen.tag());
    h.write_bytes(spec.kind.name().as_bytes());
    h.write_u32(spec.neurons);
    h.write_u32(spec.clusters);
    h.write_u64(spec.density.to_bits());
    h.write_u64(spec.seed);
    h.finish()
}

fn flow_key(stage: Stage, spec: &MapSpec, canonical: &[u8]) -> Key {
    let mut h = StableHasher::new();
    h.write_u8(CACHE_KEY_VERSION);
    h.write_u8(stage.tag());
    h.write_bytes(canonical);
    h.write_u64(spec.seed);
    h.write_u32(spec.max_size);
    h.finish()
}

/// Prepares a job request: parse, canonicalize, derive options, key.
///
/// # Errors
///
/// [`ServeError::Parse`] for unparsable networks and
/// [`ServeError::Cluster`] for invalid derived options. `Stats` and
/// `ClearCache` are control requests, not jobs — passing one here is a
/// protocol violation reported as [`ServeError::Protocol`].
pub fn prepare(req: &Request) -> Result<PreparedJob, ServeError> {
    match req {
        Request::Gen(spec) => Ok(PreparedJob {
            stage: Stage::Gen,
            key: gen_key(spec),
            payload: Payload::Gen(spec.clone()),
        }),
        Request::Map(spec) | Request::Implement(spec) => {
            let stage = if matches!(req, Request::Map(_)) {
                Stage::Map
            } else {
                Stage::Implement
            };
            let (net, canonical) = canonicalize_net(&spec.net)?;
            let config = FlowConfig::derive(spec.seed, spec.max_size)?;
            let key = flow_key(stage, spec, &canonical);
            Ok(PreparedJob {
                stage,
                key,
                payload: Payload::Flow {
                    net,
                    config: Box::new(config),
                },
            })
        }
        Request::Stats | Request::ClearCache => {
            Err(ServeError::Protocol(crate::proto::ProtoError::BadBody {
                tag: 0,
                reason: "control request submitted as a job".into(),
            }))
        }
    }
}

fn run_gen(spec: &GenSpec) -> Result<Vec<u8>, ServeError> {
    let neurons = spec.neurons as usize;
    let net = match spec.kind {
        GenKind::Random => generators::uniform_random(neurons, spec.density, spec.seed)?,
        GenKind::Clusters => {
            generators::planted_clusters(
                neurons,
                spec.clusters as usize,
                spec.density,
                0.01,
                spec.seed,
            )?
            .0
        }
        GenKind::Ldpc => {
            let checks = neurons / 3;
            generators::ldpc_like(neurons.saturating_sub(checks), checks, 4, spec.seed)?
        }
    };
    let mut out = Vec::new();
    netio::write_edge_list(&net, &mut out).map_err(|e| ServeError::io("encode net", &e))?;
    Ok(out)
}

fn run_flow(
    implement: bool,
    net: &ConnectionMatrix,
    config: &FlowConfig,
) -> Result<Vec<u8>, ServeError> {
    let _span = ncs_trace::span("serve.job");
    let (mapping, trace) = {
        let _span = ncs_trace::span("flow.map");
        Isc::new(config.isc.clone()).run_traced(net)?
    };
    if implement {
        let design = {
            let _span = ncs_trace::span("flow.implement");
            implement_mapping(&mapping, &config.tech, &config.implement)?
        };
        Ok(encode_design(&design))
    } else {
        Ok(encode_mapping(&mapping, &trace))
    }
}

/// Executes a prepared job, returning the canonical response bytes and
/// (when `trace_stages` is on) the per-request stage table captured via
/// `ncs_trace::capture` on the executing thread.
///
/// # Errors
///
/// Propagates generator/clustering/physical-design failures.
pub fn execute(
    job: &PreparedJob,
    trace_stages: bool,
) -> (Result<Vec<u8>, ServeError>, Vec<StageRow>) {
    let run = || match &job.payload {
        Payload::Gen(spec) => run_gen(spec),
        Payload::Flow { net, config } => run_flow(job.stage == Stage::Implement, net, config),
    };
    if trace_stages {
        let (result, events) = ncs_trace::capture(run);
        let report = ncs_trace::TraceReport::from_events(&events);
        let rows = report
            .spans
            .iter()
            .map(|s| StageRow {
                name: s.name,
                count: s.count,
                total_ns: s.total_ns,
            })
            .collect();
        (result, rows)
    } else {
        (run(), Vec::new())
    }
}

// -------------------------------------------- canonical result encoding

fn put_usize(out: &mut Vec<u8>, v: usize) {
    proto::put_u64(out, v as u64);
}

fn put_index_list(out: &mut Vec<u8>, xs: &[usize]) {
    proto::put_u32(out, xs.len() as u32);
    for &x in xs {
        proto::put_u32(out, x as u32);
    }
}

fn put_pair_list(out: &mut Vec<u8>, xs: &[(usize, usize)]) {
    proto::put_u32(out, xs.len() as u32);
    for &(a, b) in xs {
        proto::put_u32(out, a as u32);
        proto::put_u32(out, b as u32);
    }
}

/// Canonical byte encoding of a mapping plus its ISC trace. Magic
/// `NCSM`, version byte, then fixed-order fields with every float as
/// its exact bit pattern — byte-identical across runs, platforms and
/// thread counts (the flow itself is bit-deterministic).
pub fn encode_mapping(mapping: &ncs_cluster::HybridMapping, trace: &IscTrace) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"NCSM");
    out.push(CACHE_KEY_VERSION);
    put_usize(&mut out, mapping.neurons());
    proto::put_u32(&mut out, mapping.crossbars().len() as u32);
    for xb in mapping.crossbars() {
        proto::put_u32(&mut out, xb.size as u32);
        put_index_list(&mut out, &xb.inputs);
        put_index_list(&mut out, &xb.outputs);
        put_pair_list(&mut out, &xb.connections);
    }
    put_pair_list(&mut out, mapping.outliers());
    put_usize(&mut out, mapping.realized_connections());
    let histogram = mapping.size_histogram();
    put_pair_list(&mut out, &histogram);
    proto::put_f64(&mut out, mapping.average_utilization());
    proto::put_f64(&mut out, mapping.outlier_ratio());
    proto::put_u32(&mut out, trace.iterations.len() as u32);
    for it in &trace.iterations {
        put_usize(&mut out, it.iteration);
        put_usize(&mut out, it.clusters_formed);
        put_usize(&mut out, it.clusters_selected);
        put_usize(&mut out, it.connections_removed);
        proto::put_f64(&mut out, it.outlier_ratio);
        proto::put_f64(&mut out, it.average_utilization);
        proto::put_f64(&mut out, it.average_cp);
    }
    out.push(stop_reason_tag(trace.stop_reason));
    proto::put_f64(&mut out, trace.threshold);
    out
}

fn stop_reason_tag(reason: ncs_cluster::StopReason) -> u8 {
    use ncs_cluster::StopReason as S;
    match reason {
        S::UtilizationBelowThreshold => 0,
        S::QuantileClusterTooSmall => 1,
        S::NoConnectionsLeft => 2,
        S::NothingRemoved => 3,
        S::IterationBudget => 4,
    }
}

/// Canonical byte encoding of a physical design. Magic `NCSI`, version
/// byte, cost, placement and routing summaries (full per-wire paths are
/// omitted to bound the frame; per-wire routed lengths are kept, which
/// pins the routing bit-for-bit in practice).
pub fn encode_design(design: &PhysicalDesign) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"NCSI");
    out.push(CACHE_KEY_VERSION);
    proto::put_f64(&mut out, design.cost.wirelength_um);
    proto::put_f64(&mut out, design.cost.area_um2);
    proto::put_f64(&mut out, design.cost.average_delay_ns);
    proto::put_f64(&mut out, design.cost.total());
    let p = &design.placement;
    proto::put_u32(&mut out, p.x.len() as u32);
    put_usize(&mut out, p.outer_iterations);
    proto::put_f64(&mut out, p.final_overlap_um2);
    for &x in &p.x {
        proto::put_f64(&mut out, x);
    }
    for &y in &p.y {
        proto::put_f64(&mut out, y);
    }
    let r = &design.routing;
    proto::put_f64(&mut out, r.total_wirelength_um);
    put_usize(&mut out, r.relaxations);
    proto::put_u32(&mut out, r.congestion.cols as u32);
    proto::put_u32(&mut out, r.congestion.rows as u32);
    proto::put_f64(&mut out, r.congestion.theta);
    for &u in &r.congestion.usage {
        proto::put_u32(&mut out, u as u32);
    }
    proto::put_u32(&mut out, r.routed.len() as u32);
    for wire in &r.routed {
        proto::put_f64(&mut out, wire.length_um);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const NET: &[u8] = b"neurons 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n0 3\n";
    /// Same network, edges permuted plus a comment line.
    const NET_SHUFFLED: &[u8] = b"# same net\nneurons 6\n5 0\n0 1\n2 3\n1 2\n4 5\n3 4\n0 3\n";

    fn map_req(net: &[u8], seed: u64, max_size: u32) -> Request {
        Request::Map(MapSpec {
            net: net.to_vec(),
            seed,
            max_size,
        })
    }

    #[test]
    fn canonicalization_makes_equivalent_encodings_share_a_key() {
        let a = prepare(&map_req(NET, 42, 32)).expect("prepare");
        let b = prepare(&map_req(NET_SHUFFLED, 42, 32)).expect("prepare");
        assert_eq!(
            a.key, b.key,
            "edge order and comments must not split the cache"
        );
    }

    #[test]
    fn seed_options_stage_and_input_all_perturb_the_key() {
        let base = prepare(&map_req(NET, 42, 32)).expect("prepare").key;
        assert_ne!(base, prepare(&map_req(NET, 43, 32)).expect("prepare").key);
        assert_ne!(base, prepare(&map_req(NET, 42, 36)).expect("prepare").key);
        let implement = prepare(&Request::Implement(MapSpec {
            net: NET.to_vec(),
            seed: 42,
            max_size: 32,
        }))
        .expect("prepare");
        assert_ne!(
            base, implement.key,
            "stage tag separates map from implement"
        );
        let other = prepare(&map_req(b"neurons 6\n0 1\n", 42, 32)).expect("prepare");
        assert_ne!(base, other.key);
    }

    #[test]
    fn gen_keys_depend_on_every_parameter() {
        let spec = GenSpec {
            kind: GenKind::Clusters,
            neurons: 64,
            clusters: 4,
            density: 0.4,
            seed: 42,
        };
        let base = prepare(&Request::Gen(spec.clone())).expect("prepare").key;
        for (label, varied) in [
            (
                "kind",
                GenSpec {
                    kind: GenKind::Random,
                    ..spec.clone()
                },
            ),
            (
                "neurons",
                GenSpec {
                    neurons: 65,
                    ..spec.clone()
                },
            ),
            (
                "clusters",
                GenSpec {
                    clusters: 5,
                    ..spec.clone()
                },
            ),
            (
                "density",
                GenSpec {
                    density: 0.5,
                    ..spec.clone()
                },
            ),
            (
                "seed",
                GenSpec {
                    seed: 43,
                    ..spec.clone()
                },
            ),
        ] {
            let key = prepare(&Request::Gen(varied)).expect("prepare").key;
            assert_ne!(base, key, "{label} must perturb the key");
        }
    }

    #[test]
    fn bad_networks_surface_as_parse_errors() {
        let err = prepare(&map_req(b"not a net\n", 42, 32)).unwrap_err();
        assert!(matches!(err, ServeError::Parse { .. }), "{err:?}");
    }

    #[test]
    fn execute_is_bit_deterministic_per_job() {
        let job = prepare(&map_req(NET, 42, 16)).expect("prepare");
        let (a, table_a) = execute(&job, false);
        let (b, _) = execute(&job, false);
        let bytes_a = a.expect("map runs");
        assert_eq!(bytes_a, b.expect("map runs"), "same job, same bytes");
        assert!(bytes_a.starts_with(b"NCSM"));
        assert!(table_a.is_empty(), "no stage table without tracing");
        let (c, table_c) = execute(&job, true);
        assert_eq!(
            bytes_a,
            c.expect("map runs"),
            "tracing must not change results"
        );
        assert!(
            table_c.iter().any(|row| row.name == "flow.map"),
            "stage table captures the map span: {table_c:?}"
        );
    }

    #[test]
    fn gen_execution_round_trips_through_the_parser() {
        let job = prepare(&Request::Gen(GenSpec {
            kind: GenKind::Random,
            neurons: 24,
            clusters: 0,
            density: 0.1,
            seed: 7,
        }))
        .expect("prepare");
        let (bytes, _) = execute(&job, false);
        let bytes = bytes.expect("gen runs");
        let (_, canonical) = canonicalize_net(&bytes).expect("output parses");
        assert_eq!(bytes, canonical, "gen output is already canonical");
    }
}
