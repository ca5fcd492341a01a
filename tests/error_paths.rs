//! Error-path depth: every `ClusterError`, `PhysError` and `FlowError`
//! variant, and `NetError::TooLarge`, is triggered through a public entry
//! point, and its Display text and `source()` chain are pinned. Error
//! messages are part of the user-facing contract — CLI users and flow
//! callers match on them — so a rewording shows up here rather than in a
//! downstream report.

use std::error::Error as _;

use autoncs::{AutoNcs, FlowError};
use ncs_cluster::{
    full_crossbar, gcp, kmeans, msc, traversing, ClusterError, CrossbarSizeSet, Isc, IscOptions,
};
use ncs_linalg::{DenseMatrix, LinalgError};
use ncs_net::{generators, ConnectionMatrix, NetError};
use ncs_phys::{
    place, route, ImplementOptions, Netlist, PhysError, PlacerOptions, RouterOptions, Wire,
};
use ncs_serve::proto::code as serve_code;
use ncs_serve::{MapSpec, ProtoError, Request as ServeRequest, ServeError};
use ncs_tech::TechnologyModel;

const SEED: u64 = 42;

fn points(n: usize) -> DenseMatrix {
    let data: Vec<f64> = (0..n * 2).map(|i| (i as f64 * 0.37).sin()).collect();
    DenseMatrix::from_vec(n, 2, data).expect("consistent dims")
}

// ---------------------------------------------------------------- cluster

#[test]
fn cluster_invalid_cluster_count_from_kmeans_and_msc() {
    let e = kmeans(&points(3), 0, SEED, 10).unwrap_err();
    assert_eq!(e, ClusterError::InvalidClusterCount { k: 0, points: 3 });
    assert_eq!(e.to_string(), "cluster count 0 invalid for 3 points");
    assert!(e.source().is_none());

    let e = kmeans(&points(3), 7, SEED, 10).unwrap_err();
    assert_eq!(e.to_string(), "cluster count 7 invalid for 3 points");

    let net = generators::uniform_random(10, 0.2, SEED).expect("valid generator");
    let e = msc(&net, 11, SEED).unwrap_err();
    assert_eq!(e, ClusterError::InvalidClusterCount { k: 11, points: 10 });
}

#[test]
fn cluster_empty_size_set_from_constructor() {
    let e = CrossbarSizeSet::new(std::iter::empty()).unwrap_err();
    assert_eq!(e, ClusterError::EmptySizeSet);
    assert_eq!(e.to_string(), "crossbar size set is empty");
    assert!(e.source().is_none());
}

#[test]
fn cluster_invalid_size_limit_from_every_front_end() {
    let net = generators::uniform_random(12, 0.2, SEED).expect("valid generator");
    for e in [
        full_crossbar(&net, 0).unwrap_err(),
        traversing(&net, 0, SEED).unwrap_err(),
        gcp(&net, 0, SEED).unwrap_err(),
    ] {
        assert_eq!(e, ClusterError::InvalidSizeLimit { limit: 0 });
        assert_eq!(e.to_string(), "cluster size limit 0 must be at least 1");
        assert!(e.source().is_none());
    }
}

#[test]
fn cluster_invalid_threshold_from_isc_options() {
    let net = generators::uniform_random(12, 0.2, SEED).expect("valid generator");
    let e = Isc::new(IscOptions {
        selection_quantile: 2.0,
        ..IscOptions::default()
    })
    .run(&net)
    .unwrap_err();
    assert_eq!(e, ClusterError::InvalidThreshold { value: 2.0 });
    assert_eq!(e.to_string(), "utilization threshold 2 must lie in [0, 1]");

    let e = Isc::new(IscOptions {
        utilization_threshold: Some(-0.5),
        ..IscOptions::default()
    })
    .run(&net)
    .unwrap_err();
    assert_eq!(e, ClusterError::InvalidThreshold { value: -0.5 });
    assert_eq!(
        e.to_string(),
        "utilization threshold -0.5 must lie in [0, 1]"
    );
}

#[test]
fn cluster_linalg_and_net_wrappers_keep_their_sources() {
    let e: ClusterError = LinalgError::Empty.into();
    assert!(e.to_string().starts_with("linear algebra failure: "));
    let source = e.source().expect("Linalg carries a source");
    assert_eq!(source.to_string(), LinalgError::Empty.to_string());

    let inner = NetError::EmptyRequest { what: "network" };
    let e: ClusterError = inner.clone().into();
    assert!(e.to_string().starts_with("network failure: "));
    let source = e.source().expect("Net carries a source");
    assert_eq!(source.to_string(), inner.to_string());
}

#[test]
fn cluster_traversing_budget_is_a_defensive_guard() {
    // `traversing` documents that the budget cannot be exceeded for
    // `limit >= 1` — the scan's final `k = n` always yields singletons.
    // Pin both halves of that contract: the worst-case input still
    // succeeds, and the guard variant's Display text stays stable for
    // any future entry point that can reach it.
    let net = ConnectionMatrix::from_pairs(3, [(0, 1), (0, 2)]).expect("valid edges");
    let c = traversing(&net, 1, SEED).expect("k = n singletons always fit limit 1");
    assert_eq!(c.max_cluster_size(), 1);

    let e = ClusterError::TraversingBudgetExceeded { max_k: 3 };
    assert_eq!(
        e.to_string(),
        "traversing baseline exhausted its budget at k = 3"
    );
    assert!(e.source().is_none());
}

// -------------------------------------------------------------------- net

#[test]
fn net_too_large_from_the_constructor_and_the_edge_list_parser() {
    // The n × n bitmap size overflows usize: the checked multiply rejects it.
    let e = ConnectionMatrix::empty(usize::MAX).unwrap_err();
    assert!(matches!(e, NetError::TooLarge { neurons } if neurons == usize::MAX));
    assert_eq!(
        e.to_string(),
        "cannot allocate a connection matrix for 18446744073709551615 neurons"
    );
    assert!(e.source().is_none());

    // The size fits in usize but no allocator can satisfy it: the
    // fallible reservation fails instead of aborting the process.
    let e = ncs_net::io::read_edge_list(&b"neurons 4000000000\n0 1\n"[..]).unwrap_err();
    assert_eq!(
        e.to_string(),
        "invalid network: cannot allocate a connection matrix for 4000000000 neurons"
    );
    let source = e.source().expect("ParseNetError::Net carries a source");
    assert!(source.to_string().starts_with("cannot allocate"));
}

// ------------------------------------------------------------------- phys

fn placed_small() -> (Netlist, ncs_phys::Placement) {
    let net = generators::uniform_random(20, 0.1, SEED).expect("valid generator");
    let mapping = full_crossbar(&net, 16).expect("valid size");
    let nl = Netlist::from_mapping(&mapping, &TechnologyModel::nm45());
    let p = place(&nl, &PlacerOptions::fast()).expect("placeable");
    (nl, p)
}

#[test]
fn phys_empty_netlist_from_placer() {
    let nl = Netlist {
        cells: vec![],
        wires: vec![],
    };
    let e = place(&nl, &PlacerOptions::default()).unwrap_err();
    assert_eq!(e, PhysError::EmptyNetlist);
    assert_eq!(e.to_string(), "netlist contains no cells");
    assert!(e.source().is_none());
}

#[test]
fn phys_unknown_cell_from_position_lookup() {
    let (_, p) = placed_small();
    let e = p.position(9999).unwrap_err();
    assert_eq!(e, PhysError::UnknownCell { id: 9999 });
    assert_eq!(e.to_string(), "unknown cell id 9999");
}

#[test]
fn phys_invalid_option_from_placer_and_router() {
    let (nl, p) = placed_small();
    let e = place(
        &nl,
        &PlacerOptions {
            gamma: 0.0,
            ..PlacerOptions::default()
        },
    )
    .unwrap_err();
    assert_eq!(e.to_string(), "invalid option gamma = 0");

    let e = place(
        &nl,
        &PlacerOptions {
            omega: 0.5,
            ..PlacerOptions::default()
        },
    )
    .unwrap_err();
    assert_eq!(e.to_string(), "invalid option omega = 0.5");

    let e = route(
        &nl,
        &p,
        &TechnologyModel::nm45(),
        &RouterOptions {
            theta: -1.0,
            ..RouterOptions::default()
        },
    )
    .unwrap_err();
    assert_eq!(e.to_string(), "invalid option theta = -1");
    assert!(e.source().is_none());
}

#[test]
fn phys_unroutable_when_capacity_cannot_relax() {
    let (nl, p) = placed_small();
    let e = route(
        &nl,
        &p,
        &TechnologyModel::nm45(),
        &RouterOptions {
            virtual_capacity: 0,
            max_relaxations: 0,
            ..RouterOptions::default()
        },
    )
    .unwrap_err();
    match e {
        PhysError::Unroutable {
            failed,
            relaxations,
        } => {
            assert!(failed > 0);
            assert_eq!(relaxations, 0);
            assert_eq!(
                e.to_string(),
                format!("{failed} wires unroutable after 0 capacity relaxations")
            );
        }
        other => panic!("expected Unroutable, got {other:?}"),
    }
}

#[test]
fn phys_unknown_cell_from_router_on_a_short_placement() {
    let (nl, mut p) = placed_small();
    let last = nl.cells.len() - 1;
    p.y.truncate(last);
    let e = route(&nl, &p, &TechnologyModel::nm45(), &RouterOptions::default()).unwrap_err();
    assert_eq!(e, PhysError::UnknownCell { id: last });
    p.x.truncate(last - 1);
    let e = route(&nl, &p, &TechnologyModel::nm45(), &RouterOptions::default()).unwrap_err();
    assert_eq!(e, PhysError::UnknownCell { id: last - 1 });
}

#[test]
fn phys_degenerate_wire_rejected_by_placer_and_router() {
    let (mut nl, p) = placed_small();
    nl.wires.push(Wire {
        id: nl.wires.len(),
        pins: [999, 0],
        weight: 1.0,
    });
    let bad_id = nl.wires.len() - 1;
    let e = place(&nl, &PlacerOptions::default()).unwrap_err();
    assert_eq!(e, PhysError::DegenerateWire { id: bad_id });
    assert_eq!(
        e.to_string(),
        format!("wire {bad_id} has a pin that names no cell")
    );
    let e = route(&nl, &p, &TechnologyModel::nm45(), &RouterOptions::default()).unwrap_err();
    assert_eq!(e, PhysError::DegenerateWire { id: bad_id });
}

// ------------------------------------------------------------------- flow

#[test]
fn flow_cluster_error_surfaces_end_to_end() {
    let net = generators::planted_clusters(48, 3, 0.4, 0.02, SEED)
        .expect("valid generator")
        .0;
    let framework = AutoNcs::builder()
        .isc_options(IscOptions {
            selection_quantile: 2.0,
            ..IscOptions::default()
        })
        .build();
    let e = framework.run(&net).unwrap_err();
    assert_eq!(
        e,
        FlowError::Cluster(ClusterError::InvalidThreshold { value: 2.0 })
    );
    assert_eq!(
        e.to_string(),
        "clustering stage failed: utilization threshold 2 must lie in [0, 1]"
    );
    // The chain bottoms out at the cluster error (which has no source).
    let source = e.source().expect("FlowError::Cluster carries a source");
    assert_eq!(
        source.to_string(),
        "utilization threshold 2 must lie in [0, 1]"
    );
    assert!(source.source().is_none());
}

#[test]
fn flow_phys_error_surfaces_end_to_end() {
    let net = generators::planted_clusters(48, 3, 0.4, 0.02, SEED)
        .expect("valid generator")
        .0;
    let framework = AutoNcs::builder()
        .implement_options(ImplementOptions {
            placer: PlacerOptions {
                gamma: 0.0,
                ..PlacerOptions::fast()
            },
            ..ImplementOptions::fast()
        })
        .build();
    let e = framework.run(&net).unwrap_err();
    assert_eq!(
        e,
        FlowError::Phys(PhysError::InvalidOption {
            what: "gamma",
            value: "0".to_string()
        })
    );
    assert_eq!(
        e.to_string(),
        "physical design stage failed: invalid option gamma = 0"
    );
    let source = e.source().expect("FlowError::Phys carries a source");
    assert_eq!(source.to_string(), "invalid option gamma = 0");
    // The same error reaches `baseline` too — both stages share the
    // physical-design back end.
    let e = framework.baseline(&net).unwrap_err();
    assert!(matches!(e, FlowError::Phys(_)));
}

#[test]
fn flow_error_chains_are_two_levels_deep_for_wrapped_sources() {
    let e = FlowError::Cluster(ClusterError::Linalg(LinalgError::Empty));
    let level1 = e.source().expect("flow error wraps a stage error");
    let level2 = level1.source().expect("stage error wraps a kernel error");
    assert_eq!(level2.to_string(), LinalgError::Empty.to_string());
    assert!(level2.source().is_none());
    assert!(e.to_string().starts_with("clustering stage failed: "));
}

// ---------------------------------------------------------------- serve

#[test]
fn serve_proto_errors_pin_display_and_stay_sourceless() {
    let e = ProtoError::Truncated {
        context: "length prefix",
        expected: 4,
        got: 2,
    };
    assert_eq!(
        e.to_string(),
        "truncated frame: length prefix needs 4 bytes, got 2"
    );
    assert!(e.source().is_none());

    let e = ProtoError::Oversize { len: 1 << 30 };
    assert!(e.to_string().contains("exceeds"), "{e}");

    let e = ProtoError::BadTag { tag: 0xee };
    assert_eq!(e.to_string(), "unknown message tag 0xee");

    let e = ProtoError::BadBody {
        tag: 2,
        reason: "short body".to_string(),
    };
    assert_eq!(e.to_string(), "malformed body for tag 0x02: short body");
    assert!(e.source().is_none());
}

#[test]
fn serve_job_errors_wrap_their_stage_sources() {
    // Cluster failure surfaced through a prepared job: the ServeError
    // wraps the ClusterError as its source, one level deep.
    let e = ServeError::from(ClusterError::InvalidThreshold { value: 2.0 });
    assert_eq!(
        e.to_string(),
        "job failed in clustering: utilization threshold 2 must lie in [0, 1]"
    );
    let source = e.source().expect("ServeError::Cluster carries a source");
    assert_eq!(
        source.to_string(),
        "utilization threshold 2 must lie in [0, 1]"
    );
    assert!(source.source().is_none());

    let e = ServeError::from(PhysError::InvalidOption {
        what: "gamma",
        value: "0".to_string(),
    });
    assert_eq!(
        e.to_string(),
        "job failed in physical design: invalid option gamma = 0"
    );
    assert!(e.source().is_some());

    let e = ServeError::from(NetError::EmptyRequest { what: "neurons" });
    assert!(e
        .to_string()
        .starts_with("generator rejected the request: "));
    assert!(e.source().is_some());

    let e = ServeError::from(ProtoError::BadTag { tag: 0x7e });
    assert_eq!(
        e.to_string(),
        "protocol violation: unknown message tag 0x7e"
    );
    let source = e.source().expect("ServeError::Protocol carries a source");
    assert_eq!(source.to_string(), "unknown message tag 0x7e");
}

#[test]
fn serve_flat_errors_pin_display_and_wire_codes() {
    let e = ServeError::Parse {
        message: "line 3: bad edge".to_string(),
    };
    assert_eq!(e.to_string(), "network did not parse: line 3: bad edge");
    assert!(e.source().is_none());
    assert_eq!(e.wire_code(), serve_code::JOB);

    let e = ServeError::ServerClosed;
    assert_eq!(e.to_string(), "server is shutting down");
    assert!(e.source().is_none());
    assert_eq!(e.wire_code(), serve_code::SHUTDOWN);

    let e = ServeError::Remote {
        code: 2,
        message: "job failed".to_string(),
    };
    assert_eq!(e.to_string(), "server reported error 2: job failed");
    assert!(e.source().is_none());

    let e = ServeError::InvalidOption {
        field: "batch_limit",
        requirement: "must be at least 1 for any job to be admitted",
    };
    assert_eq!(
        e.to_string(),
        "invalid server option batch_limit: must be at least 1 for any job to be admitted"
    );
    assert!(e.source().is_none());
    assert_eq!(e.wire_code(), serve_code::JOB);

    let proto = ServeError::from(ProtoError::Oversize { len: 1 << 30 });
    assert_eq!(proto.wire_code(), serve_code::PROTOCOL);

    // Io errors flatten to (context, kind, message) so the type stays
    // Clone + PartialEq; the original io::Error is not retained.
    let io = std::io::Error::new(std::io::ErrorKind::ConnectionReset, "peer went away");
    let e = ServeError::io("read", &io);
    assert_eq!(
        e.to_string(),
        "i/o failure during read (ConnectionReset): peer went away"
    );
    assert!(e.source().is_none());
    assert_eq!(e.clone(), e);
    assert_eq!(e.wire_code(), serve_code::JOB);
}

#[test]
fn serve_invalid_jobs_surface_structured_errors_through_prepare() {
    // A network that does not parse is rejected at prepare time, before
    // any scheduler work happens.
    let e = ncs_serve::job::prepare(&ServeRequest::Map(MapSpec {
        net: b"neurons 4\n0 9\n".to_vec(),
        seed: SEED,
        max_size: 16,
    }))
    .unwrap_err();
    assert!(
        matches!(&e, ServeError::Parse { message } if message.contains('9')),
        "unexpected error: {e:?}"
    );

    // Control requests are not jobs: prepare refuses them as protocol
    // violations rather than panicking.
    let e = ncs_serve::job::prepare(&ServeRequest::Stats).unwrap_err();
    assert!(matches!(e, ServeError::Protocol(_)), "{e:?}");
}
