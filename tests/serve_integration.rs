//! Service-level tests for `ncs-serve`: a real daemon on an ephemeral
//! port, real sockets, and the three properties the service promises —
//! round-trip correctness for every job type, byte-level golden
//! stability for a pinned job, and cache behavior (warm responses are
//! bit-identical replays; hit/miss counters are exact and independent
//! of client interleaving and thread count).

use std::net::SocketAddr;
use std::time::Duration;

use ncs_serve::proto::{code, encode_request, write_frame};
use ncs_serve::{
    fnv64, GenKind, GenSpec, MapSpec, Request, Response, ServeClient, ServeError, ServeOptions,
    Server,
};

const SEED: u64 = 42;
/// Generous watchdog: every read in this suite must complete well
/// within this bound or the test fails instead of hanging.
const WATCHDOG: Duration = Duration::from_secs(30);

/// A deterministic literal fixture: ring plus skip-7 chords. Built by
/// rule rather than by a generator so the golden bytes below cannot
/// drift with generator changes.
fn fixture_net(n: usize) -> Vec<u8> {
    let mut text = format!("neurons {n}\n");
    for i in 0..n {
        text.push_str(&format!("{} {}\n", i, (i + 1) % n));
        if i % 3 == 0 {
            text.push_str(&format!("{} {}\n", i, (i + 7) % n));
        }
    }
    text.into_bytes()
}

fn start_server() -> (Server, SocketAddr) {
    let server = Server::bind("127.0.0.1:0", ServeOptions::default()).expect("bind");
    let addr = server.local_addr();
    (server, addr)
}

fn client(addr: SocketAddr) -> ServeClient {
    let mut c = ServeClient::connect(addr).expect("connect");
    c.set_read_timeout(Some(WATCHDOG)).expect("timeout");
    c
}

fn map_spec(seed: u64) -> MapSpec {
    MapSpec {
        net: fixture_net(32),
        seed,
        max_size: 16,
    }
}

#[test]
fn every_job_type_round_trips_over_a_real_socket() {
    let (mut server, addr) = start_server();
    let mut c = client(addr);

    // gen: the returned bytes must be a canonical, parsable edge list.
    let net = c
        .gen(GenSpec {
            kind: GenKind::Clusters,
            neurons: 48,
            clusters: 4,
            density: 0.4,
            seed: SEED,
        })
        .expect("gen");
    let parsed = ncs_net::io::read_edge_list(&net[..]).expect("gen output parses");
    assert_eq!(parsed.neurons(), 48);

    // map: canonical mapping bytes with the NCSM magic.
    let mapping = c.map(map_spec(SEED)).expect("map");
    assert!(mapping.starts_with(b"NCSM"), "mapping magic");

    // implement: canonical design bytes with the NCSI magic.
    let design = c
        .implement(MapSpec {
            net: fixture_net(24),
            seed: SEED,
            max_size: 16,
        })
        .expect("implement");
    assert!(design.starts_with(b"NCSI"), "design magic");

    // stats: JSON naming every section, with the jobs above counted.
    let stats = c.stats().expect("stats");
    for needle in ["\"cache\"", "\"scheduler\"", "\"recent\"", "\"jobs\": 3"] {
        assert!(stats.contains(needle), "stats missing {needle}: {stats}");
    }

    // clear-cache: three distinct jobs were cached.
    assert_eq!(c.clear_cache().expect("clear"), 3);
    server.shutdown();
}

const GOLDEN_MAP_LEN: usize = 822;
const GOLDEN_MAP_FNV64: u64 = 0x43f8_8d93_1b7d_5f8c;

#[test]
fn golden_map_response_is_pinned_for_seed_42() {
    // Byte-level golden for the pinned SEED=42 map job on the literal
    // fixture. If an intentional algorithm change moves these values,
    // re-pin them alongside the canonical-encoding version bump.
    let (mut server, addr) = start_server();
    let mut c = client(addr);
    let bytes = c.map(map_spec(SEED)).expect("map");
    assert_eq!(
        (bytes.len(), fnv64(&bytes)),
        (GOLDEN_MAP_LEN, GOLDEN_MAP_FNV64),
        "pinned SEED=42 map response drifted (len {}, fnv64 {:#018x})",
        bytes.len(),
        fnv64(&bytes)
    );
    server.shutdown();
}

#[test]
fn warm_cache_replays_cold_bytes_exactly() {
    let (mut server, addr) = start_server();
    let mut c = client(addr);
    let cold = c.map(map_spec(SEED)).expect("cold map");
    let warm = c.map(map_spec(SEED)).expect("warm map");
    assert_eq!(cold, warm, "warm response must be a bit-identical replay");

    // The cached bytes also match a fresh in-process run of the same
    // prepared job — the cache can never serve anything a fresh run
    // would not produce.
    let prepared = ncs_serve::job::prepare(&Request::Map(map_spec(SEED))).expect("prepare");
    let (fresh, _) = ncs_serve::job::execute(&prepared, false);
    assert_eq!(cold, fresh.expect("fresh run"), "cache vs fresh run");

    // Exactly one miss (the cold run) and one hit (the warm run).
    let stats = c.stats().expect("stats");
    assert!(
        stats.contains("\"map\": {\"hits\": 1, \"misses\": 1, \"evictions\": 0}"),
        "unexpected map counters: {stats}"
    );
    server.shutdown();
}

#[test]
fn equivalent_network_encodings_share_one_cache_entry() {
    let (mut server, addr) = start_server();
    let mut c = client(addr);
    let canonical = c.map(map_spec(SEED)).expect("map");
    // Same network, shuffled edges plus a comment: canonicalization
    // must land on the same key, so this is a hit with identical bytes.
    let mut shuffled_text = String::from("# same net, different bytes\nneurons 32\n");
    let original = String::from_utf8(fixture_net(32)).expect("utf8");
    let mut edges: Vec<&str> = original.lines().skip(1).collect();
    edges.reverse();
    for e in edges {
        shuffled_text.push_str(e);
        shuffled_text.push('\n');
    }
    let shuffled = c
        .map(MapSpec {
            net: shuffled_text.into_bytes(),
            seed: SEED,
            max_size: 16,
        })
        .expect("map shuffled");
    assert_eq!(canonical, shuffled);
    let stats = c.stats().expect("stats");
    assert!(
        stats.contains("\"map\": {\"hits\": 1, \"misses\": 1, \"evictions\": 0}"),
        "shuffled encoding missed the cache: {stats}"
    );
    server.shutdown();
}

// ------------------------------------------------------- protocol abuse

#[test]
fn unknown_tag_and_bad_body_get_structured_errors_and_keep_the_stream() {
    let (mut server, addr) = start_server();
    let mut c = client(addr);

    // Unknown tag: full frame, structured error, connection survives.
    c.send_raw(&[0, 0, 0, 1, 0xee]).expect("send");
    match c.read_response().expect("error response") {
        Response::Error { code: got, message } => {
            assert_eq!(got, code::PROTOCOL);
            assert!(message.contains("0xee"), "{message}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }

    // Bad body (gen frame cut short): same story.
    let mut payload = encode_request(&Request::Gen(GenSpec {
        kind: GenKind::Random,
        neurons: 8,
        clusters: 0,
        density: 0.1,
        seed: 1,
    }));
    payload.truncate(payload.len() - 4);
    let mut frame = Vec::new();
    write_frame(&mut frame, &payload).expect("frame");
    c.send_raw(&frame).expect("send");
    match c.read_response().expect("error response") {
        Response::Error { code: got, .. } => assert_eq!(got, code::PROTOCOL),
        other => panic!("expected an error frame, got {other:?}"),
    }

    // The stream is still good: a valid request succeeds on it.
    let stats = c.stats().expect("stream survived the garbage");
    assert!(stats.contains("\"cache\""));
    server.shutdown();
}

#[test]
fn unallocatable_network_gets_an_error_and_the_server_keeps_answering() {
    // The header asks for a 4e9-neuron bitmap (~2 EB). Parsing it must
    // fail as a job error instead of aborting the daemon on allocation.
    let (mut server, addr) = start_server();
    let mut c = client(addr);
    let err = c
        .map(MapSpec {
            net: b"neurons 4000000000\n0 1\n".to_vec(),
            seed: SEED,
            max_size: 16,
        })
        .expect_err("an unallocatable network cannot map");
    match err {
        ServeError::Remote { code: got, message } => {
            assert_eq!(got, code::JOB);
            assert!(message.contains("4000000000 neurons"), "{message}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    // The same server, on the same connection, answers a normal request.
    let mapping = c.map(map_spec(SEED)).expect("map after the oversized one");
    assert!(mapping.starts_with(b"NCSM"), "mapping magic");
    server.shutdown();
}

#[test]
fn size_limits_outside_the_paper_sizes_get_an_error_and_the_server_keeps_answering() {
    // ISC runs over the paper's crossbar sizes 16, 20, …, max_size, so a
    // limit must be one of 16, 20, …, 64. Below 16, past 64, and at
    // u32::MAX (about 1e9 sizes, were it expanded) the job fails before
    // any work, and the connection stays usable.
    let (mut server, addr) = start_server();
    let mut c = client(addr);
    for max_size in [8, 1024, u32::MAX] {
        let err = c
            .map(MapSpec {
                max_size,
                ..map_spec(SEED)
            })
            .expect_err("the size limit is refused");
        match err {
            ServeError::Remote { code: got, message } => {
                assert_eq!(got, code::JOB);
                assert!(message.contains(&format!("limit {max_size} ")), "{message}");
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
        let mapping = c.map(map_spec(SEED)).expect("map after the refused one");
        assert!(mapping.starts_with(b"NCSM"), "mapping magic");
    }
    server.shutdown();
}

#[test]
fn oversize_length_prefix_gets_an_error_then_close() {
    let (mut server, addr) = start_server();
    let mut c = client(addr);
    c.send_raw(&u32::MAX.to_be_bytes()).expect("send");
    match c.read_response().expect("error response") {
        Response::Error { code: got, message } => {
            assert_eq!(got, code::PROTOCOL);
            assert!(message.contains("exceeds"), "{message}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    // After an oversize prefix there is nothing to resynchronize on:
    // the server closes.
    match c.read_response() {
        Err(ServeError::ServerClosed) | Err(ServeError::Io { .. }) => {}
        other => panic!("expected a clean close, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn truncated_prefix_and_mid_frame_disconnects_close_cleanly() {
    let (mut server, addr) = start_server();

    // 2 of 4 length-prefix bytes, then disconnect.
    let mut c = client(addr);
    c.send_raw(&[0, 9]).expect("send");
    c.disconnect_write();
    match c.read_response() {
        Err(ServeError::ServerClosed) | Err(ServeError::Io { .. }) => {}
        other => panic!("expected a clean close, got {other:?}"),
    }

    // Complete prefix declaring more payload than is ever sent, then
    // disconnect mid-frame.
    let mut c = client(addr);
    let payload = encode_request(&Request::Stats);
    let mut lying = Vec::new();
    lying.extend_from_slice(&((payload.len() + 64) as u32).to_be_bytes());
    lying.extend_from_slice(&payload);
    c.send_raw(&lying).expect("send");
    c.disconnect_write();
    match c.read_response() {
        Err(ServeError::ServerClosed) | Err(ServeError::Io { .. }) => {}
        other => panic!("expected a clean close, got {other:?}"),
    }

    // The server is still alive for well-behaved clients.
    let mut c = client(addr);
    assert!(c.stats().is_ok(), "server survived the abuse");
    server.shutdown();
}

#[test]
fn seeded_random_garbage_never_hangs_or_kills_the_server() {
    let (mut server, addr) = start_server();
    let mut rng = ncs_rng::Rng::seed_from_u64(SEED);
    for round in 0..24 {
        let mut c = client(addr);
        let len = rng.gen_range(0..64usize);
        let mut garbage = vec![0u8; len];
        for b in &mut garbage {
            *b = (rng.next_u64() & 0xff) as u8;
        }
        // Half the rounds wrap the garbage in a valid frame (exercising
        // the decoder), half fire it raw at the framing layer.
        let wire = if round % 2 == 0 {
            let mut frame = Vec::new();
            write_frame(&mut frame, &garbage).expect("frame");
            frame
        } else {
            garbage
        };
        c.send_raw(&wire).expect("send");
        c.disconnect_write();
        // Whatever happens must happen promptly: a structured error, a
        // decoded-as-something response, or a clean close — never a
        // hang (the watchdog read timeout surfaces as an Io error with
        // a timeout kind, which the assert below rejects).
        loop {
            match c.read_response() {
                Ok(_) => continue,
                Err(ServeError::ServerClosed) => break,
                Err(ServeError::Io { context, kind, .. }) => {
                    assert!(
                        kind != std::io::ErrorKind::WouldBlock
                            && kind != std::io::ErrorKind::TimedOut,
                        "server hung on garbage round {round} during {context}"
                    );
                    break;
                }
                Err(other) => panic!("unexpected failure {other:?} on round {round}"),
            }
        }
    }
    // The server survived all 24 rounds.
    let mut c = client(addr);
    assert!(c.stats().is_ok());
    server.shutdown();
}

// ------------------------------------------- concurrency determinism

/// The interleaved mix: 12 jobs, 6 distinct, spanning all three stages.
fn job_mix() -> Vec<Request> {
    let mut jobs = Vec::new();
    for seed in [1u64, 2] {
        jobs.push(Request::Gen(GenSpec {
            kind: GenKind::Random,
            neurons: 32,
            clusters: 0,
            density: 0.08,
            seed,
        }));
        jobs.push(Request::Map(map_spec(seed)));
        jobs.push(Request::Implement(MapSpec {
            net: fixture_net(24),
            seed,
            max_size: 16,
        }));
    }
    // Repeat the whole mix once: 6 duplicates that must all be hits.
    let repeat: Vec<Request> = jobs.clone();
    jobs.extend(repeat);
    jobs
}

fn run_serial(addr: SocketAddr, jobs: &[Request]) -> Vec<Vec<u8>> {
    let mut c = client(addr);
    jobs.iter()
        .map(|j| match c.request(j).expect("job") {
            Response::Net(b) | Response::Map(b) | Response::Implement(b) => b,
            other => panic!("job failed: {other:?}"),
        })
        .collect()
}

type IndexedResponses = std::sync::Mutex<Vec<(usize, Vec<u8>)>>;

fn run_concurrent(addr: SocketAddr, jobs: &[Request], threads: usize) -> Vec<Vec<u8>> {
    // Round-robin assignment: thread t takes jobs t, t+threads, ...
    let results: Vec<IndexedResponses> = (0..threads)
        .map(|_| std::sync::Mutex::new(Vec::new()))
        .collect();
    std::thread::scope(|scope| {
        for (t, bucket) in results.iter().enumerate() {
            let jobs = &jobs;
            scope.spawn(move || {
                let mut c = client(addr);
                for (i, job) in jobs.iter().enumerate().skip(t).step_by(threads) {
                    match c.request(job).expect("job") {
                        Response::Net(b) | Response::Map(b) | Response::Implement(b) => {
                            bucket.lock().expect("bucket").push((i, b));
                        }
                        other => panic!("job failed: {other:?}"),
                    }
                }
            });
        }
    });
    let mut ordered: Vec<(usize, Vec<u8>)> = results
        .into_iter()
        .flat_map(|m| m.into_inner().expect("bucket"))
        .collect();
    ordered.sort_by_key(|(i, _)| *i);
    ordered.into_iter().map(|(_, b)| b).collect()
}

fn assert_exact_counters(addr: SocketAddr) {
    // 6 distinct jobs (2 per stage), each submitted twice ⇒ per stage:
    // 2 misses, 2 hits, no evictions — regardless of interleaving.
    let mut c = client(addr);
    let stats = c.stats().expect("stats");
    for stage in ["gen", "map", "implement"] {
        let needle = format!("\"{stage}\": {{\"hits\": 2, \"misses\": 2, \"evictions\": 0}}");
        assert!(stats.contains(&needle), "{stage} counters wrong: {stats}");
    }
}

fn with_thread_override<T>(t: usize, f: impl FnOnce() -> T) -> T {
    ncs_par::set_thread_override(Some(t));
    let r = f();
    ncs_par::set_thread_override(None);
    r
}

#[test]
fn concurrent_submission_is_bit_identical_to_serial_at_1_and_4_threads() {
    let jobs = job_mix();
    // Reference: serial submission on its own fresh server, single
    // worker thread.
    let serial = with_thread_override(1, || {
        let (mut server, addr) = start_server();
        let out = run_serial(addr, &jobs);
        assert_exact_counters(addr);
        server.shutdown();
        out
    });
    for threads in [1usize, 4] {
        let concurrent = with_thread_override(threads, || {
            let (mut server, addr) = start_server();
            let out = run_concurrent(addr, &jobs, 4);
            assert_exact_counters(addr);
            server.shutdown();
            out
        });
        assert_eq!(
            serial.len(),
            concurrent.len(),
            "response count at NCS_THREADS={threads}"
        );
        for (i, (s, c)) in serial.iter().zip(&concurrent).enumerate() {
            assert_eq!(
                s, c,
                "job {i} diverged between serial and concurrent submission at NCS_THREADS={threads}"
            );
        }
    }
}

#[test]
fn bind_rejects_a_zero_batch_limit_before_binding() {
    // A zero limit would leave the scheduler spinning without ever
    // admitting a job, so every request would hang.
    let options = ServeOptions {
        batch_limit: 0,
        ..ServeOptions::default()
    };
    match Server::bind("127.0.0.1:0", options) {
        Err(e) => assert_eq!(
            e,
            ServeError::InvalidOption {
                field: "batch_limit",
                requirement: "must be at least 1 for any job to be admitted",
            }
        ),
        Ok(mut server) => {
            server.shutdown();
            panic!("a zero batch limit must be rejected");
        }
    }
}

#[test]
fn shutdown_is_orderly_under_load() {
    let (mut server, addr) = start_server();
    let mut c = client(addr);
    // Prime one job so the scheduler has state, then shut down and
    // verify the next request is refused cleanly rather than hanging.
    c.map(map_spec(SEED)).expect("map");
    server.shutdown();
    match c.request(&Request::Stats) {
        Ok(Response::Error { code: got, .. }) => assert_eq!(got, code::SHUTDOWN),
        Ok(other) => panic!("expected shutdown error, got {other:?}"),
        Err(ServeError::ServerClosed) | Err(ServeError::Io { .. }) => {}
        Err(other) => panic!("unexpected failure {other:?}"),
    }
}
