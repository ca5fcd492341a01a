//! The serving workload: a seeded stream of `map` requests replayed,
//! closed loop, against an in-process `ncs_serve::Server` over loopback TCP.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use ncs_net::generators;
use ncs_rng::Rng;
use ncs_serve::{MapSpec, Request, Response, ServeClient, ServeOptions, Server};

use crate::metrics::{self, Outcome, SETUP_REPS};
use crate::{input_seed, Corpus};

/// The layers a traced run of this workload enters.
pub const LAYERS: &[&str] = &["net", "serve", "trace"];

/// ISC seed and largest crossbar of every request, fixed so that a cache
/// key is just the network.
const ISC_SEED: u64 = 0;
const MAX_SIZE: u32 = 64;
/// Replays per timed run, at the least. Replay `r` replays plan `r % PLANS`,
/// each plan with its own pool and stream; their requests are pooled, so
/// that one run's throughput rests on `PLANS` pools, not one.
const PLANS: usize = 4;
/// Client connections, one closed-loop generator thread each.
const CLIENTS: usize = 2;

/// One serving workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeWorkload {
    /// Networks in the pool; net `i` has `neurons[i % neurons.len()]`
    /// neurons and is requested with Zipf weight `1 / (i + 1)`.
    pub nets: usize,
    pub neurons: &'static [usize],
    /// Generator seeds of the pool's networks.
    pub corpus: Corpus,
    /// Requests per replay.
    pub requests: usize,
}

/// The inputs of one replay: the pool as edge-list bytes and the request
/// stream as pool indices (a request's cache key).
struct Plan {
    pool: Vec<Vec<u8>>,
    stream: Vec<usize>,
}

/// A server with its clients connected.
struct Session {
    server: Server,
    clients: Vec<ServeClient>,
}

/// What one client connection saw.
#[derive(Default)]
struct ClientLog {
    /// Latency in seconds, and whether this client had seen the key before.
    latencies: Vec<(f64, bool)>,
    /// The first response for each key.
    first: BTreeMap<usize, Vec<u8>>,
    failures: Vec<String>,
}

/// What one replay saw.
struct Replay {
    wall_s: f64,
    latencies: Vec<(f64, bool)>,
    stats: String,
}

impl ServeWorkload {
    /// Plan `index` of a run: its pool is networks `index * nets ..` of the
    /// run's seed.
    fn plan(&self, seed: u64, index: usize) -> Result<Plan, String> {
        let first = index * self.nets;
        let mut pool = Vec::with_capacity(self.nets);
        for i in 0..self.nets {
            let neurons = self.neurons[i % self.neurons.len()];
            let clusters = (neurons / 32).max(1);
            let (net, _) = generators::planted_clusters(
                neurons,
                clusters,
                0.4,
                0.01,
                self.corpus.seed(input_seed(seed, first + i)),
            )
            .map_err(|e| format!("input generation failed: {e}"))?;
            let mut bytes = Vec::new();
            ncs_net::io::write_edge_list(&net, &mut bytes)
                .map_err(|e| format!("edge-list encoding failed: {e}"))?;
            pool.push(bytes);
        }
        let weights: Vec<f64> = (0..self.nets).map(|i| 1.0 / (i + 1) as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut rng = Rng::seed_from_u64(input_seed(seed, first));
        let stream = (0..self.requests)
            .map(|_| {
                let mut u = rng.gen_f64() * total;
                weights
                    .iter()
                    .position(|w| {
                        u -= w;
                        u < 0.0
                    })
                    .unwrap_or(self.nets - 1)
            })
            .collect();
        Ok(Plan { pool, stream })
    }

    /// Set-up: generate the inputs, bind, connect, one `stats` round trip.
    fn start(
        &self,
        seed: u64,
        plan: usize,
        options: ServeOptions,
    ) -> Result<(Plan, Session), String> {
        let plan = self.plan(seed, plan)?;
        let server = Server::bind("127.0.0.1:0", options).map_err(|e| e.to_string())?;
        let clients = (0..CLIENTS)
            .map(|_| ServeClient::connect(server.local_addr()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let mut session = Session { server, clients };
        session.clients[0]
            .stats()
            .map_err(|e| format!("first stats request failed: {e}"))?;
        Ok((plan, session))
    }
}

/// One client's share of the stream: every `stride`-th request from
/// `offset`, each sent once the previous response has arrived.
fn drive(client: &mut ServeClient, plan: &Plan, offset: usize, stride: usize) -> ClientLog {
    let mut log = ClientLog::default();
    for &key in plan.stream.iter().skip(offset).step_by(stride) {
        let request = Request::Map(MapSpec {
            net: plan.pool[key].clone(),
            seed: ISC_SEED,
            max_size: MAX_SIZE,
        });
        let warm = log.first.contains_key(&key);
        let start = Instant::now();
        let response = client.request(&request);
        log.latencies.push((start.elapsed().as_secs_f64(), warm));
        let bytes = match response {
            Ok(Response::Map(bytes)) => bytes,
            Ok(other) => {
                log.failures.push(format!("unexpected response {other:?}"));
                continue;
            }
            Err(e) => {
                log.failures.push(format!("request failed: {e}"));
                continue;
            }
        };
        match log.first.get(&key) {
            Some(first) if *first != bytes => log
                .failures
                .push(format!("net {key}: response differs from the first")),
            Some(_) => {}
            None => {
                log.first.insert(key, bytes);
            }
        }
    }
    log
}

/// Replays the stream on a started session and shuts the server down.
/// Every response must equal the first one for its key, across clients
/// and across replays (`first`), and the server must count exactly one
/// miss per distinct key.
fn replay(
    plan: &Plan,
    session: Session,
    first: &mut BTreeMap<usize, Vec<u8>>,
    failures: &mut Vec<String>,
) -> Result<Replay, String> {
    let Session {
        mut server,
        mut clients,
    } = session;
    let stride = clients.len();
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(offset, client)| scope.spawn(move || drive(client, plan, offset, stride)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let stats = clients[0]
        .stats()
        .map_err(|e| format!("stats request failed: {e}"))?;
    drop(clients);
    server.shutdown();

    let mut latencies = Vec::with_capacity(plan.stream.len());
    for log in logs {
        latencies.extend(log.latencies);
        failures.extend(log.failures);
        for (key, bytes) in log.first {
            match first.get(&key) {
                Some(seen) if *seen != bytes => failures.push(format!(
                    "net {key}: responses differ between clients or replays"
                )),
                Some(_) => {}
                None => {
                    first.insert(key, bytes);
                }
            }
        }
    }
    let distinct = plan.stream.iter().collect::<BTreeSet<_>>().len() as u64;
    let misses = stat(&stats, "map", "misses");
    if misses != distinct {
        failures.push(format!(
            "{misses} cache misses for {distinct} distinct keys"
        ));
    }
    Ok(Replay {
        wall_s,
        latencies,
        stats,
    })
}

/// Reads `"<field>": <u64>` from the `stats` JSON, after `"<section>": {`
/// when `section` is not empty. A missing field reads 0.
fn stat(stats: &str, section: &str, field: &str) -> u64 {
    let from = if section.is_empty() {
        0
    } else {
        stats
            .find(&format!("\"{section}\": {{"))
            .unwrap_or(stats.len())
    };
    let needle = format!("\"{field}\": ");
    stats[from..]
        .find(&needle)
        .map(|at| {
            stats[from + at + needle.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .and_then(|digits| digits.parse().ok())
        .unwrap_or(0)
}

fn latencies_ms(latencies: &[(f64, bool)], warm: Option<bool>) -> Vec<f64> {
    latencies
        .iter()
        .filter(|(_, w)| warm.is_none_or(|want| *w == want))
        .map(|(s, _)| s * 1e3)
        .collect()
}

/// Timed replays, each against a fresh server with an empty cache.
pub fn timed(workload: &ServeWorkload, seed: u64, budget: Duration) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut latencies = Vec::new();
    let mut wall_s = 0.0;
    let mut peak_mib = Vec::new();
    let mut first = vec![BTreeMap::new(); PLANS];
    metrics::repeat_for(budget, PLANS, |r| {
        metrics::reset_peak_rss()?;
        let start = Instant::now();
        let (plan, session) = workload.start(seed, r % PLANS, ServeOptions::default())?;
        setup_s.push(start.elapsed().as_secs_f64());
        let replayed = replay(&plan, session, &mut first[r % PLANS], &mut out.failures)?;
        peak_mib.push(metrics::peak_rss_mib()?);
        out.attempted += plan.stream.len() as u64;
        wall_s += replayed.wall_s;
        latencies.extend(replayed.latencies.iter().map(|(s, _)| s));
        Ok(())
    })?;
    while setup_s.len() < SETUP_REPS {
        let start = Instant::now();
        let started = workload.start(seed, setup_s.len() % PLANS, ServeOptions::default())?;
        setup_s.push(start.elapsed().as_secs_f64());
        drop(started);
    }
    out.set("op_s", metrics::median(&latencies));
    out.set("ops_per_s", latencies.len() as f64 / wall_s);
    out.set("setup_s", metrics::median(&setup_s));
    out.set("peak_rss_mib", metrics::median(&peak_mib));
    Ok(out)
}

/// Each plan replayed once as served by default, then plan 0 once more
/// with the server's per-job stage tracing on. The server counters are
/// summed over the default replays (`max_batch` is their maximum) and the
/// latencies pooled, so that the 99th percentile has more than ten
/// requests beyond it.
pub fn traced(workload: &ServeWorkload, seed: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (_, gen_s) = metrics::setup_median(|| workload.plan(seed, 0))?;
    out.set("net.gen_s", gen_s);
    let mut first = vec![BTreeMap::new(); PLANS];
    let mut latencies = Vec::new();
    let (mut hits, mut misses, mut evictions, mut batches, mut max_batch) = (0, 0, 0, 0, 0);
    let mut untraced_s = 0.0;
    for (plan, seen) in first.iter_mut().enumerate() {
        let (inputs, session) = workload.start(seed, plan, ServeOptions::default())?;
        let r = replay(&inputs, session, seen, &mut out.failures)?;
        out.attempted += inputs.stream.len() as u64;
        if plan == 0 {
            untraced_s = r.wall_s;
        }
        latencies.extend(r.latencies);
        hits += stat(&r.stats, "map", "hits");
        misses += stat(&r.stats, "map", "misses");
        evictions += stat(&r.stats, "map", "evictions");
        batches += stat(&r.stats, "", "batches");
        max_batch = max_batch.max(stat(&r.stats, "", "max_batch"));
    }
    let options = ServeOptions {
        trace_stages: true,
        ..ServeOptions::default()
    };
    let (inputs, session) = workload.start(seed, 0, options)?;
    let r = replay(&inputs, session, &mut first[0], &mut out.failures)?;
    out.attempted += inputs.stream.len() as u64;

    out.set(
        "serve.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set("serve.misses", misses as f64);
    out.set("serve.evictions", evictions as f64);
    out.set("serve.batches", batches as f64);
    out.set("serve.max_batch", max_batch as f64);
    let warm = latencies_ms(&latencies, Some(true));
    let cold = latencies_ms(&latencies, Some(false));
    out.set("serve.warm_p50_ms", metrics::median(&warm));
    out.set("serve.cold_p50_ms", metrics::median(&cold));
    out.set(
        "serve.req_p99_ms",
        metrics::quantile(&latencies_ms(&latencies, None), 0.99),
    );
    out.set("trace.overhead_pct", (r.wall_s / untraced_s - 1.0) * 100.0);
    Ok(out)
}
