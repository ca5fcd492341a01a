//! `autoncs` — command-line front end for the AutoNCS flow.
//!
//! ```text
//! autoncs gen --kind <random|clusters|ldpc> --neurons N [--density D]
//!             [--clusters K] [--seed S] --out net.txt
//! autoncs map <net.txt> [--seed S] [--max-size M] [--trace trace.csv]
//! autoncs compare <net.txt> [--seed S] [--max-size M]
//! autoncs implement <net.txt> [--seed S] [--max-size M]
//!                   [--out-prefix results/design]
//! autoncs serve [--addr HOST:PORT] [--batch N] [--cache-capacity N]
//!               [--max-conns N] [--addr-file PATH]
//! ```
//!
//! Networks are plain-text edge lists (see [`ncs_net::io`]). `gen` creates
//! synthetic workloads; `map` runs ISC clustering and prints mapping
//! statistics; `compare` runs the full AutoNCS and FullCro flows and
//! prints a Table 1-style row; `implement` additionally writes placement
//! and congestion plots; `serve` runs the batched flow service. Each
//! command accepts exactly the flags listed for it; any other `--key` is
//! an error.

use std::fs::File;
use std::num::NonZeroUsize;
use std::process::ExitCode;

use autoncs::{plot, AutoNcs, CostTable};
use ncs_cluster::{CrossbarSizeSet, IscOptions};
use ncs_net::{generators, io as netio, ConnectionMatrix};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err("usage: autoncs <gen|map|compare|implement> ... (see --help)".to_string());
    };
    let rest = &args[1..];
    match command.as_str() {
        "gen" => cmd_gen(rest),
        "map" => cmd_map(rest),
        "compare" => cmd_compare(rest),
        "implement" => cmd_implement(rest),
        "serve" => cmd_serve(rest),
        "--help" | "-h" | "help" => {
            println!("{}", HELP);
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try --help")),
    }
}

const HELP: &str = "autoncs — EDA flow for hybrid memristor neuromorphic systems

commands:
  gen --kind <random|clusters|ldpc> --neurons N [--density D]
      [--clusters K] [--seed S] --out net.txt     generate a workload
  map <net.txt> [--seed S] [--max-size M]
      [--trace trace.csv]                         cluster to crossbars
  compare <net.txt> [--seed S] [--max-size M]     AutoNCS vs FullCro costs
  implement <net.txt> [--seed S] [--max-size M]
      [--out-prefix PREFIX]                       full flow + plot artifacts
  serve [--addr HOST:PORT] [--batch N]
      [--cache-capacity N] [--max-conns N]
      [--addr-file PATH]                          run the batched flow service

--max-size M caps the crossbar sizes at M, one of the paper's 16, 20, …, 64
(default 64).";

/// Minimal flag parser: positional arguments plus `--key value` pairs.
#[derive(Debug)]
struct Flags<'a> {
    positional: Vec<&'a str>,
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    fn parse(args: &'a [String]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{key} expects a value"))?;
                pairs.push((key, value.as_str()));
            } else {
                positional.push(arg.as_str());
            }
        }
        Ok(Flags { positional, pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|e| format!("bad --{key} {raw:?}: {e}")),
        }
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// Rejects any `--key` outside `accepted`, so a misspelt flag fails
    /// instead of silently leaving its default in place.
    fn only(self, accepted: &[&str]) -> Result<Self, String> {
        match self.pairs.iter().find(|(k, _)| !accepted.contains(k)) {
            None => Ok(self),
            Some((key, _)) => {
                let list: Vec<String> = accepted.iter().map(|k| format!("--{k}")).collect();
                Err(format!(
                    "unknown flag --{key} (accepted: {})",
                    list.join(" ")
                ))
            }
        }
    }
}

/// The flags each command reads, and so accepts.
const GEN_FLAGS: &[&str] = &["kind", "neurons", "density", "clusters", "seed", "out"];
const MAP_FLAGS: &[&str] = &["seed", "max-size", "trace"];
const COMPARE_FLAGS: &[&str] = &["seed", "max-size"];
const IMPLEMENT_FLAGS: &[&str] = &["seed", "max-size", "out-prefix"];
const SERVE_FLAGS: &[&str] = &["addr", "batch", "cache-capacity", "max-conns", "addr-file"];

/// Drains this thread's trace stream into a per-stage summary table plus a
/// `results/TRACE_<flow>.json` artifact. A no-op unless `NCS_TRACE` is on.
fn emit_trace_summary(flow: &str) -> Result<(), String> {
    if !ncs_trace::enabled() {
        return Ok(());
    }
    let report = ncs_trace::TraceReport::from_events(&ncs_trace::take_events());
    print!("{}", report.render_table());
    let path = report
        .export(flow)
        .map_err(|e| format!("cannot write trace artifact: {e}"))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn load_net(path: &str) -> Result<ConnectionMatrix, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    netio::read_edge_list(file).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn framework(flags: &Flags) -> Result<AutoNcs, String> {
    let seed: u64 = flags.get_parsed("seed", 42)?;
    let max_size: usize = flags.get_parsed("max-size", 64)?;
    let sizes = CrossbarSizeSet::paper_up_to(max_size)
        .map_err(|e| format!("bad --max-size {max_size}: {e} (use 16, 20, …, 64)"))?;
    Ok(AutoNcs::builder()
        .isc_options(IscOptions {
            sizes,
            seed,
            ..IscOptions::default()
        })
        .build())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?.only(GEN_FLAGS)?;
    let kind = flags.require("kind")?.to_string();
    let neurons: usize = flags.get_parsed("neurons", 128)?;
    let seed: u64 = flags.get_parsed("seed", 42)?;
    let out = flags.require("out")?;
    let net = match kind.as_str() {
        "random" => {
            let density: f64 = flags.get_parsed("density", 0.05)?;
            generators::uniform_random(neurons, density, seed).map_err(|e| e.to_string())?
        }
        "clusters" => {
            let clusters: usize = flags.get_parsed("clusters", 4)?;
            let density: f64 = flags.get_parsed("density", 0.4)?;
            generators::planted_clusters(neurons, clusters, density, 0.01, seed)
                .map_err(|e| e.to_string())?
                .0
        }
        "ldpc" => {
            let checks = neurons / 3;
            generators::ldpc_like(neurons - checks, checks, 4, seed).map_err(|e| e.to_string())?
        }
        other => return Err(format!("unknown --kind {other:?} (random|clusters|ldpc)")),
    };
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    netio::write_edge_list(&net, file).map_err(|e| e.to_string())?;
    println!("wrote {out}: {net}");
    Ok(())
}

fn cmd_map(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?.only(MAP_FLAGS)?;
    let path = flags
        .positional
        .first()
        .ok_or("map expects a network file")?;
    let net = load_net(path)?;
    let (mapping, trace) = framework(&flags)?.map(&net).map_err(|e| e.to_string())?;
    mapping
        .verify_covers(&net)
        .map_err(|e| format!("internal invariant violated: {e}"))?;
    println!("network: {net}");
    println!(
        "mapping: {} crossbars ({} connections), {} discrete synapses, outlier ratio {:.2}%",
        mapping.crossbars().len(),
        mapping.realized_connections(),
        mapping.outliers().len(),
        mapping.outlier_ratio() * 100.0
    );
    println!(
        "average crossbar utilization: {:.2}%",
        mapping.average_utilization() * 100.0
    );
    println!("size histogram: {:?}", mapping.size_histogram());
    println!(
        "isc: {} iterations, stop {:?}",
        trace.iterations.len(),
        trace.stop_reason
    );
    if let Some(trace_path) = flags.get("trace") {
        let mut csv = String::from("iteration,clusters,selected,removed,outlier_ratio\n");
        for it in &trace.iterations {
            csv.push_str(&format!(
                "{},{},{},{},{:.4}\n",
                it.iteration,
                it.clusters_formed,
                it.clusters_selected,
                it.connections_removed,
                it.outlier_ratio
            ));
        }
        std::fs::write(trace_path, csv).map_err(|e| format!("cannot write {trace_path}: {e}"))?;
        println!("wrote {trace_path}");
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?.only(COMPARE_FLAGS)?;
    let path = flags
        .positional
        .first()
        .ok_or("compare expects a network file")?;
    let net = load_net(path)?;
    let report = framework(&flags)?
        .compare(&net)
        .map_err(|e| e.to_string())?;
    let mut table = CostTable::new();
    table.push(report.to_row(path.rsplit('/').next().unwrap_or(path)));
    print!("{table}");
    emit_trace_summary("compare")?;
    Ok(())
}

fn cmd_implement(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?.only(IMPLEMENT_FLAGS)?;
    let path = flags
        .positional
        .first()
        .ok_or("implement expects a network file")?;
    let prefix = flags
        .get("out-prefix")
        .unwrap_or("autoncs_design")
        .to_string();
    let net = load_net(path)?;
    let result = framework(&flags)?.run(&net).map_err(|e| e.to_string())?;
    println!(
        "cost: wirelength {:.1} um, area {:.1} um2, delay {:.3} ns, total {:.1}",
        result.design.cost.wirelength_um,
        result.design.cost.area_um2,
        result.design.cost.average_delay_ns,
        result.design.cost.total()
    );
    let placement_path = format!("{prefix}_placement.ppm");
    plot::placement_plot(&result.design.netlist, &result.design.placement, 4.0)
        .write_ppm(File::create(&placement_path).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    println!("wrote {placement_path}");
    let congestion_path = format!("{prefix}_congestion.ppm");
    plot::congestion_heatmap(&result.design.routing.congestion)
        .write_ppm(File::create(&congestion_path).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    println!("wrote {congestion_path}");
    emit_trace_summary("implement")?;
    Ok(())
}

/// `serve --batch` when the flag is absent.
const DEFAULT_BATCH: NonZeroUsize = NonZeroUsize::new(16).unwrap();

/// Parses `serve` flags and binds the daemon (split from [`cmd_serve`]
/// so tests can start and stop a server without blocking forever).
fn serve_bind(flags: &Flags) -> Result<autoncs::serve::Server, String> {
    let addr = flags.get("addr").unwrap_or("127.0.0.1:0");
    // A zero limit would admit no job, so it fails here as a bad value.
    let batch_limit = flags.get_parsed("batch", DEFAULT_BATCH)?.get();
    let cache_capacity: usize = flags.get_parsed("cache-capacity", 256)?;
    let max_connections: usize = flags.get_parsed("max-conns", 0)?;
    let options = autoncs::serve::ServeOptions {
        batch_limit,
        cache_capacity,
        max_connections: (max_connections > 0).then_some(max_connections),
        ..autoncs::serve::ServeOptions::default()
    };
    let server = autoncs::serve::Server::bind(addr, options).map_err(|e| e.to_string())?;
    println!("serving on {}", server.local_addr());
    if let Some(addr_file) = flags.get("addr-file") {
        std::fs::write(addr_file, format!("{}\n", server.local_addr()))
            .map_err(|e| format!("cannot write {addr_file}: {e}"))?;
        println!("wrote {addr_file}");
    }
    Ok(server)
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?.only(SERVE_FLAGS)?;
    let _server = serve_bind(&flags)?;
    // The daemon runs until the process is killed; the Server's Drop
    // performs an orderly shutdown if this loop is ever left.
    loop {
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_pairs_and_positionals() {
        let args = strings(&["net.txt", "--seed", "7", "--max-size", "32"]);
        let flags = Flags::parse(&args).unwrap();
        assert_eq!(flags.positional, vec!["net.txt"]);
        assert_eq!(flags.get("seed"), Some("7"));
        assert_eq!(flags.get_parsed::<usize>("max-size", 64).unwrap(), 32);
        assert_eq!(flags.get_parsed::<usize>("absent", 64).unwrap(), 64);
    }

    #[test]
    fn flags_report_missing_values() {
        let args = strings(&["--seed"]);
        assert!(Flags::parse(&args).unwrap_err().contains("--seed"));
    }

    #[test]
    fn repeated_flags_take_the_last_value() {
        let args = strings(&["--seed", "1", "--seed", "2"]);
        let flags = Flags::parse(&args).unwrap();
        assert_eq!(flags.get("seed"), Some("2"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run(&strings(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn gen_map_compare_roundtrip() {
        let dir = std::env::temp_dir().join("autoncs_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let net_path = dir.join("net.txt");
        let net_str = net_path.to_str().unwrap().to_string();
        run(&strings(&[
            "gen",
            "--kind",
            "clusters",
            "--neurons",
            "48",
            "--out",
            &net_str,
        ]))
        .unwrap();
        run(&strings(&["map", &net_str, "--max-size", "24"])).unwrap();
        let trace_path = dir.join("trace.csv");
        run(&strings(&[
            "map",
            &net_str,
            "--max-size",
            "24",
            "--trace",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.starts_with("iteration,"));
        assert!(trace.lines().count() > 1);
    }

    #[test]
    fn compare_and_implement_run_end_to_end() {
        let dir = std::env::temp_dir().join("autoncs_cli_impl_test");
        std::fs::create_dir_all(&dir).unwrap();
        let net_path = dir.join("net.txt");
        let net_str = net_path.to_str().unwrap().to_string();
        run(&strings(&[
            "gen",
            "--kind",
            "clusters",
            "--neurons",
            "40",
            "--out",
            &net_str,
        ]))
        .unwrap();
        run(&strings(&["compare", &net_str, "--max-size", "16"])).unwrap();
        let prefix = dir.join("design");
        let prefix_str = prefix.to_str().unwrap().to_string();
        run(&strings(&[
            "implement",
            &net_str,
            "--max-size",
            "16",
            "--out-prefix",
            &prefix_str,
        ]))
        .unwrap();
        let placement = std::fs::read(format!("{prefix_str}_placement.ppm")).unwrap();
        assert!(placement.starts_with(b"P6\n"));
        let congestion = std::fs::read(format!("{prefix_str}_congestion.ppm")).unwrap();
        assert!(congestion.starts_with(b"P6\n"));
    }

    #[test]
    fn unknown_flags_are_errors_that_name_the_flag() {
        let dir = std::env::temp_dir().join("autoncs_cli_unknown_flag_test");
        std::fs::create_dir_all(&dir).unwrap();
        let net_path = dir.join("net.txt");
        let net_str = net_path.to_str().unwrap().to_string();
        run(&strings(&[
            "gen",
            "--kind",
            "clusters",
            "--neurons",
            "40",
            "--out",
            &net_str,
        ]))
        .unwrap();
        for (args, flag) in [
            (
                vec!["implement", &net_str, "--placer", "nesterov"],
                "--placer",
            ),
            (vec!["map", &net_str, "--max_size", "16"], "--max_size"),
            (
                vec!["map", &net_str, "--max-size", "16", "--sed", "7"],
                "--sed",
            ),
            (
                vec!["compare", &net_str, "--out-prefix", "x"],
                "--out-prefix",
            ),
            (vec!["serve", "--seed", "7"], "--seed"),
        ] {
            let err = run(&strings(&args)).unwrap_err();
            assert!(err.contains(&format!("unknown flag {flag} ")), "{err}");
            assert!(err.contains("accepted: --"), "{err}");
        }
    }

    #[test]
    fn max_size_outside_the_paper_sizes_is_an_error_that_names_the_flag() {
        let dir = std::env::temp_dir().join("autoncs_cli_max_size_test");
        std::fs::create_dir_all(&dir).unwrap();
        let net_path = dir.join("net.txt");
        let net_str = net_path.to_str().unwrap().to_string();
        run(&strings(&[
            "gen",
            "--kind",
            "clusters",
            "--neurons",
            "96",
            "--clusters",
            "3",
            "--out",
            &net_str,
        ]))
        .unwrap();
        // Below 16, between two sizes, past the 64×64 limit, and a value
        // whose size range, were it expanded, would take gigabytes.
        for max_size in ["8", "30", "200", "4000000000"] {
            for command in ["map", "compare", "implement"] {
                let err = run(&strings(&[command, &net_str, "--max-size", max_size])).unwrap_err();
                assert!(
                    err.contains(&format!("bad --max-size {max_size}:")),
                    "{command}: {err}"
                );
            }
        }
    }

    #[test]
    fn help_lists_every_accepted_flag() {
        for flags in [
            GEN_FLAGS,
            MAP_FLAGS,
            COMPARE_FLAGS,
            IMPLEMENT_FLAGS,
            SERVE_FLAGS,
        ] {
            for flag in flags {
                assert!(HELP.contains(&format!("--{flag} ")), "--{flag}");
            }
        }
    }

    #[test]
    fn help_prints_without_error() {
        run(&strings(&["--help"])).unwrap();
        run(&strings(&["help"])).unwrap();
        assert!(HELP.contains("serve"));
    }

    #[test]
    fn serve_binds_and_answers_a_stats_request() {
        let dir = std::env::temp_dir().join("autoncs_cli_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let addr_file = dir.join("addr.txt");
        let addr_str = addr_file.to_str().unwrap().to_string();
        let args = strings(&["--cache-capacity", "8", "--addr-file", &addr_str]);
        let flags = Flags::parse(&args).unwrap();
        let mut server = serve_bind(&flags).unwrap();
        let written = std::fs::read_to_string(&addr_file).unwrap();
        assert_eq!(written.trim(), server.local_addr().to_string());
        let mut client = autoncs::serve::ServeClient::connect(server.local_addr()).unwrap();
        let stats = client.stats().unwrap();
        assert!(stats.contains("\"cache\""));
        server.shutdown();
    }

    #[test]
    fn serve_rejects_bad_flag_values() {
        let args = strings(&["--batch", "not-a-number"]);
        let flags = Flags::parse(&args).unwrap();
        match serve_bind(&flags) {
            Err(message) => assert!(message.contains("--batch"), "{message}"),
            Ok(_) => panic!("a malformed --batch value must be rejected"),
        }
    }

    #[test]
    fn serve_rejects_a_zero_batch_limit() {
        // A zero limit would admit no job, so the scheduler would spin
        // and every request hang: it must fail before binding.
        let args = strings(&["--batch", "0"]);
        let flags = Flags::parse(&args).unwrap();
        match serve_bind(&flags) {
            Err(message) => assert!(message.contains("--batch"), "{message}"),
            Ok(mut server) => {
                server.shutdown();
                panic!("--batch 0 must be rejected before binding");
            }
        }
    }

    #[test]
    fn gen_rejects_unknown_kind() {
        let err = run(&strings(&[
            "gen",
            "--kind",
            "nope",
            "--neurons",
            "10",
            "--out",
            "/tmp/x.txt",
        ]))
        .unwrap_err();
        assert!(err.contains("nope"));
    }

    #[test]
    fn map_reports_missing_file() {
        let err = run(&strings(&["map", "/definitely/not/there.txt"])).unwrap_err();
        assert!(err.contains("cannot open"));
    }
}
