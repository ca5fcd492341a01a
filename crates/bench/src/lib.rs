//! Shared helpers for the reproduction harness (`repro` binary) and the
//! in-tree benchmark runner (`bench` binary).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod memory;

pub use harness::{BenchGroup, BenchResult, Metric, StageTime};

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use ncs_net::Testbench;

/// Default seed used by every experiment so that reported numbers are
/// reproducible run to run.
pub const SEED: u64 = 42;

/// Builds paper testbench `id` with the default seed.
///
/// # Panics
///
/// Panics on an invalid id — the harness only ever passes 1..=3.
pub fn testbench(id: usize) -> Testbench {
    Testbench::paper(id, SEED).expect("paper testbench ids are 1..=3")
}

/// Returns (and creates) the output directory for experiment artifacts.
///
/// # Panics
///
/// Panics if the directory cannot be created.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Writes a text artifact (CSV or log) under `results/`, returning its
/// path.
///
/// # Panics
///
/// Panics on I/O errors — the harness treats artifact loss as fatal.
pub fn write_text(name: &str, contents: &str) -> PathBuf {
    let path = results_dir().join(name);
    let mut f = fs::File::create(&path).expect("create artifact file");
    f.write_all(contents.as_bytes()).expect("write artifact");
    path
}

/// Writes a raster artifact under `results/`, returning its path.
///
/// # Panics
///
/// Panics on I/O errors.
pub fn write_ppm(name: &str, raster: &autoncs::plot::Raster) -> PathBuf {
    let path = results_dir().join(name);
    let f = fs::File::create(&path).expect("create raster file");
    raster.write_ppm(f).expect("write raster");
    path
}

/// Pretty-prints the artifact path for harness logs.
pub fn report_artifact(path: &Path) {
    println!("  wrote {}", path.display());
}
