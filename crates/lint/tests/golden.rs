//! Golden-diagnostics tests for `ncs-lint`: every rule is pinned to the
//! exact findings (file:line:col + message) it produces on the seeded
//! fixture files, and the CLI is exercised end to end — including the
//! workspace self-check that makes linting part of the tier-1 suite.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use ncs_lint::{lint_source, FileContext};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Lints a fixture with a short display name so expected strings stay
/// path-independent.
fn rendered(fixture: &str) -> Vec<String> {
    let source = fs::read_to_string(fixture_dir().join(fixture)).expect("fixture readable");
    let ctx = FileContext::strict(fixture);
    lint_source(&source, &ctx)
        .iter()
        .map(ToString::to_string)
        .collect()
}

#[test]
fn golden_no_panic_paths() {
    assert_eq!(
        rendered("violations_panic.rs"),
        [
            "violations_panic.rs:4:15: [no-panic-paths] .unwrap() can panic; return a Result \
             (the crate has an error module) or waive a proven invariant",
            "violations_panic.rs:5:15: [no-panic-paths] .expect() can panic; return a Result \
             (the crate has an error module) or waive a proven invariant",
            "violations_panic.rs:7:9: [no-panic-paths] panic! aborts the flow; return an \
             error or waive a proven invariant",
            "violations_panic.rs:9:5: [no-panic-paths] todo! aborts the flow; return an \
             error or waive a proven invariant",
        ]
    );
}

#[test]
fn golden_deterministic_iteration() {
    assert_eq!(
        rendered("violations_hash.rs"),
        [
            "violations_hash.rs:3:23: [deterministic-iteration] HashMap iteration order is \
             nondeterministic; use BTreeMap/BTreeSet or an indexed Vec",
            "violations_hash.rs:4:23: [deterministic-iteration] HashSet iteration order is \
             nondeterministic; use BTreeMap/BTreeSet or an indexed Vec",
            "violations_hash.rs:7:14: [deterministic-iteration] HashSet iteration order is \
             nondeterministic; use BTreeMap/BTreeSet or an indexed Vec",
        ]
    );
}

#[test]
fn golden_lossy_cast_audit() {
    // `as f64` / `as usize` on lines 6-7 must NOT appear.
    assert_eq!(
        rendered("violations_cast.rs"),
        [
            "violations_cast.rs:4:23: [lossy-cast-audit] `as f32` narrows a numeric value; \
             prove the range and waive, or widen the type",
            "violations_cast.rs:5:22: [lossy-cast-audit] `as u16` narrows a numeric value; \
             prove the range and waive, or widen the type",
            "violations_cast.rs:8:23: [lossy-cast-audit] `as f32` narrows a numeric value; \
             prove the range and waive, or widen the type",
        ]
    );
}

#[test]
fn golden_float_eq() {
    assert_eq!(
        rendered("violations_float_eq.rs"),
        [
            "violations_float_eq.rs:4:7: [float-eq] bare `==` on a float; compare with a \
             tolerance, or waive an exact sentinel check",
            "violations_float_eq.rs:8:9: [float-eq] bare `!=` on a float; compare with a \
             tolerance, or waive an exact sentinel check",
            "violations_float_eq.rs:8:19: [float-eq] bare `==` on a float; compare with a \
             tolerance, or waive an exact sentinel check",
        ]
    );
}

#[test]
fn golden_no_adhoc_threads() {
    assert_eq!(
        rendered("violations_threads.rs"),
        [
            "violations_threads.rs:6:26: [no-adhoc-threads] thread::spawn outside ncs-par \
             bypasses the deterministic chunking contract; use the ncs_par primitives",
            "violations_threads.rs:7:32: [no-adhoc-threads] thread::Builder outside ncs-par \
             bypasses the deterministic chunking contract; use the ncs_par primitives",
            "violations_threads.rs:9:13: [no-adhoc-threads] thread::scope outside ncs-par \
             bypasses the deterministic chunking contract; use the ncs_par primitives",
        ]
    );
}

#[test]
fn golden_no_adhoc_logging() {
    // `writeln!` into a buffer and `format!` on lines 10-11 must NOT
    // appear — only the terminal-stream macros are ad-hoc logging.
    assert_eq!(
        rendered("violations_logging.rs"),
        [
            "violations_logging.rs:4:5: [no-adhoc-logging] println! prints ad-hoc text from \
             library code; record an ncs_trace counter/span or move the output into a bin \
             target",
            "violations_logging.rs:5:5: [no-adhoc-logging] eprintln! prints ad-hoc text from \
             library code; record an ncs_trace counter/span or move the output into a bin \
             target",
        ]
    );
}

#[test]
fn golden_crate_hygiene() {
    assert_eq!(
        rendered("bad_root/src/lib.rs"),
        [
            "bad_root/src/lib.rs:1:1: [crate-hygiene] crate root is missing \
             #![forbid(unsafe_code)]",
            "bad_root/src/lib.rs:1:1: [crate-hygiene] crate root is missing a missing_docs \
             lint header (e.g. #![warn(missing_docs)])",
        ]
    );
}

#[test]
fn golden_no_wallclock() {
    assert_eq!(
        rendered("violations_wallclock.rs"),
        [
            "violations_wallclock.rs:3:16: [no-wallclock] Instant reads the wall clock; \
             flow code must be a pure function of its inputs — time things in ncs-bench \
             or ncs-trace",
            "violations_wallclock.rs:6:14: [no-wallclock] Instant reads the wall clock; \
             flow code must be a pure function of its inputs — time things in ncs-bench \
             or ncs-trace",
            "violations_wallclock.rs:10:28: [no-wallclock] SystemTime reads the wall clock; \
             flow code must be a pure function of its inputs — time things in ncs-bench \
             or ncs-trace",
            "violations_wallclock.rs:11:16: [no-wallclock] SystemTime reads the wall clock; \
             flow code must be a pure function of its inputs — time things in ncs-bench \
             or ncs-trace",
        ]
    );
}

#[test]
fn golden_env_read_audit() {
    // `env!("...")` and the local binding named `env` must NOT appear.
    assert_eq!(
        rendered("violations_env.rs"),
        [
            "violations_env.rs:4:10: [env-read-audit] std::env read outside the designated \
             config modules; thread the setting through as an argument so runs replay from \
             inputs alone",
            "violations_env.rs:7:11: [env-read-audit] std::env read outside the designated \
             config modules; thread the setting through as an argument so runs replay from \
             inputs alone",
        ]
    );
}

#[test]
fn golden_crate_layering() {
    // `use ncs_linalg` (a forward edge) and `use std` must NOT appear.
    assert_eq!(
        rendered("crates/net/src/bad_layering.rs"),
        [
            "crates/net/src/bad_layering.rs:4:1: [crate-layering] crate `net` may not \
             import `ncs_phys`: back-edge in the crate DAG (allowed: linalg, rng)",
        ]
    );
}

#[test]
fn golden_alloc_in_hot_loop() {
    // The identical loop in unmarked `cold` must NOT appear.
    assert_eq!(
        rendered("violations_hot_alloc.rs"),
        [
            "violations_hot_alloc.rs:8:27: [alloc-in-hot-loop] `to_vec` allocates inside a \
             loop of hot kernel `kernel`; hoist the buffer out of the loop or reuse a \
             scratch allocation",
            "violations_hot_alloc.rs:9:25: [alloc-in-hot-loop] `Vec` allocates inside a \
             loop of hot kernel `kernel`; hoist the buffer out of the loop or reuse a \
             scratch allocation",
            "violations_hot_alloc.rs:11:18: [alloc-in-hot-loop] `vec` allocates inside a \
             loop of hot kernel `kernel`; hoist the buffer out of the loop or reuse a \
             scratch allocation",
        ]
    );
}

#[test]
fn golden_stale_waiver() {
    // The live float-eq waiver on line 10 must NOT be reported stale;
    // stale/typo'd waivers come out as warnings, not errors.
    assert_eq!(
        rendered("violations_stale_waiver.rs"),
        [
            "violations_stale_waiver.rs:11:10: [float-eq] bare `==` on a float; compare \
             with a tolerance, or waive an exact sentinel check (waived)",
            "violations_stale_waiver.rs:4:1: warning: [stale-waiver] waiver for \
             `no-panic-paths` suppresses nothing on this line; remove it",
            "violations_stale_waiver.rs:5:1: warning: [stale-waiver] waiver names unknown \
             rule `flaot-eq` (see --list-rules)",
        ]
    );
}

// ---------------------------------------------------------------------
// Structure dumps: token trees and the item outline
// ---------------------------------------------------------------------

#[test]
fn golden_item_outline_dump() {
    let source =
        fs::read_to_string(fixture_dir().join("outline_demo.rs")).expect("fixture readable");
    let syn = ncs_lint::syntax::analyze(&ncs_lint::lexer::lex(&source));
    assert_eq!(
        ncs_lint::syntax::render_outline(&syn.items),
        concat!(
            "use std @3\n",
            "struct Wire @5\n",
            "impl Wire @9\n",
            "  fn fmt @10\n",
            "mod inner @15\n",
            "  const LIMIT @16\n",
            "  fn helper @18\n",
            "fn top @23\n",
        )
    );
}

#[test]
fn golden_token_tree_dump() {
    let source = fs::read_to_string(fixture_dir().join("tree_demo.rs")).expect("fixture readable");
    let lexed = ncs_lint::lexer::lex(&source);
    assert_eq!(
        ncs_lint::syntax::render_token_trees(&lexed.tokens),
        concat!(
            "Ident `fn` @1\n",
            "Ident `f` @1\n",
            "group ( @1\n",
            "  Ident `a` @1\n",
            "  Punct `:` @1\n",
            "  Ident `usize` @1\n",
            "Punct `-` @1\n",
            "Punct `>` @1\n",
            "Ident `usize` @1\n",
            "group { @1\n",
            "  Ident `g` @2\n",
            "  group ( @2\n",
            "    Ident `a` @2\n",
            "    Punct `,` @2\n",
            "    group [ @2\n",
            "      Int `1` @2\n",
            "      Punct `,` @2\n",
            "      Int `2` @2\n",
        )
    );
}

#[test]
fn golden_waived_fixture_is_fully_waived() {
    let all = rendered("waived.rs");
    assert_eq!(all.len(), 5, "expected 5 waived findings, got: {all:#?}");
    assert!(
        all.iter().all(|d| d.ends_with(" (waived)")),
        "unwaived finding in waived.rs: {all:#?}"
    );
}

#[test]
fn golden_clean_fixture_has_no_findings() {
    assert_eq!(rendered("clean.rs"), [] as [&str; 0]);
}

// ---------------------------------------------------------------------
// CLI end-to-end
// ---------------------------------------------------------------------

fn lint_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ncs-lint"))
}

#[test]
fn cli_violation_fixtures_exit_nonzero() {
    for fixture in [
        "violations_panic.rs",
        "violations_hash.rs",
        "violations_cast.rs",
        "violations_float_eq.rs",
        "violations_threads.rs",
        "violations_logging.rs",
        "bad_root/src/lib.rs",
        "violations_wallclock.rs",
        "violations_env.rs",
        "violations_hot_alloc.rs",
        "crates/net/src/bad_layering.rs",
    ] {
        let out = lint_cmd()
            .arg(fixture_dir().join(fixture))
            .output()
            .expect("ncs-lint runs");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{fixture} should exit 1; stdout: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn cli_clean_and_waived_fixtures_exit_zero() {
    for fixture in ["clean.rs", "waived.rs"] {
        let out = lint_cmd()
            .arg(fixture_dir().join(fixture))
            .output()
            .expect("ncs-lint runs");
        assert_eq!(
            out.status.code(),
            Some(0),
            "{fixture} should exit 0; stdout: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn cli_json_output_is_machine_readable() {
    let out = lint_cmd()
        .args(["--format", "json"])
        .arg(fixture_dir().join("violations_float_eq.rs"))
        .output()
        .expect("ncs-lint runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim().starts_with('[') && stdout.trim().ends_with(']'));
    assert_eq!(stdout.matches("\"rule\":\"float-eq\"").count(), 3);
    assert_eq!(stdout.matches("\"waived\":false").count(), 3);
}

#[test]
fn cli_show_waived_reveals_suppressed_findings() {
    let target = fixture_dir().join("waived.rs");
    let quiet = lint_cmd().arg(&target).output().expect("ncs-lint runs");
    assert_eq!(String::from_utf8_lossy(&quiet.stdout).lines().count(), 0);
    let verbose = lint_cmd()
        .arg("--show-waived")
        .arg(&target)
        .output()
        .expect("ncs-lint runs");
    let shown = String::from_utf8_lossy(&verbose.stdout);
    assert_eq!(shown.lines().count(), 5, "stdout: {shown}");
    assert!(shown.lines().all(|l| l.ends_with(" (waived)")));
}

#[test]
fn cli_github_format_emits_annotations() {
    let out = lint_cmd()
        .args(["--format", "github"])
        .arg(fixture_dir().join("violations_float_eq.rs"))
        .output()
        .expect("ncs-lint runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let annotations: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("::error file="))
        .collect();
    assert_eq!(annotations.len(), 3, "stdout: {stdout}");
    assert!(
        annotations[0].contains(",line=4,col=7::[float-eq]"),
        "stdout: {stdout}"
    );
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn cli_stale_waivers_are_warnings_gated_by_strict() {
    let target = fixture_dir().join("violations_stale_waiver.rs");
    let lenient = lint_cmd().arg(&target).output().expect("ncs-lint runs");
    assert_eq!(
        lenient.status.code(),
        Some(0),
        "warnings alone must not fail without --strict; stdout: {}",
        String::from_utf8_lossy(&lenient.stdout)
    );
    let strict = lint_cmd()
        .arg("--strict")
        .arg(&target)
        .output()
        .expect("ncs-lint runs");
    assert_eq!(strict.status.code(), Some(1));
    let github = lint_cmd()
        .args(["--format", "github", "--strict"])
        .arg(&target)
        .output()
        .expect("ncs-lint runs");
    let stdout = String::from_utf8_lossy(&github.stdout);
    assert_eq!(
        stdout
            .lines()
            .filter(|l| l.starts_with("::warning file="))
            .count(),
        2,
        "stdout: {stdout}"
    );
}

#[test]
fn cli_usage_error_exits_two() {
    let unknown = lint_cmd().arg("--bogus").output().expect("ncs-lint runs");
    assert_eq!(unknown.status.code(), Some(2));
    let bad_format = lint_cmd()
        .args(["--format", "yaml"])
        .output()
        .expect("ncs-lint runs");
    assert_eq!(bad_format.status.code(), Some(2));
}

/// The workspace self-check: the tree this test runs in must itself be
/// lint-clean. This is what turns `ncs-lint` into a tier-1 gate —
/// `cargo test` fails if anyone lands an unwaivered violation.
#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root");
    let out = lint_cmd()
        .args(["--workspace", "--strict"])
        .current_dir(root)
        .output()
        .expect("ncs-lint runs");
    assert!(
        out.status.success(),
        "workspace lint failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
