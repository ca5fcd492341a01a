//! `ncs-lint` — in-tree static analysis for the AutoNCS workspace.
//!
//! The AutoNCS reproduction pins its headline numbers to bit-identical
//! seeded runs (`tests/determinism.rs`), but end-to-end tests only catch
//! nondeterminism and panics *after* they land. This crate enforces the
//! underlying invariants statically, with zero dependencies (the
//! workspace builds offline against an empty registry):
//!
//! * **no-panic-paths** — no `unwrap()` / `expect()` / `panic!` /
//!   `todo!` / `unimplemented!` / `unreachable!` in non-test library
//!   code of the flow crates. Indexing (`[]`) gets a free pass.
//! * **deterministic-iteration** — no `HashMap` / `HashSet` in
//!   flow-path crates; `BTreeMap` / `BTreeSet` / indexed `Vec` only.
//! * **lossy-cast-audit** — `as` casts to sub-64-bit numeric types in
//!   numeric kernels need a waiver proving the range.
//! * **crate-hygiene** — every crate root carries
//!   `#![forbid(unsafe_code)]` and a `missing_docs` lint header.
//! * **float-eq** — no bare `==` / `!=` against float literals outside
//!   tests.
//! * **no-adhoc-threads** — `thread::spawn` / `thread::scope` /
//!   `thread::Builder` only inside `ncs-par`; everywhere else its
//!   `par_map_queue`.
//! * **no-adhoc-logging** — no `println!` / `eprintln!` in non-test
//!   library code of the flow crates; diagnostics go through the
//!   structured `ncs-trace` counters and spans (bin targets exempt).
//!
//! Findings are suppressed per-site with a waiver comment naming the
//! rule, on the same line or alone on the line above:
//!
//! ```text
//! // ncs-lint: allow(float-eq) — exact zero is the disabled sentinel
//! if stuck_on == 0.0 { ... }
//! ```
//!
//! # Examples
//!
//! ```
//! use ncs_lint::{lint_source, FileContext};
//!
//! let ctx = FileContext::strict("demo.rs");
//! let findings = lint_source("fn f(x: Option<u8>) { x.unwrap(); }", &ctx);
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, "no-panic-paths");
//! assert_eq!(findings[0].line, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;
pub mod syntax;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// How serious a finding is, driving exit-code policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Invariant violation: always fails the run.
    Error,
    /// Hygiene problem (e.g. a stale waiver): fails only under
    /// `--strict`.
    Warning,
}

impl Severity {
    /// Lower-case label used in JSON and GitHub-annotation output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One lint finding with a `file:line:col` span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule name (stable, kebab-case; used in waivers).
    pub rule: &'static str,
    /// Display path of the offending file.
    pub path: String,
    /// 1-indexed line.
    pub line: u32,
    /// 1-indexed column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
    /// Whether an `ncs-lint: allow(...)` waiver covers this finding.
    pub waived: bool,
    /// Error or warning.
    pub severity: Severity,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}[{}] {}{}",
            self.path,
            self.line,
            self.col,
            if self.severity == Severity::Warning {
                "warning: "
            } else {
                ""
            },
            self.rule,
            self.message,
            if self.waived { " (waived)" } else { "" }
        )
    }
}

impl Diagnostic {
    /// Renders the finding as one JSON object (machine-readable output).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"file\":\"{}\",\"line\":{},\"col\":{},\"rule\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\",\"waived\":{}}}",
            json_escape(&self.path),
            self.line,
            self.col,
            self.rule,
            self.severity.label(),
            json_escape(&self.message),
            self.waived
        )
    }

    /// Renders the finding as a GitHub workflow annotation
    /// (`::error file=…,line=…,col=…::message`), so findings surface
    /// inline on pull requests.
    pub fn to_github(&self) -> String {
        let kind = if self.waived {
            "notice"
        } else {
            self.severity.label()
        };
        format!(
            "::{} file={},line={},col={}::[{}] {}",
            kind, self.path, self.line, self.col, self.rule, self.message
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// How a file is classified for rule scoping.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Display path used in diagnostics.
    pub path: String,
    /// Directory name under `crates/` this file belongs to, if any.
    pub crate_name: Option<String>,
    /// Whether this is a crate root (`src/lib.rs`) subject to hygiene.
    pub is_crate_root: bool,
    /// Whether this is a binary target (`src/bin/*` or `src/main.rs`):
    /// CLI glue, exempt from the library panic-freedom rule.
    pub is_bin_target: bool,
    /// Whether the path itself is test code (`tests/`, `benches/`,
    /// `examples/`): token rules skip the whole file.
    pub is_test_code: bool,
    /// Strict mode (explicit CLI paths, fixtures): every rule applies
    /// regardless of crate scoping.
    pub strict: bool,
}

impl FileContext {
    /// Classifies `path` for a workspace scan (crate-scoped rules).
    pub fn for_workspace_file(path: &Path) -> Self {
        let display = path.display().to_string().replace('\\', "/");
        let components: Vec<&str> = display.split('/').collect();
        let crate_name = components
            .iter()
            .position(|c| *c == "crates")
            .and_then(|i| components.get(i + 1))
            .map(|s| s.to_string());
        let file_name = components.last().copied().unwrap_or("");
        let parent = components.len().checked_sub(2).map(|i| components[i]);
        let is_crate_root = file_name == "lib.rs" && parent == Some("src");
        let is_bin_target = file_name == "main.rs" || parent == Some("bin");
        let is_test_code = components
            .iter()
            .any(|c| *c == "tests" || *c == "benches" || *c == "examples");
        FileContext {
            path: display,
            crate_name,
            is_crate_root,
            is_bin_target,
            is_test_code,
            strict: false,
        }
    }

    /// Strict classification (explicit paths / fixtures): all rules
    /// apply; hygiene applies to any file named `lib.rs`. The crate
    /// name — which scopes the `crate-layering` DAG — is taken from the
    /// component after the *last* `crates/` in the path, so layering
    /// fixtures under `fixtures/crates/<name>/src/` classify as crate
    /// `<name>` even though the fixture itself lives inside
    /// `crates/lint`.
    pub fn strict(path: impl Into<String>) -> Self {
        let display = path.into().replace('\\', "/");
        let is_crate_root = display.ends_with("lib.rs");
        let components: Vec<&str> = display.split('/').collect();
        let crate_name = components
            .iter()
            .rposition(|c| *c == "crates")
            .and_then(|i| components.get(i + 1))
            .map(|s| (*s).to_string());
        FileContext {
            path: display,
            crate_name,
            is_crate_root,
            is_bin_target: false,
            is_test_code: false,
            strict: true,
        }
    }
}

/// Lints one source string under the given context.
pub fn lint_source(source: &str, ctx: &FileContext) -> Vec<Diagnostic> {
    rules::check_file(&lexer::lex(source), ctx)
}

/// Lints one file on disk.
///
/// # Errors
///
/// Returns the underlying [`io::Error`] if the file cannot be read.
pub fn lint_file(path: &Path, ctx: &FileContext) -> io::Result<Vec<Diagnostic>> {
    let source = fs::read_to_string(path)?;
    Ok(lint_source(&source, ctx))
}

/// Recursively collects `.rs` files under `dir`, sorted for
/// deterministic output.
///
/// # Errors
///
/// Returns the underlying [`io::Error`] on unreadable directories.
pub fn collect_rust_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Finds the workspace root by walking up from `start` until a
/// `Cargo.toml` containing `[workspace]` appears.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(contents) = fs::read_to_string(&manifest) {
            if contents.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Lints every `crates/*/src/**/*.rs` file under `root` with
/// crate-scoped rules. Diagnostics use paths relative to `root`.
///
/// # Errors
///
/// Returns the underlying [`io::Error`] on unreadable files.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let crates_dir = root.join("crates");
    let mut diagnostics = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        for file in collect_rust_files(&src)? {
            let rel = file.strip_prefix(root).unwrap_or(&file);
            let ctx = FileContext::for_workspace_file(rel);
            diagnostics.extend(lint_file(&file, &ctx)?);
        }
    }
    Ok(diagnostics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_classification() {
        let ctx = FileContext::for_workspace_file(Path::new("crates/phys/src/place.rs"));
        assert_eq!(ctx.crate_name.as_deref(), Some("phys"));
        assert!(!ctx.is_crate_root && !ctx.is_bin_target && !ctx.is_test_code);

        let root = FileContext::for_workspace_file(Path::new("crates/net/src/lib.rs"));
        assert!(root.is_crate_root);

        let bin = FileContext::for_workspace_file(Path::new("crates/core/src/bin/autoncs.rs"));
        assert!(bin.is_bin_target);

        let test = FileContext::for_workspace_file(Path::new("crates/net/tests/proptests.rs"));
        assert!(test.is_test_code);
    }

    #[test]
    fn strict_classification_marks_lib_roots() {
        assert!(FileContext::strict("fixtures/bad_root/src/lib.rs").is_crate_root);
        assert!(!FileContext::strict("fixtures/clean.rs").is_crate_root);
    }

    #[test]
    fn diagnostics_render_text_json_and_github() {
        let d = Diagnostic {
            rule: "float-eq",
            path: "a.rs".to_string(),
            line: 3,
            col: 7,
            message: "bare `==` on a float".to_string(),
            waived: false,
            severity: Severity::Error,
        };
        assert_eq!(d.to_string(), "a.rs:3:7: [float-eq] bare `==` on a float");
        assert_eq!(
            d.to_json(),
            "{\"file\":\"a.rs\",\"line\":3,\"col\":7,\"rule\":\"float-eq\",\
             \"severity\":\"error\",\
             \"message\":\"bare `==` on a float\",\"waived\":false}"
        );
        assert_eq!(
            d.to_github(),
            "::error file=a.rs,line=3,col=7::[float-eq] bare `==` on a float"
        );
        let w = Diagnostic {
            severity: Severity::Warning,
            ..d
        };
        assert_eq!(
            w.to_string(),
            "a.rs:3:7: warning: [float-eq] bare `==` on a float"
        );
        assert!(w.to_github().starts_with("::warning "));
    }

    #[test]
    fn strict_derives_crate_name_from_last_crates_component() {
        let ctx = FileContext::strict("crates/lint/tests/fixtures/crates/net/src/bad.rs");
        assert_eq!(ctx.crate_name.as_deref(), Some("net"));
        assert!(FileContext::strict("fixtures/clean.rs")
            .crate_name
            .is_none());
    }
}
