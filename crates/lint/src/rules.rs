//! The rule registry: every invariant `ncs-lint` enforces.
//!
//! Rules come in two layers. *Lexical* rules walk the token stream of
//! one file (plus its [`FileContext`]) and emit [`Diagnostic`]s; they
//! never see comments or string contents — the lexer already classified
//! those — so `"unwrap"` in a doc example or a format string is never a
//! finding. *Semantic* rules additionally consume the [`crate::syntax`]
//! layer (call expressions, `use` roots, loop spans, hot functions) for
//! invariants a flat stream cannot express: the crate-layering DAG,
//! wall-clock and environment-read confinement, and allocation inside
//! hot loops.
//!
//! A final meta-check, `stale-waiver`, flags `ncs-lint: allow(...)`
//! comments that no longer suppress anything (severity warning — fails
//! only under `--strict`).

use std::collections::BTreeSet;

use crate::lexer::{LexedFile, Token, TokenKind};
use crate::syntax::{self, Syntax};
use crate::{Diagnostic, FileContext, Severity};

/// Crates whose non-test library code must be panic-free.
pub const PANIC_FREE_CRATES: &[&str] = &[
    "linalg", "cluster", "net", "phys", "xbar", "tech", "core", "serve",
];

/// Flow-path crates where hash collections are banned (iteration order
/// would leak into mapping/placement/routing statistics).
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "linalg", "cluster", "net", "phys", "xbar", "tech", "core", "serve",
];

/// Numeric-kernel crates where narrowing `as` casts need a waiver.
pub const NUMERIC_CRATES: &[&str] = &["linalg", "cluster", "xbar", "phys", "tech"];

/// Method calls that introduce panic paths.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Macros that introduce panic paths.
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];

/// Banned hash-collection type names.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Thread-spawning entry points banned outside `crates/par`.
const THREAD_ENTRY_POINTS: &[&str] = &["spawn", "scope", "Builder"];

/// Terminal-printing macros banned in flow-crate library code.
const LOG_MACROS: &[&str] = &["println", "eprintln"];

/// Cast targets considered lossy in numeric kernels: every float/int
/// type narrower than 64 bits. (`as f64` / `as i64` / `as usize` pass:
/// index math and float widening are pervasive and reviewed case by
/// case; the narrow targets are where silent precision loss hides.)
const NARROW_TARGETS: &[&str] = &["f32", "i8", "i16", "i32", "u8", "u16", "u32"];

/// Wall-clock types banned outside `ncs-bench` / `ncs-trace`: flow
/// kernels that read time produce timing-dependent (nondeterministic)
/// behavior or smuggle benchmarking into library code.
const WALLCLOCK_TYPES: &[&str] = &["Instant", "SystemTime"];

/// Crates allowed to read the wall clock.
const WALLCLOCK_CRATES: &[&str] = &["bench", "trace"];

/// The designated configuration modules allowed to read `std::env`.
/// Everything else must take configuration as arguments so runs stay
/// reproducible from their inputs alone (bin targets are exempt).
const ENV_ALLOWED_FILES: &[&str] = &[
    "crates/par/src/lib.rs",
    "crates/trace/src/lib.rs",
    "crates/bench/src/harness.rs",
];

/// The crate-layering DAG: for each crate, the `ncs_*` crates it may
/// import (`use ncs_x::...`). Mirrors the workspace `Cargo.toml` reality
/// of core→flow→numerics→infrastructure; a `use` outside this list is a
/// back-edge that would let a lower layer grow an upward dependency.
/// Self-imports and `std`/`crate`/`super` roots are always allowed;
/// `autoncs` is the `core` crate's library name.
const CRATE_LAYERS: &[(&str, &[&str])] = &[
    ("rng", &[]),
    ("tech", &[]),
    ("trace", &[]),
    ("lint", &[]),
    ("par", &[]),
    ("linalg", &["trace", "rng"]),
    ("net", &["linalg", "rng"]),
    ("xbar", &["linalg", "rng"]),
    ("cluster", &["linalg", "net", "rng", "trace"]),
    (
        "phys",
        &["trace", "linalg", "tech", "cluster", "net", "rng"],
    ),
    (
        "serve",
        &[
            "par", "trace", "linalg", "tech", "cluster", "net", "rng", "phys",
        ],
    ),
    (
        "core",
        &[
            "trace", "linalg", "tech", "cluster", "net", "xbar", "rng", "phys", "serve",
        ],
    ),
    (
        "bench",
        &[
            "trace", "linalg", "tech", "cluster", "net", "xbar", "rng", "phys", "core", "serve",
        ],
    ),
];

/// Static description of one lint rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable kebab-case name (used in waivers and diagnostics).
    pub name: &'static str,
    /// One-line human description.
    pub summary: &'static str,
}

/// Every rule, in evaluation order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "no-panic-paths",
        summary: "no unwrap()/expect()/panic!/todo!/unimplemented!/unreachable! in \
                  non-test library code of the flow crates",
    },
    Rule {
        name: "deterministic-iteration",
        summary: "no HashMap/HashSet in flow-path crates; use BTreeMap/BTreeSet or \
                  indexed Vec so iteration order is reproducible",
    },
    Rule {
        name: "lossy-cast-audit",
        summary: "casts to sub-64-bit numeric types (f32, i8..i32, u8..u32) in \
                  numeric kernels require an explicit waiver",
    },
    Rule {
        name: "crate-hygiene",
        summary: "crate roots must carry #![forbid(unsafe_code)] and a \
                  missing_docs lint header",
    },
    Rule {
        name: "float-eq",
        summary: "no bare ==/!= against float literals outside tests; compare \
                  with a tolerance or waive exact sentinel checks",
    },
    Rule {
        name: "no-adhoc-threads",
        summary: "thread::spawn/scope/Builder only inside ncs-par; everywhere \
                  else use its order-preserving par_map_queue",
    },
    Rule {
        name: "no-adhoc-logging",
        summary: "no println!/eprintln! in non-test library code of the flow \
                  crates; record ncs-trace counters/spans instead (bin \
                  targets are exempt)",
    },
    Rule {
        name: "no-wallclock",
        summary: "Instant/SystemTime banned outside ncs-bench/ncs-trace; flow \
                  kernels must be a pure function of their inputs",
    },
    Rule {
        name: "env-read-audit",
        summary: "std::env reads confined to the designated config modules \
                  (ncs-par thread resolution, ncs-trace gating, the \
                  bench harness) and bin targets",
    },
    Rule {
        name: "crate-layering",
        summary: "use declarations and qualified call paths must follow the \
                  crate DAG (core -> flow -> numerics -> infrastructure); no \
                  back-edges",
    },
    Rule {
        name: "alloc-in-hot-loop",
        summary: "no Vec::new/vec![]/to_vec inside loops of functions marked \
                  `// ncs-lint: hot`; hoist or reuse scratch buffers",
    },
];

/// Runs every applicable rule over one lexed file.
pub fn check_file(lexed: &LexedFile, ctx: &FileContext) -> Vec<Diagnostic> {
    let mut raw = Vec::new();
    if applies_to_crate(ctx, PANIC_FREE_CRATES) && !ctx.is_bin_target && !ctx.is_test_code {
        no_panic_paths(lexed, ctx, &mut raw);
        no_adhoc_logging(lexed, ctx, &mut raw);
    }
    if applies_to_crate(ctx, DETERMINISTIC_CRATES) && !ctx.is_test_code {
        deterministic_iteration(lexed, ctx, &mut raw);
    }
    if applies_to_crate(ctx, NUMERIC_CRATES) && !ctx.is_test_code {
        lossy_cast_audit(lexed, ctx, &mut raw);
    }
    if ctx.is_crate_root {
        crate_hygiene(lexed, ctx, &mut raw);
    }
    if !ctx.is_test_code {
        float_eq(lexed, ctx, &mut raw);
    }
    if ctx.crate_name.as_deref() != Some("par") && !ctx.is_test_code {
        no_adhoc_threads(lexed, ctx, &mut raw);
    }
    // Semantic rules: consume the syntax layer.
    let syn = syntax::analyze(lexed);
    if !ctx.is_test_code {
        if ctx.strict
            || !ctx
                .crate_name
                .as_deref()
                .is_some_and(|c| WALLCLOCK_CRATES.contains(&c))
        {
            no_wallclock(lexed, ctx, &mut raw);
        }
        if !ctx.is_bin_target {
            env_read_audit(lexed, ctx, &mut raw);
        }
        crate_layering(&syn, ctx, &mut raw);
        alloc_in_hot_loop(&syn, lexed, ctx, &mut raw);
    }
    // Apply waivers last so every rule shares the same mechanism.
    for d in &mut raw {
        d.waived = lexed.is_waived(d.rule, d.line);
    }
    stale_waivers(lexed, ctx, &mut raw);
    raw
}

/// Whether a crate-scoped rule applies to this file.
fn applies_to_crate(ctx: &FileContext, crates: &[&str]) -> bool {
    if ctx.strict {
        return true;
    }
    match &ctx.crate_name {
        Some(name) => crates.contains(&name.as_str()),
        None => false,
    }
}

fn diag(ctx: &FileContext, rule: &'static str, tok: &Token, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        path: ctx.path.clone(),
        line: tok.line,
        col: tok.col,
        message,
        waived: false,
        severity: Severity::Error,
    }
}

/// `no-panic-paths`: `.unwrap()` / `.expect(` method calls and
/// `panic!` / `todo!` / `unimplemented!` / `unreachable!` macros.
/// Slice indexing (`[]`) gets a free pass — index invariants are local
/// and `get`-chains everywhere would obscure the kernels.
fn no_panic_paths(lexed: &LexedFile, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        if PANIC_METHODS.contains(&name)
            && i > 0
            && is_punct(&toks[i - 1], ".")
            && next_is_punct(toks, i + 1, "(")
        {
            out.push(diag(
                ctx,
                "no-panic-paths",
                t,
                format!(".{name}() can panic; return a Result (the crate has an error module) or waive a proven invariant"),
            ));
        } else if PANIC_MACROS.contains(&name) && next_is_punct(toks, i + 1, "!") {
            out.push(diag(
                ctx,
                "no-panic-paths",
                t,
                format!("{name}! aborts the flow; return an error or waive a proven invariant"),
            ));
        }
    }
}

/// `deterministic-iteration`: any mention of `HashMap` / `HashSet`.
fn deterministic_iteration(lexed: &LexedFile, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    for t in &lexed.tokens {
        if t.in_test || t.kind != TokenKind::Ident {
            continue;
        }
        if HASH_TYPES.contains(&t.text.as_str()) {
            out.push(diag(
                ctx,
                "deterministic-iteration",
                t,
                format!(
                    "{} iteration order is nondeterministic; use BTreeMap/BTreeSet or an indexed Vec",
                    t.text
                ),
            ));
        }
    }
}

/// `lossy-cast-audit`: `as <narrow numeric type>`.
fn lossy_cast_audit(lexed: &LexedFile, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokenKind::Ident || t.text != "as" {
            continue;
        }
        if let Some(target) = toks.get(i + 1) {
            if target.kind == TokenKind::Ident && NARROW_TARGETS.contains(&target.text.as_str()) {
                out.push(diag(
                    ctx,
                    "lossy-cast-audit",
                    target,
                    format!(
                        "`as {}` narrows a numeric value; prove the range and waive, or widen the type",
                        target.text
                    ),
                ));
            }
        }
    }
}

/// `crate-hygiene`: crate roots need `#![forbid(unsafe_code)]` plus a
/// `missing_docs` lint header (`warn`, `deny`, or `forbid` level).
fn crate_hygiene(lexed: &LexedFile, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    let has_forbid_unsafe = has_inner_lint_attr(lexed, &["forbid"], "unsafe_code");
    let has_docs_lint = has_inner_lint_attr(lexed, &["warn", "deny", "forbid"], "missing_docs");
    let anchor = Token {
        kind: TokenKind::Punct,
        text: String::new(),
        line: 1,
        col: 1,
        in_test: false,
    };
    if !has_forbid_unsafe {
        out.push(diag(
            ctx,
            "crate-hygiene",
            &anchor,
            "crate root is missing #![forbid(unsafe_code)]".to_string(),
        ));
    }
    if !has_docs_lint {
        out.push(diag(
            ctx,
            "crate-hygiene",
            &anchor,
            "crate root is missing a missing_docs lint header (e.g. #![warn(missing_docs)])"
                .to_string(),
        ));
    }
}

/// Whether the file carries `#![<level>(<lint>)]` for one of `levels`.
fn has_inner_lint_attr(lexed: &LexedFile, levels: &[&str], lint: &str) -> bool {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if is_punct(&toks[i], "#")
            && next_is_punct(toks, i + 1, "!")
            && next_is_punct(toks, i + 2, "[")
            && toks
                .get(i + 3)
                .is_some_and(|t| t.kind == TokenKind::Ident && levels.contains(&t.text.as_str()))
            && next_is_punct(toks, i + 4, "(")
            && toks
                .get(i + 5)
                .is_some_and(|t| t.kind == TokenKind::Ident && t.text == lint)
        {
            return true;
        }
    }
    false
}

/// `float-eq`: `==` / `!=` directly adjacent to a float literal.
/// (A token-level heuristic: without type inference, literal adjacency
/// is the reliable signal — it catches the `x == 0.0` sentinel pattern
/// that dominates float comparisons in practice.)
fn float_eq(lexed: &LexedFile, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokenKind::Punct {
            continue;
        }
        if t.text != "==" && t.text != "!=" {
            continue;
        }
        let prev_float = i > 0 && toks[i - 1].kind == TokenKind::Float;
        // Allow a unary minus before the literal (`x == -1.0`).
        let next_float = match toks.get(i + 1) {
            Some(n) if n.kind == TokenKind::Float => true,
            Some(n) if is_punct(n, "-") => {
                toks.get(i + 2).is_some_and(|m| m.kind == TokenKind::Float)
            }
            _ => false,
        };
        if prev_float || next_float {
            out.push(diag(
                ctx,
                "float-eq",
                t,
                format!(
                    "bare `{}` on a float; compare with a tolerance, or waive an exact sentinel check",
                    t.text
                ),
            ));
        }
    }
}

/// `no-adhoc-threads`: `thread::spawn` / `thread::scope` /
/// `thread::Builder` outside the `par` crate. Ad-hoc threads bypass the
/// order-preserving contract that keeps results bit-identical across
/// `NCS_THREADS` settings — all parallelism must go through `ncs_par`.
/// (`::` lexes as two `:` puncts.)
fn no_adhoc_threads(lexed: &LexedFile, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokenKind::Ident || t.text != "thread" {
            continue;
        }
        if !(next_is_punct(toks, i + 1, ":") && next_is_punct(toks, i + 2, ":")) {
            continue;
        }
        if let Some(entry) = toks.get(i + 3) {
            if entry.kind == TokenKind::Ident && THREAD_ENTRY_POINTS.contains(&entry.text.as_str())
            {
                out.push(diag(
                    ctx,
                    "no-adhoc-threads",
                    entry,
                    format!(
                        "thread::{} outside ncs-par bypasses the deterministic chunking contract; use the ncs_par primitives",
                        entry.text
                    ),
                ));
            }
        }
    }
}

/// `no-adhoc-logging`: `println!` / `eprintln!` in flow-crate library
/// code. Kernel prints are invisible to callers, interleave
/// nondeterministically across worker threads, and duplicate state the
/// flow already tracks — diagnostics belong in `ncs_trace` counters and
/// spans, and terminal output in bin targets (which are exempt, like
/// test code).
fn no_adhoc_logging(lexed: &LexedFile, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokenKind::Ident {
            continue;
        }
        if LOG_MACROS.contains(&t.text.as_str()) && next_is_punct(toks, i + 1, "!") {
            out.push(diag(
                ctx,
                "no-adhoc-logging",
                t,
                format!(
                    "{}! prints ad-hoc text from library code; record an ncs_trace counter/span or move the output into a bin target",
                    t.text
                ),
            ));
        }
    }
}

/// `no-wallclock`: `Instant` / `SystemTime` mentions outside the two
/// crates whose job is timing.
fn no_wallclock(lexed: &LexedFile, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    for t in &lexed.tokens {
        if t.in_test || t.kind != TokenKind::Ident {
            continue;
        }
        if WALLCLOCK_TYPES.contains(&t.text.as_str()) {
            out.push(diag(
                ctx,
                "no-wallclock",
                t,
                format!(
                    "{} reads the wall clock; flow code must be a pure function of its \
                     inputs — time things in ncs-bench or ncs-trace",
                    t.text
                ),
            ));
        }
    }
}

/// `env-read-audit`: `std::env` access (`use std::env`, `env::var`,
/// `std::env::...`) outside the designated configuration modules.
fn env_read_audit(lexed: &LexedFile, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    if ENV_ALLOWED_FILES.iter().any(|f| ctx.path.ends_with(f)) {
        return;
    }
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokenKind::Ident || t.text != "env" {
            continue;
        }
        // `env!` / `option_env!` are compile-time macros, not reads.
        if next_is_punct(toks, i + 1, "!") {
            continue;
        }
        // An `env` path segment: `env::<member>` after, or `std::env`
        // before.
        let member_after = next_is_punct(toks, i + 1, ":") && next_is_punct(toks, i + 2, ":");
        let std_before = i >= 3
            && is_punct(&toks[i - 1], ":")
            && is_punct(&toks[i - 2], ":")
            && toks[i - 3].kind == TokenKind::Ident
            && toks[i - 3].text == "std";
        if member_after || std_before {
            out.push(diag(
                ctx,
                "env-read-audit",
                t,
                "std::env read outside the designated config modules; thread the \
                 setting through as an argument so runs replay from inputs alone"
                    .to_string(),
            ));
        }
    }
}

/// `crate-layering`: the `ncs_*` roots of `use` declarations and of
/// qualified call paths (`ncs_par::par_map(...)`, which needs no `use`)
/// must respect the DAG.
fn crate_layering(syn: &Syntax, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    let Some(crate_name) = ctx.crate_name.as_deref() else {
        return;
    };
    let Some(&(_, allowed)) = CRATE_LAYERS.iter().find(|(c, _)| *c == crate_name) else {
        return;
    };
    let uses = syn.uses.iter().map(|u| (&u.root, u.line, 1, u.in_test));
    let calls = syn
        .calls
        .iter()
        .filter(|c| c.path.len() > 1)
        .map(|c| (&c.path[0], c.line, c.col, c.in_test));
    for (root, line, col, in_test) in uses.chain(calls) {
        if in_test {
            continue;
        }
        let dep = match root.as_str() {
            "autoncs" => "core",
            r => match r.strip_prefix("ncs_") {
                Some(d) => d,
                None => continue, // std/crate/super/external-agnostic
            },
        };
        if dep == crate_name || allowed.contains(&dep) {
            continue;
        }
        let anchor = Token {
            kind: TokenKind::Ident,
            text: root.clone(),
            line,
            col,
            in_test: false,
        };
        out.push(diag(
            ctx,
            "crate-layering",
            &anchor,
            format!(
                "crate `{crate_name}` may not import `{root}`: back-edge in the crate \
                 DAG (allowed: {})",
                if allowed.is_empty() {
                    "none".to_string()
                } else {
                    allowed.join(", ")
                }
            ),
        ));
    }
}

/// `alloc-in-hot-loop`: `Vec::new` / `vec![...]` / `.to_vec()` inside a
/// loop body of a function marked `// ncs-lint: hot`.
fn alloc_in_hot_loop(
    syn: &Syntax,
    lexed: &LexedFile,
    ctx: &FileContext,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &lexed.tokens;
    for f in &syn.fns {
        if !f.is_hot || f.in_test {
            continue;
        }
        let Some((fb0, fb1)) = f.body else {
            continue;
        };
        // Union of loop-body token indices inside this fn (a token in
        // nested loops is still one site).
        let mut in_loop: BTreeSet<usize> = BTreeSet::new();
        for l in &syn.loops {
            let (lb0, lb1) = l.body;
            if lb0 > fb0 && lb1 < fb1 {
                in_loop.extend(lb0 + 1..lb1);
            }
        }
        for &i in &in_loop {
            let t = &toks[i];
            if t.kind != TokenKind::Ident {
                continue;
            }
            let hit = match t.text.as_str() {
                "Vec" => {
                    next_is_punct(toks, i + 1, ":")
                        && next_is_punct(toks, i + 2, ":")
                        && toks.get(i + 3).is_some_and(|n| {
                            n.kind == TokenKind::Ident
                                && (n.text == "new" || n.text == "with_capacity")
                        })
                }
                "vec" => next_is_punct(toks, i + 1, "!"),
                "to_vec" => i > 0 && is_punct(&toks[i - 1], "."),
                _ => false,
            };
            if hit {
                out.push(diag(
                    ctx,
                    "alloc-in-hot-loop",
                    t,
                    format!(
                        "`{}` allocates inside a loop of hot kernel `{}`; hoist the \
                             buffer out of the loop or reuse a scratch allocation",
                        t.text, f.name
                    ),
                ));
            }
        }
    }
}

/// `stale-waiver` meta-check: every `ncs-lint: allow(...)` comment must
/// suppress at least one finding of the named rule on its line.
/// Emitted as warnings so a rule refinement never hard-breaks the
/// build; `--strict` (CI) promotes them.
fn stale_waivers(lexed: &LexedFile, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    if ctx.is_test_code {
        return;
    }
    // Waivers inside #[cfg(test)] regions guard nothing by construction
    // (rules skip test tokens) — ignore them rather than flag them.
    let test_lines: BTreeSet<u32> = lexed
        .tokens
        .iter()
        .filter(|t| t.in_test)
        .map(|t| t.line)
        .collect();
    let mut stale = Vec::new();
    for (&line, rules) in &lexed.waivers {
        if test_lines.contains(&line) {
            continue;
        }
        for rule in rules {
            let used = out
                .iter()
                .any(|d| d.waived && d.line == line && d.rule == rule);
            if used {
                continue;
            }
            let known = RULES.iter().any(|r| r.name == rule);
            let message = if known {
                format!("waiver for `{rule}` suppresses nothing on this line; remove it")
            } else {
                format!("waiver names unknown rule `{rule}` (see --list-rules)")
            };
            stale.push(Diagnostic {
                rule: "stale-waiver",
                path: ctx.path.clone(),
                line,
                col: 1,
                message,
                waived: false,
                severity: Severity::Warning,
            });
        }
    }
    out.extend(stale);
}

fn is_punct(t: &Token, text: &str) -> bool {
    t.kind == TokenKind::Punct && t.text == text
}

fn next_is_punct(toks: &[Token], i: usize, text: &str) -> bool {
    toks.get(i).is_some_and(|t| is_punct(t, text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn strict_ctx() -> FileContext {
        FileContext {
            path: "fixture.rs".to_string(),
            crate_name: None,
            is_crate_root: false,
            is_bin_target: false,
            is_test_code: false,
            strict: true,
        }
    }

    fn findings(src: &str) -> Vec<Diagnostic> {
        check_file(&lex(src), &strict_ctx())
            .into_iter()
            .filter(|d| !d.waived)
            .collect()
    }

    #[test]
    fn flags_unwrap_and_macros() {
        let ds = findings("fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"no\"); }");
        let rules: Vec<_> = ds.iter().map(|d| d.rule).collect();
        assert_eq!(rules, ["no-panic-paths"; 3]);
    }

    #[test]
    fn unwrap_or_is_not_flagged() {
        assert!(findings("fn f() { x.unwrap_or(0); y.unwrap_or_default(); }").is_empty());
    }

    #[test]
    fn flags_hash_collections() {
        let ds = findings("use std::collections::HashMap; fn f(s: HashSet<u8>) {}");
        assert_eq!(ds.len(), 2);
        assert!(ds.iter().all(|d| d.rule == "deterministic-iteration"));
    }

    #[test]
    fn flags_narrowing_casts_only() {
        let ds =
            findings("fn f(x: f64) { let a = x as f32; let b = x as usize; let c = x as f64; }");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].rule, "lossy-cast-audit");
    }

    #[test]
    fn flags_float_eq_both_sides_and_negative() {
        let ds = findings("fn f(x: f64) -> bool { x == 0.0 || 1.5 != x || x == -1.0 }");
        assert_eq!(ds.len(), 3);
        assert!(ds.iter().all(|d| d.rule == "float-eq"));
    }

    #[test]
    fn int_eq_is_fine() {
        assert!(findings("fn f(x: usize) -> bool { x == 0 }").is_empty());
    }

    #[test]
    fn waived_findings_are_marked() {
        let src = "fn f() { x.unwrap() } // ncs-lint: allow(no-panic-paths)\n";
        let all = check_file(&lex(src), &strict_ctx());
        assert_eq!(all.len(), 1);
        assert!(all[0].waived);
    }

    #[test]
    fn test_code_is_skipped() {
        let src = "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); let m: HashMap<u8, u8>; } }\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn hygiene_checks_crate_roots() {
        let mut ctx = strict_ctx();
        ctx.is_crate_root = true;
        let clean = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\nfn f() {}\n";
        assert!(check_file(&lex(clean), &ctx)
            .iter()
            .all(|d| d.rule != "crate-hygiene"));
        let dirty = "fn f() {}\n";
        let ds: Vec<_> = check_file(&lex(dirty), &ctx)
            .into_iter()
            .filter(|d| d.rule == "crate-hygiene")
            .collect();
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn flags_adhoc_threads() {
        let ds = findings(
            "fn f() { std::thread::spawn(|| {}); thread::scope(|_s| {}); \
             let b = thread::Builder::new(); }",
        );
        assert_eq!(ds.len(), 3);
        assert!(ds.iter().all(|d| d.rule == "no-adhoc-threads"));
    }

    #[test]
    fn benign_thread_members_pass() {
        assert!(findings("fn f() { thread::yield_now(); let t = thread::current(); }").is_empty());
    }

    #[test]
    fn par_crate_may_spawn_threads() {
        let mut ctx = strict_ctx();
        ctx.crate_name = Some("par".to_string());
        let ds = check_file(&lex("fn f() { thread::spawn(|| {}); }"), &ctx);
        assert!(ds.iter().all(|d| d.rule != "no-adhoc-threads"));
    }

    #[test]
    fn flags_adhoc_logging() {
        let ds = findings("fn f(x: u8) { println!(\"x = {x}\"); eprintln!(\"warn\"); }");
        assert_eq!(ds.len(), 2);
        assert!(ds.iter().all(|d| d.rule == "no-adhoc-logging"));
    }

    #[test]
    fn structured_formatting_is_not_logging() {
        assert!(findings(
            "fn f(buf: &mut String) { let _ = writeln!(buf, \"ok\"); let _ = format!(\"ok\"); }"
        )
        .is_empty());
    }

    #[test]
    fn bin_targets_may_print() {
        let mut ctx = strict_ctx();
        ctx.is_bin_target = true;
        let ds = check_file(&lex("fn main() { println!(\"hello\"); }"), &ctx);
        assert!(ds.iter().all(|d| d.rule != "no-adhoc-logging"));
    }

    #[test]
    fn crate_scoping_gates_rules() {
        let mut ctx = strict_ctx();
        ctx.strict = false;
        ctx.crate_name = Some("bench".to_string());
        // bench is not panic-free-scoped, but float-eq still applies.
        let ds = check_file(&lex("fn f(x: f64) { x.unwrap(); if x == 0.0 {} }"), &ctx);
        let rules: Vec<_> = ds.iter().map(|d| d.rule).collect();
        assert_eq!(rules, ["float-eq"]);
    }

    #[test]
    fn wallclock_banned_outside_timing_crates() {
        let ds = findings("fn f() { let t = std::time::Instant::now(); }");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].rule, "no-wallclock");
        let mut ctx = strict_ctx();
        ctx.strict = false;
        ctx.crate_name = Some("bench".to_string());
        let ds = check_file(&lex("fn f() { let t = Instant::now(); }"), &ctx);
        assert!(ds.iter().all(|d| d.rule != "no-wallclock"));
    }

    #[test]
    fn env_reads_confined_to_config_modules() {
        let ds = findings("fn f() -> Option<String> { std::env::var(\"NCS_THREADS\").ok() }");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].rule, "env-read-audit");
        // The compile-time macro and an allowed file are both exempt.
        assert!(findings("fn v() -> &'static str { env!(\"CARGO_PKG_VERSION\") }").is_empty());
        let mut ctx = strict_ctx();
        ctx.path = "crates/par/src/lib.rs".to_string();
        let ds = check_file(&lex("fn f() { let _ = std::env::var(\"X\"); }"), &ctx);
        assert!(ds.iter().all(|d| d.rule != "env-read-audit"));
    }

    #[test]
    fn layering_flags_back_edges_only() {
        let mut ctx = strict_ctx();
        ctx.crate_name = Some("linalg".to_string());
        let src = "use ncs_trace::span;\nuse ncs_phys::place;\nuse std::fmt;\n";
        let ds: Vec<_> = check_file(&lex(src), &ctx)
            .into_iter()
            .filter(|d| d.rule == "crate-layering")
            .collect();
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].line, 2);
        assert!(ds[0].message.contains("`ncs_phys`"));
    }

    #[test]
    fn layering_flags_qualified_calls_without_a_use() {
        // The flow crates make no parallel launch: a qualified ncs_par
        // call is a back-edge even with no `use ncs_par` in the file, and
        // a `use` is flagged on its own line.
        let qualified = "fn f(xs: &[u64]) -> Vec<u64> {\n    \
                         ncs_par::par_map_queue(xs, |_, &x| x)\n}\n";
        let imported = "use ncs_par::par_map_queue;\n\
                        fn f(xs: &[u64]) -> Vec<u64> {\n    \
                        par_map_queue(xs, |_, &x| x)\n}\n";
        for krate in ["cluster", "linalg", "phys"] {
            let mut ctx = strict_ctx();
            ctx.crate_name = Some(krate.to_string());
            for (src, line) in [(qualified, 2), (imported, 1)] {
                let ds: Vec<_> = check_file(&lex(src), &ctx)
                    .into_iter()
                    .filter(|d| d.rule == "crate-layering")
                    .collect();
                assert_eq!(ds.len(), 1, "{krate}: {ds:?}");
                assert_eq!(ds[0].line, line, "{krate}");
                let expected = format!("crate `{krate}` may not import `ncs_par`");
                assert!(ds[0].message.contains(&expected), "{krate}: {ds:?}");
            }
        }
    }

    #[test]
    fn hot_loop_allocs_flagged_cold_ignored() {
        let hot = "// ncs-lint: hot\nfn k(xs: &[u8]) { for x in xs { let v = Vec::new(); } }\n";
        let ds = findings(hot);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].rule, "alloc-in-hot-loop");
        let cold = "fn k(xs: &[u8]) { for x in xs { let v = Vec::new(); } }\n";
        assert!(findings(cold).is_empty());
        // Allocation outside the loop body of a hot fn is fine.
        let hoisted =
            "// ncs-lint: hot\nfn k(xs: &[u8]) { let mut v = Vec::new(); for x in xs { v.push(*x); } }\n";
        assert!(findings(hoisted).is_empty());
    }

    #[test]
    fn stale_waivers_warn_but_live_ones_do_not() {
        let src = "// ncs-lint: allow(no-panic-paths) — nothing here\nfn f() -> usize { 1 }\n";
        let ds = check_file(&lex(src), &strict_ctx());
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].rule, "stale-waiver");
        assert_eq!(ds[0].severity, Severity::Warning);
        let live = "fn f(x: &Option<u8>) -> u8 { *x.as_ref().unwrap() } \
                    // ncs-lint: allow(no-panic-paths) — proven Some\n";
        assert!(check_file(&lex(live), &strict_ctx())
            .iter()
            .all(|d| d.rule != "stale-waiver"));
    }
}
