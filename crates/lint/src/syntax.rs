//! A lightweight syntax layer over the token stream.
//!
//! The lexer gives rules a flat token list; this module recovers just
//! enough structure for the semantic rules that a flat stream cannot
//! express:
//!
//! - **Token trees** — `()`/`[]`/`{}` groups nested into a forest, with
//!   a matched-delimiter table so any rule can jump from an opener to
//!   its closer in O(1).
//! - **Item outline** — `mod`/`impl`/`trait`/`fn`/`struct`/… nesting
//!   with names and lines, recursing through module and impl bodies.
//! - **Functions** — every `fn` with its body span, test flag, and
//!   whether a `// ncs-lint: hot` marker decorates it.
//! - **Call expressions** — `path::to::callee(args)` with the full
//!   segment path, feeding the `crate-layering` check of qualified
//!   calls.
//! - **`use` declarations** — the root crate segment of every import,
//!   feeding the `crate-layering` DAG check.
//! - **Loop bodies** — the token span of every `for`/`while`/`loop`
//!   body, feeding `alloc-in-hot-loop`.
//!
//! This is deliberately not a parser: it never builds expressions and
//! survives arbitrary token soup (macro bodies, unbalanced fixtures) by
//! treating anything unrecognized as skippable. Rules that consume it
//! are heuristics with waiver escape hatches, not a compiler.

use crate::lexer::{LexedFile, Token, TokenKind};

/// One node of the token-tree forest.
#[derive(Debug)]
pub enum Tree {
    /// A non-delimiter token (index into the token list).
    Leaf(usize),
    /// A delimited group. `close` is `None` when the opener is
    /// unbalanced (possible in fixtures or macro fragments).
    Group {
        /// Opening delimiter: `(`, `[`, or `{`.
        delim: char,
        /// Token index of the opener.
        open: usize,
        /// Token index of the matching closer, if balanced.
        close: Option<usize>,
        /// Nested trees between the delimiters.
        children: Vec<Tree>,
    },
}

/// Kind of an [`Item`] in the outline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `mod name { ... }` (or `mod name;`).
    Mod,
    /// `impl Type { ... }` / `impl Trait for Type { ... }`.
    Impl,
    /// `trait Name { ... }`.
    Trait,
    /// `fn name(...)`.
    Fn,
    /// `struct Name ...`.
    Struct,
    /// `enum Name { ... }`.
    Enum,
    /// `use path::to::thing;`.
    Use,
    /// `const NAME: T = ...;`.
    Const,
    /// `static NAME: T = ...;`.
    Static,
    /// `type Alias = ...;`.
    TypeAlias,
    /// `macro_rules! name { ... }`.
    MacroDef,
}

impl ItemKind {
    /// Lower-case label used by [`render_outline`].
    pub fn label(self) -> &'static str {
        match self {
            ItemKind::Mod => "mod",
            ItemKind::Impl => "impl",
            ItemKind::Trait => "trait",
            ItemKind::Fn => "fn",
            ItemKind::Struct => "struct",
            ItemKind::Enum => "enum",
            ItemKind::Use => "use",
            ItemKind::Const => "const",
            ItemKind::Static => "static",
            ItemKind::TypeAlias => "type",
            ItemKind::MacroDef => "macro",
        }
    }
}

/// One item in the nested outline.
#[derive(Debug)]
pub struct Item {
    /// What kind of item this is.
    pub kind: ItemKind,
    /// Item name (`impl` uses the type path, `use` the root segment).
    pub name: String,
    /// 1-indexed line of the introducing keyword.
    pub line: u32,
    /// Child items, for `mod`/`impl`/`trait` (and nested `fn`s).
    pub children: Vec<Item>,
}

/// One `fn`, flattened out of the outline in source order.
#[derive(Debug)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// 1-indexed line of the `fn` keyword.
    pub line: u32,
    /// Token indices of the body's `{` and `}` (absent for trait
    /// method declarations ending in `;`).
    pub body: Option<(usize, usize)>,
    /// Whether a `// ncs-lint: hot` marker decorates the signature.
    pub is_hot: bool,
    /// Whether the `fn` keyword sits inside a test region.
    pub in_test: bool,
}

/// One call expression `path::to::callee(...)`.
#[derive(Debug)]
pub struct Call {
    /// Path segments, e.g. `["ncs_par", "par_map"]` or `["par_map"]`.
    pub path: Vec<String>,
    /// 1-indexed line of the callee segment.
    pub line: u32,
    /// 1-indexed column of the callee segment.
    pub col: u32,
    /// Whether the call sits inside a test region.
    pub in_test: bool,
}

/// One `use` declaration, reduced to its root segment.
#[derive(Debug)]
pub struct UseDecl {
    /// First path segment: a crate name, `std`, `crate`, `super`, ….
    pub root: String,
    /// 1-indexed line of the `use` keyword.
    pub line: u32,
    /// Whether the declaration sits inside a test region.
    pub in_test: bool,
}

/// The token span of one `for`/`while`/`loop` body.
#[derive(Debug)]
pub struct LoopSpan {
    /// 1-indexed line of the loop keyword.
    pub line: u32,
    /// Token indices of the body's `{` and `}`.
    pub body: (usize, usize),
}

/// Everything the syntax layer extracts from one lexed file.
#[derive(Debug)]
pub struct Syntax {
    /// Nested item outline.
    pub items: Vec<Item>,
    /// Every `fn`, in source order.
    pub fns: Vec<FnInfo>,
    /// Every call expression, in source order.
    pub calls: Vec<Call>,
    /// Every `use` declaration, in source order.
    pub uses: Vec<UseDecl>,
    /// Every loop body span, in source order.
    pub loops: Vec<LoopSpan>,
    /// `matched[i]` is the partner index when token `i` is a delimiter.
    pub matched: Vec<Option<usize>>,
}

/// Builds the matched-delimiter table: for every `(`/`[`/`{` the index
/// of its closer and vice versa. Mismatched closers unwind the stack to
/// the nearest same-kind opener (tolerant of token soup).
fn match_delims(tokens: &[Token]) -> Vec<Option<usize>> {
    let mut matched = vec![None; tokens.len()];
    let mut stack: Vec<(char, usize)> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => stack.push((t.text.chars().next().unwrap_or('('), i)),
            ")" | "]" | "}" => {
                let want = match t.text.as_str() {
                    ")" => '(',
                    "]" => '[',
                    _ => '{',
                };
                if let Some(pos) = stack.iter().rposition(|&(d, _)| d == want) {
                    let (_, open) = stack[pos];
                    stack.truncate(pos);
                    matched[open] = Some(i);
                    matched[i] = Some(open);
                }
            }
            _ => {}
        }
    }
    matched
}

/// Builds the token-tree forest for `tokens`.
pub fn token_trees(tokens: &[Token]) -> Vec<Tree> {
    let matched = match_delims(tokens);
    let mut i = 0usize;
    build_trees(tokens, &matched, &mut i, None)
}

fn build_trees(
    tokens: &[Token],
    matched: &[Option<usize>],
    i: &mut usize,
    stop: Option<usize>,
) -> Vec<Tree> {
    let mut out = Vec::new();
    while *i < tokens.len() {
        if stop == Some(*i) {
            break;
        }
        let t = &tokens[*i];
        let open = *i;
        if t.kind == TokenKind::Punct && matches!(t.text.as_str(), "(" | "[" | "{") {
            let close = matched[open];
            *i += 1;
            let children = build_trees(tokens, matched, i, close);
            if close.is_some() && *i < tokens.len() {
                *i += 1; // consume the closer
            }
            out.push(Tree::Group {
                delim: t.text.chars().next().unwrap_or('('),
                open,
                close,
                children,
            });
        } else if t.kind == TokenKind::Punct && matches!(t.text.as_str(), ")" | "]" | "}") {
            // A closer reached here is either unbalanced or orphaned
            // token soup — keep it as a leaf and move on.
            out.push(Tree::Leaf(open));
            *i += 1;
        } else {
            out.push(Tree::Leaf(open));
            *i += 1;
        }
    }
    out
}

/// Keywords that look like `name(` call sites but are control flow.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "fn", "in", "as", "move", "let",
    "pub", "use", "mod", "impl", "where", "unsafe", "ref", "mut", "break", "continue", "dyn",
];

/// Tokens that may legally precede a statement-position loop keyword.
fn can_precede_loop(prev: Option<&Token>) -> bool {
    match prev {
        None => true,
        Some(t) if t.kind == TokenKind::Punct => {
            // `>` admits match arms (`_ => loop { ... }`).
            matches!(
                t.text.as_str(),
                "{" | "}" | ";" | ":" | "=" | "(" | "," | "|" | ">"
            )
        }
        Some(t) if t.kind == TokenKind::Ident => t.text == "else",
        _ => false,
    }
}

/// Analyzes one lexed file into its [`Syntax`].
pub fn analyze(lexed: &LexedFile) -> Syntax {
    let tokens = &lexed.tokens;
    let matched = match_delims(tokens);
    let mut fns = Vec::new();
    let items = parse_items(tokens, &matched, lexed, 0, tokens.len(), &mut fns);
    let calls = extract_calls(tokens, &matched);
    let uses = extract_uses(tokens);
    let loops = extract_loops(tokens, &matched);
    Syntax {
        items,
        fns,
        calls,
        uses,
        loops,
        matched,
    }
}

/// Parses the item outline in `tokens[start..end]`, appending every
/// `fn` found (at any depth) to `fns`.
fn parse_items(
    tokens: &[Token],
    matched: &[Option<usize>],
    lexed: &LexedFile,
    start: usize,
    end: usize,
    fns: &mut Vec<FnInfo>,
) -> Vec<Item> {
    let mut items = Vec::new();
    let mut i = start;
    while i < end {
        let t = &tokens[i];
        // Skip attributes wholesale: `#[...]` / `#![...]`.
        if t.kind == TokenKind::Punct && t.text == "#" {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.text == "!") {
                j += 1;
            }
            if tokens.get(j).is_some_and(|t| t.text == "[") {
                i = matched[j].map_or(j + 1, |c| c + 1);
                continue;
            }
            i += 1;
            continue;
        }
        if t.kind != TokenKind::Ident {
            // Unrecognized structure (expression soup, stray braces):
            // step over whole groups so we never descend into them.
            if t.kind == TokenKind::Punct && matches!(t.text.as_str(), "(" | "[" | "{") {
                i = matched[i].map_or(i + 1, |c| c + 1);
            } else {
                i += 1;
            }
            continue;
        }
        match t.text.as_str() {
            "fn" => {
                let name = tokens
                    .get(i + 1)
                    .filter(|n| n.kind == TokenKind::Ident)
                    .map_or_else(String::new, |n| n.text.clone());
                let (body, next) = item_body(tokens, matched, i + 1, end);
                if let Some((open, close)) = body {
                    // Recurse for nested fns; their items are children.
                    let children = parse_items(tokens, matched, lexed, open + 1, close, fns);
                    // Insertion order: parent fn before its children.
                    let at = fns.len() - count_fns(&children);
                    fns.insert(
                        at,
                        FnInfo {
                            name: name.clone(),
                            line: t.line,
                            body: Some((open, close)),
                            is_hot: lexed.is_hot(t.line),
                            in_test: t.in_test,
                        },
                    );
                    items.push(Item {
                        kind: ItemKind::Fn,
                        name,
                        line: t.line,
                        children,
                    });
                } else {
                    fns.push(FnInfo {
                        name: name.clone(),
                        line: t.line,
                        body: None,
                        is_hot: lexed.is_hot(t.line),
                        in_test: t.in_test,
                    });
                    items.push(Item {
                        kind: ItemKind::Fn,
                        name,
                        line: t.line,
                        children: Vec::new(),
                    });
                }
                i = next;
            }
            "mod" | "trait" | "impl" => {
                let kind = match t.text.as_str() {
                    "mod" => ItemKind::Mod,
                    "trait" => ItemKind::Trait,
                    _ => ItemKind::Impl,
                };
                let name = if kind == ItemKind::Impl {
                    impl_name(tokens, matched, i + 1, end)
                } else {
                    tokens
                        .get(i + 1)
                        .filter(|n| n.kind == TokenKind::Ident)
                        .map_or_else(String::new, |n| n.text.clone())
                };
                let (body, next) = item_body(tokens, matched, i + 1, end);
                let children = body.map_or_else(Vec::new, |(open, close)| {
                    parse_items(tokens, matched, lexed, open + 1, close, fns)
                });
                items.push(Item {
                    kind,
                    name,
                    line: t.line,
                    children,
                });
                i = next;
            }
            "struct" | "enum" | "use" | "const" | "static" | "type" => {
                // `const fn` / `const unsafe fn`: the modifier is not an
                // item — let the `fn` arm claim it.
                if t.text == "const"
                    && tokens
                        .get(i + 1)
                        .is_some_and(|n| n.text == "fn" || n.text == "unsafe")
                {
                    i += 1;
                    continue;
                }
                let kind = match t.text.as_str() {
                    "struct" => ItemKind::Struct,
                    "enum" => ItemKind::Enum,
                    "use" => ItemKind::Use,
                    "const" => ItemKind::Const,
                    "static" => ItemKind::Static,
                    _ => ItemKind::TypeAlias,
                };
                let name = tokens
                    .get(i + 1)
                    .filter(|n| n.kind == TokenKind::Ident)
                    .map_or_else(String::new, |n| n.text.clone());
                let (_, next) = item_body(tokens, matched, i + 1, end);
                items.push(Item {
                    kind,
                    name,
                    line: t.line,
                    children: Vec::new(),
                });
                i = next;
            }
            "macro_rules" => {
                let name = tokens
                    .get(i + 2)
                    .filter(|n| n.kind == TokenKind::Ident)
                    .map_or_else(String::new, |n| n.text.clone());
                let (_, next) = item_body(tokens, matched, i + 1, end);
                items.push(Item {
                    kind: ItemKind::MacroDef,
                    name,
                    line: t.line,
                    children: Vec::new(),
                });
                i = next;
            }
            _ => i += 1,
        }
    }
    items
}

fn count_fns(items: &[Item]) -> usize {
    items
        .iter()
        .map(|it| usize::from(it.kind == ItemKind::Fn) + count_fns(&it.children))
        .sum()
}

/// Scans from `from` for an item's extent: the first `{` outside any
/// `()`/`[]` group opens the body; a `;` at that level ends a braceless
/// item. Returns `(body_span, index_after_item)`.
fn item_body(
    tokens: &[Token],
    matched: &[Option<usize>],
    from: usize,
    end: usize,
) -> (Option<(usize, usize)>, usize) {
    let mut j = from;
    while j < end {
        let t = &tokens[j];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" => {
                    j = matched[j].map_or(j + 1, |c| c + 1);
                    continue;
                }
                "{" => {
                    let close = matched[j].unwrap_or(end.saturating_sub(1));
                    return (Some((j, close)), close + 1);
                }
                ";" => return (None, j + 1),
                "}" => return (None, j), // end of enclosing body
                _ => {}
            }
        }
        j += 1;
    }
    (None, end)
}

/// Renders an `impl` header's type path up to the body or `for`.
fn impl_name(tokens: &[Token], matched: &[Option<usize>], from: usize, end: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut j = from;
    while j < end {
        let t = &tokens[j];
        match t.kind {
            TokenKind::Punct if t.text == "{" => break,
            TokenKind::Punct if t.text == "<" => {
                // Skip generic params: scan to the matching `>` naively.
                let mut depth = 1i64;
                j += 1;
                while j < end && depth > 0 {
                    match tokens[j].text.as_str() {
                        "<" => depth += 1,
                        ">" => depth -= 1,
                        "(" | "[" => {
                            j = matched[j].unwrap_or(j);
                        }
                        _ => {}
                    }
                    j += 1;
                }
                continue;
            }
            TokenKind::Ident if t.text == "for" => {
                parts.clear(); // keep the implemented-on type, not the trait
                j += 1;
                continue;
            }
            TokenKind::Ident => parts.push(t.text.clone()),
            TokenKind::Punct if t.text == ":" => parts.push(":".into()),
            _ => {}
        }
        j += 1;
    }
    parts.concat()
}

/// Extracts every call expression `seg::seg::callee(args)`.
fn extract_calls(tokens: &[Token], matched: &[Option<usize>]) -> Vec<Call> {
    let mut calls = Vec::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        let Some(open) = tokens.get(i + 1) else {
            continue;
        };
        if open.kind != TokenKind::Punct || open.text != "(" {
            continue;
        }
        // `name!(...)` is a macro, `fn name(...)` a definition.
        if tokens.get(i.wrapping_sub(1)).is_some_and(|p| {
            p.kind == TokenKind::Ident && (p.text == "fn" || p.text == "macro_rules")
        }) {
            continue;
        }
        if matched[i + 1].is_none() {
            continue;
        }
        // Walk the `seg ::` chain backwards from the callee.
        let mut path = vec![t.text.clone()];
        let mut j = i;
        while j >= 3
            && tokens[j - 1].text == ":"
            && tokens[j - 2].text == ":"
            && tokens[j - 3].kind == TokenKind::Ident
        {
            path.insert(0, tokens[j - 3].text.clone());
            j -= 3;
        }
        calls.push(Call {
            path,
            line: t.line,
            col: t.col,
            in_test: t.in_test,
        });
    }
    calls
}

/// Extracts the root segment of every `use` declaration.
fn extract_uses(tokens: &[Token]) -> Vec<UseDecl> {
    let mut uses = Vec::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || t.text != "use" {
            continue;
        }
        let mut j = i + 1;
        // `use ::std::...` — skip a leading `::`.
        while tokens
            .get(j)
            .is_some_and(|p| p.kind == TokenKind::Punct && p.text == ":")
        {
            j += 1;
        }
        if let Some(root) = tokens.get(j).filter(|r| r.kind == TokenKind::Ident) {
            uses.push(UseDecl {
                root: root.text.clone(),
                line: t.line,
                in_test: t.in_test,
            });
        }
    }
    uses
}

/// Extracts the body span of every statement-position loop.
fn extract_loops(tokens: &[Token], matched: &[Option<usize>]) -> Vec<LoopSpan> {
    let mut loops = Vec::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || !matches!(t.text.as_str(), "for" | "while" | "loop") {
            continue;
        }
        if !can_precede_loop(if i == 0 { None } else { tokens.get(i - 1) }) {
            continue;
        }
        // `for<'a>` higher-ranked bounds are not loops.
        if tokens.get(i + 1).is_some_and(|n| n.text == "<") {
            continue;
        }
        // The body is the first `{` after the keyword outside `()`/`[]`.
        let mut j = i + 1;
        let mut body = None;
        while j < tokens.len() {
            let u = &tokens[j];
            if u.kind == TokenKind::Punct {
                match u.text.as_str() {
                    "(" | "[" => {
                        j = matched[j].map_or(j + 1, |c| c + 1);
                        continue;
                    }
                    "{" => {
                        if let Some(close) = matched[j] {
                            body = Some((j, close));
                        }
                        break;
                    }
                    ";" | "}" => break,
                    _ => {}
                }
            }
            j += 1;
        }
        if let Some(span) = body {
            loops.push(LoopSpan {
                line: t.line,
                body: span,
            });
        }
    }
    loops
}

/// Renders the item outline as an indented text dump (for goldens).
pub fn render_outline(items: &[Item]) -> String {
    fn walk(items: &[Item], depth: usize, out: &mut String) {
        for it in items {
            out.push_str(&"  ".repeat(depth));
            out.push_str(it.kind.label());
            if !it.name.is_empty() {
                out.push(' ');
                out.push_str(&it.name);
            }
            out.push_str(&format!(" @{}\n", it.line));
            walk(&it.children, depth + 1, out);
        }
    }
    let mut out = String::new();
    walk(items, 0, &mut out);
    out
}

/// Renders the token-tree forest as an indented text dump (for goldens).
pub fn render_token_trees(tokens: &[Token]) -> String {
    fn walk(trees: &[Tree], tokens: &[Token], depth: usize, out: &mut String) {
        for tree in trees {
            out.push_str(&"  ".repeat(depth));
            match tree {
                Tree::Leaf(i) => {
                    let t = &tokens[*i];
                    out.push_str(&format!("{:?} `{}` @{}\n", t.kind, t.text, t.line));
                }
                Tree::Group {
                    delim,
                    open,
                    close,
                    children,
                } => {
                    let closed = if close.is_some() { "" } else { " (unclosed)" };
                    out.push_str(&format!("group {delim} @{}{closed}\n", tokens[*open].line));
                    walk(children, tokens, depth + 1, out);
                }
            }
        }
    }
    let mut out = String::new();
    walk(&token_trees(tokens), tokens, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn syn(src: &str) -> Syntax {
        analyze(&lex(src))
    }

    #[test]
    fn outline_nests_mod_impl_fn() {
        let s = syn(concat!(
            "mod inner {\n",
            "    struct S;\n",
            "    impl S {\n",
            "        fn method(&self) {}\n",
            "    }\n",
            "}\n",
            "fn top() {}\n",
        ));
        let dump = render_outline(&s.items);
        assert_eq!(
            dump,
            concat!(
                "mod inner @1\n",
                "  struct S @2\n",
                "  impl S @3\n",
                "    fn method @4\n",
                "fn top @7\n",
            )
        );
    }

    #[test]
    fn impl_trait_for_type_names_the_type() {
        let s = syn("impl Display for Wire { fn fmt(&self) {} }");
        assert_eq!(s.items[0].name, "Wire");
    }

    #[test]
    fn fns_carry_hot_flag_and_body_span() {
        let s = syn(concat!(
            "// ncs-lint: hot\n",
            "fn kernel(xs: &mut [f64]) { xs.sort(); }\n",
            "fn cold() {}\n",
        ));
        assert_eq!(s.fns.len(), 2);
        assert!(s.fns[0].is_hot);
        assert_eq!(s.fns[0].name, "kernel");
        assert!(s.fns[0].body.is_some());
        assert!(!s.fns[1].is_hot);
    }

    #[test]
    fn calls_capture_full_paths() {
        let s = syn("fn f() { ncs_par::par_map(xs, cutoff, g); plain(1); x.method(2); }");
        let paths: Vec<String> = s.calls.iter().map(|c| c.path.join("::")).collect();
        assert!(paths.contains(&"ncs_par::par_map".into()));
        assert!(paths.contains(&"plain".into()));
        assert!(paths.contains(&"method".into()));
        // Definitions are not calls.
        assert!(!paths.contains(&"f".into()));
    }

    #[test]
    fn use_roots_are_extracted() {
        let s = syn("use ncs_par::{par_map, Cutoff};\npub use std::fmt;\nuse crate::x;\n");
        let roots: Vec<&str> = s.uses.iter().map(|u| u.root.as_str()).collect();
        assert_eq!(roots, ["ncs_par", "std", "crate"]);
    }

    #[test]
    fn loops_found_impl_for_excluded() {
        let s = syn(concat!(
            "impl Display for Wire { fn fmt(&self) {} }\n",
            "fn f() { for x in xs { g(x); } while t() { h(); } loop { break; } }\n",
        ));
        assert_eq!(s.loops.len(), 3);
        assert!(s.loops.iter().all(|l| l.line == 2));
    }

    #[test]
    fn token_trees_nest_and_survive_imbalance() {
        let lexed = lex("f(a, [b, c]) }");
        let dump = render_token_trees(&lexed.tokens);
        assert!(dump.contains("group ("));
        assert!(dump.contains("group ["));
        assert!(dump.contains("Punct `}`")); // unbalanced closer is a leaf
    }

    #[test]
    fn labeled_loop_is_still_a_loop() {
        let s = syn("fn f() { 'outer: loop { break 'outer; } }");
        assert_eq!(s.loops.len(), 1);
    }
}
