//! The lint rules, evaluated over the token stream of one file.

use std::collections::HashMap;

use crate::config;
use crate::lexer::{Lexed, Token, TokenKind};

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
    pub help: &'static str,
}

/// Per-file context shared by all rules.
pub struct FileCtx<'a> {
    pub rel: &'a str,
    pub krate: &'a str,
    pub lx: &'a Lexed,
    /// Per-token flag: inside a `#[cfg(test)]` / `#[test]` span.
    in_test: Vec<bool>,
    /// Inline allows: line -> rule names allowed on that line and the next.
    allows: HashMap<u32, Vec<String>>,
    /// The file defines `fn expect` (the xml reader's cursor helper) —
    /// `self.expect(..)` there is not `Option::expect`.
    defines_fn_expect: bool,
}

impl<'a> FileCtx<'a> {
    pub fn new(rel: &'a str, lx: &'a Lexed) -> Self {
        let krate = config::crate_of(rel).unwrap_or("");
        let in_test = mark_test_spans(&lx.tokens);
        let allows = parse_allows(lx);
        let defines_fn_expect = lx
            .tokens
            .windows(2)
            .any(|w| w[0].text == "fn" && w[1].text == "expect");
        FileCtx {
            rel,
            krate,
            lx,
            in_test,
            allows,
            defines_fn_expect,
        }
    }

    fn is_test(&self, tok_idx: usize) -> bool {
        self.in_test.get(tok_idx).copied().unwrap_or(false)
    }

    /// Suppressed by an inline `// lint:allow(rule)` on this line or the
    /// line above?
    fn inline_allowed(&self, rule: &str, line: u32) -> bool {
        [line, line.saturating_sub(1)].iter().any(|l| {
            self.allows
                .get(l)
                .is_some_and(|rules| rules.iter().any(|r| r == rule || r == "all"))
        })
    }

    fn suppressed(&self, rule: &'static str, line: u32) -> bool {
        config::allowed(rule, self.rel).is_some() || self.inline_allowed(rule, line)
    }
}

/// Run every applicable per-file rule on one file. Only library and
/// binary sources are checked; the other scanned files (tests, benches,
/// examples, tixbench) are read for `unused-pub`'s uses alone.
pub fn run_all(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !config::is_lib_source(ctx.rel) {
        return;
    }
    no_unwrap(ctx, out);
    no_slice_index(ctx, out);
    no_as_cast(ctx, out);
    safety_comment(ctx, out);
    no_thread_spawn(ctx, out);
    no_unbounded_channel(ctx, out);
    pub_doc(ctx, out);
    no_float_eq(ctx, out);
    no_bare_file_create(ctx, out);
}

fn push(
    out: &mut Vec<Finding>,
    ctx: &FileCtx<'_>,
    rule: &'static str,
    line: u32,
    message: String,
    help: &'static str,
) {
    if ctx.suppressed(rule, line) {
        return;
    }
    out.push(Finding {
        rule,
        file: ctx.rel.to_string(),
        line,
        message,
        help,
    });
}

/// `no-unwrap`: no `.unwrap()` / `.expect(..)` in library and CLI code.
fn no_unwrap(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !config::PANIC_FREE_CRATES.contains(&ctx.krate) {
        return;
    }
    let toks = &ctx.lx.tokens;
    for i in 0..toks.len().saturating_sub(2) {
        if ctx.is_test(i) || toks[i].text != "." {
            continue;
        }
        let name = &toks[i + 1];
        if name.kind != TokenKind::Ident || (name.text != "unwrap" && name.text != "expect") {
            continue;
        }
        if toks[i + 2].text != "(" {
            continue;
        }
        // `self.expect("<")` in files that define `fn expect` is a local
        // cursor method, not `Option::expect`.
        if name.text == "expect" && ctx.defines_fn_expect && i > 0 && toks[i - 1].text == "self" {
            continue;
        }
        push(
            out,
            ctx,
            "no-unwrap",
            name.line,
            format!("`.{}()` can panic in library code", name.text),
            "return a contextual error (`ok_or`, `?`, a typed enum) or handle the None/Err arm explicitly",
        );
    }
}

/// `no-slice-index`: unchecked `container[index]` in library code.
fn no_slice_index(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !config::INDEX_CHECKED_CRATES.contains(&ctx.krate) {
        return;
    }
    const KEYWORDS: &[&str] = &[
        "let", "mut", "ref", "in", "if", "else", "return", "match", "as", "const", "static",
        "move", "dyn", "impl", "for", "while", "loop", "where", "fn", "pub", "use", "mod", "break",
        "continue", "struct", "enum", "trait", "type", "unsafe", "crate", "box",
    ];
    let toks = &ctx.lx.tokens;
    for i in 1..toks.len() {
        if ctx.is_test(i) || toks[i].text != "[" {
            continue;
        }
        let prev = &toks[i - 1];
        let indexable = match prev.kind {
            TokenKind::Ident => !KEYWORDS.contains(&prev.text.as_str()),
            TokenKind::Punct => prev.text == ")" || prev.text == "]",
            _ => false,
        };
        if !indexable {
            continue;
        }
        push(
            out,
            ctx,
            "no-slice-index",
            toks[i].line,
            "unchecked indexing can panic on out-of-range input".to_string(),
            "use `.get()`/`.first()`/`.last()`, or justify bounds with `// lint:allow(no-slice-index): <why in-bounds>`",
        );
    }
}

/// `no-as-cast`: no `as` numeric casts in scoring-path or write-path
/// files (wrong score vs. corrupted WAL offset — both silent).
fn no_as_cast(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let scoped = config::SCORING_PATHS
        .iter()
        .chain(config::WRITE_PATHS)
        .any(|p| ctx.rel.ends_with(p));
    if !scoped {
        return;
    }
    let toks = &ctx.lx.tokens;
    let mut in_use = false;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.text == "use" && t.kind == TokenKind::Ident {
            in_use = true;
        } else if t.text == ";" {
            in_use = false;
        }
        if ctx.is_test(i) || in_use || t.text != "as" || t.kind != TokenKind::Ident {
            continue;
        }
        if i == 0 || i + 1 >= toks.len() {
            continue;
        }
        let prev_ok = matches!(toks[i - 1].kind, TokenKind::Ident | TokenKind::Number)
            || toks[i - 1].text == ")"
            || toks[i - 1].text == "]";
        let next_ok = toks[i + 1].kind == TokenKind::Ident;
        if prev_ok && next_ok {
            push(
                out,
                ctx,
                "no-as-cast",
                t.line,
                "`as` cast in a scoring path silently wraps or truncates".to_string(),
                "use `f64::from`/`u32::try_from` (widening/checked), or `// lint:allow(no-as-cast): <why exact>` for intentional truncation",
            );
        }
    }
}

/// `safety-comment`: every `unsafe` block needs an adjacent `// SAFETY:`.
fn safety_comment(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = &ctx.lx.tokens;
    for i in 0..toks.len() {
        if ctx.is_test(i) || toks[i].text != "unsafe" || toks[i].kind != TokenKind::Ident {
            continue;
        }
        // Only blocks: `unsafe {`. Declarations (`pub unsafe fn`) document
        // their contract in a `# Safety` doc section instead.
        if toks.get(i + 1).map(|t| t.text.as_str()) != Some("{") {
            continue;
        }
        let line = toks[i].line;
        let documented = ctx
            .lx
            .comments
            .iter()
            .any(|c| c.line + 3 > line && c.line <= line && c.text.contains("SAFETY:"));
        if !documented {
            push(
                out,
                ctx,
                "safety-comment",
                line,
                "`unsafe` block without a `// SAFETY:` justification".to_string(),
                "add `// SAFETY: <why the invariants hold>` on the line above the block",
            );
        }
    }
}

/// `no-thread-spawn`: `thread::spawn` only inside `tix-server`.
fn no_thread_spawn(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if config::SPAWN_EXEMPT_CRATES.contains(&ctx.krate) {
        return;
    }
    let toks = &ctx.lx.tokens;
    for i in 0..toks.len().saturating_sub(2) {
        if ctx.is_test(i) {
            continue;
        }
        if toks[i].text == "thread" && toks[i + 1].text == "::" && toks[i + 2].text == "spawn" {
            push(
                out,
                ctx,
                "no-thread-spawn",
                toks[i].line,
                "thread spawning outside tix-server".to_string(),
                "use `std::thread::scope`, which joins every worker before it returns, as `tix-index`'s parallel build does",
            );
        }
    }
}

/// `no-unbounded-channel`: request-path queues in serving code must be
/// bounded. Flags `VecDeque` (the natural queue type) and `Vec`s whose
/// surrounding identifiers say "queue", unless the file also contains an
/// explicit capacity comparison — the admission check that turns a buffer
/// into a bounded queue. A queue that grows with client demand converts a
/// traffic burst into memory exhaustion; load must be shed at admission.
fn no_unbounded_channel(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !config::BOUNDED_QUEUE_CRATES.contains(&ctx.krate) {
        return;
    }
    let toks = &ctx.lx.tokens;
    // A capacity guard anywhere in the file vouches for its queues: some
    // comparison operator within a few tokens of a `capacity`-named value,
    // e.g. `items.len() >= self.capacity`.
    const GUARD_WINDOW: usize = 4;
    let has_capacity_guard = toks.iter().enumerate().any(|(i, t)| {
        if t.kind != TokenKind::Punct || !matches!(t.text.as_str(), ">=" | "<=" | ">" | "<") {
            return false;
        }
        let lo = i.saturating_sub(GUARD_WINDOW);
        let hi = (i + GUARD_WINDOW + 1).min(toks.len());
        toks[lo..hi]
            .iter()
            .any(|n| n.kind == TokenKind::Ident && n.text.to_lowercase().contains("capacity"))
    });
    if has_capacity_guard {
        return;
    }
    const QUEUE_WINDOW: usize = 6;
    let mut in_use = false;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.text == "use" && t.kind == TokenKind::Ident {
            in_use = true; // imports name the type without buffering anything
        } else if t.text == ";" {
            in_use = false;
        }
        if ctx.is_test(i) || in_use || t.kind != TokenKind::Ident {
            continue;
        }
        let queue_like = t.text == "VecDeque"
            || (t.text == "Vec" && {
                let lo = i.saturating_sub(QUEUE_WINDOW);
                toks[lo..i]
                    .iter()
                    .any(|p| p.kind == TokenKind::Ident && p.text.to_lowercase().contains("queue"))
            });
        if queue_like {
            push(
                out,
                ctx,
                "no-unbounded-channel",
                t.line,
                format!("`{}` used as a request queue with no capacity check in this file", t.text),
                "bound it: compare the length against a capacity before pushing (admission control), and shed load (503) when full",
            );
        }
    }
}

/// `pub-doc`: public items in `core`/`exec` need doc comments.
fn pub_doc(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !config::DOC_CRATES.contains(&ctx.krate) {
        return;
    }
    const ITEM_KEYWORDS: &[&str] = &[
        "fn", "struct", "enum", "trait", "const", "static", "type", "mod", "union",
    ];
    let toks = &ctx.lx.tokens;
    for i in 0..toks.len() {
        if ctx.is_test(i) {
            continue;
        }
        let Some(j) = pub_item_keyword(toks, i) else {
            continue;
        };
        let kw = &toks[j];
        if kw.text == "use" {
            continue; // re-exports inherit the original item's docs
        }
        if !ITEM_KEYWORDS.contains(&kw.text.as_str()) {
            continue; // struct fields, etc.
        }
        // Out-of-line `pub mod name;` — the module documents itself with
        // `//!` inner docs in its own file.
        if kw.text == "mod" && toks.get(j + 2).map(|t| t.text.as_str()) == Some(";") {
            continue;
        }
        let name = toks.get(j + 1).map(|t| t.text.clone()).unwrap_or_default();
        if !has_doc(toks, i) {
            push(
                out,
                ctx,
                "pub-doc",
                toks[i].line,
                format!("public {} `{}` has no doc comment", kw.text, name),
                "add a `///` summary line describing the contract, not the implementation",
            );
        }
    }
}

/// If token `i` is the `pub` of a plain-`pub` item, the index of the
/// item's keyword (`fn`, `struct`, `use`, ...), past any `const`,
/// `unsafe`, `async` or `extern "…"` qualifiers. `pub(crate)` and
/// `pub(super)` are not part of the public API and return `None`.
fn pub_item_keyword(toks: &[Token], i: usize) -> Option<usize> {
    let t = toks.get(i)?;
    if t.text != "pub" || t.kind != TokenKind::Ident {
        return None;
    }
    let mut j = i + 1;
    if toks.get(j)?.text == "(" {
        return None;
    }
    loop {
        let t = toks.get(j)?;
        let qualifier = match t.text.as_str() {
            "async" | "unsafe" | "extern" => true,
            // `pub const fn` qualifies a fn; `pub const X` is the item.
            "const" => toks
                .get(j + 1)
                .is_some_and(|n| matches!(n.text.as_str(), "fn" | "unsafe" | "async" | "extern")),
            _ => t.kind == TokenKind::Str,
        };
        if !qualifier {
            return Some(j);
        }
        j += 1;
    }
}

/// Does the item starting at token `i` (its `pub`) have an outer doc
/// comment or `#[doc]` attribute, scanning back across attributes?
fn has_doc(toks: &[Token], mut i: usize) -> bool {
    loop {
        if i == 0 {
            return false;
        }
        let prev = &toks[i - 1];
        if prev.kind == TokenKind::DocComment {
            return true;
        }
        if prev.text == "]" {
            // Walk back over one attribute `#[ ... ]`.
            let mut depth = 1i32;
            let mut k = i - 1;
            while k > 0 && depth > 0 {
                k -= 1;
                match toks[k].text.as_str() {
                    "]" => depth += 1,
                    "[" => depth -= 1,
                    _ => {}
                }
            }
            if k == 0 || toks[k - 1].text != "#" {
                return false;
            }
            if toks[k..i].iter().any(|t| t.text == "doc") {
                return true;
            }
            i = k - 1;
            continue;
        }
        return false;
    }
}

/// `no-float-eq`: no `==`/`!=` against float literals or score values.
fn no_float_eq(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !config::FLOAT_EQ_CRATES.contains(&ctx.krate) {
        return;
    }
    let toks = &ctx.lx.tokens;
    for i in 1..toks.len().saturating_sub(1) {
        let t = &toks[i];
        if ctx.is_test(i) || t.kind != TokenKind::Punct || (t.text != "==" && t.text != "!=") {
            continue;
        }
        let floatish = |tok: &Token| {
            (tok.kind == TokenKind::Number && tok.is_float)
                || (tok.kind == TokenKind::Ident && tok.text.to_lowercase().contains("score"))
        };
        if floatish(&toks[i - 1]) || floatish(&toks[i + 1]) {
            push(
                out,
                ctx,
                "no-float-eq",
                t.line,
                "direct float equality on a score".to_string(),
                "use `f64::total_cmp`, an epsilon comparison, or restructure around an integer quantity",
            );
        }
    }
}

/// `no-bare-file-create`: in snapshot-writing crates, `File::create`
/// writes partial bytes at the final path — a crash mid-write replaces
/// committed data with a torn file. Durable writes must go through
/// `tix_store::persist::atomic_write` (sibling temp + fsync + rename).
fn no_bare_file_create(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !config::DURABLE_WRITE_CRATES.contains(&ctx.krate) {
        return;
    }
    let toks = &ctx.lx.tokens;
    for i in 0..toks.len().saturating_sub(2) {
        if ctx.is_test(i) {
            continue;
        }
        if toks[i].text == "File"
            && toks[i].kind == TokenKind::Ident
            && toks[i + 1].text == "::"
            && toks[i + 2].text == "create"
        {
            push(
                out,
                ctx,
                "no-bare-file-create",
                toks[i].line,
                "`File::create` writes in place; a crash mid-write leaves a torn file at the final path".to_string(),
                "route the write through `tix_store::persist::atomic_write`, or justify with `// lint:allow(no-bare-file-create): <why atomic>`",
            );
        }
    }
}

/// `unused-pub`: a plain `pub` item in `crates/*/src` whose name no
/// identifier token in any scanned file spells, apart from its own
/// definition, `pub use` re-exports, and its own file's test spans.
/// Name-based and conservative: any same-named identifier anywhere
/// (another item, a field, a local) counts as a use, and comments and
/// strings are not tokens, so they never do.
pub fn unused_pub(files: &[FileCtx<'_>], out: &mut Vec<Finding>) {
    const ITEM_KEYWORDS: &[&str] = &[
        "fn", "struct", "enum", "trait", "type", "const", "static", "union",
    ];
    // Per file, per name: (uses anywhere, uses inside test spans).
    let counts: Vec<HashMap<&str, (usize, usize)>> = files
        .iter()
        .map(|ctx| {
            let reexport = mark_pub_use(&ctx.lx.tokens);
            let mut m: HashMap<&str, (usize, usize)> = HashMap::new();
            for (i, t) in ctx.lx.tokens.iter().enumerate() {
                if t.kind == TokenKind::Ident && !reexport[i] {
                    let e = m.entry(t.text.as_str()).or_default();
                    e.0 += 1;
                    e.1 += usize::from(ctx.is_test(i));
                }
            }
            m
        })
        .collect();
    let mut total: HashMap<&str, usize> = HashMap::new();
    for m in &counts {
        for (name, (n, _)) in m {
            *total.entry(name).or_default() += n;
        }
    }
    for (ctx, own) in files.iter().zip(&counts) {
        if !config::is_lib_source(ctx.rel) {
            continue;
        }
        let toks = &ctx.lx.tokens;
        for i in 0..toks.len() {
            if ctx.is_test(i) {
                continue;
            }
            let Some(j) = pub_item_keyword(toks, i) else {
                continue;
            };
            let kw = &toks[j];
            if !ITEM_KEYWORDS.contains(&kw.text.as_str()) {
                continue;
            }
            let mut k = j + 1;
            if kw.text == "static" && toks.get(k).is_some_and(|t| t.text == "mut") {
                k += 1;
            }
            // A non-identifier here is a macro-generated item (`pub fn $name`).
            let Some(name) = toks.get(k).filter(|t| t.kind == TokenKind::Ident) else {
                continue;
            };
            let name = name.text.as_str();
            let own_tests = own.get(name).map_or(0, |c| c.1);
            let uses = total.get(name).copied().unwrap_or(0);
            if uses.saturating_sub(1 + own_tests) == 0 {
                push(
                    out,
                    ctx,
                    "unused-pub",
                    toks[i].line,
                    format!(
                        "public {} `{name}` is named nowhere but its definition, re-exports and own tests",
                        kw.text
                    ),
                    "delete it; if it is the executable form of a paper definition kept for its tests, say so with `// lint:allow(unused-pub): <paper section>`",
                );
            }
        }
    }
}

/// Mark the tokens of every `pub use …;` statement: a re-export names an
/// item without using it.
fn mark_pub_use(toks: &[Token]) -> Vec<bool> {
    let mut marked = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if pub_item_keyword(toks, i).is_some_and(|j| toks[j].text == "use") {
            while i < toks.len() && toks[i].text != ";" {
                marked[i] = true;
                i += 1;
            }
        }
        i += 1;
    }
    marked
}

/// Mark the token spans covered by `#[cfg(test)]` / `#[test]` items.
fn mark_test_spans(toks: &[Token]) -> Vec<bool> {
    let mut marked = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if let Some(after_attr) = test_attr_end(toks, i) {
            // Skip any further attributes on the same item.
            let mut j = after_attr;
            while toks.get(j).map(|t| t.text.as_str()) == Some("#") {
                if let Some(end) = attr_end(toks, j) {
                    j = end;
                } else {
                    break;
                }
            }
            // The item ends at the first `;` or matching `}` of the first
            // `{` at nesting depth 0.
            let mut k = j;
            let mut depth = 0i32;
            while k < toks.len() {
                match toks[k].text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    ";" if depth == 0 => {
                        k += 1;
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            for flag in marked.iter_mut().take(k.min(toks.len())).skip(i) {
                *flag = true;
            }
            i = k;
            continue;
        }
        i += 1;
    }
    marked
}

/// If token `i` begins a `#[...]` attribute, return the index one past its
/// closing `]`.
fn attr_end(toks: &[Token], i: usize) -> Option<usize> {
    if toks.get(i)?.text != "#" || toks.get(i + 1)?.text != "[" {
        return None;
    }
    let mut depth = 0i32;
    let mut j = i + 1;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j + 1);
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// If token `i` begins a test-marking attribute (`#[test]`, `#[cfg(test)]`,
/// `#[cfg(all(test, ...))]` — but not `#[cfg(not(test))]`), return the
/// index one past its closing `]`.
fn test_attr_end(toks: &[Token], i: usize) -> Option<usize> {
    let end = attr_end(toks, i)?;
    let inner = &toks[i + 2..end - 1];
    let has_test = inner
        .iter()
        .any(|t| t.kind == TokenKind::Ident && t.text == "test");
    let negated = inner
        .iter()
        .any(|t| t.kind == TokenKind::Ident && t.text == "not");
    let is_cfg = inner
        .first()
        .is_some_and(|t| t.text == "cfg" || t.text == "test" || t.text == "cfg_attr");
    // `#[cfg_attr(...)]` never marks test code by itself.
    let cfg_attr = inner.first().is_some_and(|t| t.text == "cfg_attr");
    if has_test && !negated && is_cfg && !cfg_attr {
        Some(end)
    } else {
        None
    }
}

/// Parse `// lint:allow(rule, rule): reason` directives from comments.
fn parse_allows(lx: &Lexed) -> HashMap<u32, Vec<String>> {
    let mut map: HashMap<u32, Vec<String>> = HashMap::new();
    for c in &lx.comments {
        let Some(pos) = c.text.find("lint:allow(") else {
            continue;
        };
        let rest = &c.text[pos + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rules = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty());
        map.entry(c.line).or_default().extend(rules);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn findings_in(rel: &str, src: &str) -> Vec<Finding> {
        let lx = lex(src);
        let ctx = FileCtx::new(rel, &lx);
        let mut out = Vec::new();
        run_all(&ctx, &mut out);
        out
    }

    fn rules_of(f: &[Finding]) -> Vec<&str> {
        f.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn unwrap_flagged_in_lib_crates() {
        let f = findings_in("crates/core/src/x.rs", "fn f() { let x = y.unwrap(); }");
        assert_eq!(rules_of(&f), ["no-unwrap"]);
        let f = findings_in("crates/store/src/x.rs", "fn f() { y.expect(\"msg\"); }");
        assert_eq!(rules_of(&f), ["no-unwrap"]);
    }

    #[test]
    fn unwrap_or_not_flagged() {
        let f = findings_in("crates/core/src/x.rs", "fn f() { y.unwrap_or(0); }");
        assert!(f.is_empty());
    }

    #[test]
    fn unwrap_ok_outside_scope_and_in_tests() {
        assert!(findings_in("crates/bench/src/x.rs", "fn f() { y.unwrap(); }").is_empty());
        assert!(findings_in(
            "crates/core/src/x.rs",
            "#[cfg(test)]\nmod tests { fn f() { y.unwrap(); } }"
        )
        .is_empty());
        assert!(findings_in("crates/core/tests/t.rs", "fn f() { y.unwrap(); }").is_empty());
    }

    #[test]
    fn local_fn_expect_not_flagged() {
        let src =
            "impl R { fn expect(&mut self, t: &str) {} fn go(&mut self) { self.expect(\"<\"); } }";
        assert!(findings_in("crates/xml/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_still_checked() {
        let f = findings_in(
            "crates/core/src/x.rs",
            "#[cfg(not(test))]\nfn f() { y.unwrap(); }",
        );
        assert_eq!(rules_of(&f), ["no-unwrap"]);
    }

    #[test]
    fn slice_index_flagged_and_allowed() {
        let f = findings_in("crates/exec/src/x.rs", "fn f() { let x = v[i]; }");
        assert_eq!(rules_of(&f), ["no-slice-index"]);
        let f = findings_in(
            "crates/exec/src/x.rs",
            "fn f() {\n    // lint:allow(no-slice-index): i < v.len() checked above\n    let x = v[i];\n}",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn slice_index_ignores_types_macros_attrs() {
        let src = "#[derive(Debug)]\nstruct S { a: [u8; 4] }\nfn f() { let v = vec![1]; let [a, b] = pair; }";
        assert!(findings_in("crates/exec/src/x.rs", src).is_empty());
    }

    #[test]
    fn as_cast_flagged_in_scoring_paths_only() {
        let f = findings_in(
            "crates/exec/src/topk.rs",
            "fn f(n: usize) -> f64 { n as f64 }",
        );
        assert_eq!(rules_of(&f), ["no-as-cast"]);
        assert!(findings_in(
            "crates/exec/src/stream.rs",
            "fn f(n: usize) -> f64 { n as f64 }"
        )
        .is_empty());
        // `use x as y` is not a cast.
        assert!(findings_in("crates/exec/src/topk.rs", "use a::b as c;").is_empty());
    }

    #[test]
    fn safety_comment_required() {
        let f = findings_in("crates/core/src/x.rs", "fn f() { unsafe { g(); } }");
        assert_eq!(rules_of(&f), ["safety-comment"]);
        let ok = "fn f() {\n    // SAFETY: g has no preconditions here\n    unsafe { g(); }\n}";
        assert!(findings_in("crates/core/src/x.rs", ok).is_empty());
    }

    #[test]
    fn thread_spawn_scoped() {
        let f = findings_in(
            "crates/exec/src/x.rs",
            "fn f() { std::thread::spawn(|| {}); }",
        );
        assert_eq!(rules_of(&f), ["no-thread-spawn"]);
        assert!(findings_in(
            "crates/server/src/x.rs",
            "fn f() { std::thread::spawn(|| {}); }"
        )
        .is_empty());
        assert!(findings_in(
            "crates/index/src/x.rs",
            "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }"
        )
        .is_empty());
    }

    #[test]
    fn unbounded_queue_flagged_in_server() {
        // A VecDeque with no capacity comparison anywhere in the file.
        let f = findings_in(
            "crates/server/src/x.rs",
            "struct Q { items: VecDeque<u32> }\nfn push(q: &mut Q, v: u32) { q.items.push_back(v); }",
        );
        assert_eq!(rules_of(&f), ["no-unbounded-channel"]);
        // A Vec named like a queue counts too.
        let f = findings_in(
            "crates/server/src/x.rs",
            "struct S { request_queue: Vec<u32> }",
        );
        assert_eq!(rules_of(&f), ["no-unbounded-channel"]);
    }

    #[test]
    fn bounded_queue_with_capacity_check_passes() {
        let src = "struct Q { items: VecDeque<u32>, capacity: usize }\n\
                   fn try_push(q: &mut Q, v: u32) -> bool {\n\
                       if q.items.len() >= q.capacity { return false; }\n\
                       q.items.push_back(v); true\n\
                   }";
        assert!(findings_in("crates/server/src/x.rs", src).is_empty());
        // Imports alone don't buffer anything.
        assert!(findings_in(
            "crates/server/src/x.rs",
            "use std::collections::VecDeque;\nfn f() {}"
        )
        .is_empty());
        // A plain Vec that is not a queue is fine.
        assert!(findings_in(
            "crates/server/src/x.rs",
            "fn f() { let results: Vec<u32> = g(); }"
        )
        .is_empty());
        // Other crates are out of scope.
        assert!(
            findings_in("crates/exec/src/x.rs", "struct Q { items: VecDeque<u32> }").is_empty()
        );
    }

    #[test]
    fn server_joins_spawn_exempt_and_panic_free() {
        assert!(findings_in(
            "crates/server/src/x.rs",
            "fn f() { std::thread::spawn(|| {}); }"
        )
        .is_empty());
        let f = findings_in("crates/server/src/x.rs", "fn f() { y.unwrap(); }");
        assert_eq!(rules_of(&f), ["no-unwrap"]);
    }

    #[test]
    fn pub_doc_required_in_core_exec() {
        let f = findings_in("crates/core/src/x.rs", "pub fn undocumented() {}");
        assert_eq!(rules_of(&f), ["pub-doc"]);
        assert!(findings_in("crates/core/src/x.rs", "/// Documented.\npub fn ok() {}").is_empty());
        // Attributes between doc and item are fine.
        assert!(findings_in(
            "crates/core/src/x.rs",
            "/// Documented.\n#[derive(Debug)]\npub struct S;"
        )
        .is_empty());
        // pub(crate), re-exports, and out-of-line modules are exempt;
        // other crates unscoped.
        assert!(findings_in("crates/core/src/x.rs", "pub(crate) fn internal() {}").is_empty());
        assert!(findings_in("crates/core/src/x.rs", "pub mod selfdoc;").is_empty());
        let f = findings_in("crates/core/src/x.rs", "pub mod inline { pub fn f() {} }");
        assert_eq!(rules_of(&f), ["pub-doc", "pub-doc"]);
        assert!(findings_in("crates/core/src/x.rs", "pub use other::Thing;").is_empty());
        assert!(findings_in("crates/store/src/x.rs", "pub fn undocumented() {}").is_empty());
    }

    #[test]
    fn float_eq_flagged() {
        let f = findings_in("crates/exec/src/x.rs", "fn f(b: f64) -> bool { b == 0.0 }");
        assert_eq!(rules_of(&f), ["no-float-eq"]);
        let f = findings_in(
            "crates/exec/src/x.rs",
            "fn f(a: S, b: S) -> bool { a.score == b.score }",
        );
        assert_eq!(rules_of(&f), ["no-float-eq"]);
        assert!(findings_in("crates/exec/src/x.rs", "fn f(n: u32) -> bool { n == 0 }").is_empty());
    }

    #[test]
    fn bare_file_create_flagged_in_durable_write_crates() {
        let f = findings_in(
            "crates/cli/src/main.rs",
            "fn f() { let file = fs::File::create(path); }",
        );
        assert_eq!(rules_of(&f), ["no-bare-file-create"]);
        // The atomic_write implementation itself is allowlisted.
        assert!(findings_in(
            "crates/store/src/persist.rs",
            "fn f() { let file = File::create(tmp); }"
        )
        .is_empty());
        // Crates outside the durable-write scope are unaffected.
        assert!(findings_in(
            "crates/corpus/src/x.rs",
            "fn f() { let file = File::create(path); }"
        )
        .is_empty());
        // Tests may create files directly.
        assert!(findings_in(
            "crates/cli/src/main.rs",
            "#[cfg(test)]\nmod tests { fn f() { fs::File::create(p); } }"
        )
        .is_empty());
        // An inline allow with a justification suppresses it.
        assert!(findings_in(
            "crates/server/src/x.rs",
            "fn f() {\n    // lint:allow(no-bare-file-create): scratch file in a per-run temp dir\n    let file = File::create(p);\n}"
        )
        .is_empty());
    }

    /// Names `unused-pub` flags over an in-memory file set.
    fn unused_in(files: &[(&str, &str)]) -> Vec<String> {
        let lexed: Vec<_> = files.iter().map(|(rel, src)| (*rel, lex(src))).collect();
        let ctxs: Vec<_> = lexed
            .iter()
            .map(|(rel, lx)| FileCtx::new(rel, lx))
            .collect();
        let mut out = Vec::new();
        unused_pub(&ctxs, &mut out);
        assert!(out.iter().all(|f| f.rule == "unused-pub"));
        out.iter()
            .filter_map(|f| f.message.split('`').nth(1).map(str::to_string))
            .collect()
    }

    #[test]
    fn unused_pub_ignores_own_test_spans_but_not_other_files() {
        let def = (
            "crates/core/src/a.rs",
            "pub fn lonely() {}\n#[cfg(test)]\nmod tests { #[test] fn t() { super::lonely(); } }",
        );
        assert_eq!(unused_in(&[def]), ["lonely"]);
        let other_tests = (
            "crates/exec/src/b.rs",
            "#[cfg(test)]\nmod tests { fn t() { tix_core::lonely(); } }",
        );
        assert!(unused_in(&[def, other_tests]).is_empty());
        // A use in the defining file's own non-test code counts.
        assert!(unused_in(&[(
            "crates/core/src/a.rs",
            "pub fn used() {}\nfn f() { used(); }"
        )])
        .is_empty());
    }

    #[test]
    fn unused_pub_counts_tests_tixbench_and_examples() {
        let def = ("crates/store/src/a.rs", "pub fn helper() {}");
        for user in [
            "crates/cluster/tests/e2e.rs",
            "tixbench/src/main.rs",
            "examples/quickstart.rs",
        ] {
            let call = (user, "fn main() { tix_store::helper(); }");
            assert!(unused_in(&[def, call]).is_empty(), "{user}");
        }
        // Items defined outside crates/*/src are never checked.
        assert!(unused_in(&[("tixbench/src/main.rs", "pub fn idle() {}")]).is_empty());
        assert!(unused_in(&[("crates/core/tests/t.rs", "pub fn idle() {}")]).is_empty());
    }

    #[test]
    fn unused_pub_comments_and_strings_are_not_uses() {
        let def = ("crates/core/src/a.rs", "pub fn ghost() {}");
        let mentions = (
            "crates/exec/src/b.rs",
            "/// See [`ghost`].\nfn f() {\n    // ghost() was here\n    let s = \"ghost\";\n}",
        );
        assert_eq!(unused_in(&[def, mentions]), ["ghost"]);
    }

    #[test]
    fn unused_pub_reexports_are_not_uses() {
        let def = ("crates/core/src/a.rs", "pub fn relay() {}");
        let reexport = ("crates/core/src/lib.rs", "pub use a::{other, relay};");
        assert_eq!(unused_in(&[def, reexport]), ["relay"]);
        // A private import that is then called is a use.
        let import = (
            "crates/exec/src/b.rs",
            "use tix_core::relay;\nfn f() { relay(); }",
        );
        assert!(unused_in(&[def, reexport, import]).is_empty());
    }

    #[test]
    fn unused_pub_inline_allow_suppresses() {
        let src = "/// Sec. 3.2.3 product.\n// lint:allow(unused-pub): the paper's definition\npub fn product() {}";
        assert!(unused_in(&[("crates/core/src/a.rs", src)]).is_empty());
    }

    #[test]
    fn unused_pub_skips_restricted_visibility_and_fields() {
        let src = "pub(crate) fn internal() {}\npub(super) fn up() {}\n\
                   pub struct S { pub field: u32 }\nfn f(s: S) {}";
        assert!(unused_in(&[("crates/core/src/a.rs", src)]).is_empty());
    }

    #[test]
    fn unused_pub_checks_impl_methods_and_every_item_kind() {
        let src = "pub struct S;\nimpl S { pub fn method(&self) {} }\nfn f() -> S { S }";
        assert_eq!(unused_in(&[("crates/core/src/a.rs", src)]), ["method"]);
        let src = "pub const fn c() {}\npub unsafe fn u() {}\npub async fn a() {}\n\
                   pub extern \"C\" fn e() {}\npub static mut M: u8 = 0;\npub const K: u8 = 1;\n\
                   pub enum E {}\npub trait T {}\npub type A = u8;\npub union U { x: u8 }";
        assert_eq!(
            unused_in(&[("crates/core/src/a.rs", src)]),
            ["c", "u", "a", "e", "M", "K", "E", "T", "A", "U"]
        );
    }

    #[test]
    fn inline_allow_on_same_line() {
        let src = "fn f(b: f64) -> bool { b == 0.0 } // lint:allow(no-float-eq): exact sentinel";
        assert!(findings_in("crates/exec/src/x.rs", src).is_empty());
    }
}
