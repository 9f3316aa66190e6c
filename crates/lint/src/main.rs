//! `tix-lint` — the workspace's project-rule lint driver.
//!
//! Dependency-free: a lightweight Rust lexer (`lexer`) feeds a small rule
//! engine (`rules`) whose scopes and standing exceptions live in `config`.
//! Run as `cargo run -p tix-lint` from anywhere in the workspace.
//!
//! ```text
//! tix-lint [--deny-all] [--json] [--list-rules] [--list-allows] [--root DIR]
//! ```
//!
//! * default     — print findings, exit 0 (report-only)
//! * `--deny-all` — exit 1 if any finding survives the allowlists (CI mode)
//! * `--json`    — machine-readable report on stdout
//!
//! Suppression: standing per-file entries in `config::ALLOWS` (with
//! reasons), or inline `// lint:allow(rule): reason` on the offending line
//! or the line above.

mod config;
mod lexer;
mod rules;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rules::{FileCtx, Finding};

struct Options {
    deny_all: bool,
    json: bool,
    list_rules: bool,
    list_allows: bool,
    root: Option<PathBuf>,
}

const RULES: &[(&str, &str)] = &[
    (
        "no-unwrap",
        "no .unwrap()/.expect() panics in library or CLI code",
    ),
    (
        "no-slice-index",
        "no unchecked slice indexing in library code",
    ),
    (
        "no-as-cast",
        "no `as` numeric casts in scoring paths (use From/TryFrom)",
    ),
    (
        "safety-comment",
        "every unsafe block carries a // SAFETY: justification",
    ),
    ("no-thread-spawn", "thread::spawn only inside tix-server"),
    (
        "no-unbounded-channel",
        "request queues in serving code must carry a capacity check",
    ),
    ("pub-doc", "public items in core/exec require doc comments"),
    ("no-float-eq", "no direct f64 equality on scores"),
    (
        "no-bare-file-create",
        "snapshot writes must use atomic_write, not a bare File::create",
    ),
    (
        "unused-pub",
        "every pub item in crates/*/src is named outside its definition and own tests",
    ),
];

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("tix-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    if opts.list_rules {
        for (name, desc) in RULES {
            println!("{name:<16} {desc}");
        }
        return ExitCode::SUCCESS;
    }
    if opts.list_allows {
        for a in config::ALLOWS {
            println!(
                "{:<16} {}\n                 reason: {}",
                a.rule, a.path_suffix, a.reason
            );
        }
        return ExitCode::SUCCESS;
    }
    let root = match opts.root.clone().or_else(workspace_root) {
        Some(root) => root,
        None => {
            eprintln!("tix-lint: could not locate the workspace root (pass --root DIR)");
            return ExitCode::from(2);
        }
    };
    let lexed: Vec<(String, lexer::Lexed)> = collect_sources(&root)
        .iter()
        .filter_map(|path| {
            let src = std::fs::read_to_string(path).ok()?;
            Some((rel_path(&root, path), lexer::lex(&src)))
        })
        .collect();
    let scanned = lexed.len();
    let ctxs: Vec<FileCtx<'_>> = lexed
        .iter()
        .map(|(rel, lx)| FileCtx::new(rel, lx))
        .collect();
    let mut findings = Vec::new();
    for ctx in &ctxs {
        rules::run_all(ctx, &mut findings);
    }
    rules::unused_pub(&ctxs, &mut findings);
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));

    if opts.json {
        println!("{}", to_json(&findings, scanned));
    } else {
        for f in &findings {
            println!("warning[{}]: {}", f.rule, f.message);
            println!("  --> {}:{}", f.file, f.line);
            println!("  help: {}", f.help);
        }
        println!(
            "tix-lint: {} finding(s) in {} file(s) scanned",
            findings.len(),
            scanned
        );
    }
    if opts.deny_all && !findings.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        deny_all: false,
        json: false,
        list_rules: false,
        list_allows: false,
        root: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-all" => opts.deny_all = true,
            "--json" => opts.json = true,
            "--list-rules" => opts.list_rules = true,
            "--list-allows" => opts.list_allows = true,
            "--root" => {
                let dir = args.next().ok_or("--root requires a directory")?;
                opts.root = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => {
                return Err("usage: tix-lint [--deny-all] [--json] [--list-rules] [--list-allows] [--root DIR]".into());
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(opts)
}

/// The workspace root: walk up from this crate's manifest dir (compile
/// time) or the current directory (runtime fallback) to the first
/// directory whose Cargo.toml declares `[workspace]`.
fn workspace_root() -> Option<PathBuf> {
    let compile_time = Path::new(env!("CARGO_MANIFEST_DIR"));
    let candidates = [
        compile_time
            .parent()
            .and_then(Path::parent)
            .map(Path::to_path_buf),
        std::env::current_dir().ok(),
    ];
    for start in candidates.into_iter().flatten() {
        let mut dir = start.as_path();
        loop {
            let manifest = dir.join("Cargo.toml");
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir.to_path_buf());
                }
            }
            match dir.parent() {
                Some(parent) => dir = parent,
                None => break,
            }
        }
    }
    None
}

/// Every `.rs` file under `config::SOURCE_ROOTS` (integration tests,
/// benches, examples and tixbench included; `target/` skipped), sorted for
/// deterministic output. The per-file rules check only `crates/*/src` and
/// skip its `#[cfg(test)]` spans; `unused-pub` reads every file for uses.
fn collect_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for dir in config::SOURCE_ROOTS {
        walk(&root.join(dir), &mut out);
    }
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                walk(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Hand-rolled JSON writer (the workspace has no serde and takes no new
/// dependencies).
fn to_json(findings: &[Finding], scanned: usize) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"files_scanned\": {scanned},\n"));
    s.push_str(&format!("  \"total_findings\": {},\n", findings.len()));
    s.push_str("  \"by_rule\": {");
    let mut first = true;
    for (rule, _) in RULES {
        let count = findings.iter().filter(|f| f.rule == *rule).count();
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str(&format!("\n    \"{rule}\": {count}"));
    }
    s.push_str("\n  },\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \"help\": \"{}\"}}",
            esc(f.rule),
            esc(&f.file),
            f.line,
            esc(&f.message),
            esc(f.help)
        ));
    }
    s.push_str("\n  ]\n}");
    s
}

fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect()
}
