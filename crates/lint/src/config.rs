//! Which rules apply where, and the standing allowlist.
//!
//! Scopes are expressed as crate directory names under `crates/`. The
//! allowlist entries are deliberate, reviewed exceptions — every entry
//! carries the reason it is sound, and the reason is printed when
//! `--list-allows` is passed so exceptions stay visible.

/// Crates whose library code must be panic-free (`no-unwrap`).
/// `cli` is included: the CLI must report errors, not abort. `server` is
/// included: a panic in a worker kills a request, never the process, but
/// it still must answer 500 — so the handler code itself stays panic-free.
pub const PANIC_FREE_CRATES: &[&str] = &[
    "core", "exec", "index", "store", "xml", "query", "parallel", "cli", "server", "ingest",
    "cluster", "pack",
];

/// Crates whose library code is checked for unchecked slice indexing.
pub const INDEX_CHECKED_CRATES: &[&str] = &[
    "core", "exec", "index", "store", "xml", "query", "parallel", "ingest", "pack",
];

/// Crates checked for direct float equality on scores.
pub const FLOAT_EQ_CRATES: &[&str] = &[
    "core", "exec", "index", "store", "xml", "query", "parallel", "ingest", "pack",
];

/// Crates whose public items require doc comments.
pub const DOC_CRATES: &[&str] = &["core", "exec"];

/// Crates allowed to spawn threads: `parallel` (the document-partitioned
/// access methods) and `server` (the front door's accept loop and worker
/// pool, and a node's replication and flusher loops, are long-lived
/// service threads, not data-parallel workers — routing them through
/// `parallel_map` would serialize the pool behind one call). `cluster`
/// spawns nothing: the coordinator serves on the server's front door and
/// scatters from the worker thread that took the request.
pub const SPAWN_EXEMPT_CRATES: &[&str] = &["parallel", "server"];

/// Crates whose request-path collections must be bounded
/// (`no-unbounded-channel`): a queue that grows with client demand is a
/// memory-exhaustion vector, so any `Vec`/`VecDeque` used as a queue here
/// must sit behind an explicit capacity check.
pub const BOUNDED_QUEUE_CRATES: &[&str] = &["server", "cluster", "ingest"];

/// Crates that write snapshot/sidecar files (`no-bare-file-create`): a
/// bare `File::create` puts partial bytes at the final path, so a crash
/// mid-write replaces good data with a torn file. All durable writes in
/// these crates must go through `tix_store::persist::atomic_write`.
pub const DURABLE_WRITE_CRATES: &[&str] = &[
    "store", "index", "tix", "cli", "server", "ingest", "cluster", "pack",
];

/// Scoring-path files: no `as` numeric casts here — conversions must be
/// `From`/`TryFrom` or a helper with a justified inline allow. These are
/// the files where a silently wrapping cast would corrupt a relevance
/// score rather than crash.
pub const SCORING_PATHS: &[&str] = &[
    "crates/core/src/scoring.rs",
    "crates/core/src/histogram.rs",
    "crates/core/src/ops/pick.rs",
    "crates/core/src/ops/threshold.rs",
    "crates/exec/src/termjoin.rs",
    "crates/exec/src/phrase.rs",
    "crates/exec/src/pick.rs",
    "crates/exec/src/topk.rs",
    "crates/exec/src/modify.rs",
    "crates/exec/src/pushdown.rs",
    "crates/query/src/stats.rs",
    "crates/query/src/logical.rs",
    "crates/query/src/physical.rs",
    "crates/query/src/execute.rs",
    "crates/query/src/explain.rs",
];

/// Write-path files: the same no-`as`-cast bar as [`SCORING_PATHS`], for
/// a different failure mode — here a silently wrapping cast corrupts a
/// WAL length, LSN, or frame offset, turning crash recovery into data
/// loss instead of a wrong score.
pub const WRITE_PATHS: &[&str] = &[
    "crates/ingest/src/wal.rs",
    "crates/ingest/src/commit.rs",
    "crates/ingest/src/engine.rs",
];

/// A standing per-rule, per-file exception with its justification.
pub struct Allow {
    pub rule: &'static str,
    pub path_suffix: &'static str,
    pub reason: &'static str,
}

/// Reviewed exceptions. Prefer an inline `// lint:allow(rule): reason`
/// for single sites; use a file-level entry only when a whole file's
/// pattern is justified by construction.
pub const ALLOWS: &[Allow] = &[
    Allow {
        rule: "no-slice-index",
        path_suffix: "crates/index/src/build.rs",
        reason: "term ids are dense indices handed out by intern(); lists.len() == term_names.len() by construction",
    },
    Allow {
        rule: "no-slice-index",
        path_suffix: "crates/xml/src/reader.rs",
        reason: "byte-offset cursor is bounds-checked by the is_eof/peek protocol before every access",
    },
    Allow {
        rule: "no-slice-index",
        path_suffix: "crates/xml/src/error.rs",
        reason: "line/column resolution clamps offsets to the source length before slicing",
    },
    Allow {
        rule: "no-slice-index",
        path_suffix: "crates/query/src/lexer.rs",
        reason: "ASCII byte-scanner; every index is guarded by an i/j < bytes.len() loop bound and slices sit on ASCII boundaries",
    },
    Allow {
        rule: "no-bare-file-create",
        path_suffix: "crates/store/src/persist.rs",
        reason: "this file IS the atomic_write implementation — it creates only sibling temp files that are fsynced and renamed over the destination",
    },
];

/// True if `rel` (workspace-relative path) belongs to `krate`'s sources.
pub fn crate_of(rel: &str) -> Option<&str> {
    let rest = rel.strip_prefix("crates/")?;
    let (name, _) = rest.split_once('/')?;
    Some(name)
}

/// True if the file is test-only by location (integration tests, benches,
/// examples) rather than by `#[cfg(test)]` span.
pub fn is_test_path(rel: &str) -> bool {
    rel.contains("/tests/") || rel.contains("/benches/") || rel.contains("/examples/")
}

/// Standing allow for (rule, file)?
pub fn allowed(rule: &str, rel: &str) -> Option<&'static Allow> {
    ALLOWS
        .iter()
        .find(|a| a.rule == rule && rel.ends_with(a.path_suffix))
}
