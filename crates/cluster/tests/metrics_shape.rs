//! Freezes the shape of both `/metrics` documents: a standalone node's,
//! and the `"coordinator"` section of the coordinator's. Each document is
//! parsed and flattened to its sorted object key paths (arrays are
//! leaves), which must equal the literal lists below. A refactor of the
//! serving code must keep every key a dashboard or `tixbench` reads.

use tix::Database;
use tix_cluster::{local::scratch_dir, Json, LocalCluster};
use tix_server::{Server, ServerConfig};

/// Every object key path in `doc`, dot-joined, sorted.
fn key_paths(doc: &Json) -> Vec<String> {
    fn walk(value: &Json, prefix: &str, out: &mut Vec<String>) {
        if let Json::Obj(pairs) = value {
            for (key, child) in pairs {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                out.push(path.clone());
                walk(child, &path, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(doc, "", &mut out);
    out.sort();
    out
}

fn histogram(prefix: &str) -> Vec<String> {
    [
        "buckets", "count", "mean_us", "p50_us", "p95_us", "p99_us", "sum_us",
    ]
    .iter()
    .map(|k| format!("{prefix}.{k}"))
    .collect()
}

fn expected(literal: &[&str], histograms: &[&str]) -> Vec<String> {
    let mut out: Vec<String> = literal.iter().map(|s| s.to_string()).collect();
    for prefix in histograms {
        out.extend(histogram(prefix));
    }
    out.sort();
    out
}

#[test]
fn node_metrics_document_keeps_its_key_paths() {
    let mut db = Database::new();
    db.load("a.xml", "<a><p>rust xml</p></a>").unwrap();
    let server = Server::start(db, ServerConfig::default()).unwrap();
    let doc = Json::parse(&server.metrics_json()).unwrap();
    server.shutdown();
    let want = expected(
        &[
            "cache",
            "cache.hits",
            "cache.misses",
            "commit",
            "commit.batches",
            "commit.checkpoint_stall_us",
            "commit.frames",
            "commit.fsyncs",
            "commit.fsyncs_saved",
            "commit.max_batch_frames",
            "deadline_expired",
            "endpoints",
            "endpoints.cluster",
            "endpoints.documents",
            "endpoints.explain",
            "endpoints.health",
            "endpoints.metrics",
            "endpoints.other",
            "endpoints.phrase",
            "endpoints.query",
            "endpoints.search",
            "endpoints.wal",
            "ingest",
            "ingest.checkpoint_errors",
            "ingest.checkpoints",
            "ingest.inserts",
            "ingest.removes",
            "latency",
            "queue",
            "queue.depth",
            "queue.wait",
            "rejected_saturated",
            "rejected_shutdown",
            "replication",
            "replication.errors",
            "replication.pulls",
            "replication.records",
            "replication.stale_rejects",
            "requests_total",
            "responses",
            "responses.1xx",
            "responses.2xx",
            "responses.3xx",
            "responses.4xx",
            "responses.5xx",
            "workers",
            "workers.busy",
            "workers.total",
            "workers.utilization",
        ],
        &["latency", "queue.wait"],
    );
    assert_eq!(key_paths(&doc), want);
}

#[test]
fn coordinator_metrics_section_keeps_its_key_paths() {
    let dir = scratch_dir("metrics-shape");
    let cluster = LocalCluster::start(&dir, 2, 1).unwrap();
    let (status, body) = cluster.get("/metrics").unwrap();
    let own = Json::parse(&cluster.coordinator().metrics_json()).unwrap();
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    assert_eq!(status, 200, "{body}");
    let merged = Json::parse(&body).unwrap();
    let section = merged.get("coordinator").unwrap();
    let want = expected(
        &[
            "endpoints",
            "endpoints.admin",
            "endpoints.documents",
            "endpoints.health",
            "endpoints.metrics",
            "endpoints.other",
            "endpoints.phrase",
            "endpoints.query",
            "endpoints.search",
            "fanout",
            "fanout.errors",
            "fanout.replica_fallbacks",
            "fanout.requests",
            "fanout.stale_retries",
            "latency",
            "queue",
            "queue.depth",
            "queue.wait",
            "rejected_saturated",
            "requests_total",
            "responses",
            "responses.1xx",
            "responses.2xx",
            "responses.3xx",
            "responses.4xx",
            "responses.5xx",
            "workers",
            "workers.busy",
            "workers.total",
        ],
        &["latency", "queue.wait"],
    );
    assert_eq!(key_paths(section), want);
    assert_eq!(key_paths(&own), want);
    let top: Vec<&str> = match &merged {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    };
    assert_eq!(top, ["coordinator", "cluster", "nodes"]);
}
