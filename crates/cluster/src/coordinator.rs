//! The scatter-gather coordinator: one HTTP front door over a sharded,
//! replicated TIX cluster.
//!
//! * **Reads** (`/search`, `/phrase`) fan out to every shard's
//!   `/cluster/*` endpoint, preferring caught-up replicas (round-robin,
//!   gated by the shard's acked-LSN watermark via `min_lsn`) and
//!   falling back to the primary; the per-shard top-k-with-ties
//!   responses are merged under the §4.2 bound ([`crate::merge`]).
//! * **Writes** (`POST /documents`, `DELETE /documents/{name}`) route
//!   to the owning shard's primary by the deterministic name hash
//!   ([`crate::router`]); the acked LSN advances that shard's read
//!   watermark, so a read issued after a write through this coordinator
//!   never observes a replica that has not applied the write.
//! * **`/query`** routes by the parsed `For`-clause document names:
//!   every named document hashes to a shard, and a query whose
//!   documents live on one shard is forwarded verbatim (responses pass
//!   through byte-for-byte). A join across shards answers `501`.
//! * **`/metrics`** merges every node's registry — counters summed,
//!   log₂ latency histograms merged bucket-wise (exact, unlike
//!   averaging quantiles) with mean and percentiles recomputed — plus a
//!   per-node breakdown and the coordinator's own fan-out counters.
//! * **`/health`** (alias `/status`) fans `/health` out to every node
//!   and reports per-node role, generation, and applied LSN.
//!
//! The coordinator is a handler on the serving tier's front door
//! ([`tix_server::front`]): it uses the same bind, bounded admission
//! queue, worker pool, 503s and admission counters as every node.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tix_server::front::FrontDoor;
use tix_server::http::{Limits, Request, Response};
use tix_server::metrics::{quantile_of, AdmissionMetrics, BUCKETS};
use tix_server::render;

use crate::client;
use crate::json::Json;
use crate::merge;
use crate::topology::Topology;

/// Coordinator tuning knobs.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Bind address; port 0 for ephemeral.
    pub addr: String,
    /// Worker-pool size (minimum 1).
    pub workers: usize,
    /// Admission-queue capacity (minimum 1); a full queue answers 503.
    pub queue_capacity: usize,
    /// Largest accepted request body in bytes.
    pub max_body: usize,
    /// Per-node timeout for fan-out calls.
    pub fanout_timeout_ms: u64,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            max_body: 1024 * 1024,
            fanout_timeout_ms: 5_000,
        }
    }
}

/// The coordinator's own counters (shard/replica counters live on the
/// nodes and are merged into `/metrics` at read time).
#[derive(Debug)]
struct CoMetrics {
    /// Admission, status and latency counters kept by the front door.
    admission: Arc<AdmissionMetrics>,
    /// Individual node calls issued during fan-outs.
    fanout_requests: AtomicU64,
    /// Node calls that failed at the transport level.
    fanout_errors: AtomicU64,
    /// 403s received from behind-watermark replicas (each one routed
    /// around, not surfaced).
    stale_retries: AtomicU64,
    /// Reads that fell back past at least one replica.
    replica_fallbacks: AtomicU64,
    search: AtomicU64,
    phrase: AtomicU64,
    query: AtomicU64,
    documents: AtomicU64,
    admin: AtomicU64,
    health: AtomicU64,
    metrics: AtomicU64,
    other: AtomicU64,
}

impl CoMetrics {
    fn new(workers_total: usize) -> Self {
        CoMetrics {
            admission: Arc::new(AdmissionMetrics::new(workers_total)),
            fanout_requests: AtomicU64::new(0),
            fanout_errors: AtomicU64::new(0),
            stale_retries: AtomicU64::new(0),
            replica_fallbacks: AtomicU64::new(0),
            search: AtomicU64::new(0),
            phrase: AtomicU64::new(0),
            query: AtomicU64::new(0),
            documents: AtomicU64::new(0),
            admin: AtomicU64::new(0),
            health: AtomicU64::new(0),
            metrics: AtomicU64::new(0),
            other: AtomicU64::new(0),
        }
    }

    fn to_json(&self) -> String {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let a = &*self.admission;
        format!(
            concat!(
                "{{\"requests_total\":{},",
                "\"responses\":{{\"1xx\":{},\"2xx\":{},\"3xx\":{},\"4xx\":{},\"5xx\":{}}},",
                "\"rejected_saturated\":{},",
                "\"fanout\":{{\"requests\":{},\"errors\":{},\"stale_retries\":{},\"replica_fallbacks\":{}}},",
                "\"endpoints\":{{\"search\":{},\"phrase\":{},\"query\":{},\"documents\":{},\"admin\":{},\"health\":{},\"metrics\":{},\"other\":{}}},",
                "\"queue\":{{\"depth\":{},\"wait\":{}}},",
                "\"workers\":{{\"busy\":{},\"total\":{}}},",
                "\"latency\":{}}}"
            ),
            load(&a.requests_total),
            load(&a.responses_by_class[0]),
            load(&a.responses_by_class[1]),
            load(&a.responses_by_class[2]),
            load(&a.responses_by_class[3]),
            load(&a.responses_by_class[4]),
            load(&a.rejected_saturated),
            load(&self.fanout_requests),
            load(&self.fanout_errors),
            load(&self.stale_retries),
            load(&self.replica_fallbacks),
            load(&self.search),
            load(&self.phrase),
            load(&self.query),
            load(&self.documents),
            load(&self.admin),
            load(&self.health),
            load(&self.metrics),
            load(&self.other),
            a.queue_depth.load(Ordering::Relaxed),
            a.queue_wait.to_json(),
            a.workers_busy.load(Ordering::Relaxed),
            a.workers_total,
            a.latency.to_json(),
        )
    }
}

struct Shared {
    topology: Topology,
    /// Per-shard acked-LSN watermark: the highest LSN a write through
    /// this coordinator was acknowledged at (monotone, `fetch_max`).
    watermarks: Vec<AtomicU64>,
    /// Per-shard round-robin cursor over replicas.
    rr: Vec<AtomicU64>,
    metrics: CoMetrics,
    timeout: Duration,
}

/// A running coordinator.
pub struct Coordinator {
    front: FrontDoor,
    shared: Arc<Shared>,
}

impl Coordinator {
    /// Seed the read watermarks from each primary's current applied LSN
    /// (best-effort), bind, and start serving.
    pub fn start(topology: Topology, config: CoordinatorConfig) -> std::io::Result<Coordinator> {
        let timeout = Duration::from_millis(config.fanout_timeout_ms.max(1));
        let watermarks: Vec<AtomicU64> = topology
            .shards
            .iter()
            .map(|shard| {
                // Seed from the primary so reads routed to replicas are
                // gated on everything already acknowledged before this
                // coordinator existed. Unreachable primary: start at 0.
                let seeded = client::get(&shard.primary, "/health", timeout)
                    .ok()
                    .and_then(|r| r.json())
                    .and_then(|j| j.get("applied_lsn").and_then(Json::u64))
                    .unwrap_or(0);
                AtomicU64::new(seeded)
            })
            .collect();
        let shared = Arc::new(Shared {
            rr: topology.shards.iter().map(|_| AtomicU64::new(0)).collect(),
            watermarks,
            topology,
            metrics: CoMetrics::new(config.workers),
            timeout,
        });
        let handler_shared = Arc::clone(&shared);
        let front = FrontDoor::start(
            &config.addr,
            config.queue_capacity,
            Limits {
                max_body: config.max_body,
            },
            Arc::clone(&shared.metrics.admission),
            move |request, _| respond(&handler_shared, request),
        )?;
        Ok(Coordinator { front, shared })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// The coordinator's own metrics document (the `"coordinator"`
    /// section of `/metrics`), without a request.
    pub fn metrics_json(&self) -> String {
        self.shared.metrics.to_json()
    }

    /// The acked-LSN watermark currently gating reads on `shard`.
    pub fn watermark(&self, shard: usize) -> u64 {
        self.shared
            .watermarks
            .get(shard)
            .map(|w| w.load(Ordering::SeqCst))
            .unwrap_or(0)
    }

    /// Graceful shutdown: refuse new connections, drain, join.
    pub fn shutdown(self) {
        self.front.shutdown();
    }

    /// Serve until the process exits (the CLI's main loop).
    pub fn join(self) {
        self.front.join();
    }
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

fn respond(shared: &Shared, request: &Request) -> Response {
    let m = &shared.metrics;
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/search") => {
            bump(&m.search);
            handle_search(shared, request)
        }
        ("GET", "/phrase") => {
            bump(&m.phrase);
            handle_phrase(shared, request)
        }
        ("POST", "/query") => {
            bump(&m.query);
            handle_query(shared, request)
        }
        ("POST", "/documents") => {
            bump(&m.documents);
            handle_insert(shared, request)
        }
        ("DELETE", path) if path.starts_with("/documents/") => {
            bump(&m.documents);
            let name = path.strip_prefix("/documents/").unwrap_or("");
            handle_remove(shared, name)
        }
        ("POST", "/admin/checkpoint") => {
            bump(&m.admin);
            handle_checkpoint(shared)
        }
        ("GET", "/health" | "/status") => {
            bump(&m.health);
            handle_health(shared)
        }
        ("GET", "/metrics") => {
            bump(&m.metrics);
            handle_metrics(shared)
        }
        (_, "/search" | "/phrase" | "/health" | "/status" | "/metrics") => {
            bump(&m.other);
            Response::error(405, "method not allowed").with_header("Allow", "GET".to_string())
        }
        (_, "/query" | "/documents" | "/admin/checkpoint") => {
            bump(&m.other);
            Response::error(405, "method not allowed").with_header("Allow", "POST".to_string())
        }
        (_, path) if path.starts_with("/documents/") => {
            bump(&m.other);
            Response::error(405, "method not allowed").with_header("Allow", "DELETE".to_string())
        }
        (_, path) => {
            bump(&m.other);
            Response::error(404, &format!("no such endpoint {path:?}"))
        }
    }
}

/// Forward selected query parameters from the client request onto a
/// shard request, percent-encoded.
fn forward_params(request: &Request, names: &[&str]) -> Vec<(String, String)> {
    names
        .iter()
        .filter_map(|&name| {
            request
                .query_param(name)
                .map(|v| (name.to_string(), v.to_string()))
        })
        .collect()
}

fn query_string(params: &[(String, String)]) -> String {
    let borrowed: Vec<(&str, &str)> = params
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    client::encode_query(&borrowed)
}

/// One shard's read: the request (its target carrying the shard's
/// acked-LSN watermark as `min_lsn`) and the nodes to try, caught-up
/// replicas first (round-robin from the shard's cursor), primary last.
struct ShardRead<'a> {
    shared: &'a Shared,
    shard: usize,
    method: &'a str,
    path_and_query: String,
    body: &'a [u8],
    candidates: Vec<&'a str>,
}

impl<'a> ShardRead<'a> {
    fn plan(
        shared: &'a Shared,
        shard: usize,
        method: &'a str,
        path: &str,
        params: &[(String, String)],
        body: &'a [u8],
    ) -> Result<ShardRead<'a>, String> {
        let group = match shared.topology.shards.get(shard) {
            Some(group) => group,
            None => return Err(format!("shard {shard} is not in the topology")),
        };
        let watermark = shared.watermarks[shard].load(Ordering::SeqCst);
        let mut with_watermark = params.to_vec();
        with_watermark.push(("min_lsn".to_string(), watermark.to_string()));
        let path_and_query = format!("{path}?{}", query_string(&with_watermark));

        let replica_count = group.replicas.len();
        let start = if replica_count == 0 {
            0
        } else {
            shared.rr[shard].fetch_add(1, Ordering::Relaxed) as usize % replica_count
        };
        let mut candidates: Vec<&str> = Vec::with_capacity(replica_count + 1);
        for i in 0..replica_count {
            candidates.push(group.replicas[(start + i) % replica_count].as_str());
        }
        candidates.push(group.primary.as_str());
        Ok(ShardRead {
            shared,
            shard,
            method,
            path_and_query,
            body,
            candidates,
        })
    }

    /// Send the request to candidate `attempt` without reading the answer.
    fn send(&self, attempt: usize) -> std::io::Result<TcpStream> {
        let metrics = &self.shared.metrics;
        if attempt > 0 {
            metrics.replica_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        metrics.fanout_requests.fetch_add(1, Ordering::Relaxed);
        client::send(
            self.candidates[attempt],
            self.method,
            &self.path_and_query,
            self.body,
            self.shared.timeout,
        )
    }

    /// Read the shard's answer. `first` is the first candidate's request
    /// if it is already on the wire. A candidate that fails at the
    /// transport level or answers 403 (behind the watermark) is skipped
    /// for the next. Statuses other than 403 — including client errors —
    /// are returned as-is: they are real answers, not staleness.
    fn finish(
        &self,
        mut first: Option<std::io::Result<TcpStream>>,
    ) -> Result<client::NodeResponse, String> {
        let metrics = &self.shared.metrics;
        let mut errors = Vec::new();
        for (attempt, addr) in self.candidates.iter().enumerate() {
            let sent = match first.take() {
                Some(sent) => sent,
                None => self.send(attempt),
            };
            match sent.and_then(client::receive) {
                Ok(response) if response.status == 403 => {
                    // Behind the watermark (or refusing reads): route around.
                    metrics.stale_retries.fetch_add(1, Ordering::Relaxed);
                    errors.push(format!("{addr}: 403 {}", response.text()));
                }
                Ok(response) => return Ok(response),
                Err(e) => {
                    metrics.fanout_errors.fetch_add(1, Ordering::Relaxed);
                    errors.push(format!("{addr}: {e}"));
                }
            }
        }
        Err(format!(
            "shard {}: every node failed [{}]",
            self.shard,
            errors.join("; ")
        ))
    }
}

/// Issue a **read** to one shard, trying its candidates in order (see
/// [`ShardRead`]).
fn shard_read(
    shared: &Shared,
    shard: usize,
    method: &str,
    path: &str,
    params: &[(String, String)],
    body: &[u8],
) -> Result<client::NodeResponse, String> {
    ShardRead::plan(shared, shard, method, path, params, body)?.finish(None)
}

/// Issue a **write** to one shard's primary. On a 2xx ack, advance the
/// shard's read watermark to the acknowledged LSN.
fn shard_write(
    shared: &Shared,
    shard: usize,
    method: &str,
    path_and_query: &str,
    body: &[u8],
) -> Response {
    let group = match shared.topology.shards.get(shard) {
        Some(group) => group,
        None => return Response::error(502, &format!("shard {shard} is not in the topology")),
    };
    shared
        .metrics
        .fanout_requests
        .fetch_add(1, Ordering::Relaxed);
    match client::request(&group.primary, method, path_and_query, body, shared.timeout) {
        Ok(response) => {
            if (200..300).contains(&response.status) {
                if let Some(lsn) = response
                    .json()
                    .and_then(|j| j.get("lsn").and_then(Json::u64))
                {
                    shared.watermarks[shard].fetch_max(lsn, Ordering::SeqCst);
                }
            }
            Response::json(response.status, response.text())
        }
        Err(e) => {
            shared.metrics.fanout_errors.fetch_add(1, Ordering::Relaxed);
            Response::error(
                502,
                &format!("shard {shard} primary {}: {e}", group.primary),
            )
        }
    }
}

/// Fan a `GET` out to every shard on the calling thread: send every
/// shard's first candidate its request, then read the answers in shard
/// order, falling back shard by shard as [`shard_read`] does. The shards
/// work in parallel while the coordinator waits on the first answer; an
/// answer larger than a socket buffer waits in the kernel until its turn.
fn scatter_read(
    shared: &Shared,
    path: &str,
    params: &[(String, String)],
) -> Vec<Result<client::NodeResponse, String>> {
    let reads: Vec<_> = (0..shared.topology.shard_count())
        .map(|shard| ShardRead::plan(shared, shard, "GET", path, params, &[]))
        .collect();
    let sent: Vec<_> = reads
        .iter()
        .map(|read| read.as_ref().ok().map(|read| read.send(0)))
        .collect();
    reads
        .into_iter()
        .zip(sent)
        .map(|(read, first)| read?.finish(first))
        .collect()
}

/// Check and parse every shard's answer to a scatter. On the first
/// failure, the response to send instead: a shard no node answered
/// (502), a non-200 answer verbatim (shards agree on parameter
/// validation, e.g. a 400 for an empty query), or a body that is not
/// UTF-8 or does not parse as `endpoint`'s shape (502).
fn gather<T>(
    gathered: Vec<Result<client::NodeResponse, String>>,
    endpoint: &str,
    parse: fn(&str) -> Option<T>,
) -> Result<Vec<T>, Response> {
    let mut shards = Vec::with_capacity(gathered.len());
    for (shard, result) in gathered.into_iter().enumerate() {
        let response = result.map_err(|e| Response::error(502, &e))?;
        if response.status != 200 {
            return Err(Response::json(response.status, response.text()));
        }
        match response.utf8().and_then(parse) {
            Some(parsed) => shards.push(parsed),
            None => {
                return Err(Response::error(
                    502,
                    &format!("shard {shard}: unparseable {endpoint} response"),
                ))
            }
        }
    }
    Ok(shards)
}

fn handle_search(shared: &Shared, request: &Request) -> Response {
    if request.query_param("q").is_none() {
        return Response::error(400, "missing q parameter");
    }
    let k = match request.query_param("k").unwrap_or("10").parse::<usize>() {
        Ok(k) => k.max(1),
        Err(_) => return Response::error(400, "bad k parameter"),
    };
    let mut params = forward_params(
        request,
        &["q", "threshold", "fraction", "min_score", "deadline_ms"],
    );
    params.push(("k".to_string(), k.to_string()));
    let gathered = scatter_read(shared, "/cluster/search", &params);
    match gather(gathered, "/cluster/search", merge::parse_shard_search) {
        Ok(shards) => Response::json(
            200,
            merge::render_search_body(k, &merge::merge_search(&shards, k)),
        ),
        Err(response) => response,
    }
}

fn handle_phrase(shared: &Shared, request: &Request) -> Response {
    if request.query_param("q").is_none() {
        return Response::error(400, "missing q parameter");
    }
    let params = forward_params(request, &["q", "deadline_ms"]);
    let gathered = scatter_read(shared, "/cluster/phrase", &params);
    match gather(gathered, "/cluster/phrase", merge::parse_shard_phrase) {
        Ok(shards) => Response::json(
            200,
            merge::render_phrase_body(&merge::merge_phrase(&shards)),
        ),
        Err(response) => response,
    }
}

/// Route a dialect query by its `For`-clause document names. All the
/// named documents hash to one shard: forward verbatim (the shard's
/// response body passes through untouched, so single-shard queries are
/// byte-identical to a single node holding those documents).
fn handle_query(shared: &Shared, request: &Request) -> Response {
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return Response::error(400, "query body is not UTF-8");
    };
    if text.trim().is_empty() {
        return Response::error(400, "query body is empty");
    }
    let query = match tix::query::parse(text) {
        Ok(query) => query,
        // Same rendering as a shard/single node: QueryError::Parse
        // displays as the ParseError itself.
        Err(e) => return Response::error(400, &e.to_string()),
    };
    let mut shards: Vec<usize> = query
        .fors
        .iter()
        .map(|f| shared.topology.shard_of(&f.path.document))
        .collect();
    shards.sort_unstable();
    shards.dedup();
    let shard = match shards.as_slice() {
        [single] => *single,
        [] => return Response::error(400, "query has no For clause"),
        _ => {
            return Response::error(
                501,
                "cross-shard join: the For clauses name documents on different shards",
            )
        }
    };
    match shard_read(shared, shard, "POST", "/query", &[], &request.body) {
        Ok(response) => Response::json(response.status, response.text()),
        Err(e) => Response::error(502, &e),
    }
}

fn handle_insert(shared: &Shared, request: &Request) -> Response {
    let Some(name) = request.query_param("name") else {
        return Response::error(400, "missing name parameter");
    };
    if name.is_empty() {
        return Response::error(400, "name must not be empty");
    }
    let shard = shared.topology.shard_of(name);
    let path = format!("/documents?name={}", client::encode_component(name));
    shard_write(shared, shard, "POST", &path, &request.body)
}

fn handle_remove(shared: &Shared, name: &str) -> Response {
    if name.is_empty() {
        return Response::error(400, "missing document name in path");
    }
    let shard = shared.topology.shard_of(name);
    let path = format!("/documents/{}", client::encode_component(name));
    shard_write(shared, shard, "DELETE", &path, &[])
}

/// Force a checkpoint on every shard primary.
fn handle_checkpoint(shared: &Shared) -> Response {
    let mut bodies = Vec::new();
    let mut all_ok = true;
    for (shard, group) in shared.topology.shards.iter().enumerate() {
        shared
            .metrics
            .fanout_requests
            .fetch_add(1, Ordering::Relaxed);
        match client::request(
            &group.primary,
            "POST",
            "/admin/checkpoint",
            &[],
            shared.timeout,
        ) {
            Ok(response) if response.status == 200 => bodies.push(response.text()),
            Ok(response) => {
                all_ok = false;
                bodies.push(format!(
                    "{{\"error\":\"shard {shard} answered {}\"}}",
                    response.status
                ));
            }
            Err(e) => {
                shared.metrics.fanout_errors.fetch_add(1, Ordering::Relaxed);
                all_ok = false;
                bodies.push(format!(
                    "{{\"error\":{}}}",
                    render::json_string(&format!("shard {shard}: {e}"))
                ));
            }
        }
    }
    let status = if all_ok { 200 } else { 502 };
    Response::json(status, format!("{{\"shards\":[{}]}}", bodies.join(",")))
}

/// Fan `/health` out to every node: per-node role, generation, applied
/// LSN; overall `"ok"` only when every node answered `"ok"`.
fn handle_health(shared: &Shared) -> Response {
    let mut nodes = Vec::new();
    let mut all_ok = true;
    for (shard, addr, is_primary) in shared.topology.all_nodes() {
        shared
            .metrics
            .fanout_requests
            .fetch_add(1, Ordering::Relaxed);
        let (ok, health) = match client::get(addr, "/health", shared.timeout) {
            Ok(response) if response.status == 200 => match response.json() {
                Some(doc) => {
                    let ok = doc.get("status").and_then(Json::str) == Some("ok");
                    (ok, doc.render())
                }
                None => (false, "null".to_string()),
            },
            Ok(response) => (false, format!("{{\"status_code\":{}}}", response.status)),
            Err(e) => {
                shared.metrics.fanout_errors.fetch_add(1, Ordering::Relaxed);
                (
                    false,
                    format!(
                        "{{\"unreachable\":{}}}",
                        render::json_string(&e.to_string())
                    ),
                )
            }
        };
        all_ok &= ok;
        nodes.push(format!(
            "{{\"shard\":{shard},\"addr\":{},\"expected_role\":\"{}\",\"ok\":{ok},\"watermark\":{},\"health\":{health}}}",
            render::json_string(addr),
            if is_primary { "primary" } else { "follower" },
            shared.watermarks[shard].load(Ordering::SeqCst),
        ));
    }
    Response::json(
        200,
        format!(
            "{{\"status\":{},\"shards\":{},\"nodes\":[{}]}}",
            if all_ok { "\"ok\"" } else { "\"degraded\"" },
            shared.topology.shard_count(),
            nodes.join(",")
        ),
    )
}

/// Merge every node's `/metrics` document with the coordinator's own:
/// `"coordinator"` (local counters), `"cluster"` (the exact bucket-wise
/// merge across nodes), and `"nodes"` (per-node breakdown).
fn handle_metrics(shared: &Shared) -> Response {
    let mut node_docs: Vec<(String, Option<Json>)> = Vec::new();
    for (_, addr, _) in shared.topology.all_nodes() {
        shared
            .metrics
            .fanout_requests
            .fetch_add(1, Ordering::Relaxed);
        let doc = match client::get(addr, "/metrics", shared.timeout) {
            Ok(response) if response.status == 200 => response.json(),
            Ok(_) => None,
            Err(_) => {
                shared.metrics.fanout_errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        };
        node_docs.push((addr.to_string(), doc));
    }
    let reachable: Vec<&Json> = node_docs.iter().filter_map(|(_, d)| d.as_ref()).collect();
    let merged = merge_metric_docs(&reachable);
    let nodes: Vec<String> = node_docs
        .iter()
        .map(|(addr, doc)| {
            format!(
                "{{\"addr\":{},\"metrics\":{}}}",
                render::json_string(addr),
                doc.as_ref()
                    .map(Json::render)
                    .unwrap_or_else(|| "null".to_string())
            )
        })
        .collect();
    Response::json(
        200,
        format!(
            "{{\"coordinator\":{},\"cluster\":{},\"nodes\":[{}]}}",
            shared.metrics.to_json(),
            merged.render(),
            nodes.join(",")
        ),
    )
}

/// Merge node metrics documents value-wise: numbers sum (`u64` exactly
/// when every operand is a `u64`), arrays of numbers sum element-wise
/// (the log₂ histogram buckets — exact, unlike merging quantiles),
/// objects merge recursively by key union. After merging, any object
/// carrying `buckets`/`count`/`sum_us` has its `mean_us` and
/// `p50/p95/p99` recomputed from the merged buckets, and
/// `workers.utilization` is recomputed from the summed gauges.
fn merge_metric_docs(docs: &[&Json]) -> Json {
    let mut merged = match docs.first() {
        Some(first) => (*first).clone(),
        None => return Json::Null,
    };
    for doc in &docs[1..] {
        merged = merge_values(&merged, doc);
    }
    fixup_derived(&mut merged);
    merged
}

fn merge_values(a: &Json, b: &Json) -> Json {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => match (a.u64(), b.u64()) {
            (Some(m), Some(n)) => Json::Num(m.saturating_add(n).to_string()),
            _ => {
                let sum = x.parse::<f64>().unwrap_or(0.0) + y.parse::<f64>().unwrap_or(0.0);
                Json::Num(format!("{sum}"))
            }
        },
        (Json::Arr(xs), Json::Arr(ys)) if xs.len() == ys.len() => {
            Json::Arr(xs.iter().zip(ys).map(|(x, y)| merge_values(x, y)).collect())
        }
        (Json::Obj(pairs), Json::Obj(other)) => {
            let mut out: Vec<(String, Json)> = Vec::with_capacity(pairs.len());
            for (key, value) in pairs {
                let merged = match other.iter().find(|(k, _)| k == key) {
                    Some((_, theirs)) => merge_values(value, theirs),
                    None => value.clone(),
                };
                out.push((key.clone(), merged));
            }
            for (key, value) in other {
                if !pairs.iter().any(|(k, _)| k == key) {
                    out.push((key.clone(), value.clone()));
                }
            }
            Json::Obj(out)
        }
        // Mismatched shapes or non-numeric scalars: first node wins.
        _ => a.clone(),
    }
}

/// Recompute values that are ratios or quantiles of merged inputs —
/// summing them would be wrong.
fn fixup_derived(value: &mut Json) {
    let Json::Obj(pairs) = value else { return };
    let field = |name: &str| {
        pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
    };
    let count = field("count").and_then(|v| v.u64());
    let sum_us = field("sum_us").and_then(|v| v.u64());
    let buckets: Option<Vec<u64>> =
        field("buckets").map(|b| b.items().iter().filter_map(Json::u64).collect());
    let busy = field("busy").and_then(|v| v.u64());
    let total = field("total").and_then(|v| v.u64());

    if let (Some(count), Some(sum_us), Some(buckets)) = (count, sum_us, buckets.as_ref()) {
        if buckets.len() == BUCKETS {
            for (key, slot) in pairs.iter_mut() {
                match key.as_str() {
                    "mean_us" => {
                        *slot = Json::Num(sum_us.checked_div(count).unwrap_or(0).to_string())
                    }
                    "p50_us" => *slot = Json::Num(quantile_of(buckets, count, 0.50).to_string()),
                    "p95_us" => *slot = Json::Num(quantile_of(buckets, count, 0.95).to_string()),
                    "p99_us" => *slot = Json::Num(quantile_of(buckets, count, 0.99).to_string()),
                    _ => {}
                }
            }
        }
    }
    if let (Some(busy), Some(total)) = (busy, total) {
        for (key, slot) in pairs.iter_mut() {
            if key == "utilization" {
                let utilization = if total == 0 {
                    0.0
                } else {
                    busy as f64 / total as f64
                };
                *slot = Json::Num(format!("{utilization:.3}"));
            }
        }
    }
    for (_, child) in pairs.iter_mut() {
        fixup_derived(child);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_merge_sums_counters_and_buckets() {
        let a = Json::parse(
            "{\"requests_total\":3,\"latency\":{\"count\":2,\"sum_us\":200,\"mean_us\":100,\"p50_us\":128,\"p95_us\":128,\"p99_us\":128,\"buckets\":[0,0,0,0,0,0,2,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}}",
        )
        .unwrap();
        let b = Json::parse(
            "{\"requests_total\":5,\"latency\":{\"count\":1,\"sum_us\":5000,\"mean_us\":5000,\"p50_us\":8192,\"p95_us\":8192,\"p99_us\":8192,\"buckets\":[0,0,0,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}}",
        )
        .unwrap();
        let merged = merge_metric_docs(&[&a, &b]);
        assert_eq!(merged.get("requests_total").unwrap().u64(), Some(8));
        let latency = merged.get("latency").unwrap();
        assert_eq!(latency.get("count").unwrap().u64(), Some(3));
        assert_eq!(latency.get("sum_us").unwrap().u64(), Some(5200));
        // Mean recomputed from merged sums, not summed: 5200/3 = 1733.
        assert_eq!(latency.get("mean_us").unwrap().u64(), Some(1733));
        // p50 of {2×100µs, 1×5ms} is the 100µs bucket's upper bound.
        assert_eq!(latency.get("p50_us").unwrap().u64(), Some(128));
        // p99 lands in the 5 ms sample's bucket [4096, 8192) → 8192.
        assert_eq!(latency.get("p99_us").unwrap().u64(), Some(8192));
        let buckets = latency.get("buckets").unwrap();
        assert_eq!(buckets.items()[6].u64(), Some(2));
        assert_eq!(buckets.items()[12].u64(), Some(1));
    }

    #[test]
    fn metric_merge_recomputes_utilization() {
        let a =
            Json::parse("{\"workers\":{\"busy\":1,\"total\":4,\"utilization\":0.250}}").unwrap();
        let b =
            Json::parse("{\"workers\":{\"busy\":3,\"total\":4,\"utilization\":0.750}}").unwrap();
        let merged = merge_metric_docs(&[&a, &b]);
        let workers = merged.get("workers").unwrap();
        assert_eq!(workers.get("busy").unwrap().u64(), Some(4));
        assert_eq!(workers.get("total").unwrap().u64(), Some(8));
        assert_eq!(workers.get("utilization").unwrap().f64(), Some(0.5));
    }

    #[test]
    fn gather_refuses_a_non_utf8_shard_body() {
        let ok = "{\"applied_lsn\":1,\"bound_bits\":null,\"results\":[]}";
        let answer = |body: &[u8]| {
            Ok(client::NodeResponse {
                status: 200,
                body: body.to_vec(),
            })
        };
        let shards = gather(
            vec![answer(ok.as_bytes())],
            "/cluster/search",
            merge::parse_shard_search,
        )
        .unwrap_or_else(|r| panic!("{}", r.status));
        assert_eq!(shards[0].applied_lsn, 1);
        // A byte that is not UTF-8 inside a hit's text: a failed shard,
        // not a parse of U+FFFD.
        let bad = b"{\"applied_lsn\":1,\"bound_bits\":null,\"results\":[{\"name\":\"d.xml\",\"node_idx\":0,\"score_bits\":0,\"tag\":null,\"text\":\"\xff\"}]}";
        let refused = gather(
            vec![answer(ok.as_bytes()), answer(bad)],
            "/cluster/search",
            merge::parse_shard_search,
        )
        .err()
        .unwrap();
        assert_eq!(refused.status, 502);
        assert!(String::from_utf8_lossy(&refused.body).contains("shard 1"));
    }

    #[test]
    fn metric_merge_of_nothing_is_null() {
        assert_eq!(merge_metric_docs(&[]), Json::Null);
    }
}
