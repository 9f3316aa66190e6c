//! The query node: its handler on the [front door](crate::front) —
//! request routing, deadlines, the generation-keyed result cache, the
//! write path — plus the replication and flusher threads, and graceful
//! shutdown.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use tix::query::run_query;
use tix::store::{LoadError, RemoveError};
use tix::{normalize_query, Database};
use tix_ingest::{DurabilityMode, Ingest, IngestError, IngestOptions};

use crate::cache::ResultCache;
use crate::front::FrontDoor;
use crate::http::{self, Limits, Request, Response};
use crate::metrics::Metrics;
use crate::read::{handle_read, k_and_pick, parse_param, ReadRoute};
use crate::render;

/// Most queries accepted in one `/search/batch` request.
pub const MAX_BATCH_QUERIES: usize = 512;

/// Largest WAL image one `/wal` response ships (frames are never split,
/// so a single oversized frame still goes through whole).
pub const WAL_PULL_MAX_BYTES: u64 = 4 * 1024 * 1024;

/// What this node is in a cluster (reported by `/health`, enforced on the
/// write path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerRole {
    /// A single-node server — the pre-cluster behavior, writes allowed
    /// when a durable directory is attached.
    Standalone,
    /// A shard primary: accepts writes, retains its WAL, and serves
    /// `/wal` suffixes to followers.
    Primary,
    /// A read replica: applies its primary's WAL stream; direct writes
    /// answer 403.
    Follower,
}

impl ServerRole {
    /// The `/health` string for this role.
    pub fn as_str(self) -> &'static str {
        match self {
            ServerRole::Standalone => "standalone",
            ServerRole::Primary => "primary",
            ServerRole::Follower => "follower",
        }
    }
}

/// Serving configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker-pool size (minimum 1).
    pub workers: usize,
    /// Admission-queue capacity (minimum 1). A full queue answers 503.
    pub queue_capacity: usize,
    /// Result-cache capacity in entries (minimum 1).
    pub cache_capacity: usize,
    /// Default per-request deadline; requests may lower (never raise) it
    /// with a `deadline_ms` query parameter.
    pub default_deadline_ms: u64,
    /// Largest accepted request body in bytes.
    pub max_body: usize,
    /// Expose `/debug/sleep` (used by the saturation and deadline tests
    /// and the load generator's worst-case mode).
    pub debug_endpoints: bool,
    /// When a mutation is acknowledged (live servers only): `Strict`
    /// fsyncs before every ack, `Batched` acks written frames and fsyncs
    /// on a short timer, `Flush` defers to checkpoints and explicit
    /// flushes. See [`DurabilityMode`].
    pub durability: DurabilityMode,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 256,
            default_deadline_ms: 10_000,
            max_body: 1024 * 1024,
            debug_endpoints: false,
            durability: DurabilityMode::Strict,
        }
    }
}

/// State shared by the handler, the replication loop and the flusher.
///
/// Write-path discipline: a mutation **stages** (applies to the database
/// and reserves its WAL frame) under the `db` write lock — the lock is
/// what orders concurrent writers, so LSN order equals apply order — and
/// then **commits** (waits for the frame to be written/fsynced per the
/// durability mode) with no lock held. That handoff is what lets N
/// concurrent mutations ride one group-commit batch and one fsync while
/// readers take only the `db` read lock and see coherent pre- or
/// post-mutation views.
pub(crate) struct Shared {
    pub(crate) db: RwLock<Database>,
    /// `Some` when serving a durable directory (live ingestion enabled);
    /// `None` for a read-only in-memory server. The engine is internally
    /// synchronized (`&self` mutations); exclusivity of *application*
    /// comes from the `db` write lock held while staging.
    ingest: Option<Ingest>,
    /// `Some(reason)` after a checkpoint attempt failed, cleared by the
    /// next success. Mutations stay durable in the WAL either way, but
    /// the log keeps growing and recovery gets slower — `/health`
    /// surfaces this as `checkpoint_degraded` so operators see it.
    checkpoint_health: Mutex<Option<String>>,
    pub(crate) cache: Mutex<ResultCache>,
    pub(crate) metrics: Metrics,
    default_deadline: Duration,
    debug_endpoints: bool,
    /// Stops the replication and flusher loops.
    shutdown: AtomicBool,
    role: ServerRole,
    /// The last applied LSN, mirrored out of the ingest engine so read
    /// paths (`/health`, `min_lsn` gating) never contend on the ingest
    /// mutex. Updated after every mutation/replicated apply, while the
    /// ingest mutex is still held — so it never runs ahead of the engine.
    pub(crate) applied_lsn: AtomicU64,
    /// Mirror of [`Ingest::checkpoint_seq`], same discipline.
    checkpoint_seq: AtomicU64,
    /// Mirror of [`Ingest::wal_len`], same discipline.
    wal_len: AtomicU64,
    /// Mirror of [`Ingest::durable_lsn`] — what would survive a crash
    /// right now (trails `applied_lsn` under `Batched`/`Flush`).
    durable_lsn: AtomicU64,
}

impl Shared {
    /// Refresh the lock-free mirrors (and the `/metrics` commit-stats
    /// copy) from the engine, right after a mutation, apply, flush, or
    /// checkpoint.
    fn publish_ingest_state(&self, ingest: &Ingest) {
        self.applied_lsn.store(ingest.last_lsn(), Ordering::SeqCst);
        self.checkpoint_seq
            .store(ingest.checkpoint_seq(), Ordering::SeqCst);
        self.wal_len.store(ingest.wal_len(), Ordering::SeqCst);
        self.durable_lsn
            .store(ingest.durable_lsn(), Ordering::SeqCst);
        let stats = ingest.commit_stats();
        let m = &self.metrics;
        m.commit_batches.store(stats.batches, Ordering::Relaxed);
        m.commit_frames.store(stats.frames, Ordering::Relaxed);
        m.commit_fsyncs.store(stats.fsyncs, Ordering::Relaxed);
        m.commit_max_batch
            .store(stats.max_batch_frames, Ordering::Relaxed);
        m.commit_checkpoint_stall_us
            .store(stats.checkpoint_stall_us, Ordering::Relaxed);
    }
}

/// A running query server. Dropping the handle detaches the threads; call
/// [`Server::shutdown`] for a graceful stop or [`Server::join`] to serve
/// until the process exits.
pub struct Server {
    front: FrontDoor,
    shared: Arc<Shared>,
    replication_thread: Option<std::thread::JoinHandle<()>>,
    /// Under [`DurabilityMode::Batched`]: fsyncs frames whose deadline
    /// passed without a foreground commit doing it first.
    flusher_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving `db`. Builds the index first if the caller
    /// has not. Returns once the listener and worker pool are running.
    /// The server is read-only: `POST`/`DELETE /documents` answer 403.
    pub fn start(db: Database, config: ServerConfig) -> std::io::Result<Server> {
        Server::start_inner(db, None, ServerRole::Standalone, None, config)
    }

    /// Open (or create) the durable ingestion directory at `dir` — store +
    /// index snapshots, checkpoint meta, write-ahead log — recover its
    /// state, and serve it live: `POST /documents?name=X` and
    /// `DELETE /documents/{name}` mutate the database under the
    /// single-writer discipline while queries keep reading.
    pub fn start_live(dir: impl Into<PathBuf>, config: ServerConfig) -> std::io::Result<Server> {
        let options = IngestOptions {
            durability: config.durability,
            ..IngestOptions::default()
        };
        let (ingest, db) = Ingest::open(dir, options).map_err(std::io::Error::other)?;
        Server::start_inner(db, Some(ingest), ServerRole::Standalone, None, config)
    }

    /// [`Server::start_live`] as a **shard primary**: the WAL is retained
    /// across checkpoints so `GET /wal?from_lsn=` can serve any suffix of
    /// the op history to followers.
    pub fn start_primary(dir: impl Into<PathBuf>, config: ServerConfig) -> std::io::Result<Server> {
        let options = IngestOptions {
            retain_wal: true,
            durability: config.durability,
            ..IngestOptions::default()
        };
        let (ingest, db) = Ingest::open(dir, options).map_err(std::io::Error::other)?;
        Server::start_inner(db, Some(ingest), ServerRole::Primary, None, config)
    }

    /// Start a **follower replica** over its own durable directory.
    /// Direct writes answer 403; state arrives by pulling the primary's
    /// `/wal?from_lsn=` endpoint and applying each frame through the
    /// follower's own WAL + incremental-maintenance pipeline (so the
    /// follower is itself crash-safe and could be promoted). With
    /// `primary: None` no pull loop runs — tests drive replication by
    /// hand through [`Server::apply_wal_image`].
    pub fn start_follower(
        dir: impl Into<PathBuf>,
        primary: Option<String>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let options = IngestOptions {
            retain_wal: true,
            durability: config.durability,
            ..IngestOptions::default()
        };
        let (ingest, db) = Ingest::open(dir, options).map_err(std::io::Error::other)?;
        Server::start_inner(db, Some(ingest), ServerRole::Follower, primary, config)
    }

    fn start_inner(
        mut db: Database,
        ingest: Option<Ingest>,
        role: ServerRole,
        primary: Option<String>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        if !db.has_index() {
            db.build_index();
        }
        let (applied_lsn, checkpoint_seq, wal_len, durable_lsn) = ingest
            .as_ref()
            .map(|i| {
                (
                    i.last_lsn(),
                    i.checkpoint_seq(),
                    i.wal_len(),
                    i.durable_lsn(),
                )
            })
            .unwrap_or((0, 0, 0, 0));
        let shared = Arc::new(Shared {
            db: RwLock::new(db),
            ingest,
            checkpoint_health: Mutex::new(None),
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            metrics: Metrics::new(config.workers),
            default_deadline: Duration::from_millis(config.default_deadline_ms.max(1)),
            debug_endpoints: config.debug_endpoints,
            shutdown: AtomicBool::new(false),
            role,
            applied_lsn: AtomicU64::new(applied_lsn),
            checkpoint_seq: AtomicU64::new(checkpoint_seq),
            wal_len: AtomicU64::new(wal_len),
            durable_lsn: AtomicU64::new(durable_lsn),
        });

        let handler_shared = Arc::clone(&shared);
        let front = FrontDoor::start(
            &config.addr,
            config.queue_capacity,
            Limits {
                max_body: config.max_body,
            },
            Arc::clone(&shared.metrics.admission),
            move |request, admitted| handle(&handler_shared, request, admitted),
        )?;
        let replication_thread = primary.map(|primary| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || replication_loop(&shared, &primary))
        });
        let flusher_thread = match shared.ingest.as_ref().map(Ingest::durability) {
            Some(DurabilityMode::Batched { max_delay }) => {
                let shared = Arc::clone(&shared);
                // Half the deadline so no frame waits much past it.
                let tick = (max_delay / 2).max(Duration::from_millis(1));
                Some(std::thread::spawn(move || flusher_loop(&shared, tick)))
            }
            _ => None,
        };

        Ok(Server {
            front,
            shared,
            replication_thread,
            flusher_thread,
        })
    }

    /// The bound address (with the actual port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// The current `/metrics` document, without a request.
    pub fn metrics_json(&self) -> String {
        self.shared.metrics.to_json()
    }

    /// This node's role.
    pub fn role(&self) -> ServerRole {
        self.shared.role
    }

    /// The last applied LSN (0 for a read-only in-memory server).
    pub fn applied_lsn(&self) -> u64 {
        self.shared.applied_lsn.load(Ordering::SeqCst)
    }

    /// The highest fsynced LSN — what survives a crash right now. Equals
    /// [`Server::applied_lsn`] under [`DurabilityMode::Strict`] at rest;
    /// may trail it under `Batched`/`Flush`.
    pub fn durable_lsn(&self) -> u64 {
        self.shared.durable_lsn.load(Ordering::SeqCst)
    }

    /// Apply a pulled WAL image (header + CRC frames) to this node —
    /// the follower's replication step, exposed so tests can inject
    /// hand-built (including deliberately corrupted) transfer payloads.
    /// Returns the number of newly applied records.
    ///
    /// The image is run through the same prefix-durability scanner as a
    /// local WAL file: a torn or bit-flipped tail yields only the
    /// committed prefix, so a corrupt frame is never applied. Frames at
    /// or below the applied LSN are skipped (pull overlap is harmless);
    /// a frame that skips past `applied + 1` is a hard error.
    pub fn apply_wal_image(&self, bytes: &[u8]) -> Result<u64, String> {
        apply_wal_image(&self.shared, bytes)
    }

    /// Mutate the database (e.g. load fresh documents and rebuild the
    /// index) while serving. Takes the write lock — in-flight queries
    /// finish first, new ones wait — and the generation bump performed by
    /// the mutation invalidates every cached result by key.
    pub fn reload<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        let mut db = write_lock(&self.shared.db);
        f(&mut db)
    }

    /// Graceful shutdown: signal the replication and flusher loops, drain
    /// the front door (new connections are answered 503 while admitted
    /// requests finish), join every thread, then flush ingest.
    pub fn shutdown(self) {
        let Server {
            front,
            shared,
            replication_thread,
            flusher_thread,
        } = self;
        shared.shutdown.store(true, Ordering::SeqCst);
        front.shutdown();
        for handle in [replication_thread, flusher_thread].into_iter().flatten() {
            let _ = handle.join();
        }
        // Leave nothing riding on the next timer tick: a clean shutdown
        // makes every acknowledged mutation durable, whatever the mode.
        if let Some(ingest) = &shared.ingest {
            let _ = ingest.flush();
        }
    }

    /// Serve until the process exits (the CLI `serve` command's main
    /// loop). Never returns under normal operation.
    pub fn join(self) {
        self.front.join();
    }
}

/// Recover a read guard even if a panicking holder poisoned the lock — the
/// database itself is only mutated under `reload`, which keeps it valid.
pub(crate) fn read_lock(lock: &RwLock<Database>) -> std::sync::RwLockReadGuard<'_, Database> {
    lock.read().unwrap_or_else(|p| p.into_inner())
}

fn write_lock(lock: &RwLock<Database>) -> std::sync::RwLockWriteGuard<'_, Database> {
    lock.write().unwrap_or_else(|p| p.into_inner())
}

pub(crate) fn lock_cache(cache: &Mutex<ResultCache>) -> std::sync::MutexGuard<'_, ResultCache> {
    cache.lock().unwrap_or_else(|p| p.into_inner())
}

fn lock_health(health: &Mutex<Option<String>>) -> std::sync::MutexGuard<'_, Option<String>> {
    health.lock().unwrap_or_else(|p| p.into_inner())
}

/// The `Batched`-mode background flusher: wake twice per `max_delay` and
/// fsync any frame whose deadline passed without a foreground commit
/// covering it. Errors poison the pipeline (subsequent mutations answer
/// 500); nothing to do here but keep the durable-LSN mirror fresh.
fn flusher_loop(shared: &Shared, tick: Duration) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        if let Some(ingest) = &shared.ingest {
            if let Ok(Some(_)) = ingest.flush_if_due() {
                shared.publish_ingest_state(ingest);
            }
        }
        std::thread::sleep(tick);
    }
}

/// The follower's pull loop: ask the primary for the WAL suffix past our
/// applied LSN, apply it, repeat — immediately while catching up, with a
/// short idle sleep once level. Every failure (unreachable primary, gap,
/// bad image) is counted and retried after a backoff; the loop only exits
/// at shutdown.
fn replication_loop(shared: &Arc<Shared>, primary: &str) {
    const IDLE: Duration = Duration::from_millis(25);
    const BACKOFF: Duration = Duration::from_millis(250);
    const PULL_TIMEOUT: Duration = Duration::from_secs(5);
    while !shared.shutdown.load(Ordering::SeqCst) {
        let from = shared.applied_lsn.load(Ordering::SeqCst);
        let path = format!("/wal?from_lsn={from}&max_bytes={WAL_PULL_MAX_BYTES}");
        let pulled = http::client_request(primary, "GET", &path, &[], PULL_TIMEOUT);
        let pause = match pulled {
            Ok((200, bytes)) => {
                shared
                    .metrics
                    .replication_pulls
                    .fetch_add(1, Ordering::Relaxed);
                match apply_wal_image(shared, &bytes) {
                    Ok(applied) if applied > 0 => Duration::ZERO,
                    Ok(_) => IDLE,
                    Err(_) => {
                        shared
                            .metrics
                            .replication_errors
                            .fetch_add(1, Ordering::Relaxed);
                        BACKOFF
                    }
                }
            }
            Ok(_) | Err(_) => {
                shared
                    .metrics
                    .replication_errors
                    .fetch_add(1, Ordering::Relaxed);
                BACKOFF
            }
        };
        // Sleep in small slices so shutdown stays responsive.
        let mut left = pause;
        while !left.is_zero() && !shared.shutdown.load(Ordering::SeqCst) {
            let slice = left.min(Duration::from_millis(20));
            std::thread::sleep(slice);
            left = left.saturating_sub(slice);
        }
    }
}

/// Apply one pulled WAL image: stage every record under a single `db`
/// write-lock hold, then commit the batch **once** — the whole image
/// costs one WAL write and (under `Strict`) one fsync instead of one per
/// record. See [`Server::apply_wal_image`] for the contract.
fn apply_wal_image(shared: &Shared, bytes: &[u8]) -> Result<u64, String> {
    let Some(ingest) = &shared.ingest else {
        return Err("read-only server cannot apply replicated writes".to_string());
    };
    // Torn transfers are not errors: the scanner returns the committed
    // prefix and the next pull re-requests the rest. Only a mangled
    // header fails outright.
    let scan = tix_ingest::scan_bytes(bytes).map_err(|e| format!("bad WAL image: {e}"))?;
    let mut db = write_lock(&shared.db);
    let mut applied = 0u64;
    let mut last_ticket = None;
    let mut failure = None;
    for entry in scan.entries {
        let last = ingest.last_lsn();
        if entry.lsn <= last {
            continue;
        }
        if entry.lsn != last + 1 {
            failure = Some(format!(
                "lsn discontinuity: image jumps to {} with {} applied",
                entry.lsn, last
            ));
            break;
        }
        let staged = match &entry.record {
            tix_ingest::WalRecord::AddDocument { name, xml } => {
                ingest.stage_insert(&mut db, name, xml).map(|(_, t)| t)
            }
            tix_ingest::WalRecord::RemoveDocument { name } => {
                ingest.stage_remove(&mut db, name).map(|(_, t)| t)
            }
        };
        match staged {
            Ok(ticket) => {
                last_ticket = Some(ticket);
                applied += 1;
            }
            Err(e) => {
                failure = Some(format!("apply of lsn {} failed: {e}", entry.lsn));
                break;
            }
        }
    }
    drop(db);
    // Committing the newest ticket covers every earlier staged frame —
    // the leader flushes the whole pending batch. Runs even on a partial
    // failure: what was applied in memory must reach the log.
    if let Some(ticket) = last_ticket {
        if let Err(e) = ingest.commit(ticket) {
            shared.publish_ingest_state(ingest);
            return Err(format!("commit of pulled image failed: {e}"));
        }
    }
    if let Some(e) = failure {
        shared.publish_ingest_state(ingest);
        return Err(e);
    }
    if applied > 0 {
        shared
            .metrics
            .replication_records
            .fetch_add(applied, Ordering::Relaxed);
        checkpoint_after_mutation(shared, ingest);
    }
    shared.publish_ingest_state(ingest);
    Ok(applied)
}

/// The node's handler on the front door: route the request, and count a
/// 504 as an expired deadline.
fn handle(shared: &Shared, request: &Request, admitted: Instant) -> Response {
    let response = respond(shared, request, admitted);
    if response.status == 504 {
        shared
            .metrics
            .deadline_expired
            .fetch_add(1, Ordering::Relaxed);
    }
    response
}

/// Per-request deadline: the default, lowered by a `deadline_ms` query
/// parameter. Anchored at admission time, so queue wait counts against it.
fn deadline_of(shared: &Shared, request: &Request, admitted: Instant) -> Result<Instant, Response> {
    // Absent means the default: no lowering is longer than `u64::MAX` ms.
    let ms = parse_param(request, "deadline_ms", u64::MAX)?;
    Ok(admitted + Duration::from_millis(ms.max(1)).min(shared.default_deadline))
}

fn respond(shared: &Shared, request: &Request, admitted: Instant) -> Response {
    let deadline = match deadline_of(shared, request, admitted) {
        Ok(deadline) => deadline,
        Err(response) => return response,
    };
    let counters = &shared.metrics.endpoints;
    let bump = |c: &std::sync::atomic::AtomicU64| {
        c.fetch_add(1, Ordering::Relaxed);
    };
    // LSN-watermark gating: a read carrying `min_lsn=N` must see state at
    // least that fresh. A behind replica answers 403 so the coordinator
    // retries elsewhere (ultimately the primary) instead of serving a
    // stale — potentially divergent — result.
    if matches!(
        (request.method.as_str(), request.path.as_str()),
        (
            "GET",
            "/search" | "/phrase" | "/cluster/search" | "/cluster/phrase"
        ) | ("POST", "/search/batch" | "/query")
    ) {
        if let Some(response) = stale_reject(shared, request) {
            return response;
        }
    }
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => {
            bump(&counters.health);
            handle_health(shared)
        }
        ("GET", "/metrics") => {
            bump(&counters.metrics);
            Response::json(200, shared.metrics.to_json())
        }
        ("GET", "/search") => {
            bump(&counters.search);
            handle_read(shared, request, ReadRoute::Search, deadline)
        }
        ("GET", "/phrase") => {
            bump(&counters.phrase);
            handle_read(shared, request, ReadRoute::Phrase, deadline)
        }
        ("GET", "/explain") => {
            bump(&counters.explain);
            handle_read(shared, request, ReadRoute::Explain, deadline)
        }
        ("GET", "/wal") => {
            bump(&counters.wal);
            handle_wal(shared, request)
        }
        ("GET", "/cluster/search") => {
            bump(&counters.cluster);
            handle_read(shared, request, ReadRoute::ClusterSearch, deadline)
        }
        ("GET", "/cluster/phrase") => {
            bump(&counters.cluster);
            handle_read(shared, request, ReadRoute::ClusterPhrase, deadline)
        }
        ("POST", "/search/batch") => {
            bump(&counters.batch);
            handle_batch(shared, request, deadline)
        }
        ("POST", "/query") => {
            bump(&counters.query);
            handle_query(shared, request, deadline)
        }
        ("POST", "/documents") => {
            bump(&counters.documents);
            handle_insert_document(shared, request)
        }
        ("DELETE", path) if path.starts_with("/documents/") => {
            bump(&counters.documents);
            let name = path.strip_prefix("/documents/").unwrap_or("");
            handle_remove_document(shared, name)
        }
        ("POST", "/admin/checkpoint") => {
            bump(&counters.other);
            handle_admin_checkpoint(shared)
        }
        ("GET", "/debug/sleep") if shared.debug_endpoints => {
            bump(&counters.other);
            handle_sleep(request, deadline)
        }
        (
            _,
            "/health" | "/metrics" | "/search" | "/phrase" | "/explain" | "/wal"
            | "/cluster/search" | "/cluster/phrase",
        ) => {
            bump(&counters.other);
            Response::error(405, "method not allowed").with_header("Allow", "GET".to_string())
        }
        (_, "/search/batch" | "/query" | "/documents" | "/admin/checkpoint") => {
            bump(&counters.other);
            Response::error(405, "method not allowed").with_header("Allow", "POST".to_string())
        }
        (_, path) if path.starts_with("/documents/") => {
            bump(&counters.other);
            Response::error(405, "method not allowed").with_header("Allow", "DELETE".to_string())
        }
        (_, path) => {
            bump(&counters.other);
            Response::error(404, &format!("no such endpoint {path:?}"))
        }
    }
}

fn handle_health(shared: &Shared) -> Response {
    let db = read_lock(&shared.db);
    let durability = shared
        .ingest
        .as_ref()
        .map_or("null".to_string(), |i| format!("\"{}\"", i.durability()));
    let degraded = match lock_health(&shared.checkpoint_health).as_deref() {
        Some(reason) => format!("true,\"checkpoint_error\":{}", render::json_string(reason)),
        None => "false".to_string(),
    };
    Response::json(
        200,
        format!(
            "{{\"status\":\"ok\",\"role\":\"{}\",\"docs\":{},\"nodes\":{},\"generation\":{},\"applied_lsn\":{},\"durable_lsn\":{},\"checkpoint_seq\":{},\"wal_len\":{},\"durability\":{durability},\"checkpoint_degraded\":{degraded},\"workers\":{}}}",
            shared.role.as_str(),
            db.store().doc_count(),
            db.store().node_count(),
            db.generation(),
            shared.applied_lsn.load(Ordering::SeqCst),
            shared.durable_lsn.load(Ordering::SeqCst),
            shared.checkpoint_seq.load(Ordering::SeqCst),
            shared.wal_len.load(Ordering::SeqCst),
            shared.metrics.admission.workers_total
        ),
    )
}

/// Evaluate the `min_lsn` watermark for a read. `Some(403)` when this
/// node has not yet applied the required LSN.
fn stale_reject(shared: &Shared, request: &Request) -> Option<Response> {
    let raw = request.query_param("min_lsn")?;
    let Ok(min_lsn) = raw.parse::<u64>() else {
        return Some(Response::error(400, &format!("bad min_lsn {raw:?}")));
    };
    let applied = shared.applied_lsn.load(Ordering::SeqCst);
    if applied >= min_lsn {
        return None;
    }
    shared.metrics.stale_rejects.fetch_add(1, Ordering::Relaxed);
    Some(Response::json(
        403,
        format!(
            "{{\"error\":\"replica behind watermark\",\"applied_lsn\":{applied},\"min_lsn\":{min_lsn},\"role\":\"{}\"}}",
            shared.role.as_str()
        ),
    ))
}

/// `GET /wal?from_lsn=N[&max_bytes=M]` — the replication feed: a binary
/// WAL image holding the committed frames strictly after `N`, capped
/// near `M` bytes but never splitting a frame. 410 with the earliest
/// servable LSN when the suffix was checkpointed away (the follower must
/// resync), 403 on a server without a durable directory.
fn handle_wal(shared: &Shared, request: &Request) -> Response {
    let Some(ingest) = &shared.ingest else {
        return Response::error(403, "read-only server has no WAL");
    };
    let from_lsn = match parse_param(request, "from_lsn", 0) {
        Ok(v) => v,
        Err(response) => return response,
    };
    let max_bytes = match parse_param(request, "max_bytes", WAL_PULL_MAX_BYTES) {
        Ok(v) => v.min(WAL_PULL_MAX_BYTES),
        Err(response) => return response,
    };
    match ingest.wal_suffix(from_lsn, max_bytes) {
        Ok(image) => Response::binary(200, image),
        Err(IngestError::WalGap {
            requested,
            earliest,
        }) => Response::json(
            410,
            format!("{{\"error\":\"wal gap\",\"requested\":{requested},\"earliest\":{earliest}}}"),
        ),
        Err(e) => Response::error(500, &e.to_string()),
    }
}

/// `POST /admin/checkpoint` — force a checkpoint now (the cluster CLI and
/// the differential harness use this to exercise checkpoint interleavings
/// without waiting for the size trigger).
fn handle_admin_checkpoint(shared: &Shared) -> Response {
    let Some(ingest) = &shared.ingest else {
        return Response::error(403, "read-only server has nothing to checkpoint");
    };
    // Begin under the db write lock (quiesce + O(docs) freeze), complete
    // — the snapshot IO — after releasing it, so queries and writers run
    // through the slow part.
    let prepared = {
        let mut db = write_lock(&shared.db);
        ingest.begin_checkpoint(&mut db)
    };
    let completed = prepared.and_then(|p| ingest.complete_checkpoint(p));
    match completed {
        Ok(seq) => {
            record_checkpoint_success(shared);
            shared.publish_ingest_state(ingest);
            Response::json(
                200,
                format!("{{\"checkpoint\":{seq},\"lsn\":{}}}", ingest.last_lsn()),
            )
        }
        Err(e) => {
            record_checkpoint_failure(shared, &e);
            Response::error(500, &e.to_string())
        }
    }
}

pub(crate) fn expired(deadline: Instant) -> bool {
    Instant::now() >= deadline
}

fn handle_batch(shared: &Shared, request: &Request, deadline: Instant) -> Response {
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return Response::error(400, "batch body is not UTF-8");
    };
    let queries: Vec<Vec<String>> = text
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| {
            let split: Vec<&str> = line.split_whitespace().collect();
            normalize_query(&split)
        })
        .collect();
    if queries.is_empty() {
        return Response::error(400, "batch body has no queries (one per line)");
    }
    if queries.len() > MAX_BATCH_QUERIES {
        return Response::error(
            400,
            &format!(
                "batch of {} exceeds the {MAX_BATCH_QUERIES}-query cap",
                queries.len()
            ),
        );
    }
    let (k, pick) = match k_and_pick(request) {
        Ok(k_and_pick) => k_and_pick,
        Err(response) => return response,
    };
    if expired(deadline) {
        return Response::error(504, "deadline exceeded");
    }
    let db = read_lock(&shared.db);
    let query_refs: Vec<Vec<&str>> = queries
        .iter()
        .map(|q| q.iter().map(String::as_str).collect())
        .collect();
    let results = db.search_batch(&query_refs, pick, k);
    if expired(deadline) {
        return Response::error(504, "deadline exceeded");
    }
    Response::json(
        200,
        render::batch_body(db.store(), &queries, pick, k, &results),
    )
}

fn handle_query(shared: &Shared, request: &Request, deadline: Instant) -> Response {
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return Response::error(400, "query body is not UTF-8");
    };
    if text.trim().is_empty() {
        return Response::error(400, "query body is empty");
    }
    if expired(deadline) {
        return Response::error(504, "deadline exceeded");
    }
    let db = read_lock(&shared.db);
    match run_query(db.store(), text) {
        Ok(items) => Response::json(200, render::query_body(&items)),
        Err(e) => Response::error(400, &e.to_string()),
    }
}

/// The response both document mutations share: what changed, the WAL
/// position, how much of the log is fsynced, the new generation, and the
/// checkpoint sequence when the size threshold fired. `durable_lsn >=
/// lsn` means this mutation survives a crash; under `Batched`/`Flush` it
/// may still be pending.
fn mutation_body(
    action: &str,
    name: &str,
    doc: u32,
    lsn: u64,
    durable_lsn: u64,
    generation: u64,
    checkpoint: Option<u64>,
) -> String {
    let checkpoint = match checkpoint {
        Some(seq) => format!(",\"checkpoint\":{seq}"),
        None => String::new(),
    };
    format!(
        "{{\"{action}\":{},\"doc\":{doc},\"lsn\":{lsn},\"durable_lsn\":{durable_lsn},\"generation\":{generation}{checkpoint}}}",
        render::json_string(name)
    )
}

fn record_checkpoint_success(shared: &Shared) {
    shared
        .metrics
        .ingest_checkpoints
        .fetch_add(1, Ordering::Relaxed);
    *lock_health(&shared.checkpoint_health) = None;
}

fn record_checkpoint_failure(shared: &Shared, e: &IngestError) {
    shared
        .metrics
        .ingest_checkpoint_errors
        .fetch_add(1, Ordering::Relaxed);
    *lock_health(&shared.checkpoint_health) = Some(e.to_string());
}

/// Run the size-threshold checkpoint check after a successful mutation:
/// begin (quiesce + freeze) under a fresh short `db` write-lock hold,
/// complete (snapshot IO) with no lock held. A checkpoint failure never
/// fails the request — the mutation is already durable in the WAL; the
/// log keeps growing and `/health` turns `checkpoint_degraded` until a
/// later attempt succeeds.
fn checkpoint_after_mutation(shared: &Shared, ingest: &Ingest) -> Option<u64> {
    let prepared = {
        let mut db = write_lock(&shared.db);
        match ingest.maybe_begin_checkpoint(&mut db) {
            Ok(Some(prepared)) => prepared,
            Ok(None) => return None,
            Err(e) => {
                record_checkpoint_failure(shared, &e);
                return None;
            }
        }
    };
    match ingest.complete_checkpoint(prepared) {
        Ok(seq) => {
            record_checkpoint_success(shared);
            Some(seq)
        }
        Err(e) => {
            record_checkpoint_failure(shared, &e);
            None
        }
    }
}

/// Map a write-path failure to a status: 503 + Retry-After for a full
/// commit queue (back-pressure, not damage), 500 for everything else —
/// including a poisoned pipeline, where every subsequent mutation fails
/// until a restart recovers the durable prefix.
fn ingest_error_response(e: &IngestError) -> Response {
    if let IngestError::Io(io) = e {
        if io.kind() == std::io::ErrorKind::WouldBlock {
            return Response::error(503, &e.to_string())
                .with_header("Retry-After", "1".to_string());
        }
    }
    Response::error(500, &e.to_string())
}

/// `POST /documents?name=X` with the XML document as the body: log the
/// insertion to the WAL, apply it through incremental index maintenance,
/// and answer 201 — or 409 on a duplicate name, 400 on bad input, 403 on
/// a read-only server.
fn handle_insert_document(shared: &Shared, request: &Request) -> Response {
    let Some(ingest) = &shared.ingest else {
        return Response::error(403, "read-only server: ingestion needs a durable directory");
    };
    if shared.role == ServerRole::Follower {
        return Response::error(403, "follower replica: writes go to the primary");
    }
    let Some(name) = request.query_param("name") else {
        return Response::error(400, "missing name parameter");
    };
    if name.is_empty() {
        return Response::error(400, "name must not be empty");
    }
    let Ok(xml) = std::str::from_utf8(&request.body) else {
        return Response::error(400, "document body is not UTF-8");
    };
    if xml.trim().is_empty() {
        return Response::error(400, "document body is empty");
    }
    // Stage under the db write lock, commit after releasing it: workers
    // blocked here on their own mutations stage into the same batch and
    // one leader fsyncs for all of them (see the `Shared` contract).
    let (staged, generation) = {
        let mut db = write_lock(&shared.db);
        // Render the dense id, as every other id leaving the server is.
        let staged = ingest
            .stage_insert(&mut db, name, xml)
            .map(|(id, ticket)| (db.store().dense_id(id), ticket));
        (staged, db.generation())
    };
    match staged {
        Ok((id, ticket)) => match ingest.commit(ticket) {
            Ok(ack) => {
                shared
                    .metrics
                    .ingest_inserts
                    .fetch_add(1, Ordering::Relaxed);
                let checkpoint = checkpoint_after_mutation(shared, ingest);
                shared.publish_ingest_state(ingest);
                Response::json(
                    201,
                    mutation_body(
                        "inserted",
                        name,
                        id.0,
                        ack.lsn,
                        ack.durable_lsn,
                        generation,
                        checkpoint,
                    ),
                )
            }
            Err(e) => {
                shared.publish_ingest_state(ingest);
                ingest_error_response(&e)
            }
        },
        Err(IngestError::Load(LoadError::DuplicateName(_))) => {
            Response::error(409, &format!("document {name:?} already exists"))
        }
        Err(IngestError::Load(e)) => Response::error(400, &e.to_string()),
        Err(e) => ingest_error_response(&e),
    }
}

/// `DELETE /documents/{name}`: log the removal, apply it (tombstoning the
/// document's slot and dropping its postings), and answer 200 with the
/// dense id it had — or 404 for an
/// unknown name, 403 on a read-only server.
fn handle_remove_document(shared: &Shared, name: &str) -> Response {
    let Some(ingest) = &shared.ingest else {
        return Response::error(403, "read-only server: ingestion needs a durable directory");
    };
    if shared.role == ServerRole::Follower {
        return Response::error(403, "follower replica: writes go to the primary");
    }
    if name.is_empty() {
        return Response::error(400, "missing document name in path");
    }
    let (staged, generation) = {
        let mut db = write_lock(&shared.db);
        (ingest.stage_remove(&mut db, name), db.generation())
    };
    match staged {
        Ok((id, ticket)) => match ingest.commit(ticket) {
            Ok(ack) => {
                shared
                    .metrics
                    .ingest_removes
                    .fetch_add(1, Ordering::Relaxed);
                let checkpoint = checkpoint_after_mutation(shared, ingest);
                shared.publish_ingest_state(ingest);
                Response::json(
                    200,
                    mutation_body(
                        "removed",
                        name,
                        id.0,
                        ack.lsn,
                        ack.durable_lsn,
                        generation,
                        checkpoint,
                    ),
                )
            }
            Err(e) => {
                shared.publish_ingest_state(ingest);
                ingest_error_response(&e)
            }
        },
        Err(IngestError::Remove(RemoveError::NotFound(_))) => {
            Response::error(404, &format!("no document named {name:?}"))
        }
        Err(e) => ingest_error_response(&e),
    }
}

/// `/debug/sleep?ms=N` — hold a worker for `ms`, checking the deadline
/// cooperatively every few milliseconds. Exists so tests and the load
/// generator can create precise overload and deadline-expiry conditions.
fn handle_sleep(request: &Request, deadline: Instant) -> Response {
    let ms = match parse_param(request, "ms", 100usize) {
        Ok(ms) => ms,
        Err(response) => return response,
    };
    let until = Instant::now() + Duration::from_millis(u64::try_from(ms).unwrap_or(u64::MAX));
    while Instant::now() < until {
        if expired(deadline) {
            return Response::error(504, "deadline exceeded");
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Response::json(200, format!("{{\"slept_ms\":{ms}}}"))
}
