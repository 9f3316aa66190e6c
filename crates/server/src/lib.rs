//! # tix-server — the query-serving subsystem
//!
//! A dependency-free (std-only) multi-threaded query server over
//! [`std::net::TcpListener`], speaking a minimal HTTP/1.1 subset. The
//! paper ran TIX inside TIMBER — a database *system* answering concurrent
//! clients — and this crate supplies that missing serving layer for the
//! reproduction:
//!
//! * **Bounded admission** — a fixed worker pool behind a fixed-capacity
//!   queue; saturation answers `503` + `Retry-After` at the accept loop
//!   instead of buffering without bound. A `503`, like a `4xx` answered
//!   before its request was read, is written, the write side is shut
//!   (FIN, so the client reads it and EOF), and the unread request is
//!   drained for at most 1 s and one request's worth of bytes before the
//!   socket closes. A `503` is drained on one reaper thread, never on the
//!   accept loop; a `4xx` on its worker. This front door ([`front`],
//!   over [`queue`]) is generic over its request handler; the cluster
//!   coordinator in `tix-cluster` serves through the same code with its
//!   own handler.
//! * **Deadlines** — every request carries a deadline (default or
//!   `deadline_ms`), checked cooperatively between the pipeline's operator
//!   stages; expiry answers `504` and stops paying for dead work.
//! * **Result caching** — a normalized-query LRU keyed on
//!   `(endpoint, terms, pick params, k, generation)`; `build_index`/`load`
//!   bump the database generation, so a reload invalidates by key
//!   ([`cache`], checked by `tix_invariants::try_cache_coherent`).
//! * **Live metrics** — counters, queue-depth and worker-utilization
//!   gauges, and log-bucketed latency histograms with p50/p95/p99, as the
//!   JSON `/metrics` document ([`metrics`]).
//! * **Graceful shutdown** — answer new connections `503` (written, write
//!   side shut, bounded drain, as above) while the admitted queue drains
//!   and in-flight requests finish, then close the listener, let the
//!   reaper finish its drains and join every thread.
//!
//! ## Endpoints
//!
//! | route | method | description |
//! |-------|--------|-------------|
//! | `/search?q=rust+xml&k=10&threshold=0.5&fraction=0.5` | GET | TermJoin → Pick → top-k |
//! | `/phrase?q=xml+database` | GET | PhraseFinder exact-phrase lookup |
//! | `/explain?q=rust+xml&k=10` | GET | the planner's statistics, costed candidates and choice |
//! | `/search/batch?k=10` | POST | one query per body line, deduplicated |
//! | `/query` | POST | extended-XQuery dialect (body = query text) |
//! | `/documents?name=X` | POST | ingest a document (body = XML); live servers only |
//! | `/documents/{name}` | DELETE | remove a document by name; live servers only |
//! | `/health` | GET | liveness, role, corpus stats, applied LSN |
//! | `/metrics` | GET | the metrics registry as JSON |
//! | `/wal?from_lsn=N` | GET | binary WAL suffix for follower replication |
//! | `/cluster/search?q=…&k=…` | GET | shard top-k **with ties** + §4.2 bound, scores as raw bits |
//! | `/cluster/phrase?q=…` | GET | shard phrase matches, counts as raw bits |
//! | `/admin/checkpoint` | POST | force a checkpoint now |
//!
//! Reads carrying `min_lsn=N` answer 403 until this node has applied LSN
//! `N` — the replica-staleness watermark the coordinator uses to route
//! around lagging followers.
//!
//! A server started with [`Server::start`] is **read-only** (document
//! mutations answer 403). [`Server::start_live`] serves a durable
//! ingestion directory instead — mutations are write-ahead logged,
//! applied through incremental index maintenance, and checkpointed when
//! the log crosses its size threshold (see `tix-ingest`); one writer at a
//! time mutates under the ingest mutex while readers keep querying.
//!
//! Every response is JSON with `Connection: close` (one request per
//! connection).
//!
//! ```no_run
//! use tix::Database;
//! use tix_server::{Server, ServerConfig};
//!
//! let mut db = Database::new();
//! db.load("a.xml", "<a><p>rust xml</p></a>").unwrap();
//! let server = Server::start(db, ServerConfig::default()).unwrap();
//! println!("serving on http://{}", server.addr());
//! server.join();
//! ```

pub mod cache;
pub mod front;
pub mod http;
pub mod metrics;
pub mod queue;
mod read;
pub mod render;
mod server;

pub use server::{Server, ServerConfig, ServerRole, MAX_BATCH_QUERIES, WAL_PULL_MAX_BYTES};
