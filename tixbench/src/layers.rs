//! Every call the benchmark makes into the system under test, in one
//! file. This is the surface the benchmark freezes; a later issue that
//! removes one of these keeps a thin shim or is preceded by a
//! `benchmark` issue:
//!
//! * HTTP routes `/search /phrase /query /documents /admin/checkpoint
//!   /health /cluster/search /cluster/phrase` (the bytes are built in
//!   `stream.rs`, sent by `client.rs`);
//! * `corpus`: `CorpusSpec::{default, with_target_bytes}`,
//!   `workloads::paper_plants`, `Generator::{new, document}`;
//! * `tix`: `Database::{new, load, build_index, open, load_index_from,
//!   save_store_to, save_index_to, plan, search_filtered, find_phrase,
//!   store, index, mem_index, pack_index}`, `normalize_query`;
//! * `query`: `execute`, `run_query`, `LogicalPlan`, `TermSearch`;
//! * `exec`: `TermJoin::new(..).run`, `sort_by_node`, `pick_stream`,
//!   `topk::{min_score, top_k}`, `phrase_finder`;
//! * `pack`: `pack_bytes`, `PackIndex::{from_bytes, decoded_terms,
//!   decoded_blocks, total_blocks}`;
//! * `index`: `InvertedIndex::{build, add_document, remove_document}`;
//! * `xml` / `store`: `Document::parse`; `Store::{load_str,
//!   remove_document, freeze}`, `FrozenStore::thaw`;
//! * `ingest`: `Ingest::{open, stage_insert, commit, checkpoint, wal_len}`;
//! * `server`: `Server::{start, start_live, addr, metrics_json,
//!   shutdown}`, `ServerConfig`, `render::{search_body, phrase_body,
//!   query_body}`;
//! * `cluster`: `LocalCluster::{start, coordinator_addr, coordinator,
//!   topology, shards, wait_replicated, shutdown}`,
//!   `Coordinator::metrics_json`, `merge::{parse_shard_search,
//!   parse_shard_phrase, merge_search, merge_phrase,
//!   expected_search_body, expected_phrase_body}`, `Json`.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions; spans inside the program are a later issue.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tix::corpus::{workloads, CorpusSpec, Generator};
use tix::exec::phrase::phrase_finder;
use tix::exec::pick::{pick_stream, PickParams};
use tix::exec::scored::sort_by_node;
use tix::exec::termjoin::{SimpleScorer, TermJoin};
use tix::exec::topk;
use tix::index::InvertedIndex;
use tix::query::{LogicalPlan, Scoring, TermSearch};
use tix::store::Store;
use tix::Database;
use tix_cluster::{merge, LocalCluster};
use tix_ingest::{Ingest, IngestOptions};
use tix_pack::PackIndex;
use tix_server::{render, Server, ServerConfig};

use crate::spec::{CorpusSize, CLUSTER_REPLICAS, CLUSTER_SHARDS, SERVER_WORKERS};
use crate::stream::{Kind, Req, PICK_FRACTION, TOP_K};
use crate::trace::Tracer;

fn secs(from: Instant) -> f64 {
    from.elapsed().as_secs_f64()
}

fn never() -> bool {
    false
}

pub fn pick_params(req: &Req) -> PickParams {
    PickParams {
        relevance_threshold: req.threshold,
        fraction: PICK_FRACTION,
    }
}

// ---- corpus ---------------------------------------------------------------

/// The generator for a corpus size and seed.
pub fn generator(size: CorpusSize, seed: u64) -> Generator {
    let mut spec = CorpusSpec::default().with_target_bytes(size.target_bytes);
    spec.seed = seed;
    Generator::new(spec, workloads::paper_plants(size.plant_scale))
        .expect("the paper's plants fit every corpus size the benchmark names")
}

/// Articles for the `ingest_mixed` writer: the corpus's shape, another
/// seed, no plants.
pub fn fresh_articles(size: CorpusSize, seed: u64, count: usize) -> Vec<String> {
    let mut spec = CorpusSpec::default().with_target_bytes(size.target_bytes);
    spec.seed = seed ^ 0x6672_6573_6821;
    spec.articles = count;
    let generator =
        Generator::new(spec, Default::default()).expect("a corpus without plants is valid");
    (0..count).map(|i| generator.document(i).1).collect()
}

/// A loaded and indexed corpus and what it cost.
pub struct Built {
    pub db: Database,
    /// Document names in load order with their XML sizes.
    pub docs: Vec<(String, usize)>,
    pub xml_bytes: u64,
    pub index_build_s: f64,
}

/// Generate, parse, load and index the corpus.
pub fn build_database(generator: &Generator) -> Built {
    let mut db = Database::new();
    let mut docs = Vec::with_capacity(generator.document_count());
    let mut xml_bytes = 0u64;
    for i in 0..generator.document_count() {
        let (name, xml) = generator.document(i);
        db.load(&name, &xml).expect("generated XML loads");
        xml_bytes += xml.len() as u64;
        docs.push((name, xml.len()));
    }
    let t = Instant::now();
    db.build_index();
    Built {
        db,
        docs,
        xml_bytes,
        index_build_s: secs(t),
    }
}

/// `xml.parse_us_per_kb` and `store.load_us_per_kb` over the first
/// `sample` documents of the corpus.
pub fn parse_and_load_cost(generator: &Generator, sample: usize) -> (f64, f64) {
    let mut store = Store::new();
    let (mut parse_s, mut load_s, mut kib) = (0.0, 0.0, 0.0);
    for i in 0..sample.min(generator.document_count()) {
        let (name, xml) = generator.document(i);
        kib += xml.len() as f64 / 1024.0;
        let t = Instant::now();
        let doc = tix::xml::Document::parse(&xml).expect("generated XML parses");
        parse_s += secs(t);
        std::hint::black_box(doc);
        let t = Instant::now();
        store.load_str(&name, &xml).expect("generated XML loads");
        load_s += secs(t);
    }
    (parse_s * 1e6 / kib.max(1e-9), load_s * 1e6 / kib.max(1e-9))
}

// ---- persistence and pack -------------------------------------------------

/// Where a saved database lives.
#[derive(Debug, Clone)]
pub struct Saved {
    pub store: PathBuf,
    pub index: PathBuf,
}

impl Saved {
    pub fn disk_bytes(&self) -> u64 {
        file_len(&self.store) + file_len(&self.index)
    }

    /// Delete both files (an earlier set-up round's, to bound disk use).
    pub fn remove(&self) {
        let _ = std::fs::remove_file(&self.store);
        let _ = std::fs::remove_file(&self.index);
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| {
            let path = entry.path();
            if path.is_dir() {
                dir_bytes(&path)
            } else {
                file_len(&path)
            }
        })
        .sum()
}

/// Save the store snapshot and the TIXPAK v3 sidecar.
pub fn save_database(db: &Database, dir: &Path) -> Saved {
    std::fs::create_dir_all(dir).expect("create corpus directory");
    let saved = Saved {
        store: dir.join("corpus.tix"),
        index: dir.join("corpus.tix.idx"),
    };
    db.save_store_to(&saved.store).expect("save store snapshot");
    db.save_index_to(&saved.index).expect("save index sidecar");
    saved
}

/// Open a saved database the way `tix serve` does: the pack is installed
/// by reference and decodes lazily.
pub fn open_database(saved: &Saved) -> Database {
    let mut db = Database::open(&saved.store).expect("open store snapshot");
    db.load_index_from(&saved.index)
        .expect("open index sidecar");
    db
}

/// `pack.pack_ms` and `pack.index_bytes`: `pack_bytes` over the built
/// index.
pub fn pack_cost(db: &Database) -> (f64, u64) {
    let index = db.mem_index().expect("a freshly built index is in memory");
    let t = Instant::now();
    let bytes = tix_pack::pack_bytes(index).expect("index packs");
    (secs(t) * 1e3, bytes.len() as u64)
}

/// `pack.open_ms`: `PackIndex::from_bytes` over the sidecar's bytes.
pub fn pack_open_ms(saved: &Saved) -> f64 {
    let bytes = std::fs::read(&saved.index).expect("read index sidecar");
    let t = Instant::now();
    let pack = PackIndex::from_bytes(bytes).expect("sidecar opens");
    let ms = secs(t) * 1e3;
    std::hint::black_box(pack);
    ms
}

/// `(decoded terms, decoded blocks, total blocks)` of a pack-backed
/// database; zeros for an in-memory index.
pub fn pack_decoded(db: &Database) -> (usize, usize, usize) {
    db.pack_index().map_or((0, 0, 0), |p| {
        (p.decoded_terms(), p.decoded_blocks(), p.total_blocks())
    })
}

// ---- serving --------------------------------------------------------------

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: SERVER_WORKERS,
        ..ServerConfig::default()
    }
}

/// A read-only server over `db` on an ephemeral port.
pub fn start_server(db: Database) -> Server {
    Server::start(db, server_config()).expect("server boots")
}

/// A live server (`strict` durability, default 8 MiB checkpoint
/// threshold) over the durable directory `dir`.
pub fn start_live(dir: &Path) -> Server {
    Server::start_live(dir, server_config()).expect("live server boots")
}

/// Turn `dir` into a live directory whose checkpoint holds `db`.
pub fn write_base_checkpoint(dir: &Path, db: &mut Database) {
    let (ingest, _empty) = Ingest::open(dir, IngestOptions::default()).expect("open live dir");
    ingest.checkpoint(db).expect("base checkpoint");
}

/// The body the server must answer `req` with, computed in-process;
/// `None` for `/health`, whose body is not a function of the corpus.
pub fn expected_body(db: &Database, req: &Req) -> Option<String> {
    let terms = tix::normalize_query(&req.terms);
    let refs: Vec<&str> = terms.iter().map(String::as_str).collect();
    match req.kind {
        Kind::Search | Kind::SearchMin => {
            let results = db
                .search_filtered(&refs, pick_params(req), TOP_K, req.min_score, &never)
                .unwrap_or_default();
            Some(render::search_body(
                db.store(),
                &terms,
                pick_params(req),
                TOP_K,
                &results,
            ))
        }
        Kind::Phrase => Some(render::phrase_body(
            db.store(),
            &terms,
            &db.find_phrase(&refs),
        )),
        Kind::Query => {
            let items = tix::query::run_query(db.store(), &req.body)
                .expect("the stream's dialect queries are valid");
            Some(render::query_body(&items))
        }
        Kind::Health => None,
    }
}

/// What the in-process replay of one read learned.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadStats {
    pub postings_scanned: u64,
    pub postings_total: u64,
    /// The planner chose a `+pushdown` plan.
    pub pushdown: bool,
    /// Whether a plan was chosen at all (`/search` only).
    pub planned: bool,
    /// Results before top-k (after Pick and the `min_score` filter).
    pub results: usize,
}

/// Replay `req` through the layers' public functions, recording
/// `request → {plan, execute, render}` and, beside it, the access methods
/// called directly on the same terms as
/// `breakdown → {termjoin, pick, topk | phrase}`: `execute` is opaque
/// from outside, so its parts are measured by running them again.
/// Returns the rendered body.
pub fn replay_read(
    db: &Database,
    req: &Req,
    id: u64,
    tracer: &mut Tracer,
) -> (Option<String>, ReadStats) {
    let terms = tix::normalize_query(&req.terms);
    let refs: Vec<&str> = terms.iter().map(String::as_str).collect();
    let (store, index) = (db.store(), db.index());
    let pick = pick_params(req);
    let mut stats = ReadStats::default();
    let root = tracer.begin("request", None, id);
    let body = match req.kind {
        Kind::Search | Kind::SearchMin => {
            let choice = tracer.child("plan", root, id, || {
                db.plan(&refs, pick, TOP_K, req.min_score)
            });
            let logical = LogicalPlan::TermSearch(TermSearch {
                terms: terms.clone(),
                scoring: Scoring::SimpleUniform,
                pick: Some(pick),
                k: TOP_K,
                min_score: req.min_score,
            });
            let run = tracer
                .child("execute", root, id, || {
                    tix::query::execute(store, index, &logical, &choice.chosen.plan, 1, &never)
                })
                .expect("never cancelled");
            stats.postings_scanned = run.postings_scanned;
            stats.postings_total = run.postings_total;
            stats.pushdown = choice.chosen.plan.pushdown;
            stats.planned = true;
            Some(tracer.child("render", root, id, || {
                render::search_body(store, &terms, pick, TOP_K, &run.results)
            }))
        }
        Kind::Phrase => {
            let matches = tracer.child("execute", root, id, || db.find_phrase(&refs));
            Some(tracer.child("render", root, id, || {
                render::phrase_body(store, &terms, &matches)
            }))
        }
        Kind::Query => {
            let items = tracer
                .child("execute", root, id, || {
                    tix::query::run_query(store, &req.body)
                })
                .expect("the stream's dialect queries are valid");
            Some(tracer.child("render", root, id, || render::query_body(&items)))
        }
        Kind::Health => None,
    };
    tracer.end(root);

    match req.kind {
        Kind::Search | Kind::SearchMin => {
            let scorer = SimpleScorer::uniform();
            let parts = tracer.begin("breakdown", None, id);
            let scored = tracer.child("termjoin", parts, id, || {
                sort_by_node(TermJoin::new(store, index, &refs, &scorer).run())
            });
            let picked = tracer.child("pick", parts, id, || pick_stream(store, &scored, &pick));
            let top = tracer.child("topk", parts, id, || {
                let kept = match req.min_score {
                    Some(min) => topk::min_score(picked, min),
                    None => picked,
                };
                stats.results = kept.len();
                topk::top_k(kept, TOP_K)
            });
            tracer.end(parts);
            std::hint::black_box(top);
        }
        Kind::Phrase => {
            let parts = tracer.begin("breakdown", None, id);
            let matches = tracer.child("phrase", parts, id, || phrase_finder(store, index, &refs));
            tracer.end(parts);
            stats.results = matches.len();
        }
        Kind::Query | Kind::Health => {}
    }
    (body, stats)
}

// ---- write path -----------------------------------------------------------

/// A private copy of the corpus with a mutable in-memory index, for
/// timing `xml`, `store` and `index` maintenance at corpus size.
pub struct WriteLab {
    store: Store,
    index: InvertedIndex,
    /// `InvertedIndex::build` over the whole corpus.
    pub index_build_s: f64,
}

impl WriteLab {
    pub fn new(db: &Database) -> WriteLab {
        let store = db.store().freeze().thaw();
        let t = Instant::now();
        let index = InvertedIndex::build(&store);
        WriteLab {
            index_build_s: secs(t),
            store,
            index,
        }
    }

    /// `breakdown → {xml.parse, store.load, index.add}` for one insert.
    pub fn insert(&mut self, name: &str, xml: &str, id: u64, tracer: &mut Tracer) {
        let parts = tracer.begin("breakdown", None, id);
        let doc = tracer.child("xml.parse", parts, id, || tix::xml::Document::parse(xml));
        std::hint::black_box(doc.expect("generated XML parses"));
        let doc_id = tracer
            .child("store.load", parts, id, || self.store.load_str(name, xml))
            .expect("fresh names are unique");
        tracer.child("index.add", parts, id, || {
            self.index.add_document(&self.store, doc_id)
        });
        tracer.end(parts);
    }

    /// `breakdown → {store.remove, index.remove}` for one delete.
    pub fn remove(&mut self, name: &str, id: u64, tracer: &mut Tracer) {
        let parts = tracer.begin("breakdown", None, id);
        let doc_id = tracer
            .child("store.remove", parts, id, || {
                self.store.remove_document(name)
            })
            .expect("the document is live");
        tracer.child("index.remove", parts, id, || {
            self.index.remove_document(doc_id)
        });
        tracer.end(parts);
    }
}

/// What pushing documents through a private `Ingest` engine learned.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestStats {
    pub wal_bytes_per_doc_byte: f64,
    pub checkpoint_ms: f64,
    pub replay_docs_per_s: f64,
}

/// `request → {ingest.stage, ingest.commit}` for each of `docs` against a
/// private engine in `dir` over `db`; then one timed checkpoint, and two
/// timed reopens (log full, log empty) whose difference is the replay.
pub fn replay_writes(
    dir: &Path,
    db: &mut Database,
    docs: &[(String, String)],
    first_id: u64,
    tracer: &mut Tracer,
) -> IngestStats {
    let options = IngestOptions::default;
    let (ingest, _empty) = Ingest::open(dir, options()).expect("open private live dir");
    ingest.checkpoint(db).expect("base checkpoint");
    let wal_before = ingest.wal_len();
    let mut xml_bytes = 0usize;
    for (n, (name, xml)) in docs.iter().enumerate() {
        let id = first_id + n as u64;
        let root = tracer.begin("request", None, id);
        let (_, ticket) = tracer
            .child("ingest.stage", root, id, || {
                ingest.stage_insert(db, name, xml)
            })
            .expect("fresh document stages");
        tracer
            .child("ingest.commit", root, id, || ingest.commit(ticket))
            .expect("commit is durable");
        tracer.end(root);
        xml_bytes += xml.len();
    }
    let wal_grown = ingest.wal_len().saturating_sub(wal_before);
    drop(ingest);

    let t = Instant::now();
    let (ingest, mut replayed) = Ingest::open(dir, options()).expect("reopen with a full log");
    let with_log_s = secs(t);
    let t = Instant::now();
    ingest.checkpoint(&mut replayed).expect("checkpoint");
    let checkpoint_ms = secs(t) * 1e3;
    drop((ingest, replayed));
    let t = Instant::now();
    let reopened = Ingest::open(dir, options()).expect("reopen with an empty log");
    let without_log_s = secs(t);
    drop(reopened);

    let replay_s = (with_log_s - without_log_s).max(1e-6);
    IngestStats {
        wal_bytes_per_doc_byte: wal_grown as f64 / xml_bytes.max(1) as f64,
        checkpoint_ms,
        replay_docs_per_s: docs.len() as f64 / replay_s,
    }
}

// ---- cluster --------------------------------------------------------------

/// Boot (or reboot) the in-process cluster over `dir`.
pub fn start_cluster(dir: &Path) -> LocalCluster {
    LocalCluster::start(dir, CLUSTER_SHARDS, CLUSTER_REPLICAS).expect("cluster boots")
}

fn parse_addr(addr: &str) -> SocketAddr {
    addr.parse().expect("nodes bind numeric addresses")
}

pub fn coordinator_addr(cluster: &LocalCluster) -> SocketAddr {
    parse_addr(&cluster.coordinator_addr())
}

/// A single-node database holding every shard's documents: the reference
/// the coordinator's answers are checked against.
pub fn union_database(docs: &[(String, String)]) -> Database {
    let mut union = Database::new();
    for (name, xml) in docs {
        union.load(name, xml).expect("generated XML loads");
    }
    union.build_index();
    union
}

/// The primaries' addresses, shard order.
pub fn primary_addrs(cluster: &LocalCluster) -> Vec<SocketAddr> {
    cluster
        .topology()
        .shards
        .iter()
        .map(|s| parse_addr(&s.primary))
        .collect()
}

pub fn wait_replicated(cluster: &LocalCluster) -> bool {
    cluster.wait_replicated(Duration::from_secs(60))
}

/// The body the coordinator must answer `req` with, from a single-node
/// database holding every shard's documents.
pub fn cluster_expected_body(union: &Database, req: &Req) -> Option<String> {
    let terms = tix::normalize_query(&req.terms);
    let refs: Vec<&str> = terms.iter().map(String::as_str).collect();
    match req.kind {
        Kind::Search => Some(merge::expected_search_body(
            union,
            &refs,
            pick_params(req),
            TOP_K,
        )),
        Kind::Phrase => Some(merge::expected_phrase_body(union, &refs)),
        _ => None,
    }
}

/// The shard-side target of a coordinator request.
pub fn shard_target(req: &Req) -> String {
    format!("/cluster{}", req.target)
}

/// Parse the shards' bodies and merge them as the coordinator does;
/// returns the hits each shard returned.
pub fn merge_shard_bodies(req: &Req, bodies: &[String]) -> Vec<usize> {
    match req.kind {
        Kind::Phrase => {
            let shards: Vec<_> = bodies
                .iter()
                .filter_map(|b| merge::parse_shard_phrase(b))
                .collect();
            std::hint::black_box(merge::merge_phrase(&shards));
            shards.iter().map(|s| s.hits.len()).collect()
        }
        _ => {
            let shards: Vec<_> = bodies
                .iter()
                .filter_map(|b| merge::parse_shard_search(b))
                .collect();
            std::hint::black_box(merge::merge_search(&shards, TOP_K));
            shards.iter().map(|s| s.hits.len()).collect()
        }
    }
}
