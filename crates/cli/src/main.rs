//! `tix` — command-line interface to the TIX structured-text XML database.
//!
//! ```text
//! tix load   <snapshot> <file.xml>…      load XML files, write a snapshot
//! tix gen    <snapshot> [articles] [seed] generate a synthetic corpus
//! tix stats  <snapshot>                  corpus statistics
//! tix search <snapshot> <term>… [-k N] [-t THRESHOLD]
//!                                        TermJoin → Pick → top-k search
//! tix phrase <snapshot> <term> <term>…   exact-phrase lookup (PhraseFinder)
//! tix query  <snapshot> <file|->         run an extended-XQuery query
//! tix explain <snapshot> <term>… [-k N] [-t THRESHOLD] [--min-score X]
//!             [--query <file|->]         costed plan choice for a search
//! tix ingest <dir> add <name> <file.xml> WAL-logged insert into a live directory
//! tix ingest <dir> remove <name>         WAL-logged removal from a live directory
//! tix checkpoint <dir>                   snapshot a live directory, truncate its WAL
//! tix serve  <snapshot|--live dir> [--addr A] [--workers N] [--queue N]
//!                       [--cache N] [--deadline-ms N]
//!                                        serve queries over HTTP
//! tix cluster init   <dir> [--shards N] [--replicas M] [--base-port P]
//!                                        write a cluster.json topology
//! tix cluster serve  <dir> [--node S:primary|S:replica:R]
//!                          [--coordinator] [--addr A] [--workers N]
//!                                        serve one node, the coordinator,
//!                                        or (no flags) the whole cluster
//! tix cluster status <dir>               poll every node's /health
//! ```
//!
//! `ingest`, `checkpoint`, and `serve --live` operate on a *durable
//! ingestion directory* (see `tix-ingest`): mutations are write-ahead
//! logged and fsynced before they apply, recovery replays the log over
//! the last checkpoint, and a checkpoint rewrites the store+index
//! snapshots atomically then truncates the log.

use std::fs;
use std::io::Read;
use std::process::ExitCode;

use tix::corpus::{CorpusSpec, Generator, PlantSpec};
use tix::exec::pick::PickParams;
use tix::query::run_query;
use tix::store::{NodeRef, Store};
use tix::{Database, SearchRequest};

mod commands {
    //! Command implementations, separated for testability.

    use super::*;

    /// Parse XML files and write a snapshot.
    pub fn load(snapshot: &str, files: &[String]) -> Result<String, String> {
        if files.is_empty() {
            return Err("load: at least one XML file required".into());
        }
        let mut store = Store::new();
        for path in files {
            let xml = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let name = std::path::Path::new(path)
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or(path);
            store
                .load_str(name, &xml)
                .map_err(|e| format!("cannot load {path}: {e}"))?;
        }
        write_snapshot(&store, snapshot)?;
        Ok(format!(
            "loaded {} → {snapshot}: {}",
            files.len(),
            store.stats()
        ))
    }

    /// Generate a synthetic corpus and write a snapshot.
    pub fn generate(snapshot: &str, articles: usize, seed: u64) -> Result<String, String> {
        let spec = CorpusSpec {
            articles,
            seed,
            ..CorpusSpec::default()
        };
        let generator = Generator::new(spec, PlantSpec::default()).map_err(|e| e.to_string())?;
        let mut store = Store::new();
        generator.load_into(&mut store).map_err(|e| e.to_string())?;
        write_snapshot(&store, snapshot)?;
        Ok(format!("generated → {snapshot}: {}", store.stats()))
    }

    /// Print corpus statistics.
    pub fn stats(snapshot: &str) -> Result<String, String> {
        let store = read_snapshot(snapshot)?;
        Ok(store.stats().to_string())
    }

    /// TermJoin → Pick → top-k search.
    pub fn search(
        snapshot: &str,
        terms: &[String],
        k: usize,
        threshold: f64,
    ) -> Result<String, String> {
        if terms.is_empty() {
            return Err("search: at least one term required".into());
        }
        let db = database(snapshot)?;
        let term_refs: Vec<&str> = terms.iter().map(String::as_str).collect();
        let results = db.search(
            &term_refs,
            PickParams {
                relevance_threshold: threshold,
                fraction: 0.5,
            },
            k,
        );
        let mut out = format!("{} results\n", results.len());
        for (i, s) in results.iter().enumerate() {
            let tag = db.store().tag_name(s.node).unwrap_or("?");
            let doc = db.store().doc(s.node.doc).name();
            let text: String = db.store().text_content(s.node).chars().take(72).collect();
            out.push_str(&format!(
                "{:>3}. {:<8.2} <{tag}> in {doc}  {text}…\n",
                i + 1,
                s.score
            ));
        }
        Ok(out)
    }

    /// PhraseFinder lookup.
    pub fn phrase(snapshot: &str, terms: &[String]) -> Result<String, String> {
        if terms.len() < 2 {
            return Err("phrase: at least two terms required".into());
        }
        let db = database(snapshot)?;
        let term_refs: Vec<&str> = terms.iter().map(String::as_str).collect();
        let matches = db.find_phrase(&term_refs);
        let mut out = format!("{} text nodes contain the phrase\n", matches.len());
        for m in matches.iter().take(20) {
            let doc = db.store().doc(m.node.doc).name();
            let node = NodeRef::new(db.store().dense_id(m.node.doc), m.node.node);
            out.push_str(&format!("  {}× in {doc} {node}\n", m.score as u64));
        }
        if matches.len() > 20 {
            out.push_str(&format!("  … and {} more\n", matches.len() - 20));
        }
        Ok(out)
    }

    /// The planner's view of a search: gathered statistics, every costed
    /// candidate access method, and the chosen physical plan. With
    /// `--query` the text of an extended-XQuery file (or stdin with `-`)
    /// is lowered and explained instead of a term list.
    pub fn explain(
        snapshot: &str,
        terms: &[String],
        k: usize,
        threshold: f64,
        min_score: Option<f64>,
        query_source: Option<&str>,
    ) -> Result<String, String> {
        let db = database(snapshot)?;
        if let Some(source) = query_source {
            let text = if source == "-" {
                let mut buf = String::new();
                std::io::stdin()
                    .read_to_string(&mut buf)
                    .map_err(|e| e.to_string())?;
                buf
            } else {
                fs::read_to_string(source).map_err(|e| format!("cannot read {source}: {e}"))?
            };
            return tix::query::explain_query(db.store(), db.index(), &text)
                .map_err(|e| format!("cannot explain query: {e}"));
        }
        if terms.is_empty() {
            return Err("explain: at least one term required (or --query <file|->)".into());
        }
        let pick = PickParams {
            relevance_threshold: threshold,
            fraction: 0.5,
        };
        Ok(db.explain(&SearchRequest::search(terms, pick, k, min_score)))
    }

    /// Run an extended-XQuery query from a file (or stdin with `-`).
    pub fn query(snapshot: &str, source: &str) -> Result<String, String> {
        let text = if source == "-" {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| e.to_string())?;
            buf
        } else {
            fs::read_to_string(source).map_err(|e| format!("cannot read {source}: {e}"))?
        };
        let store = read_snapshot(snapshot)?;
        let items = run_query(&store, &text).map_err(|e| e.to_string())?;
        let mut out = format!("{} results\n", items.len());
        for item in &items {
            out.push_str(&item.xml);
            out.push('\n');
        }
        Ok(out)
    }

    /// Serve queries over HTTP until the process is killed. `live` treats
    /// `path` as a durable ingestion directory (WAL replay on startup,
    /// `/documents` mutations enabled) instead of a read-only snapshot.
    pub fn serve(
        path: &str,
        live: bool,
        config: tix_server::ServerConfig,
    ) -> Result<String, String> {
        let server = if live {
            tix_server::Server::start_live(path, config).map_err(|e| e.to_string())?
        } else {
            let db = database(path)?;
            tix_server::Server::start(db, config).map_err(|e| e.to_string())?
        };
        // Print eagerly: `join` blocks for the lifetime of the server, and
        // callers (humans, the CI smoke job) need the ephemeral port now.
        println!("tix-server listening on http://{}", server.addr());
        server.join();
        Ok(String::new())
    }

    /// WAL-logged mutation of a durable ingestion directory: `add` inserts
    /// an XML file under a document name, `remove` deletes by name. Either
    /// way the record is fsynced to the log before it applies, and an
    /// oversized log is checkpointed away before the command returns.
    pub fn ingest(dir: &str, action: &str, rest: &[String]) -> Result<String, String> {
        let (ingest, mut db) = tix_ingest::Ingest::open(dir, tix_ingest::IngestOptions::default())
            .map_err(|e| format!("cannot open ingest dir {dir}: {e}"))?;
        let summary = match action {
            "add" => {
                let name = rest.first().ok_or("ingest add: document name required")?;
                let file = rest.get(1).ok_or("ingest add: XML file required")?;
                let xml =
                    fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
                let id = ingest
                    .insert_document(&mut db, name, &xml)
                    .map_err(|e| format!("cannot add {name}: {e}"))?;
                let id = db.store().dense_id(id);
                format!("added {name} as doc {} at lsn {}", id.0, ingest.last_lsn())
            }
            "remove" => {
                let name = rest
                    .first()
                    .ok_or("ingest remove: document name required")?;
                ingest
                    .remove_document(&mut db, name)
                    .map_err(|e| format!("cannot remove {name}: {e}"))?;
                format!("removed {name} at lsn {}", ingest.last_lsn())
            }
            other => return Err(format!("ingest: unknown action {other:?} (add|remove)")),
        };
        let checkpointed = ingest
            .maybe_checkpoint(&mut db)
            .map_err(|e| format!("checkpoint failed: {e}"))?;
        let tail = match checkpointed {
            Some(seq) => format!("; checkpointed as seq {seq}"),
            None => format!("; wal {} bytes", ingest.wal_len()),
        };
        Ok(format!("{summary}{tail}: {}", db.store().stats()))
    }

    /// Force a checkpoint of a durable ingestion directory: write fresh
    /// store+index snapshots, commit the CHECKPOINT meta, truncate the WAL.
    pub fn checkpoint(dir: &str) -> Result<String, String> {
        let (ingest, mut db) = tix_ingest::Ingest::open(dir, tix_ingest::IngestOptions::default())
            .map_err(|e| format!("cannot open ingest dir {dir}: {e}"))?;
        let seq = ingest
            .checkpoint(&mut db)
            .map_err(|e| format!("checkpoint failed: {e}"))?;
        Ok(format!(
            "checkpointed {dir} as seq {seq} at lsn {}: {}",
            ingest.last_lsn(),
            db.store().stats()
        ))
    }

    /// Write a `cluster.json` topology: `shards` primaries with
    /// `replicas` followers each, on consecutive loopback ports starting
    /// at `base_port` (primary first, then its replicas, shard by shard).
    pub fn cluster_init(
        dir: &str,
        shards: usize,
        replicas: usize,
        base_port: u16,
    ) -> Result<String, String> {
        let shards = shards.max(1);
        let mut port = base_port;
        let mut next = || -> Result<String, String> {
            let addr = format!("127.0.0.1:{port}");
            port = port
                .checked_add(1)
                .ok_or_else(|| format!("port range overflows past {port}"))?;
            Ok(addr)
        };
        let mut map = Vec::with_capacity(shards);
        for _ in 0..shards {
            let primary = next()?;
            let mut reps = Vec::with_capacity(replicas);
            for _ in 0..replicas {
                reps.push(next()?);
            }
            map.push(tix_cluster::ShardTopology {
                primary,
                replicas: reps,
            });
        }
        let topology = tix_cluster::Topology { shards: map };
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        topology.save(dir).map_err(|e| e.to_string())?;
        Ok(format!(
            "initialized {dir}: {shards} shard(s) × {replicas} replica(s) on ports {base_port}..{port}; topology in {dir}/{}",
            tix_cluster::TOPOLOGY_FILE
        ))
    }

    /// Serve from a cluster directory. With `--node S:primary` or
    /// `--node S:replica:R` this process becomes that one node (data
    /// under `dir/shard-S/...`, address from the topology); with
    /// `--coordinator` it becomes the scatter-gather front end; with
    /// neither, every node plus a coordinator runs in this process — the
    /// single-machine quickstart.
    pub fn cluster_serve(
        dir: &str,
        node: Option<&str>,
        coordinator: bool,
        addr: Option<&str>,
        workers: Option<usize>,
        durability: Option<tix_ingest::DurabilityMode>,
    ) -> Result<String, String> {
        let topology = tix_cluster::Topology::load(dir).map_err(|e| e.to_string())?;
        let config_for = |listen: &str| {
            let mut config = tix_server::ServerConfig {
                addr: listen.to_string(),
                ..tix_server::ServerConfig::default()
            };
            if let Some(workers) = workers {
                config.workers = workers;
            }
            if let Some(durability) = durability {
                config.durability = durability;
            }
            config
        };
        if coordinator {
            let mut config = tix_cluster::CoordinatorConfig {
                addr: addr.unwrap_or("127.0.0.1:7979").to_string(),
                ..Default::default()
            };
            if let Some(workers) = workers {
                config.workers = workers;
            }
            let front =
                tix_cluster::Coordinator::start(topology, config).map_err(|e| e.to_string())?;
            println!(
                "tix-cluster coordinator listening on http://{}",
                front.addr()
            );
            front.join();
            return Ok(String::new());
        }
        if let Some(spec) = node {
            let (shard, role) = parse_node_spec(spec, topology.shard_count())?;
            let base = std::path::Path::new(dir).join(format!("shard-{shard}"));
            let group = &topology.shards[shard];
            let server = match role {
                NodeRole::Primary => tix_server::Server::start_primary(
                    base.join("primary"),
                    config_for(&group.primary),
                )
                .map_err(|e| e.to_string())?,
                NodeRole::Replica(r) => {
                    let listen = group.replicas.get(r).ok_or_else(|| {
                        format!(
                            "shard {shard} has {} replica(s), no index {r}",
                            group.replicas.len()
                        )
                    })?;
                    tix_server::Server::start_follower(
                        base.join(format!("replica-{r}")),
                        Some(group.primary.clone()),
                        config_for(listen),
                    )
                    .map_err(|e| e.to_string())?
                }
            };
            println!(
                "tix-cluster node {spec} listening on http://{} (data under {})",
                server.addr(),
                base.display()
            );
            server.join();
            return Ok(String::new());
        }
        // Whole cluster in one process: every node on its topology
        // address, coordinator in the foreground.
        let mut servers = Vec::new();
        for (shard, group) in topology.shards.iter().enumerate() {
            let base = std::path::Path::new(dir).join(format!("shard-{shard}"));
            let primary =
                tix_server::Server::start_primary(base.join("primary"), config_for(&group.primary))
                    .map_err(|e| format!("shard {shard} primary: {e}"))?;
            println!("shard {shard} primary on http://{}", primary.addr());
            servers.push(primary);
            for (r, listen) in group.replicas.iter().enumerate() {
                let replica = tix_server::Server::start_follower(
                    base.join(format!("replica-{r}")),
                    Some(group.primary.clone()),
                    config_for(listen),
                )
                .map_err(|e| format!("shard {shard} replica {r}: {e}"))?;
                println!("shard {shard} replica {r} on http://{}", replica.addr());
                servers.push(replica);
            }
        }
        let config = tix_cluster::CoordinatorConfig {
            addr: addr.unwrap_or("127.0.0.1:7979").to_string(),
            ..Default::default()
        };
        let front = tix_cluster::Coordinator::start(topology, config).map_err(|e| e.to_string())?;
        println!(
            "tix-cluster coordinator listening on http://{}",
            front.addr()
        );
        front.join();
        for server in servers {
            server.shutdown();
        }
        Ok(String::new())
    }

    /// Poll `/health` on every node in the topology and render a table.
    /// Unreachable nodes are reported, not errors — that is what status
    /// is for.
    pub fn cluster_status(dir: &str) -> Result<String, String> {
        let topology = tix_cluster::Topology::load(dir).map_err(|e| e.to_string())?;
        let timeout = std::time::Duration::from_secs(2);
        let mut out = format!(
            "{} shard(s), {} node(s)\n{:<6} {:<9} {:<21} {:<6} {:>6} {:>11} {:>11} {:>5} {:<10} {:<5}\n",
            topology.shard_count(),
            topology.all_nodes().len(),
            "shard",
            "role",
            "addr",
            "state",
            "docs",
            "applied_lsn",
            "durable_lsn",
            "ckpt",
            "durability",
            "ckpt-health"
        );
        let mut down = 0usize;
        let mut degraded_nodes = 0usize;
        for (shard, addr, is_primary) in topology.all_nodes() {
            let role = if is_primary { "primary" } else { "replica" };
            match tix_cluster::client::get(addr, "/health", timeout) {
                Ok(r) if r.status == 200 => {
                    let doc = r.json().unwrap_or(tix_cluster::Json::Null);
                    let field = |k: &str| {
                        doc.get(k)
                            .and_then(tix_cluster::Json::u64)
                            .map_or_else(|| "?".to_string(), |v| v.to_string())
                    };
                    let durability = doc
                        .get("durability")
                        .and_then(tix_cluster::Json::str)
                        .unwrap_or("?")
                        .to_string();
                    let ckpt_degraded = matches!(
                        doc.get("checkpoint_degraded"),
                        Some(tix_cluster::Json::Bool(true))
                    );
                    if ckpt_degraded {
                        degraded_nodes += 1;
                    }
                    out.push_str(&format!(
                        "{shard:<6} {role:<9} {addr:<21} {:<6} {:>6} {:>11} {:>11} {:>5} {:<10} {:<5}\n",
                        "up",
                        field("docs"),
                        field("applied_lsn"),
                        field("durable_lsn"),
                        field("checkpoint_seq"),
                        durability,
                        if ckpt_degraded { "DEGRADED" } else { "ok" }
                    ));
                }
                Ok(r) => {
                    down += 1;
                    out.push_str(&format!(
                        "{shard:<6} {role:<9} {addr:<21} {:<6} (status {})\n",
                        "odd", r.status
                    ));
                }
                Err(_) => {
                    down += 1;
                    out.push_str(&format!("{shard:<6} {role:<9} {addr:<21} {:<6}\n", "down"));
                }
            }
        }
        out.push_str(if down == 0 && degraded_nodes == 0 {
            "cluster: ok\n"
        } else if down == 0 {
            "cluster: degraded (checkpointing failing on some nodes)\n"
        } else {
            "cluster: degraded\n"
        });
        Ok(out)
    }

    /// A node selector from `--node`: `S:primary` or `S:replica:R`.
    pub enum NodeRole {
        Primary,
        Replica(usize),
    }

    pub fn parse_node_spec(spec: &str, shards: usize) -> Result<(usize, NodeRole), String> {
        let mut parts = spec.split(':');
        let shard: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad --node {spec:?} (want S:primary or S:replica:R)"))?;
        if shard >= shards {
            return Err(format!(
                "--node {spec:?}: shard {shard} out of range (0..{shards})"
            ));
        }
        let role = match (parts.next(), parts.next(), parts.next()) {
            (Some("primary"), None, None) => NodeRole::Primary,
            (Some("replica"), Some(r), None) => NodeRole::Replica(
                r.parse()
                    .map_err(|_| format!("bad replica index in --node {spec:?}"))?,
            ),
            _ => {
                return Err(format!(
                    "bad --node {spec:?} (want S:primary or S:replica:R)"
                ))
            }
        };
        Ok((shard, role))
    }

    /// Open a snapshot plus its sidecar index (`<snapshot>.idx`), building
    /// and caching the index on first use. A corrupt or truncated sidecar
    /// is *recovered from* — the index is rebuilt from the store and the
    /// sidecar rewritten (atomically) — never a fatal error: the sidecar
    /// is a cache, and the store snapshot is the source of truth.
    fn database(snapshot: &str) -> Result<Database, String> {
        let store = read_snapshot(snapshot)?;
        let mut db = Database::new();
        *db.store_mut() = store;
        let idx_path = format!("{snapshot}.idx");
        if let Err(err) = db.load_index_from(&idx_path) {
            // A missing sidecar is the normal first run; anything else is
            // damage worth reporting before rebuilding over it.
            let missing = matches!(
                &err,
                tix::PersistError::Io(e) if e.kind() == std::io::ErrorKind::NotFound
            );
            if !missing {
                eprintln!("warning: {idx_path}: {err}; rebuilding index from the snapshot");
            }
            db.build_index();
            if let Err(err) = db.save_index_to(&idx_path) {
                // The database still works from the in-memory index; only
                // the cache for the next run could not be written.
                eprintln!("warning: cannot write {idx_path}: {err}");
            }
        }
        Ok(db)
    }

    fn read_snapshot(path: &str) -> Result<Store, String> {
        tix::persist::load_store(path).map_err(|e| format!("cannot open {path}: {e}"))
    }

    fn write_snapshot(store: &Store, path: &str) -> Result<(), String> {
        tix::persist::save_store(store, path).map_err(|e| format!("cannot write {path}: {e}"))
    }
}

const USAGE: &str = "\
tix — IR-style querying of structured text in an XML database

usage:
  tix load   <snapshot> <file.xml>…       load XML files, write a snapshot
  tix gen    <snapshot> [articles] [seed] generate a synthetic corpus
  tix stats  <snapshot>                   corpus statistics
  tix search <snapshot> <term>… [-k N] [-t THRESHOLD]
  tix phrase <snapshot> <term> <term>…
  tix query  <snapshot> <file|->          run an extended-XQuery query
  tix explain <snapshot> <term>… [-k N] [-t THRESHOLD] [--min-score X]
              [--query <file|->]          show the costed plan choice
  tix ingest <dir> add <name> <file.xml>  WAL-logged insert into a live dir
  tix ingest <dir> remove <name>          WAL-logged removal from a live dir
  tix checkpoint <dir>                    snapshot a live dir, truncate WAL
  tix serve  <snapshot|--live dir> [--addr HOST:PORT] [--workers N]
             [--queue N] [--cache N] [--deadline-ms N]
             [--durability strict|batched[:MS]|flush]
                                          serve queries over HTTP
  tix cluster init   <dir> [--shards N] [--replicas M] [--base-port P]
                                          write a cluster.json topology
  tix cluster serve  <dir> [--node S:primary|S:replica:R] [--coordinator]
                     [--addr HOST:PORT] [--workers N]
                     [--durability strict|batched[:MS]|flush]
                                          serve one node, the coordinator,
                                          or the whole cluster in-process
  tix cluster status <dir>                poll every node's /health

The index sidecar (<snapshot>.idx) is written in the compressed v3 pack
format (TIXPAK) and opened by reference — postings decode lazily, per
term, on first use; v2 (TIXIDX) sidecars still load transparently.
`serve` answers /search, /phrase, /query, /explain, /health and
/metrics with JSON; with --live it serves a durable ingestion directory
and also accepts POST /documents and DELETE /documents/{name}. See
README §Serving and §Live ingestion for the wire format.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(output) => {
            print!("{output}");
            if !output.ends_with('\n') {
                println!();
            }
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<String, String> {
    let command = args.first().map(String::as_str).ok_or("no command")?;
    let rest = &args[1..];
    match command {
        "load" => {
            let snapshot = rest.first().ok_or("load: snapshot path required")?;
            commands::load(snapshot, &rest[1..])
        }
        "gen" => {
            let snapshot = rest.first().ok_or("gen: snapshot path required")?;
            let articles = rest
                .get(1)
                .map(|a| a.parse().map_err(|_| format!("bad article count {a:?}")))
                .transpose()?
                .unwrap_or(200);
            let seed = rest
                .get(2)
                .map(|s| s.parse().map_err(|_| format!("bad seed {s:?}")))
                .transpose()?
                .unwrap_or(11);
            commands::generate(snapshot, articles, seed)
        }
        "stats" => {
            let snapshot = rest.first().ok_or("stats: snapshot path required")?;
            commands::stats(snapshot)
        }
        "search" => {
            let snapshot = rest.first().ok_or("search: snapshot path required")?;
            let mut terms = Vec::new();
            let mut k = 10usize;
            let mut threshold = 0.5f64;
            let mut it = rest[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "-k" => {
                        let v = it.next().ok_or("-k needs a value")?;
                        k = v.parse().map_err(|_| format!("bad -k value {v:?}"))?;
                    }
                    "-t" => {
                        let v = it.next().ok_or("-t needs a value")?;
                        threshold = v.parse().map_err(|_| format!("bad -t value {v:?}"))?;
                    }
                    // Terms are alphanumeric, so a `-` argument is a flag.
                    flag if flag.starts_with('-') => {
                        return Err(format!("search: unknown flag {flag:?}"))
                    }
                    term => terms.push(term.to_string()),
                }
            }
            commands::search(snapshot, &terms, k, threshold)
        }
        "phrase" => {
            let snapshot = rest.first().ok_or("phrase: snapshot path required")?;
            let terms = &rest[1..];
            if let Some(flag) = terms.iter().find(|arg| arg.starts_with('-')) {
                return Err(format!("phrase: unknown flag {flag:?}"));
            }
            commands::phrase(snapshot, terms)
        }
        "query" => {
            let snapshot = rest.first().ok_or("query: snapshot path required")?;
            let source = rest.get(1).ok_or("query: query file (or -) required")?;
            commands::query(snapshot, source)
        }
        "explain" => {
            let snapshot = rest.first().ok_or("explain: snapshot path required")?;
            let mut terms = Vec::new();
            let mut k = 10usize;
            let mut threshold = 0.5f64;
            let mut min_score = None;
            let mut query_source = None;
            let mut it = rest[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "-k" => {
                        let v = it.next().ok_or("-k needs a value")?;
                        k = v.parse().map_err(|_| format!("bad -k value {v:?}"))?;
                    }
                    "-t" => {
                        let v = it.next().ok_or("-t needs a value")?;
                        threshold = v.parse().map_err(|_| format!("bad -t value {v:?}"))?;
                    }
                    "--min-score" => {
                        let v = it.next().ok_or("--min-score needs a value")?;
                        min_score = Some(
                            v.parse::<f64>()
                                .map_err(|_| format!("bad --min-score value {v:?}"))?,
                        );
                    }
                    "--query" => {
                        query_source = Some(it.next().ok_or("--query needs a file (or -)")?);
                    }
                    flag if flag.starts_with('-') => {
                        return Err(format!("explain: unknown flag {flag:?}"))
                    }
                    term => terms.push(term.to_string()),
                }
            }
            commands::explain(
                snapshot,
                &terms,
                k,
                threshold,
                min_score,
                query_source.map(String::as_str),
            )
        }
        "ingest" => {
            let dir = rest.first().ok_or("ingest: directory required")?;
            let action = rest.get(1).ok_or("ingest: action required (add|remove)")?;
            commands::ingest(dir, action, &rest[2..])
        }
        "checkpoint" => {
            let dir = rest.first().ok_or("checkpoint: directory required")?;
            commands::checkpoint(dir)
        }
        "serve" => {
            let (path, live, config) = parse_serve_args(rest)?;
            commands::serve(&path, live, config)
        }
        "cluster" => {
            let sub = rest
                .first()
                .ok_or("cluster: subcommand required (init|serve|status)")?;
            let dir = rest
                .get(1)
                .ok_or_else(|| format!("cluster {sub}: directory required"))?;
            let flags = &rest[2..];
            match sub.as_str() {
                "init" => {
                    let mut shards = 2usize;
                    let mut replicas = 1usize;
                    let mut base_port = 7900u16;
                    let mut it = flags.iter();
                    while let Some(arg) = it.next() {
                        let mut value_of = |flag: &str| -> Result<&String, String> {
                            it.next().ok_or_else(|| format!("{flag} needs a value"))
                        };
                        match arg.as_str() {
                            "--shards" => {
                                let v = value_of("--shards")?;
                                shards =
                                    v.parse().map_err(|_| format!("bad --shards value {v:?}"))?;
                            }
                            "--replicas" => {
                                let v = value_of("--replicas")?;
                                replicas = v
                                    .parse()
                                    .map_err(|_| format!("bad --replicas value {v:?}"))?;
                            }
                            "--base-port" => {
                                let v = value_of("--base-port")?;
                                base_port = v
                                    .parse()
                                    .map_err(|_| format!("bad --base-port value {v:?}"))?;
                            }
                            other => return Err(format!("cluster init: unknown flag {other:?}")),
                        }
                    }
                    commands::cluster_init(dir, shards, replicas, base_port)
                }
                "serve" => {
                    let mut node = None;
                    let mut coordinator = false;
                    let mut addr = None;
                    let mut workers = None;
                    let mut durability = None;
                    let mut it = flags.iter();
                    while let Some(arg) = it.next() {
                        let mut value_of = |flag: &str| -> Result<&String, String> {
                            it.next().ok_or_else(|| format!("{flag} needs a value"))
                        };
                        match arg.as_str() {
                            "--node" => node = Some(value_of("--node")?.clone()),
                            "--coordinator" => coordinator = true,
                            "--addr" => addr = Some(value_of("--addr")?.clone()),
                            "--workers" => {
                                let v = value_of("--workers")?;
                                workers = Some(
                                    v.parse()
                                        .map_err(|_| format!("bad --workers value {v:?}"))?,
                                );
                            }
                            "--durability" => {
                                let v = value_of("--durability")?;
                                durability = Some(
                                    tix_ingest::DurabilityMode::parse(v)
                                        .map_err(|e| format!("bad --durability value: {e}"))?,
                                );
                            }
                            other => return Err(format!("cluster serve: unknown flag {other:?}")),
                        }
                    }
                    if node.is_some() && coordinator {
                        return Err("cluster serve: --node and --coordinator are exclusive".into());
                    }
                    commands::cluster_serve(
                        dir,
                        node.as_deref(),
                        coordinator,
                        addr.as_deref(),
                        workers,
                        durability,
                    )
                }
                "status" => commands::cluster_status(dir),
                other => Err(format!(
                    "cluster: unknown subcommand {other:?} (init|serve|status)"
                )),
            }
        }
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Parse `serve` arguments into a path (snapshot, or ingestion directory
/// with `--live`) and a [`tix_server::ServerConfig`]. Split out from `dispatch` so
/// argument handling is testable without binding a socket.
fn parse_serve_args(rest: &[String]) -> Result<(String, bool, tix_server::ServerConfig), String> {
    let first = rest
        .first()
        .ok_or("serve: snapshot path (or --live <dir>) required")?;
    let (path, live, flags) = if first == "--live" {
        let dir = rest.get(1).ok_or("--live needs a directory")?.clone();
        (dir, true, &rest[2..])
    } else {
        (first.clone(), false, &rest[1..])
    };
    let mut config = tix_server::ServerConfig {
        // A CLI server should be reachable on a stable port by default;
        // tests and the smoke job override with --addr 127.0.0.1:0.
        addr: "127.0.0.1:7878".to_string(),
        ..tix_server::ServerConfig::default()
    };
    let mut it = flags.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--addr" => config.addr = value_of("--addr")?.clone(),
            "--workers" => {
                let v = value_of("--workers")?;
                config.workers = v
                    .parse()
                    .map_err(|_| format!("bad --workers value {v:?}"))?;
            }
            "--queue" => {
                let v = value_of("--queue")?;
                config.queue_capacity =
                    v.parse().map_err(|_| format!("bad --queue value {v:?}"))?;
            }
            "--cache" => {
                let v = value_of("--cache")?;
                config.cache_capacity =
                    v.parse().map_err(|_| format!("bad --cache value {v:?}"))?;
            }
            "--deadline-ms" => {
                let v = value_of("--deadline-ms")?;
                config.default_deadline_ms = v
                    .parse()
                    .map_err(|_| format!("bad --deadline-ms value {v:?}"))?;
            }
            "--debug-endpoints" => config.debug_endpoints = true,
            "--durability" => {
                let v = value_of("--durability")?;
                config.durability = tix_ingest::DurabilityMode::parse(v)
                    .map_err(|e| format!("bad --durability value: {e}"))?;
            }
            other => return Err(format!("serve: unknown flag {other:?}")),
        }
    }
    Ok((path, live, config))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("tix-cli-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn end_to_end_load_stats_search() {
        let xml_path = tmp("sample.xml");
        fs::write(
            &xml_path,
            "<article><sec><p>rust database engines</p></sec><sec><p>other text</p></sec></article>",
        )
        .unwrap();
        let snap = tmp("sample.snap");
        let out = dispatch(&["load".into(), snap.clone(), xml_path]).unwrap();
        assert!(out.contains("loaded 1"), "{out}");

        let stats = dispatch(&["stats".into(), snap.clone()]).unwrap();
        assert!(stats.contains("1 docs"), "{stats}");

        let found = dispatch(&[
            "search".into(),
            snap.clone(),
            "rust".into(),
            "-k".into(),
            "3".into(),
            "-t".into(),
            "0.5".into(),
        ])
        .unwrap();
        assert!(found.contains("results"), "{found}");
        assert!(found.contains("rust database"), "{found}");
    }

    #[test]
    fn gen_and_phrase() {
        let snap = tmp("gen.snap");
        let out = dispatch(&["gen".into(), snap.clone(), "4".into(), "7".into()]).unwrap();
        assert!(out.contains("4 docs"), "{out}");
        // Background bigrams exist somewhere; at minimum the command runs.
        let result = dispatch(&["phrase".into(), snap, "w0".into(), "w1".into()]).unwrap();
        assert!(result.contains("text nodes contain the phrase"), "{result}");
    }

    #[test]
    fn query_from_file() {
        let xml_path = tmp("qdoc.xml");
        fs::write(&xml_path, "<article><p>search engine design</p></article>").unwrap();
        let snap = tmp("qdoc.snap");
        dispatch(&["load".into(), snap.clone(), xml_path]).unwrap();
        let query_path = tmp("q.tixql");
        fs::write(
            &query_path,
            r#"
            For $a in document("qdoc.xml")//article/descendant-or-self::*
            Score $a using ScoreFoo($a, {"search engine"}, {})
            Sortby(score)
            Threshold $a/@score > 0.5
            "#,
        )
        .unwrap();
        let out = dispatch(&["query".into(), snap, query_path]).unwrap();
        assert!(out.contains("<result><score>"), "{out}");
    }

    #[test]
    fn explain_terms_and_query_modes() {
        let xml_path = tmp("explain.xml");
        fs::write(
            &xml_path,
            "<article><sec><p>rust planner costs</p></sec><sec><p>rust again</p></sec></article>",
        )
        .unwrap();
        let snap = tmp("explain.snap");
        dispatch(&["load".into(), snap.clone(), xml_path]).unwrap();

        let out = dispatch(&[
            "explain".into(),
            snap.clone(),
            "rust".into(),
            "planner".into(),
            "-k".into(),
            "3".into(),
            "--min-score".into(),
            "1.5".into(),
        ])
        .unwrap();
        for needle in [
            "explain: term-search",
            "statistics:",
            "candidates:",
            "chosen:",
            "threshold: score > 1.5",
        ] {
            assert!(out.contains(needle), "missing {needle:?} in {out}");
        }

        let query_path = tmp("explain.tixql");
        fs::write(
            &query_path,
            r#"
            For $a in document("explain.xml")//article/descendant-or-self::*
            Score $a using ScoreFoo($a, {"rust"}, {})
            Sortby(score)
            Threshold $a/@score > 0.5 stop after 2
            "#,
        )
        .unwrap();
        let out =
            dispatch(&["explain".into(), snap.clone(), "--query".into(), query_path]).unwrap();
        assert!(out.contains("chosen:"), "{out}");
        assert!(out.contains("k=2"), "{out}");

        // Errors: no terms, bad flag values, unparseable query text.
        assert!(dispatch(&["explain".into(), snap.clone()]).is_err());
        assert!(dispatch(&[
            "explain".into(),
            snap.clone(),
            "rust".into(),
            "--min-score".into(),
            "high".into(),
        ])
        .is_err());
        let bad_query = tmp("explain-bad.tixql");
        fs::write(&bad_query, "For broken $").unwrap();
        let err = dispatch(&["explain".into(), snap, "--query".into(), bad_query]).unwrap_err();
        assert!(err.contains("cannot explain query"), "{err}");
    }

    #[test]
    fn search_and_phrase_reject_unknown_flags() {
        let xml_path = tmp("flags.xml");
        fs::write(&xml_path, "<a><p>snap rust</p></a>").unwrap();
        let snap = tmp("flags.snap");
        dispatch(&["load".into(), snap.clone(), xml_path]).unwrap();
        for flags in [&["--threads", "2"][..], &["--bogus"]] {
            for command in ["search", "phrase", "explain"] {
                let mut args: Vec<String> = vec![command.into(), snap.clone()];
                args.extend(["snap", "rust"].iter().chain(flags).map(|s| s.to_string()));
                let err = dispatch(&args).unwrap_err();
                assert_eq!(err, format!("{command}: unknown flag {:?}", flags[0]));
            }
        }
    }

    #[test]
    fn corrupt_index_sidecar_recovers_and_repairs() {
        let xml_path = tmp("sidecar.xml");
        fs::write(
            &xml_path,
            "<article><p>resilient rust database</p></article>",
        )
        .unwrap();
        let snap = tmp("sidecar.snap");
        dispatch(&["load".into(), snap.clone(), xml_path]).unwrap();
        let search = || dispatch(&["search".into(), snap.clone(), "rust".into()]);
        let expected = search().unwrap();
        let idx_path = format!("{snap}.idx");
        assert!(
            fs::metadata(&idx_path).is_ok(),
            "first search caches the sidecar"
        );

        // Bit-flipped, truncated, and garbage sidecars must all be
        // recovered from — same results, not an error — and the sidecar
        // must come back valid.
        let good = fs::read(&idx_path).unwrap();
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x04;
        for bad in [flipped, good[..good.len() / 3].to_vec(), b"junk".to_vec()] {
            fs::write(&idx_path, &bad).unwrap();
            assert_eq!(search().unwrap(), expected);
            assert_eq!(
                fs::read(&idx_path).unwrap(),
                good,
                "sidecar repaired to a byte-identical snapshot"
            );
        }
    }

    #[test]
    fn unwritable_sidecar_is_not_fatal() {
        // Point the snapshot into a directory that exists but where the
        // sidecar path is itself a directory, so the rewrite always fails;
        // the search must still answer from the in-memory index.
        let xml_path = tmp("nosidecar.xml");
        fs::write(&xml_path, "<article><p>memory only rust</p></article>").unwrap();
        let snap = tmp("nosidecar.snap");
        dispatch(&["load".into(), snap.clone(), xml_path]).unwrap();
        fs::create_dir_all(format!("{snap}.idx")).unwrap();
        let out = dispatch(&["search".into(), snap, "rust".into()]).unwrap();
        assert!(out.contains("results"), "{out}");
    }

    #[test]
    fn ingest_add_remove_checkpoint_cycle() {
        let dir = tmp("live-cycle");
        // A stale directory from a previous run would change doc counts.
        let _ = fs::remove_dir_all(&dir);
        let xml_path = tmp("live-doc.xml");
        fs::write(&xml_path, "<article><p>ingested rust text</p></article>").unwrap();

        let out = dispatch(&[
            "ingest".into(),
            dir.clone(),
            "add".into(),
            "live.xml".into(),
            xml_path.clone(),
        ])
        .unwrap();
        assert!(out.contains("added live.xml as doc 0 at lsn 1"), "{out}");
        assert!(out.contains("1 docs"), "{out}");

        // The mutation is WAL-only so far: a reopen (fresh process in real
        // use) replays it, and a duplicate insert is a typed error.
        let dup = dispatch(&[
            "ingest".into(),
            dir.clone(),
            "add".into(),
            "live.xml".into(),
            xml_path,
        ])
        .unwrap_err();
        assert!(dup.contains("already loaded"), "{dup}");

        let ckpt = dispatch(&["checkpoint".into(), dir.clone()]).unwrap();
        assert!(ckpt.contains("seq 1 at lsn 1"), "{ckpt}");
        assert!(
            fs::metadata(std::path::Path::new(&dir).join("store.1.tixsnap")).is_ok(),
            "checkpoint wrote a store snapshot"
        );

        let out = dispatch(&[
            "ingest".into(),
            dir.clone(),
            "remove".into(),
            "live.xml".into(),
        ])
        .unwrap();
        assert!(out.contains("removed live.xml at lsn 2"), "{out}");
        assert!(out.contains("0 docs"), "{out}");

        let gone =
            dispatch(&["ingest".into(), dir, "remove".into(), "live.xml".into()]).unwrap_err();
        assert!(gone.contains("no document named"), "{gone}");
    }

    #[test]
    fn ingest_arg_errors() {
        let dir = tmp("live-errors");
        let _ = fs::remove_dir_all(&dir);
        assert!(dispatch(&["ingest".into()]).is_err());
        assert!(dispatch(&["ingest".into(), dir.clone()]).is_err());
        let unknown = dispatch(&["ingest".into(), dir.clone(), "upsert".into()]).unwrap_err();
        assert!(unknown.contains("unknown action"), "{unknown}");
        assert!(dispatch(&["ingest".into(), dir.clone(), "add".into(), "a.xml".into()]).is_err());
        let unreadable = dispatch(&[
            "ingest".into(),
            dir,
            "add".into(),
            "a.xml".into(),
            "/nonexistent/a.xml".into(),
        ])
        .unwrap_err();
        assert!(unreadable.contains("cannot read"), "{unreadable}");
        assert!(dispatch(&["checkpoint".into()]).is_err());
    }

    #[test]
    fn errors_reported() {
        assert!(dispatch(&[]).is_err());
        assert!(dispatch(&["frobnicate".into()]).is_err());
        assert!(dispatch(&["stats".into(), "/nonexistent/x.snap".into()]).is_err());
        assert!(dispatch(&["search".into(), "/nonexistent/x.snap".into(), "t".into()]).is_err());
    }

    #[test]
    fn help_prints_usage() {
        let out = dispatch(&["help".into()]).unwrap();
        assert!(out.contains("usage:"));
        assert!(out.contains("serve"));
        assert!(out.contains("cluster init"));
    }

    #[test]
    fn cluster_init_writes_a_loadable_topology() {
        let dir = tmp("cluster-init");
        let _ = fs::remove_dir_all(&dir);
        let out = dispatch(&[
            "cluster".into(),
            "init".into(),
            dir.clone(),
            "--shards".into(),
            "3".into(),
            "--replicas".into(),
            "2".into(),
            "--base-port".into(),
            "7600".into(),
        ])
        .unwrap();
        assert!(out.contains("3 shard(s) × 2 replica(s)"), "{out}");
        let topology = tix_cluster::Topology::load(&dir).unwrap();
        assert_eq!(topology.shard_count(), 3);
        assert_eq!(topology.shards[0].primary, "127.0.0.1:7600");
        assert_eq!(
            topology.shards[0].replicas,
            ["127.0.0.1:7601", "127.0.0.1:7602"]
        );
        assert_eq!(topology.shards[2].primary, "127.0.0.1:7606");
        // Addresses never collide across the whole map.
        let all: std::collections::HashSet<&str> =
            topology.all_nodes().iter().map(|&(_, a, _)| a).collect();
        assert_eq!(all.len(), 9);
    }

    #[test]
    fn cluster_status_reports_down_nodes_without_failing() {
        let dir = tmp("cluster-status");
        let _ = fs::remove_dir_all(&dir);
        dispatch(&[
            "cluster".into(),
            "init".into(),
            dir.clone(),
            "--shards".into(),
            "1".into(),
            "--replicas".into(),
            "1".into(),
            "--base-port".into(),
            // A port nothing listens on in the test environment.
            "1".into(),
        ])
        .unwrap();
        let out = dispatch(&["cluster".into(), "status".into(), dir]).unwrap();
        assert!(out.contains("down"), "{out}");
        assert!(out.contains("cluster: degraded"), "{out}");
    }

    #[test]
    fn cluster_arg_errors() {
        assert!(dispatch(&["cluster".into()]).is_err());
        assert!(dispatch(&["cluster".into(), "frobnicate".into(), "d".into()]).is_err());
        assert!(dispatch(&["cluster".into(), "init".into()]).is_err());
        let err = dispatch(&[
            "cluster".into(),
            "init".into(),
            "d".into(),
            "--shards".into(),
            "many".into(),
        ])
        .unwrap_err();
        assert!(err.contains("bad --shards"), "{err}");
        // serve on a directory with no topology fails cleanly.
        let missing = tmp("cluster-missing");
        let _ = fs::remove_dir_all(&missing);
        assert!(dispatch(&["cluster".into(), "serve".into(), missing.clone()]).is_err());
        assert!(dispatch(&["cluster".into(), "status".into(), missing]).is_err());
        // --node and --coordinator are exclusive; node specs validate.
        let dir = tmp("cluster-spec");
        let _ = fs::remove_dir_all(&dir);
        dispatch(&["cluster".into(), "init".into(), dir.clone()]).unwrap();
        let err = dispatch(&[
            "cluster".into(),
            "serve".into(),
            dir.clone(),
            "--node".into(),
            "0:primary".into(),
            "--coordinator".into(),
        ])
        .unwrap_err();
        assert!(err.contains("exclusive"), "{err}");
        for bad in ["x:primary", "0:boss", "9:primary", "0:replica:x"] {
            let err = dispatch(&[
                "cluster".into(),
                "serve".into(),
                dir.clone(),
                "--node".into(),
                bad.into(),
            ])
            .unwrap_err();
            assert!(
                err.contains("--node") || err.contains("out of range"),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn serve_args_parse_into_config() {
        let args: Vec<String> = [
            "snap.bin",
            "--addr",
            "0.0.0.0:9000",
            "--workers",
            "8",
            "--queue",
            "32",
            "--cache",
            "100",
            "--deadline-ms",
            "250",
            "--debug-endpoints",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (snapshot, live, config) = parse_serve_args(&args).unwrap();
        assert_eq!(snapshot, "snap.bin");
        assert!(!live);
        assert_eq!(config.addr, "0.0.0.0:9000");
        assert_eq!(config.workers, 8);
        assert_eq!(config.queue_capacity, 32);
        assert_eq!(config.cache_capacity, 100);
        assert_eq!(config.default_deadline_ms, 250);
        assert!(config.debug_endpoints);
    }

    #[test]
    fn serve_live_flag_selects_ingest_directory() {
        let args: Vec<String> = ["--live", "/data/live", "--addr", "127.0.0.1:0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (path, live, config) = parse_serve_args(&args).unwrap();
        assert_eq!(path, "/data/live");
        assert!(live);
        assert_eq!(config.addr, "127.0.0.1:0");
        let missing: Vec<String> = vec!["--live".into()];
        assert!(parse_serve_args(&missing)
            .unwrap_err()
            .contains("needs a directory"));
    }

    #[test]
    fn serve_arg_errors() {
        assert!(parse_serve_args(&[]).is_err());
        let bad = |args: &[&str]| {
            let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse_serve_args(&owned).unwrap_err()
        };
        assert!(bad(&["s", "--workers"]).contains("needs a value"));
        assert!(bad(&["s", "--workers", "many"]).contains("bad --workers"));
        assert!(bad(&["s", "--deadline-ms", "-1"]).contains("bad --deadline-ms"));
        assert!(bad(&["s", "--frobnicate"]).contains("unknown flag"));
        // Serving a missing snapshot fails cleanly through dispatch.
        assert!(dispatch(&["serve".into(), "/nonexistent/x.snap".into()]).is_err());
    }
}
