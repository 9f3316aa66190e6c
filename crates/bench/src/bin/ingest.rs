//! Live-ingestion benchmark for `tix-ingest`.
//!
//! Measures the four costs that matter for the write path, over a
//! generated corpus in a scratch ingestion directory:
//!
//! 1. **Ingest throughput** — WAL-append + fsync + parse + incremental
//!    index maintenance per document (docs/s, MB/s, per-doc latency);
//! 2. **Incremental maintenance vs rebuild** — time to maintain the index
//!    through one insert vs a from-scratch `InvertedIndex::build` at the
//!    same corpus size (the ratio is the point of incrementality);
//! 3. **Checkpoint** — snapshotting store+index and truncating the WAL;
//! 4. **Recovery** — replaying a WAL of N records over the last
//!    checkpoint at startup (records/s).
//!
//! Writes `results/BENCH_ingest.json`. Environment:
//! * `TIX_INGEST_ARTICLES` — corpus size in articles (default 200);
//! * `TIX_INGEST_SEED`     — corpus seed (default 11).
//!
//! Numbers from CI come from a single shared core with fsyncs hitting
//! whatever the container's filesystem provides — treat absolute figures
//! as indicative and the ratios (incremental vs rebuild, replay vs
//! ingest) as the result.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::RwLock;
use std::time::{Duration, Instant};

use tix_corpus::{CorpusSpec, Generator, PlantSpec};
use tix_index::InvertedIndex;
use tix_ingest::{CommitStats, DurabilityMode, Ingest, IngestOptions};
use tix_server::metrics::LatencyHistogram;

fn env_parse<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let articles: usize = env_parse("TIX_INGEST_ARTICLES", 200).max(2);
    let seed: u64 = env_parse("TIX_INGEST_SEED", 11);

    eprintln!("generating {articles} articles (seed {seed}) …");
    let spec = CorpusSpec {
        articles,
        seed,
        ..CorpusSpec::small()
    };
    let generator = Generator::new(spec, PlantSpec::default()).expect("valid corpus spec");
    let docs: Vec<(String, String)> = (0..generator.document_count())
        .map(|i| generator.document(i))
        .collect();
    let xml_bytes: usize = docs.iter().map(|(_, xml)| xml.len()).sum();

    let dir = std::env::temp_dir().join("tix-bench-ingest");
    let _ = std::fs::remove_dir_all(&dir);

    // Phase 1: ingest the whole corpus, one WAL-committed insert at a time.
    let (ingest, mut db) = Ingest::open(&dir, IngestOptions::default()).expect("open dir");
    let insert_latency = LatencyHistogram::default();
    let ingest_started = Instant::now();
    for (name, xml) in &docs {
        let begin = Instant::now();
        ingest
            .insert_document(&mut db, name, xml)
            .expect("insert succeeds");
        insert_latency.record(begin.elapsed());
    }
    let ingest_wall = ingest_started.elapsed();
    let wal_len = ingest.wal_len();

    // Phase 2: maintain-one-insert vs from-scratch rebuild at this size.
    // Remove + re-insert the last document so the maintained path runs at
    // full corpus size, then time a cold rebuild over the same store.
    let (last_name, last_xml) = docs.last().expect("at least one doc").clone();
    ingest
        .remove_document(&mut db, &last_name)
        .expect("remove succeeds");
    let begin = Instant::now();
    ingest
        .insert_document(&mut db, &last_name, &last_xml)
        .expect("re-insert succeeds");
    let incremental = begin.elapsed();
    let begin = Instant::now();
    let rebuilt = InvertedIndex::build(db.store());
    let rebuild = begin.elapsed();
    assert_eq!(rebuilt.term_count(), db.index().term_count());

    // Phase 3: checkpoint (snapshot + meta commit + WAL truncation).
    let begin = Instant::now();
    ingest.checkpoint(&mut db).expect("checkpoint succeeds");
    let checkpoint = begin.elapsed();
    assert_eq!(
        ingest.wal_len(),
        tix_ingest::WAL_HEADER_LEN,
        "checkpoint truncates the WAL to its header"
    );

    // Phase 4: replay. Rebuild a WAL tail of half the corpus by removing
    // and re-inserting, then reopen and time startup recovery.
    let replayed: Vec<&(String, String)> = docs.iter().take(articles / 2).collect();
    for (name, _) in &replayed {
        ingest
            .remove_document(&mut db, name)
            .expect("remove succeeds");
    }
    for (name, xml) in &replayed {
        ingest
            .insert_document(&mut db, name, xml)
            .expect("re-insert succeeds");
    }
    let replay_records = 2 * replayed.len();
    drop((ingest, db));
    let begin = Instant::now();
    let (_ingest, db) = Ingest::open(&dir, IngestOptions::default()).expect("recovery succeeds");
    let recovery = begin.elapsed();
    assert_eq!(
        db.store().doc_count(),
        articles,
        "recovery restores all docs"
    );

    // Phase 5: durability modes under concurrency. A Strict single-writer
    // baseline (one fsync per document, no batching opportunity), then
    // Strict/Batched/Flush with concurrent clients staging under a shared
    // write lock and riding group commit. On a single shared core the
    // clients interleave rather than truly overlap, but commits still
    // queue behind one leader, so the fsync amortization is real.
    let clients: usize = env_parse("TIX_INGEST_CLIENTS", 8).max(2);
    let strict_1 = durability_run(&docs, DurabilityMode::Strict, 1);
    let strict_n = durability_run(&docs, DurabilityMode::Strict, clients);
    let batched_n = durability_run(
        &docs,
        DurabilityMode::Batched {
            max_delay: Duration::from_millis(5),
        },
        clients,
    );
    let flush_n = durability_run(&docs, DurabilityMode::Flush, clients);
    let mode_runs = [
        ("strict", 1usize, &strict_1),
        ("strict", clients, &strict_n),
        ("batched:5", clients, &batched_n),
        ("flush", clients, &flush_n),
    ];

    let docs_per_s = articles as f64 / ingest_wall.as_secs_f64().max(1e-9);
    let mb_per_s = xml_bytes as f64 / 1e6 / ingest_wall.as_secs_f64().max(1e-9);
    let speedup = rebuild.as_secs_f64() / incremental.as_secs_f64().max(1e-9);
    let replay_per_s = replay_records as f64 / recovery.as_secs_f64().max(1e-9);

    println!("\n## Ingest benchmark ({articles} articles, {xml_bytes} XML bytes)\n");
    println!("| metric | value |");
    println!("|---|---:|");
    println!("| ingest wall (s) | {:.3} |", ingest_wall.as_secs_f64());
    println!("| ingest (docs/s) | {docs_per_s:.1} |");
    println!("| ingest (MB/s) | {mb_per_s:.2} |");
    println!(
        "| insert p50/p95/p99 (µs) | {}/{}/{} |",
        insert_latency.quantile_micros(0.50),
        insert_latency.quantile_micros(0.95),
        insert_latency.quantile_micros(0.99)
    );
    println!("| WAL after ingest (bytes) | {wal_len} |");
    println!("| incremental insert (µs) | {} |", us(incremental));
    println!("| full rebuild (µs) | {} |", us(rebuild));
    println!("| rebuild / incremental | {speedup:.1}× |");
    println!("| checkpoint (µs) | {} |", us(checkpoint));
    println!(
        "| recovery of {replay_records} records (µs) | {} |",
        us(recovery)
    );
    println!("| replay (records/s) | {replay_per_s:.1} |");

    println!("\n## Durability modes ({articles} docs, group commit)\n");
    println!("| mode | clients | docs/s | fsyncs | fsyncs saved | max batch | stall (µs) |");
    println!("|---|---:|---:|---:|---:|---:|---:|");
    for (mode, n, run) in &mode_runs {
        println!(
            "| {mode} | {n} | {:.1} | {} | {} | {} | {} |",
            run.docs_per_s(articles),
            run.stats.fsyncs,
            run.stats.fsyncs_saved(),
            run.stats.max_batch_frames,
            run.stats.checkpoint_stall_us
        );
    }
    let group_commit_speedup =
        batched_n.docs_per_s(articles) / strict_1.docs_per_s(articles).max(1e-9);
    println!("\ngroup commit (batched, {clients} clients) vs strict single-writer: {group_commit_speedup:.1}×");

    let mut json = String::from("{\n");
    writeln!(json, "  \"experiment\": \"ingest\",").unwrap();
    writeln!(
        json,
        "  \"note\": \"single shared CI core, container fsyncs: ratios are the result, absolute figures are indicative\","
    )
    .unwrap();
    writeln!(json, "  \"articles\": {articles},").unwrap();
    writeln!(json, "  \"xml_bytes\": {xml_bytes},").unwrap();
    writeln!(
        json,
        "  \"ingest_wall_s\": {:.4},",
        ingest_wall.as_secs_f64()
    )
    .unwrap();
    writeln!(json, "  \"ingest_docs_per_s\": {docs_per_s:.2},").unwrap();
    writeln!(json, "  \"ingest_mb_per_s\": {mb_per_s:.3},").unwrap();
    writeln!(
        json,
        "  \"insert_latency_us\": {{ \"p50\": {}, \"p95\": {}, \"p99\": {}, \"mean\": {} }},",
        insert_latency.quantile_micros(0.50),
        insert_latency.quantile_micros(0.95),
        insert_latency.quantile_micros(0.99),
        insert_latency.mean_micros()
    )
    .unwrap();
    writeln!(json, "  \"wal_bytes_after_ingest\": {wal_len},").unwrap();
    writeln!(json, "  \"incremental_insert_us\": {},", us(incremental)).unwrap();
    writeln!(json, "  \"full_rebuild_us\": {},", us(rebuild)).unwrap();
    writeln!(json, "  \"rebuild_over_incremental\": {speedup:.2},").unwrap();
    writeln!(json, "  \"checkpoint_us\": {},", us(checkpoint)).unwrap();
    writeln!(json, "  \"recovery_records\": {replay_records},").unwrap();
    writeln!(json, "  \"recovery_us\": {},", us(recovery)).unwrap();
    writeln!(json, "  \"replay_records_per_s\": {replay_per_s:.2},").unwrap();
    writeln!(json, "  \"durability\": {{").unwrap();
    writeln!(json, "    \"clients\": {clients},").unwrap();
    writeln!(
        json,
        "    \"group_commit_speedup_vs_strict_single\": {group_commit_speedup:.2},"
    )
    .unwrap();
    writeln!(json, "    \"runs\": [").unwrap();
    for (i, (mode, n, run)) in mode_runs.iter().enumerate() {
        let comma = if i + 1 < mode_runs.len() { "," } else { "" };
        writeln!(
            json,
            "      {{ \"mode\": \"{mode}\", \"clients\": {n}, \"wall_s\": {:.4}, \"docs_per_s\": {:.2}, \"batches\": {}, \"frames\": {}, \"fsyncs\": {}, \"fsyncs_saved\": {}, \"max_batch_frames\": {}, \"checkpoint_stall_us\": {} }}{comma}",
            run.wall.as_secs_f64(),
            run.docs_per_s(articles),
            run.stats.batches,
            run.stats.frames,
            run.stats.fsyncs,
            run.stats.fsyncs_saved(),
            run.stats.max_batch_frames,
            run.stats.checkpoint_stall_us
        )
        .unwrap();
    }
    writeln!(json, "    ]").unwrap();
    writeln!(json, "  }}").unwrap();
    json.push_str("}\n");
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_ingest.json", &json).expect("write BENCH_ingest.json");
    eprintln!("wrote results/BENCH_ingest.json");

    let _ = std::fs::remove_dir_all(&dir);
}

fn us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// One durability-mode ingest run: wall time and commit-pipeline stats.
struct ModeRun {
    wall: Duration,
    stats: CommitStats,
}

impl ModeRun {
    fn docs_per_s(&self, docs: usize) -> f64 {
        docs as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Ingest the whole corpus into a fresh directory under `mode`. With one
/// client this is the classic apply+commit loop; with several, clients
/// stage under a shared write lock and commit with no lock held, so
/// concurrent commits coalesce into one leader's batch. A final `flush`
/// is included in the wall time so every mode pays for full durability
/// before the clock stops.
fn durability_run(docs: &[(String, String)], mode: DurabilityMode, clients: usize) -> ModeRun {
    let dir = std::env::temp_dir().join(format!(
        "tix-bench-ingest-{}-{clients}",
        mode.to_string().replace(':', "-")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let options = IngestOptions {
        durability: mode,
        ..IngestOptions::default()
    };
    let (ingest, db) = Ingest::open(&dir, options).expect("open mode dir");
    let started = Instant::now();
    if clients <= 1 {
        let mut db = db;
        for (name, xml) in docs {
            ingest
                .insert_document(&mut db, name, xml)
                .expect("insert succeeds");
        }
        ingest.flush().expect("flush succeeds");
    } else {
        let db = RwLock::new(db);
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..clients {
                scope.spawn(|| {
                    while let Some((name, xml)) = docs.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let staged = {
                            let mut db = db.write().expect("db lock");
                            ingest.stage_insert(&mut db, name, xml)
                        };
                        let (_, ticket) = staged.expect("stage succeeds");
                        ingest.commit(ticket).expect("commit succeeds");
                    }
                });
            }
        });
        ingest.flush().expect("flush succeeds");
    }
    let wall = started.elapsed();
    let stats = ingest.commit_stats();
    drop(ingest);
    let _ = std::fs::remove_dir_all(&dir);
    ModeRun { wall, stats }
}
