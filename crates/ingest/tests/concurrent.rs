//! Differential property tests for the **concurrent** write path: N
//! writer threads staging under a shared write lock and committing
//! through group commit, across every durability mode, with a
//! checkpointer running concurrently and with crashes cut at arbitrary
//! WAL byte offsets.
//!
//! Two invariants must hold everywhere:
//!
//! 1. **index byte-identity** — the incrementally maintained index
//!    serializes byte-identically to a from-scratch rebuild of the same
//!    store, no matter how writers interleaved;
//! 2. **prefix durability** — recovery from a WAL cut at *any* byte
//!    yields exactly the committed prefix the scanner reports, in LSN
//!    order, never a torn or reordered state.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::Duration;

use proptest::prelude::*;
use tix::index::InvertedIndex;
use tix::Database;
use tix_ingest::{scan_bytes, DurabilityMode, Ingest, IngestOptions, WalRecord};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(label: &str) -> PathBuf {
    let id = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join("tix-ingest-concurrent")
        .join(format!("{label}-{id}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn mode_of(selector: u8) -> DurabilityMode {
    match selector % 3 {
        0 => DurabilityMode::Strict,
        1 => DurabilityMode::Batched {
            max_delay: Duration::from_millis(2),
        },
        _ => DurabilityMode::Flush,
    }
}

fn thread_count(selector: u8) -> usize {
    [2usize, 4, 8][selector as usize % 3]
}

const WORDS: [&str; 4] = ["alpha beta", "gamma", "delta alpha", "epsilon"];

fn doc_xml(thread: usize, i: usize) -> String {
    format!("<d><p>{}</p></d>", WORDS[(thread + i * 3) % WORDS.len()])
}

fn index_bytes(index: &InvertedIndex) -> Vec<u8> {
    let mut bytes = Vec::new();
    index.save_snapshot(&mut bytes).unwrap();
    bytes
}

/// v2-snapshot bytes of the database's index, whichever representation it
/// holds: a recovered v3 pack must materialize to an index byte-identical
/// to a rebuild, which is exactly what these tests assert.
fn db_index_bytes(db: &Database) -> Vec<u8> {
    if let Some(mem) = db.mem_index() {
        index_bytes(mem)
    } else {
        let pack = db.pack_index().expect("index present");
        index_bytes(&pack.to_inverted().expect("sealed pack decodes"))
    }
}

fn doc_names(db: &Database) -> Vec<String> {
    db.store()
        .doc_ids()
        .map(|id| db.store().doc(id).name().to_string())
        .collect()
}

/// Run `threads × ops` concurrent inserts (unique names) through one
/// engine, staging under a shared `RwLock<Database>` write lock and
/// committing with no lock held. Returns the database and the highest
/// durable LSN any ack reported.
fn concurrent_inserts(ingest: &Ingest, db: &RwLock<Database>, threads: usize, ops: usize) -> u64 {
    let max_acked_durable = Mutex::new(0u64);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let max_acked_durable = &max_acked_durable;
            scope.spawn(move || {
                for i in 0..ops {
                    let name = format!("t{t}-{i}.xml");
                    let xml = doc_xml(t, i);
                    let staged = {
                        let mut db = db.write().unwrap();
                        ingest.stage_insert(&mut db, &name, &xml)
                    };
                    let (_, ticket) = staged.expect("stage");
                    let ack = ingest.commit(ticket).expect("commit");
                    let mut max = max_acked_durable.lock().unwrap();
                    *max = (*max).max(ack.durable_lsn);
                }
            });
        }
    });
    let max = *max_acked_durable.lock().unwrap();
    max
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Writers race each other AND a checkpointer (COW freeze + snapshot
    /// IO run mid-stream). Afterwards the maintained index must equal a
    /// rebuild byte-for-byte, a flush must make everything durable, and
    /// a reopen must land on the identical state.
    #[test]
    fn concurrent_writers_keep_index_byte_identical(
        mode_sel in 0u8..3,
        threads_sel in 0u8..3,
        ops in 1u8..6,
    ) {
        let dir = fresh_dir("mix");
        let threads = thread_count(threads_sel);
        let ops = ops as usize;
        let options = IngestOptions {
            durability: mode_of(mode_sel),
            ..IngestOptions::default()
        };
        let (ingest, db) = Ingest::open(&dir, options).unwrap();
        let db = RwLock::new(db);
        std::thread::scope(|scope| {
            let ingest = &ingest;
            let db = &db;
            scope.spawn(move || {
                concurrent_inserts(ingest, db, threads, ops);
            });
            // The checkpointer: begin (quiesce + freeze) under the write
            // lock, complete (snapshot IO) with the lock released while
            // writers keep going.
            scope.spawn(move || {
                for _ in 0..2 {
                    let prepared = {
                        let mut db = db.write().unwrap();
                        ingest.begin_checkpoint(&mut db).expect("begin")
                    };
                    ingest.complete_checkpoint(prepared).expect("complete");
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        });
        let durable = ingest.flush().unwrap();
        prop_assert_eq!(durable, ingest.last_lsn(), "flush must catch the log up");

        let dbr = db.read().unwrap();
        prop_assert_eq!(dbr.store().doc_count(), threads * ops);
        let maintained = db_index_bytes(&dbr);
        prop_assert_eq!(
            &maintained,
            &index_bytes(&InvertedIndex::build(dbr.store())),
            "maintained index diverged from rebuild"
        );
        let names = doc_names(&dbr);
        drop(dbr);
        drop(db);
        drop(ingest);

        let (_re, re_db) = Ingest::open(&dir, IngestOptions::default()).unwrap();
        prop_assert_eq!(doc_names(&re_db), names, "reopen changed the store");
        prop_assert_eq!(
            db_index_bytes(&re_db),
            maintained,
            "reopen changed the index bytes"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Cut the WAL a concurrent run produced at an arbitrary byte (the
    /// crash point) and recover: the database must come back as exactly
    /// the committed prefix the scanner reports — same names, same
    /// order — with a byte-identical index. At a full-length cut under
    /// `Strict`, every acknowledged-durable mutation must have survived.
    #[test]
    fn crash_at_any_cut_recovers_the_scanned_prefix(
        mode_sel in 0u8..3,
        threads_sel in 0u8..3,
        ops in 1u8..5,
        cut_frac in 0u8..=255,
    ) {
        let dir = fresh_dir("crash");
        let threads = thread_count(threads_sel);
        let ops = ops as usize;
        let options = IngestOptions {
            durability: mode_of(mode_sel),
            ..IngestOptions::default()
        };
        let (ingest, db) = Ingest::open(&dir, options).unwrap();
        let db = RwLock::new(db);
        let max_acked_durable = concurrent_inserts(&ingest, &db, threads, ops);

        // The crash: whatever bytes the log holds right now, cut at an
        // arbitrary offset. (No flush first — under Batched/Flush the
        // tail may be unsynced, and losing it is exactly what those
        // modes permit.)
        let bytes = std::fs::read(dir.join("wal.log")).unwrap();
        let cut = (bytes.len() * cut_frac as usize) / 255;
        let trial = fresh_dir("crash-trial");
        std::fs::create_dir_all(&trial).unwrap();
        std::fs::write(trial.join("wal.log"), &bytes[..cut]).unwrap();

        // What prefix durability promises for this cut.
        let expected: Vec<String> = scan_bytes(&bytes[..cut])
            .map(|scan| {
                scan.entries
                    .iter()
                    .map(|e| match &e.record {
                        WalRecord::AddDocument { name, .. } => name.clone(),
                        WalRecord::RemoveDocument { name } => name.clone(),
                    })
                    .collect()
            })
            .unwrap_or_default();

        let (re, re_db) = Ingest::open(&trial, IngestOptions::default()).unwrap();
        prop_assert_eq!(
            doc_names(&re_db),
            expected.clone(),
            "recovered docs are not the scanned prefix (cut {} of {})",
            cut,
            bytes.len()
        );
        prop_assert_eq!(re.last_lsn(), expected.len() as u64);
        prop_assert_eq!(
            db_index_bytes(&re_db),
            index_bytes(&InvertedIndex::build(re_db.store())),
            "recovered index diverged from rebuild"
        );

        if cut == bytes.len() && matches!(mode_of(mode_sel), DurabilityMode::Strict) {
            prop_assert!(
                re.last_lsn() >= max_acked_durable,
                "a Strict-acked mutation vanished: recovered {} < acked-durable {}",
                re.last_lsn(),
                max_acked_durable
            );
        }
    }
}
