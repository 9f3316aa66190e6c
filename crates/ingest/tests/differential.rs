//! Differential property test for incremental index maintenance: after
//! ANY randomized interleaving of inserts, deletes, and checkpoints, the
//! maintained index must serialize byte-identically to a from-scratch
//! `InvertedIndex::build` over the same store, and a reopen (crash +
//! replay) must land on the same bytes again.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use tix::index::InvertedIndex;
use tix::Database;
use tix_ingest::{Ingest, IngestOptions};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir() -> PathBuf {
    let id = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join("tix-ingest-diff")
        .join(format!("case-{id}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const NAMES: [&str; 4] = ["a.xml", "b.xml", "c.xml", "d.xml"];
const DOCS: [&str; 4] = [
    "<d><s><p>alpha beta gamma</p></s></d>",
    "<d><p>beta beta delta</p><p>alpha</p></d>",
    "<d><s><p>gamma</p><p>epsilon alpha</p></s></d>",
    "<d><p>zeta</p></d>",
];

/// One step of the workload: kind selects insert / remove / checkpoint,
/// the indices pick a name and a document body.
type Op = (u8, u8, u8);

fn index_bytes(index: &InvertedIndex) -> Vec<u8> {
    let mut bytes = Vec::new();
    index.save_snapshot(&mut bytes).unwrap();
    bytes
}

fn rebuilt_bytes(db: &Database) -> Vec<u8> {
    index_bytes(&InvertedIndex::build(db.store()))
}

/// v2-snapshot bytes of the database's index, whichever representation it
/// holds: an index recovered from a v3 pack checkpoint must materialize
/// byte-identically to a rebuild.
fn db_index_bytes(db: &Database) -> Vec<u8> {
    if let Some(mem) = db.mem_index() {
        index_bytes(mem)
    } else {
        let pack = db.pack_index().expect("index present");
        index_bytes(&pack.to_inverted().expect("sealed pack decodes"))
    }
}

fn store_fingerprint(db: &Database) -> Vec<(String, usize)> {
    db.store()
        .doc_ids()
        .map(|id| {
            let doc = db.store().doc(id);
            (doc.name().to_string(), doc.len())
        })
        .collect()
}

/// Run the op sequence through a live ingestion directory, asserting
/// maintained == rebuilt after every step and that a reopen reproduces
/// the final store and index bytes.
fn run_workload(ops: &[Op]) {
    let dir = fresh_dir();
    let (ingest, mut db) = Ingest::open(&dir, IngestOptions::default()).unwrap();
    for (step, &(kind, name_i, doc_i)) in ops.iter().enumerate() {
        let name = NAMES[name_i as usize % NAMES.len()];
        match kind % 10 {
            0..=4 => {
                // Insert: a duplicate name is a typed error, state unchanged.
                let xml = DOCS[doc_i as usize % DOCS.len()];
                let _ = ingest.insert_document(&mut db, name, xml);
            }
            5..=8 => {
                // Remove: a missing name is a typed error, state unchanged.
                let _ = ingest.remove_document(&mut db, name);
            }
            _ => {
                ingest.checkpoint(&mut db).unwrap();
            }
        }
        assert_eq!(
            db_index_bytes(&db),
            rebuilt_bytes(&db),
            "step={step}: maintained index diverged from rebuild"
        );
    }
    let fingerprint = store_fingerprint(&db);
    let final_index = db_index_bytes(&db);
    drop((ingest, db));

    // Crash + recover: replaying the surviving WAL over the last
    // checkpoint must reproduce the exact same index bytes.
    let (_, reopened) = Ingest::open(&dir, IngestOptions::default()).unwrap();
    assert_eq!(store_fingerprint(&reopened), fingerprint, "reopen store");
    assert_eq!(db_index_bytes(&reopened), final_index, "reopen index bytes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn maintained_index_matches_rebuild(
        ops in prop::collection::vec((0u8..10, 0u8..4, 0u8..4), 1..14)
    ) {
        run_workload(&ops);
    }
}
