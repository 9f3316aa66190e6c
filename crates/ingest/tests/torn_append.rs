//! Regression for the torn-tail append bug, exercised at the engine
//! level with live fault injection (not post-hoc byte cutting): a WAL
//! append that fails mid-frame must roll the torn bytes back off the
//! file, the failed commit must poison the pipeline (memory is ahead of
//! the log), and a reopen must recover exactly the committed prefix.
//!
//! Before the fix, `Wal::append` left the partial frame on disk; the
//! *next* successful append then started mid-garbage and recovery
//! truncated away records that had been acknowledged as durable.

use std::fs;
use std::path::PathBuf;

use tix_ingest::{scan_bytes, Ingest, IngestOptions};

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tix-ingest-torn-live").join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn doc_names(db: &tix::Database) -> Vec<String> {
    db.store()
        .doc_ids()
        .map(|id| db.store().doc(id).name().to_string())
        .collect()
}

#[test]
fn mid_frame_write_failure_rolls_back_and_poisons() {
    let dir = test_dir("rollback");
    let (ingest, mut db) = Ingest::open(&dir, IngestOptions::default()).unwrap();
    ingest
        .insert_document(&mut db, "a.xml", "<d><p>alpha beta</p></d>")
        .unwrap();
    let clean_len = ingest.wal_len();
    assert_eq!(ingest.durable_lsn(), 1);

    // The next frame dies after 7 bytes — mid-header, a torn tail.
    ingest.inject_wal_write_fault(7);
    let err = ingest
        .insert_document(&mut db, "b.xml", "<d><p>gamma</p></d>")
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("injected"), "unexpected error: {msg}");

    // Rollback: not one torn byte remains on disk.
    let bytes = fs::read(dir.join("wal.log")).unwrap();
    assert_eq!(u64::try_from(bytes.len()).unwrap(), clean_len);
    let scan = scan_bytes(&bytes).unwrap();
    assert!(!scan.torn, "rolled-back log must scan clean");
    assert_eq!(scan.entries.len(), 1);

    // The mutation was applied in memory before the write failed, so the
    // engine is poisoned: every further mutation is refused rather than
    // silently diverging from the log.
    assert!(ingest.poison_reason().is_some());
    let again = ingest.insert_document(&mut db, "c.xml", "<d><p>x</p></d>");
    assert!(again.is_err(), "poisoned engine must refuse writes");

    // Crash + restart: exactly the committed prefix comes back, and the
    // recovered engine accepts writes again.
    drop((ingest, db));
    let (ingest, mut db) = Ingest::open(&dir, IngestOptions::default()).unwrap();
    assert_eq!(doc_names(&db), vec!["a.xml".to_string()]);
    assert_eq!(ingest.last_lsn(), 1);
    ingest
        .insert_document(&mut db, "b.xml", "<d><p>gamma</p></d>")
        .unwrap();
    assert_eq!(ingest.last_lsn(), 2);
}

#[test]
fn failure_in_a_group_commit_batch_loses_the_whole_batch_cleanly() {
    let dir = test_dir("batch");
    let (ingest, mut db) = Ingest::open(&dir, IngestOptions::default()).unwrap();
    ingest
        .insert_document(&mut db, "a.xml", "<d><p>alpha</p></d>")
        .unwrap();
    let clean_len = ingest.wal_len();

    // Stage two frames, then fail 60 bytes into the batch write — past
    // the start of the first frame, short of the end of the second. The
    // batch write is all-or-nothing, so both roll back together.
    let (_, t1) = ingest
        .stage_insert(&mut db, "b.xml", "<d><p>beta</p></d>")
        .unwrap();
    let (_, t2) = ingest
        .stage_insert(&mut db, "c.xml", "<d><p>gamma</p></d>")
        .unwrap();
    ingest.inject_wal_write_fault(60);
    assert!(ingest.commit(t1).is_err());
    assert!(ingest.commit(t2).is_err());

    let bytes = fs::read(dir.join("wal.log")).unwrap();
    assert_eq!(u64::try_from(bytes.len()).unwrap(), clean_len);
    assert!(!scan_bytes(&bytes).unwrap().torn);

    drop((ingest, db));
    let (_ingest, db) = Ingest::open(&dir, IngestOptions::default()).unwrap();
    assert_eq!(doc_names(&db), vec!["a.xml".to_string()]);
}
