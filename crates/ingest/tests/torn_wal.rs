//! Torn-append sweep over a real ingestion directory: a crash may cut the
//! WAL at *any* byte. For every possible cut point, recovery must come
//! back with exactly the committed prefix — never a panic, never a
//! half-applied record, never temp-file litter — and the recovered
//! database must keep accepting writes.

use std::fs;
use std::path::{Path, PathBuf};

use tix_ingest::{Ingest, IngestOptions, Wal, WAL_HEADER_LEN};

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tix-ingest-torn").join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn doc_names(db: &tix::Database) -> Vec<String> {
    db.store()
        .doc_ids()
        .map(|id| db.store().doc(id).name().to_string())
        .collect()
}

/// Copy the checkpoint artifacts (meta + snapshots) but write `wal` as the
/// log, simulating a crash that left exactly those WAL bytes on disk.
fn clone_dir_with_wal(base: &Path, trial: &Path, wal: &[u8]) {
    for entry in fs::read_dir(base).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name();
        if name != "wal.log" {
            fs::copy(entry.path(), trial.join(&name)).unwrap();
        }
    }
    fs::write(trial.join("wal.log"), wal).unwrap();
}

fn temp_litter(dir: &Path) -> Vec<String> {
    fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp"))
        .collect()
}

#[test]
fn torn_append_sweep_recovers_committed_prefix_at_every_offset() {
    let base = test_dir("sweep-base");
    let base_lsn;
    {
        let (ingest, mut db) = Ingest::open(&base, IngestOptions::default()).unwrap();
        ingest
            .insert_document(&mut db, "a.xml", "<d><p>alpha beta</p></d>")
            .unwrap();
        ingest
            .insert_document(&mut db, "b.xml", "<d><p>beta gamma</p></d>")
            .unwrap();
        ingest.checkpoint(&mut db).unwrap();
        base_lsn = ingest.last_lsn();
        // Two records live past the checkpoint: the sweep tears these.
        ingest
            .insert_document(&mut db, "c.xml", "<d><p>alpha delta</p></d>")
            .unwrap();
        ingest.remove_document(&mut db, "a.xml").unwrap();
    }
    let wal_bytes = fs::read(base.join("wal.log")).unwrap();
    assert!(wal_bytes.len() as u64 > WAL_HEADER_LEN);

    // Recover the frame boundaries by scanning a scratch copy of the log.
    let scratch = test_dir("sweep-scratch").join("wal.log");
    fs::write(&scratch, &wal_bytes).unwrap();
    let (_, scan) = Wal::open(&scratch).unwrap();
    assert_eq!(scan.entries.len(), 2);
    assert!(!scan.torn);
    let mut boundaries: Vec<u64> = scan.entries.iter().map(|e| e.offset).collect();
    boundaries.push(scan.valid_len);

    // Expected document sets, indexed by how many WAL records survive.
    let expected: [&[&str]; 3] = [
        &["a.xml", "b.xml"],          // checkpoint only
        &["a.xml", "b.xml", "c.xml"], // + add c
        &["b.xml", "c.xml"],          // + remove a (ids compacted)
    ];

    let trial = test_dir("sweep-trial");
    for cut in WAL_HEADER_LEN as usize..=wal_bytes.len() {
        clone_dir_with_wal(&base, &trial, &wal_bytes[..cut]);
        let (ingest, db) = Ingest::open(&trial, IngestOptions::default())
            .unwrap_or_else(|e| panic!("cut at {cut}: recovery failed: {e}"));
        let surviving = boundaries
            .iter()
            .skip(1)
            .filter(|&&end| end <= cut as u64)
            .count();
        assert_eq!(
            doc_names(&db),
            expected[surviving],
            "cut at {cut}: wrong committed prefix"
        );
        assert_eq!(
            ingest.last_lsn(),
            base_lsn + surviving as u64,
            "cut at {cut}: wrong recovered LSN"
        );
        assert_eq!(
            temp_litter(&trial),
            Vec::<String>::new(),
            "cut at {cut}: temp litter left behind"
        );
        // Recovery truncated the torn tail on disk, so a second open sees
        // a clean log and the exact same state.
        let reopened_len = fs::metadata(trial.join("wal.log")).unwrap().len();
        assert!(reopened_len as usize <= cut, "cut at {cut}: log grew");
    }
}

#[test]
fn recovered_directory_keeps_accepting_writes() {
    let base = test_dir("resume-base");
    {
        let (ingest, mut db) = Ingest::open(&base, IngestOptions::default()).unwrap();
        ingest
            .insert_document(&mut db, "a.xml", "<d><p>alpha</p></d>")
            .unwrap();
        ingest
            .insert_document(&mut db, "b.xml", "<d><p>beta</p></d>")
            .unwrap();
    }
    // Tear the last record mid-frame, then recover and keep writing.
    let wal = fs::read(base.join("wal.log")).unwrap();
    fs::write(base.join("wal.log"), &wal[..wal.len() - 3]).unwrap();

    let (ingest, mut db) = Ingest::open(&base, IngestOptions::default()).unwrap();
    assert_eq!(doc_names(&db), ["a.xml"], "torn second insert dropped");
    ingest
        .insert_document(&mut db, "c.xml", "<d><p>gamma</p></d>")
        .unwrap();
    drop((ingest, db));

    let (_, db) = Ingest::open(&base, IngestOptions::default()).unwrap();
    assert_eq!(doc_names(&db), ["a.xml", "c.xml"]);
}
