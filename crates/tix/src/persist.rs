//! Durable save/load of a whole [`Database`]: store snapshot plus index
//! sidecar, every write routed through the atomic-replace protocol of
//! [`tix_store::persist::atomic_write`].
//!
//! The division of labor: the snapshot formats (in `tix-store` and
//! `tix-index`) own *what the bytes mean* — framing, checksums, the
//! trailing seal; this module owns *how the bytes reach disk* — a save is
//! all-or-nothing (a crash at any byte offset leaves the previously
//! committed file untouched), and a load of a current-version file
//! verifies the whole-file seal ([`tix_invariants::try_snapshot_sealed`])
//! before handing the bytes to the structural parser.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

use tix_index::{IndexSnapshotError, InvertedIndex, INDEX_SNAPSHOT_MAGIC, INDEX_SNAPSHOT_VERSION};
use tix_pack::{PackIndex, PACK_MAGIC};
use tix_store::persist::atomic_write;
use tix_store::{SnapshotError, Store, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};

use crate::Database;

/// Errors raised while saving or loading database files.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure (opening, reading, renaming, fsync).
    Io(io::Error),
    /// The store snapshot is malformed or corrupt.
    Store(SnapshotError),
    /// The index sidecar is malformed or corrupt.
    Index(IndexSnapshotError),
    /// [`save_index`] was asked to save a database with no index built.
    NoIndex,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "database I/O error: {e}"),
            PersistError::Store(e) => write!(f, "{e}"),
            PersistError::Index(e) => write!(f, "{e}"),
            PersistError::NoIndex => write!(f, "no index built; nothing to save"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Store(e) => Some(e),
            PersistError::Index(e) => Some(e),
            PersistError::NoIndex => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<SnapshotError> for PersistError {
    fn from(e: SnapshotError) -> Self {
        PersistError::Store(e)
    }
}

impl From<IndexSnapshotError> for PersistError {
    fn from(e: IndexSnapshotError) -> Self {
        PersistError::Index(e)
    }
}

/// Is `bytes` a current-version (sealed) snapshot of the format opened by
/// `magic`? Older versions carry no seal, so only current-version files
/// get the whole-file checksum gate.
fn is_current_version(bytes: &[u8], magic: &[u8], version: u8) -> bool {
    bytes.len() > magic.len()
        && bytes.get(..magic.len()).is_some_and(|head| head == magic)
        && bytes.get(magic.len()).copied() == Some(version)
}

/// Save a store snapshot to `path` atomically and durably. The snapshot
/// streams into the file rather than being assembled in memory first, so
/// a checkpoint's peak memory does not include a copy of the store.
pub fn save_store(store: &Store, path: impl AsRef<Path>) -> Result<(), PersistError> {
    atomic_write::<PersistError, _>(&path, |w| Ok(store.save_snapshot(w)?))?;
    // The writer just produced a current-version snapshot; it must carry a
    // valid whole-file seal, or the loader's corruption gate would reject
    // our own output.
    tix_invariants::check! {
        tix_invariants::assert_snapshot_sealed(SNAPSHOT_MAGIC, &fs::read(&path)?)
    }
    Ok(())
}

/// Load a store snapshot from `path`, verifying the whole-file seal before
/// structural parsing when the file is a current-version snapshot.
pub fn load_store(path: impl AsRef<Path>) -> Result<Store, PersistError> {
    let bytes = fs::read(path)?;
    if is_current_version(&bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION) {
        tix_invariants::try_snapshot_sealed(SNAPSHOT_MAGIC, &bytes)
            .map_err(|_| PersistError::Store(SnapshotError::Corrupt("broken whole-file seal")))?;
    }
    Ok(Store::load_snapshot(bytes.as_slice())?)
}

/// Save an index snapshot to `path` atomically and durably.
pub fn save_index(index: &InvertedIndex, path: impl AsRef<Path>) -> Result<(), PersistError> {
    let mut bytes = Vec::new();
    index.save_snapshot(&mut bytes)?;
    tix_invariants::check! {
        tix_invariants::assert_snapshot_sealed(INDEX_SNAPSHOT_MAGIC, &bytes)
    }
    atomic_write(path, |w| w.write_all(&bytes).map_err(PersistError::Io))
}

/// Load an index snapshot from `path`, verifying the whole-file seal
/// before structural parsing when the file is a current-version snapshot.
pub fn load_index(path: impl AsRef<Path>) -> Result<InvertedIndex, PersistError> {
    let bytes = fs::read(path)?;
    if is_current_version(&bytes, INDEX_SNAPSHOT_MAGIC, INDEX_SNAPSHOT_VERSION) {
        tix_invariants::try_snapshot_sealed(INDEX_SNAPSHOT_MAGIC, &bytes).map_err(|_| {
            PersistError::Index(IndexSnapshotError::Corrupt("broken whole-file seal"))
        })?;
    }
    Ok(InvertedIndex::load_snapshot(bytes.as_slice())?)
}

/// Save an index as a compressed v3 pack (`TIXPAK`) atomically and
/// durably, streaming it into the file. The pack loader
/// ([`tix_pack::PackIndex::open`]) verifies its own seal, so like
/// [`save_index`] we assert the bytes we just produced would pass that
/// gate.
pub fn save_index_v3(index: &InvertedIndex, path: impl AsRef<Path>) -> Result<(), PersistError> {
    atomic_write::<PersistError, _>(&path, |w| Ok(tix_pack::write_pack(index, w)?))?;
    tix_invariants::check! {
        tix_invariants::assert_snapshot_sealed(PACK_MAGIC, &fs::read(&path)?)
    }
    Ok(())
}

impl Database {
    /// Open a database from a store snapshot on disk. No index is loaded;
    /// call [`Database::load_index_from`] or [`Database::build_index`].
    pub fn open(path: impl AsRef<Path>) -> Result<Database, PersistError> {
        let store = load_store(path)?;
        let mut db = Database::new();
        *db.store_mut() = store;
        Ok(db)
    }

    /// Save the store to `path` atomically and durably
    /// (see [`save_store`]).
    pub fn save_store_to(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        save_store(self.store(), path)
    }

    /// Save the index sidecar to `path` atomically and durably, in the v3
    /// pack format (see [`save_index_v3`]). A pack-backed index is written
    /// back verbatim — its bytes are already a sealed pack. Errors with
    /// [`PersistError::NoIndex`] if no index has been built.
    pub fn save_index_to(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        if let Some(index) = self.mem_index() {
            save_index_v3(index, path)
        } else if let Some(pack) = self.pack_index() {
            let bytes = pack.as_bytes();
            atomic_write(path, |w| w.write_all(bytes).map_err(PersistError::Io))
        } else {
            Err(PersistError::NoIndex)
        }
    }

    /// Load an index sidecar from `path` and install it (bumps the
    /// generation). Sniffs the magic: `TIXPAK` files are installed *by
    /// reference* (postings decode lazily, per term, on first access);
    /// v2 `TIXIDX` snapshots load eagerly as before. The caller is
    /// responsible for the sidecar matching the loaded store — on
    /// corruption, rebuild with [`Database::build_index`].
    pub fn load_index_from(&mut self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let bytes = fs::read(path)?;
        if bytes.starts_with(PACK_MAGIC) {
            let pack = PackIndex::from_bytes(bytes)?;
            self.set_pack_index(pack);
            return Ok(());
        }
        if is_current_version(&bytes, INDEX_SNAPSHOT_MAGIC, INDEX_SNAPSHOT_VERSION) {
            tix_invariants::try_snapshot_sealed(INDEX_SNAPSHOT_MAGIC, &bytes).map_err(|_| {
                PersistError::Index(IndexSnapshotError::Corrupt("broken whole-file seal"))
            })?;
        }
        let index = InvertedIndex::load_snapshot(bytes.as_slice())?;
        self.set_index(index);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tix-db-persist-{}-{name}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.load(
            "a.xml",
            "<article><sec><p>rust xml database systems</p></sec></article>",
        )
        .unwrap();
        db.build_index();
        db
    }

    #[test]
    fn store_and_index_roundtrip_through_disk() {
        let dir = tmp_dir("roundtrip");
        let snap = dir.join("db.tix");
        let idx = dir.join("db.tix.idx");
        let db = sample_db();
        db.save_store_to(&snap).unwrap();
        db.save_index_to(&idx).unwrap();

        let mut loaded = Database::open(&snap).unwrap();
        loaded.load_index_from(&idx).unwrap();
        assert_eq!(db.store().stats(), loaded.store().stats());
        assert_eq!(db.index().postings("rust"), loaded.index().postings("rust"));
    }

    #[test]
    fn save_index_without_index_is_refused() {
        let mut db = Database::new();
        db.load("a.xml", "<a>x</a>").unwrap();
        let err = db
            .save_index_to(tmp_dir("noindex").join("x.idx"))
            .unwrap_err();
        assert!(matches!(err, PersistError::NoIndex));
    }

    #[test]
    fn corrupt_store_file_is_rejected_by_the_seal_gate() {
        let dir = tmp_dir("corrupt-store");
        let snap = dir.join("db.tix");
        sample_db().save_store_to(&snap).unwrap();
        let mut bytes = fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&snap, &bytes).unwrap();
        let err = Database::open(&snap).unwrap_err();
        assert!(
            matches!(err, PersistError::Store(SnapshotError::Corrupt(_))),
            "{err:?}"
        );
    }

    #[test]
    fn corrupt_index_file_is_rejected_by_the_seal_gate() {
        let dir = tmp_dir("corrupt-index");
        let idx = dir.join("db.idx");
        sample_db().save_index_to(&idx).unwrap();
        let mut bytes = fs::read(&idx).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&idx, &bytes).unwrap();
        let mut db = sample_db();
        let err = db.load_index_from(&idx).unwrap_err();
        assert!(
            matches!(err, PersistError::Index(IndexSnapshotError::Corrupt(_))),
            "{err:?}"
        );
    }

    #[test]
    fn missing_file_surfaces_as_io_not_found() {
        let err = Database::open(tmp_dir("missing").join("nope.tix")).unwrap_err();
        match err {
            PersistError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::NotFound),
            other => panic!("expected Io(NotFound), got {other:?}"),
        }
    }
}
