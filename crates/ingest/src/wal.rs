//! The write-ahead log: an append-only record stream with per-record
//! checksums and prefix-durable recovery.
//!
//! ## File layout
//!
//! ```text
//! +--------+---------+----------------------------------------------+
//! | magic  | version | record*                                      |
//! | TIXWAL | u8 (=1) |                                              |
//! +--------+---------+----------------------------------------------+
//! ```
//!
//! Each record is framed exactly like a v2 snapshot section
//! (`tix_store::persist::write_section`): a `u32` little-endian payload
//! length, the payload, then the payload's CRC-32. The payload itself is
//!
//! ```text
//! lsn: u64 LE | op: u8 | name: u32 LE + bytes | xml: u32 LE + bytes (op=Add only)
//! ```
//!
//! with `op` 1 = AddDocument, 2 = RemoveDocument. LSNs are strictly
//! increasing across the log; the first record after a fresh header may
//! carry any LSN (recovery gates on the checkpoint's LSN, not on 1).
//!
//! ## Durability contract
//!
//! * The header is only ever written through
//!   [`tix_store::persist::atomic_write`] — a WAL file either has a
//!   complete, valid header or does not exist.
//! * [`Wal::append`] writes one whole frame with a single `write_all`
//!   followed by `sync_all`; `Wal::append_frames` does the same for a
//!   group-commit batch of pre-encoded frames. A record is **committed**
//!   iff its full frame (including the trailing CRC) reached the file.
//! * A failed write or sync **rolls back**: the file is truncated to the
//!   pre-append offset so a torn frame never lingers ahead of the write
//!   cursor (where the next append would strand it as unreachable
//!   garbage, silently cutting replay short). If the rollback truncation
//!   itself fails the log is **poisoned**: every later operation errors
//!   out instead of appending after bytes in an unknown state.
//! * [`Wal::open`] scans the log and recovers the longest committed
//!   prefix: the scan stops at the first frame that is torn (short),
//!   fails its CRC, decodes to a malformed payload, or breaks LSN
//!   monotonicity — and the file is truncated back to the end of the last
//!   good frame. Recovery never panics and never "repairs" bytes: a torn
//!   tail is dropped, a committed prefix is kept, nothing else.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use tix_store::persist::atomic_write;

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: &[u8] = b"TIXWAL";
/// Current WAL format version.
pub const WAL_VERSION: u8 = 1;

/// Header length in bytes (magic + version), as a usize for slicing.
const WAL_HEADER_USIZE: usize = WAL_MAGIC.len() + 1;

/// Header length in bytes: magic + version.
// lint:allow(no-as-cast): widening usize -> u64 of a 7-byte constant
pub const WAL_HEADER_LEN: u64 = WAL_HEADER_USIZE as u64;

const OP_ADD: u8 = 1;
const OP_REMOVE: u8 = 2;

/// Checked `usize -> u64` widening. Infallible on every supported target
/// (usize is at most 64 bits); the saturating fallback only exists so no
/// `as` cast and no panic path is needed.
pub(crate) fn len_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// One logged mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Load a new document (fails on a duplicate name — see the engine's
    /// apply-before-stage protocol).
    AddDocument {
        /// Unique document name.
        name: String,
        /// The document's XML source.
        xml: String,
    },
    /// Remove a document by name.
    RemoveDocument {
        /// Name of the document to drop.
        name: String,
    },
}

/// One committed record as recovered by [`Wal::open`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalEntry {
    /// Byte offset of the record's frame in the file (for tail
    /// truncation when a replayed record fails to apply).
    pub offset: u64,
    /// The record's log sequence number.
    pub lsn: u64,
    /// The mutation itself.
    pub record: WalRecord,
}

/// The result of scanning a WAL file: the committed prefix and whether a
/// torn/corrupt tail had to be dropped.
#[derive(Debug)]
pub struct WalScan {
    /// Committed records in append order.
    pub entries: Vec<WalEntry>,
    /// Byte length of the committed prefix (header included).
    pub valid_len: u64,
    /// True when bytes past `valid_len` were torn or corrupt.
    pub torn: bool,
}

/// An open write-ahead log. See the module docs for the format and the
/// durability contract.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    len: u64,
    /// Set when a failed append could not be rolled back: the bytes past
    /// `len` are in an unknown state, so every further operation must
    /// error instead of appending after potential garbage.
    poisoned: Option<String>,
    /// Test-only injected write fault: fail after this many bytes of the
    /// next frame write (see [`Wal::inject_write_fault`]).
    write_fault: Option<u64>,
}

/// Minimal bounds-checked cursor over a record payload. Every accessor
/// returns `None` past the end, so a corrupt length field can never cause
/// a panic or an over-read.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let bytes = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(bytes)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b.first().copied().unwrap_or(0))
    }

    fn u32(&mut self) -> Option<u32> {
        let mut out = [0u8; 4];
        out.copy_from_slice(self.take(4)?);
        Some(u32::from_le_bytes(out))
    }

    fn u64(&mut self) -> Option<u64> {
        let mut out = [0u8; 8];
        out.copy_from_slice(self.take(8)?);
        Some(u64::from_le_bytes(out))
    }

    fn string(&mut self) -> Option<String> {
        let len = usize::try_from(self.u32()?).ok()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn put_str(payload: &mut Vec<u8>, s: &str) -> io::Result<()> {
    let len = u32::try_from(s.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "WAL string exceeds u32 bytes"))?;
    payload.extend_from_slice(&len.to_le_bytes());
    payload.extend_from_slice(s.as_bytes());
    Ok(())
}

fn encode_payload(lsn: u64, record: &WalRecord) -> io::Result<Vec<u8>> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&lsn.to_le_bytes());
    match record {
        WalRecord::AddDocument { name, xml } => {
            payload.push(OP_ADD);
            put_str(&mut payload, name)?;
            put_str(&mut payload, xml)?;
        }
        WalRecord::RemoveDocument { name } => {
            payload.push(OP_REMOVE);
            put_str(&mut payload, name)?;
        }
    }
    Ok(payload)
}

/// Encode one record as a complete frame (length prefix + payload + CRC),
/// ready to be concatenated into a group-commit batch.
pub(crate) fn encode_frame(lsn: u64, record: &WalRecord) -> io::Result<Vec<u8>> {
    let payload = encode_payload(lsn, record)?;
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "WAL record too large"))?;
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&payload);
    frame.extend_from_slice(&tix_invariants::crc32(&payload).to_le_bytes());
    Ok(frame)
}

fn decode_payload(payload: &[u8]) -> Option<(u64, WalRecord)> {
    let mut cur = Cursor {
        buf: payload,
        pos: 0,
    };
    let lsn = cur.u64()?;
    let record = match cur.u8()? {
        OP_ADD => {
            let name = cur.string()?;
            let xml = cur.string()?;
            WalRecord::AddDocument { name, xml }
        }
        OP_REMOVE => WalRecord::RemoveDocument {
            name: cur.string()?,
        },
        _ => return None,
    };
    // Trailing payload bytes mean the frame is not what the writer wrote.
    if !cur.at_end() {
        return None;
    }
    Some((lsn, record))
}

/// Scan `bytes` (a whole WAL file image) for the committed prefix.
///
/// Public because WAL-shipping replication reuses the exact same framing
/// for its wire format: a follower pulling `/wal?from_lsn=` receives a
/// valid WAL image and runs it through this scanner, so a torn or
/// bit-flipped transfer yields only the committed prefix — a corrupt
/// frame is **never** decoded into an op, let alone applied.
pub fn scan_bytes(bytes: &[u8]) -> io::Result<WalScan> {
    scan(bytes)
}

/// Serialize `entries` back into a standalone WAL image (header +
/// frames), the inverse of [`scan_bytes`]. Used by tests, recovery-time
/// log consolidation, and the replication layer to synthesize op streams.
pub fn encode_entries(entries: &[(u64, WalRecord)]) -> io::Result<Vec<u8>> {
    let mut out = Vec::with_capacity(WAL_HEADER_USIZE);
    out.extend_from_slice(WAL_MAGIC);
    out.push(WAL_VERSION);
    for (lsn, record) in entries {
        out.extend_from_slice(&encode_frame(*lsn, record)?);
    }
    Ok(out)
}

/// Scan `bytes` (a whole WAL file image) for the committed prefix.
fn scan(bytes: &[u8]) -> io::Result<WalScan> {
    let header_ok = bytes.len() >= WAL_HEADER_USIZE
        && bytes.starts_with(WAL_MAGIC)
        && bytes.get(WAL_MAGIC.len()).copied() == Some(WAL_VERSION);
    if !header_ok {
        // The header is written atomically, so a bad header is disk
        // damage, not a torn append — surface it, don't guess.
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "corrupt WAL header",
        ));
    }
    let mut entries = Vec::new();
    let mut pos = WAL_HEADER_USIZE;
    let mut prev_lsn: Option<u64> = None;
    loop {
        let frame_start = pos;
        let Some(len_bytes) = bytes.get(pos..pos + 4) else {
            break; // torn inside the length prefix (or clean EOF)
        };
        let mut len_buf = [0u8; 4];
        len_buf.copy_from_slice(len_bytes);
        // u32 -> usize cannot fail on supported targets; saturate instead
        // of casting so a (hypothetical) 16-bit build still just stops.
        let payload_len = usize::try_from(u32::from_le_bytes(len_buf)).unwrap_or(usize::MAX);
        let Some(payload_end) = (pos + 4).checked_add(payload_len) else {
            break;
        };
        let Some(payload) = bytes.get(pos + 4..payload_end) else {
            break; // torn inside the payload
        };
        let Some(crc_bytes) = bytes.get(payload_end..payload_end + 4) else {
            break; // torn inside the checksum
        };
        let mut crc_buf = [0u8; 4];
        crc_buf.copy_from_slice(crc_bytes);
        if u32::from_le_bytes(crc_buf) != tix_invariants::crc32(payload) {
            break; // corrupt frame
        }
        let Some((lsn, record)) = decode_payload(payload) else {
            break; // checksummed but malformed: treat as corrupt tail
        };
        if prev_lsn.is_some_and(|prev| lsn <= prev) {
            break; // LSN monotonicity broken: corrupt tail
        }
        prev_lsn = Some(lsn);
        entries.push(WalEntry {
            offset: len_u64(frame_start),
            lsn,
            record,
        });
        pos = payload_end + 4;
    }
    Ok(WalScan {
        entries,
        valid_len: len_u64(pos),
        torn: pos < bytes.len(),
    })
}

impl Wal {
    /// Open (creating if missing) the WAL at `path`, recover its committed
    /// prefix, and truncate any torn tail. Returns the open log positioned
    /// for appending, plus the scan result for the caller to replay.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<(Wal, WalScan)> {
        let path = path.into();
        if !path.exists() {
            write_header(&path)?;
        }
        let bytes = fs::read(&path)?;
        let scan = scan(&bytes)?;
        let file = OpenOptions::new().append(true).open(&path)?;
        let mut wal = Wal {
            path,
            file,
            len: len_u64(bytes.len()),
            poisoned: None,
            write_fault: None,
        };
        if scan.torn {
            wal.truncate_to(scan.valid_len)?;
        }
        Ok((wal, scan))
    }

    /// Total file length in bytes (header included).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len <= WAL_HEADER_LEN
    }

    /// The poison reason, if a failed rollback has poisoned this log.
    pub fn poison_reason(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    fn check_poisoned(&self) -> io::Result<()> {
        match &self.poisoned {
            Some(reason) => Err(io::Error::other(format!("WAL poisoned: {reason}"))),
            None => Ok(()),
        }
    }

    /// Append one record durably: the whole frame is written with a single
    /// `write_all` and fsynced before this returns. Returns the frame's
    /// byte offset.
    ///
    /// On a write or sync error the file is truncated back to the
    /// pre-append offset, so the torn frame never sits ahead of the write
    /// cursor (where the next append would strand it as unreachable
    /// garbage and silently cut replay short). If that rollback fails, the
    /// log is poisoned and every later operation errors.
    pub fn append(&mut self, lsn: u64, record: &WalRecord) -> io::Result<u64> {
        let frame = encode_frame(lsn, record)?;
        let offset = self.len;
        self.append_frames(&frame, true)?;
        Ok(offset)
    }

    /// Append a batch of pre-encoded frames (see [`encode_frame`]) with a
    /// single `write_all`, fsyncing iff `sync`. Same rollback/poison
    /// contract as [`Wal::append`]: on any error nothing of the batch
    /// remains in the committed region.
    pub(crate) fn append_frames(&mut self, frames: &[u8], sync: bool) -> io::Result<()> {
        self.check_poisoned()?;
        let offset = self.len;
        let write_result = match self.write_fault.take() {
            None => self.file.write_all(frames),
            Some(limit) => {
                // Route the write through the shared fault-injection
                // writer so integration tests can exercise a mid-frame
                // failure against the real file: the first `limit` bytes
                // genuinely land on disk, then the write errors.
                let mut failing = tix_store::faultio::FailingWriter::fail_after(&self.file, limit);
                failing.write_all(frames)
            }
        };
        let result = write_result.and_then(|()| if sync { self.file.sync_all() } else { Ok(()) });
        match result {
            Ok(()) => {
                self.len += len_u64(frames.len());
                Ok(())
            }
            Err(e) => {
                if let Err(rollback) = self
                    .file
                    .set_len(offset)
                    .and_then(|()| self.file.sync_all())
                {
                    self.poisoned = Some(format!(
                        "append failed ({e}) and rollback truncation failed ({rollback})"
                    ));
                }
                Err(e)
            }
        }
    }

    /// Fsync every previously written frame (the group-commit leader's
    /// deferred flush under `Batched`/`Flush` durability). The frames are
    /// already acknowledged as written, so a failed sync cannot be rolled
    /// back — it poisons the log instead.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        self.check_poisoned()?;
        if let Err(e) = self.file.sync_all() {
            self.poisoned = Some(format!("deferred fsync failed: {e}"));
            return Err(e);
        }
        Ok(())
    }

    /// Truncate the log back to `offset` bytes (used to drop a frame whose
    /// apply failed, and to drop a torn tail on open).
    pub fn truncate_to(&mut self, offset: u64) -> io::Result<()> {
        self.file.set_len(offset)?;
        self.file.sync_all()?;
        self.len = offset;
        Ok(())
    }

    /// Rotate the log aside for a non-blocking checkpoint: the current
    /// file moves to `prev` and a fresh header-only log takes its place,
    /// so new appends proceed while the checkpoint folds the frozen state.
    ///
    /// Crash safety: if the process dies after the rename but before the
    /// fresh header lands, recovery finds `prev` without a current log,
    /// creates a fresh one, and consolidates — no committed frame is lost
    /// (see `Ingest::open`).
    pub(crate) fn rotate(&mut self, prev: &Path) -> io::Result<()> {
        self.check_poisoned()?;
        fs::rename(&self.path, prev)?;
        let reopened = write_header(&self.path)
            .and_then(|()| OpenOptions::new().append(true).open(&self.path));
        match reopened {
            Ok(file) => {
                self.file = file;
                self.len = WAL_HEADER_LEN;
                Ok(())
            }
            Err(e) => {
                // The old log is already renamed away; without a fresh
                // file there is nowhere safe to append.
                self.poisoned = Some(format!("rotation failed after rename: {e}"));
                Err(e)
            }
        }
    }

    /// Test-only: make the next frame write fail after `fail_after` bytes,
    /// leaving a genuinely torn frame on disk (driven through
    /// `tix_store::faultio::FailingWriter`).
    #[doc(hidden)]
    pub fn inject_write_fault(&mut self, fail_after: u64) {
        self.write_fault = Some(fail_after);
    }
}

fn write_header(path: &Path) -> io::Result<()> {
    atomic_write::<io::Error, _>(path, |w| {
        w.write_all(WAL_MAGIC)?;
        w.write_all(&[WAL_VERSION])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tix-wal-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn add(name: &str, xml: &str) -> WalRecord {
        WalRecord::AddDocument {
            name: name.into(),
            xml: xml.into(),
        }
    }

    #[test]
    fn roundtrip_append_and_scan() {
        let path = tmp_dir("roundtrip").join("wal.log");
        let (mut wal, scan) = Wal::open(&path).unwrap();
        assert!(wal.is_empty());
        assert!(scan.entries.is_empty());
        assert!(!scan.torn);
        wal.append(1, &add("a.xml", "<a>x</a>")).unwrap();
        wal.append(
            2,
            &WalRecord::RemoveDocument {
                name: "a.xml".into(),
            },
        )
        .unwrap();
        drop(wal);
        let (wal, scan) = Wal::open(&path).unwrap();
        assert!(!wal.is_empty());
        assert!(!scan.torn);
        assert_eq!(scan.entries.len(), 2);
        assert_eq!(scan.entries[0].lsn, 1);
        assert_eq!(scan.entries[0].record, add("a.xml", "<a>x</a>"));
        assert_eq!(
            scan.entries[1].record,
            WalRecord::RemoveDocument {
                name: "a.xml".into()
            }
        );
        assert_eq!(scan.valid_len, wal.len());
    }

    #[test]
    fn torn_tail_is_truncated_at_every_byte_offset() {
        let dir = tmp_dir("torn");
        let full = dir.join("full.log");
        let (mut wal, _) = Wal::open(&full).unwrap();
        let committed_end = {
            wal.append(1, &add("a.xml", "<a>first</a>")).unwrap();
            wal.len()
        };
        wal.append(2, &add("b.xml", "<b>second torn victim</b>"))
            .unwrap();
        let bytes = fs::read(&full).unwrap();
        // Tear the second record at every byte offset: recovery must keep
        // exactly the first record, truncate the rest, and never panic.
        for cut in committed_end as usize..bytes.len() {
            let torn_path = dir.join("torn.log");
            fs::write(&torn_path, &bytes[..cut]).unwrap();
            let (wal, scan) = Wal::open(&torn_path).unwrap();
            assert_eq!(scan.entries.len(), 1, "cut at {cut}");
            assert_eq!(scan.entries[0].lsn, 1);
            assert_eq!(scan.valid_len, committed_end, "cut at {cut}");
            // A cut exactly on the committed boundary is a clean EOF.
            assert_eq!(scan.torn, cut as u64 != committed_end, "cut at {cut}");
            assert_eq!(wal.len(), committed_end);
            assert_eq!(
                fs::metadata(&torn_path).unwrap().len(),
                committed_end,
                "file not truncated at cut {cut}"
            );
        }
    }

    #[test]
    fn failed_append_rolls_back_the_torn_frame() {
        let path = tmp_dir("rollback").join("wal.log");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(1, &add("a.xml", "<a>keep</a>")).unwrap();
        let committed_end = wal.len();
        // Fail mid-frame: 5 bytes of the second frame land, then an error.
        wal.inject_write_fault(5);
        let err = wal.append(2, &add("b.xml", "<b>torn</b>")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        // The torn bytes were truncated away, on disk and in the cursor.
        assert_eq!(wal.len(), committed_end);
        assert_eq!(fs::metadata(&path).unwrap().len(), committed_end);
        assert!(wal.poison_reason().is_none());
        // A retry (the same LSN — the failed append never committed) and a
        // later record both land cleanly after the rollback.
        wal.append(2, &add("b.xml", "<b>retry</b>")).unwrap();
        wal.append(3, &add("c.xml", "<c/>")).unwrap();
        drop(wal);
        let (_, scan) = Wal::open(&path).unwrap();
        assert!(!scan.torn);
        let lsns: Vec<u64> = scan.entries.iter().map(|e| e.lsn).collect();
        assert_eq!(lsns, [1, 2, 3]);
        assert_eq!(scan.entries[1].record, add("b.xml", "<b>retry</b>"));
    }

    #[test]
    fn batch_append_is_all_or_nothing() {
        let path = tmp_dir("batch").join("wal.log");
        let (mut wal, _) = Wal::open(&path).unwrap();
        let mut batch = Vec::new();
        batch.extend_from_slice(&encode_frame(1, &add("a.xml", "<a/>")).unwrap());
        batch.extend_from_slice(&encode_frame(2, &add("b.xml", "<b/>")).unwrap());
        wal.append_frames(&batch, true).unwrap();
        drop(wal);
        let (mut wal, scan) = Wal::open(&path).unwrap();
        assert_eq!(scan.entries.len(), 2);
        let committed_end = wal.len();
        // A batch that tears mid-way rolls back entirely.
        let mut torn = Vec::new();
        torn.extend_from_slice(&encode_frame(3, &add("c.xml", "<c/>")).unwrap());
        torn.extend_from_slice(&encode_frame(4, &add("d.xml", "<d/>")).unwrap());
        wal.inject_write_fault(len_u64(torn.len()) - 3);
        wal.append_frames(&torn, true).unwrap_err();
        assert_eq!(wal.len(), committed_end);
        assert_eq!(fs::metadata(&path).unwrap().len(), committed_end);
    }

    #[test]
    fn corrupt_record_stops_the_scan() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("wal.log");
        let (mut wal, _) = Wal::open(&path).unwrap();
        let second_start = {
            wal.append(1, &add("a.xml", "<a>keep</a>")).unwrap();
            wal.len()
        };
        wal.append(2, &add("b.xml", "<b>flip a bit in me</b>"))
            .unwrap();
        drop(wal);
        let mut bytes = fs::read(&path).unwrap();
        let mid = second_start as usize + 10;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let (_, scan) = Wal::open(&path).unwrap();
        assert_eq!(scan.entries.len(), 1);
        assert!(scan.torn);
        assert_eq!(scan.valid_len, second_start);
    }

    #[test]
    fn non_monotonic_lsn_is_a_corrupt_tail() {
        let path = tmp_dir("lsn").join("wal.log");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(5, &add("a.xml", "<a/>")).unwrap();
        let good_end = wal.len();
        wal.append(5, &add("b.xml", "<b/>")).unwrap(); // duplicate LSN
        drop(wal);
        let (_, scan) = Wal::open(&path).unwrap();
        assert_eq!(scan.entries.len(), 1);
        assert_eq!(scan.valid_len, good_end);
    }

    #[test]
    fn corrupt_header_is_a_typed_error() {
        let path = tmp_dir("header").join("wal.log");
        fs::write(&path, b"NOTAWAL").unwrap();
        let err = Wal::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rotate_moves_records_aside_and_appends_continue() {
        let dir = tmp_dir("rotate");
        let path = dir.join("wal.log");
        let prev = dir.join("wal.prev");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(1, &add("a.xml", "<a/>")).unwrap();
        wal.append(2, &add("b.xml", "<b/>")).unwrap();
        wal.rotate(&prev).unwrap();
        assert!(wal.is_empty());
        wal.append(3, &add("c.xml", "<c/>")).unwrap();
        drop(wal);
        let prev_scan = scan_bytes(&fs::read(&prev).unwrap()).unwrap();
        assert_eq!(prev_scan.entries.len(), 2);
        let (_, scan) = Wal::open(&path).unwrap();
        assert_eq!(scan.entries.len(), 1);
        assert_eq!(scan.entries[0].lsn, 3);
    }

    #[test]
    fn no_temp_files_litter_the_directory() {
        let dir = tmp_dir("litter");
        let path = dir.join("wal.log");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(1, &add("a.xml", "<a/>")).unwrap();
        wal.rotate(&dir.join("wal.prev")).unwrap();
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp litter: {leftovers:?}");
    }
}
