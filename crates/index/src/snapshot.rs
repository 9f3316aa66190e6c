//! Binary persistence for the inverted index.
//!
//! Rebuilding the index re-tokenizes the entire collection; for a corpus
//! in the paper's 500 MB class that is far more expensive than reading the
//! posting lists back. The format mirrors the store snapshot's style.
//!
//! Format **v2** (current) wraps the payload in the checksummed section
//! framing of [`tix_store::persist`] and seals the whole file with a
//! trailing CRC-32, so a flipped bit is rejected as
//! [`IndexSnapshotError::Corrupt`] before any structural parsing:
//!
//! ```text
//! magic "TIXIDX" + version u8 (= 2)
//! header section    : u32 len, payload, u32 crc32(payload)
//!     payload = total_tokens u64, term count u32
//! term block section: one per 1024 terms, same framing
//!     payload = per term:
//!         name          : u32 len, bytes
//!         doc_frequency : u32
//!         node_frequency: u32
//!         postings      : u32 count, then (doc u32, node u32, offset u32)*
//! seal              : u32 crc32(all preceding bytes)
//! ```
//!
//! Format **v1** (still loadable) streams the same term encoding directly
//! after `total_tokens u64, term count u32` with no checksums.

use std::io::{self, Read, Write};

use tix_store::persist::{read_section, write_section, SealReader, SealWriter, SectionError};
use tix_store::{DocId, NodeIdx};

use crate::build::InvertedIndex;
use crate::postings::{Posting, PostingList};

/// Leading magic of every index snapshot, any version.
pub const INDEX_SNAPSHOT_MAGIC: &[u8; 6] = b"TIXIDX";
/// Snapshot version written by [`InvertedIndex::save_snapshot`].
pub const INDEX_SNAPSHOT_VERSION: u8 = 2;
/// Oldest version [`InvertedIndex::load_snapshot`] still accepts.
pub const INDEX_SNAPSHOT_MIN_VERSION: u8 = 1;

const MAGIC: &[u8; 6] = INDEX_SNAPSHOT_MAGIC;

/// Terms per checksummed section in v2: small enough that one corrupt
/// section is cheap to detect, large enough that framing overhead (8
/// bytes per section) is noise.
const TERMS_PER_SECTION: u32 = 1024;

/// Errors raised while reading or writing an index snapshot.
#[derive(Debug)]
pub enum IndexSnapshotError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not an index snapshot.
    BadMagic,
    /// Unsupported version byte.
    UnsupportedVersion(u8),
    /// Structural or checksum corruption.
    Corrupt(&'static str),
    /// A collection is too large for the u32 length prefixes of the
    /// on-disk format; the snapshot is refused rather than truncated.
    TooLarge(&'static str),
}

impl std::fmt::Display for IndexSnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexSnapshotError::Io(e) => write!(f, "index snapshot I/O error: {e}"),
            IndexSnapshotError::BadMagic => write!(f, "not a TIX index snapshot"),
            IndexSnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported index snapshot version {v}")
            }
            IndexSnapshotError::Corrupt(what) => write!(f, "corrupt index snapshot: {what}"),
            IndexSnapshotError::TooLarge(what) => {
                write!(f, "index snapshot not written: {what} exceeds format limit")
            }
        }
    }
}

impl std::error::Error for IndexSnapshotError {}

impl From<io::Error> for IndexSnapshotError {
    fn from(e: io::Error) -> Self {
        IndexSnapshotError::Io(e)
    }
}

fn section_err(e: SectionError) -> IndexSnapshotError {
    match e {
        SectionError::Io(e) => IndexSnapshotError::Io(e),
        SectionError::TooLarge => IndexSnapshotError::TooLarge("section"),
        SectionError::Truncated => IndexSnapshotError::Corrupt("truncated section"),
        SectionError::ChecksumMismatch => IndexSnapshotError::Corrupt("section checksum mismatch"),
    }
}

fn w_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Write a collection length as u32, refusing (rather than silently
/// truncating) anything that does not fit.
fn w_count(w: &mut impl Write, n: usize, what: &'static str) -> Result<(), IndexSnapshotError> {
    let v = u32::try_from(n).map_err(|_| IndexSnapshotError::TooLarge(what))?;
    w_u32(w, v)?;
    Ok(())
}

fn r_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

// ---- shared per-term encoding (identical in v1 and v2) ---------------------

fn write_term(
    w: &mut impl Write,
    name: &str,
    list: &PostingList,
) -> Result<(), IndexSnapshotError> {
    w_count(w, name.len(), "term name")?;
    w.write_all(name.as_bytes())?;
    w_u32(w, list.doc_frequency())?;
    w_u32(w, list.node_frequency())?;
    w_count(w, list.postings().len(), "posting list")?;
    for p in list.postings() {
        w_u32(w, p.doc.0)?;
        w_u32(w, p.node.as_u32())?;
        w_u32(w, p.offset)?;
    }
    Ok(())
}

/// Decode one term and insert it into `index`.
fn read_term(r: &mut impl Read, index: &mut InvertedIndex) -> Result<(), IndexSnapshotError> {
    let name_len = r_u32(r)? as usize;
    // Cap speculative pre-allocation: a corrupt length prefix must
    // not force a huge up-front allocation.
    let mut name = Vec::with_capacity(name_len.min(1 << 20));
    let read = r.by_ref().take(name_len as u64).read_to_end(&mut name)?;
    if read != name_len {
        return Err(IndexSnapshotError::Corrupt("truncated term"));
    }
    let name =
        String::from_utf8(name).map_err(|_| IndexSnapshotError::Corrupt("non-UTF-8 term"))?;
    let doc_frequency = r_u32(r)?;
    let node_frequency = r_u32(r)?;
    let posting_count = r_u32(r)? as usize;
    let mut postings = Vec::with_capacity(posting_count.min(1 << 20));
    let mut last: Option<Posting> = None;
    for _ in 0..posting_count {
        let posting = Posting {
            doc: DocId(r_u32(r)?),
            node: NodeIdx(r_u32(r)?),
            offset: r_u32(r)?,
        };
        if let Some(prev) = last {
            if prev >= posting {
                return Err(IndexSnapshotError::Corrupt("postings out of order"));
            }
        }
        last = Some(posting);
        postings.push(posting);
    }
    let list = PostingList::from_parts(postings, doc_frequency, node_frequency);
    index.insert_list(name, list);
    Ok(())
}

impl InvertedIndex {
    /// Serialize the index into `w` in the current (v2, checksummed)
    /// format: the [canonical](InvertedIndex::canonical_lists) view, in
    /// dense document ids.
    pub fn save_snapshot(&self, w: impl Write) -> Result<(), IndexSnapshotError> {
        let mut w = SealWriter::new(w);
        w.write_all(MAGIC)?;
        w.write_all(&[INDEX_SNAPSHOT_VERSION])?;
        let terms = self.canonical_lists();
        let mut payload = Vec::new();
        payload.extend_from_slice(&self.total_tokens().to_le_bytes());
        w_count(&mut payload, terms.len(), "term table")?;
        write_section(&mut w, &mut payload).map_err(section_err)?;
        for section in terms.chunks(TERMS_PER_SECTION as usize) {
            for (name, list) in section {
                write_term(&mut payload, name, list)?;
            }
            write_section(&mut w, &mut payload).map_err(section_err)?;
        }
        w.write_seal()?;
        Ok(())
    }

    /// Serialize in the legacy v1 (unchecksummed) format. Kept for
    /// backward-compatibility and structural-corruption tests; new code
    /// should use [`InvertedIndex::save_snapshot`].
    #[doc(hidden)]
    pub fn save_snapshot_v1(&self, mut w: impl Write) -> Result<(), IndexSnapshotError> {
        let w = &mut w;
        w.write_all(MAGIC)?;
        w.write_all(&[1u8])?;
        w.write_all(&self.total_tokens().to_le_bytes())?;
        let terms = self.canonical_lists();
        w_count(w, terms.len(), "term table")?;
        for (name, list) in &terms {
            write_term(w, name, list)?;
        }
        Ok(())
    }

    /// Load an index written by [`InvertedIndex::save_snapshot`] (v2) or
    /// the legacy v1 writer.
    pub fn load_snapshot(mut r: impl Read) -> Result<InvertedIndex, IndexSnapshotError> {
        let r = &mut r;
        let mut magic = [0u8; 6];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(IndexSnapshotError::BadMagic);
        }
        let mut version = [0u8; 1];
        r.read_exact(&mut version)?;
        let version = u8::from_le_bytes(version);
        match version {
            1 => load_v1(r),
            INDEX_SNAPSHOT_VERSION => load_v2(r),
            other => Err(IndexSnapshotError::UnsupportedVersion(other)),
        }
    }
}

/// Legacy streaming loader: everything after the header is structural
/// bytes with no checksums.
fn load_v1(r: &mut impl Read) -> Result<InvertedIndex, IndexSnapshotError> {
    let mut total = [0u8; 8];
    r.read_exact(&mut total)?;
    let total_tokens = u64::from_le_bytes(total);
    let term_count = r_u32(r)? as usize;
    let mut index = InvertedIndex::default();
    for _ in 0..term_count {
        read_term(r, &mut index)?;
    }
    index.set_total_tokens(total_tokens);
    Ok(index)
}

/// Checksummed loader: every section's CRC-32 is verified before its
/// bytes are parsed, and the trailing whole-file seal is verified last.
fn load_v2(r: &mut impl Read) -> Result<InvertedIndex, IndexSnapshotError> {
    let mut sealed = SealReader::new(r);
    sealed.seed(MAGIC);
    sealed.seed(&[INDEX_SNAPSHOT_VERSION]);
    let header = read_section(&mut sealed).map_err(section_err)?;
    let hr = &mut header.as_slice();
    let mut total = [0u8; 8];
    hr.read_exact(&mut total)
        .map_err(|_| IndexSnapshotError::Corrupt("short header section"))?;
    let total_tokens = u64::from_le_bytes(total);
    let term_count = r_u32(hr).map_err(|_| IndexSnapshotError::Corrupt("short header section"))?;
    if !hr.is_empty() {
        return Err(IndexSnapshotError::Corrupt(
            "trailing bytes in header section",
        ));
    }
    let mut index = InvertedIndex::default();
    let mut remaining = term_count;
    while remaining > 0 {
        let block = remaining.min(TERMS_PER_SECTION);
        let section = read_section(&mut sealed).map_err(section_err)?;
        let br = &mut section.as_slice();
        for _ in 0..block {
            read_term(br, &mut index)?;
        }
        if !br.is_empty() {
            return Err(IndexSnapshotError::Corrupt(
                "trailing bytes in term section",
            ));
        }
        remaining -= block;
    }
    sealed.verify_seal().map_err(section_err)?;
    index.set_total_tokens(total_tokens);
    Ok(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tix_store::Store;

    fn sample_index() -> InvertedIndex {
        let mut store = Store::new();
        store
            .load_str("a.xml", "<a><p>alpha beta alpha</p><p>gamma</p></a>")
            .unwrap();
        store.load_str("b.xml", "<a><p>beta</p></a>").unwrap();
        InvertedIndex::build(&store)
    }

    fn roundtrip(index: &InvertedIndex) -> InvertedIndex {
        let mut buf = Vec::new();
        index.save_snapshot(&mut buf).unwrap();
        InvertedIndex::load_snapshot(buf.as_slice()).unwrap()
    }

    fn assert_same(a: &InvertedIndex, b: &InvertedIndex) {
        assert_eq!(a.term_count(), b.term_count());
        assert_eq!(a.total_tokens(), b.total_tokens());
        for term in ["alpha", "beta", "gamma"] {
            assert_eq!(a.postings(term), b.postings(term), "{term}");
            assert_eq!(a.doc_frequency(term), b.doc_frequency(term), "{term}");
        }
    }

    #[test]
    fn roundtrip_preserves_postings_and_stats() {
        let index = sample_index();
        let loaded = roundtrip(&index);
        assert_same(&index, &loaded);
    }

    #[test]
    fn v1_snapshot_still_loads() {
        let index = sample_index();
        let mut buf = Vec::new();
        index.save_snapshot_v1(&mut buf).unwrap();
        assert_eq!(buf[6], 1, "v1 writer stamps version 1");
        let loaded = InvertedIndex::load_snapshot(buf.as_slice()).unwrap();
        assert_same(&index, &loaded);
    }

    #[test]
    fn v2_snapshot_is_sealed() {
        let index = sample_index();
        let mut buf = Vec::new();
        index.save_snapshot(&mut buf).unwrap();
        assert_eq!(buf[6], INDEX_SNAPSHOT_VERSION);
        tix_invariants::try_snapshot_sealed(MAGIC, &buf).unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            InvertedIndex::load_snapshot(&b"GARBAGE!"[..]),
            Err(IndexSnapshotError::BadMagic)
        ));
    }

    #[test]
    fn wrong_version_rejected() {
        let index = sample_index();
        let mut buf = Vec::new();
        index.save_snapshot(&mut buf).unwrap();
        buf[6] = 77; // version byte
        assert!(matches!(
            InvertedIndex::load_snapshot(buf.as_slice()),
            Err(IndexSnapshotError::UnsupportedVersion(77))
        ));
    }

    #[test]
    fn truncation_rejected() {
        let index = sample_index();
        let mut buf = Vec::new();
        index.save_snapshot(&mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(InvertedIndex::load_snapshot(buf.as_slice()).is_err());
    }

    #[test]
    fn oversized_count_refused_not_truncated() {
        let mut buf = Vec::new();
        let err = w_count(&mut buf, u32::MAX as usize + 1, "posting list").unwrap_err();
        assert!(matches!(err, IndexSnapshotError::TooLarge("posting list")));
        assert!(buf.is_empty());
    }

    #[test]
    fn empty_index_roundtrips() {
        let index = InvertedIndex::default();
        let loaded = roundtrip(&index);
        assert_eq!(loaded.term_count(), 0);
        assert_eq!(loaded.total_tokens(), 0);
    }

    #[test]
    fn multi_section_boundaries_roundtrip() {
        // Synthesize indexes whose term counts straddle the section size so
        // the block math (full sections, partial tail, exact multiple) is
        // exercised without building a million-term corpus.
        for count in [
            TERMS_PER_SECTION - 1,
            TERMS_PER_SECTION,
            TERMS_PER_SECTION + 1,
        ] {
            let mut index = InvertedIndex::default();
            for i in 0..count {
                let posting = Posting {
                    doc: DocId(0),
                    node: NodeIdx(1),
                    offset: i,
                };
                index.insert_list(
                    format!("t{i:05}"),
                    PostingList::from_parts(vec![posting], 1, 1),
                );
            }
            index.set_total_tokens(u64::from(count));
            let mut buf = Vec::new();
            index.save_snapshot(&mut buf).unwrap();
            let loaded = InvertedIndex::load_snapshot(buf.as_slice()).unwrap();
            assert_eq!(loaded.term_count(), count as usize, "count {count}");
            assert_eq!(loaded.postings("t00000").len(), 1);
        }
    }
}
