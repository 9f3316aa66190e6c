//! Binary snapshot persistence for the store.
//!
//! The paper's database (TIMBER) is disk-resident; ours is in-memory, but
//! re-parsing a multi-hundred-megabyte corpus on every start would make
//! the system unusable as a database. A snapshot serializes the loaded
//! store — node tables, text arenas, attributes, interners — into a
//! length-prefixed little-endian binary format that loads back with no
//! re-parsing and no re-numbering (node ids are stable across
//! save/load, so saved query results stay valid).
//!
//! Format **v2** (current) wraps every logical unit in the checksummed
//! section framing of [`crate::persist`] and seals the whole file with a
//! trailing CRC-32, so a flipped bit is rejected as [`SnapshotError::Corrupt`]
//! before any structural parsing:
//!
//! ```text
//! magic "TIXSNAP" + version u8 (= 2)
//! header section  : u32 len, payload, u32 crc32(payload)
//!     payload = tag interner, attr-name interner, u32 doc count
//! doc section     : one per document, same framing
//!     payload = name, nodes, texts, text_bytes, attrs, attr_bytes
//! seal            : u32 crc32(all preceding bytes)
//! ```
//!
//! Format **v1** (still loadable) is the same payload encoding streamed
//! directly after the header with no checksums:
//!
//! ```text
//! magic "TIXSNAP" + version u8 (= 1)
//! tag interner      : u32 count, then (u32 len, bytes)*
//! attr-name interner: same
//! documents         : u32 count, then per document
//!     name          : u32 len, bytes
//!     nodes         : u32 count, then (end u32, parent u32, level u16,
//!                     kind u8, tag u32, payload u32)*
//!     texts         : u32 count, then (off u32, len u32)*
//!     text_bytes    : u32 len, bytes
//!     attrs         : u32 count, then (node u32, name u32, off u32, len u32)*
//!     attr_bytes    : u32 len, bytes
//! ```

use std::io::{self, Read, Write};

use crate::document::{AttrRec, DocData};
use crate::interner::{Interner, Symbol};
use crate::node::{NodeKind, NodeRec};
use crate::persist::{read_section, write_section, SealReader, SealWriter, SectionError};
use crate::store::{FromPartsError, Store};

/// Leading magic of every store snapshot, any version.
pub const SNAPSHOT_MAGIC: &[u8; 7] = b"TIXSNAP";
/// Snapshot version written by [`Store::save_snapshot`].
pub const SNAPSHOT_VERSION: u8 = 2;

const MAGIC: &[u8; 7] = SNAPSHOT_MAGIC;

/// Errors raised while reading or writing a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input is not a TIX snapshot.
    BadMagic,
    /// The snapshot version is not supported by this build.
    UnsupportedVersion(u8),
    /// Structural or checksum corruption.
    Corrupt(&'static str),
    /// Two documents in the snapshot share a registered name. Kept
    /// distinct from [`SnapshotError::Corrupt`] so loaders (and the WAL
    /// replay path, which funnels through the same name registry) can
    /// report the offending name.
    DuplicateName(String),
    /// A collection is too large for the u32 length prefixes of the
    /// on-disk format; the snapshot is refused rather than truncated.
    TooLarge(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a TIX snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::DuplicateName(name) => {
                write!(f, "corrupt snapshot: duplicate document name {name:?}")
            }
            SnapshotError::TooLarge(what) => {
                write!(f, "snapshot not written: {what} exceeds format limit")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

fn from_parts_err(e: FromPartsError) -> SnapshotError {
    match e {
        FromPartsError::DuplicateName(name) => SnapshotError::DuplicateName(name),
        FromPartsError::TagOutOfRange => SnapshotError::Corrupt("tag symbol out of range"),
    }
}

fn section_err(e: SectionError) -> SnapshotError {
    match e {
        SectionError::Io(e) => SnapshotError::Io(e),
        SectionError::TooLarge => SnapshotError::TooLarge("section"),
        SectionError::Truncated => SnapshotError::Corrupt("truncated section"),
        SectionError::ChecksumMismatch => SnapshotError::Corrupt("section checksum mismatch"),
    }
}

// ---- primitive writers/readers ---------------------------------------------

fn w_u8(w: &mut impl Write, v: u8) -> io::Result<()> {
    w.write_all(&[v])
}

fn w_u16(w: &mut impl Write, v: u16) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn w_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Write a collection length as u32, refusing (rather than silently
/// truncating) anything that does not fit.
fn w_count(w: &mut impl Write, n: usize, what: &'static str) -> Result<(), SnapshotError> {
    let v = u32::try_from(n).map_err(|_| SnapshotError::TooLarge(what))?;
    w_u32(w, v)?;
    Ok(())
}

fn w_bytes(w: &mut impl Write, b: &[u8], what: &'static str) -> Result<(), SnapshotError> {
    w_count(w, b.len(), what)?;
    w.write_all(b)?;
    Ok(())
}

/// Cap on speculative pre-allocation while reading untrusted snapshot
/// bytes: a corrupt length prefix must not cause a huge up-front
/// allocation, so reads reserve at most this much and grow on demand.
const PREALLOC_CAP: usize = 1 << 20;

fn r_u8(r: &mut impl Read) -> io::Result<u8> {
    let mut buf = [0u8; 1];
    r.read_exact(&mut buf)?;
    Ok(u8::from_le_bytes(buf))
}

fn r_u16(r: &mut impl Read) -> io::Result<u16> {
    let mut buf = [0u8; 2];
    r.read_exact(&mut buf)?;
    Ok(u16::from_le_bytes(buf))
}

fn r_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn r_string(r: &mut impl Read) -> Result<String, SnapshotError> {
    let len = r_u32(r)? as usize;
    let mut buf = Vec::with_capacity(len.min(PREALLOC_CAP));
    let read = r.by_ref().take(len as u64).read_to_end(&mut buf)?;
    if read != len {
        return Err(SnapshotError::Corrupt("truncated string"));
    }
    String::from_utf8(buf).map_err(|_| SnapshotError::Corrupt("non-UTF-8 string"))
}

fn w_interner(w: &mut impl Write, interner: &Interner) -> Result<(), SnapshotError> {
    w_count(w, interner.len(), "interner")?;
    for (_, name) in interner.iter() {
        w_bytes(w, name.as_bytes(), "interned string")?;
    }
    Ok(())
}

fn r_interner(r: &mut impl Read) -> Result<Interner, SnapshotError> {
    let count = r_u32(r)?;
    let mut interner = Interner::new();
    for _ in 0..count {
        interner.intern(&r_string(r)?);
    }
    Ok(interner)
}

// ---- shared per-document encoding (identical in v1 and v2) -----------------

/// The tag and attribute-name interners a fresh load of the store's live
/// documents builds — symbols in first-occurrence order — with each live
/// symbol's new value. Removed documents (and failed loads) leave symbols
/// behind in the live interners; writing through this keeps snapshot
/// bytes a function of the live documents alone.
struct Symbols {
    tags: Interner,
    tag_map: Vec<u32>,
    attr_names: Interner,
    attr_map: Vec<u32>,
}

impl Symbols {
    fn of(store: &Store) -> Symbols {
        let docs = || store.live_docs();
        let (tags, tag_map) = renumber(
            store.tags_interner(),
            docs().flat_map(|doc| {
                doc.nodes
                    .iter()
                    .filter(|rec| rec.kind == NodeKind::Element)
                    .map(|rec| rec.tag)
            }),
        );
        let (attr_names, attr_map) = renumber(
            store.attr_names_interner(),
            docs().flat_map(|doc| doc.attrs.iter().map(|a| a.name)),
        );
        Symbols {
            tags,
            tag_map,
            attr_names,
            attr_map,
        }
    }
}

/// Re-intern the `used` symbols of `live` in order of first use.
fn renumber(live: &Interner, used: impl Iterator<Item = Symbol>) -> (Interner, Vec<u32>) {
    let mut fresh = Interner::new();
    let mut map = vec![u32::MAX; live.len()];
    for sym in used {
        if let Some(new) = map.get_mut(sym.as_u32() as usize) {
            if *new == u32::MAX {
                *new = fresh.intern(live.resolve(sym)).as_u32();
            }
        }
    }
    (fresh, map)
}

fn mapped(map: &[u32], sym: Symbol) -> u32 {
    map.get(sym.as_u32() as usize)
        .copied()
        .unwrap_or(sym.as_u32())
}

fn write_doc(w: &mut impl Write, doc: &DocData, symbols: &Symbols) -> Result<(), SnapshotError> {
    w_bytes(w, doc.name.as_bytes(), "document name")?;
    w_count(w, doc.nodes.len(), "node table")?;
    for rec in &doc.nodes {
        w_u32(w, rec.end)?;
        w_u32(w, rec.parent)?;
        w_u16(w, rec.level)?;
        let (kind, tag) = match rec.kind {
            NodeKind::Element => (0, mapped(&symbols.tag_map, rec.tag)),
            // A text node's tag field is unused; it is written as stored.
            NodeKind::Text => (1, rec.tag.as_u32()),
        };
        w_u8(w, kind)?;
        w_u32(w, tag)?;
        w_u32(w, rec.payload)?;
    }
    w_count(w, doc.texts.len(), "text table")?;
    for &(off, len) in &doc.texts {
        w_u32(w, off)?;
        w_u32(w, len)?;
    }
    w_bytes(w, doc.text_bytes.as_bytes(), "text arena")?;
    w_count(w, doc.attrs.len(), "attribute table")?;
    for attr in &doc.attrs {
        w_u32(w, attr.node)?;
        w_u32(w, mapped(&symbols.attr_map, attr.name))?;
        w_u32(w, attr.value_start)?;
        w_u32(w, attr.value_len)?;
    }
    w_bytes(w, doc.attr_bytes.as_bytes(), "attribute arena")?;
    Ok(())
}

fn read_doc(
    r: &mut impl Read,
    tags: &Interner,
    attr_names: &Interner,
) -> Result<DocData, SnapshotError> {
    let name = r_string(r)?;
    let node_count = r_u32(r)? as usize;
    let mut nodes = Vec::with_capacity(node_count.min(PREALLOC_CAP));
    for _ in 0..node_count {
        let end = r_u32(r)?;
        let parent = r_u32(r)?;
        let level = r_u16(r)?;
        let kind = match r_u8(r)? {
            0 => NodeKind::Element,
            1 => NodeKind::Text,
            _ => return Err(SnapshotError::Corrupt("unknown node kind")),
        };
        let tag_raw = r_u32(r)?;
        if kind == NodeKind::Element && tag_raw as usize >= tags.len() {
            return Err(SnapshotError::Corrupt("tag symbol out of range"));
        }
        let payload = r_u32(r)?;
        nodes.push(NodeRec {
            end,
            parent,
            level,
            kind,
            tag: Symbol::from_u32(tag_raw),
            payload,
        });
    }
    // The region encoding of untrusted snapshot bytes must satisfy
    // the paper's well-formedness conditions (laminar containment,
    // level discipline) before navigation is allowed to trust it.
    tix_invariants::try_regions_well_formed(nodes.len() as u32, |i| {
        // lint:allow(no-slice-index): i < nodes.len() by the try_ contract
        let rec = &nodes[i as usize];
        tix_invariants::Region {
            end: rec.end,
            parent: rec.parent,
            level: u32::from(rec.level),
        }
    })
    .map_err(|_| SnapshotError::Corrupt("malformed region encoding"))?;
    let text_count = r_u32(r)? as usize;
    let mut texts = Vec::with_capacity(text_count.min(PREALLOC_CAP));
    for _ in 0..text_count {
        texts.push((r_u32(r)?, r_u32(r)?));
    }
    let text_bytes = r_string(r)?;
    for &(off, len) in &texts {
        if (off as usize + len as usize) > text_bytes.len() {
            return Err(SnapshotError::Corrupt("text range out of bounds"));
        }
    }
    let attr_count = r_u32(r)? as usize;
    let mut attrs = Vec::with_capacity(attr_count.min(PREALLOC_CAP));
    for _ in 0..attr_count {
        attrs.push(AttrRec {
            node: r_u32(r)?,
            name: Symbol::from_u32(r_u32(r)?),
            value_start: r_u32(r)?,
            value_len: r_u32(r)?,
        });
    }
    let attr_bytes = r_string(r)?;
    for attr in &attrs {
        if (attr.value_start as usize + attr.value_len as usize) > attr_bytes.len() {
            return Err(SnapshotError::Corrupt("attribute range out of bounds"));
        }
        if attr.name.as_u32() as usize >= attr_names.len() {
            return Err(SnapshotError::Corrupt("attribute symbol out of range"));
        }
    }
    Ok(DocData {
        name,
        nodes,
        texts,
        text_bytes,
        attrs,
        attr_bytes,
    })
}

// ---- store-level API --------------------------------------------------------

impl Store {
    /// Serialize the whole store into `w` in the current (v2, checksummed)
    /// format.
    pub fn save_snapshot(&self, w: impl Write) -> Result<(), SnapshotError> {
        let mut w = SealWriter::new(w);
        w.write_all(MAGIC)?;
        w_u8(&mut w, SNAPSHOT_VERSION)?;
        let symbols = Symbols::of(self);
        let mut payload = Vec::new();
        w_interner(&mut payload, &symbols.tags)?;
        w_interner(&mut payload, &symbols.attr_names)?;
        w_count(&mut payload, self.doc_count(), "document table")?;
        write_section(&mut w, &mut payload).map_err(section_err)?;
        for doc in self.live_docs() {
            write_doc(&mut payload, doc.as_ref(), &symbols)?;
            write_section(&mut w, &mut payload).map_err(section_err)?;
        }
        w.write_seal()?;
        Ok(())
    }

    /// Serialize in the legacy v1 (unchecksummed) format. Kept for
    /// backward-compatibility and structural-corruption tests; new code
    /// should use [`Store::save_snapshot`].
    #[doc(hidden)]
    pub fn save_snapshot_v1(&self, mut w: impl Write) -> Result<(), SnapshotError> {
        let w = &mut w;
        w.write_all(MAGIC)?;
        w_u8(w, 1)?;
        let symbols = Symbols::of(self);
        w_interner(w, &symbols.tags)?;
        w_interner(w, &symbols.attr_names)?;
        w_count(w, self.doc_count(), "document table")?;
        for doc in self.live_docs() {
            write_doc(w, doc.as_ref(), &symbols)?;
        }
        Ok(())
    }

    /// Load a store from a snapshot previously written by
    /// [`Store::save_snapshot`] (v2) or the legacy v1 writer. Node and
    /// document ids are identical to the saved store's.
    pub fn load_snapshot(mut r: impl Read) -> Result<Store, SnapshotError> {
        let r = &mut r;
        let mut magic = [0u8; 7];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r_u8(r)?;
        match version {
            1 => load_v1(r),
            SNAPSHOT_VERSION => load_v2(r),
            other => Err(SnapshotError::UnsupportedVersion(other)),
        }
    }
}

/// Legacy streaming loader: everything after the header is structural
/// bytes with no checksums.
fn load_v1(r: &mut impl Read) -> Result<Store, SnapshotError> {
    let tags = r_interner(r)?;
    let attr_names = r_interner(r)?;
    let doc_count = r_u32(r)?;
    let mut docs = Vec::with_capacity((doc_count as usize).min(PREALLOC_CAP));
    for _ in 0..doc_count {
        docs.push(read_doc(r, &tags, &attr_names)?);
    }
    Store::from_parts(tags, attr_names, docs).map_err(from_parts_err)
}

/// Checksummed loader: every section's CRC-32 is verified before its
/// bytes are parsed, and the trailing whole-file seal is verified last.
fn load_v2(r: &mut impl Read) -> Result<Store, SnapshotError> {
    let mut sealed = SealReader::new(r);
    sealed.seed(MAGIC);
    sealed.seed(&[SNAPSHOT_VERSION]);
    let header = read_section(&mut sealed).map_err(section_err)?;
    let hr = &mut header.as_slice();
    let tags = r_interner(hr)?;
    let attr_names = r_interner(hr)?;
    let doc_count = r_u32(hr)?;
    if !hr.is_empty() {
        return Err(SnapshotError::Corrupt("trailing bytes in header section"));
    }
    let mut docs = Vec::with_capacity((doc_count as usize).min(PREALLOC_CAP));
    for _ in 0..doc_count {
        let section = read_section(&mut sealed).map_err(section_err)?;
        let dr = &mut section.as_slice();
        docs.push(read_doc(dr, &tags, &attr_names)?);
        if !dr.is_empty() {
            return Err(SnapshotError::Corrupt("trailing bytes in document section"));
        }
    }
    sealed.verify_seal().map_err(section_err)?;
    Store::from_parts(tags, attr_names, docs).map_err(from_parts_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{DocId, NodeIdx, NodeRef};

    fn sample_store() -> Store {
        let mut store = Store::new();
        store
            .load_str(
                "a.xml",
                r#"<article id="1"><p>alpha beta</p><p a="x">gamma</p></article>"#,
            )
            .unwrap();
        store
            .load_str("b.xml", "<review><title>T</title></review>")
            .unwrap();
        store
    }

    fn roundtrip(store: &Store) -> Store {
        let mut buf = Vec::new();
        store.save_snapshot(&mut buf).unwrap();
        Store::load_snapshot(buf.as_slice()).unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let store = sample_store();
        let loaded = roundtrip(&store);
        assert_eq!(store.stats(), loaded.stats());
        // Serialization of every document is byte-identical.
        for doc in store.doc_ids() {
            let root = NodeRef::new(doc, NodeIdx(0));
            assert_eq!(store.subtree_xml(root), loaded.subtree_xml(root));
        }
        // Names, attributes, and the tag index survive.
        assert_eq!(loaded.doc_by_name("a.xml"), Some(DocId(0)));
        assert_eq!(
            loaded.attribute(NodeRef::new(DocId(0), NodeIdx(0)), "id"),
            Some("1")
        );
        assert_eq!(store.elements_with_tag("p"), loaded.elements_with_tag("p"));
    }

    #[test]
    fn v1_snapshot_still_loads() {
        let store = sample_store();
        let mut buf = Vec::new();
        store.save_snapshot_v1(&mut buf).unwrap();
        assert_eq!(buf[7], 1, "v1 writer stamps version 1");
        let loaded = Store::load_snapshot(buf.as_slice()).unwrap();
        assert_eq!(store.stats(), loaded.stats());
        for doc in store.doc_ids() {
            let root = NodeRef::new(doc, NodeIdx(0));
            assert_eq!(store.subtree_xml(root), loaded.subtree_xml(root));
        }
    }

    #[test]
    fn v2_snapshot_is_sealed() {
        let store = sample_store();
        let mut buf = Vec::new();
        store.save_snapshot(&mut buf).unwrap();
        assert_eq!(buf[7], SNAPSHOT_VERSION);
        tix_invariants::try_snapshot_sealed(MAGIC, &buf).unwrap();
    }

    #[test]
    fn node_ids_are_stable() {
        let store = sample_store();
        let loaded = roundtrip(&store);
        let node = NodeRef::new(DocId(0), NodeIdx(3));
        assert_eq!(store.tag_name(node), loaded.tag_name(node));
        assert_eq!(store.text_content(node), loaded.text_content(node));
    }

    #[test]
    fn bad_magic_rejected() {
        let err = Store::load_snapshot(&b"NOTASNAP"[..]).unwrap_err();
        assert!(matches!(err, SnapshotError::BadMagic));
    }

    #[test]
    fn truncated_rejected() {
        let store = sample_store();
        let mut buf = Vec::new();
        store.save_snapshot(&mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(Store::load_snapshot(buf.as_slice()).is_err());
    }

    #[test]
    fn wrong_version_rejected() {
        let store = sample_store();
        let mut buf = Vec::new();
        store.save_snapshot(&mut buf).unwrap();
        buf[7] = 99; // version byte
        let err = Store::load_snapshot(buf.as_slice()).unwrap_err();
        assert!(matches!(err, SnapshotError::UnsupportedVersion(99)));
    }

    #[test]
    fn oversized_count_refused_not_truncated() {
        let mut buf = Vec::new();
        let err = w_count(&mut buf, u32::MAX as usize + 1, "node table").unwrap_err();
        assert!(matches!(err, SnapshotError::TooLarge("node table")));
        assert!(buf.is_empty(), "nothing written for a refused count");
    }

    #[test]
    fn empty_store_roundtrips() {
        let store = Store::new();
        let loaded = roundtrip(&store);
        assert_eq!(loaded.doc_count(), 0);
    }

    #[test]
    fn symbols_left_by_removed_documents_are_not_written() {
        let mut store = Store::new();
        store
            .load_str("gone.xml", "<old k=\"v\"><p/></old>")
            .unwrap();
        store
            .load_str("kept.xml", "<a id=\"1\"><p>x</p></a>")
            .unwrap();
        assert!(store.load_str("bad.xml", "<z><y></z>").is_err());
        store.remove_document("gone.xml").unwrap();
        let mut fresh = Store::new();
        fresh
            .load_str("kept.xml", "<a id=\"1\"><p>x</p></a>")
            .unwrap();
        let bytes = |store: &Store| {
            let mut buf = Vec::new();
            store.save_snapshot(&mut buf).unwrap();
            buf
        };
        assert_eq!(bytes(&store), bytes(&fresh));
        let loaded = Store::load_snapshot(bytes(&store).as_slice()).unwrap();
        let root = NodeRef::new(DocId(0), NodeIdx(0));
        assert_eq!(loaded.tag_name(root), Some("a"));
        assert_eq!(loaded.attribute(root, "id"), Some("1"));
        assert_eq!(loaded.elements_with_tag("p").len(), 1);
    }

    #[test]
    fn duplicate_document_name_is_a_typed_error() {
        // Hand-assemble a v1 snapshot carrying the same document twice:
        // structurally valid bytes, so the name registry — not the framing
        // — must catch it, with the offending name in the error.
        let mut store = Store::new();
        store.load_str("dup.xml", "<a>x</a>").unwrap();
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        w_u8(&mut buf, 1).unwrap();
        let symbols = Symbols::of(&store);
        w_interner(&mut buf, &symbols.tags).unwrap();
        w_interner(&mut buf, &symbols.attr_names).unwrap();
        w_count(&mut buf, 2, "document table").unwrap();
        let doc = store.live_docs().next().unwrap().as_ref();
        write_doc(&mut buf, doc, &symbols).unwrap();
        write_doc(&mut buf, doc, &symbols).unwrap();
        match Store::load_snapshot(buf.as_slice()) {
            Err(SnapshotError::DuplicateName(name)) => assert_eq!(name, "dup.xml"),
            other => panic!("expected DuplicateName, got {other:?}"),
        }
    }
}
