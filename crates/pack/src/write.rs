//! The `TIXPAK` v3 writer and the v2 → v3 converter.
//!
//! Layout (all integers little-endian; every section is the
//! `tix_store::persist` frame `[u32 len][payload][u32 CRC-32]`, and the
//! whole file ends with a 4-byte seal — the CRC-32 of everything before
//! it, magic and version included):
//!
//! ```text
//! "TIXPAK" | version u8 = 3
//! header section:      total_tokens u64 | term_count u32 | block_postings u32
//! dictionary sections (1024 terms each): per term
//!     name_len u32 | name bytes | doc_frequency u32 | node_frequency u32
//!     posting_count u32 | block_count u32
//!     per block: first_doc u32 | last_doc u32 | postings u32
//!                | max_doc_count u32 | byte_len u32
//! block sections, one per block, in (term, block) order:
//!     delta+varint encoded postings (see [`encode_block`])
//! seal u32
//! ```
//!
//! `max_doc_count` is the block-max WAND statistic: the maximum over
//! documents intersecting the block of that document's **total** posting
//! count in the whole list — the whole-list total (not the within-block
//! count) keeps the statistic a sound counter bound when a document's
//! postings straddle block boundaries.

use std::io::Write;

use tix_index::{IndexSnapshotError, InvertedIndex, Posting};
use tix_store::persist::{write_section, SealWriter, SectionError};

use crate::varint::put_u32;

/// Magic prefix of a v3 pack file.
pub const PACK_MAGIC: &[u8] = b"TIXPAK";
/// Current (and only) pack format version.
pub const PACK_VERSION: u8 = 3;
/// Postings per compressed block. 128 keeps blocks around a cache line's
/// worth of decoded work while the per-block metadata stays ~2% of the
/// compressed posting bytes.
pub const BLOCK_POSTINGS: usize = 128;
/// Terms per dictionary section (same grouping as the v2 snapshot).
pub(crate) const TERMS_PER_SECTION: usize = 1024;

fn from_section(err: SectionError) -> IndexSnapshotError {
    match err {
        SectionError::Io(e) => IndexSnapshotError::Io(e),
        SectionError::TooLarge => IndexSnapshotError::TooLarge("section exceeds u32 length"),
        SectionError::Truncated => IndexSnapshotError::Corrupt("truncated section"),
        SectionError::ChecksumMismatch => IndexSnapshotError::Corrupt("section checksum mismatch"),
    }
}

/// Delta+varint encode one block of postings (strictly increasing
/// `(doc, node, offset)` order). The first posting is absolute so every
/// block decodes independently; each subsequent posting stores the doc
/// delta, then — when the doc repeats — the node delta, then — when the
/// node also repeats — the strictly positive offset delta. Fields below
/// a non-zero delta restart as absolute values.
fn encode_block(postings: &[Posting], out: &mut Vec<u8>) {
    let mut prev: Option<Posting> = None;
    for p in postings {
        match prev {
            None => {
                put_u32(out, p.doc.0);
                put_u32(out, p.node.as_u32());
                put_u32(out, p.offset);
            }
            Some(q) => {
                let ddoc = p.doc.0.wrapping_sub(q.doc.0);
                put_u32(out, ddoc);
                if ddoc == 0 {
                    let dnode = p.node.as_u32().wrapping_sub(q.node.as_u32());
                    put_u32(out, dnode);
                    if dnode == 0 {
                        put_u32(out, p.offset.wrapping_sub(q.offset));
                    } else {
                        put_u32(out, p.offset);
                    }
                } else {
                    put_u32(out, p.node.as_u32());
                    put_u32(out, p.offset);
                }
            }
        }
        prev = Some(*p);
    }
}

/// Per-document total posting counts, in document order.
fn doc_totals(postings: &[Posting]) -> Vec<(u32, u32)> {
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for p in postings {
        match runs.last_mut() {
            Some((doc, count)) if *doc == p.doc.0 => *count += 1,
            _ => runs.push((p.doc.0, 1)),
        }
    }
    runs
}

struct BlockMeta {
    first_doc: u32,
    last_doc: u32,
    postings: u32,
    max_doc_count: u32,
    bytes: Vec<u8>,
}

fn encode_term(postings: &[Posting]) -> Result<Vec<BlockMeta>, IndexSnapshotError> {
    let totals = doc_totals(postings);
    let mut blocks = Vec::with_capacity(postings.len().div_ceil(BLOCK_POSTINGS));
    for chunk in postings.chunks(BLOCK_POSTINGS) {
        let (Some(first), Some(last)) = (chunk.first(), chunk.last()) else {
            continue;
        };
        let lo = totals.partition_point(|r| r.0 < first.doc.0);
        let hi = totals.partition_point(|r| r.0 <= last.doc.0);
        let max_doc_count = totals
            .get(lo..hi)
            .unwrap_or(&[])
            .iter()
            .map(|r| r.1)
            .max()
            .unwrap_or(0);
        let mut bytes = Vec::with_capacity(chunk.len() * 3);
        encode_block(chunk, &mut bytes);
        blocks.push(BlockMeta {
            first_doc: first.doc.0,
            last_doc: last.doc.0,
            postings: u32::try_from(chunk.len())
                .map_err(|_| IndexSnapshotError::TooLarge("block posting count"))?,
            max_doc_count,
            bytes,
        });
    }
    Ok(blocks)
}

/// Write `index` as a sealed `TIXPAK` v3 file: its
/// [canonical](InvertedIndex::canonical_lists) view, in dense document ids.
pub fn write_pack(index: &InvertedIndex, w: impl Write) -> Result<(), IndexSnapshotError> {
    let mut w = SealWriter::new(w);
    w.write_all(PACK_MAGIC)?;
    w.write_all(&[PACK_VERSION])?;

    let lists = index.canonical_lists();
    let term_count =
        u32::try_from(lists.len()).map_err(|_| IndexSnapshotError::TooLarge("term count"))?;
    let mut payload = Vec::new();
    payload.extend_from_slice(&index.total_tokens().to_le_bytes());
    payload.extend_from_slice(&term_count.to_le_bytes());
    let block_postings =
        u32::try_from(BLOCK_POSTINGS).map_err(|_| IndexSnapshotError::TooLarge("block size"))?;
    payload.extend_from_slice(&block_postings.to_le_bytes());
    write_section(&mut w, &mut payload).map_err(from_section)?;

    // Encode every term's blocks up front: the dictionary records each
    // block's byte length, so the payloads must exist before the
    // dictionary sections are written.
    let mut terms: Vec<Vec<BlockMeta>> = Vec::with_capacity(lists.len());
    for (_, list) in &lists {
        terms.push(encode_term(list.postings())?);
    }

    for (chunk, lists) in terms
        .chunks(TERMS_PER_SECTION)
        .zip(lists.chunks(TERMS_PER_SECTION))
    {
        for (blocks, (name, list)) in chunk.iter().zip(lists) {
            let name = name.as_bytes();
            payload.extend_from_slice(
                &u32::try_from(name.len())
                    .map_err(|_| IndexSnapshotError::TooLarge("term name"))?
                    .to_le_bytes(),
            );
            payload.extend_from_slice(name);
            payload.extend_from_slice(&list.doc_frequency().to_le_bytes());
            payload.extend_from_slice(&list.node_frequency().to_le_bytes());
            payload.extend_from_slice(
                &u32::try_from(list.postings().len())
                    .map_err(|_| IndexSnapshotError::TooLarge("posting count"))?
                    .to_le_bytes(),
            );
            payload.extend_from_slice(
                &u32::try_from(blocks.len())
                    .map_err(|_| IndexSnapshotError::TooLarge("block count"))?
                    .to_le_bytes(),
            );
            for b in blocks {
                payload.extend_from_slice(&b.first_doc.to_le_bytes());
                payload.extend_from_slice(&b.last_doc.to_le_bytes());
                payload.extend_from_slice(&b.postings.to_le_bytes());
                payload.extend_from_slice(&b.max_doc_count.to_le_bytes());
                payload.extend_from_slice(
                    &u32::try_from(b.bytes.len())
                        .map_err(|_| IndexSnapshotError::TooLarge("block bytes"))?
                        .to_le_bytes(),
                );
            }
        }
        write_section(&mut w, &mut payload).map_err(from_section)?;
    }

    for blocks in &mut terms {
        for b in blocks {
            write_section(&mut w, &mut b.bytes).map_err(from_section)?;
        }
    }

    w.write_seal()?;
    Ok(())
}

/// [`write_pack`] into a fresh byte vector.
pub fn pack_bytes(index: &InvertedIndex) -> Result<Vec<u8>, IndexSnapshotError> {
    let mut out = Vec::new();
    write_pack(index, &mut out)?;
    Ok(out)
}

/// Convert a v1/v2 `TIXIDX` snapshot into sealed v3 `TIXPAK` bytes. The
/// round-trip is exact: loading the result and materializing it back to
/// an [`InvertedIndex`] reproduces the v2 snapshot byte-for-byte.
pub fn convert_v2_to_v3(snapshot: &[u8]) -> Result<Vec<u8>, IndexSnapshotError> {
    let index = InvertedIndex::load_snapshot(snapshot)?;
    pack_bytes(&index)
}
