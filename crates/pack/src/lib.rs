//! # tix-pack
//!
//! The `TIXPAK` v3 on-disk index format: delta+varint compressed
//! positional postings in fixed-size blocks, each block carrying skip
//! metadata (max DocId) and the block-max WAND statistic
//! (`max_doc_count`), framed
//! with the same per-section CRC-32 + whole-file seal discipline as the
//! v2 snapshot (`tix_store::persist`).
//!
//! The format is **loadable by reference**: [`PackIndex`] keeps the raw
//! file bytes, verifies the whole-file seal with one streaming CRC pass,
//! parses only the header and dictionary (O(#terms + #blocks), no
//! posting decode), and decodes each term's blocks lazily on first
//! access. Server startup therefore does not deserialize the posting
//! data at all — the decode counters ([`PackIndex::decoded_terms`],
//! [`PackIndex::decoded_blocks`]) make that property testable.
//!
//! Correctness bar: a [`PackIndex`] must answer every query
//! **byte-identically** (score bits included) to the uncompressed
//! [`tix_index::InvertedIndex`] it was written from — enforced by the
//! differential proptests in `tests/differential.rs` — and any damaged
//! file must be rejected as `Corrupt` at open, never loaded and never a
//! panic (the whole-file seal is checked before any length field is
//! trusted).

mod read;
mod varint;
mod write;

pub use read::PackIndex;
pub use write::{
    convert_v2_to_v3, pack_bytes, write_pack, BLOCK_POSTINGS, PACK_MAGIC, PACK_VERSION,
};
