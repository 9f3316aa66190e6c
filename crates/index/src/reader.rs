//! The dual-representation index abstraction.
//!
//! PR 10 introduces a second physical index representation (the `TIXPAK`
//! compressed, load-by-reference v3 format in `tix-pack`) next to the
//! in-memory [`InvertedIndex`]. Every score-generating access method in
//! `tix-exec` consumes the index through this trait, so the executor is
//! byte-for-byte agnostic to which representation is behind it — the
//! differential proptests in `crates/pack/tests/differential.rs` hold the
//! two implementations to exactly that bar.
//!
//! The trait is deliberately small: posting access plus the per-term
//! statistics the planner and scorers read. Everything else (snapshot
//! writing, incremental maintenance) stays on the concrete types, because
//! only the in-memory representation supports mutation.

use tix_store::{NodeRef, Store};

use crate::build::InvertedIndex;
use crate::postings::{Posting, PostingList};

/// Skip metadata for one fixed-size block of a compressed posting list
/// (v3 `TIXPAK` format; see `tix-pack`).
///
/// `max_doc_count` is the block-max WAND statistic: the maximum, over
/// documents whose postings *intersect* this block, of that document's
/// **total** posting count for the term across the whole list. The
/// whole-list total (not the within-block count) is what makes the
/// suffix-maximum over unscanned blocks a sound componentwise bound on
/// any unseen node's term-counter vector even when a document's postings
/// straddle a block boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSummary {
    /// First document id with a posting in this block.
    pub first_doc: u32,
    /// Last document id with a posting in this block (the max-DocId skip
    /// entry: a cursor past `last_doc` can skip the whole block).
    pub last_doc: u32,
    /// Number of postings stored in this block.
    pub postings: u32,
    /// Block-max statistic; see the type-level docs.
    pub max_doc_count: u32,
}

/// Per-term statistics as one value (the planner's unit of lookup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TermSummary {
    /// Total occurrences of the term across the collection.
    pub collection_frequency: usize,
    /// Number of distinct documents containing the term.
    pub doc_frequency: u32,
    /// Number of distinct text nodes containing the term.
    pub node_frequency: u32,
}

/// Read-only access to a positional inverted index, independent of the
/// physical representation (in-memory v2 vectors or the compressed
/// load-by-reference v3 `TIXPAK` format).
pub trait IndexReader {
    /// The term's postings in `(doc, node, offset)` order; empty when the
    /// term is absent. Representations may decode lazily behind this call,
    /// but the returned slice is stable for the reader's lifetime.
    fn postings(&self, term: &str) -> &[Posting];

    /// Frequency statistics for `term`, or `None` when absent.
    fn term_summary(&self, term: &str) -> Option<TermSummary>;

    /// Number of distinct terms.
    fn term_count(&self) -> usize;

    /// Total tokens indexed across the collection.
    fn total_tokens(&self) -> u64;

    /// Document frequency of every term, in no particular order (the
    /// planner's selectivity histogram input).
    fn doc_frequencies(&self) -> Vec<u32>;

    /// Per-block skip metadata for `term`, when this representation
    /// carries it (v3 only). `None` disables block-max skipping — never
    /// correctness, only the early exit's tightness.
    fn block_summaries(&self, _term: &str) -> Option<&[BlockSummary]> {
        None
    }

    /// The term's maximum whole-document posting count, when the
    /// representation carries block metadata (v3 only).
    fn max_doc_count(&self, term: &str) -> Option<u32> {
        self.block_summaries(term)
            .map(|blocks| blocks.iter().map(|b| b.max_doc_count).max().unwrap_or(0))
    }

    /// Number of distinct documents containing `term` (0 when absent).
    fn doc_frequency(&self, term: &str) -> u32 {
        self.term_summary(term)
            .map(|s| s.doc_frequency)
            .unwrap_or(0)
    }

    /// Total occurrences of `term` across the collection (0 when absent).
    fn collection_frequency(&self, term: &str) -> usize {
        self.term_summary(term)
            .map(|s| s.collection_frequency)
            .unwrap_or(0)
    }

    /// Inverse document frequency with add-one smoothing:
    /// `ln((1 + N) / (1 + df))`. Identical formula across representations
    /// (byte-identity of scores depends on it).
    fn idf(&self, term: &str, total_docs: usize) -> f64 {
        let df = f64::from(self.doc_frequency(term));
        ((1.0 + total_docs as f64) / (1.0 + df)).ln()
    }

    /// Occurrences of `term` within the subtree rooted at `node`, via two
    /// binary searches over the term's postings (Sec. 4.1's tf within a
    /// returned element).
    fn count_in_subtree(&self, store: &Store, term: &str, node: NodeRef) -> usize {
        let postings = self.postings(term);
        let end = store.end_key(node);
        let lo = postings.partition_point(|p| (p.doc, p.node) < (node.doc, node.node));
        let hi = postings.partition_point(|p| (p.doc, p.node) <= (node.doc, end));
        hi - lo
    }
}

impl IndexReader for InvertedIndex {
    fn postings(&self, term: &str) -> &[Posting] {
        InvertedIndex::postings(self, term)
    }

    fn term_summary(&self, term: &str) -> Option<TermSummary> {
        self.list(term).map(|list| TermSummary {
            collection_frequency: list.collection_frequency(),
            doc_frequency: list.doc_frequency(),
            node_frequency: list.node_frequency(),
        })
    }

    fn term_count(&self) -> usize {
        InvertedIndex::term_count(self)
    }

    fn total_tokens(&self) -> u64 {
        InvertedIndex::total_tokens(self)
    }

    fn doc_frequencies(&self) -> Vec<u32> {
        self.lists().map(PostingList::doc_frequency).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Store, InvertedIndex) {
        let mut store = Store::new();
        store
            .load_str("a.xml", "<a><p>alpha beta alpha</p><p>beta</p></a>")
            .unwrap();
        store.load_str("b.xml", "<a><p>beta</p></a>").unwrap();
        let index = InvertedIndex::build(&store);
        (store, index)
    }

    #[test]
    fn trait_and_inherent_views_agree() {
        let (store, index) = sample();
        let reader: &dyn IndexReader = &index;
        assert_eq!(reader.postings("alpha"), index.postings("alpha"));
        assert_eq!(reader.doc_frequency("beta"), index.doc_frequency("beta"));
        assert_eq!(
            reader.collection_frequency("beta"),
            index.collection_frequency("beta")
        );
        assert_eq!(reader.term_count(), index.term_count());
        assert_eq!(reader.total_tokens(), index.total_tokens());
        assert_eq!(
            reader.idf("beta", 2).to_bits(),
            index.idf("beta", 2).to_bits()
        );
        let root = NodeRef::new(tix_store::DocId(0), tix_store::NodeIdx(0));
        assert_eq!(
            reader.count_in_subtree(&store, "alpha", root),
            index.count_in_subtree(&store, "alpha", root)
        );
        assert!(reader.block_summaries("alpha").is_none());
        assert!(reader.max_doc_count("alpha").is_none());
    }

    #[test]
    fn summary_of_absent_term_is_none() {
        let (_store, index) = sample();
        let reader: &dyn IndexReader = &index;
        assert!(reader.term_summary("absent").is_none());
        assert_eq!(reader.doc_frequency("absent"), 0);
        assert_eq!(reader.collection_frequency("absent"), 0);
    }
}
