//! Posting lists and per-term statistics.

use tix_store::{DocId, NodeIdx, NodeRef, Tombstones};

/// Identifies a term in the index's dictionary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

/// One occurrence of a term.
///
/// Postings are ordered by `(doc, node, offset)` — global document order —
/// which is what the single-merge-pass algorithms require.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Posting {
    /// Document of the occurrence.
    pub doc: DocId,
    /// The **text node** containing the occurrence.
    pub node: NodeIdx,
    /// Document-wide word offset of the occurrence (0-based; increments
    /// across text-node boundaries, so adjacency within a node is
    /// `offset` difference 1).
    pub offset: u32,
}

impl Posting {
    /// The occurrence's text node as a store-wide reference.
    pub fn node_ref(&self) -> NodeRef {
        NodeRef::new(self.doc, self.node)
    }
}

/// The occurrences of one term, in global document order.
#[derive(Debug, Clone, Default)]
pub struct PostingList {
    /// The list is `buf[head..]`. Cutting a document's run moves whichever
    /// side of it is shorter, so a run cut from the front (the oldest
    /// document) only advances `head`; the dead prefix is reclaimed once
    /// it outgrows the list.
    buf: Vec<Posting>,
    head: usize,
    /// Number of distinct documents containing the term.
    pub(crate) doc_frequency: u32,
    /// Number of distinct text nodes containing the term.
    pub(crate) node_frequency: u32,
}

impl PartialEq for PostingList {
    fn eq(&self, other: &Self) -> bool {
        self.postings() == other.postings()
            && self.doc_frequency == other.doc_frequency
            && self.node_frequency == other.node_frequency
    }
}

impl Eq for PostingList {}

impl PostingList {
    /// All postings, ordered by `(doc, node, offset)`.
    pub fn postings(&self) -> &[Posting] {
        self.buf.get(self.head..).unwrap_or(&[])
    }

    /// Total occurrences in the collection (collection frequency; this is
    /// the "term frequency" axis of the paper's Tables 1–4).
    pub fn collection_frequency(&self) -> usize {
        self.postings().len()
    }

    /// Number of distinct documents containing the term.
    pub fn doc_frequency(&self) -> u32 {
        self.doc_frequency
    }

    /// Number of distinct text nodes containing the term.
    pub fn node_frequency(&self) -> u32 {
        self.node_frequency
    }

    /// True when the term never occurs.
    pub fn is_empty(&self) -> bool {
        self.postings().is_empty()
    }

    /// Reassemble a list from deserialized parts (snapshot loading). The
    /// caller guarantees document order.
    /// Reassemble a list from postings already in canonical
    /// `(doc, node, offset)` order with precomputed frequencies. For
    /// snapshot/pack loaders only: callers are responsible for the order
    /// and frequency invariants (the loaders validate both before calling).
    pub fn from_sorted_postings(
        postings: Vec<Posting>,
        doc_frequency: u32,
        node_frequency: u32,
    ) -> Self {
        PostingList::from_parts(postings, doc_frequency, node_frequency)
    }

    pub(crate) fn from_parts(
        postings: Vec<Posting>,
        doc_frequency: u32,
        node_frequency: u32,
    ) -> Self {
        PostingList {
            buf: postings,
            head: 0,
            doc_frequency,
            node_frequency,
        }
    }

    /// Incremental-maintenance primitive: drop `doc`'s run of postings,
    /// found by binary search, and update the frequencies from the run
    /// alone. Returns the number of postings removed (= the term's
    /// occurrences in `doc`). No other posting is renumbered, and only the
    /// shorter side of the run is moved.
    pub(crate) fn remove_run(&mut self, doc: DocId) -> usize {
        let list = self.postings();
        // The oldest document's run needs no search at all.
        let lo = match list.first() {
            Some(first) if first.doc >= doc => 0,
            _ => list.partition_point(|p| p.doc < doc),
        };
        let len = list
            .get(lo..)
            .unwrap_or(&[])
            .iter()
            .take_while(|p| p.doc == doc)
            .count();
        let (lo, hi) = (self.head + lo, self.head + lo + len);
        let Some(run) = self.buf.get(lo..hi).filter(|run| !run.is_empty()) else {
            return 0;
        };
        let mut nodes = 1;
        for pair in run.windows(2) {
            if let [a, b] = pair {
                nodes += u32::from(a.node != b.node);
            }
        }
        self.doc_frequency -= 1;
        self.node_frequency -= nodes;
        let removed = hi - lo;
        if lo - self.head < self.buf.len() - hi {
            self.buf.copy_within(self.head..lo, self.head + removed);
            self.head += removed;
        } else {
            self.buf.drain(lo..hi);
        }
        if self.head > 0 && self.head >= self.buf.len() - self.head {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        removed
    }

    /// Renumber every posting's document slot to its dense id. Posting
    /// order and the frequencies are unchanged: the map is monotone.
    pub(crate) fn densify(&mut self, tombstones: &Tombstones) {
        let mut dense = tombstones.densifier();
        for p in self.buf.iter_mut().skip(self.head) {
            p.doc = dense(p.doc);
        }
    }

    pub(crate) fn push(&mut self, posting: Posting) {
        debug_assert!(
            self.postings().last().is_none_or(|last| *last < posting),
            "postings must arrive in document order"
        );
        match self.postings().last() {
            Some(last) if last.doc == posting.doc => {
                if last.node != posting.node {
                    self.node_frequency += 1;
                }
            }
            _ => {
                self.doc_frequency += 1;
                self.node_frequency += 1;
            }
        }
        self.buf.push(posting);
    }
}

/// A snapshot of one term's statistics, for workload tooling and tf·idf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TermStats {
    /// The term.
    pub term: String,
    /// Total occurrences in the collection.
    pub collection_frequency: usize,
    /// Distinct documents containing the term.
    pub doc_frequency: u32,
    /// Distinct text nodes containing the term.
    pub node_frequency: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(doc: u32, node: u32, offset: u32) -> Posting {
        Posting {
            doc: DocId(doc),
            node: NodeIdx(node),
            offset,
        }
    }

    #[test]
    fn frequencies_tracked() {
        let mut list = PostingList::default();
        list.push(p(0, 1, 0));
        list.push(p(0, 1, 5)); // same node
        list.push(p(0, 3, 9)); // new node, same doc
        list.push(p(1, 0, 0)); // new doc
        assert_eq!(list.collection_frequency(), 4);
        assert_eq!(list.doc_frequency(), 2);
        assert_eq!(list.node_frequency(), 3);
    }

    #[test]
    fn remove_run_keeps_the_rest_and_its_frequencies() {
        let all = [
            p(0, 1, 0),
            p(0, 1, 1),
            p(1, 2, 0),
            p(1, 4, 3),
            p(2, 1, 0),
            p(3, 1, 0),
            p(3, 2, 1),
            p(4, 1, 0),
        ];
        // Front, back, and middle runs, an absent document, then the rest.
        for (doc, removed) in [(0, 2), (4, 1), (2, 1), (9, 0), (1, 2), (3, 2)] {
            let mut list = PostingList::default();
            for &q in &all {
                list.push(q);
            }
            let mut expected = PostingList::default();
            for &q in all.iter().filter(|q| q.doc != DocId(doc)) {
                expected.push(q);
            }
            assert_eq!(list.remove_run(DocId(doc)), removed, "doc {doc}");
            assert_eq!(list, expected, "doc {doc}");
        }
        let mut list = PostingList::default();
        for &q in &all {
            list.push(q);
        }
        for doc in 0..5 {
            list.remove_run(DocId(doc));
            let rest: Vec<Posting> = all.iter().copied().filter(|q| q.doc.0 > doc).collect();
            assert_eq!(list.postings(), rest.as_slice(), "after doc {doc}");
        }
        assert!(list.is_empty());
        assert_eq!((list.doc_frequency(), list.node_frequency()), (0, 0));
        list.push(p(7, 0, 0));
        assert_eq!(list.postings(), &[p(7, 0, 0)]);
    }

    #[test]
    fn posting_order_is_document_order() {
        assert!(p(0, 5, 9) < p(1, 0, 0));
        assert!(p(0, 5, 1) < p(0, 5, 2));
        assert!(p(0, 4, 9) < p(0, 5, 0));
    }

    #[test]
    #[should_panic(expected = "document order")]
    #[cfg(debug_assertions)]
    fn out_of_order_push_asserts() {
        let mut list = PostingList::default();
        list.push(p(0, 5, 0));
        list.push(p(0, 1, 0));
    }
}
