//! Index construction and lookup.

use std::borrow::Cow;
use std::collections::HashMap;

use tix_store::{DocId, NodeIdx, NodeKind, NodeRef, Removed, Store, Tombstones};

use crate::postings::{Posting, PostingList, TermId, TermStats};
use crate::tokenize::tokenize;

/// A positional inverted index over every text node in a [`Store`].
///
/// Built once after loading, then maintained per document as the store
/// changes: [`InvertedIndex::add_document`] and
/// [`InvertedIndex::remove_document`] each cost O(document). Postings
/// carry the store's document **slots**; the index mirrors the store's
/// [`Tombstones`] so that every serialization (v2 snapshot, v3 pack)
/// renumbers to dense ids and canonical term order, byte-identical to a
/// from-scratch build over the surviving documents.
#[derive(Debug, Default)]
pub struct InvertedIndex {
    /// Live terms only; a term whose last posting is removed leaves the
    /// dictionary but keeps its (empty) slot in `term_names` / `lists`
    /// until the next compaction.
    dictionary: HashMap<String, TermId>,
    term_names: Vec<String>,
    lists: Vec<PostingList>,
    /// Total tokens indexed (collection length, for scoring normalization).
    total_tokens: u64,
    /// The store's tombstoned slots at the last mutation this index saw.
    tombstones: Tombstones,
}

impl InvertedIndex {
    /// Index every text node of every live document in `store`.
    ///
    /// Word offsets restart at 0 for each document and increase across
    /// text-node boundaries in document order.
    pub fn build(store: &Store) -> Self {
        let mut index = InvertedIndex {
            tombstones: store.tombstones().clone(),
            ..InvertedIndex::default()
        };
        for doc_id in store.doc_ids() {
            index.index_document(store, doc_id);
        }
        index.check_postings_sorted();
        index
    }

    /// [`build`](Self::build), but with per-document posting extraction
    /// fanned out over `threads` workers.
    ///
    /// The result is **identical** to the sequential build — same term-id
    /// assignment, same posting order, byte-identical snapshot — for any
    /// thread count. Extraction records each document's terms in
    /// first-occurrence order; the merge then walks documents in document
    /// order and interns terms in that recorded order, which reproduces
    /// exactly the interleaving the sequential pass would have seen.
    /// `threads <= 1` degrades to a sequential extract-and-merge on the
    /// calling thread.
    pub fn build_with_threads(store: &Store, threads: usize) -> Self {
        let doc_ids: Vec<DocId> = store.doc_ids().collect();
        let extracted = tix_parallel::parallel_map(&doc_ids, threads, |&doc_id| {
            extract_document(store, doc_id)
        });
        let mut index = InvertedIndex {
            tombstones: store.tombstones().clone(),
            ..InvertedIndex::default()
        };
        for doc in extracted {
            index.total_tokens += doc.tokens;
            for (term, postings) in doc.terms {
                let id = index.intern(&term);
                let list = &mut index.lists[id.0 as usize];
                for posting in postings {
                    list.push(posting);
                }
            }
        }
        index.check_postings_sorted();
        index
    }

    /// Incrementally index one newly loaded document — the insert half of
    /// live index maintenance. No other list entry is touched, so the cost
    /// is proportional to the new document's tokens, not the collection.
    ///
    /// `doc_id` must be the **highest** slot in `store` (documents are
    /// appended by `Store::load_str`), so the new postings extend every
    /// affected list at its tail and global `(doc, node, offset)` order is
    /// preserved.
    pub fn add_document(&mut self, store: &Store, doc_id: DocId) {
        tix_invariants::check! {
            assert!(
                store.doc_ids().last() == Some(doc_id),
                "add_document requires the appended (highest) document slot"
            );
        }
        self.index_document(store, doc_id);
        self.check_postings_sorted();
    }

    /// Incrementally un-index a document the store just removed — the
    /// delete half of live index maintenance. Only the removed document
    /// is re-tokenized, and only its own runs are cut from its own terms'
    /// lists (found by binary search on its slot); no other posting is
    /// renumbered. The slot joins the index's tombstones, and when the
    /// store's removal compacted, the index compacts the same way.
    pub fn remove_document(&mut self, removed: Removed) {
        let slot = removed.slot();
        let doc = removed.doc();
        let mut terms: Vec<TermId> = Vec::new();
        for i in 0..doc.len() as u32 {
            let idx = NodeIdx(i);
            if doc.node(idx).kind() == NodeKind::Text {
                for token in tokenize(doc.text(idx)) {
                    terms.extend(self.dictionary.get(&token.term));
                }
            }
        }
        terms.sort_unstable();
        terms.dedup();
        for id in terms {
            let list = &mut self.lists[id.0 as usize];
            self.total_tokens = self
                .total_tokens
                .saturating_sub(list.remove_run(slot) as u64);
            if list.is_empty() {
                self.dictionary.remove(&self.term_names[id.0 as usize]);
            }
        }
        self.tombstones.insert(slot);
        if removed.compacted() {
            self.compact();
        }
        self.check_postings_sorted();
    }

    /// Follow a store compaction: renumber every posting to its dense id,
    /// drop the slots of terms that died, and put the live terms in
    /// canonical order. O(postings), paid once per compaction.
    fn compact(&mut self) {
        let tombstones = std::mem::take(&mut self.tombstones);
        for list in &mut self.lists {
            list.densify(&tombstones);
        }
        let order = self.canonical_order();
        let mut new_id = vec![TermId(u32::MAX); self.lists.len()];
        let mut names = Vec::with_capacity(order.len());
        let mut lists = Vec::with_capacity(order.len());
        for (rank, old) in order.into_iter().enumerate() {
            new_id[old.0 as usize] = TermId(rank as u32);
            names.push(std::mem::take(&mut self.term_names[old.0 as usize]));
            lists.push(std::mem::take(&mut self.lists[old.0 as usize]));
        }
        self.dictionary.retain(|_, id| {
            *id = new_id[id.0 as usize];
            id.0 != u32::MAX
        });
        self.term_names = names;
        self.lists = lists;
    }

    /// Live term ids in canonical order. A sequential
    /// [`InvertedIndex::build`] interns each term when its first
    /// occurrence is scanned, and the scan visits occurrences in
    /// `(doc, node, offset)` order — so rebuild term-id order is exactly
    /// ascending order of each term's first posting. Slots map to dense
    /// ids monotonically, so the order is the same in either numbering;
    /// first postings are unique (one token position holds one term).
    /// The sort is stable and therefore linear when no delete disturbed
    /// the order.
    fn canonical_order(&self) -> Vec<TermId> {
        let mut order: Vec<(Posting, TermId)> = self
            .lists
            .iter()
            .enumerate()
            .filter_map(|(id, list)| Some((*list.postings().first()?, TermId(id as u32))))
            .collect();
        order.sort_by_key(|&(first, _)| first);
        order.into_iter().map(|(_, id)| id).collect()
    }

    /// Every live term with its list, in canonical term order and with
    /// postings in dense document ids — exactly what a from-scratch
    /// [`InvertedIndex::build`] over the surviving documents holds. The
    /// v2 snapshot and v3 pack writers serialize this view, which is why
    /// their bytes never depend on the delete history. Lists are borrowed
    /// when no document is tombstoned, and renumbered copies otherwise.
    pub fn canonical_lists(&self) -> Vec<(&str, Cow<'_, PostingList>)> {
        self.canonical_order()
            .into_iter()
            .map(|id| {
                let list = &self.lists[id.0 as usize];
                let list = if self.tombstones.is_empty() {
                    Cow::Borrowed(list)
                } else {
                    let mut dense = PostingList::from_parts(
                        list.postings().to_vec(),
                        list.doc_frequency(),
                        list.node_frequency(),
                    );
                    dense.densify(&self.tombstones);
                    Cow::Owned(dense)
                };
                (self.term_names[id.0 as usize].as_str(), list)
            })
            .collect()
    }

    /// The store tombstones this index's postings are numbered against
    /// (empty for an index loaded from a snapshot or pack, whose postings
    /// carry dense ids).
    pub fn tombstones(&self) -> &Tombstones {
        &self.tombstones
    }

    /// Debug/check-invariants postcondition: every posting list must be
    /// strictly increasing on `(doc, node, offset)` (Fig. 8's posting
    /// order), which is what `count_in_subtree`'s binary searches and the
    /// merge-based access methods rely on.
    fn check_postings_sorted(&self) {
        tix_invariants::check! {
            for list in &self.lists {
                let ps = list.postings();
                tix_invariants::assert_postings_sorted(ps.len(), |i| {
                    let p = &ps[i];
                    (p.doc.0, p.node.as_u32(), p.offset)
                });
            }
        }
    }

    fn index_document(&mut self, store: &Store, doc_id: DocId) {
        let doc = store.doc(doc_id);
        let mut offset = 0u32;
        for i in 0..doc.len() as u32 {
            let idx = NodeIdx(i);
            if doc.node(idx).kind() != NodeKind::Text {
                continue;
            }
            for token in tokenize(doc.text(idx)) {
                let term_id = self.intern(&token.term);
                self.lists[term_id.0 as usize].push(Posting {
                    doc: doc_id,
                    node: idx,
                    offset,
                });
                offset += 1;
                self.total_tokens += 1;
            }
        }
    }

    /// Assemble an index from per-term lists given in term-id
    /// (first-occurrence) order, as a pack/snapshot loader produces them.
    /// The caller guarantees each list is in canonical posting order and
    /// that the term order matches what a from-scratch rebuild would
    /// intern — both are re-checked under `check-invariants`.
    pub fn from_lists(
        lists: impl IntoIterator<Item = (String, PostingList)>,
        total_tokens: u64,
    ) -> Self {
        let mut index = InvertedIndex::default();
        for (term, list) in lists {
            index.insert_list(term, list);
        }
        index.set_total_tokens(total_tokens);
        index.check_postings_sorted();
        index
    }

    /// Register a fully-built posting list under `term` (snapshot loading).
    pub(crate) fn insert_list(&mut self, term: String, list: PostingList) {
        let id = TermId(self.term_names.len() as u32);
        self.dictionary.insert(term.clone(), id);
        self.term_names.push(term);
        self.lists.push(list);
    }

    /// Restore the collection-length counter (snapshot loading).
    pub(crate) fn set_total_tokens(&mut self, total: u64) {
        self.total_tokens = total;
    }

    fn intern(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.dictionary.get(term) {
            return id;
        }
        let id = TermId(self.term_names.len() as u32);
        self.term_names.push(term.to_string());
        self.dictionary.insert(term.to_string(), id);
        self.lists.push(PostingList::default());
        id
    }

    /// The dictionary id for `term` (case-sensitive on the normalized,
    /// i.e. lowercased, form).
    pub fn term_id(&self, term: &str) -> Option<TermId> {
        self.dictionary.get(term).copied()
    }

    /// Posting list for `term`; empty slice if the term never occurs.
    pub fn postings(&self, term: &str) -> &[Posting] {
        self.list(term).map(PostingList::postings).unwrap_or(&[])
    }

    /// The full posting-list structure for `term`.
    pub fn list(&self, term: &str) -> Option<&PostingList> {
        self.term_id(term).map(|id| &self.lists[id.0 as usize])
    }

    /// Total occurrences of `term` in the collection — the "term frequency"
    /// axis of the paper's Tables 1–4.
    pub fn collection_frequency(&self, term: &str) -> usize {
        self.list(term)
            .map(PostingList::collection_frequency)
            .unwrap_or(0)
    }

    /// Number of distinct documents containing `term`.
    pub fn doc_frequency(&self, term: &str) -> u32 {
        self.list(term).map(PostingList::doc_frequency).unwrap_or(0)
    }

    /// Inverse document frequency with add-one smoothing:
    /// `ln((1 + N) / (1 + df))`.
    pub fn idf(&self, term: &str, total_docs: usize) -> f64 {
        let df = self.doc_frequency(term) as f64;
        ((1.0 + total_docs as f64) / (1.0 + df)).ln()
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.dictionary.len()
    }

    /// Total tokens indexed across the collection.
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// Every live term's posting list, in term-id order.
    pub(crate) fn lists(&self) -> impl Iterator<Item = &PostingList> {
        self.lists.iter().filter(|list| !list.is_empty())
    }

    /// Statistics for every term (workload tooling).
    pub fn term_stats(&self) -> impl Iterator<Item = TermStats> + '_ {
        self.term_names
            .iter()
            .zip(&self.lists)
            .filter(|(_, list)| !list.is_empty())
            .map(|(term, list)| TermStats {
                term: term.clone(),
                collection_frequency: list.collection_frequency(),
                doc_frequency: list.doc_frequency(),
                node_frequency: list.node_frequency(),
            })
    }

    /// Find terms whose collection frequency falls within
    /// `[target - tolerance, target + tolerance]`, sorted by distance from
    /// the target. Used by the benchmark harness to select query terms the
    /// way the paper did ("we kept selecting different pairs of terms ...
    /// with increasing term frequency").
    pub fn terms_with_frequency_near(&self, target: usize, tolerance: usize) -> Vec<TermStats> {
        let mut out: Vec<TermStats> = self
            .term_stats()
            .filter(|s| s.collection_frequency.abs_diff(target) <= tolerance)
            .collect();
        out.sort_by_key(|s| (s.collection_frequency.abs_diff(target), s.term.clone()));
        out
    }

    /// Count occurrences of `term` within the subtree rooted at `node` by
    /// binary-searching the posting list on the region encoding. This is the
    /// `count(term, $a/alltext())` primitive of the paper's `ScoreFoo`
    /// (Fig. 9), evaluated from the index rather than by re-tokenizing.
    pub fn count_in_subtree(&self, store: &Store, term: &str, node: NodeRef) -> usize {
        let postings = self.postings(term);
        let end = store.end_key(node);
        let lo = postings.partition_point(|p| (p.doc, p.node) < (node.doc, node.node));
        let hi = postings.partition_point(|p| (p.doc, p.node) <= (node.doc, end));
        hi - lo
    }
}

/// One document's postings as extracted by a parallel-build worker:
/// `terms` holds the document's distinct terms in first-occurrence order,
/// each with its postings in `(node, offset)` order.
struct DocPostings {
    terms: Vec<(String, Vec<Posting>)>,
    tokens: u64,
}

/// Tokenize one document into per-term posting runs. This is the per-worker
/// half of [`InvertedIndex::build_with_threads`]; it touches only `doc_id`'s
/// nodes, so any number of extractions can run concurrently over a shared
/// `&Store`.
fn extract_document(store: &Store, doc_id: DocId) -> DocPostings {
    let doc = store.doc(doc_id);
    let mut terms: Vec<(String, Vec<Posting>)> = Vec::new();
    let mut slots: HashMap<String, usize> = HashMap::new();
    let mut offset = 0u32;
    let mut tokens = 0u64;
    for i in 0..doc.len() as u32 {
        let idx = NodeIdx(i);
        if doc.node(idx).kind() != NodeKind::Text {
            continue;
        }
        for token in tokenize(doc.text(idx)) {
            let slot = match slots.get(&token.term) {
                Some(&slot) => slot,
                None => {
                    slots.insert(token.term.clone(), terms.len());
                    terms.push((token.term, Vec::new()));
                    terms.len() - 1
                }
            };
            terms[slot].1.push(Posting {
                doc: doc_id,
                node: idx,
                offset,
            });
            offset += 1;
            tokens += 1;
        }
    }
    DocPostings { terms, tokens }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tix_store::Store;

    fn indexed(xml: &str) -> (Store, InvertedIndex) {
        let mut store = Store::new();
        store.load_str("t.xml", xml).unwrap();
        let index = InvertedIndex::build(&store);
        (store, index)
    }

    #[test]
    fn frequencies() {
        let (_, index) = indexed("<a><p>x y x</p><p>x</p></a>");
        assert_eq!(index.collection_frequency("x"), 3);
        assert_eq!(index.collection_frequency("y"), 1);
        assert_eq!(index.collection_frequency("z"), 0);
        assert_eq!(index.term_count(), 2);
        assert_eq!(index.total_tokens(), 4);
    }

    #[test]
    fn offsets_document_wide() {
        let (_, index) = indexed("<a><p>one two</p><p>three</p></a>");
        assert_eq!(index.postings("one")[0].offset, 0);
        assert_eq!(index.postings("two")[0].offset, 1);
        assert_eq!(index.postings("three")[0].offset, 2);
    }

    #[test]
    fn offsets_restart_per_document() {
        let mut store = Store::new();
        store.load_str("a.xml", "<a>alpha</a>").unwrap();
        store.load_str("b.xml", "<a>beta</a>").unwrap();
        let index = InvertedIndex::build(&store);
        assert_eq!(index.postings("alpha")[0].offset, 0);
        assert_eq!(index.postings("beta")[0].offset, 0);
    }

    #[test]
    fn postings_in_document_order() {
        let (_, index) = indexed("<a><p>w</p><q><r>w</r></q><p>w</p></a>");
        let nodes: Vec<u32> = index
            .postings("w")
            .iter()
            .map(|p| p.node.as_u32())
            .collect();
        assert!(nodes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn case_normalization() {
        let (_, index) = indexed("<a>Search SEARCH search</a>");
        assert_eq!(index.collection_frequency("search"), 3);
        assert_eq!(index.collection_frequency("Search"), 0); // lookup is normalized form
    }

    #[test]
    fn doc_frequency_and_idf() {
        let mut store = Store::new();
        store.load_str("a.xml", "<a>common rare</a>").unwrap();
        store.load_str("b.xml", "<a>common</a>").unwrap();
        let index = InvertedIndex::build(&store);
        assert_eq!(index.doc_frequency("common"), 2);
        assert_eq!(index.doc_frequency("rare"), 1);
        assert!(index.idf("rare", 2) > index.idf("common", 2));
    }

    #[test]
    fn count_in_subtree_via_region() {
        // a=0 [p=1 t=2] [q=3 [r=4 t=5] t=6]
        let (store, index) = indexed("<a><p>w</p><q><r>w w</r>w</q></a>");
        let a = NodeRef::new(DocId(0), NodeIdx(0));
        let q = NodeRef::new(DocId(0), NodeIdx(3));
        let p = NodeRef::new(DocId(0), NodeIdx(1));
        assert_eq!(index.count_in_subtree(&store, "w", a), 4);
        assert_eq!(index.count_in_subtree(&store, "w", q), 3);
        assert_eq!(index.count_in_subtree(&store, "w", p), 1);
        assert_eq!(index.count_in_subtree(&store, "missing", a), 0);
    }

    fn snapshot_bytes(index: &InvertedIndex) -> Vec<u8> {
        let mut buf = Vec::new();
        index.save_snapshot(&mut buf).unwrap();
        buf
    }

    #[test]
    fn add_document_matches_rebuild_byte_for_byte() {
        let mut store = Store::new();
        store.load_str("a.xml", "<a><p>alpha beta</p></a>").unwrap();
        store.load_str("b.xml", "<a>gamma alpha</a>").unwrap();
        let mut maintained = InvertedIndex::build(&store);
        let c = store
            .load_str("c.xml", "<a><p>beta delta</p><p>alpha</p></a>")
            .unwrap();
        maintained.add_document(&store, c);
        let rebuilt = InvertedIndex::build(&store);
        assert_eq!(snapshot_bytes(&maintained), snapshot_bytes(&rebuilt));
        assert_eq!(maintained.total_tokens(), rebuilt.total_tokens());
    }

    #[test]
    fn remove_document_matches_rebuild_byte_for_byte() {
        // "zeta" first occurs in the removed document but survives in a
        // later one: the rebuild interns it later, so this exercises the
        // canonical order at write time, the empty-term drop ("only"),
        // and the slot → dense renumbering all at once.
        let mut store = Store::new();
        store.load_str("a.xml", "<a>zeta alpha only</a>").unwrap();
        store.load_str("b.xml", "<a>beta</a>").unwrap();
        store.load_str("c.xml", "<a>alpha zeta</a>").unwrap();
        let mut maintained = InvertedIndex::build(&store);
        let removed = store.remove_document("a.xml").unwrap();
        maintained.remove_document(removed);
        let rebuilt = InvertedIndex::build(&store);
        assert_eq!(snapshot_bytes(&maintained), snapshot_bytes(&rebuilt));
        assert_eq!(maintained.collection_frequency("only"), 0);
        assert_eq!(maintained.term_id("only"), None);
        assert_eq!(maintained.doc_frequency("zeta"), 1);
        assert_eq!(maintained.total_tokens(), rebuilt.total_tokens());
    }

    #[test]
    fn remove_all_documents_empties_the_index() {
        let mut store = Store::new();
        store.load_str("a.xml", "<a>x y</a>").unwrap();
        store.load_str("b.xml", "<a>x</a>").unwrap();
        let mut maintained = InvertedIndex::build(&store);
        for name in ["a.xml", "b.xml"] {
            let id = store.remove_document(name).unwrap();
            maintained.remove_document(id);
        }
        assert_eq!(maintained.term_count(), 0);
        assert_eq!(maintained.total_tokens(), 0);
        assert_eq!(
            snapshot_bytes(&maintained),
            snapshot_bytes(&InvertedIndex::build(&store))
        );
    }

    #[test]
    fn interleaved_maintenance_matches_rebuild() {
        let mut store = Store::new();
        let mut maintained = InvertedIndex::build(&store);
        let steps: Vec<(&str, Option<&str>)> = vec![
            ("d0.xml", Some("<a><p>red green</p></a>")),
            ("d1.xml", Some("<a>blue red</a>")),
            ("d0.xml", None),
            ("d2.xml", Some("<a><p>green green</p><p>yellow</p></a>")),
            ("d3.xml", Some("<a>red</a>")),
            ("d1.xml", None),
            ("d4.xml", Some("<a>blue</a>")),
            ("d3.xml", None),
        ];
        for (name, xml) in steps {
            match xml {
                Some(xml) => {
                    let id = store.load_str(name, xml).unwrap();
                    maintained.add_document(&store, id);
                }
                None => {
                    let id = store.remove_document(name).unwrap();
                    maintained.remove_document(id);
                }
            }
            assert_eq!(
                snapshot_bytes(&maintained),
                snapshot_bytes(&InvertedIndex::build(&store)),
                "after mutating {name}"
            );
        }
    }

    #[test]
    fn terms_with_frequency_near() {
        let (_, index) = indexed("<a><p>x x x x</p><p>y y</p><p>z</p></a>");
        let near2 = index.terms_with_frequency_near(2, 1);
        let names: Vec<_> = near2.iter().map(|s| s.term.as_str()).collect();
        assert_eq!(names, ["y", "z"]); // y exact (dist 0), z dist 1
    }
}
