//! The store: loaded documents, interners, and the navigation / index API
//! used by every layer above.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::document::{DocData, LoadError};
use crate::interner::{Interner, Symbol};
use crate::node::{DocId, NodeIdx, NodeKind, NodeRef, NO_PARENT};
use crate::stats::StoreStats;

/// Errors raised by [`Store::remove_document`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoveError {
    /// No document is registered under this name.
    NotFound(String),
}

impl fmt::Display for RemoveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoveError::NotFound(name) => write!(f, "no document named {name:?}"),
        }
    }
}

impl std::error::Error for RemoveError {}

/// Why [`Store::from_parts`] refused to assemble a store from snapshot
/// parts. Snapshot bytes are untrusted input, so both conditions are
/// loader errors rather than panics.
#[derive(Debug)]
pub(crate) enum FromPartsError {
    /// Two documents share a registered name.
    DuplicateName(String),
    /// A node references a tag symbol past the interner's table.
    TagOutOfRange,
}

/// The slots of removed documents, in ascending order.
///
/// A [`Store`] gives each document a **slot** ([`DocId`]) at load, in
/// ascending order, and a removal leaves a tombstone rather than
/// renumbering later documents. Live slots therefore keep load order, and
/// the map from a live slot to its **dense id** — its rank among live
/// documents, the id a fresh load of the survivors would assign — is
/// monotone: `slot − (tombstones below it)`. Every byte that leaves the
/// process (snapshots, packs, rendered node ids) uses dense ids.
#[derive(Debug, Clone, Default)]
pub struct Tombstones {
    slots: Vec<u32>,
}

impl Tombstones {
    /// Number of tombstoned slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no slot is tombstoned (slots and dense ids coincide).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The dense id of a live `slot`: its rank among live slots.
    pub fn dense(&self, slot: DocId) -> DocId {
        let below = self.slots.partition_point(|&dead| dead < slot.0);
        // `below` counts distinct slots smaller than `slot.0`, so the
        // difference cannot underflow and `below` fits in a u32.
        DocId(slot.0 - below as u32)
    }

    /// A slot → dense-id map for a walk in slot order (a posting list, an
    /// element list): one binary search per distinct slot, not per call.
    pub fn densifier(&self) -> impl FnMut(DocId) -> DocId + '_ {
        let mut last: Option<(DocId, DocId)> = None;
        move |slot| match last {
            Some((seen, dense)) if seen == slot => dense,
            _ => {
                let dense = self.dense(slot);
                last = Some((slot, dense));
                dense
            }
        }
    }

    /// Tombstone `slot` (a no-op if it already is one).
    pub fn insert(&mut self, slot: DocId) {
        if let Err(at) = self.slots.binary_search(&slot.0) {
            self.slots.insert(at, slot.0);
        }
    }
}

/// A document taken out of a [`Store`] by [`Store::remove_document`]:
/// what a structure kept beside the store (the inverted index) needs to
/// follow the removal in O(document).
#[derive(Debug)]
pub struct Removed {
    slot: DocId,
    dense: DocId,
    doc: Arc<DocData>,
    compacted: bool,
}

impl Removed {
    /// The slot the document occupied (now a tombstone, or gone if the
    /// removal compacted the store).
    pub fn slot(&self) -> DocId {
        self.slot
    }

    /// The dense id the document had just before its removal.
    pub fn dense(&self) -> DocId {
        self.dense
    }

    /// The removed document's data.
    pub fn doc(&self) -> &DocData {
        &self.doc
    }

    /// True when this removal tipped the store past its compaction rule
    /// (more tombstones than live documents) and every slot was
    /// renumbered to its dense id. A follower renumbers the same way,
    /// using the tombstones it held before the compaction.
    pub fn compacted(&self) -> bool {
        self.compacted
    }
}

/// An in-memory XML database: documents, tag index, navigation.
///
/// Documents are held behind [`Arc`]s: loaded document data is immutable
/// (mutations add or remove whole documents), so a copy-on-write
/// [`Store::freeze`] can capture the document table by reference-count
/// bumps alone — the epoch snapshot a non-blocking checkpoint folds from
/// while writers keep mutating the live store.
///
/// Each document lives in a stable slot (see [`Tombstones`]): a removal
/// costs O(document), and compaction back to dense slots is a fixed rule
/// applied inside [`Store::remove_document`].
///
/// See the crate docs for the role this plays in the reproduction.
#[derive(Debug, Default)]
pub struct Store {
    /// Document slots in load order; `None` is a tombstone.
    docs: Vec<Option<Arc<DocData>>>,
    dead: Tombstones,
    by_name: HashMap<String, DocId>,
    tags: Interner,
    attr_names: Interner,
    /// Tag index: `tag_elements[tag.as_u32()]` lists every element with that
    /// tag, in global document order. This is the pattern-tree leaf access
    /// path (the equivalent of TIMBER's element index).
    tag_elements: Vec<Vec<NodeRef>>,
}

impl Store {
    /// Create an empty store.
    pub fn new() -> Self {
        Store::default()
    }

    /// Parse and load `xml` under `name`, in the next slot.
    pub fn load_str(&mut self, name: &str, xml: &str) -> Result<DocId, LoadError> {
        if self.by_name.contains_key(name) {
            return Err(LoadError::DuplicateName(name.to_string()));
        }
        let doc = DocData::load(name, xml, &mut self.tags, &mut self.attr_names)?;
        let id = DocId(self.docs.len() as u32);
        // Extend the tag index with this document's elements, preserving
        // global document order (docs are appended in load order).
        self.tag_elements.resize(self.tags.len(), Vec::new());
        push_elements(&mut self.tag_elements, id, &doc);
        self.by_name.insert(name.to_string(), id);
        self.docs.push(Some(Arc::new(doc)));
        Ok(id)
    }

    /// Remove the document registered under `name`.
    ///
    /// The document's slot becomes a tombstone: no other document is
    /// renumbered, so outstanding [`NodeRef`]s of live documents (and
    /// index postings) stay valid. The cost is the removed document's own
    /// elements, dropped from the tag index by binary search on the slot.
    ///
    /// Compaction is a fixed rule: when tombstones outnumber live
    /// documents, every live slot is renumbered to its dense id in the
    /// same call, which amortizes to O(document) per removal. The
    /// returned [`Removed`] says whether that happened, so a structure
    /// kept beside the store (`tix_index::InvertedIndex`) can follow.
    pub fn remove_document(&mut self, name: &str) -> Result<Removed, RemoveError> {
        let not_found = || RemoveError::NotFound(name.to_string());
        let slot = self.by_name.get(name).copied().ok_or_else(not_found)?;
        let doc = self
            .docs
            .get_mut(slot.0 as usize)
            .and_then(Option::take)
            .ok_or_else(not_found)?;
        self.by_name.remove(name);
        let dense = self.dead.dense(slot);
        let mut tags: Vec<u32> = doc
            .nodes
            .iter()
            .filter(|rec| rec.kind == NodeKind::Element)
            .map(|rec| rec.tag.as_u32())
            .collect();
        tags.sort_unstable();
        tags.dedup();
        for tag in tags {
            if let Some(list) = self.tag_elements.get_mut(tag as usize) {
                let lo = list.partition_point(|n| n.doc < slot);
                let hi = list.partition_point(|n| n.doc <= slot);
                list.drain(lo..hi);
            }
        }
        self.dead.insert(slot);
        let compacted = self.dead.len() > self.doc_count();
        if compacted {
            self.compact();
        }
        Ok(Removed {
            slot,
            dense,
            doc,
            compacted,
        })
    }

    /// Renumber every live slot to its dense id and drop the tombstones.
    /// The interners are left as-is: a symbol that no longer occurs simply
    /// has an empty element list, which keeps every surviving symbol
    /// stable.
    fn compact(&mut self) {
        let dead = std::mem::take(&mut self.dead);
        self.docs.retain(Option::is_some);
        for id in self.by_name.values_mut() {
            *id = dead.dense(*id);
        }
        for list in &mut self.tag_elements {
            let mut dense = dead.densifier();
            for node in list.iter_mut() {
                node.doc = dense(node.doc);
            }
        }
    }

    // ---- documents -------------------------------------------------------

    /// Number of live documents.
    pub fn doc_count(&self) -> usize {
        self.docs.len() - self.dead.len()
    }

    /// The document data for `id`.
    ///
    /// # Panics
    /// Panics if `id` is not a live slot of this store.
    pub fn doc(&self, id: DocId) -> &DocData {
        match self.docs.get(id.0 as usize) {
            Some(Some(doc)) => doc,
            _ => panic!("{id} is not a live document of this store"),
        }
    }

    /// Look up a document by registered name.
    pub fn doc_by_name(&self, name: &str) -> Option<DocId> {
        self.by_name.get(name).copied()
    }

    /// Iterate over every live document's slot, in load order.
    pub fn doc_ids(&self) -> impl Iterator<Item = DocId> + '_ {
        self.docs
            .iter()
            .enumerate()
            .filter(|(_, doc)| doc.is_some())
            .map(|(slot, _)| DocId(slot as u32))
    }

    /// The dense id of the live slot `id`: its rank among live documents,
    /// which is the id a fresh load of the surviving documents (in load
    /// order) gives it. Rendered node ids and every serialization use it.
    pub fn dense_id(&self, id: DocId) -> DocId {
        self.dead.dense(id)
    }

    /// The tombstoned slots.
    pub fn tombstones(&self) -> &Tombstones {
        &self.dead
    }

    /// Total stored nodes across all live documents.
    pub fn node_count(&self) -> usize {
        self.live_docs().map(|doc| doc.len()).sum()
    }

    // ---- node basics ------------------------------------------------------

    /// Kind of `node`.
    pub fn kind(&self, node: NodeRef) -> NodeKind {
        self.doc(node.doc).node(node.node).kind()
    }

    /// Tag name of `node` if it is an element.
    pub fn tag_name(&self, node: NodeRef) -> Option<&str> {
        let rec = self.doc(node.doc).node(node.node);
        match rec.kind() {
            NodeKind::Element => Some(self.tags.resolve(rec.tag())),
            NodeKind::Text => None,
        }
    }

    /// Text payload of a text node (empty for elements).
    pub fn text(&self, node: NodeRef) -> &str {
        self.doc(node.doc).text(node.node)
    }

    /// Attribute value by name.
    pub fn attribute(&self, node: NodeRef, name: &str) -> Option<&str> {
        let sym = self.attr_names.get(name)?;
        self.doc(node.doc).attribute(node.node, sym)
    }

    /// All attributes of `node` as `(name, value)` pairs.
    pub fn attributes(&self, node: NodeRef) -> impl Iterator<Item = (&str, &str)> {
        self.doc(node.doc)
            .attributes(node.node)
            .map(|(sym, value)| (self.attr_names.resolve(sym), value))
    }

    /// End key (preorder number of the last descendant) of `node`.
    pub fn end_key(&self, node: NodeRef) -> NodeIdx {
        self.doc(node.doc).node(node.node).end()
    }

    /// Depth of `node` below its document root (root = 0).
    pub fn level(&self, node: NodeRef) -> u16 {
        self.doc(node.doc).node(node.node).level()
    }

    // ---- navigation --------------------------------------------------------

    /// Parent of `node`, or `None` for a document root.
    pub fn parent(&self, node: NodeRef) -> Option<NodeRef> {
        let rec = self.doc(node.doc).node(node.node);
        if rec.parent == NO_PARENT {
            None
        } else {
            Some(NodeRef::new(node.doc, NodeIdx(rec.parent)))
        }
    }

    /// Iterate `node`'s ancestors from parent up to the document root.
    pub fn ancestors(&self, node: NodeRef) -> Ancestors<'_> {
        Ancestors {
            store: self,
            next: self.parent(node),
        }
    }

    /// True when `anc` is a proper ancestor of `desc`.
    ///
    /// This is the region-encoding containment test the stack algorithms
    /// rely on: `anc.start < desc.start ∧ desc.start ≤ anc.end`.
    pub fn is_ancestor(&self, anc: NodeRef, desc: NodeRef) -> bool {
        anc.doc == desc.doc
            && anc.node < desc.node
            && desc.node.as_u32() <= self.doc(anc.doc).node(anc.node).end
    }

    /// Iterate the direct children of `node` in document order.
    ///
    /// Uses the region encoding: the first child is at `node + 1`, and each
    /// next child follows its predecessor's end key.
    pub fn children(&self, node: NodeRef) -> Children<'_> {
        let rec = self.doc(node.doc).node(node.node);
        let first = node.node.as_u32() + 1;
        Children {
            store: self,
            doc: node.doc,
            next: if first <= rec.end { Some(first) } else { None },
            last: rec.end,
        }
    }

    /// O(1) child count from the child-count index (the *Enhanced TermJoin*
    /// access path — see Tables 2–4 of the paper).
    pub fn child_count(&self, node: NodeRef) -> u32 {
        let rec = self.doc(node.doc).node(node.node);
        match rec.kind() {
            NodeKind::Element => rec.payload,
            NodeKind::Text => 0,
        }
    }

    /// Child count computed by navigating the stored subtree, touching every
    /// descendant record.
    ///
    /// This deliberately models what the paper describes for plain TermJoin
    /// under complex scoring: "a data access to the database is performed
    /// and some navigation is needed to get the number of children". The
    /// speed gap between this and [`Store::child_count`] is what the
    /// Enhanced TermJoin rows in Tables 2–4 measure.
    pub fn count_children_by_navigation(&self, node: NodeRef) -> u32 {
        let doc = self.doc(node.doc);
        let rec = doc.node(node.node);
        let child_level = rec.level + 1;
        let mut count = 0u32;
        for i in node.node.as_u32() + 1..=rec.end {
            if doc.node(NodeIdx(i)).level == child_level {
                count += 1;
            }
        }
        count
    }

    /// Iterate `node` and its whole subtree in document order (preorder).
    pub fn descendants_or_self(&self, node: NodeRef) -> impl Iterator<Item = NodeRef> + '_ {
        let end = self.doc(node.doc).node(node.node).end;
        let doc = node.doc;
        (node.node.as_u32()..=end).map(move |i| NodeRef::new(doc, NodeIdx(i)))
    }

    /// Concatenated text of every text node in `node`'s subtree — the
    /// paper's `alltext()` (Fig. 9).
    pub fn text_content(&self, node: NodeRef) -> String {
        let doc = self.doc(node.doc);
        let rec = doc.node(node.node);
        let mut out = String::new();
        for i in node.node.as_u32()..=rec.end {
            if doc.node(NodeIdx(i)).kind == NodeKind::Text {
                out.push_str(doc.text(NodeIdx(i)));
            }
        }
        out
    }

    // ---- indexes -----------------------------------------------------------

    /// The interned symbol for `tag`, if any element uses it.
    pub fn tag(&self, tag: &str) -> Option<Symbol> {
        self.tags.get(tag)
    }

    /// Every element with tag `tag`, in global document order (the tag
    /// index / element list).
    pub fn elements_with_tag(&self, tag: &str) -> &[NodeRef] {
        match self.tags.get(tag) {
            Some(sym) => self
                .tag_elements
                .get(sym.as_u32() as usize)
                .map(Vec::as_slice)
                .unwrap_or(&[]),
            None => &[],
        }
    }

    /// Iterate over **all** elements of a document in document order by
    /// scanning the node table. This is the access path the Comp2 baseline
    /// is forced through (structural join against the full element list),
    /// which is why its cost is large but flat in Table 1.
    pub fn elements_of(&self, doc: DocId) -> impl Iterator<Item = NodeRef> + '_ {
        self.doc(doc)
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, rec)| rec.kind == NodeKind::Element)
            .map(move |(i, _)| NodeRef::new(doc, NodeIdx(i as u32)))
    }

    /// Serialize the subtree rooted at `node` back to XML (result
    /// rendering for query answers).
    pub fn subtree_xml(&self, node: NodeRef) -> String {
        use tix_xml::{Attribute, Writer};
        let mut writer = Writer::new();
        let doc = self.doc(node.doc);
        // Explicit close-stack over the region encoding.
        let mut open: Vec<(u32, String)> = Vec::new();
        for i in node.node.as_u32()..=doc.node(node.node).end {
            while open.last().is_some_and(|&(end, _)| i > end) {
                if let Some((_, tag)) = open.pop() {
                    writer.end_element(&tag);
                }
            }
            let idx = NodeIdx(i);
            let rec = doc.node(idx);
            match rec.kind() {
                NodeKind::Element => {
                    let tag = self.tags.resolve(rec.tag()).to_string();
                    let attrs: Vec<Attribute> = doc
                        .attributes(idx)
                        .map(|(sym, value)| Attribute {
                            name: self.attr_names.resolve(sym).to_string(),
                            value: value.to_string(),
                        })
                        .collect();
                    if rec.end() == idx {
                        writer.empty_element(&tag, &attrs);
                    } else {
                        writer.start_element(&tag, &attrs);
                        open.push((rec.end().as_u32(), tag));
                    }
                }
                NodeKind::Text => writer.text(doc.text(idx)),
            }
        }
        while let Some((_, tag)) = open.pop() {
            writer.end_element(&tag);
        }
        writer.finish()
    }

    /// Gather database-wide statistics (see [`StoreStats`]).
    pub fn stats(&self) -> StoreStats {
        StoreStats::gather(self)
    }

    /// Every live document, in slot (= dense id) order.
    pub(crate) fn live_docs(&self) -> impl Iterator<Item = &Arc<DocData>> {
        self.docs.iter().flatten()
    }

    /// Freeze the current document set as a copy-on-write epoch snapshot.
    ///
    /// This is O(documents) reference-count bumps plus two interner
    /// clones — no node table, text arena, or attribute data is copied —
    /// so a writer holding the database lock pays microseconds, not a
    /// full-store copy. Only live documents are captured, so the thawed
    /// store numbers them densely — exactly as a fresh load of the
    /// survivors would. The frozen epoch is immune to later mutations: an
    /// insert appends a new slot to the live vec and a remove tombstones
    /// one, neither of which touches the clones captured here.
    pub fn freeze(&self) -> FrozenStore {
        FrozenStore {
            tags: self.tags.clone(),
            attr_names: self.attr_names.clone(),
            docs: self.live_docs().cloned().collect(),
        }
    }

    pub(crate) fn tags_interner(&self) -> &Interner {
        &self.tags
    }

    pub(crate) fn attr_names_interner(&self) -> &Interner {
        &self.attr_names
    }

    /// Rebuild a store from deserialized parts (snapshot loading): the
    /// name map and tag index are reconstructed from the node tables.
    /// Fails if two documents share a name or a tag symbol is out of
    /// range for the interner — snapshot bytes are untrusted input.
    pub(crate) fn from_parts(
        tags: Interner,
        attr_names: Interner,
        docs: Vec<DocData>,
    ) -> Result<Store, FromPartsError> {
        Store::assemble(tags, attr_names, docs.into_iter().map(Arc::new))
    }

    /// A dense store over `docs` (slot = position), with the name map and
    /// tag index built from the node tables.
    fn assemble(
        tags: Interner,
        attr_names: Interner,
        docs: impl IntoIterator<Item = Arc<DocData>>,
    ) -> Result<Store, FromPartsError> {
        let mut store = Store {
            tags,
            attr_names,
            ..Store::default()
        };
        store.tag_elements.resize(store.tags.len(), Vec::new());
        for doc in docs {
            let id = DocId(store.docs.len() as u32);
            if store.by_name.insert(doc.name.clone(), id).is_some() {
                return Err(FromPartsError::DuplicateName(doc.name.clone()));
            }
            if !push_elements(&mut store.tag_elements, id, &doc) {
                return Err(FromPartsError::TagOutOfRange);
            }
            store.docs.push(Some(doc));
        }
        Ok(store)
    }
}

/// Append `doc`'s elements (in slot `id`) to the tag index, in document
/// order. Returns false if a tag symbol lies past the index, which only
/// untrusted snapshot parts can cause.
fn push_elements(tag_elements: &mut [Vec<NodeRef>], id: DocId, doc: &DocData) -> bool {
    for (i, rec) in doc.nodes.iter().enumerate() {
        if rec.kind == NodeKind::Element {
            match tag_elements.get_mut(rec.tag.as_u32() as usize) {
                Some(list) => list.push(NodeRef::new(id, NodeIdx(i as u32))),
                None => return false,
            }
        }
    }
    true
}

/// A copy-on-write epoch snapshot of a [`Store`], captured by
/// [`Store::freeze`] while holding the database lock and consumed
/// **off-lock** by a checkpoint: document ids, node ids, and interner
/// symbols are exactly the live store's at freeze time, so a snapshot or
/// index built from the thawed store is byte-identical to one built from
/// the live store at that instant.
#[derive(Debug, Clone)]
pub struct FrozenStore {
    tags: Interner,
    attr_names: Interner,
    docs: Vec<Arc<DocData>>,
}

impl FrozenStore {
    /// Number of documents in the frozen epoch.
    pub fn doc_count(&self) -> usize {
        self.docs.len()
    }

    /// Reassemble a full [`Store`] (name map and tag index rebuilt) from
    /// the frozen epoch, with dense slots. Runs without any lock on the
    /// live store; the document data itself is shared, not copied.
    ///
    /// # Panics
    /// Unlike snapshot loading, the parts here are trusted by
    /// construction — they came out of a valid live store — so symbols
    /// cannot be out of range and names cannot collide; either would be a
    /// bug in this crate.
    pub fn thaw(&self) -> Store {
        match Store::assemble(
            self.tags.clone(),
            self.attr_names.clone(),
            self.docs.clone(),
        ) {
            Ok(store) => store,
            Err(e) => panic!("a frozen epoch of a valid store failed to reassemble: {e:?}"),
        }
    }
}

/// Iterator over a node's ancestors. See [`Store::ancestors`].
pub struct Ancestors<'a> {
    store: &'a Store,
    next: Option<NodeRef>,
}

impl Iterator for Ancestors<'_> {
    type Item = NodeRef;

    fn next(&mut self) -> Option<NodeRef> {
        let node = self.next?;
        self.next = self.store.parent(node);
        Some(node)
    }
}

/// Iterator over a node's direct children. See [`Store::children`].
pub struct Children<'a> {
    store: &'a Store,
    doc: DocId,
    next: Option<u32>,
    last: u32,
}

impl Iterator for Children<'_> {
    type Item = NodeRef;

    fn next(&mut self) -> Option<NodeRef> {
        let idx = self.next?;
        let node = NodeRef::new(self.doc, NodeIdx(idx));
        let end = self.store.doc(self.doc).node(NodeIdx(idx)).end;
        self.next = if end < self.last { Some(end + 1) } else { None };
        Some(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(xml: &str) -> (Store, DocId) {
        let mut store = Store::new();
        let doc = store.load_str("t.xml", xml).unwrap();
        (store, doc)
    }

    fn nref(doc: DocId, i: u32) -> NodeRef {
        NodeRef::new(doc, NodeIdx(i))
    }

    #[test]
    fn children_iteration_skips_subtrees() {
        // a=0, b=1, c=2, d=3, e=4 — a's children are b and d.
        let (store, doc) = store_with("<a><b><c/></b><d><e/></d></a>");
        let kids: Vec<_> = store
            .children(nref(doc, 0))
            .map(|n| store.tag_name(n).unwrap().to_string())
            .collect();
        assert_eq!(kids, ["b", "d"]);
    }

    #[test]
    fn leaf_has_no_children() {
        let (store, doc) = store_with("<a><b/></a>");
        assert_eq!(store.children(nref(doc, 1)).count(), 0);
    }

    #[test]
    fn ancestors_bottom_up() {
        let (store, doc) = store_with("<a><b><c/></b></a>");
        let ancs: Vec<_> = store
            .ancestors(nref(doc, 2))
            .map(|n| store.tag_name(n).unwrap().to_string())
            .collect();
        assert_eq!(ancs, ["b", "a"]);
    }

    #[test]
    fn is_ancestor_matches_region_encoding() {
        let (store, doc) = store_with("<a><b><c/></b><d/></a>");
        let a = nref(doc, 0);
        let b = nref(doc, 1);
        let c = nref(doc, 2);
        let d = nref(doc, 3);
        assert!(store.is_ancestor(a, b));
        assert!(store.is_ancestor(a, c));
        assert!(store.is_ancestor(b, c));
        assert!(store.is_ancestor(a, d));
        assert!(!store.is_ancestor(b, d));
        assert!(!store.is_ancestor(c, b));
        assert!(!store.is_ancestor(a, a)); // proper
    }

    #[test]
    fn cross_document_never_related() {
        let mut store = Store::new();
        let d1 = store.load_str("a.xml", "<a><b/></a>").unwrap();
        let d2 = store.load_str("b.xml", "<a><b/></a>").unwrap();
        assert!(!store.is_ancestor(nref(d1, 0), nref(d2, 1)));
    }

    #[test]
    fn tag_index_global_document_order() {
        let mut store = Store::new();
        let d1 = store.load_str("a.xml", "<a><p/><q/><p/></a>").unwrap();
        let d2 = store.load_str("b.xml", "<a><p/></a>").unwrap();
        let ps = store.elements_with_tag("p");
        assert_eq!(ps, &[nref(d1, 1), nref(d1, 3), nref(d2, 1)]);
        assert!(store.elements_with_tag("nosuch").is_empty());
    }

    #[test]
    fn child_count_index_vs_navigation_agree() {
        let (store, doc) = store_with("<a><b><c/><d/></b><e>t</e><f/></a>");
        for i in 0..store.doc(doc).len() as u32 {
            let n = nref(doc, i);
            assert_eq!(
                store.child_count(n),
                store.count_children_by_navigation(n),
                "node {i}"
            );
        }
        assert_eq!(store.child_count(nref(doc, 0)), 3);
    }

    #[test]
    fn text_content_is_alltext() {
        let (store, doc) = store_with("<a>x<b>y<c>z</c></b>w</a>");
        assert_eq!(store.text_content(nref(doc, 0)), "xyzw");
        assert_eq!(store.text_content(nref(doc, 2)), "yz");
    }

    #[test]
    fn doc_lookup_by_name() {
        let mut store = Store::new();
        let id = store.load_str("articles.xml", "<a/>").unwrap();
        assert_eq!(store.doc_by_name("articles.xml"), Some(id));
        assert_eq!(store.doc_by_name("other.xml"), None);
        assert!(matches!(
            store.load_str("articles.xml", "<b/>"),
            Err(LoadError::DuplicateName(_))
        ));
    }

    #[test]
    fn remove_document_tombstones_its_slot() {
        let mut store = Store::new();
        store.load_str("a.xml", "<a><p/></a>").unwrap();
        store.load_str("b.xml", "<b><p/><p/></b>").unwrap();
        store.load_str("c.xml", "<a><p/></a>").unwrap();
        let removed = store.remove_document("b.xml").unwrap();
        assert_eq!(removed.slot(), DocId(1));
        assert_eq!(removed.dense(), DocId(1));
        assert!(!removed.compacted());
        assert_eq!(store.doc_count(), 2);
        // No other document moves: c.xml keeps slot 2, dense id 1.
        assert_eq!(store.doc_by_name("a.xml"), Some(DocId(0)));
        assert_eq!(store.doc_by_name("c.xml"), Some(DocId(2)));
        assert_eq!(store.dense_id(DocId(2)), DocId(1));
        assert_eq!(store.doc_by_name("b.xml"), None);
        assert_eq!(store.doc_ids().collect::<Vec<_>>(), [DocId(0), DocId(2)]);
        // Tag index reflects only the surviving documents.
        assert_eq!(
            store.elements_with_tag("p"),
            &[nref(DocId(0), 1), nref(DocId(2), 1)]
        );
        // The name can be reused after removal, in a fresh slot.
        let reused = store.load_str("b.xml", "<b>back</b>").unwrap();
        assert_eq!(reused, DocId(3));
        assert_eq!(store.dense_id(reused), DocId(2));
    }

    #[test]
    fn compaction_renumbers_once_tombstones_outnumber_live_documents() {
        let mut store = Store::new();
        for name in ["a.xml", "b.xml", "c.xml", "d.xml"] {
            store.load_str(name, "<a><p/></a>").unwrap();
        }
        assert!(!store.remove_document("a.xml").unwrap().compacted());
        assert!(!store.remove_document("c.xml").unwrap().compacted());
        assert_eq!(store.tombstones().len(), 2);
        // Three dead against one live: the fixed rule compacts.
        let removed = store.remove_document("b.xml").unwrap();
        assert!(removed.compacted());
        assert_eq!((removed.slot(), removed.dense()), (DocId(1), DocId(0)));
        assert!(store.tombstones().is_empty());
        assert_eq!(store.doc_by_name("d.xml"), Some(DocId(0)));
        assert_eq!(store.elements_with_tag("p"), &[nref(DocId(0), 1)]);
        assert_eq!(store.load_str("e.xml", "<e/>").unwrap(), DocId(1));
    }

    #[test]
    fn snapshot_after_removals_matches_a_fresh_load_of_the_survivors() {
        let docs = [
            ("a.xml", "<a x=\"1\"><p>one</p></a>"),
            ("b.xml", "<a x=\"2\"><p>two</p><p/></a>"),
            ("c.xml", "<a x=\"3\"><p>three</p></a>"),
        ];
        let mut store = Store::new();
        for (name, xml) in docs {
            store.load_str(name, xml).unwrap();
        }
        store.remove_document("b.xml").unwrap();
        let mut fresh = Store::new();
        for (name, xml) in [docs[0], docs[2]] {
            fresh.load_str(name, xml).unwrap();
        }
        let snapshot = |store: &Store| {
            let mut bytes = Vec::new();
            store.save_snapshot(&mut bytes).unwrap();
            bytes
        };
        assert_eq!(snapshot(&store), snapshot(&fresh));
        assert_eq!(snapshot(&store.freeze().thaw()), snapshot(&fresh));
    }

    #[test]
    fn remove_document_unknown_name_is_typed() {
        let mut store = Store::new();
        store.load_str("a.xml", "<a/>").unwrap();
        assert_eq!(
            store.remove_document("nope.xml").err(),
            Some(RemoveError::NotFound("nope.xml".to_string()))
        );
        assert_eq!(store.doc_count(), 1);
    }

    #[test]
    fn remove_last_document_leaves_empty_store() {
        let mut store = Store::new();
        store.load_str("only.xml", "<a><b/>text</a>").unwrap();
        store.remove_document("only.xml").unwrap();
        assert_eq!(store.doc_count(), 0);
        assert_eq!(store.node_count(), 0);
        assert!(store.elements_with_tag("a").is_empty());
        assert!(store.elements_with_tag("b").is_empty());
    }

    #[test]
    fn freeze_is_isolated_from_later_mutations() {
        let mut store = Store::new();
        store.load_str("a.xml", "<a><p/></a>").unwrap();
        store.load_str("b.xml", "<b><p/><p/></b>").unwrap();
        let frozen = store.freeze();
        // Mutate the live store after the freeze: remove (a tombstone)
        // and insert must not leak into the epoch.
        store.remove_document("a.xml").unwrap();
        store.load_str("c.xml", "<c><p/></c>").unwrap();
        let thawed = frozen.thaw();
        assert_eq!(thawed.doc_count(), 2);
        assert_eq!(thawed.doc_by_name("a.xml"), Some(DocId(0)));
        assert_eq!(thawed.doc_by_name("b.xml"), Some(DocId(1)));
        assert_eq!(thawed.elements_with_tag("p").len(), 3);
        assert_eq!(thawed.doc_by_name("c.xml"), None);
        // And the live store moved on independently.
        assert_eq!(store.doc_by_name("a.xml"), None);
        assert_eq!(store.doc_by_name("c.xml"), Some(DocId(2)));
        // A freeze captures live documents only, so its thaw is dense.
        let dense = store.freeze().thaw();
        assert_eq!(dense.doc_by_name("b.xml"), Some(DocId(0)));
        assert_eq!(dense.doc_by_name("c.xml"), Some(DocId(1)));
        assert!(dense.tombstones().is_empty());
    }

    #[test]
    fn thawed_snapshot_is_byte_identical_to_freeze_time_store() {
        let mut store = Store::new();
        store
            .load_str("a.xml", "<a id=\"1\"><p>text</p></a>")
            .unwrap();
        store.load_str("b.xml", "<b><q/>tail</b>").unwrap();
        let mut at_freeze = Vec::new();
        store.save_snapshot(&mut at_freeze).unwrap();
        let frozen = store.freeze();
        store.load_str("c.xml", "<c/>").unwrap();
        let mut thawed_bytes = Vec::new();
        frozen.thaw().save_snapshot(&mut thawed_bytes).unwrap();
        assert_eq!(at_freeze, thawed_bytes);
    }

    #[test]
    fn attributes_via_store() {
        let (store, doc) = store_with(r#"<a id="1"><b id="2" class="x"/></a>"#);
        assert_eq!(store.attribute(nref(doc, 0), "id"), Some("1"));
        assert_eq!(store.attribute(nref(doc, 1), "class"), Some("x"));
        assert_eq!(store.attribute(nref(doc, 1), "missing"), None);
        let all: Vec<_> = store.attributes(nref(doc, 1)).collect();
        assert_eq!(all, vec![("id", "2"), ("class", "x")]);
    }

    #[test]
    fn elements_of_scans_in_order() {
        let (store, doc) = store_with("<a>t<b/>u<c/></a>");
        let elems: Vec<_> = store
            .elements_of(doc)
            .map(|n| store.tag_name(n).unwrap().to_string())
            .collect();
        assert_eq!(elems, ["a", "b", "c"]);
    }

    #[test]
    fn subtree_xml_roundtrip() {
        let (store, doc) = store_with(r#"<a x="1">hi<b><c/>there</b><d/></a>"#);
        assert_eq!(
            store.subtree_xml(nref(doc, 0)),
            r#"<a x="1">hi<b><c/>there</b><d/></a>"#
        );
        assert_eq!(store.subtree_xml(nref(doc, 2)), "<b><c/>there</b>");
        assert_eq!(store.subtree_xml(nref(doc, 3)), "<c/>");
    }

    #[test]
    fn descendants_or_self_order() {
        let (store, doc) = store_with("<a><b><c/></b><d/></a>");
        let order: Vec<_> = store
            .descendants_or_self(nref(doc, 1))
            .map(|n| n.node.as_u32())
            .collect();
        assert_eq!(order, [1, 2]);
    }
}
