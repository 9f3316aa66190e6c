//! Node identity and the region-encoded node record.

use std::fmt;

use crate::interner::Symbol;

/// Identifies a document within a [`crate::Store`]: its **slot**, stable
/// until a compaction (see [`crate::Tombstones`]). Displayed as `d<n>`;
/// rendered output passes it through [`crate::Store::dense_id`] first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u32);

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Index of a node within its document.
///
/// Nodes are stored in preorder, so a `NodeIdx` doubles as the node's
/// *start key*: comparing `NodeIdx`es compares document positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeIdx(pub u32);

impl NodeIdx {
    /// The underlying preorder number.
    pub fn as_u32(self) -> u32 {
        self.0
    }

    /// Array index into the document's node table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A node address that is unique across the whole store.
///
/// Ordering is `(doc, node)` — i.e. global document order — which is the
/// order posting lists and element lists are kept in, and the order the
/// stack-based merge algorithms require.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef {
    /// The containing document.
    pub doc: DocId,
    /// The node within the document.
    pub node: NodeIdx,
}

impl NodeRef {
    /// Build a reference from its parts.
    pub fn new(doc: DocId, node: NodeIdx) -> Self {
        NodeRef { doc, node }
    }
}

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.doc, self.node)
    }
}

/// What a stored node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An element; `tag` is meaningful.
    Element,
    /// A text node; `payload` indexes the document's text table.
    Text,
}

/// Sentinel parent value for the document root.
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// The fixed-size record stored per node.
///
/// `start` is implicit (a node's index in the node table *is* its preorder
/// number), keeping the record at 16 bytes + tag/kind packing. The record
/// stores:
///
/// * `end` — preorder number of the node's last descendant (== own index
///   for leaves), giving the region encoding together with the index;
/// * `parent` — parent's preorder number (`NO_PARENT` for the root);
/// * `level` — depth (root = 0), needed for parent-child structural joins;
/// * `tag` — interned tag name (elements) — unused for text nodes;
/// * `payload` — for elements the **child count** (element + text children),
///   maintained at load time as the Enhanced-TermJoin index; for text nodes
///   the index into the document's text-range table.
#[derive(Debug, Clone, Copy)]
pub struct NodeRec {
    pub(crate) end: u32,
    pub(crate) parent: u32,
    pub(crate) level: u16,
    pub(crate) kind: NodeKind,
    pub(crate) tag: Symbol,
    pub(crate) payload: u32,
}

impl NodeRec {
    /// Preorder number of this node's last descendant.
    pub fn end(&self) -> NodeIdx {
        NodeIdx(self.end)
    }

    /// Depth below the document root (root = 0).
    pub fn level(&self) -> u16 {
        self.level
    }

    /// Element or text.
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// Interned tag (elements only; garbage for text nodes).
    pub fn tag(&self) -> Symbol {
        self.tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noderef_orders_by_doc_then_node() {
        let a = NodeRef::new(DocId(0), NodeIdx(9));
        let b = NodeRef::new(DocId(1), NodeIdx(0));
        let c = NodeRef::new(DocId(1), NodeIdx(4));
        assert!(a < b && b < c);
    }

    #[test]
    fn display_forms() {
        let n = NodeRef::new(DocId(2), NodeIdx(17));
        assert_eq!(n.to_string(), "d2#17");
    }

    #[test]
    fn record_size_is_compact() {
        // 18M nodes at full scale must stay cache- and memory-friendly.
        assert!(std::mem::size_of::<NodeRec>() <= 24);
    }
}
