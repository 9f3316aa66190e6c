//! A compact owned DOM.
//!
//! Nodes live in a single arena (`Vec<NodeData>`) and are addressed by
//! [`NodeId`]. Sibling order is materialized with first-child/next-sibling
//! links, which keeps each node at a fixed small size regardless of fanout —
//! the same layout trick the store crate uses at database scale.

use std::fmt;

use crate::error::Result;
use crate::reader::{Attribute, Event, Reader};
use crate::writer::Writer;

/// Index of a node within its [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// The arena slot of this node (stable for the document's lifetime).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a DOM node is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// An element with a tag name and attributes.
    Element {
        tag: String,
        attributes: Vec<Attribute>,
    },
    /// A run of character data.
    Text(String),
    /// A comment (`<!-- ... -->`).
    Comment(String),
    /// A processing instruction.
    ProcessingInstruction { target: String, data: String },
}

#[derive(Debug, Clone)]
struct NodeData {
    kind: NodeKind,
    parent: Option<NodeId>,
    first_child: Option<NodeId>,
    last_child: Option<NodeId>,
    next_sibling: Option<NodeId>,
}

/// An owned XML document.
///
/// The document owns an arena of nodes; a virtual root (not part of the XML
/// content) anchors the document element along with any top-level comments
/// and processing instructions.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<NodeData>,
}

/// The virtual root is always arena slot 0.
const VIRTUAL_ROOT: NodeId = NodeId(0);

impl Document {
    /// Create an empty document (virtual root only).
    pub fn new() -> Self {
        Document {
            nodes: vec![NodeData {
                kind: NodeKind::Element {
                    tag: String::new(),
                    attributes: Vec::new(),
                },
                parent: None,
                first_child: None,
                last_child: None,
                next_sibling: None,
            }],
        }
    }

    /// Parse `input` into a DOM.
    pub fn parse(input: &str) -> Result<Self> {
        let mut doc = Document::new();
        let mut reader = Reader::new(input);
        let mut open = vec![VIRTUAL_ROOT];
        loop {
            // The reader rejects unbalanced markup, so the stack never
            // underflows below the virtual root; fall back to it anyway
            // rather than trusting that across crate boundaries.
            let parent = open.last().copied().unwrap_or(VIRTUAL_ROOT);
            match reader.next_event()? {
                Event::Start { tag, attributes } => {
                    let id = doc.append(parent, NodeKind::Element { tag, attributes });
                    open.push(id);
                }
                Event::End { .. } => {
                    if open.len() > 1 {
                        open.pop();
                    }
                }
                Event::Text(text) => {
                    doc.append(parent, NodeKind::Text(text));
                }
                Event::Comment(text) => {
                    doc.append(parent, NodeKind::Comment(text));
                }
                Event::ProcessingInstruction { target, data } => {
                    doc.append(parent, NodeKind::ProcessingInstruction { target, data });
                }
                Event::Eof => return Ok(doc),
            }
        }
    }

    /// Number of nodes, excluding the virtual root.
    pub fn len(&self) -> usize {
        self.nodes.len() - 1
    }

    /// True when the document holds no content nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The document element (the single top-level element), if present.
    pub fn root_element(&self) -> Option<NodeId> {
        self.children(VIRTUAL_ROOT)
            .find(|&id| matches!(self.kind(id), NodeKind::Element { .. }))
    }

    /// Arena access. `NodeId`s are minted densely by [`append`](Self::append)
    /// and arena slots are never removed, so an id is always in range for
    /// the document that created it.
    fn data(&self, id: NodeId) -> &NodeData {
        // lint:allow(no-slice-index): ids are minted densely and never removed
        &self.nodes[id.index()]
    }

    /// Mutable arena access; see [`data`](Self::data) for why this is in
    /// bounds.
    fn data_mut(&mut self, id: NodeId) -> &mut NodeData {
        // lint:allow(no-slice-index): ids are minted densely and never removed
        &mut self.nodes[id.index()]
    }

    /// Append a new node as the last child of `parent` and return its id.
    pub fn append(&mut self, parent: NodeId, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData {
            kind,
            parent: Some(parent),
            first_child: None,
            last_child: None,
            next_sibling: None,
        });
        let parent_data = self.data_mut(parent);
        match parent_data.last_child {
            Some(last) => {
                parent_data.last_child = Some(id);
                self.data_mut(last).next_sibling = Some(id);
            }
            None => {
                parent_data.first_child = Some(id);
                parent_data.last_child = Some(id);
            }
        }
        id
    }

    /// Convenience: append a text node.
    pub fn append_text(&mut self, parent: NodeId, text: &str) -> NodeId {
        self.append(parent, NodeKind::Text(text.to_string()))
    }

    /// The virtual root anchoring all top-level nodes.
    pub fn virtual_root(&self) -> NodeId {
        VIRTUAL_ROOT
    }

    /// The kind of `id`.
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.data(id).kind
    }

    /// Tag name of `id` if it is an element, or `""`.
    pub fn tag(&self, id: NodeId) -> &str {
        match self.kind(id) {
            NodeKind::Element { tag, .. } => tag,
            _ => "",
        }
    }

    /// Attribute `name` of element `id`.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<&str> {
        match self.kind(id) {
            NodeKind::Element { attributes, .. } => attributes
                .iter()
                .find(|a| a.name == name)
                .map(|a| a.value.as_str()),
            _ => None,
        }
    }

    /// Parent of `id` (`None` for the virtual root; the document element's
    /// parent is the virtual root).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.data(id).parent
    }

    /// Iterate over the children of `id` in document order.
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children {
            doc: self,
            next: self.data(id).first_child,
        }
    }

    /// Iterate over `id` and all of its descendants in document order.
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants {
            doc: self,
            next: Some(id),
            top: id,
        }
    }

    /// Concatenated text of all text nodes in the subtree rooted at `id` —
    /// the paper's `alltext()` (Fig. 9).
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        for node in self.descendants(id) {
            if let NodeKind::Text(text) = self.kind(node) {
                out.push_str(text);
            }
        }
        out
    }

    /// Serialize the document (content below the virtual root).
    pub fn to_xml(&self) -> String {
        let mut writer = Writer::new();
        self.write_children(VIRTUAL_ROOT, &mut writer);
        writer.finish()
    }

    fn write_children(&self, id: NodeId, writer: &mut Writer) {
        for child in self.children(id) {
            self.write_node(child, writer);
        }
    }

    fn write_node(&self, id: NodeId, writer: &mut Writer) {
        match self.kind(id) {
            NodeKind::Element { tag, attributes } => {
                if self.data(id).first_child.is_none() {
                    writer.empty_element(tag, attributes);
                } else {
                    writer.start_element(tag, attributes);
                    self.write_children(id, writer);
                    writer.end_element(tag);
                }
            }
            NodeKind::Text(text) => writer.text(text),
            NodeKind::Comment(text) => writer.comment(text),
            NodeKind::ProcessingInstruction { target, data } => writer.pi(target, data),
        }
    }
}

impl Default for Document {
    fn default() -> Self {
        Document::new()
    }
}

/// Iterator over direct children. See [`Document::children`].
pub struct Children<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.next?;
        self.next = self.doc.data(id).next_sibling;
        Some(id)
    }
}

/// Pre-order iterator over a subtree. See [`Document::descendants`].
pub struct Descendants<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
    top: NodeId,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.next?;
        // Pre-order successor: first child, else next sibling of the nearest
        // ancestor (not escaping the subtree root).
        let data = self.doc.data(id);
        self.next = data.first_child.or_else(|| {
            let mut cursor = id;
            loop {
                if cursor == self.top {
                    return None;
                }
                if let Some(sib) = self.doc.data(cursor).next_sibling {
                    return Some(sib);
                }
                cursor = self.doc.data(cursor).parent?;
            }
        });
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_navigate() {
        let doc = Document::parse("<a><b>1</b><c><d>2</d></c></a>").unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.tag(root), "a");
        let kids: Vec<_> = doc.children(root).map(|n| doc.tag(n).to_string()).collect();
        assert_eq!(kids, ["b", "c"]);
    }

    #[test]
    fn descendants_preorder() {
        let doc = Document::parse("<a><b><c/></b><d/></a>").unwrap();
        let root = doc.root_element().unwrap();
        let order: Vec<_> = doc
            .descendants(root)
            .map(|n| doc.tag(n).to_string())
            .collect();
        assert_eq!(order, ["a", "b", "c", "d"]);
    }

    #[test]
    fn descendants_does_not_escape_subtree() {
        let doc = Document::parse("<a><b><c/></b><d/></a>").unwrap();
        let root = doc.root_element().unwrap();
        let b = doc.children(root).next().unwrap();
        let order: Vec<_> = doc.descendants(b).map(|n| doc.tag(n).to_string()).collect();
        assert_eq!(order, ["b", "c"]);
    }

    #[test]
    fn text_content_concatenates() {
        let doc = Document::parse("<a>x<b>y</b>z</a>").unwrap();
        assert_eq!(doc.text_content(doc.root_element().unwrap()), "xyz");
    }

    #[test]
    fn attributes_accessible() {
        let doc = Document::parse(r#"<a id="1"><b id="2"/></a>"#).unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.attribute(root, "id"), Some("1"));
        assert_eq!(doc.attribute(root, "missing"), None);
    }

    #[test]
    fn parents_linked() {
        let doc = Document::parse("<a><b/></a>").unwrap();
        let root = doc.root_element().unwrap();
        let b = doc.children(root).next().unwrap();
        assert_eq!(doc.parent(b), Some(root));
        assert_eq!(doc.parent(root), Some(doc.virtual_root()));
        assert_eq!(doc.parent(doc.virtual_root()), None);
    }

    #[test]
    fn roundtrip_serialization() {
        let source = r#"<a x="1"><b>hi &amp; bye</b><c/></a>"#;
        let doc = Document::parse(source).unwrap();
        let serialized = doc.to_xml();
        let doc2 = Document::parse(&serialized).unwrap();
        assert_eq!(serialized, doc2.to_xml());
    }

    #[test]
    fn build_programmatically() {
        let mut doc = Document::new();
        let vr = doc.virtual_root();
        let element = |tag: &str| NodeKind::Element {
            tag: tag.to_string(),
            attributes: Vec::new(),
        };
        let a = doc.append(vr, element("a"));
        let b = doc.append(a, element("b"));
        doc.append_text(b, "hello");
        assert_eq!(doc.to_xml(), "<a><b>hello</b></a>");
    }

    #[test]
    fn comments_preserved() {
        let doc = Document::parse("<a><!-- note --><b/></a>").unwrap();
        assert_eq!(doc.to_xml(), "<a><!-- note --><b/></a>");
    }
}
