//! Database-wide statistics, used by the experiment harness to report the
//! shape of the loaded corpus alongside each table (the paper reports
//! "18 million XML elements with a total size of 500 MB").

use std::fmt;

use crate::node::NodeKind;
use crate::store::Store;

/// Summary statistics over every loaded document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of loaded documents.
    pub documents: usize,
    /// Element nodes across all documents.
    pub elements: usize,
    /// Text nodes across all documents.
    pub text_nodes: usize,
    /// Total bytes of character data.
    pub text_bytes: usize,
    /// Deepest nesting level observed (root = 0).
    pub max_depth: u16,
    /// Sum of every node's nesting level — `level_sum / total_nodes()` is
    /// the average depth, the ancestor-expansion factor the query planner
    /// charges materializing baselines (Comp1, Generalized Meet) for.
    pub level_sum: u64,
    /// Distinct tag names.
    pub distinct_tags: usize,
}

impl StoreStats {
    pub(crate) fn gather(store: &Store) -> Self {
        let mut stats = StoreStats {
            documents: store.doc_count(),
            elements: 0,
            text_nodes: 0,
            text_bytes: 0,
            max_depth: 0,
            level_sum: 0,
            distinct_tags: 0,
        };
        let mut seen_tags = std::collections::HashSet::new();
        for doc in store.live_docs() {
            stats.text_bytes += doc.text_bytes.len();
            for rec in &doc.nodes {
                stats.max_depth = stats.max_depth.max(rec.level());
                stats.level_sum += u64::from(rec.level());
                match rec.kind() {
                    NodeKind::Element => {
                        stats.elements += 1;
                        seen_tags.insert(rec.tag());
                    }
                    NodeKind::Text => stats.text_nodes += 1,
                }
            }
        }
        stats.distinct_tags = seen_tags.len();
        stats
    }

    /// Total stored nodes.
    pub fn total_nodes(&self) -> usize {
        self.elements + self.text_nodes
    }
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} docs, {} elements, {} text nodes ({} bytes of text), \
             {} distinct tags, max depth {}",
            self.documents,
            self.elements,
            self.text_nodes,
            self.text_bytes,
            self.distinct_tags,
            self.max_depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_counts() {
        let mut store = Store::new();
        store.load_str("a.xml", "<a>hi<b><c/>yo</b></a>").unwrap();
        store.load_str("b.xml", "<x/>").unwrap();
        let stats = store.stats();
        assert_eq!(stats.documents, 2);
        assert_eq!(stats.elements, 4); // a, b, c, x
        assert_eq!(stats.text_nodes, 2);
        assert_eq!(stats.text_bytes, 4);
        assert_eq!(stats.max_depth, 2);
        // a=0, hi=1, b=1, c=2, yo=2, x=0.
        assert_eq!(stats.level_sum, 6);
        assert_eq!(stats.distinct_tags, 4);
        assert_eq!(stats.total_nodes(), 6);
    }

    #[test]
    fn display_is_readable() {
        let mut store = Store::new();
        store.load_str("a.xml", "<a/>").unwrap();
        let text = store.stats().to_string();
        assert!(text.contains("1 docs"));
        assert!(text.contains("1 elements"));
    }
}
