//! Collections of scored trees — the values the bulk algebra manipulates.

use tix_store::{NodeIdx, NodeRef, Store};

use crate::scored_tree::ScoredTree;

/// An ordered collection of scored trees. Every TIX operator consumes and
/// produces one of these (algebraic closure, Sec. 3 of the paper).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Collection {
    trees: Vec<ScoredTree>,
}

impl Collection {
    /// The empty collection.
    pub fn new() -> Self {
        Collection::default()
    }

    /// Wrap existing trees.
    pub fn from_trees(trees: Vec<ScoredTree>) -> Self {
        Collection { trees }
    }

    /// The initial collection over a store: one (unscored) tree per loaded
    /// document, rooted at the document element.
    pub fn documents(store: &Store) -> Self {
        Collection {
            trees: store
                .doc_ids()
                .map(|doc| ScoredTree::document(NodeRef::new(doc, NodeIdx(0))))
                .collect(),
        }
    }

    /// The collection holding just one named document's tree.
    pub fn document(store: &Store, name: &str) -> Option<Self> {
        store.doc_by_name(name).map(|doc| Collection {
            trees: vec![ScoredTree::document(NodeRef::new(doc, NodeIdx(0)))],
        })
    }

    /// The trees, in collection order.
    pub fn trees(&self) -> &[ScoredTree] {
        &self.trees
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// True when the collection holds no trees.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Append a tree.
    pub fn push(&mut self, tree: ScoredTree) {
        self.trees.push(tree);
    }

    /// Iterate over the trees.
    pub fn iter(&self) -> std::slice::Iter<'_, ScoredTree> {
        self.trees.iter()
    }

    /// Sort trees by descending root score (`Sortby(score)` in the paper's
    /// extended XQuery); unscored trees sort last. Ties keep collection
    /// order (stable).
    pub fn sort_by_score_desc(&mut self) {
        self.trees.sort_by(|a, b| match (a.score(), b.score()) {
            (Some(x), Some(y)) => y.partial_cmp(&x).unwrap_or(std::cmp::Ordering::Equal),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => std::cmp::Ordering::Equal,
        });
    }
}

impl IntoIterator for Collection {
    type Item = ScoredTree;
    type IntoIter = std::vec::IntoIter<ScoredTree>;

    fn into_iter(self) -> Self::IntoIter {
        self.trees.into_iter()
    }
}

impl FromIterator<ScoredTree> for Collection {
    fn from_iter<I: IntoIterator<Item = ScoredTree>>(iter: I) -> Self {
        Collection {
            trees: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternNodeId;
    use tix_store::DocId;

    #[test]
    fn documents_collection() {
        let mut store = Store::new();
        store.load_str("a.xml", "<a/>").unwrap();
        store.load_str("b.xml", "<b/>").unwrap();
        let c = Collection::documents(&store);
        assert_eq!(c.len(), 2);
        assert_eq!(
            c.trees()[0].entries()[0].source.stored().unwrap().doc,
            DocId(0)
        );
    }

    #[test]
    fn named_document() {
        let mut store = Store::new();
        store.load_str("a.xml", "<a/>").unwrap();
        assert_eq!(Collection::document(&store, "a.xml").unwrap().len(), 1);
        assert!(Collection::document(&store, "zzz.xml").is_none());
    }

    #[test]
    fn sort_by_score() {
        let mut store = Store::new();
        store.load_str("t.xml", "<a><b/><c/></a>").unwrap();
        let mk = |i: u32, score: Option<f64>| {
            ScoredTree::from_stored(
                &store,
                vec![(
                    NodeRef::new(DocId(0), NodeIdx(i)),
                    score,
                    vec![PatternNodeId(1)],
                )],
            )
        };
        let mut c = Collection::from_trees(vec![mk(0, Some(1.0)), mk(1, None), mk(2, Some(5.0))]);
        c.sort_by_score_desc();
        let scores: Vec<_> = c.iter().map(|t| t.score()).collect();
        assert_eq!(scores, vec![Some(5.0), Some(1.0), None]);
    }
}
