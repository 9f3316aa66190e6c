//! Scored data trees (Definition 1 of the paper).
//!
//! A [`ScoredTree`] is a *partial* view of stored documents: an ordered set
//! of entries, each referencing a store node (or a synthetic node such as
//! the join operator's `tix_prod_root`), carrying an optional score and the
//! pattern variables it was bound to. Entries are kept in document order
//! with nearest-retained-ancestor parent links, which makes projection
//! output (a sparse "slice" of the document, like the paper's Figure 6)
//! cheap to build and traverse.

use std::fmt;

use tix_store::{NodeRef, Store};

use crate::pattern::PatternNodeId;

/// What a tree entry refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeSource {
    /// A node stored in the database.
    Stored(NodeRef),
    /// A synthesized element (e.g. `tix_prod_root` introduced by the
    /// product/join operator), identified by its tag.
    Synthetic(String),
}

impl NodeSource {
    /// The stored node reference, if any.
    pub fn stored(&self) -> Option<NodeRef> {
        match self {
            NodeSource::Stored(node) => Some(*node),
            NodeSource::Synthetic(_) => None,
        }
    }
}

/// One node of a scored tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeEntry {
    /// The underlying node.
    pub source: NodeSource,
    /// The node's score; `None` for non-IR nodes (the paper's "null" score).
    pub score: Option<f64>,
    /// Index of the nearest retained ancestor within the same tree, if any.
    pub parent: Option<u32>,
    /// Pattern variables this entry was bound to (a node can match several,
    /// e.g. an `article` matching both `$1` and the `ad*` variable `$4`).
    pub vars: Vec<PatternNodeId>,
}

impl TreeEntry {
    /// True when the entry was bound to `var`.
    pub fn bound_to(&self, var: PatternNodeId) -> bool {
        self.vars.contains(&var)
    }
}

/// A scored data tree (strictly: a forest — projection may retain disjoint
/// nodes — though operators usually produce a single root).
///
/// The score of the tree is the score of its root (Definition 1).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScoredTree {
    entries: Vec<TreeEntry>,
    /// Auxiliary named scores that are not attached to a node, e.g. the
    /// join operator's `$joinScore` (Fig. 4 of the paper).
    aux: Vec<(PatternNodeId, f64)>,
}

impl ScoredTree {
    /// Create an empty tree.
    pub fn new() -> Self {
        ScoredTree::default()
    }

    /// Build a tree from `(node, score, vars)` triples of stored nodes.
    ///
    /// The nodes are sorted into document order and linked to their nearest
    /// retained ancestor; duplicates (same stored node) are merged, with
    /// later scores overriding `None` and variable sets unioned.
    pub fn from_stored(
        store: &Store,
        nodes: Vec<(NodeRef, Option<f64>, Vec<PatternNodeId>)>,
    ) -> Self {
        let mut nodes = nodes;
        nodes.sort_by_key(|(node, _, _)| *node);
        // Merge duplicates.
        let mut merged: Vec<(NodeRef, Option<f64>, Vec<PatternNodeId>)> = Vec::new();
        for (node, score, vars) in nodes {
            match merged.last_mut() {
                Some(last) if last.0 == node => {
                    if last.1.is_none() {
                        last.1 = score;
                    }
                    for v in vars {
                        if !last.2.contains(&v) {
                            last.2.push(v);
                        }
                    }
                }
                _ => merged.push((node, score, vars)),
            }
        }
        // Nearest retained ancestor via a stack over document order.
        let mut entries = Vec::with_capacity(merged.len());
        let mut stack: Vec<(NodeRef, u32)> = Vec::new();
        for (node, score, vars) in merged {
            while let Some(&(candidate, _)) = stack.last() {
                if store.is_ancestor(candidate, node) {
                    break;
                }
                stack.pop();
            }
            let parent = stack.last().map(|&(_, idx)| idx);
            let idx = entries.len() as u32;
            entries.push(TreeEntry {
                source: NodeSource::Stored(node),
                score,
                parent,
                vars,
            });
            stack.push((node, idx));
        }
        ScoredTree {
            entries,
            aux: Vec::new(),
        }
    }

    /// Build a single-entry tree for a document root (the initial
    /// collection over a store).
    pub fn document(root: NodeRef) -> Self {
        ScoredTree {
            entries: vec![TreeEntry {
                source: NodeSource::Stored(root),
                score: None,
                parent: None,
                vars: Vec::new(),
            }],
            aux: Vec::new(),
        }
    }

    /// All entries in document order.
    pub fn entries(&self) -> &[TreeEntry] {
        &self.entries
    }

    /// Mutable access for operators in this crate and `tix-exec`.
    pub fn entries_mut(&mut self) -> &mut [TreeEntry] {
        &mut self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the tree has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The first root entry's index, if any.
    pub fn root(&self) -> Option<usize> {
        self.entries.iter().position(|e| e.parent.is_none())
    }

    /// The score of the tree = the score of its (first) root (Def. 1).
    pub fn score(&self) -> Option<f64> {
        self.entries.iter().find(|e| e.parent.is_none())?.score
    }

    /// Entries bound to `var`.
    pub fn bound(&self, var: PatternNodeId) -> impl Iterator<Item = (usize, &TreeEntry)> {
        self.entries
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.bound_to(var))
    }

    /// Highest score among entries bound to `var`.
    pub fn max_score(&self, var: PatternNodeId) -> Option<f64> {
        self.bound(var)
            .filter_map(|(_, e)| e.score)
            .fold(None, |acc, s| Some(acc.map_or(s, |a: f64| a.max(s))))
    }

    /// Attach an auxiliary named score (e.g. `$joinScore`).
    pub fn set_aux(&mut self, var: PatternNodeId, score: f64) {
        if let Some(slot) = self.aux.iter_mut().find(|(v, _)| *v == var) {
            slot.1 = score;
        } else {
            self.aux.push((var, score));
        }
    }

    /// Read an auxiliary named score.
    pub fn aux(&self, var: PatternNodeId) -> Option<f64> {
        self.aux.iter().find(|(v, _)| *v == var).map(|(_, s)| *s)
    }

    /// Remove entries not satisfying `keep`, re-linking the survivors'
    /// parent pointers to their nearest surviving ancestor.
    pub fn retain(&mut self, mut keep: impl FnMut(usize, &TreeEntry) -> bool) {
        let n = self.entries.len();
        let kept: Vec<bool> = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, entry)| keep(i, entry))
            .collect();
        // Map each old index to the nearest kept ancestor (old index).
        // Parents precede their children in document order, so each
        // lookup only consults already-computed prefixes.
        let mut nearest_kept_anc: Vec<Option<u32>> = Vec::with_capacity(n);
        for entry in &self.entries {
            let anc = match entry.parent {
                Some(p) if kept.get(p as usize).copied().unwrap_or(false) => Some(p),
                Some(p) => nearest_kept_anc.get(p as usize).copied().flatten(),
                None => None,
            };
            nearest_kept_anc.push(anc);
        }
        let mut new_index: Vec<Option<u32>> = Vec::with_capacity(n);
        let mut next = 0u32;
        for &k in &kept {
            if k {
                new_index.push(Some(next));
                next += 1;
            } else {
                new_index.push(None);
            }
        }
        let old_entries = std::mem::take(&mut self.entries);
        for ((mut entry, k), anc) in old_entries.into_iter().zip(kept).zip(nearest_kept_anc) {
            if !k {
                continue;
            }
            entry.parent = anc.and_then(|p| new_index.get(p as usize).copied().flatten());
            self.entries.push(entry);
        }
    }

    /// Push an entry (operators building synthetic structures, e.g. join).
    pub fn push_entry(&mut self, entry: TreeEntry) -> usize {
        self.entries.push(entry);
        self.entries.len() - 1
    }

    /// Render the tree as an indented outline for debugging and golden
    /// tests (tags resolved through `store`).
    pub fn outline(&self, store: &Store) -> String {
        let mut out = String::new();
        // Depth of each entry within the retained tree (parents precede
        // children, so each lookup hits an already-filled slot).
        let mut depth: Vec<usize> = Vec::with_capacity(self.entries.len());
        for entry in self.entries.iter() {
            let d = entry
                .parent
                .and_then(|p| depth.get(p as usize).copied())
                .map_or(0, |pd| pd + 1);
            depth.push(d);
            for _ in 0..d {
                out.push_str("  ");
            }
            match &entry.source {
                NodeSource::Stored(node) => {
                    let label = store
                        .tag_name(*node)
                        .map(str::to_string)
                        .unwrap_or_else(|| format!("text({:?})", clip(store.text(*node))));
                    out.push_str(&label);
                }
                NodeSource::Synthetic(tag) => out.push_str(tag),
            }
            if let Some(score) = entry.score {
                out.push_str(&format!("[{score:.1}]"));
            }
            out.push('\n');
        }
        out
    }
}

fn clip(s: &str) -> String {
    s.chars().take(12).collect()
}

impl fmt::Display for ScoredTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ScoredTree({} entries, score {:?})",
            self.entries.len(),
            self.score()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tix_store::{DocId, NodeIdx};

    fn nref(i: u32) -> NodeRef {
        NodeRef::new(DocId(0), NodeIdx(i))
    }

    fn store() -> Store {
        let mut s = Store::new();
        // a=0 [b=1 [c=2] d=3] e=4
        s.load_str("t.xml", "<a><b><c/><d/></b><e/></a>").unwrap();
        s
    }

    #[test]
    fn from_stored_links_nearest_ancestor() {
        let store = store();
        let v = PatternNodeId(1);
        let tree = ScoredTree::from_stored(
            &store,
            vec![
                (nref(2), Some(1.0), vec![v]),
                (nref(0), None, vec![]),
                (nref(4), Some(2.0), vec![v]),
            ],
        );
        // Sorted: a(0), c(2), e(4). c's retained parent is a (b omitted).
        assert_eq!(tree.len(), 3);
        assert_eq!(tree.entries()[0].parent, None);
        assert_eq!(tree.entries()[1].parent, Some(0));
        assert_eq!(tree.entries()[2].parent, Some(0));
    }

    #[test]
    fn duplicates_merged() {
        let store = store();
        let v1 = PatternNodeId(1);
        let v2 = PatternNodeId(2);
        let tree = ScoredTree::from_stored(
            &store,
            vec![(nref(0), None, vec![v1]), (nref(0), Some(3.0), vec![v2])],
        );
        assert_eq!(tree.len(), 1);
        let entry = &tree.entries()[0];
        assert_eq!(entry.score, Some(3.0));
        assert!(entry.bound_to(v1) && entry.bound_to(v2));
    }

    #[test]
    fn tree_score_is_root_score() {
        let store = store();
        let tree = ScoredTree::from_stored(
            &store,
            vec![(nref(0), Some(5.0), vec![]), (nref(1), Some(1.0), vec![])],
        );
        assert_eq!(tree.score(), Some(5.0));
    }

    #[test]
    fn max_score_over_var() {
        let store = store();
        let v = PatternNodeId(4);
        let tree = ScoredTree::from_stored(
            &store,
            vec![
                (nref(1), Some(1.0), vec![v]),
                (nref(2), Some(7.0), vec![v]),
                (nref(4), Some(3.0), vec![]),
            ],
        );
        assert_eq!(tree.max_score(v), Some(7.0));
    }

    #[test]
    fn retain_relinks_parents() {
        let store = store();
        let tree_nodes = vec![
            (nref(0), None, vec![]),
            (nref(1), Some(0.0), vec![]),
            (nref(2), Some(2.0), vec![]),
        ];
        let mut tree = ScoredTree::from_stored(&store, tree_nodes);
        // Drop b (index 1); c should re-link to a.
        tree.retain(|i, _| i != 1);
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.entries()[1].parent, Some(0));
    }

    #[test]
    fn aux_scores() {
        let mut tree = ScoredTree::new();
        let j = PatternNodeId(99);
        assert_eq!(tree.aux(j), None);
        tree.set_aux(j, 2.5);
        assert_eq!(tree.aux(j), Some(2.5));
        tree.set_aux(j, 3.0);
        assert_eq!(tree.aux(j), Some(3.0));
    }

    #[test]
    fn children_of() {
        let store = store();
        let tree = ScoredTree::from_stored(
            &store,
            vec![
                (nref(0), None, vec![]),
                (nref(2), None, vec![]),
                (nref(3), None, vec![]),
                (nref(4), None, vec![]),
            ],
        );
        // c, d, e all link to a (b not retained).
        let parents: Vec<_> = (1..4).map(|i| tree.entries()[i].parent).collect();
        assert_eq!(parents, [Some(0); 3]);
    }

    #[test]
    fn outline_renders() {
        let store = store();
        let tree = ScoredTree::from_stored(
            &store,
            vec![(nref(0), Some(1.5), vec![]), (nref(1), None, vec![])],
        );
        let outline = tree.outline(&store);
        assert!(outline.contains("a[1.5]"));
        assert!(outline.contains("  b"));
    }

    #[test]
    fn forest_allowed() {
        let store = store();
        // Two disjoint retained nodes: c and e (no common retained ancestor).
        let tree = ScoredTree::from_stored(
            &store,
            vec![(nref(2), None, vec![]), (nref(4), None, vec![])],
        );
        assert_eq!(tree.entries()[0].parent, None);
        assert_eq!(tree.entries()[1].parent, None);
    }
}
