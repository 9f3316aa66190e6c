//! The Pick operator — ρ_{P,PC,AD}(C) (Sec. 3.3.2): result-granularity
//! control by redundancy elimination.
//!
//! This module holds the **reference implementation**: a direct, top-down
//! evaluation of the pick criterion. The efficient single-pass stack-based
//! access method of the paper's Fig. 12 lives in `tix-exec::pick` and is
//! differential-tested against this one.

use crate::collection::Collection;
use crate::pattern::{PatternNodeId, ScoreRule};
use crate::scored_tree::ScoredTree;
use crate::scoring::{count_f64, ScoreContext};

use super::apply_derived_rules;

/// A pick criterion `PC`: decides which data IR-nodes are worth returning.
///
/// The decision is *non-local* — "Pick needs information that may reside
/// elsewhere in the data tree" — which is why the trait sees the whole
/// scored tree and the entry's retained children rather than a single node.
pub trait PickCriterion: Send + Sync {
    /// Is this entry itself relevant? (The paper's example: score ≥ 0.8.)
    fn is_relevant(&self, tree: &ScoredTree, idx: usize) -> bool;

    /// Is this entry worth returning, given its retained children?
    /// (The paper's example: more than 50 % of children relevant; for a
    /// leaf, its own relevance.)
    fn is_worth(&self, tree: &ScoredTree, idx: usize, children: &[usize]) -> bool;
}

/// The paper's `PickFoo` (Fig. 9), generalized: an entry is *relevant* when
/// its score reaches `relevance_threshold`; an internal entry is *worth
/// returning* when the fraction of relevant children exceeds `fraction`;
/// a leaf is worth returning when it is itself relevant.
#[derive(Debug, Clone, PartialEq)]
pub struct FractionPick {
    /// Minimum score for a node to count as relevant (paper: 0.8).
    pub relevance_threshold: f64,
    /// Required fraction of relevant children, exclusive (paper: 0.5).
    pub fraction: f64,
}

impl FractionPick {
    /// The exact parameters of the paper's `PickFoo`: threshold 0.8,
    /// fraction 50 %.
    pub fn paper() -> Self {
        FractionPick {
            relevance_threshold: 0.8,
            fraction: 0.5,
        }
    }
}

impl PickCriterion for FractionPick {
    fn is_relevant(&self, tree: &ScoredTree, idx: usize) -> bool {
        tree.entries()
            .get(idx)
            .and_then(|e| e.score)
            .is_some_and(|s| s >= self.relevance_threshold)
    }

    fn is_worth(&self, tree: &ScoredTree, idx: usize, children: &[usize]) -> bool {
        if children.is_empty() {
            return self.is_relevant(tree, idx);
        }
        let relevant = children
            .iter()
            .filter(|&&c| self.is_relevant(tree, c))
            .count();
        count_f64(relevant) / count_f64(children.len()) > self.fraction
    }
}

/// Compute which `var`-bound entries of `tree` are picked, without
/// modifying the tree. Exposed so the stack-based implementation in
/// `tix-exec` can be verified against it.
///
/// Semantics (Sec. 3.3.2): walking top-down (document order guarantees
/// parents precede children), an entry is picked iff the criterion deems it
/// worth returning **and** its direct parent in the tree is not itself
/// picked — the parent/child (vertical) redundancy-elimination rule.
pub fn picked_entries(
    tree: &ScoredTree,
    var: PatternNodeId,
    criterion: &dyn PickCriterion,
) -> Vec<bool> {
    let n = tree.len();
    // children lists in one pass.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, entry) in tree.entries().iter().enumerate() {
        if let Some(p) = entry.parent {
            // lint:allow(no-as-cast): u32 index → usize widening is lossless
            if let Some(list) = children.get_mut(p as usize) {
                list.push(i);
            }
        }
    }
    let mut picked = vec![false; n];
    for (i, entry) in tree.entries().iter().enumerate() {
        if !entry.bound_to(var) {
            continue;
        }
        let parent_picked = entry
            .parent
            // lint:allow(no-as-cast): u32 index → usize widening is lossless
            .is_some_and(|p| picked.get(p as usize).copied().unwrap_or(false));
        let kids: &[usize] = children.get(i).map_or(&[], Vec::as_slice);
        let worth = !parent_picked && criterion.is_worth(tree, i, kids);
        if let Some(slot) = picked.get_mut(i) {
            *slot = worth;
        }
    }
    // §4.3: the picked set must satisfy the vertical exclusivity rule —
    // no picked entry has a picked ancestor.
    tix_invariants::check! {
        tix_invariants::assert_picked_exclusive(
            n,
            |i| picked.get(i).copied().unwrap_or(false),
            |i| {
                tree.entries()
                    .get(i)
                    .and_then(|e| e.parent)
                    // lint:allow(no-as-cast): u32 index → usize widening is lossless
                    .map(|p| p as usize)
            },
        );
    }
    picked
}

/// The Pick operator: in each tree, data IR-nodes bound to `var` that are
/// not picked lose that binding (and their score); entries left with no
/// bindings are removed, with survivors re-linked to their nearest kept
/// ancestor. Secondary scores are then re-derived via `rules` — the
/// "dynamic" score update the paper describes when Pick prunes the
/// `$4`-matching set.
pub fn pick(
    ctx: &ScoreContext<'_>,
    input: &Collection,
    var: PatternNodeId,
    criterion: &dyn PickCriterion,
    rules: &[ScoreRule],
) -> Collection {
    let mut out = Collection::new();
    for tree in input.iter() {
        let picked = picked_entries(tree, var, criterion);
        let mut tree = tree.clone();
        for (i, entry) in tree.entries_mut().iter_mut().enumerate() {
            if entry.bound_to(var) && !picked.get(i).copied().unwrap_or(false) {
                entry.vars.retain(|&v| v != var);
                if entry.vars.is_empty() {
                    // Fully unpicked: marked for removal below.
                    entry.score = None;
                } else {
                    // Still bound as a non-pick variable (e.g. the paper's
                    // article matching both $1 and $4): clear the IR score;
                    // the derived rules below recompute it.
                    entry.score = None;
                }
            }
        }
        tree.retain(|_, entry| !entry.vars.is_empty());
        apply_derived_rules(ctx, &mut tree, rules);
        if !tree.is_empty() {
            out.push(tree);
        }
    }
    out
}

/// Horizontal (sibling) redundancy elimination: among picked `var`-bound
/// entries sharing the same parent and the same class (per `same_class`),
/// keep only the first in document order — the paper's "returning only the
/// first author of the relevant article" example.
// lint:allow(unused-pub): §3.3.2's horizontal Pick, carrying the pick-horizontal-dedup invariant; exercised by its unit tests
pub fn horizontal_pick(
    input: &Collection,
    var: PatternNodeId,
    same_class: impl Fn(&ScoredTree, usize, usize) -> bool,
) -> Collection {
    let mut out = Collection::new();
    for tree in input.iter() {
        let mut tree = tree.clone();
        let n = tree.len();
        let mut drop = vec![false; n];
        for i in 0..n {
            let Some(ei) = tree.entries().get(i) else {
                continue;
            };
            if !ei.bound_to(var) || drop.get(i).copied().unwrap_or(false) {
                continue;
            }
            let ei_parent = ei.parent;
            for (j, drop_j) in drop.iter_mut().enumerate().skip(i + 1) {
                let Some(ej) = tree.entries().get(j) else {
                    continue;
                };
                if ej.bound_to(var) && ej.parent == ei_parent && !*drop_j && same_class(&tree, i, j)
                {
                    *drop_j = true;
                }
            }
        }
        // Sec. 3.3.2 horizontal rule: after elimination, at most one
        // var-bound entry survives per (parent, class) sibling group.
        tix_invariants::check! {
            tix_invariants::assert_horizontal_dedup(
                n,
                |i| {
                    tree.entries().get(i).is_some_and(|e| e.bound_to(var))
                        && !drop.get(i).copied().unwrap_or(false)
                },
                |i, j| {
                    let (Some(ei), Some(ej)) = (tree.entries().get(i), tree.entries().get(j))
                    else {
                        return false;
                    };
                    ei.bound_to(var)
                        && ej.bound_to(var)
                        && ei.parent == ej.parent
                        && same_class(&tree, i, j)
                },
            );
        }
        tree.retain(|i, _| !drop.get(i).copied().unwrap_or(false));
        out.push(tree);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tix_store::{DocId, NodeIdx, NodeRef, Store};

    fn nref(i: u32) -> NodeRef {
        NodeRef::new(DocId(0), NodeIdx(i))
    }

    /// Build the shape of the paper's Fig. 6 in miniature:
    /// root[5.6] → {title[0.6], chap[5.0] → {s1[0.8] → t1[0.8],
    /// s2[0.6] → t2[0.6], s3[3.6] → {p1[0.8], p2[1.4], p3[1.4]}}}.
    fn fig6ish() -> (Store, ScoredTree, PatternNodeId, PatternNodeId) {
        let mut store = Store::new();
        store
            .load_str(
                "t.xml",
                "<root><title/><chap><s1><t1/></s1><s2><t2/></s2>\
                 <s3><p1/><p2/><p3/></s3></chap></root>",
            )
            .unwrap();
        let v1 = PatternNodeId(1); // the structural root variable
        let v4 = PatternNodeId(4); // the IR unit variable
                                   // Node indexes: root=0 title=1 chap=2 s1=3 t1=4 s2=5 t2=6 s3=7
                                   // p1=8 p2=9 p3=10.
        let tree = ScoredTree::from_stored(
            &store,
            vec![
                (nref(0), Some(5.6), vec![v1, v4]),
                (nref(1), Some(0.6), vec![v4]),
                (nref(2), Some(5.0), vec![v4]),
                (nref(3), Some(0.8), vec![v4]),
                (nref(4), Some(0.8), vec![v4]),
                (nref(5), Some(0.6), vec![v4]),
                (nref(6), Some(0.6), vec![v4]),
                (nref(7), Some(3.6), vec![v4]),
                (nref(8), Some(0.8), vec![v4]),
                (nref(9), Some(1.4), vec![v4]),
                (nref(10), Some(1.4), vec![v4]),
            ],
        );
        (store, tree, v1, v4)
    }

    #[test]
    fn picked_set_matches_paper_fig8() {
        let (_store, tree, _v1, v4) = fig6ish();
        let picked = picked_entries(&tree, v4, &FractionPick::paper());
        // Picked: chap (2/3 relevant children), t1 (leaf, parent s1 not
        // picked), p1, p2, p3 (leaves under unpicked s3).
        let picked_idx: Vec<usize> = picked
            .iter()
            .enumerate()
            .filter(|(_, &p)| p)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(picked_idx, vec![2, 4, 8, 9, 10]);
    }

    #[test]
    fn root_not_picked_but_retained_with_recomputed_score() {
        let (store, tree, v1, v4) = fig6ish();
        let ctx = ScoreContext::new(&store);
        let rules = [ScoreRule::FromDescendant {
            node: v1,
            source: v4,
            agg: crate::pattern::Agg::Max,
        }];
        let input = Collection::from_trees(vec![tree]);
        let result = pick(&ctx, &input, v4, &FractionPick::paper(), &rules);
        assert_eq!(result.len(), 1);
        let tree = &result.trees()[0];
        // Root stays ($1), score recomputed to max remaining $4 = 5.0 (the
        // paper's Fig. 8 root: article[5.0]).
        assert_eq!(tree.score(), Some(5.0));
        // Dropped entirely: title, s1, s2, t2, s3.
        assert_eq!(tree.len(), 6); // root, chap, t1, p1, p2, p3
    }

    #[test]
    fn unpicked_intermediate_relinks_children() {
        let (store, tree, v1, v4) = fig6ish();
        let ctx = ScoreContext::new(&store);
        let rules = [ScoreRule::FromDescendant {
            node: v1,
            source: v4,
            agg: crate::pattern::Agg::Max,
        }];
        let input = Collection::from_trees(vec![tree]);
        let result = pick(&ctx, &input, v4, &FractionPick::paper(), &rules);
        let tree = &result.trees()[0];
        // t1 (old parent s1, dropped) must now hang off chap — like the
        // paper's Fig. 8 where section-title #a13 hangs off chapter #a10.
        let chap_pos = tree
            .entries()
            .iter()
            .position(|e| e.source.stored() == Some(nref(2)))
            .unwrap();
        let t1 = tree
            .entries()
            .iter()
            .find(|e| e.source.stored() == Some(nref(4)))
            .unwrap();
        assert_eq!(t1.parent, Some(chap_pos as u32));
    }

    #[test]
    fn all_relevant_leaf_only_tree() {
        let mut store = Store::new();
        store.load_str("t.xml", "<a><b/></a>").unwrap();
        let v = PatternNodeId(4);
        let tree = ScoredTree::from_stored(&store, vec![(nref(1), Some(2.0), vec![v])]);
        let picked = picked_entries(&tree, v, &FractionPick::paper());
        assert_eq!(picked, vec![true]);
    }

    #[test]
    fn irrelevant_leaf_not_picked() {
        let mut store = Store::new();
        store.load_str("t.xml", "<a><b/></a>").unwrap();
        let v = PatternNodeId(4);
        let tree = ScoredTree::from_stored(&store, vec![(nref(1), Some(0.1), vec![v])]);
        let picked = picked_entries(&tree, v, &FractionPick::paper());
        assert_eq!(picked, vec![false]);
    }

    #[test]
    fn parent_child_exclusivity() {
        // Whatever the scores, a picked node's direct children are never
        // picked.
        let (_store, tree, _v1, v4) = fig6ish();
        let picked = picked_entries(&tree, v4, &FractionPick::paper());
        for (i, entry) in tree.entries().iter().enumerate() {
            if let Some(p) = entry.parent {
                assert!(
                    !(picked[i] && picked[p as usize]),
                    "entry {i} and its parent both picked"
                );
            }
        }
    }

    #[test]
    fn horizontal_pick_keeps_first_sibling() {
        let mut store = Store::new();
        store.load_str("t.xml", "<a><au/><au/><x/></a>").unwrap();
        let v = PatternNodeId(2);
        let tree = ScoredTree::from_stored(
            &store,
            vec![
                (nref(0), None, vec![PatternNodeId(1)]),
                (nref(1), None, vec![v]),
                (nref(2), None, vec![v]),
                (nref(3), None, vec![PatternNodeId(3)]),
            ],
        );
        let input = Collection::from_trees(vec![tree]);
        let result = horizontal_pick(&input, v, |tree, i, j| {
            // Same class = same tag.
            let a = tree.entries()[i].source.stored().unwrap();
            let b = tree.entries()[j].source.stored().unwrap();
            store.tag_name(a) == store.tag_name(b)
        });
        let tree = &result.trees()[0];
        // Second <au> dropped; <x> (different var) kept.
        assert_eq!(tree.len(), 3);
    }
}
