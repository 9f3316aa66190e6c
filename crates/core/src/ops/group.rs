//! TAX-style grouping (inherited from the algebra TIX extends).
//!
//! The paper uses grouping once, to *define* rank-based thresholding
//! (Sec. 3.3.1): "[K-based thresholding] requires a grouping on the data
//! IR-nodes using an empty grouping basis with the ordering function based
//! on the score. A projection is then applied to retain the leftmost K
//! subtrees, which correspond to the top-K results." This module makes
//! that construction executable, and the unit tests verify it is
//! equivalent to the dedicated Threshold operator.

use crate::collection::Collection;
use crate::pattern::PatternNodeId;
use crate::scored_tree::{NodeSource, ScoredTree, TreeEntry};

/// The tag of the synthesized group root.
pub const GROUP_ROOT_TAG: &str = "tix_group_root";

/// Group with an **empty grouping basis**: every input tree becomes a
/// subtree of one synthetic group root (bound to `group_var`), ordered by
/// descending score of each tree's best `var`-bound entry. Trees without a
/// scored `var` binding sort last, in input order.
// lint:allow(unused-pub): §3.3.1 defines K-thresholding through this grouping; the tests check it against `threshold`
pub fn group_order_by_score(
    input: &Collection,
    var: PatternNodeId,
    group_var: PatternNodeId,
) -> ScoredTree {
    let mut order: Vec<usize> = (0..input.len()).collect();
    let key = |i: usize| input.trees().get(i).and_then(|t| t.max_score(var));
    order.sort_by(|&a, &b| match (key(a), key(b)) {
        (Some(x), Some(y)) => y.partial_cmp(&x).unwrap_or(std::cmp::Ordering::Equal),
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => a.cmp(&b),
    });
    let mut grouped = ScoredTree::new();
    grouped.push_entry(TreeEntry {
        source: NodeSource::Synthetic(GROUP_ROOT_TAG.to_string()),
        score: None,
        parent: None,
        vars: vec![group_var],
    });
    for i in order {
        let Some(tree) = input.trees().get(i) else {
            continue;
        };
        let offset = grouped.len() as u32;
        for entry in tree.entries() {
            let mut entry = entry.clone();
            entry.parent = Some(match entry.parent {
                Some(p) => p + offset,
                None => 0,
            });
            grouped.push_entry(entry);
        }
    }
    grouped
}

/// The complementary projection: split a grouped tree back into its
/// member subtrees, keeping only the **leftmost `k`** (the top-K results
/// when the group was score-ordered).
// lint:allow(unused-pub): §3.3.1's projection half of K-thresholding; the tests check it against `threshold`
pub fn retain_leftmost(grouped: &ScoredTree, k: usize) -> Collection {
    let mut out = Collection::new();
    // Member subtrees are the children of entry 0, in entry order.
    let mut member_starts: Vec<usize> = grouped
        .entries()
        .iter()
        .enumerate()
        .skip(1)
        .filter(|(_, e)| e.parent == Some(0))
        .map(|(i, _)| i)
        .collect();
    member_starts.truncate(k);
    for &start in &member_starts {
        // A member spans from its root entry to the next entry whose parent
        // chain does not include it; since grafting kept each input tree
        // contiguous, the member is the maximal contiguous run of entries
        // whose ancestor chain reaches `start`.
        let mut members = vec![start];
        for i in (start + 1)..grouped.len() {
            let mut cursor = grouped.entries().get(i).and_then(|e| e.parent);
            let mut inside = false;
            while let Some(p) = cursor {
                if p as usize == start {
                    inside = true;
                    break;
                }
                if p == 0 {
                    break;
                }
                cursor = grouped.entries().get(p as usize).and_then(|e| e.parent);
            }
            if inside {
                members.push(i);
            } else {
                break;
            }
        }
        let mut tree = ScoredTree::new();
        for &m in &members {
            let Some(entry) = grouped.entries().get(m) else {
                continue;
            };
            let mut entry = entry.clone();
            entry.parent = entry.parent.and_then(|p| {
                members
                    .iter()
                    .position(|&x| x == p as usize)
                    .map(|pos| pos as u32)
            });
            tree.push_entry(entry);
        }
        out.push(tree);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{threshold, ThresholdCond};
    use tix_store::{DocId, NodeIdx, NodeRef, Store};

    fn fixture() -> (Store, Collection, PatternNodeId) {
        let mut store = Store::new();
        store.load_str("t.xml", "<a><b/><c/><d/><e/></a>").unwrap();
        let var = PatternNodeId(4);
        let mk = |i: u32, score: f64| {
            ScoredTree::from_stored(
                &store,
                vec![(NodeRef::new(DocId(0), NodeIdx(i)), Some(score), vec![var])],
            )
        };
        let coll = Collection::from_trees(vec![mk(1, 0.5), mk(2, 2.0), mk(3, 5.0), mk(4, 1.0)]);
        (store, coll, var)
    }

    #[test]
    fn grouping_orders_by_score() {
        let (_s, input, var) = fixture();
        let grouped = group_order_by_score(&input, var, PatternNodeId(9));
        // Root + 4 single-entry members, ordered 5.0, 2.0, 1.0, 0.5.
        assert_eq!(grouped.len(), 5);
        let scores: Vec<f64> = grouped.entries()[1..]
            .iter()
            .map(|e| e.score.unwrap())
            .collect();
        assert_eq!(scores, vec![5.0, 2.0, 1.0, 0.5]);
    }

    #[test]
    fn group_then_leftmost_equals_topk_threshold() {
        // The paper's claim: grouping + leftmost-K projection ≡ the
        // Threshold operator's K condition.
        let (_s, input, var) = fixture();
        let grouped = group_order_by_score(&input, var, PatternNodeId(9));
        let via_group = retain_leftmost(&grouped, 2);
        let via_threshold = threshold(&input, &[ThresholdCond::TopK { var, k: 2 }]);
        // Same member sets (grouping reorders; threshold keeps input order).
        let mut a: Vec<Option<f64>> = via_group.iter().map(|t| t.score()).collect();
        let mut b: Vec<Option<f64>> = via_threshold.iter().map(|t| t.score()).collect();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn leftmost_with_multi_entry_members() {
        let mut store = Store::new();
        store.load_str("t.xml", "<a><b><c/></b><d/></a>").unwrap();
        let var = PatternNodeId(4);
        let t1 = ScoredTree::from_stored(
            &store,
            vec![
                (NodeRef::new(DocId(0), NodeIdx(1)), Some(3.0), vec![var]),
                (NodeRef::new(DocId(0), NodeIdx(2)), Some(1.0), vec![var]),
            ],
        );
        let t2 = ScoredTree::from_stored(
            &store,
            vec![(NodeRef::new(DocId(0), NodeIdx(3)), Some(9.0), vec![var])],
        );
        let input = Collection::from_trees(vec![t1, t2]);
        let grouped = group_order_by_score(&input, var, PatternNodeId(9));
        let top1 = retain_leftmost(&grouped, 1);
        assert_eq!(top1.len(), 1);
        // The 9.0 member wins and is a single entry.
        assert_eq!(top1.trees()[0].len(), 1);
        assert_eq!(top1.trees()[0].score(), Some(9.0));
        // k larger than members returns everything, structure intact.
        let all = retain_leftmost(&grouped, 10);
        assert_eq!(all.len(), 2);
        assert_eq!(all.trees()[1].len(), 2); // b→c member kept both entries
        assert_eq!(all.trees()[1].entries()[1].parent, Some(0));
    }

    #[test]
    fn empty_collection() {
        let input = Collection::new();
        let grouped = group_order_by_score(&input, PatternNodeId(4), PatternNodeId(9));
        assert_eq!(grouped.len(), 1); // just the group root
        assert!(retain_leftmost(&grouped, 3).is_empty());
    }
}
