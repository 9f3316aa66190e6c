//! The stack-based **Pick** access method (Fig. 12 of the paper).
//!
//! Input: a document-ordered stream of scored elements (e.g. straight out
//! of TermJoin + projection). The algorithm reconstructs the containment
//! hierarchy *within the input set* with a single stack pass, evaluates
//! the worth of every node (the `DetWorth` decision needs all of a node's
//! children — which is why the paper calls the operator *blocking*), and
//! then resolves the parent/child redundancy rule top-down.
//!
//! Semantics are identical to the reference implementation in
//! `tix_core::ops::pick` (differential-tested): a node is picked iff it is
//! worth returning and its direct parent (within the input set) is not
//! itself picked.

use tix_store::{NodeRef, Store};

use crate::scored::ScoredNode;

/// Parameters of the paper's `PickFoo` criterion: relevance threshold and
/// required fraction of relevant children (Sec. 3.3.2 / Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PickParams {
    /// Minimum score for a node to count as relevant (paper: 0.8).
    pub relevance_threshold: f64,
    /// Exclusive fraction of relevant children required for an internal
    /// node to be worth returning (paper: 0.5).
    pub fraction: f64,
}

impl PickParams {
    /// The paper's parameters: threshold 0.8, fraction 50 %.
    pub fn paper() -> Self {
        PickParams {
            relevance_threshold: 0.8,
            fraction: 0.5,
        }
    }

    /// Derive the relevance threshold from a score distribution instead of
    /// asking the user for an absolute value — the paper's Sec. 5.3: "it is
    /// often unrealistic to ask the users for the exact relevance score
    /// threshold since they have no idea of the distribution of the scores
    /// for a given query. Auxiliary data like \[a\] histogram … enables the
    /// user to specify such scores more flexibly".
    ///
    /// `quantile` = 0.9 makes the top 10 % of scored nodes "relevant".
    pub fn from_histogram(
        histogram: &tix_core::histogram::ScoreHistogram,
        quantile: f64,
        fraction: f64,
    ) -> Self {
        PickParams {
            relevance_threshold: histogram.quantile(quantile),
            fraction,
        }
    }

    /// Build the score histogram for a scored stream and derive the
    /// threshold from `quantile` in one step.
    pub fn from_scores(scored: &[ScoredNode], quantile: f64, fraction: f64) -> Self {
        let histogram =
            tix_core::histogram::ScoreHistogram::build(scored.iter().map(|s| s.score), 64);
        Self::from_histogram(&histogram, quantile, fraction)
    }
}

/// Per-node state collected by the stack pass.
#[derive(Debug, Clone, Copy)]
struct NodeState {
    /// Index of the nearest input-set ancestor, if any.
    parent: Option<usize>,
    children: u32,
    relevant_children: u32,
}

/// Run the stack-based Pick over `scored` (must be sorted in document
/// order) and return the picked nodes, in document order.
///
/// One pass builds, per input node, its child statistics *within the input
/// set* (nearest-ancestor containment, like the scored-tree view the
/// algebra operator sees). A second, top-down pass applies the
/// worth/parent rule. Both passes are O(n) — the cost the paper's Pick
/// experiment measures for 200 to 55 000 input nodes.
pub fn pick_stream(store: &Store, scored: &[ScoredNode], params: &PickParams) -> Vec<ScoredNode> {
    let n = scored.len();
    // Fig. 12 precondition: the stream is unique and document-ordered.
    tix_invariants::check! {
        tix_invariants::assert_stream_sorted_unique(n, |i| {
            // lint:allow(no-slice-index): i < n by the try_ contract
            let s = &scored[i];
            (s.node.doc.0, s.node.node.as_u32())
        });
    }
    let mut states: Vec<NodeState> = vec![
        NodeState {
            parent: None,
            children: 0,
            relevant_children: 0
        };
        n
    ];
    // Stack of (input index, node, end key) — the containment chain.
    let mut stack: Vec<(usize, NodeRef, u32)> = Vec::new();
    for (i, s) in scored.iter().enumerate() {
        while let Some(&(_, top, end)) = stack.last() {
            let covers = top.doc == s.node.doc && s.node.node.as_u32() <= end;
            if covers {
                break;
            }
            stack.pop();
        }
        if let Some(&(parent_idx, _, _)) = stack.last() {
            if let Some(state) = states.get_mut(i) {
                state.parent = Some(parent_idx);
            }
            if let Some(parent_state) = states.get_mut(parent_idx) {
                parent_state.children += 1;
                if s.score >= params.relevance_threshold {
                    parent_state.relevant_children += 1;
                }
            }
        }
        stack.push((i, s.node, store.end_key(s.node).as_u32()));
    }
    // The nearest-ancestor pass leaves parentless nodes exactly when no
    // other input node covers them, so the input-set roots must form an
    // antichain of regions (§4.3).
    tix_invariants::check! {
        let roots: Vec<(u32, u32, u32)> = scored
            .iter()
            .zip(&states)
            .filter(|(_, st)| st.parent.is_none())
            .map(|(s, _)| {
                (
                    s.node.doc.0,
                    s.node.node.as_u32(),
                    store.end_key(s.node).as_u32(),
                )
            })
            .collect();
        tix_invariants::assert_antichain(roots.len(), |i| {
            // lint:allow(no-slice-index): i < roots.len() by the try_ contract
            roots[i]
        });
    }
    // Top-down resolution (parents precede children in document order).
    let mut picked = vec![false; n];
    for (i, (s, state)) in scored.iter().zip(&states).enumerate() {
        let worth = if state.children == 0 {
            s.score >= params.relevance_threshold
        } else {
            f64::from(state.relevant_children) / f64::from(state.children) > params.fraction
        };
        let parent_picked = state
            .parent
            .is_some_and(|p| picked.get(p).copied().unwrap_or(false));
        if let Some(slot) = picked.get_mut(i) {
            *slot = worth && !parent_picked;
        }
    }
    // §4.3 vertical exclusivity on the output, same rule as the algebra
    // operator in tix-core.
    tix_invariants::check! {
        tix_invariants::assert_picked_exclusive(
            n,
            |i| picked.get(i).copied().unwrap_or(false),
            |i| states.get(i).and_then(|st| st.parent),
        );
    }
    scored
        .iter()
        .zip(&picked)
        .filter(|(_, &p)| p)
        .map(|(s, _)| *s)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tix_store::{DocId, NodeIdx};

    fn fixture() -> Store {
        let mut store = Store::new();
        // root=0 title=1 chap=2 s1=3 t1=4 s2=5 t2=6 s3=7 p1=8 p2=9 p3=10
        store
            .load_str(
                "t.xml",
                "<root><title/><chap><s1><t1/></s1><s2><t2/></s2>\
                 <s3><p1/><p2/><p3/></s3></chap></root>",
            )
            .unwrap();
        store
    }

    fn sn(i: u32, score: f64) -> ScoredNode {
        ScoredNode::new(NodeRef::new(DocId(0), NodeIdx(i)), score)
    }

    /// The Fig. 6 → Fig. 8 scenario of the paper, at stream level.
    #[test]
    fn fig8_scenario() {
        let store = fixture();
        let scored = vec![
            sn(0, 5.6),
            sn(1, 0.6),
            sn(2, 5.0),
            sn(3, 0.8),
            sn(4, 0.8),
            sn(5, 0.6),
            sn(6, 0.6),
            sn(7, 3.6),
            sn(8, 0.8),
            sn(9, 1.4),
            sn(10, 1.4),
        ];
        let picked = pick_stream(&store, &scored, &PickParams::paper());
        let nodes: Vec<u32> = picked.iter().map(|s| s.node.node.as_u32()).collect();
        // chap, t1 (leaf under unpicked s1), p1, p2, p3.
        assert_eq!(nodes, vec![2, 4, 8, 9, 10]);
    }

    #[test]
    fn all_irrelevant_picks_nothing() {
        let store = fixture();
        let scored = vec![sn(0, 0.1), sn(2, 0.2), sn(8, 0.3)];
        assert!(pick_stream(&store, &scored, &PickParams::paper()).is_empty());
    }

    #[test]
    fn single_relevant_leaf() {
        let store = fixture();
        let scored = vec![sn(8, 2.0)];
        let picked = pick_stream(&store, &scored, &PickParams::paper());
        assert_eq!(picked, vec![sn(8, 2.0)]);
    }

    #[test]
    fn parent_and_child_never_both_picked() {
        let store = fixture();
        // Parent with one relevant child (100% > 50% → parent worth) and
        // the child itself relevant.
        let scored = vec![sn(7, 1.0), sn(8, 1.0)];
        let picked = pick_stream(&store, &scored, &PickParams::paper());
        // Parent picked, child suppressed.
        assert_eq!(picked, vec![sn(7, 1.0)]);
    }

    #[test]
    fn grandchild_can_be_picked_when_parent_unpicked() {
        let store = fixture();
        // root (1/2 children relevant → not worth), chap not in input,
        // s3 (3 children, all relevant → worth)... then p's suppressed.
        let scored = vec![
            sn(0, 0.1),
            sn(1, 0.1),
            sn(7, 2.0),
            sn(8, 1.0),
            sn(9, 1.0),
            sn(10, 1.0),
        ];
        let picked = pick_stream(&store, &scored, &PickParams::paper());
        let nodes: Vec<u32> = picked.iter().map(|s| s.node.node.as_u32()).collect();
        assert_eq!(nodes, vec![7]);
    }

    #[test]
    fn histogram_derived_threshold() {
        let store = fixture();
        let scored: Vec<ScoredNode> = (0..10).map(|i| sn(i, i as f64)).collect();
        // Top ~20% of a 0..9 score range → threshold near 7.2.
        let params = PickParams::from_scores(&scored, 0.8, 0.5);
        assert!(params.relevance_threshold > 6.0 && params.relevance_threshold < 8.5);
        let picked = pick_stream(&store, &scored[..1], &params);
        assert!(picked.is_empty()); // score 0 is nowhere near the quantile
    }

    #[test]
    fn cross_document_streams() {
        let mut store = Store::new();
        store.load_str("a.xml", "<a><b/></a>").unwrap();
        store.load_str("b.xml", "<a><b/></a>").unwrap();
        let scored = vec![
            ScoredNode::new(NodeRef::new(DocId(0), NodeIdx(1)), 1.0),
            ScoredNode::new(NodeRef::new(DocId(1), NodeIdx(1)), 1.0),
        ];
        let picked = pick_stream(&store, &scored, &PickParams::paper());
        assert_eq!(picked.len(), 2);
    }
}
