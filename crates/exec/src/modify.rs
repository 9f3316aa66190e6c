//! Score-**modifying** access methods (Sec. 5.2 of the paper).
//!
//! "Access methods for standard operators can be extended in a
//! straightforward way to manipulate scores." The paper gives two worked
//! examples, both implemented here over document-ordered scored-node sets:
//!
//! * **Example 5.1 — scored value join**: `A ⋈_{c,w1,w2} B` keeps pairs
//!   satisfying a join condition and scores each output
//!   `f(w1·s_A, w2·s_B)`;
//! * **Example 5.2 — scored set union**: `A ∪_{w1,w2} B` merges two scored
//!   sets, combining the scores of nodes present in both and optionally
//!   boosting them (the paper: "give more weight to x that belongs to both
//!   A and B").

use tix_store::NodeRef;

use crate::scored::ScoredNode;

/// How two weighted scores combine in the scored union / value join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Combine {
    /// `w1·sA + w2·sB` — the paper's "weighted addition of the two scores".
    WeightedSum,
    /// Like `WeightedSum`, but multiplied by `boost` when the node/pair has
    /// support from **both** inputs — the paper's "give more weight to x
    /// that belongs to both A and B".
    BothBoosted {
        /// Multiplier applied when both sides contributed.
        boost: f64,
    },
    /// `max(w1·sA, w2·sB)`.
    Max,
}

impl Combine {
    fn apply(self, a: Option<f64>, b: Option<f64>, w1: f64, w2: f64) -> f64 {
        let sa = a.map(|s| w1 * s);
        let sb = b.map(|s| w2 * s);
        let sum = sa.unwrap_or(0.0) + sb.unwrap_or(0.0);
        match self {
            Combine::WeightedSum => sum,
            Combine::BothBoosted { boost } => {
                if sa.is_some() && sb.is_some() {
                    sum * boost
                } else {
                    sum
                }
            }
            Combine::Max => sa
                .unwrap_or(f64::NEG_INFINITY)
                .max(sb.unwrap_or(f64::NEG_INFINITY)),
        }
    }
}

/// Example 5.2: scored set union of two document-ordered scored-node sets.
///
/// A node in both inputs gets `combine(w1·sA, w2·sB)`; a node in one input
/// keeps its (weighted) score — "sA or sB can be a zero since we may have
/// the input witness tree be in only one input".
pub fn scored_union(
    a: &[ScoredNode],
    b: &[ScoredNode],
    w1: f64,
    w2: f64,
    combine: Combine,
) -> Vec<ScoredNode> {
    // Example 5.2 precondition: both inputs are unique and document-ordered.
    tix_invariants::check! {
        tix_invariants::assert_stream_sorted_unique(a.len(), |i| {
            // lint:allow(no-slice-index): i < a.len() by the try_ contract
            let s = &a[i];
            (s.node.doc.0, s.node.node.as_u32())
        });
        tix_invariants::assert_stream_sorted_unique(b.len(), |i| {
            // lint:allow(no-slice-index): i < b.len() by the try_ contract
            let s = &b[i];
            (s.node.doc.0, s.node.node.as_u32())
        });
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) if x.node == y.node => {
                out.push(ScoredNode::new(
                    x.node,
                    combine.apply(Some(x.score), Some(y.score), w1, w2),
                ));
                i += 1;
                j += 1;
            }
            (Some(x), Some(y)) if x.node < y.node => {
                out.push(ScoredNode::new(
                    x.node,
                    combine.apply(Some(x.score), None, w1, w2),
                ));
                i += 1;
            }
            (Some(_), Some(y)) => {
                out.push(ScoredNode::new(
                    y.node,
                    combine.apply(None, Some(y.score), w1, w2),
                ));
                j += 1;
            }
            (Some(x), None) => {
                out.push(ScoredNode::new(
                    x.node,
                    combine.apply(Some(x.score), None, w1, w2),
                ));
                i += 1;
            }
            (None, Some(y)) => {
                out.push(ScoredNode::new(
                    y.node,
                    combine.apply(None, Some(y.score), w1, w2),
                ));
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    out
}

/// One output of the scored value join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinedPair {
    /// The node from `A`.
    pub left: NodeRef,
    /// The node from `B`.
    pub right: NodeRef,
    /// The combined score `f(w1·sA, w2·sB)`.
    pub score: f64,
}

/// Example 5.1: scored value join. Every pair `(x ∈ A, y ∈ B)` with
/// `condition(x, y)` is emitted, scored `combine(w1·sA, w2·sB)`.
///
/// The condition is arbitrary ("a possible IR value join condition is a
/// similarity condition"); pass a closure over the store / index as
/// needed.
// lint:allow(unused-pub): Example 5.1's scored value join, the paper's executable definition, exercised by its unit tests
pub fn scored_value_join(
    a: &[ScoredNode],
    b: &[ScoredNode],
    w1: f64,
    w2: f64,
    combine: Combine,
    mut condition: impl FnMut(&ScoredNode, &ScoredNode) -> bool,
) -> Vec<JoinedPair> {
    let mut out = Vec::new();
    for x in a {
        for y in b {
            if condition(x, y) {
                out.push(JoinedPair {
                    left: x.node,
                    right: y.node,
                    score: combine.apply(Some(x.score), Some(y.score), w1, w2),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tix_store::{DocId, NodeIdx};

    fn sn(doc: u32, node: u32, score: f64) -> ScoredNode {
        ScoredNode::new(NodeRef::new(DocId(doc), NodeIdx(node)), score)
    }

    #[test]
    fn union_weighted_sum() {
        let a = vec![sn(0, 1, 1.0), sn(0, 3, 2.0)];
        let b = vec![sn(0, 3, 4.0), sn(0, 5, 1.0)];
        let u = scored_union(&a, &b, 0.5, 0.25, Combine::WeightedSum);
        assert_eq!(u.len(), 3);
        assert_eq!(u[0], sn(0, 1, 0.5));
        assert_eq!(u[1], sn(0, 3, 2.0)); // 0.5·2 + 0.25·4
        assert_eq!(u[2], sn(0, 5, 0.25));
    }

    #[test]
    fn union_both_boosted() {
        let a = vec![sn(0, 1, 1.0), sn(0, 2, 1.0)];
        let b = vec![sn(0, 2, 1.0)];
        let u = scored_union(&a, &b, 1.0, 1.0, Combine::BothBoosted { boost: 2.0 });
        // Node 1: only A → 1.0. Node 2: both → (1+1)·2 = 4.
        assert_eq!(u[0].score, 1.0);
        assert_eq!(u[1].score, 4.0);
    }

    #[test]
    fn union_max() {
        let a = vec![sn(0, 1, 3.0)];
        let b = vec![sn(0, 1, 5.0)];
        let u = scored_union(&a, &b, 1.0, 0.5, Combine::Max);
        assert_eq!(u[0].score, 3.0); // max(3, 2.5)
    }

    #[test]
    fn union_preserves_document_order() {
        let a = vec![sn(0, 2, 1.0), sn(1, 0, 1.0)];
        let b = vec![sn(0, 5, 1.0), sn(1, 1, 1.0)];
        let u = scored_union(&a, &b, 1.0, 1.0, Combine::WeightedSum);
        assert!(u.windows(2).all(|w| w[0].node < w[1].node));
    }

    #[test]
    fn union_with_empty_side() {
        let a = vec![sn(0, 1, 2.0)];
        let u = scored_union(&a, &[], 2.0, 1.0, Combine::WeightedSum);
        assert_eq!(u, vec![sn(0, 1, 4.0)]);
        let u2 = scored_union(&[], &a, 1.0, 2.0, Combine::WeightedSum);
        assert_eq!(u2, vec![sn(0, 1, 4.0)]);
    }

    #[test]
    fn value_join_condition_and_score() {
        let a = vec![sn(0, 1, 1.0), sn(0, 2, 2.0)];
        let b = vec![sn(1, 1, 3.0), sn(1, 2, 1.0)];
        // Join condition: equal node indexes (stand-in for a similarity
        // predicate).
        let joined = scored_value_join(&a, &b, 1.0, 1.0, Combine::WeightedSum, |x, y| {
            x.node.node == y.node.node
        });
        assert_eq!(joined.len(), 2);
        assert_eq!(joined[0].score, 4.0); // 1 + 3
        assert_eq!(joined[1].score, 3.0); // 2 + 1
    }

    #[test]
    fn value_join_empty_when_no_pairs() {
        let a = vec![sn(0, 1, 1.0)];
        let b = vec![sn(1, 1, 3.0)];
        let joined = scored_value_join(&a, &b, 1.0, 1.0, Combine::WeightedSum, |_, _| false);
        assert!(joined.is_empty());
    }
}
