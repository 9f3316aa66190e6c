//! The **TermJoin** access method (Fig. 11 of the paper) and its scoring
//! functions.
//!
//! TermJoin generalizes the stack-based structural-join family: one merge
//! pass over the per-term posting lists (ordered by start key) maintains a
//! stack holding the ancestor chain of the current occurrence. Each stack
//! frame accumulates per-term occurrence counters for its subtree; when a
//! frame is popped every descendant occurrence has been seen, so the node
//! can be scored and emitted immediately — no materialized intermediate
//! ancestor lists, no sorting, no grouping.
//!
//! Under **complex scoring** (Sec. 5.1.1, "Complex Scoring Function") each
//! frame additionally keeps the buffer of term hits (`if (!s)` in the
//! paper's pseudo-code) so the scorer can inspect term distances and the
//! proportion of relevant children. The scorer then needs each node's
//! total child count:
//!
//! * [`ChildCountMode::Navigate`] — plain TermJoin: a data access to the
//!   store with subtree navigation (the paper's original algorithm);
//! * [`ChildCountMode::Index`] — **Enhanced TermJoin**: an O(1) lookup in
//!   the store's child-count index (the variant Tables 2–4 show winning by
//!   up to 8×).

use std::collections::VecDeque;

use tix_index::{IndexReader, Posting};
use tix_store::{NodeIdx, NodeKind, NodeRef, Store};

use crate::scored::{ScoredNode, TermHit};

/// How a complex scorer obtains the total child count of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildCountMode {
    /// Navigate the stored subtree (plain TermJoin).
    Navigate,
    /// Read the child-count index (Enhanced TermJoin).
    Index,
}

/// Scores a popped node from its accumulated per-term counters (and, for
/// complex scorers, the hit detail and child information).
pub trait TermJoinScorer: Send + Sync {
    /// Whether the algorithm must keep per-frame hit buffers (the paper's
    /// `!s` branch). Simple scorers return `false` and skip that work.
    fn needs_detail(&self) -> bool;

    /// Score `node` given `counters[i]` = occurrences of query term `i` in
    /// its subtree. `detail` is the hit buffer (empty unless
    /// `needs_detail`); `nonzero_children` counts the node's direct
    /// children (elements or text nodes) whose subtrees contain at least
    /// one hit.
    fn score(
        &self,
        store: &Store,
        node: NodeRef,
        counters: &[u32],
        detail: &[TermHit],
        nonzero_children: u32,
    ) -> f64;

    /// An upper bound on [`TermJoinScorer::score`] over **any** node whose
    /// per-term counter vector is componentwise ≤ `remaining`, for any hit
    /// detail and child configuration. The Threshold-pushdown executor
    /// ([`crate::pushdown`]) uses this to prove that unscanned postings
    /// cannot beat the current k-th result (the §4.2 score bounds).
    ///
    /// The default, `f64::INFINITY`, is always sound — it simply disables
    /// early exit for scorers that do not provide a tighter bound.
    fn max_score_bound(&self, remaining: &[u32]) -> f64 {
        let _ = remaining;
        f64::INFINITY
    }
}

/// The paper's *simple* scoring function: "a weighted sum of the
/// occurrences of each term under a given ancestor".
#[derive(Debug, Clone)]
pub struct SimpleScorer {
    weights: Vec<f64>,
}

impl SimpleScorer {
    /// Weighted sum with the given per-term weights (terms beyond the
    /// vector reuse the last weight).
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "at least one weight");
        SimpleScorer { weights }
    }

    /// All-ones weights.
    pub fn uniform() -> Self {
        SimpleScorer { weights: vec![1.0] }
    }

    /// The running example's weights: 0.8 for the first (primary) term,
    /// 0.6 for the rest.
    pub fn paper() -> Self {
        SimpleScorer {
            weights: vec![0.8, 0.6],
        }
    }

    fn weight(&self, term: usize) -> f64 {
        self.weights
            .get(term)
            .or(self.weights.last())
            .copied()
            .unwrap_or(1.0)
    }
}

impl TermJoinScorer for SimpleScorer {
    fn needs_detail(&self) -> bool {
        false
    }

    fn score(
        &self,
        _store: &Store,
        _node: NodeRef,
        counters: &[u32],
        _detail: &[TermHit],
        _nonzero_children: u32,
    ) -> f64 {
        counters
            .iter()
            .enumerate()
            .map(|(i, &c)| self.weight(i) * f64::from(c))
            .sum()
    }

    /// Σᵢ max(wᵢ, 0) · remainingᵢ: the weighted sum is monotone in each
    /// counter for non-negative weights, and a negative weight contributes
    /// at most 0 (counters are non-negative).
    fn max_score_bound(&self, remaining: &[u32]) -> f64 {
        remaining
            .iter()
            .enumerate()
            .map(|(i, &c)| self.weight(i).max(0.0) * f64::from(c))
            .sum()
    }
}

/// The paper's *complex* scoring function (Sec. 6.1): the weighted sum is
/// boosted when the distances between different query terms are small —
/// "offset difference if they are in the same text node or multiples of
/// node-to-node distance if they are in different text nodes" — and then
/// "multiplied by the ratio between the number of non-zero scored children
/// and the number of total children".
#[derive(Debug, Clone)]
pub struct ComplexScorer {
    base: SimpleScorer,
    /// How to obtain total child counts (the plain/Enhanced split).
    pub mode: ChildCountMode,
    /// Distance charged per intervening text node when two hits are in
    /// different text nodes.
    pub node_distance_factor: f64,
}

impl ComplexScorer {
    /// Complex scorer with the given weights and child-count mode.
    pub fn new(weights: Vec<f64>, mode: ChildCountMode) -> Self {
        ComplexScorer {
            base: SimpleScorer::new(weights),
            mode,
            node_distance_factor: 10.0,
        }
    }

    /// Uniform weights.
    pub fn uniform(mode: ChildCountMode) -> Self {
        ComplexScorer {
            base: SimpleScorer::uniform(),
            mode,
            node_distance_factor: 10.0,
        }
    }

    /// Minimum distance between hits of *different* terms, or `None` when
    /// fewer than two distinct terms are present.
    fn min_cross_term_distance(&self, detail: &[TermHit]) -> Option<f64> {
        if detail.len() < 2 {
            return None;
        }
        let mut hits: Vec<TermHit> = detail.to_vec();
        hits.sort_unstable_by_key(|h| (h.node, h.offset));
        let mut best: Option<f64> = None;
        for pair in hits.windows(2) {
            let &[a, b] = pair else { continue };
            if a.term == b.term {
                continue;
            }
            let d = if a.node == b.node {
                f64::from(b.offset - a.offset)
            } else {
                f64::from(b.node.as_u32() - a.node.as_u32()) * self.node_distance_factor
            };
            best = Some(best.map_or(d, |x: f64| x.min(d)));
        }
        best
    }
}

impl TermJoinScorer for ComplexScorer {
    fn needs_detail(&self) -> bool {
        true
    }

    fn score(
        &self,
        store: &Store,
        node: NodeRef,
        counters: &[u32],
        detail: &[TermHit],
        nonzero_children: u32,
    ) -> f64 {
        // No hits anywhere in the subtree: the product below is zero no
        // matter what, so skip the child-count data access. Checking the
        // integer counters avoids comparing floats for equality.
        if counters.iter().all(|&c| c == 0) {
            return 0.0;
        }
        let base: f64 = counters
            .iter()
            .enumerate()
            .map(|(i, &c)| self.base.weight(i) * f64::from(c))
            .sum();
        let proximity = match self.min_cross_term_distance(detail) {
            Some(d) => 1.0 + 1.0 / (1.0 + d),
            None => 1.0,
        };
        let total_children = match self.mode {
            ChildCountMode::Navigate => store.count_children_by_navigation(node),
            ChildCountMode::Index => store.child_count(node),
        };
        let ratio = if total_children == 0 {
            1.0
        } else {
            f64::from(nonzero_children) / f64::from(total_children)
        };
        base * proximity * ratio
    }

    /// `score = base · proximity · ratio` with `proximity ∈ [1, 2]`
    /// (distances are ≥ 0, so `1/(1+d) ≤ 1`) and `ratio ∈ [0, 1]`
    /// (`nonzero_children ≤ total_children`), so twice the base scorer's
    /// bound covers every configuration.
    fn max_score_bound(&self, remaining: &[u32]) -> f64 {
        2.0 * self.base.max_score_bound(remaining)
    }
}

/// One stack frame: an element on the current occurrence's ancestor chain.
struct Frame {
    node: NodeRef,
    /// Cached end key.
    end: NodeIdx,
    counters: Vec<u32>,
    detail: Vec<TermHit>,
    nonzero_children: u32,
    /// Last direct text child credited to `nonzero_children`.
    last_text_child: Option<NodeIdx>,
}

/// The TermJoin access method as a pull iterator over scored elements.
///
/// Yields every element with at least one query-term occurrence in its
/// subtree, scored by `scorer`. Emission order is *completion* order (an
/// element is emitted once the merge has passed its subtree — postorder);
/// use [`crate::scored::sort_by_node`] for a document-ordered view.
pub struct TermJoin<'a, S: TermJoinScorer> {
    store: &'a Store,
    scorer: &'a S,
    lists: Vec<&'a [Posting]>,
    cursors: Vec<usize>,
    stack: Vec<Frame>,
    pending: VecDeque<ScoredNode>,
    keep_detail: bool,
    exhausted: bool,
}

impl<'a, S: TermJoinScorer> TermJoin<'a, S> {
    /// Set up a TermJoin over `terms`, reading posting lists from `index`.
    pub fn new(
        store: &'a Store,
        index: &'a dyn IndexReader,
        terms: &[&str],
        scorer: &'a S,
    ) -> Self {
        let lists: Vec<&[Posting]> = terms.iter().map(|t| index.postings(t)).collect();
        TermJoin::with_lists(store, lists, scorer)
    }

    /// Set up a TermJoin directly over posting-list slices (in the same
    /// order as the query terms). This is how the pushdown driver hands
    /// TermJoin one document's postings at a time; `new` is `with_lists`
    /// over the full lists.
    pub fn with_lists(store: &'a Store, lists: Vec<&'a [Posting]>, scorer: &'a S) -> Self {
        TermJoin {
            store,
            scorer,
            cursors: vec![0; lists.len()],
            lists,
            stack: Vec::new(),
            pending: VecDeque::new(),
            keep_detail: scorer.needs_detail(),
            exhausted: false,
        }
    }

    /// Run to completion and collect all scored elements.
    pub fn run(self) -> Vec<ScoredNode> {
        self.collect()
    }

    /// The next posting across all lists in `(doc, node, offset)` order,
    /// with its term index.
    fn next_min(&mut self) -> Option<(u16, Posting)> {
        let mut best: Option<(usize, Posting)> = None;
        for (i, (list, &cursor)) in self.lists.iter().zip(&self.cursors).enumerate() {
            if let Some(&p) = list.get(cursor) {
                let better = match &best {
                    Some((_, b)) => (p.doc, p.node, p.offset) < (b.doc, b.node, b.offset),
                    None => true,
                };
                if better {
                    best = Some((i, p));
                }
            }
        }
        let (term, posting) = best?;
        if let Some(cursor) = self.cursors.get_mut(term) {
            *cursor += 1;
        }
        Some((u16::try_from(term).unwrap_or(u16::MAX), posting))
    }

    /// True when `frame`'s subtree contains `node` (ancestor-or-self).
    fn covers(frame: &Frame, node: NodeRef) -> bool {
        frame.node.doc == node.doc && frame.node.node <= node.node && node.node <= frame.end
    }

    /// Pop the top frame, fold it into its parent, and emit its score.
    /// A no-op on an empty stack (callers only invoke it with frames left).
    fn pop_and_emit(&mut self) {
        let Some(frame) = self.stack.pop() else {
            return;
        };
        if let Some(parent) = self.stack.last_mut() {
            for (pc, fc) in parent.counters.iter_mut().zip(&frame.counters) {
                *pc += fc;
            }
            if self.keep_detail {
                parent.detail.extend_from_slice(&frame.detail);
            }
            // The chain is contiguous, so the popped frame is a *direct*
            // child of the new top; it had at least one hit by construction.
            parent.nonzero_children += 1;
        }
        let score = self.scorer.score(
            self.store,
            frame.node,
            &frame.counters,
            &frame.detail,
            frame.nonzero_children,
        );
        self.pending.push_back(ScoredNode::new(frame.node, score));
    }

    /// Consume one posting: adjust the stack and record the hit.
    fn absorb(&mut self, term: u16, posting: Posting) {
        let text_node = posting.node_ref();
        debug_assert_eq!(self.store.kind(text_node), NodeKind::Text);
        let Some(anchor) = self.store.parent(text_node) else {
            // A text node is never a document root; a parentless posting
            // means the index and store disagree. Drop it rather than panic.
            debug_assert!(false, "posting for a parentless text node");
            return;
        };
        // Pop completed subtrees.
        while let Some(top) = self.stack.last() {
            if Self::covers(top, anchor) {
                break;
            }
            self.pop_and_emit();
        }
        // Push the missing part of the ancestor chain (root → anchor).
        if self.stack.last().map(|f| f.node) != Some(anchor) {
            let stop = self.stack.last().map(|f| f.node);
            let mut chain = vec![anchor];
            let mut cursor = anchor;
            while let Some(parent) = self.store.parent(cursor) {
                if Some(parent) == stop {
                    break;
                }
                chain.push(parent);
                cursor = parent;
            }
            let n_terms = self.lists.len();
            for node in chain.into_iter().rev() {
                self.stack.push(Frame {
                    node,
                    end: self.store.end_key(node),
                    counters: vec![0; n_terms],
                    detail: Vec::new(),
                    nonzero_children: 0,
                    last_text_child: None,
                });
            }
        }
        // Fig. 11's loop invariant: the stack always holds one contiguous
        // ancestor chain, every frame covering the frames above it.
        tix_invariants::check! {
            tix_invariants::assert_stack_ancestor_chain(self.stack.len(), |anc, desc| {
                // lint:allow(no-slice-index): anc/desc < stack.len() by the try_ contract
                let (a, d) = (&self.stack[anc], &self.stack[desc]);
                Self::covers(a, d.node)
            });
        }
        let Some(top) = self.stack.last_mut() else {
            return;
        };
        debug_assert_eq!(top.node, anchor);
        if let Some(counter) = top.counters.get_mut(usize::from(term)) {
            *counter += 1;
        }
        if self.keep_detail {
            top.detail.push(TermHit {
                node: posting.node,
                offset: posting.offset,
                term,
            });
        }
        if top.last_text_child != Some(posting.node) {
            top.nonzero_children += 1;
            top.last_text_child = Some(posting.node);
        }
    }
}

impl<S: TermJoinScorer> Iterator for TermJoin<'_, S> {
    type Item = ScoredNode;

    fn next(&mut self) -> Option<ScoredNode> {
        loop {
            if let Some(out) = self.pending.pop_front() {
                return Some(out);
            }
            if self.exhausted {
                if self.stack.is_empty() {
                    return None;
                }
                self.pop_and_emit();
                continue;
            }
            match self.next_min() {
                Some((term, posting)) => self.absorb(term, posting),
                None => self.exhausted = true,
            }
        }
    }
}

/// Count the direct children of `node` (elements **or text nodes**) whose
/// subtree contains at least one of `hit_nodes` — the `nonzero_children`
/// input that baselines must compute from scratch to match TermJoin's
/// incremental bookkeeping.
pub fn count_nonzero_children<I>(store: &Store, node: NodeRef, hit_nodes: I) -> u32
where
    I: IntoIterator<Item = NodeIdx>,
{
    let level = store.level(node);
    let mut seen: Vec<NodeIdx> = Vec::new();
    for text in hit_nodes {
        let text_ref = NodeRef::new(node.doc, text);
        if !store.is_ancestor(node, text_ref) {
            continue;
        }
        // The child of `node` on the path to `text`: walk up from the text
        // node until one level below `node`.
        let mut cursor = text_ref;
        while store.level(cursor) > level + 1 {
            match store.parent(cursor) {
                Some(parent) => cursor = parent,
                None => break,
            }
        }
        if !seen.contains(&cursor.node) {
            seen.push(cursor.node);
        }
    }
    u32::try_from(seen.len()).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tix_index::InvertedIndex;
    use tix_store::DocId;

    fn fixture() -> (Store, InvertedIndex) {
        let mut store = Store::new();
        // doc 0:
        // a=0 [ b=1 [t=2 "x y"] c=3 [t=4 "x"] d=5 [t=6 "z"] ]
        store
            .load_str("t.xml", "<a><b>x y</b><c>x</c><d>z</d></a>")
            .unwrap();
        let index = InvertedIndex::build(&store);
        (store, index)
    }

    fn nref(doc: u32, i: u32) -> NodeRef {
        NodeRef::new(DocId(doc), NodeIdx(i))
    }

    #[test]
    fn simple_two_terms() {
        let (store, index) = fixture();
        let scorer = SimpleScorer::uniform();
        let out =
            crate::scored::sort_by_node(TermJoin::new(&store, &index, &["x", "y"], &scorer).run());
        // Elements with hits: a (3), b (2), c (1).
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], ScoredNode::new(nref(0, 0), 3.0)); // a
        assert_eq!(out[1], ScoredNode::new(nref(0, 1), 2.0)); // b
        assert_eq!(out[2], ScoredNode::new(nref(0, 3), 1.0)); // c
    }

    #[test]
    fn weights_respected() {
        let (store, index) = fixture();
        let scorer = SimpleScorer::new(vec![0.8, 0.6]);
        let out =
            crate::scored::sort_by_node(TermJoin::new(&store, &index, &["x", "y"], &scorer).run());
        // a: 2x + 1y = 2*0.8 + 0.6 = 2.2
        assert!((out[0].score - 2.2).abs() < 1e-9);
    }

    #[test]
    fn missing_term_is_empty_list() {
        let (store, index) = fixture();
        let scorer = SimpleScorer::uniform();
        let out = TermJoin::new(&store, &index, &["nosuch"], &scorer).run();
        assert!(out.is_empty());
    }

    #[test]
    fn single_term_scores_every_ancestor() {
        let (store, index) = fixture();
        let scorer = SimpleScorer::uniform();
        let out = crate::scored::sort_by_node(TermJoin::new(&store, &index, &["z"], &scorer).run());
        // z occurs once under d: ancestors a and d.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].node, nref(0, 0));
        assert_eq!(out[1].node, nref(0, 5));
    }

    #[test]
    fn multi_document_merge() {
        let mut store = Store::new();
        store.load_str("a.xml", "<a><p>q</p></a>").unwrap();
        store.load_str("b.xml", "<a><p>q q</p></a>").unwrap();
        let index = InvertedIndex::build(&store);
        let scorer = SimpleScorer::uniform();
        let out = crate::scored::sort_by_node(TermJoin::new(&store, &index, &["q"], &scorer).run());
        // Two elements per doc (a, p).
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].node.doc, DocId(0));
        assert_eq!(out[2].node.doc, DocId(1));
        assert_eq!(out[2].score, 2.0);
    }

    #[test]
    fn emission_is_postorder_completion() {
        let (store, index) = fixture();
        let scorer = SimpleScorer::uniform();
        let out: Vec<NodeRef> = TermJoin::new(&store, &index, &["x"], &scorer)
            .map(|s| s.node)
            .collect();
        // b completes before c, which completes before a.
        assert_eq!(out, vec![nref(0, 1), nref(0, 3), nref(0, 0)]);
    }

    #[test]
    fn complex_scorer_ratio() {
        let (store, index) = fixture();
        let scorer = ComplexScorer::uniform(ChildCountMode::Index);
        let out = crate::scored::sort_by_node(TermJoin::new(&store, &index, &["x"], &scorer).run());
        // a has 3 children (b, c, d); two contain "x" → ratio 2/3; base 2.
        let a = out.iter().find(|s| s.node == nref(0, 0)).unwrap();
        assert!(
            (a.score - 2.0 * (2.0 / 3.0)).abs() < 1e-9,
            "got {}",
            a.score
        );
        // b: 1 child (text), nonzero 1 → ratio 1; base 1.
        let b = out.iter().find(|s| s.node == nref(0, 1)).unwrap();
        assert!((b.score - 1.0).abs() < 1e-9);
    }

    #[test]
    fn complex_modes_agree_on_scores() {
        let (store, index) = fixture();
        let nav = ComplexScorer::uniform(ChildCountMode::Navigate);
        let idx = ComplexScorer::uniform(ChildCountMode::Index);
        let out_nav =
            crate::scored::sort_by_node(TermJoin::new(&store, &index, &["x", "y"], &nav).run());
        let out_idx =
            crate::scored::sort_by_node(TermJoin::new(&store, &index, &["x", "y"], &idx).run());
        assert!(crate::scored::results_equal(&out_nav, &out_idx, 1e-12));
    }

    #[test]
    fn complex_proximity_boost() {
        let mut store = Store::new();
        // "u v" adjacent in one paragraph; "u ... v" far apart in another.
        store
            .load_str("t.xml", "<r><p>u v</p><p>u w w w w w w w v</p></r>")
            .unwrap();
        let index = InvertedIndex::build(&store);
        let scorer = ComplexScorer::uniform(ChildCountMode::Index);
        let out =
            crate::scored::sort_by_node(TermJoin::new(&store, &index, &["u", "v"], &scorer).run());
        // p1 (node 1) has distance 1; p2 (node 3) distance 8.
        let p1 = out.iter().find(|s| s.node == nref(0, 1)).unwrap();
        let p2 = out.iter().find(|s| s.node == nref(0, 3)).unwrap();
        assert!(p1.score > p2.score, "p1 {} p2 {}", p1.score, p2.score);
    }

    #[test]
    fn count_nonzero_children_helper_agrees() {
        let (store, index) = fixture();
        // For node a: hits of "x" are in text nodes 2 and 4 → children b, c.
        let hits: Vec<NodeIdx> = index.postings("x").iter().map(|p| p.node).collect();
        assert_eq!(count_nonzero_children(&store, nref(0, 0), hits.clone()), 2);
        assert_eq!(count_nonzero_children(&store, nref(0, 1), hits), 1);
    }
}

/// A tf·idf-weighted TermJoin scorer: each term's subtree count is weighted
/// by its inverse document frequency, so rare query terms dominate — the
/// "meaningful score, such as the popular tf*idf measure" of Sec. 5.1.
///
/// Build it from the index before running the join (idf values are
/// constants of the query, not of the scored node).
#[derive(Debug, Clone)]
pub struct IdfScorer {
    idf: Vec<f64>,
}

impl IdfScorer {
    /// Precompute idf weights for `terms` against `index`.
    pub fn new(index: &dyn IndexReader, total_docs: usize, terms: &[&str]) -> Self {
        IdfScorer {
            idf: terms.iter().map(|t| index.idf(t, total_docs)).collect(),
        }
    }
}

impl TermJoinScorer for IdfScorer {
    fn needs_detail(&self) -> bool {
        false
    }

    fn score(
        &self,
        _store: &Store,
        _node: NodeRef,
        counters: &[u32],
        _detail: &[TermHit],
        _nonzero_children: u32,
    ) -> f64 {
        counters
            .iter()
            .zip(&self.idf)
            .map(|(&c, &w)| f64::from(c) * w)
            .sum()
    }

    /// Σᵢ max(idfᵢ, 0) · remainingᵢ (smoothed idf is non-negative; the
    /// clamp keeps the bound sound for hand-built weight vectors too).
    fn max_score_bound(&self, remaining: &[u32]) -> f64 {
        remaining
            .iter()
            .zip(&self.idf)
            .map(|(&c, &w)| w.max(0.0) * f64::from(c))
            .sum()
    }
}
