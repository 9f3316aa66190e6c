//! Stack-based structural join — the primitive of the stack-tree family
//! ([2, 6, 9] in the paper) that TermJoin generalizes, and the building
//! block of the Comp2 baseline.

use tix_store::{NodeRef, Store};

/// One merge pass over two document-ordered element lists, producing for
/// each ancestor candidate the number of descendant-candidates contained
/// in its subtree (ancestors with zero matches are not emitted).
///
/// `ancestors` and `descendants` must each be sorted in global document
/// order. Output is in ancestor *completion* (postorder) order.
///
/// This is the counting variant of stack-tree-desc: the Comp2 baseline
/// runs it per term with `ancestors` = the full element list.
pub fn structural_join_count(
    store: &Store,
    ancestors: impl IntoIterator<Item = NodeRef>,
    descendants: &[NodeRef],
) -> Vec<(NodeRef, u32)> {
    // Stack frames: (ancestor, cached end key, count). The stack is always
    // a containment chain, so a popped frame's count folds into the frame
    // below it.
    let mut stack: Vec<(NodeRef, u32, u32)> = Vec::new();
    let mut out = Vec::new();
    let mut anc_iter = ancestors.into_iter().peekable();
    let mut d = 0usize;

    fn covers(frame: &(NodeRef, u32, u32), node: NodeRef) -> bool {
        frame.0.doc == node.doc && frame.0.node <= node.node && node.node.as_u32() <= frame.1
    }

    fn pop(stack: &mut Vec<(NodeRef, u32, u32)>, out: &mut Vec<(NodeRef, u32)>) {
        let Some((node, _, count)) = stack.pop() else {
            return;
        };
        if let Some(below) = stack.last_mut() {
            below.2 += count;
        }
        if count > 0 {
            out.push((node, count));
        }
    }

    loop {
        // Decide the next event: the smaller of the two list heads, with
        // ancestors winning ties so that a node present in both lists
        // self-matches.
        let (take_ancestor, event) = match (anc_iter.peek(), descendants.get(d)) {
            (Some(&a), Some(&dd)) => {
                if a <= dd {
                    (true, a)
                } else {
                    (false, dd)
                }
            }
            (Some(&a), None) => (true, a),
            (None, Some(&dd)) => (false, dd),
            (None, None) => break,
        };
        // Retire frames whose subtree lies entirely before the event.
        while let Some(top) = stack.last() {
            if covers(top, event) {
                break;
            }
            pop(&mut stack, &mut out);
        }
        if take_ancestor {
            anc_iter.next();
            stack.push((event, store.end_key(event).as_u32(), 0));
        } else {
            // Credit the deepest covering frame; propagation on pop carries
            // the count to every enclosing ancestor.
            if let Some(top) = stack.last_mut() {
                top.2 += 1;
            }
            d += 1;
        }
    }
    while !stack.is_empty() {
        pop(&mut stack, &mut out);
    }
    out
}

/// Reference nested-loop implementation for differential testing.
pub fn nested_loop_join_count(
    store: &Store,
    ancestors: impl IntoIterator<Item = NodeRef>,
    descendants: &[NodeRef],
) -> Vec<(NodeRef, u32)> {
    let mut out = Vec::new();
    for anc in ancestors {
        let count = descendants
            .iter()
            .filter(|&&d| anc == d || store.is_ancestor(anc, d))
            .count() as u32;
        if count > 0 {
            out.push((anc, count));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tix_store::{DocId, NodeIdx};

    fn nref(doc: u32, i: u32) -> NodeRef {
        NodeRef::new(DocId(doc), NodeIdx(i))
    }

    fn sorted(mut v: Vec<(NodeRef, u32)>) -> Vec<(NodeRef, u32)> {
        v.sort_by_key(|&(n, _)| n);
        v
    }

    #[test]
    fn counts_match_nested_loop() {
        let mut store = Store::new();
        store
            .load_str("t.xml", "<a><b><c/><c/></b><d><c/></d><c/></a>")
            .unwrap();
        // ancestors: all elements; descendants: all <c>.
        let ancestors: Vec<NodeRef> = store.elements_of(DocId(0)).collect();
        let descendants = store.elements_with_tag("c").to_vec();
        let fast = sorted(structural_join_count(
            &store,
            ancestors.clone(),
            &descendants,
        ));
        let slow = sorted(nested_loop_join_count(&store, ancestors, &descendants));
        assert_eq!(fast, slow);
        // a contains 4 c's (and c self-matches count too).
        let a = fast.iter().find(|(n, _)| *n == nref(0, 0)).unwrap();
        assert_eq!(a.1, 4);
    }

    #[test]
    fn empty_descendants() {
        let mut store = Store::new();
        store.load_str("t.xml", "<a><b/></a>").unwrap();
        let ancestors: Vec<NodeRef> = store.elements_of(DocId(0)).collect();
        assert!(structural_join_count(&store, ancestors, &[]).is_empty());
    }

    #[test]
    fn cross_document() {
        let mut store = Store::new();
        store.load_str("a.xml", "<a><x/></a>").unwrap();
        store.load_str("b.xml", "<a><x/></a>").unwrap();
        let ancestors: Vec<NodeRef> = store.doc_ids().flat_map(|d| store.elements_of(d)).collect();
        let descendants = store.elements_with_tag("x").to_vec();
        let fast = sorted(structural_join_count(
            &store,
            ancestors.clone(),
            &descendants,
        ));
        let slow = sorted(nested_loop_join_count(&store, ancestors, &descendants));
        assert_eq!(fast, slow);
        assert_eq!(fast.len(), 4); // both a's and both x's (self-match)
    }
}
