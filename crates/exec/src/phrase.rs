//! The **PhraseFinder** access method (Sec. 5.1.2) and its Comp3 baseline.
//!
//! A phrase like "information retrieval" is only matched by text nodes in
//! which the terms occur *adjacent and in order*. PhraseFinder exploits the
//! index's word offsets to verify adjacency **during** the posting-list
//! intersection; Comp3 (the baseline of Table 5) intersects first,
//! materializes every candidate text node containing all terms, and then
//! re-reads each candidate's text from the store to check the phrase — the
//! "extra work done at the filter level" the paper measures.

use tix_core::scoring::count_f64;
use tix_index::IndexReader;
use tix_store::{NodeRef, Store};

use crate::scored::ScoredNode;

/// A text node containing the phrase, with its occurrence count.
pub type PhraseMatch = ScoredNode;

/// PhraseFinder: merge the per-term posting lists by text node; for nodes
/// containing all terms, verify in-order adjacency with word offsets
/// during the intersection itself. Returns one [`ScoredNode`] per matching
/// text node, scored by occurrence count.
pub fn phrase_finder(
    _store: &Store,
    index: &dyn IndexReader,
    phrase_terms: &[&str],
) -> Vec<PhraseMatch> {
    let k = phrase_terms.len();
    assert!(k >= 2, "a phrase has at least two terms");
    let lists: Vec<&[tix_index::Posting]> =
        phrase_terms.iter().map(|t| index.postings(t)).collect();
    if lists.iter().any(|l| l.is_empty()) {
        return Vec::new();
    }
    // Pair each list with its cursor so the zipper below never indexes.
    let mut zipped: Vec<(usize, &[tix_index::Posting])> =
        lists.iter().map(|&list| (0usize, list)).collect();
    let mut out = Vec::new();
    // Zipper: advance every cursor to a common (doc, node).
    'outer: while let Some(first) = zipped.first().and_then(|&(c, list)| list.get(c).copied()) {
        let mut target = (first.doc, first.node);
        let mut stable = 0;
        while stable < k {
            for (cursor, list) in zipped.iter_mut() {
                while let Some(p) = list.get(*cursor) {
                    if (p.doc, p.node) < target {
                        *cursor += 1;
                    } else {
                        break;
                    }
                }
                match list.get(*cursor) {
                    None => break 'outer,
                    Some(p) if (p.doc, p.node) > target => {
                        target = (p.doc, p.node);
                        stable = 0;
                    }
                    Some(_) => stable += 1,
                }
            }
        }
        // All lists sit on `target`: verify adjacency with offsets.
        let count = count_adjacent_runs(&zipped, target);
        if count > 0 {
            out.push(ScoredNode::new(
                NodeRef::new(target.0, target.1),
                count_f64(count),
            ));
        }
        // Move every cursor past this node.
        for (cursor, list) in zipped.iter_mut() {
            while let Some(p) = list.get(*cursor) {
                if (p.doc, p.node) == target {
                    *cursor += 1;
                } else {
                    break;
                }
            }
        }
    }
    out
}

/// Within one text node, count positions where term 0's offset `o` is
/// followed by term 1 at `o+1`, term 2 at `o+2`, … (in-order adjacency).
fn count_adjacent_runs(
    zipped: &[(usize, &[tix_index::Posting])],
    target: (tix_store::DocId, tix_store::NodeIdx),
) -> usize {
    // Collect each term's offsets within the node (lists are offset-sorted).
    let offsets: Vec<Vec<u32>> = zipped
        .iter()
        .map(|&(c, list)| {
            list.get(c..)
                .unwrap_or(&[])
                .iter()
                .take_while(|p| (p.doc, p.node) == target)
                .map(|p| p.offset)
                .collect()
        })
        .collect();
    let Some((first, rest)) = offsets.split_first() else {
        return 0;
    };
    first
        .iter()
        .filter(|&&start| {
            rest.iter().enumerate().all(|(i, list)| {
                u32::try_from(i + 1).is_ok_and(|step| list.binary_search(&(start + step)).is_ok())
            })
        })
        .count()
}

/// Comp3: the intersect-then-filter baseline. The intersection produces
/// every text node containing all terms (in any arrangement); a separate
/// filter then fetches the node's text from the store, re-tokenizes it,
/// and scans for the phrase.
pub fn comp3(store: &Store, index: &dyn IndexReader, phrase_terms: &[&str]) -> Vec<PhraseMatch> {
    let k = phrase_terms.len();
    assert!(k >= 2, "a phrase has at least two terms");
    // Step 1: per-term text-node id lists.
    let node_lists: Vec<Vec<NodeRef>> = phrase_terms
        .iter()
        .map(|t| {
            let mut nodes: Vec<NodeRef> = index.postings(t).iter().map(|p| p.node_ref()).collect();
            nodes.dedup();
            nodes
        })
        .collect();
    // Step 2: k-way sorted intersection (materialized candidate list).
    let Some((first_nodes, rest_lists)) = node_lists.split_first() else {
        return Vec::new();
    };
    let mut candidates: Vec<NodeRef> = first_nodes.clone();
    for list in rest_lists {
        let mut kept = Vec::with_capacity(candidates.len().min(list.len()));
        let (mut i, mut j) = (0usize, 0usize);
        while let (Some(&a), Some(&b)) = (candidates.get(i), list.get(j)) {
            match a.cmp(&b) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    kept.push(a);
                    i += 1;
                    j += 1;
                }
            }
        }
        candidates = kept;
    }
    // Step 3: the filter — fetch, re-tokenize, and scan each candidate.
    let lowered: Vec<String> = phrase_terms.iter().map(|t| t.to_lowercase()).collect();
    candidates
        .into_iter()
        .filter_map(|node| {
            let tokens = tix_index::terms(store.text(node));
            let count = tokens
                .windows(k)
                .filter(|w| w.iter().zip(&lowered).all(|(a, b)| a == b))
                .count();
            (count > 0).then(|| ScoredNode::new(node, count_f64(count)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scored::{results_equal, sort_by_node};
    use tix_index::InvertedIndex;
    use tix_store::{DocId, NodeIdx};

    fn fixture() -> (Store, InvertedIndex) {
        let mut store = Store::new();
        store
            .load_str(
                "t.xml",
                "<r>\
                 <p>information retrieval systems</p>\
                 <p>retrieval information</p>\
                 <p>some information about retrieval</p>\
                 <p>information retrieval and information retrieval</p>\
                 <p>nothing relevant</p>\
                 </r>",
            )
            .unwrap();
        let index = InvertedIndex::build(&store);
        (store, index)
    }

    fn tn(i: u32) -> NodeRef {
        NodeRef::new(DocId(0), NodeIdx(i))
    }

    #[test]
    fn finds_only_ordered_adjacent() {
        let (store, index) = fixture();
        let found = sort_by_node(phrase_finder(&store, &index, &["information", "retrieval"]));
        // Text nodes: p1 text = 2 (1 occurrence), p4 text = 8 (2 occurrences).
        assert_eq!(found.len(), 2);
        assert_eq!(found[0], ScoredNode::new(tn(2), 1.0));
        assert_eq!(found[1], ScoredNode::new(tn(8), 2.0));
    }

    #[test]
    fn comp3_agrees() {
        let (store, index) = fixture();
        let a = sort_by_node(phrase_finder(&store, &index, &["information", "retrieval"]));
        let b = sort_by_node(comp3(&store, &index, &["information", "retrieval"]));
        assert!(results_equal(&a, &b, 1e-12), "\npf={a:?}\nc3={b:?}");
    }

    #[test]
    fn three_term_phrase() {
        let mut store = Store::new();
        store
            .load_str(
                "t.xml",
                "<r><p>fast xml database engine</p><p>xml fast database</p></r>",
            )
            .unwrap();
        let index = InvertedIndex::build(&store);
        let terms = ["fast", "xml", "database"];
        let a = sort_by_node(phrase_finder(&store, &index, &terms));
        let b = sort_by_node(comp3(&store, &index, &terms));
        assert_eq!(a.len(), 1);
        assert!(results_equal(&a, &b, 1e-12));
    }

    #[test]
    fn absent_term_empty() {
        let (store, index) = fixture();
        assert!(phrase_finder(&store, &index, &["information", "nosuch"]).is_empty());
        assert!(comp3(&store, &index, &["information", "nosuch"]).is_empty());
    }

    #[test]
    fn repeated_term_phrase() {
        let mut store = Store::new();
        store
            .load_str("t.xml", "<r><p>very very fast</p><p>very fast</p></r>")
            .unwrap();
        let index = InvertedIndex::build(&store);
        let terms = ["very", "very"];
        let a = sort_by_node(phrase_finder(&store, &index, &terms));
        let b = sort_by_node(comp3(&store, &index, &terms));
        assert!(results_equal(&a, &b, 1e-12), "\npf={a:?}\nc3={b:?}");
        assert_eq!(a.len(), 1); // only the first paragraph has "very very"
    }
}

/// Score every ancestor element by the phrase occurrences in its subtree —
/// the paper's "Counts of phrase occurrences are then used to generate
/// appropriate score values". A single stack pass over the (document-
/// ordered) phrase matches, exactly like TermJoin but with one implicit
/// "term" whose per-node weight is the match count.
// lint:allow(unused-pub): §4, PhraseFinder's count-to-score step, the paper's executable definition, exercised by its unit tests
pub fn score_ancestors_of_phrases(store: &Store, matches: &[PhraseMatch]) -> Vec<ScoredNode> {
    let mut out = Vec::new();
    // Stack frames: (element, end key, accumulated phrase count).
    let mut stack: Vec<(NodeRef, u32, f64)> = Vec::new();
    let pop = |stack: &mut Vec<(NodeRef, u32, f64)>, out: &mut Vec<ScoredNode>| {
        let Some((node, _, count)) = stack.pop() else {
            return;
        };
        if let Some(parent) = stack.last_mut() {
            parent.2 += count;
        }
        out.push(ScoredNode::new(node, count));
    };
    for m in matches {
        // A match is always a text node, which is never a document root;
        // skip rather than panic if handed something else.
        let Some(anchor) = store.parent(m.node) else {
            continue;
        };
        while let Some(&(top, end, _)) = stack.last() {
            if top.doc == anchor.doc && top.node <= anchor.node && anchor.node.as_u32() <= end {
                break;
            }
            pop(&mut stack, &mut out);
        }
        if stack.last().map(|f| f.0) != Some(anchor) {
            let stop = stack.last().map(|f| f.0);
            let mut chain = vec![anchor];
            let mut cursor = anchor;
            while let Some(parent) = store.parent(cursor) {
                if Some(parent) == stop {
                    break;
                }
                chain.push(parent);
                cursor = parent;
            }
            for node in chain.into_iter().rev() {
                stack.push((node, store.end_key(node).as_u32(), 0.0));
            }
        }
        // Same loop invariant as TermJoin's Fig. 11 stack: one contiguous
        // ancestor chain, outer frames covering inner ones.
        tix_invariants::check! {
            tix_invariants::assert_stack_ancestor_chain(stack.len(), |anc, desc| {
                // lint:allow(no-slice-index): anc/desc < stack.len() by the try_ contract
                let ((a, a_end, _), (d, _, _)) = (stack[anc], stack[desc]);
                a.doc == d.doc && a.node <= d.node && d.node.as_u32() <= a_end
            });
        }
        if let Some(top) = stack.last_mut() {
            top.2 += m.score;
        }
    }
    while !stack.is_empty() {
        pop(&mut stack, &mut out);
    }
    out
}

#[cfg(test)]
mod ancestor_tests {
    use super::*;
    use crate::scored::sort_by_node;
    use tix_index::InvertedIndex;
    use tix_store::{DocId, NodeIdx};

    #[test]
    fn ancestors_accumulate_phrase_counts() {
        let mut store = Store::new();
        store
            .load_str(
                "t.xml",
                "<a><s><p>ir search</p><p>ir search and ir search</p></s><s><p>nothing</p></s></a>",
            )
            .unwrap();
        let index = InvertedIndex::build(&store);
        let matches = phrase_finder(&store, &index, &["ir", "search"]);
        let scored = sort_by_node(score_ancestors_of_phrases(&store, &matches));
        // a=0, s=1, p=2, p=4 — all carry counts; second s has none.
        let get = |i: u32| {
            scored
                .iter()
                .find(|s| s.node == tix_store::NodeRef::new(DocId(0), NodeIdx(i)))
                .map(|s| s.score)
        };
        assert_eq!(get(0), Some(3.0)); // a
        assert_eq!(get(1), Some(3.0)); // first s
        assert_eq!(get(2), Some(1.0)); // first p
        assert_eq!(get(4), Some(2.0)); // second p
        assert_eq!(get(6), None); // second s has no phrase
    }

    #[test]
    fn empty_matches_empty_output() {
        let store = Store::new();
        assert!(score_ancestors_of_phrases(&store, &[]).is_empty());
    }
}
