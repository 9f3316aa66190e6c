//! Scored projection — π_{P,PL}(C) (Sec. 3.2.2).

use std::collections::HashMap;

use tix_store::{NodeRef, Store};

use crate::collection::Collection;
use crate::matching::matches;
use crate::pattern::{PatternNodeId, PatternTree};
use crate::scored_tree::ScoredTree;
use crate::scoring::ScoreContext;

use super::apply_derived_rules;

/// Scored projection: one output tree per input tree with at least one
/// pattern match, containing exactly the data nodes bound to variables in
/// the projection list `pl` (union over all matches, deduplicated), linked
/// by nearest-retained-ancestor.
///
/// Scoring follows Sec. 3.2.2: nodes matching primary IR-nodes are scored
/// independently by the scoring function; nodes matching secondary
/// IR-nodes get "the highest score \[they\] can possibly achieve" over the
/// retained matches. Zero-scored IR nodes are removed (Fig. 6's
/// parenthetical), unless they are also bound to a non-IR variable in `pl`.
pub fn project(
    store: &Store,
    input: &Collection,
    pattern: &PatternTree,
    pl: &[PatternNodeId],
) -> Collection {
    let ctx = ScoreContext::new(store);
    project_with_ctx(&ctx, input, pattern, pl)
}

/// [`project`] with an explicit scoring context.
pub fn project_with_ctx(
    ctx: &ScoreContext<'_>,
    input: &Collection,
    pattern: &PatternTree,
    pl: &[PatternNodeId],
) -> Collection {
    let store = ctx.store;
    let mut out = Collection::new();
    for tree in input.iter() {
        for root_entry in tree.entries().iter().filter(|e| e.parent.is_none()) {
            let Some(scope) = root_entry.source.stored() else {
                continue;
            };
            let bindings = matches(store, pattern, scope);
            if bindings.is_empty() {
                continue;
            }
            // Union of retained (node, var) pairs across matches.
            let mut vars_by_node: HashMap<NodeRef, Vec<PatternNodeId>> = HashMap::new();
            for binding in &bindings {
                for (pnode, &data) in pattern.nodes().iter().zip(binding) {
                    if !pl.contains(&pnode.id) {
                        continue;
                    }
                    let vars = vars_by_node.entry(data).or_default();
                    if !vars.contains(&pnode.id) {
                        vars.push(pnode.id);
                    }
                }
            }
            // Score each retained node: primary scorers run once per node.
            // A node scoring zero keeps its place only if it is also bound
            // to some non-IR variable in PL (like the paper's sname, which
            // appears in Fig. 6 unscored); otherwise it is removed — the
            // "(zero-score nodes are removed)" rule.
            let mut nodes: Vec<(NodeRef, Option<f64>, Vec<PatternNodeId>)> = Vec::new();
            for (node, vars) in vars_by_node {
                let score = vars
                    .iter()
                    .find_map(|&v| pattern.eval_primary(ctx, v, node));
                let has_non_ir = vars.iter().any(|&v| !pattern.is_ir_node(v));
                match score {
                    Some(0.0) => {
                        if has_non_ir {
                            nodes.push((node, None, vars));
                        }
                    }
                    other => nodes.push((node, other, vars)),
                }
            }
            let mut projected = ScoredTree::from_stored(store, nodes);
            apply_derived_rules(ctx, &mut projected, pattern.rules());
            if !projected.is_empty() {
                out.push(projected);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{EdgeKind, Predicate};
    use crate::scoring::paper::ScoreFoo;

    struct Fixture {
        store: Store,
        pattern: PatternTree,
        n1: PatternNodeId,
        n3: PatternNodeId,
        n4: PatternNodeId,
    }

    fn fixture() -> Fixture {
        let mut store = Store::new();
        store
            .load_str(
                "t.xml",
                "<article><author><sname>Doe</sname></author>\
                 <sec><p>search engine overview</p><p>nothing</p></sec></article>",
            )
            .unwrap();
        let mut pattern = PatternTree::new();
        let n1 = pattern.add_root(Predicate::tag("article"));
        let n2 = pattern.add_child(n1, EdgeKind::Child, Predicate::tag("author"));
        let n3 = pattern.add_child(
            n2,
            EdgeKind::Child,
            Predicate::And(vec![Predicate::tag("sname"), Predicate::content_eq("Doe")]),
        );
        let n4 = pattern.add_child(n1, EdgeKind::SelfOrDescendant, Predicate::True);
        pattern.score_primary(n4, ScoreFoo::shared(&["search engine"], &[]));
        pattern.score_from_descendant(n1, n4);
        Fixture {
            store,
            pattern,
            n1,
            n3,
            n4,
        }
    }

    #[test]
    fn single_tree_per_input() {
        let f = fixture();
        let input = Collection::documents(&f.store);
        let result = project(&f.store, &input, &f.pattern, &[f.n1, f.n3, f.n4]);
        assert_eq!(result.len(), 1);
    }

    #[test]
    fn zero_scored_ir_nodes_removed() {
        let f = fixture();
        let input = Collection::documents(&f.store);
        let result = project(&f.store, &input, &f.pattern, &[f.n1, f.n3, f.n4]);
        let tree = &result.trees()[0];
        // Retained: article ($1 and $4, score>0 via subtree), sname ($3),
        // sec (0.8), p (0.8). The zero-scored second p, and author (not in
        // PL), are gone.
        let tags: Vec<Option<&str>> = tree
            .entries()
            .iter()
            .map(|e| e.source.stored().and_then(|n| f.store.tag_name(n)))
            .collect();
        assert_eq!(
            tags,
            vec![Some("article"), Some("sname"), Some("sec"), Some("p")]
        );
    }

    #[test]
    fn secondary_score_is_max() {
        let f = fixture();
        let input = Collection::documents(&f.store);
        let result = project(&f.store, &input, &f.pattern, &[f.n1, f.n4]);
        let tree = &result.trees()[0];
        // article subtree contains "search engine" once → its own $4 score
        // is 0.8; sec and p also 0.8 → max is 0.8.
        assert_eq!(tree.score(), Some(0.8));
    }

    #[test]
    fn non_ir_nodes_keep_null_score() {
        let f = fixture();
        let input = Collection::documents(&f.store);
        let result = project(&f.store, &input, &f.pattern, &[f.n1, f.n3, f.n4]);
        let tree = &result.trees()[0];
        let sname = tree
            .entries()
            .iter()
            .find(|e| e.bound_to(f.n3))
            .expect("sname retained");
        assert_eq!(sname.score, None);
    }

    #[test]
    fn no_matches_no_output() {
        let f = fixture();
        let mut store2 = Store::new();
        store2.load_str("o.xml", "<other/>").unwrap();
        let input = Collection::documents(&store2);
        let result = project(&store2, &input, &f.pattern, &[f.n1]);
        assert!(result.is_empty());
    }

    #[test]
    fn pl_filters_vars() {
        let f = fixture();
        let input = Collection::documents(&f.store);
        // Only $3 in PL: output is just the sname node.
        let result = project(&f.store, &input, &f.pattern, &[f.n3]);
        let tree = &result.trees()[0];
        assert_eq!(tree.len(), 1);
        assert!(tree.entries()[0].bound_to(f.n3));
    }
}
