//! Scored product and join — C₁ × C₂ and C₁ ⨝′ C₂ (Sec. 3.2.3).

use std::sync::Arc;

use crate::collection::Collection;
use crate::pattern::{PatternNodeId, ScoreRule};
use crate::scored_tree::{NodeSource, ScoredTree, TreeEntry};
use crate::scoring::{JoinScorer, ScoreContext};

use super::apply_derived_rules;

/// A scored join condition: evaluate `scorer` between the nodes bound to
/// `left` (from the first collection) and `right` (from the second). The
/// best pair's score is attached to the output tree as the auxiliary
/// variable `output` (the paper's `$joinScore`). If `min_score` is set,
/// pairs that never reach it are dropped (an *IR value join* — Ex. 5.1).
pub struct JoinCondition {
    /// Variable bound in the left input's trees.
    pub left: PatternNodeId,
    /// Variable bound in the right input's trees.
    pub right: PatternNodeId,
    /// The similarity function.
    pub scorer: Arc<dyn JoinScorer>,
    /// Auxiliary variable receiving the join score.
    pub output: PatternNodeId,
    /// Minimum join score for the pair to survive, if any.
    pub min_score: Option<f64>,
}

/// The tag of the synthesized product root (the paper's `tix_prod_root`).
pub const PROD_ROOT_TAG: &str = "tix_prod_root";

/// Graft `tree`'s entries under a new synthetic root at index 0 of `out`.
fn graft(out: &mut ScoredTree, tree: &ScoredTree) {
    let offset = out.len() as u32;
    for entry in tree.entries() {
        let mut entry = entry.clone();
        entry.parent = Some(match entry.parent {
            Some(p) => p + offset,
            None => 0, // attach old roots to the synthetic root
        });
        out.push_entry(entry);
    }
}

/// The product: every pair of trees from the two inputs, joined under a
/// fresh `tix_prod_root` element bound to `root_var`.
// lint:allow(unused-pub): §3.2.3's scored product, the algebra's executable definition, exercised by its unit tests
pub fn product(c1: &Collection, c2: &Collection, root_var: PatternNodeId) -> Collection {
    let mut out = Collection::new();
    for t1 in c1.iter() {
        for t2 in c2.iter() {
            let mut tree = ScoredTree::new();
            tree.push_entry(TreeEntry {
                source: NodeSource::Synthetic(PROD_ROOT_TAG.to_string()),
                score: None,
                parent: None,
                vars: vec![root_var],
            });
            graft(&mut tree, t1);
            graft(&mut tree, t2);
            out.push(tree);
        }
    }
    out
}

/// Scored join: a selection over the product (Sec. 3.2.3). For each
/// surviving pair, every condition's best score is attached as an auxiliary
/// variable, and `root_rules` (e.g. `$1.score = ScoreBar($joinScore,
/// $6.score)`) then derive the root's score.
pub fn join(
    ctx: &ScoreContext<'_>,
    c1: &Collection,
    c2: &Collection,
    conditions: &[JoinCondition],
    root_var: PatternNodeId,
    root_rules: &[ScoreRule],
) -> Collection {
    let mut out = Collection::new();
    for t1 in c1.iter() {
        'pair: for t2 in c2.iter() {
            // Evaluate all conditions on the pair first (cheap reject).
            let mut aux = Vec::with_capacity(conditions.len());
            for cond in conditions {
                let mut best: Option<f64> = None;
                for (_, le) in t1.bound(cond.left) {
                    let Some(ln) = le.source.stored() else {
                        continue;
                    };
                    for (_, re) in t2.bound(cond.right) {
                        let Some(rn) = re.source.stored() else {
                            continue;
                        };
                        let s = cond.scorer.score(ctx, ln, rn);
                        best = Some(best.map_or(s, |b: f64| b.max(s)));
                    }
                }
                let score = match best {
                    Some(s) => s,
                    None => continue 'pair, // a condition variable was unbound
                };
                if let Some(min) = cond.min_score {
                    if score <= min {
                        continue 'pair;
                    }
                }
                aux.push((cond.output, score));
            }
            let mut tree = ScoredTree::new();
            tree.push_entry(TreeEntry {
                source: NodeSource::Synthetic(PROD_ROOT_TAG.to_string()),
                score: None,
                parent: None,
                vars: vec![root_var],
            });
            graft(&mut tree, t1);
            graft(&mut tree, t2);
            for (var, score) in aux {
                tree.set_aux(var, score);
            }
            apply_derived_rules(ctx, &mut tree, root_rules);
            out.push(tree);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{Agg, PatternTree, Predicate, ScoreInput};
    use crate::scoring::paper::{score_bar_combiner, ScoreSim};
    use tix_store::Store;

    fn fixture() -> (Store, Collection, Collection, PatternNodeId, PatternNodeId) {
        let mut store = Store::new();
        store
            .load_str(
                "articles.xml",
                "<article><article-title>Internet Technologies</article-title>\
                 <p>search engine overview</p></article>",
            )
            .unwrap();
        store
            .load_str(
                "reviews.xml",
                "<reviews><review><title>Internet Technologies</title></review>\
                 <review><title>Cooking Basics</title></review></reviews>",
            )
            .unwrap();

        // Left: article with its title ($2=article, $3=title, $6=unit).
        let mut left = PatternTree::new();
        let a = left.add_root(Predicate::tag("article"));
        let at = left.add_child(
            a,
            crate::pattern::EdgeKind::Child,
            Predicate::tag("article-title"),
        );
        let unit = left.add_child(
            a,
            crate::pattern::EdgeKind::SelfOrDescendant,
            Predicate::True,
        );
        left.score_primary(
            unit,
            crate::scoring::paper::ScoreFoo::shared(&["search engine"], &[]),
        );
        let c1 = crate::ops::select(&store, &Collection::documents(&store), &left);
        let _ = (at, unit);

        // Right: reviews with titles.
        let mut right = PatternTree::new();
        let r = right.add_root(Predicate::tag("review"));
        let rt = right.add_child(r, crate::pattern::EdgeKind::Child, Predicate::tag("title"));
        let c2 = crate::ops::select(&store, &Collection::documents(&store), &right);
        let _ = rt;

        (store, c1, c2, at, rt)
    }

    #[test]
    fn product_pairs_everything() {
        let (_store, c1, c2, _, _) = fixture();
        let root_var = PatternNodeId(100);
        let prod = product(&c1, &c2, root_var);
        assert_eq!(prod.len(), c1.len() * c2.len());
        for tree in prod.iter() {
            let root = &tree.entries()[0];
            assert_eq!(root.source, NodeSource::Synthetic(PROD_ROOT_TAG.into()));
            assert!(root.bound_to(root_var));
        }
    }

    #[test]
    fn join_scores_and_filters() {
        let (store, c1, c2, at, rt) = fixture();
        let ctx = ScoreContext::new(&store);
        let root_var = PatternNodeId(100);
        let join_score = PatternNodeId(101);
        let conditions = [JoinCondition {
            left: at,
            right: rt,
            scorer: Arc::new(ScoreSim),
            output: join_score,
            min_score: Some(1.0),
        }];
        let result = join(&ctx, &c1, &c2, &conditions, root_var, &[]);
        // Left side has 3 witnesses ($6 over article, article-title, p);
        // only the "Internet Technologies" review survives min_score=1
        // ("Cooking Basics" shares 0 words; "Internet Technologies" shares 2).
        assert_eq!(result.len(), c1.len());
        for tree in result.iter() {
            assert_eq!(tree.aux(join_score), Some(2.0));
        }
    }

    #[test]
    fn join_root_rules_combine() {
        let (store, c1, c2, at, rt) = fixture();
        let ctx = ScoreContext::new(&store);
        let root_var = PatternNodeId(100);
        let join_score = PatternNodeId(101);
        let unit_var = PatternNodeId(3); // $3 = the ad* unit in `left`
        let conditions = [JoinCondition {
            left: at,
            right: rt,
            scorer: Arc::new(ScoreSim),
            output: join_score,
            min_score: None,
        }];
        let rules = [ScoreRule::Combined {
            node: root_var,
            inputs: vec![
                ScoreInput::Aux(join_score),
                ScoreInput::Var(unit_var, Agg::Max),
            ],
            combine: score_bar_combiner(),
        }];
        let result = join(&ctx, &c1, &c2, &conditions, root_var, &rules);
        // Witness where $3 bound the relevant p (0.8) and review matched
        // with simScore 2.0 → ScoreBar(2.0, 0.8) = 2.8 (the paper's Fig. 7).
        let best = result
            .iter()
            .filter_map(|t| t.score())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((best - 2.8).abs() < 1e-9, "best {best}");
    }

    #[test]
    fn empty_inputs() {
        let (store, c1, _, at, rt) = fixture();
        let ctx = ScoreContext::new(&store);
        let empty = Collection::new();
        let result = join(&ctx, &c1, &empty, &[], PatternNodeId(1), &[]);
        assert!(result.is_empty());
        let _ = (at, rt);
    }
}
