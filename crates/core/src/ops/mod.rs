//! The TIX operators (Sec. 3.2 and 3.3 of the paper).
//!
//! Every operator consumes and produces a [`Collection`](crate::Collection)
//! of scored trees, giving algebraic closure. The extended classical
//! operators are [`select`], [`project`], and [`join`]/[`product`]; the two
//! operators the paper introduces for IR-style processing are
//! [`threshold`] and [`pick`].

mod group;
mod join;
mod pick;
mod project;
mod select;
mod threshold;

pub use group::{group_order_by_score, retain_leftmost, GROUP_ROOT_TAG};
pub use join::{join, product, JoinCondition};
pub use pick::{horizontal_pick, pick, picked_entries, FractionPick, PickCriterion};
pub use project::project;
pub use select::select;
pub use threshold::{threshold, ThresholdCond};

use crate::pattern::{ScoreInput, ScoreRule};
use crate::scored_tree::ScoredTree;
use crate::scoring::ScoreContext;

/// Apply the derived (non-primary) scoring rules of `S` to a tree:
/// secondary IR-nodes (`FromDescendant`) and general combinations
/// (`Combined`). `Primary` rules are evaluated by the operators
/// themselves at match time and are skipped here.
///
/// Derived scores are *dynamic*: operators that change the set of matching
/// IR-nodes (notably Pick, Sec. 3.3.2) re-invoke this to refresh them.
pub fn apply_derived_rules(_ctx: &ScoreContext<'_>, tree: &mut ScoredTree, rules: &[ScoreRule]) {
    for rule in rules {
        match rule {
            ScoreRule::Primary { .. } => {}
            ScoreRule::FromDescendant { node, source, agg } => {
                let derived = agg.apply(tree.bound(*source).filter_map(|(_, e)| e.score));
                if let Some(score) = derived {
                    for entry in tree.entries_mut() {
                        if entry.vars.contains(node) {
                            entry.score = Some(score);
                        }
                    }
                }
            }
            ScoreRule::Combined {
                node,
                inputs,
                combine,
            } => {
                let values: Vec<f64> = inputs
                    .iter()
                    .map(|input| match input {
                        ScoreInput::Var(var, agg) => agg
                            .apply(tree.bound(*var).filter_map(|(_, e)| e.score))
                            .unwrap_or(0.0),
                        ScoreInput::Aux(var) => tree.aux(*var).unwrap_or(0.0),
                    })
                    .collect();
                let score = combine(&values);
                for entry in tree.entries_mut() {
                    if entry.vars.contains(node) {
                        entry.score = Some(score);
                    }
                }
            }
        }
    }
}
