//! Scored pattern trees (Definition 2 of the paper): `P = (T, F, S)`.
//!
//! `T` is a node- and edge-labeled tree (edges: `pc`, `ad`, `ad*`), `F` a
//! boolean formula of node predicates, and `S` a set of scoring rules that
//! say how matched nodes acquire scores. Figure 3 of the paper (the pattern
//! for Query 2) looks like this here:
//!
//! ```
//! use tix_core::pattern::{EdgeKind, PatternTree, Predicate};
//! use tix_core::scoring::paper::ScoreFoo;
//!
//! let mut p = PatternTree::new();
//! let n1 = p.add_root(Predicate::tag("article"));
//! let n2 = p.add_child(n1, EdgeKind::Child, Predicate::tag("author"));
//! let n3 = p.add_child(n2, EdgeKind::Child, Predicate::And(vec![
//!     Predicate::tag("sname"),
//!     Predicate::content_eq("Doe"),
//! ]));
//! let n4 = p.add_child(n1, EdgeKind::SelfOrDescendant, Predicate::True);
//! p.score_primary(n4, ScoreFoo::shared(
//!     &["search engine"],
//!     &["internet", "information retrieval"],
//! ));
//! p.score_from_descendant(n1, n4); // $1.score = $4.score
//! assert_eq!(p.len(), 4);
//! ```

use std::fmt;
use std::sync::Arc;

use tix_store::{NodeKind, NodeRef, Store};

use crate::scoring::{NodeScorer, ScoreContext};

/// Identifier of a pattern node (the paper labels them `$1`, `$2`, …).
/// Also used as the identifier space for auxiliary score variables such as
/// `$joinScore`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternNodeId(pub u32);

impl fmt::Display for PatternNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${}", self.0)
    }
}

/// Edge labels of the pattern tree (Def. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// `pc`: parent-child.
    Child,
    /// `ad`: ancestor-descendant (proper).
    Descendant,
    /// `ad*`: self-or-descendant — "especially common in IR-style queries
    /// against XML" (the unit-of-retrieval variable).
    SelfOrDescendant,
}

/// A node predicate — the formula `F` is the conjunction over all pattern
/// nodes of their predicate expressions (arbitrary boolean combinations are
/// expressible per node via `And`/`Or`/`Not`).
#[derive(Debug, Clone)]
pub enum Predicate {
    /// Always true (unconstrained node, e.g. the paper's `$4`).
    True,
    /// `node.tag = t`.
    TagEq(String),
    /// `node.content = s` — the concatenated subtree text, trimmed.
    ContentEq(String),
    /// The subtree text contains `s` (case-insensitive).
    ContentContains(String),
    /// `node.attr = v`.
    AttrEq(String, String),
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Shorthand for [`Predicate::TagEq`].
    pub fn tag(t: &str) -> Self {
        Predicate::TagEq(t.to_string())
    }

    /// Shorthand for [`Predicate::ContentEq`].
    pub fn content_eq(s: &str) -> Self {
        Predicate::ContentEq(s.to_string())
    }

    /// Evaluate the predicate against a stored node.
    ///
    /// Only element nodes can match a pattern node (the algebra's trees are
    /// element trees; text is reached through `content`).
    pub fn eval(&self, store: &Store, node: NodeRef) -> bool {
        if store.kind(node) != NodeKind::Element {
            return false;
        }
        self.eval_element(store, node)
    }

    fn eval_element(&self, store: &Store, node: NodeRef) -> bool {
        match self {
            Predicate::True => true,
            Predicate::TagEq(t) => store.tag_name(node) == Some(t.as_str()),
            Predicate::ContentEq(s) => store.text_content(node).trim() == s,
            Predicate::ContentContains(s) => store
                .text_content(node)
                .to_lowercase()
                .contains(&s.to_lowercase()),
            Predicate::AttrEq(name, value) => store.attribute(node, name) == Some(value.as_str()),
            Predicate::And(parts) => parts.iter().all(|p| p.eval_element(store, node)),
            Predicate::Or(parts) => parts.iter().any(|p| p.eval_element(store, node)),
            Predicate::Not(inner) => !inner.eval_element(store, node),
        }
    }
}

/// Aggregation used when a secondary IR-node draws its score from the
/// nodes matching a descendant variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Highest score ("selecting the highest score it can possibly
    /// achieve", Sec. 3.2.2) — the paper's default for secondary IR-nodes.
    Max,
    /// Sum of scores.
    Sum,
}

impl Agg {
    /// Apply the aggregate to an iterator of scores.
    pub fn apply(self, scores: impl Iterator<Item = f64>) -> Option<f64> {
        let mut any = false;
        let mut acc = 0.0f64;
        for s in scores {
            if !any {
                acc = s;
                any = true;
            } else {
                acc = match self {
                    Agg::Max => acc.max(s),
                    Agg::Sum => acc + s,
                };
            }
        }
        any.then_some(acc)
    }
}

/// The combining function of a [`ScoreRule::Combined`] rule: maps the
/// gathered input scores (missing inputs arrive as 0) to the node's score.
pub type ScoreCombiner = Arc<dyn Fn(&[f64]) -> f64 + Send + Sync>;

/// An input to a [`ScoreRule::Combined`] rule.
#[derive(Clone)]
pub enum ScoreInput {
    /// Aggregate of the scores of nodes bound to a variable.
    Var(PatternNodeId, Agg),
    /// An auxiliary score attached to the tree (e.g. `$joinScore`).
    Aux(PatternNodeId),
}

/// One entry of the scoring set `S`.
#[derive(Clone)]
pub enum ScoreRule {
    /// A **primary IR-node**: an IR predicate scores the matched node
    /// directly (e.g. `$4.score = ScoreFoo(...)`).
    Primary {
        /// The pattern node being scored.
        node: PatternNodeId,
        /// The user-defined scoring function.
        scorer: Arc<dyn NodeScorer>,
    },
    /// A **secondary IR-node** whose score derives from the nodes matching
    /// a descendant variable (e.g. `$1.score = $4.score`).
    FromDescendant {
        /// The pattern node being scored.
        node: PatternNodeId,
        /// The variable supplying scores.
        source: PatternNodeId,
        /// How multiple matches combine (Max reproduces the paper).
        agg: Agg,
    },
    /// A general combination (Fig. 4: `$1.score = ScoreBar($joinScore,
    /// $6.score)`).
    Combined {
        /// The pattern node being scored.
        node: PatternNodeId,
        /// Input scores, in the order the combiner expects them.
        inputs: Vec<ScoreInput>,
        /// The combining function; missing inputs arrive as 0.
        combine: ScoreCombiner,
    },
}

impl fmt::Debug for ScoreRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScoreRule::Primary { node, scorer } => {
                write!(f, "Primary({node} <- {})", scorer.name())
            }
            ScoreRule::FromDescendant { node, source, agg } => {
                write!(f, "FromDescendant({node} <- {agg:?} {source})")
            }
            ScoreRule::Combined { node, inputs, .. } => {
                write!(f, "Combined({node} <- {} inputs)", inputs.len())
            }
        }
    }
}

/// One node of the pattern tree `T`.
#[derive(Debug, Clone)]
pub struct PatternNode {
    /// The node's identifier (`$n`).
    pub id: PatternNodeId,
    /// Parent pattern node, if any.
    pub parent: Option<PatternNodeId>,
    /// Label of the edge to the parent (meaningless for roots).
    pub edge: EdgeKind,
    /// The node's predicate (its conjunct of the formula `F`).
    pub predicate: Predicate,
}

/// A scored pattern tree `(T, F, S)`.
#[derive(Debug, Clone, Default)]
pub struct PatternTree {
    nodes: Vec<PatternNode>,
    rules: Vec<ScoreRule>,
    next_id: u32,
}

impl PatternTree {
    /// Create an empty pattern.
    pub fn new() -> Self {
        PatternTree::default()
    }

    /// Create an empty pattern whose node ids start at `first` instead of
    /// `$1` — used to keep the variable spaces of two patterns disjoint
    /// when their matches are combined by the join operator (the paper's
    /// Fig. 4 numbers the two sides `$2…$6` and `$7…$8`).
    pub fn with_first_id(first: u32) -> Self {
        assert!(first >= 1, "pattern ids start at 1");
        PatternTree {
            next_id: first - 1,
            ..PatternTree::default()
        }
    }

    fn fresh_id(&mut self) -> PatternNodeId {
        self.next_id += 1;
        PatternNodeId(self.next_id)
    }

    /// Add a root pattern node. Multiple roots are allowed (the product
    /// operator matches two independent patterns).
    pub fn add_root(&mut self, predicate: Predicate) -> PatternNodeId {
        let id = self.fresh_id();
        self.nodes.push(PatternNode {
            id,
            parent: None,
            edge: EdgeKind::Child,
            predicate,
        });
        id
    }

    /// Add a child pattern node under `parent` with the given edge label.
    ///
    /// # Panics
    /// Panics if `parent` is not a node of this pattern.
    pub fn add_child(
        &mut self,
        parent: PatternNodeId,
        edge: EdgeKind,
        predicate: Predicate,
    ) -> PatternNodeId {
        assert!(
            self.node(parent).is_some(),
            "unknown parent pattern node {parent}"
        );
        let id = self.fresh_id();
        self.nodes.push(PatternNode {
            id,
            parent: Some(parent),
            edge,
            predicate,
        });
        id
    }

    /// Declare `node` a primary IR-node scored by `scorer`.
    pub fn score_primary(&mut self, node: PatternNodeId, scorer: Arc<dyn NodeScorer>) {
        self.rules.push(ScoreRule::Primary { node, scorer });
    }

    /// Declare `node` a secondary IR-node with `node.score = max(source.score)`.
    pub fn score_from_descendant(&mut self, node: PatternNodeId, source: PatternNodeId) {
        self.rules.push(ScoreRule::FromDescendant {
            node,
            source,
            agg: Agg::Max,
        });
    }

    /// Strengthen existing pattern nodes with additional attribute-equality
    /// constraints `(node, attribute name, value)` — used by the query
    /// front end for `[@name="v"]` predicates, which constrain an already-
    /// added step rather than introducing a new one.
    pub fn strengthen(&mut self, constraints: &[(PatternNodeId, String, String)]) {
        for (id, name, value) in constraints {
            if let Some(node) = self.nodes.iter_mut().find(|n| n.id == *id) {
                let existing = std::mem::replace(&mut node.predicate, Predicate::True);
                node.predicate = Predicate::And(vec![
                    existing,
                    Predicate::AttrEq(name.clone(), value.clone()),
                ]);
            }
        }
    }

    /// Number of pattern nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the pattern has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The pattern nodes in insertion (preorder) order.
    pub fn nodes(&self) -> &[PatternNode] {
        &self.nodes
    }

    /// Look up a pattern node by id.
    pub fn node(&self, id: PatternNodeId) -> Option<&PatternNode> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// The scoring rules `S`.
    pub fn rules(&self) -> &[ScoreRule] {
        &self.rules
    }

    /// Root pattern nodes.
    pub fn roots(&self) -> impl Iterator<Item = &PatternNode> {
        self.nodes.iter().filter(|n| n.parent.is_none())
    }

    /// Children of pattern node `id`.
    pub fn children(&self, id: PatternNodeId) -> impl Iterator<Item = &PatternNode> {
        self.nodes.iter().filter(move |n| n.parent == Some(id))
    }

    /// The primary scorer attached to `id`, if any.
    pub fn primary_scorer(&self, id: PatternNodeId) -> Option<&Arc<dyn NodeScorer>> {
        self.rules.iter().find_map(|r| match r {
            ScoreRule::Primary { node, scorer } if *node == id => Some(scorer),
            _ => None,
        })
    }

    /// True when `id` is an IR-node (primary or secondary) — i.e. some rule
    /// assigns it a score.
    pub fn is_ir_node(&self, id: PatternNodeId) -> bool {
        self.rules.iter().any(|r| match r {
            ScoreRule::Primary { node, .. }
            | ScoreRule::FromDescendant { node, .. }
            | ScoreRule::Combined { node, .. } => *node == id,
        })
    }

    /// Evaluate the primary score for a data node bound to pattern node
    /// `id`; `None` when `id` has no primary scorer.
    pub fn eval_primary(
        &self,
        ctx: &ScoreContext<'_>,
        id: PatternNodeId,
        node: NodeRef,
    ) -> Option<f64> {
        self.primary_scorer(id)
            .map(|scorer| scorer.score(ctx, node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoring::paper::ScoreFoo;
    use tix_store::{DocId, NodeIdx, Store};

    fn nref(i: u32) -> NodeRef {
        NodeRef::new(DocId(0), NodeIdx(i))
    }

    #[test]
    fn build_query2_pattern() {
        let mut p = PatternTree::new();
        let n1 = p.add_root(Predicate::tag("article"));
        let n2 = p.add_child(n1, EdgeKind::Child, Predicate::tag("author"));
        let _n3 = p.add_child(
            n2,
            EdgeKind::Child,
            Predicate::And(vec![Predicate::tag("sname"), Predicate::content_eq("Doe")]),
        );
        let n4 = p.add_child(n1, EdgeKind::SelfOrDescendant, Predicate::True);
        p.score_primary(n4, ScoreFoo::shared(&["search engine"], &[]));
        p.score_from_descendant(n1, n4);
        assert_eq!(p.len(), 4);
        assert!(p.is_ir_node(n1));
        assert!(p.is_ir_node(n4));
        assert!(!p.is_ir_node(n2));
        assert!(p.primary_scorer(n4).is_some());
        assert!(p.primary_scorer(n1).is_none());
    }

    #[test]
    fn predicates_eval() {
        let mut store = Store::new();
        store
            .load_str("t.xml", r#"<a id="7"><b>Doe</b><c>unrelated</c></a>"#)
            .unwrap();
        let a = nref(0);
        let b = nref(1);
        assert!(Predicate::tag("a").eval(&store, a));
        assert!(!Predicate::tag("a").eval(&store, b));
        assert!(Predicate::content_eq("Doe").eval(&store, b));
        assert!(Predicate::AttrEq("id".into(), "7".into()).eval(&store, a));
        assert!(Predicate::ContentContains("DOE".into()).eval(&store, b));
        assert!(
            Predicate::And(vec![Predicate::tag("b"), Predicate::content_eq("Doe")]).eval(&store, b)
        );
        assert!(Predicate::Or(vec![Predicate::tag("z"), Predicate::tag("b")]).eval(&store, b));
        assert!(Predicate::Not(Box::new(Predicate::tag("z"))).eval(&store, b));
        // Text nodes never match.
        assert!(!Predicate::True.eval(&store, nref(2)));
    }

    #[test]
    fn agg_apply() {
        assert_eq!(Agg::Max.apply([1.0, 5.0, 3.0].into_iter()), Some(5.0));
        assert_eq!(Agg::Sum.apply([1.0, 5.0, 3.0].into_iter()), Some(9.0));
        assert_eq!(Agg::Max.apply(std::iter::empty()), None);
    }

    #[test]
    #[should_panic(expected = "unknown parent")]
    fn bad_parent_panics() {
        let mut p = PatternTree::new();
        p.add_child(PatternNodeId(42), EdgeKind::Child, Predicate::True);
    }

    #[test]
    fn ids_are_sequential_dollar_names() {
        let mut p = PatternTree::new();
        let n1 = p.add_root(Predicate::True);
        let n2 = p.add_child(n1, EdgeKind::Child, Predicate::True);
        assert_eq!(n1.to_string(), "$1");
        assert_eq!(n2.to_string(), "$2");
    }
}
