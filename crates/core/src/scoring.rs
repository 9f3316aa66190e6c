//! User-definable scoring functions (the paper's Fig. 9), and the traits
//! through which the algebra invokes them.
//!
//! The paper stresses that scoring is *pluggable*: "Our system … enables
//! the user to specify scoring function by providing them with language
//! extensions with which user-defined functions can be plugged" (Sec. 7).
//! [`NodeScorer`] and [`JoinScorer`] are those plug points; the `paper`
//! module ships the exact functions used in the paper's running example so
//! its figures can be reproduced number-for-number.

use std::sync::Arc;

use tix_index::IndexReader;
use tix_store::{NodeRef, Store};

/// Everything a scoring function may consult.
pub struct ScoreContext<'a> {
    /// The database.
    pub store: &'a Store,
    /// The inverted index, when one has been built (scorers fall back to
    /// scanning subtree text without it).
    pub index: Option<&'a dyn IndexReader>,
}

impl<'a> ScoreContext<'a> {
    /// Context without an index.
    pub fn new(store: &'a Store) -> Self {
        ScoreContext { store, index: None }
    }
}

/// A scoring function applied to a single matched node (a primary IR
/// predicate).
pub trait NodeScorer: Send + Sync {
    /// Compute the node's relevance score.
    fn score(&self, ctx: &ScoreContext<'_>, node: NodeRef) -> f64;

    /// Diagnostic name.
    fn name(&self) -> &str;
}

/// A scoring function applied to a pair of matched nodes (a scored join
/// condition, Sec. 3.2.3).
pub trait JoinScorer: Send + Sync {
    /// Compute the similarity score between `left` and `right`.
    fn score(&self, ctx: &ScoreContext<'_>, left: NodeRef, right: NodeRef) -> f64;

    /// Diagnostic name.
    fn name(&self) -> &str;
}

/// Count non-overlapping, case-insensitive occurrences of `phrase` in
/// `text` — the paper's `count(α, $a/alltext())` primitive.
pub fn phrase_count(text: &str, phrase: &str) -> usize {
    if phrase.is_empty() {
        return 0;
    }
    let haystack = text.to_lowercase();
    let needle = phrase.to_lowercase();
    let mut count = 0;
    let mut rest = haystack.as_str();
    while let Some(pos) = rest.find(&needle) {
        count += 1;
        // lint:allow(no-slice-index): pos + needle.len() is the end of the match find() located
        rest = &rest[pos + needle.len()..];
    }
    count
}

/// Convert an occurrence count to `f64` for score arithmetic.
///
/// Counts are bounded by the collection's token count, far below 2^53,
/// so the conversion is exact — this is the one sanctioned `as` cast on
/// the scoring path.
pub fn count_f64(n: usize) -> f64 {
    // lint:allow(no-as-cast): counts are < 2^53, conversion is exact
    n as f64
}

/// The functions of the paper's Figure 9.
pub mod paper {
    use super::*;
    use tix_index::terms;

    /// `ScoreFoo(A, B)` — weighted phrase-count sum (Fig. 9):
    /// `Σ_{α∈A} 0.8·count(α, alltext) + Σ_{β∈B} 0.6·count(β, alltext)`.
    ///
    /// `A` holds the primary phrases ("search engine"), `B` the desirable
    /// secondary phrases ("internet", "information retrieval").
    pub struct ScoreFoo {
        primary: Vec<String>,
        secondary: Vec<String>,
        /// Weight for primary phrases (paper: 0.8).
        pub primary_weight: f64,
        /// Weight for secondary phrases (paper: 0.6).
        pub secondary_weight: f64,
    }

    impl ScoreFoo {
        /// Build with the paper's weights (0.8 / 0.6).
        pub fn new(primary: Vec<String>, secondary: Vec<String>) -> Self {
            ScoreFoo {
                primary,
                secondary,
                primary_weight: 0.8,
                secondary_weight: 0.6,
            }
        }

        /// Convenience constructor returning an `Arc<dyn NodeScorer>`.
        pub fn shared(primary: &[&str], secondary: &[&str]) -> Arc<dyn NodeScorer> {
            Arc::new(ScoreFoo::new(
                primary.iter().map(|s| s.to_string()).collect(),
                secondary.iter().map(|s| s.to_string()).collect(),
            ))
        }
    }

    impl NodeScorer for ScoreFoo {
        fn score(&self, ctx: &ScoreContext<'_>, node: NodeRef) -> f64 {
            let text = ctx.store.text_content(node);
            let mut score = 0.0;
            for phrase in &self.primary {
                score += self.primary_weight * count_f64(phrase_count(&text, phrase));
            }
            for phrase in &self.secondary {
                score += self.secondary_weight * count_f64(phrase_count(&text, phrase));
            }
            score
        }

        fn name(&self) -> &str {
            "ScoreFoo"
        }
    }

    /// `ScoreSim(a, b)` — `count-same($a/text(), $b/text())`: the number of
    /// distinct words occurring in both nodes' text (Fig. 9). The paper
    /// notes a real system would use cosine similarity; see
    /// [`super::CosineScorer`] for that extension.
    pub struct ScoreSim;

    impl JoinScorer for ScoreSim {
        fn score(&self, ctx: &ScoreContext<'_>, left: NodeRef, right: NodeRef) -> f64 {
            let a = terms(&ctx.store.text_content(left));
            let b = terms(&ctx.store.text_content(right));
            let set_a: std::collections::HashSet<&str> = a.iter().map(String::as_str).collect();
            let set_b: std::collections::HashSet<&str> = b.iter().map(String::as_str).collect();
            count_f64(set_a.intersection(&set_b).count())
        }

        fn name(&self) -> &str {
            "ScoreSim"
        }
    }

    /// `ScoreBar(score1, score2)` — `if score2 > 0 { score1 + score2 } else
    /// { 0 }` (Fig. 9): the join score only counts when the article actually
    /// contains relevant components.
    pub fn score_bar(score1: f64, score2: f64) -> f64 {
        if score2 > 0.0 {
            score1 + score2
        } else {
            0.0
        }
    }

    /// `ScoreBar` as a combiner closure for
    /// [`crate::pattern::ScoreRule::Combined`] (inputs: `[score1, score2]`).
    pub fn score_bar_combiner() -> crate::pattern::ScoreCombiner {
        Arc::new(|inputs: &[f64]| {
            let score1 = inputs.first().copied().unwrap_or(0.0);
            let score2 = inputs.get(1).copied().unwrap_or(0.0);
            score_bar(score1, score2)
        })
    }
}

/// A tf·idf scorer over the inverted index — the "more sophisticated
/// methods involving term frequency and inverted document frequency" the
/// paper's Fig. 9 footnote gestures at.
///
/// `score(n) = Σ_t tf(t, subtree(n)) · idf(t)`, with tf counted through the
/// index's region-encoded subtree count.
pub struct TfIdfScorer {
    terms: Vec<String>,
}

impl TfIdfScorer {
    /// Score the given terms.
    pub fn new(terms: Vec<String>) -> Self {
        TfIdfScorer { terms }
    }

    /// Convenience constructor returning an `Arc<dyn NodeScorer>`.
    pub fn shared(terms: &[&str]) -> Arc<dyn NodeScorer> {
        Arc::new(TfIdfScorer::new(
            terms.iter().map(|s| s.to_string()).collect(),
        ))
    }
}

impl NodeScorer for TfIdfScorer {
    /// # Panics
    /// Panics if the context has no inverted index: tf·idf is undefined
    /// without document frequencies, and silently scoring 0 would corrupt
    /// rankings, so misconfiguration fails loudly.
    fn score(&self, ctx: &ScoreContext<'_>, node: NodeRef) -> f64 {
        let index = ctx
            .index
            // lint:allow(no-unwrap): documented panic contract above
            .expect("TfIdfScorer requires a ScoreContext with an inverted index");
        let docs = ctx.store.doc_count();
        self.terms
            .iter()
            .map(|t| count_f64(index.count_in_subtree(ctx.store, t, node)) * index.idf(t, docs))
            .sum()
    }

    fn name(&self) -> &str {
        "TfIdf"
    }
}

/// Cosine similarity between the term-frequency vectors of two nodes'
/// subtree text — the "vector space cosine similarity" the paper suggests
/// as the realistic `ScoreSim`.
pub struct CosineScorer;

impl JoinScorer for CosineScorer {
    fn score(&self, ctx: &ScoreContext<'_>, left: NodeRef, right: NodeRef) -> f64 {
        use std::collections::HashMap;
        let tf = |node: NodeRef| -> HashMap<String, f64> {
            let mut map = HashMap::new();
            for term in tix_index::terms(&ctx.store.text_content(node)) {
                *map.entry(term).or_insert(0.0) += 1.0;
            }
            map
        };
        let a = tf(left);
        let b = tf(right);
        let dot: f64 = a
            .iter()
            .filter_map(|(t, &w)| b.get(t).map(|&v| w * v))
            .sum();
        let norm = |m: &HashMap<String, f64>| m.values().map(|v| v * v).sum::<f64>().sqrt();
        // Norms are non-negative, so `<= 0.0` is exactly the zero test —
        // without comparing floats for equality.
        let denom = norm(&a) * norm(&b);
        if denom <= 0.0 {
            0.0
        } else {
            dot / denom
        }
    }

    fn name(&self) -> &str {
        "Cosine"
    }
}

#[cfg(test)]
mod tests {
    use super::paper::*;
    use super::*;
    use tix_store::{DocId, NodeIdx};

    fn nref(i: u32) -> NodeRef {
        NodeRef::new(DocId(0), NodeIdx(i))
    }

    #[test]
    fn phrase_count_basics() {
        assert_eq!(phrase_count("search engine", "search engine"), 1);
        assert_eq!(phrase_count("Search Engine Basics", "search engine"), 1);
        assert_eq!(
            phrase_count("search engines are search engines", "search engine"),
            2
        );
        assert_eq!(phrase_count("nothing here", "search engine"), 0);
        assert_eq!(phrase_count("anything", ""), 0);
    }

    #[test]
    fn scorefoo_weighted_sum() {
        let mut store = Store::new();
        store
            .load_str(
                "t.xml",
                "<p>search engine NewsInEssence uses a new information retrieval technology</p>",
            )
            .unwrap();
        let scorer = ScoreFoo::new(
            vec!["search engine".into()],
            vec!["internet".into(), "information retrieval".into()],
        );
        let ctx = ScoreContext::new(&store);
        // 1×0.8 + 0×0.6 + 1×0.6 = 1.4 — the paper's #a19 score.
        let score = scorer.score(&ctx, nref(0));
        assert!((score - 1.4).abs() < 1e-9, "got {score}");
    }

    #[test]
    fn scoresim_common_words() {
        let mut store = Store::new();
        store
            .load_str("t.xml", "<r><a>Internet Technologies</a><b>Internet Technologies</b><c>WWW Technologies</c></r>")
            .unwrap();
        let ctx = ScoreContext::new(&store);
        // a=1, b=3, c=5 (elements at odd indexes; text nodes between).
        assert_eq!(ScoreSim.score(&ctx, nref(1), nref(3)), 2.0);
        assert_eq!(ScoreSim.score(&ctx, nref(1), nref(5)), 1.0);
    }

    #[test]
    fn scorebar_gate() {
        assert_eq!(score_bar(2.0, 0.8), 2.8); // Fig. 7's root score
        assert_eq!(score_bar(2.0, 0.0), 0.0);
        assert_eq!(score_bar(2.0, -1.0), 0.0);
        let combiner = score_bar_combiner();
        assert_eq!(combiner(&[2.0, 0.8]), 2.8);
        assert_eq!(combiner(&[2.0]), 0.0);
    }

    #[test]
    fn tfidf_prefers_rare_terms() {
        let mut store = Store::new();
        store
            .load_str("a.xml", "<a><p>common rare</p></a>")
            .unwrap();
        store.load_str("b.xml", "<a><p>common</p></a>").unwrap();
        store.load_str("c.xml", "<a><p>common</p></a>").unwrap();
        let index = tix_index::InvertedIndex::build(&store);
        let ctx = ScoreContext {
            store: &store,
            index: Some(&index),
        };
        let common = TfIdfScorer::new(vec!["common".into()]);
        let rare = TfIdfScorer::new(vec!["rare".into()]);
        let a_root = nref(0);
        assert!(rare.score(&ctx, a_root) > common.score(&ctx, a_root));
    }

    #[test]
    fn cosine_identical_is_one() {
        let mut store = Store::new();
        store
            .load_str("t.xml", "<r><a>x y z</a><b>x y z</b><c>p q r</c></r>")
            .unwrap();
        let ctx = ScoreContext::new(&store);
        let sim_same = CosineScorer.score(&ctx, nref(1), nref(3));
        let sim_diff = CosineScorer.score(&ctx, nref(1), nref(5));
        assert!((sim_same - 1.0).abs() < 1e-9);
        assert_eq!(sim_diff, 0.0);
    }
}
