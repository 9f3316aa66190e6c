//! The planner's differential harness: on randomized corpus collections
//! and randomized queries, **every** physical plan the cost model can
//! emit is forced through [`tix_query::execute`] and must produce
//! **byte-identical** ranked output — same nodes, same order, same score
//! *bits*.
//!
//! This is the proof obligation behind the planner: cost-based choice is
//! only sound if the choice is unobservable in the results. Exact (not
//! epsilon) equality holds because every access method folds scores in
//! the same canonical node order, and the Threshold pushdown's early exit
//! is guarded by the §4.2 score-bound invariant (`max_score_bound` is an
//! upper bound on any unseen document's score).
//!
//! Case counts are deliberately low (corpus generation dominates);
//! `PROPTEST_CASES` scales them up for the CI soak run.

use proptest::prelude::*;
use tix_corpus::{CorpusSpec, Generator, PlantSpec};
use tix_exec::pick::PickParams;
use tix_exec::scored::ScoredNode;
use tix_index::InvertedIndex;
use tix_query::logical::{PhraseSearch, TermSearch};
use tix_query::{candidates, choose, execute, LogicalPlan, PlanInputs, Scoring};
use tix_store::Store;

/// A randomized collection: corpus shape, seed, and plant densities.
#[derive(Debug, Clone)]
struct Collection {
    articles: usize,
    seed: u64,
    alpha: usize,
    beta: usize,
    gamma: usize,
    adjacent: usize,
    cooccurring: usize,
}

fn collection_strategy() -> impl Strategy<Value = Collection> {
    (
        1usize..6,
        0u64..1 << 32,
        0usize..25,
        0usize..12,
        0usize..6,
        0usize..8,
        0usize..8,
    )
        .prop_map(
            |(articles, seed, alpha, beta, gamma, adjacent, cooccurring)| Collection {
                articles,
                seed,
                alpha,
                beta,
                gamma,
                adjacent,
                cooccurring,
            },
        )
}

/// A randomized term-search query over the planted + background
/// vocabulary: 1–3 terms, a scoring mode, an optional Pick stage, a
/// result budget (sometimes unbounded), and an optional min-score.
#[derive(Debug, Clone)]
struct RandomQuery {
    terms: Vec<String>,
    scoring: Scoring,
    pick: Option<PickParams>,
    k: usize,
    min_score: Option<f64>,
}

fn scoring_strategy() -> impl Strategy<Value = Scoring> {
    prop_oneof![
        Just(Scoring::SimpleUniform),
        Just(Scoring::SimpleWeighted(vec![0.8, 0.6, 0.4])),
        Just(Scoring::Complex),
        Just(Scoring::Idf),
    ]
}

fn query_strategy() -> impl Strategy<Value = RandomQuery> {
    const VOCABULARY: [&str; 6] = ["alpha", "beta", "gamma", "w0", "w1", "srch"];
    (
        (0usize..VOCABULARY.len(), 1usize..=3),
        scoring_strategy(),
        prop::option::of((0u32..30, 1u32..10)),
        prop_oneof![Just(usize::MAX), (1usize..20).boxed()],
        prop::option::of(0u32..40),
    )
        .prop_map(|((start, len), scoring, pick, k, min_tenths)| RandomQuery {
            // A wrapping window of 1–3 distinct terms from the vocabulary.
            terms: (0..len)
                .map(|i| VOCABULARY[(start + i) % VOCABULARY.len()].to_string())
                .collect(),
            scoring,
            pick: pick.map(|(t, f)| PickParams {
                relevance_threshold: t as f64 / 10.0,
                fraction: f as f64 / 10.0,
            }),
            k,
            min_score: min_tenths.map(|m| m as f64 / 10.0),
        })
}

fn build(c: &Collection) -> (Store, InvertedIndex) {
    let spec = CorpusSpec {
        articles: c.articles,
        seed: c.seed,
        ..CorpusSpec::tiny()
    };
    let plants = PlantSpec::default()
        .with_term("alpha", c.alpha)
        .with_term("beta", c.beta)
        .with_term("gamma", c.gamma)
        .with_phrase("srch", "engn", c.adjacent, c.cooccurring);
    let generator = Generator::new(spec, plants).expect("plants fit the tiny shape");
    let mut store = Store::new();
    generator.load_into(&mut store).expect("corpus loads");
    let index = InvertedIndex::build(&store);
    (store, index)
}

/// Bit-exact comparison: same nodes, same order, same score *bits*.
fn assert_identical(expected: &[ScoredNode], actual: &[ScoredNode], label: &str) {
    assert_eq!(
        expected.len(),
        actual.len(),
        "{label}: result count differs\nexpected={expected:?}\nactual={actual:?}"
    );
    for (e, a) in expected.iter().zip(actual) {
        assert_eq!(e.node, a.node, "{label}: node differs");
        assert_eq!(
            e.score.to_bits(),
            a.score.to_bits(),
            "{label}: score bits differ at {:?} ({} vs {})",
            e.node,
            e.score,
            a.score
        );
    }
}

/// Force every candidate plan for `logical` and assert each one is
/// byte-identical to the planner's own choice.
fn assert_all_plans_agree(store: &Store, index: &InvertedIndex, logical: &LogicalPlan) {
    let inputs = PlanInputs::gather(store, index, logical.terms());
    let choice = choose(logical, &inputs);
    let baseline = execute(store, index, logical, &choice.chosen.plan, 1, &|| false)
        .expect("never cancelled")
        .results;
    for candidate in candidates(logical, &inputs) {
        let run =
            execute(store, index, logical, &candidate.plan, 1, &|| false).expect("never cancelled");
        assert_identical(&baseline, &run.results, &candidate.plan.label());
        assert!(
            run.postings_scanned <= run.postings_total,
            "{}: scanned {} > total {}",
            candidate.plan.label(),
            run.postings_scanned,
            run.postings_total
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_physical_plan_is_byte_identical(
        c in collection_strategy(),
        q in query_strategy(),
    ) {
        let (store, index) = build(&c);
        let logical = LogicalPlan::TermSearch(TermSearch {
            terms: q.terms.clone(),
            scoring: q.scoring.clone(),
            pick: q.pick,
            k: q.k,
            min_score: q.min_score,
        });
        assert_all_plans_agree(&store, &index, &logical);
    }

    #[test]
    fn phrase_plans_are_byte_identical(
        c in collection_strategy(),
        k in prop_oneof![Just(usize::MAX), (1usize..10).boxed()],
        min_tenths in prop::option::of(0u32..30),
    ) {
        let (store, index) = build(&c);
        // The planted phrase, its reversal, and a background bigram.
        for pair in [["srch", "engn"], ["engn", "srch"], ["w0", "w1"]] {
            let logical = LogicalPlan::Phrase(PhraseSearch {
                terms: pair.iter().map(|t| t.to_string()).collect(),
                k,
                min_score: min_tenths.map(|m| m as f64 / 10.0),
            });
            assert_all_plans_agree(&store, &index, &logical);
        }
    }

    #[test]
    fn pushdown_never_changes_results_under_tight_budgets(
        c in collection_strategy(),
        k in 1usize..4,
    ) {
        // The adversarial region for early exit: k far below the match
        // count, where a wrong bound would truncate or reorder. All four
        // scorings, with and without a min-score floor.
        let (store, index) = build(&c);
        for scoring in [
            Scoring::SimpleUniform,
            Scoring::SimpleWeighted(vec![0.9, 0.5]),
            Scoring::Complex,
            Scoring::Idf,
        ] {
            for min_score in [None, Some(0.0), Some(1.5)] {
                let logical = LogicalPlan::TermSearch(TermSearch {
                    terms: vec!["alpha".into(), "beta".into()],
                    scoring: scoring.clone(),
                    pick: None,
                    k,
                    min_score,
                });
                assert_all_plans_agree(&store, &index, &logical);
            }
        }
    }
}
