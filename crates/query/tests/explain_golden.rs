//! Golden EXPLAIN snapshots and plan-flip tests.
//!
//! * The paper's Figure 1 example database with the running
//!   `ScoreFoo("search engine" / "internet")` query must render a
//!   byte-exact EXPLAIN — statistics, every costed candidate, the chosen
//!   plan. Any cost-model change shows up here as a diff a reviewer can
//!   read.
//! * The EXPERIMENTS.md workload shapes (Table 3/4 term searches, the
//!   Table 5 phrases) are **fabricated** as [`PlanInputs`] — no corpus
//!   build — and must choose the access methods the paper's measurements
//!   justify.
//! * Perturbing one statistic at a time must flip the plan in the
//!   documented direction (small `k` over a large corpus → Threshold
//!   pushdown, bushy elements under complex scoring → Enhanced
//!   TermJoin).

use tix_corpus::fig1;
use tix_index::InvertedIndex;
use tix_query::logical::{PhraseSearch, TermSearch};
use tix_query::stats::{CorpusStats, TermStats};
use tix_query::{choose, explain_query, LogicalPlan, PlanInputs, Scoring};

#[test]
fn fig1_query_explain_is_byte_exact() {
    let (store, _, _) = fig1::load().unwrap();
    let index = InvertedIndex::build(&store);
    let text = explain_query(
        &store,
        &index,
        r#"
        For $a in document("articles.xml")//article/descendant-or-self::*
        Score $a using ScoreFoo($a, {"search engine"}, {"internet"})
        Return $a
        Sortby(score)
        Threshold $a/@score > 0.5 stop after 10
    "#,
    )
    .unwrap();
    let expected = "\
explain: term-search terms=[\"search\", \"engine\", \"internet\"] scoring=simple-weighted k=10
  threshold: score > 0.5
statistics: documents=2 elements=37 nodes=62 tokens=112 avg_depth=2.532 avg_children=1.621
  term \"search\": cf=5 df=1 nf=5
  term \"engine\": cf=2 df=1 nf=2
  term \"internet\": cf=3 df=2 nf=3
candidates:
  term-join                    cost=86  <- chosen
  term-join+pushdown           cost=148
chosen: term-join
";
    assert_eq!(text, expected);
}

/// The experiment corpus's shape at the paper's scale: ~10k articles of
/// nested sections (see EXPERIMENTS.md). Fabricated, not built.
fn paper_corpus() -> CorpusStats {
    CorpusStats {
        documents: 10_000,
        elements: 500_000,
        total_nodes: 1_200_000,
        distinct_tags: 80,
        max_depth: 8,
        avg_depth_milli: 4_500,
        avg_children_milli: 1_400,
        total_tokens: 5_000_000,
    }
}

fn term(name: &str, cf: u64, df: u64, nf: u64) -> TermStats {
    TermStats {
        term: name.to_string(),
        collection_frequency: cf,
        document_frequency: df,
        node_frequency: nf,
        max_doc_count: None,
    }
}

fn term_search(inputs_terms: &[TermStats], scoring: Scoring, k: usize) -> LogicalPlan {
    LogicalPlan::TermSearch(TermSearch {
        terms: inputs_terms.iter().map(|t| t.term.clone()).collect(),
        scoring,
        pick: None,
        k,
        min_score: None,
    })
}

#[test]
fn experiment_workloads_choose_the_measured_winners() {
    // Table 3's 2-term search (t3fix × t2f3000), unbounded: TermJoin, the
    // only candidate at an unbounded `k`.
    let corpus = paper_corpus();
    let table3 = PlanInputs {
        corpus: corpus.clone(),
        terms: vec![
            term("t3fix", 1_000, 900, 1_000),
            term("t2f3000", 3_000, 2_400, 3_000),
        ],
    };
    let logical = term_search(&table3.terms, Scoring::SimpleUniform, usize::MAX);
    let choice = choose(&logical, &table3);
    assert_eq!(choice.chosen.plan.label(), "term-join");

    // The same workload with `Threshold … stop after 10`: only ~3% of
    // documents can contain a query term, so the pushdown's early exit
    // is the planner's winner.
    let logical = term_search(&table3.terms, Scoring::SimpleUniform, 10);
    let choice = choose(&logical, &table3);
    assert_eq!(choice.chosen.plan.label(), "term-join+pushdown");

    // Table 4's 7-term search (every term at frequency 1500): still
    // TermJoin territory when unbounded.
    let table4 = PlanInputs {
        corpus: corpus.clone(),
        terms: (0..7)
            .map(|i| term(&format!("t4w{i}"), 1_500, 1_300, 1_500))
            .collect(),
    };
    let logical = term_search(&table4.terms, Scoring::SimpleUniform, usize::MAX);
    let choice = choose(&logical, &table4);
    assert_eq!(choice.chosen.plan.label(), "term-join");

    // Figure 13's complex scorer over the bushy experiment corpus: the
    // child-count probe beats per-node navigation — Enhanced TermJoin.
    let bushy = PlanInputs {
        corpus: CorpusStats {
            avg_children_milli: 50_000,
            ..corpus.clone()
        },
        terms: table3.terms.clone(),
    };
    let logical = term_search(&bushy.terms, Scoring::Complex, usize::MAX);
    let choice = choose(&logical, &bushy);
    assert_eq!(choice.chosen.plan.label(), "enhanced-term-join");

    // Table 5's phrases: PhraseFinder, the one phrase candidate.
    let table5 = PlanInputs {
        corpus,
        terms: vec![
            term("ph1", 2_000, 1_700, 2_000),
            term("ph2", 2_000, 1_700, 2_000),
        ],
    };
    let logical = LogicalPlan::Phrase(PhraseSearch {
        terms: vec!["ph1".into(), "ph2".into()],
        k: usize::MAX,
        min_score: None,
    });
    let choice = choose(&logical, &table5);
    assert_eq!(choice.chosen.plan.label(), "phrase-finder");
    assert_eq!(choice.candidates.len(), 1);
}

#[test]
fn perturbing_one_statistic_flips_the_plan() {
    let baseline = PlanInputs {
        corpus: paper_corpus(),
        terms: vec![term("a", 1_000, 900, 1_000), term("b", 3_000, 2_400, 3_000)],
    };
    let unbounded = term_search(&baseline.terms, Scoring::SimpleUniform, usize::MAX);
    assert_eq!(
        choose(&unbounded, &baseline).chosen.plan.label(),
        "term-join"
    );

    // Bound the result budget: the same statistics now favor the
    // Threshold pushdown (early exit after ~k of ~3 300 matching docs).
    let bounded = term_search(&baseline.terms, Scoring::SimpleUniform, 10);
    assert_eq!(
        choose(&bounded, &baseline).chosen.plan.label(),
        "term-join+pushdown"
    );

    // Complex scoring flips on the fan-out statistic alone: skinny
    // elements navigate cheaply (plain TermJoin), bushy elements make the
    // child-count index pay (Enhanced TermJoin).
    let complex = term_search(&baseline.terms, Scoring::Complex, usize::MAX);
    let skinny = PlanInputs {
        corpus: CorpusStats {
            avg_children_milli: 500,
            ..baseline.corpus.clone()
        },
        terms: baseline.terms.clone(),
    };
    let bushy = PlanInputs {
        corpus: CorpusStats {
            avg_children_milli: 50_000,
            ..baseline.corpus.clone()
        },
        terms: baseline.terms.clone(),
    };
    assert_eq!(choose(&complex, &skinny).chosen.plan.label(), "term-join");
    assert_eq!(
        choose(&complex, &bushy).chosen.plan.label(),
        "enhanced-term-join"
    );

    // Every choice above is deterministic: repeated planning returns the
    // identical candidate table.
    let first = choose(&unbounded, &baseline);
    let second = choose(&unbounded, &baseline);
    assert_eq!(first.chosen.cost, second.chosen.cost);
    assert_eq!(first.candidates.len(), second.candidates.len());
    for (a, b) in first.candidates.iter().zip(&second.candidates) {
        assert_eq!(a.plan.label(), b.plan.label());
        assert_eq!(a.cost, b.cost);
    }
}
