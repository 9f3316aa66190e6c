//! Deterministic EXPLAIN rendering: the statistics the planner read, every
//! candidate plan with its cost, and the chosen plan.
//!
//! The output is plain text with one fact per line, stable across
//! platforms (costs are saturating integers, fractional statistics are
//! printed with three fixed decimals) — golden snapshot tests assert on it
//! verbatim.

use std::fmt::Write as _;

use tix_core::histogram::ScoreHistogram;
use tix_index::IndexReader;
use tix_store::Store;

use crate::eval::QueryError;
use crate::logical::LogicalPlan;
use crate::parser::parse;
use crate::physical::{choose, PlanChoice};
use crate::stats::PlanInputs;

/// Print a milli-scaled statistic as a fixed-point decimal (`1444` →
/// `1.444`).
fn milli(value: u64) -> String {
    format!("{}.{:03}", value / 1000, value % 1000)
}

/// Render a `k` that may be the "unbounded" sentinel.
fn fmt_k(k: usize) -> String {
    if k == usize::MAX {
        "unbounded".to_string()
    } else {
        k.to_string()
    }
}

/// Render the full EXPLAIN report for a logical plan. `df_histogram`
/// (when available) adds the dictionary's document-frequency quartiles so
/// the query's terms can be placed in the collection's distribution.
pub fn render(
    logical: &LogicalPlan,
    inputs: &PlanInputs,
    choice: &PlanChoice,
    df_histogram: Option<&ScoreHistogram>,
) -> String {
    let mut out = String::new();
    match logical {
        LogicalPlan::TermSearch(s) => {
            let _ = writeln!(
                out,
                "explain: term-search terms={:?} scoring={} k={}",
                s.terms,
                s.scoring.label(),
                fmt_k(s.k),
            );
            if let Some(p) = &s.pick {
                let _ = writeln!(
                    out,
                    "  pick: threshold={} fraction={}",
                    p.relevance_threshold, p.fraction
                );
            }
            if let Some(m) = s.min_score {
                let _ = writeln!(out, "  threshold: score > {m}");
            }
        }
        LogicalPlan::Phrase(p) => {
            let _ = writeln!(out, "explain: phrase terms={:?} k={}", p.terms, fmt_k(p.k),);
            if let Some(m) = p.min_score {
                let _ = writeln!(out, "  threshold: score > {m}");
            }
        }
    }
    let c = &inputs.corpus;
    let _ = writeln!(
        out,
        "statistics: documents={} elements={} nodes={} tokens={} \
         avg_depth={} avg_children={}",
        c.documents,
        c.elements,
        c.total_nodes,
        c.total_tokens,
        milli(c.avg_depth_milli),
        milli(c.avg_children_milli),
    );
    for t in &inputs.terms {
        let _ = write!(
            out,
            "  term {:?}: cf={} df={} nf={}",
            t.term, t.collection_frequency, t.document_frequency, t.node_frequency
        );
        // Only v3 (block-max) indexes carry this; keep v2 renders stable.
        if let Some(max) = t.max_doc_count {
            let _ = write!(out, " max_dc={max}");
        }
        let _ = writeln!(out);
    }
    if let Some(hist) = df_histogram {
        let _ = writeln!(
            out,
            "  dictionary df: terms={} min={} p25={:.3} p50={:.3} p75={:.3} max={}",
            hist.count(),
            hist.min(),
            hist.quantile(0.25),
            hist.quantile(0.5),
            hist.quantile(0.75),
            hist.max(),
        );
    }
    let _ = writeln!(out, "candidates:");
    for c in &choice.candidates {
        let marker = if c.plan == choice.chosen.plan {
            "  <- chosen"
        } else {
            ""
        };
        let _ = writeln!(out, "  {:<28} cost={}{}", c.plan.label(), c.cost, marker);
    }
    let _ = writeln!(out, "chosen: {}", choice.chosen.plan.label());
    out
}

/// Parse a dialect query, lower it, and explain the plan the workload
/// would get — the `tix explain --query` entry point.
pub fn explain_query(
    store: &Store,
    index: &dyn IndexReader,
    text: &str,
) -> Result<String, QueryError> {
    let query = parse(text)?;
    let logical = LogicalPlan::from_query(&query)?;
    let inputs = PlanInputs::gather(store, index, logical.terms());
    let choice = choose(&logical, &inputs);
    Ok(render(&logical, &inputs, &choice, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{Scoring, TermSearch};
    use crate::stats::{CorpusStats, TermStats};
    use tix_index::InvertedIndex;

    fn inputs() -> PlanInputs {
        PlanInputs {
            corpus: CorpusStats {
                documents: 1000,
                elements: 100_000,
                total_nodes: 250_000,
                distinct_tags: 40,
                max_depth: 9,
                avg_depth_milli: 3456,
                avg_children_milli: 2100,
                total_tokens: 1_500_000,
            },
            terms: vec![
                TermStats {
                    term: "search".to_string(),
                    collection_frequency: 500,
                    document_frequency: 300,
                    node_frequency: 450,
                    max_doc_count: None,
                },
                TermStats {
                    term: "engine".to_string(),
                    collection_frequency: 200,
                    document_frequency: 150,
                    node_frequency: 180,
                    max_doc_count: None,
                },
            ],
        }
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let logical = LogicalPlan::TermSearch(TermSearch {
            terms: vec!["search".to_string(), "engine".to_string()],
            scoring: Scoring::SimpleUniform,
            pick: None,
            k: 10,
            min_score: Some(0.5),
        });
        let ins = inputs();
        let choice = choose(&logical, &ins);
        let text = render(&logical, &ins, &choice, None);
        assert_eq!(text, render(&logical, &ins, &choice, None));
        assert!(text.contains("term-search"));
        assert!(text.contains("avg_depth=3.456"));
        assert!(text.contains("term \"search\": cf=500 df=300 nf=450"));
        assert!(text.contains("<- chosen"));
        assert!(text.lines().last().unwrap().starts_with("chosen: "));
        // Every candidate the planner costed is listed.
        for c in &choice.candidates {
            assert!(text.contains(&c.plan.label()), "{}", c.plan.label());
        }
    }

    #[test]
    fn explain_query_runs_end_to_end() {
        let mut store = Store::new();
        store
            .load_str(
                "articles.xml",
                "<article><p>search engine basics</p></article>",
            )
            .unwrap();
        let index = InvertedIndex::build(&store);
        let text = explain_query(
            &store,
            &index,
            r#"
            For $a in document("articles.xml")//article/descendant-or-self::*
            Score $a using ScoreFoo($a, {"search"}, {"internet"})
            Threshold $a/@score > 0.5 stop after 3
            "#,
        )
        .unwrap();
        assert!(text.contains("scoring=simple-weighted"));
        assert!(text.contains("k=3"));
        assert!(text.contains("term \"internet\": cf=0 df=0 nf=0"));
    }

    #[test]
    fn explain_query_propagates_parse_errors() {
        let store = Store::new();
        let index = InvertedIndex::build(&store);
        assert!(explain_query(&store, &index, "For broken $").is_err());
    }
}
