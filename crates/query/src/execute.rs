//! Execute a physical plan.
//!
//! Every plan for the same [`LogicalPlan`] returns **byte-identical**
//! results — the planner only ever trades time, never output. That
//! property rests on three facts, each independently tested:
//!
//! 1. TermJoin and Enhanced TermJoin run the same posting merge and
//!    differ only in how complex scoring reads child counts (navigation
//!    or the store's index), which yields the same integers, so their
//!    scores are bit-equal (the `tix-exec` differential suites);
//! 2. the streams feed `sort_by_node`, whose node keys are unique, so
//!    order is canonical regardless of how the method emitted it;
//! 3. the pushdown driver's early exit is guarded by the §4.2 score bound
//!    and a strict-order top-k accumulator (see `tix_exec::pushdown`).
//!
//! The cancellation contract is the one `Database::run` documents:
//! `cancelled` is polled before scoring, between scoring and Pick, and
//! between Pick and top-k (the pushdown path polls at least as often —
//! on entry, per document, and before the final sort).

use tix_exec::phrase::phrase_finder;
use tix_exec::pick::pick_stream;
use tix_exec::pushdown;
use tix_exec::scored::{sort_by_node, ScoredNode};
use tix_exec::termjoin::{
    ChildCountMode, ComplexScorer, IdfScorer, SimpleScorer, TermJoin, TermJoinScorer,
};
use tix_exec::topk;
use tix_index::IndexReader;
use tix_store::Store;

use crate::logical::{LogicalPlan, PhraseSearch, Scoring, TermSearch};
use crate::physical::{AccessMethod, PhysicalPlan};

/// A completed plan execution: the results plus the scan accounting
/// EXPLAIN ANALYZE-style reporting and the planner bench consume.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRun {
    /// Ranked results, best first.
    pub results: Vec<ScoredNode>,
    /// Postings actually consumed.
    pub postings_scanned: u64,
    /// Postings a full scan would consume.
    pub postings_total: u64,
}

impl PlanRun {
    /// Did the plan's early exit skip part of the posting lists?
    pub fn early_exit(&self) -> bool {
        self.postings_scanned < self.postings_total
    }
}

/// Execute `logical` with the chosen physical `plan` on the calling
/// thread. Returns `None` iff `cancelled` reported `true` at one of the
/// poll points.
///
/// `_threads` is ignored. It is kept only so the benchmark package's
/// `execute(.., 1, ..)` call keeps compiling, until a change to the
/// benchmark drops it.
pub fn execute(
    store: &Store,
    index: &dyn IndexReader,
    logical: &LogicalPlan,
    plan: &PhysicalPlan,
    _threads: usize,
    cancelled: &dyn Fn() -> bool,
) -> Option<PlanRun> {
    match logical {
        LogicalPlan::TermSearch(search) => {
            execute_term_search(store, index, search, plan, cancelled)
        }
        LogicalPlan::Phrase(phrase) => execute_phrase(store, index, phrase, cancelled),
    }
}

/// Execute a term search with the chosen plan.
pub fn execute_term_search(
    store: &Store,
    index: &dyn IndexReader,
    search: &TermSearch,
    plan: &PhysicalPlan,
    cancelled: &dyn Fn() -> bool,
) -> Option<PlanRun> {
    let term_refs: Vec<&str> = search.terms.iter().map(String::as_str).collect();
    // The Enhanced variant is TermJoin with child counts answered by the
    // store's child-count index instead of navigation; for non-complex
    // scoring the mode is irrelevant (no child counts are read).
    let mode = if plan.access == AccessMethod::EnhancedTermJoin {
        ChildCountMode::Index
    } else {
        ChildCountMode::Navigate
    };
    match &search.scoring {
        Scoring::SimpleUniform => {
            let scorer = SimpleScorer::uniform();
            run_term_search(store, index, search, plan, &term_refs, &scorer, cancelled)
        }
        Scoring::SimpleWeighted(weights) => {
            let scorer = SimpleScorer::new(weights.clone());
            run_term_search(store, index, search, plan, &term_refs, &scorer, cancelled)
        }
        Scoring::Complex => {
            let scorer = ComplexScorer::uniform(mode);
            run_term_search(store, index, search, plan, &term_refs, &scorer, cancelled)
        }
        Scoring::Idf => {
            let scorer = IdfScorer::new(index, store.doc_count(), &term_refs);
            run_term_search(store, index, search, plan, &term_refs, &scorer, cancelled)
        }
    }
}

/// Total postings the query's terms hold in the index.
fn postings_total(index: &dyn IndexReader, terms: &[&str]) -> u64 {
    terms
        .iter()
        .map(|t| u64::try_from(index.postings(t).len()).unwrap_or(u64::MAX))
        .fold(0u64, u64::saturating_add)
}

fn run_term_search<S: TermJoinScorer>(
    store: &Store,
    index: &dyn IndexReader,
    search: &TermSearch,
    plan: &PhysicalPlan,
    term_refs: &[&str],
    scorer: &S,
    cancelled: &dyn Fn() -> bool,
) -> Option<PlanRun> {
    if plan.pushdown {
        let run = pushdown::search_topk(
            store,
            index,
            term_refs,
            scorer,
            search.pick.as_ref(),
            search.k,
            search.min_score,
            cancelled,
        )?;
        return Some(PlanRun {
            results: run.results,
            postings_scanned: run.postings_scanned,
            postings_total: run.postings_total,
        });
    }
    if cancelled() {
        return None;
    }
    let scored = sort_by_node(TermJoin::new(store, index, term_refs, scorer).run());
    if cancelled() {
        return None;
    }
    let picked = match &search.pick {
        Some(p) => pick_stream(store, &scored, p),
        None => scored,
    };
    if cancelled() {
        return None;
    }
    let filtered = match search.min_score {
        Some(m) => topk::min_score(picked, m),
        None => picked,
    };
    let total = postings_total(index, term_refs);
    Some(PlanRun {
        results: topk::top_k(filtered, search.k),
        postings_scanned: total,
        postings_total: total,
    })
}

/// Execute a phrase search with its one plan, PhraseFinder.
pub fn execute_phrase(
    store: &Store,
    index: &dyn IndexReader,
    phrase: &PhraseSearch,
    cancelled: &dyn Fn() -> bool,
) -> Option<PlanRun> {
    if cancelled() {
        return None;
    }
    let term_refs: Vec<&str> = phrase.terms.iter().map(String::as_str).collect();
    let total = postings_total(index, &term_refs);
    if term_refs.len() < 2 {
        // A phrase needs two terms; an underspecified phrase matches
        // nothing (PhraseFinder itself asserts on shorter inputs).
        return Some(PlanRun {
            results: Vec::new(),
            postings_scanned: 0,
            postings_total: total,
        });
    }
    let matches = phrase_finder(store, index, &term_refs);
    if cancelled() {
        return None;
    }
    let sorted = sort_by_node(matches);
    if cancelled() {
        return None;
    }
    let filtered = match phrase.min_score {
        Some(m) => topk::min_score(sorted, m),
        None => sorted,
    };
    Some(PlanRun {
        results: topk::top_k(filtered, phrase.k),
        postings_scanned: total,
        postings_total: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tix_exec::pick::PickParams;
    use tix_index::InvertedIndex;

    fn fixture() -> (Store, InvertedIndex) {
        let mut store = Store::new();
        for i in 0..12u32 {
            let hits = 12 - i;
            let mut body = String::from("<doc><sec><p>");
            for _ in 0..hits {
                body.push_str("rust ");
            }
            body.push_str("xml search engine</p></sec><sec><p>filler xml</p></sec></doc>");
            store.load_str(&format!("d{i}.xml"), &body).unwrap();
        }
        let index = InvertedIndex::build(&store);
        (store, index)
    }

    fn term_search(scoring: Scoring, k: usize) -> TermSearch {
        TermSearch {
            terms: vec!["rust".to_string(), "xml".to_string()],
            scoring,
            pick: Some(PickParams {
                relevance_threshold: 1.0,
                fraction: 0.5,
            }),
            k,
            min_score: Some(0.5),
        }
    }

    /// Every applicable access method returns the identical byte stream.
    #[test]
    fn all_term_search_plans_agree_exactly() {
        let (store, index) = fixture();
        for scoring in [
            Scoring::SimpleUniform,
            Scoring::SimpleWeighted(vec![0.8, 0.6]),
            Scoring::Complex,
            Scoring::Idf,
        ] {
            let search = term_search(scoring, 5);
            let logical = LogicalPlan::TermSearch(search);
            let inputs = crate::stats::PlanInputs::gather(&store, &index, logical.terms());
            let candidates = crate::physical::candidates(&logical, &inputs);
            let baseline = execute(
                &store,
                &index,
                &logical,
                &crate::physical::PhysicalPlan::scan(AccessMethod::TermJoin),
                1,
                &|| false,
            )
            .unwrap();
            for c in candidates {
                let run = execute(&store, &index, &logical, &c.plan, 1, &|| false).unwrap();
                assert_eq!(
                    run.results,
                    baseline.results,
                    "plan {} diverged",
                    c.plan.label()
                );
            }
        }
    }

    #[test]
    fn pushdown_plan_reports_early_exit() {
        let (store, index) = fixture();
        let logical = LogicalPlan::TermSearch(term_search(Scoring::SimpleUniform, 2));
        let plan = crate::physical::PhysicalPlan::pushed(AccessMethod::TermJoin);
        let run = execute(&store, &index, &logical, &plan, 1, &|| false).unwrap();
        assert!(run.early_exit());
        let full = execute(
            &store,
            &index,
            &logical,
            &crate::physical::PhysicalPlan::scan(AccessMethod::TermJoin),
            1,
            &|| false,
        )
        .unwrap();
        assert!(!full.early_exit());
        assert_eq!(run.results, full.results);
        assert!(run.postings_scanned < full.postings_scanned);
    }

    #[test]
    fn phrase_plans_agree_exactly() {
        let (store, index) = fixture();
        let logical = LogicalPlan::Phrase(PhraseSearch {
            terms: vec!["search".to_string(), "engine".to_string()],
            k: usize::MAX,
            min_score: None,
        });
        // The one phrase plan ranks exactly what PhraseFinder finds.
        let sequential = topk::top_k(
            sort_by_node(tix_exec::phrase::phrase_finder(
                &store,
                &index,
                &["search", "engine"],
            )),
            usize::MAX,
        );
        assert!(!sequential.is_empty());
        let plan = crate::physical::PhysicalPlan::scan(AccessMethod::PhraseFinder);
        let run = execute(&store, &index, &logical, &plan, 1, &|| false).unwrap();
        assert_eq!(run.results, sequential);
    }

    #[test]
    fn short_phrase_matches_nothing() {
        let (store, index) = fixture();
        let logical = LogicalPlan::Phrase(PhraseSearch {
            terms: vec!["rust".to_string()],
            k: 5,
            min_score: None,
        });
        let run = execute(
            &store,
            &index,
            &logical,
            &crate::physical::PhysicalPlan::scan(AccessMethod::PhraseFinder),
            1,
            &|| false,
        )
        .unwrap();
        assert!(run.results.is_empty());
    }

    #[test]
    fn cancellation_aborts_every_plan() {
        let (store, index) = fixture();
        let logical = LogicalPlan::TermSearch(term_search(Scoring::SimpleUniform, 5));
        let inputs = crate::stats::PlanInputs::gather(&store, &index, logical.terms());
        for c in crate::physical::candidates(&logical, &inputs) {
            assert!(
                execute(&store, &index, &logical, &c.plan, 1, &|| true).is_none(),
                "plan {} ignored cancellation",
                c.plan.label()
            );
            // Flip on the second poll: the run must still abort.
            let polls = std::cell::Cell::new(0u32);
            let late = execute(&store, &index, &logical, &c.plan, 1, &|| {
                polls.set(polls.get() + 1);
                polls.get() >= 2
            });
            assert!(late.is_none(), "plan {}", c.plan.label());
            assert!(polls.get() >= 2, "plan {}", c.plan.label());
        }
    }
}
