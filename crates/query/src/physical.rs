//! Costed physical plans: which access method evaluates a
//! [`LogicalPlan`], and whether `Threshold … stop after k` is pushed down
//! into it.
//!
//! ## The cost model
//!
//! Costs are **abstract work units** (posting touches, node visits,
//! comparison steps), computed entirely in saturating `u64` arithmetic —
//! no floats, so plan choice is exactly reproducible across platforms and
//! can never depend on rounding. Fractional statistics (average depth d̄,
//! average fan-out c̄) arrive in *milli* units from [`crate::stats`].
//!
//! With `t` query terms, `F` total postings, `E` elements, `D` documents,
//! and `A = min(E, F·d̄ + t)` the bound on distinct scored ancestors
//! (every posting contributes its ancestor chain, capped by the element
//! count):
//!
//! | plan | cost | why |
//! |------|------|-----|
//! | TermJoin | `F·t + 2A` | one merge pass over `F` postings with a `t`-wide counter stack, then sort + Pick over `A` outputs |
//! | Enhanced TermJoin | TermJoin `+ 2A` | one child-count index probe (≈ two node visits) per scored node |
//! | TermJoin (complex, navigate) | TermJoin `+ A + A·c̄` | child counting by navigation visits each scored node's children |
//! | PhraseFinder | `F·t + F` | posting merge with in-intersection adjacency checks |
//! | +pushdown | `base·frac + k·log₂k + 32` | scans `frac ≈ (k+1)/docs(∪terms)` of the postings before the §4.2 bound closes; `+32` per-document bound checks |
//!
//! The candidates are the access methods the server runs: TermJoin (with
//! Enhanced TermJoin first under complex scoring) for a term search, each
//! with a `+pushdown` row when `k` is bounded, and PhraseFinder alone for
//! a phrase. The paper's Sec. 6 baselines (Comp1, Comp2, Generalized
//! Meet, Comp3) stay in `tix-exec` as referee code for the differential
//! suites and the table reproductions; the planner never offers them.
//!
//! The pushdown fraction is a deliberately *optimistic* estimate of the
//! WAND-style early exit (it assumes the top-k documents arrive early in
//! document order); the `+32` constant and the `k·log₂k` accumulator term
//! keep it from winning on corpora too small for early exit to pay. Since
//! **every candidate returns byte-identical results** (the plan-
//! equivalence differential suite enforces this), a mis-estimate costs
//! only time, never correctness.

use crate::logical::{LogicalPlan, Scoring, TermSearch};
use crate::stats::PlanInputs;

/// Physical access methods (Sec. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMethod {
    /// Stack-based posting merge (Fig. 11), child counts by navigation.
    TermJoin,
    /// TermJoin with the store's child-count index (complex scoring).
    EnhancedTermJoin,
    /// In-intersection phrase adjacency verification.
    PhraseFinder,
}

impl AccessMethod {
    /// Stable label used by EXPLAIN.
    pub fn label(self) -> &'static str {
        match self {
            AccessMethod::TermJoin => "term-join",
            AccessMethod::EnhancedTermJoin => "enhanced-term-join",
            AccessMethod::PhraseFinder => "phrase-finder",
        }
    }
}

/// An executable physical plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysicalPlan {
    /// The access method.
    pub access: AccessMethod,
    /// Is `Threshold … stop after k` pushed into the scan (WAND-style
    /// early exit)? Only meaningful for the TermJoin family.
    pub pushdown: bool,
}

impl PhysicalPlan {
    /// A full-scan plan for `access`.
    pub fn scan(access: AccessMethod) -> Self {
        PhysicalPlan {
            access,
            pushdown: false,
        }
    }

    /// A pushdown plan for `access`.
    pub fn pushed(access: AccessMethod) -> Self {
        PhysicalPlan {
            access,
            pushdown: true,
        }
    }

    /// Stable label used by EXPLAIN (`term-join+pushdown`).
    pub fn label(&self) -> String {
        if self.pushdown {
            format!("{}+pushdown", self.access.label())
        } else {
            self.access.label().to_string()
        }
    }
}

/// A candidate plan with its estimated cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostedPlan {
    /// The plan.
    pub plan: PhysicalPlan,
    /// Estimated work units (saturating; `u64::MAX` means "never pick
    /// this unless it is the only option").
    pub cost: u64,
}

/// The planner's decision: the chosen plan plus every candidate costed,
/// in canonical candidate order (EXPLAIN prints this list verbatim).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanChoice {
    /// The minimum-cost candidate (first wins ties).
    pub chosen: CostedPlan,
    /// All candidates, in canonical order.
    pub candidates: Vec<CostedPlan>,
}

/// `(value · milli) / 1000` without overflow surprises.
fn mul_milli(value: u64, milli: u64) -> u64 {
    // Split to keep value·milli out of overflow range for realistic
    // inputs; saturate beyond that.
    value
        .checked_mul(milli)
        .map(|p| p / 1000)
        .unwrap_or_else(|| (value / 1000).saturating_mul(milli))
}

/// `n·log₂(n)` (sort cost), saturating.
fn sort_cost(n: u64) -> u64 {
    n.saturating_mul(u64::from(n.max(2).ilog2()))
}

/// Cost terms shared by every access method for one term search.
struct CostContext {
    /// Number of query terms.
    t: u64,
    /// Total postings across the query terms.
    f: u64,
    /// Distinct-ancestor bound `A = min(E, F·d̄ + t)`.
    a: u64,
    /// Average element fan-out, milli.
    c_milli: u64,
    /// `min(D, Σ df)` — documents that can contain any query term.
    docs_union: u64,
    /// All query terms carry v3 block-max metadata, enabling the
    /// pushdown runner's per-document skip discipline.
    block_max: bool,
}

impl CostContext {
    fn new(search_terms: usize, inputs: &PlanInputs) -> Self {
        let t = u64::try_from(search_terms).unwrap_or(u64::MAX);
        let f = inputs.total_postings();
        let d_milli = inputs.corpus.avg_depth_milli;
        let a = mul_milli(f, d_milli)
            .saturating_add(t)
            .min(inputs.corpus.elements.max(1));
        CostContext {
            t,
            f,
            a,
            c_milli: inputs.corpus.avg_children_milli,
            docs_union: inputs.docs_union_bound(),
            block_max: inputs.block_max_available(),
        }
    }

    fn term_join(&self, scoring: &Scoring, enhanced: bool) -> u64 {
        let merge = self.f.saturating_mul(self.t).saturating_add(
            self.a.saturating_mul(2), // document-order sort + Pick pass
        );
        match scoring {
            // A child-count probe costs about two navigation visits, so
            // the index wins exactly when the average fan-out exceeds 1.
            Scoring::Complex if enhanced => merge.saturating_add(self.a.saturating_mul(2)),
            Scoring::Complex => merge
                .saturating_add(self.a)
                .saturating_add(mul_milli(self.a, self.c_milli)),
            _ => merge,
        }
    }

    /// The early-exit discount for pushing top-k into `base`.
    fn pushdown(&self, base: u64, k: usize) -> u64 {
        let k = u64::try_from(k).unwrap_or(u64::MAX);
        // Expected scanned fraction, milli: the exit needs at least k+1
        // result-bearing documents before the bound can close.
        let frac_milli = k
            .saturating_add(1)
            .saturating_mul(1000)
            .checked_div(self.docs_union.max(1))
            .unwrap_or(1000)
            .min(1000);
        let scan = mul_milli(base, frac_milli);
        // v3 block-max metadata lets the runner skip non-contributing
        // documents unjoined and close the §4.2 bound on a tightened
        // suffix, so roughly halve the expected scan work. Indexes
        // without metadata keep the PR 6 formula exactly.
        let scan = if self.block_max { scan / 2 } else { scan };
        scan.saturating_add(sort_cost(k)).saturating_add(32)
    }
}

/// Cost every applicable candidate for a term search, canonical order.
/// A `+pushdown` row is listed only at a bounded `k`: at an unbounded `k`
/// the early exit never fires, so the row could never win.
fn term_search_candidates(search: &TermSearch, inputs: &PlanInputs) -> Vec<CostedPlan> {
    let ctx = CostContext::new(search.terms.len(), inputs);
    let mut out = Vec::new();
    let mut push = |access: AccessMethod| {
        let enhanced = access == AccessMethod::EnhancedTermJoin;
        let cost = ctx.term_join(&search.scoring, enhanced);
        out.push(CostedPlan {
            plan: PhysicalPlan::scan(access),
            cost,
        });
        if search.k != usize::MAX {
            out.push(CostedPlan {
                plan: PhysicalPlan::pushed(access),
                cost: ctx.pushdown(cost, search.k),
            });
        }
    };
    if matches!(search.scoring, Scoring::Complex) {
        push(AccessMethod::EnhancedTermJoin);
    }
    push(AccessMethod::TermJoin);
    out
}

/// Cost the one candidate for a phrase search: PhraseFinder.
fn phrase_candidates(terms: usize, inputs: &PlanInputs) -> Vec<CostedPlan> {
    let ctx = CostContext::new(terms, inputs);
    vec![CostedPlan {
        plan: PhysicalPlan::scan(AccessMethod::PhraseFinder),
        cost: ctx.f.saturating_mul(ctx.t).saturating_add(ctx.f),
    }]
}

/// Every candidate plan for `logical`, costed, in canonical order.
pub fn candidates(logical: &LogicalPlan, inputs: &PlanInputs) -> Vec<CostedPlan> {
    match logical {
        LogicalPlan::TermSearch(search) => term_search_candidates(search, inputs),
        LogicalPlan::Phrase(phrase) => phrase_candidates(phrase.terms.len(), inputs),
    }
}

/// Choose the minimum-cost plan (earlier candidate wins ties, so the
/// choice is deterministic and stable under candidate-list extension).
pub fn choose(logical: &LogicalPlan, inputs: &PlanInputs) -> PlanChoice {
    let candidates = candidates(logical, inputs);
    let chosen = candidates
        .iter()
        .copied()
        .reduce(|best, c| if c.cost < best.cost { c } else { best })
        .unwrap_or(CostedPlan {
            plan: PhysicalPlan::scan(AccessMethod::TermJoin),
            cost: 0,
        });
    PlanChoice { chosen, candidates }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{CorpusStats, TermStats};

    /// A fabricated corpus shape (the knobs plan-flip tests turn).
    fn corpus(documents: u64, elements: u64, avg_depth_milli: u64) -> CorpusStats {
        CorpusStats {
            documents,
            elements,
            total_nodes: elements.saturating_mul(2),
            distinct_tags: 8,
            max_depth: 6,
            avg_depth_milli,
            avg_children_milli: 2000,
            total_tokens: 1_000_000,
        }
    }

    fn term(term: &str, cf: u64, df: u64) -> TermStats {
        TermStats {
            term: term.to_string(),
            collection_frequency: cf,
            document_frequency: df,
            node_frequency: cf,
            max_doc_count: None,
        }
    }

    fn search(terms: &[&str], k: usize) -> TermSearch {
        TermSearch {
            terms: terms.iter().map(|t| (*t).to_string()).collect(),
            scoring: Scoring::SimpleUniform,
            pick: None,
            k,
            min_score: None,
        }
    }

    #[test]
    fn typical_corpus_chooses_term_join() {
        let inputs = PlanInputs {
            corpus: corpus(1000, 100_000, 3000),
            terms: vec![term("rust", 500, 300), term("xml", 800, 400)],
        };
        let choice = choose(
            &LogicalPlan::TermSearch(search(&["rust", "xml"], usize::MAX)),
            &inputs,
        );
        assert_eq!(
            choice.chosen.plan,
            PhysicalPlan::scan(AccessMethod::TermJoin)
        );
        assert_eq!(choice.candidates.len(), 1);
    }

    #[test]
    fn small_k_over_many_documents_chooses_pushdown() {
        let inputs = PlanInputs {
            corpus: corpus(100_000, 10_000_000, 3000),
            terms: vec![term("rust", 400_000, 90_000)],
        };
        let choice = choose(&LogicalPlan::TermSearch(search(&["rust"], 10)), &inputs);
        assert_eq!(
            choice.chosen.plan,
            PhysicalPlan::pushed(AccessMethod::TermJoin)
        );
    }

    #[test]
    fn block_max_metadata_discounts_the_pushdown_candidate() {
        let base = PlanInputs {
            corpus: corpus(100_000, 10_000_000, 3000),
            terms: vec![term("rust", 400_000, 90_000)],
        };
        let mut v3 = base.clone();
        for t in &mut v3.terms {
            t.max_doc_count = Some(12);
        }
        assert!(!base.block_max_available());
        assert!(v3.block_max_available());
        // k large enough that the expected scanned fraction is non-zero
        // in milli units — the discount applies to the scan term only.
        let logical = LogicalPlan::TermSearch(search(&["rust"], 1000));
        let cost_of = |inputs: &PlanInputs| {
            choose(&logical, inputs)
                .candidates
                .iter()
                .find(|c| c.plan == PhysicalPlan::pushed(AccessMethod::TermJoin))
                .map(|c| c.cost)
                .unwrap()
        };
        let without = cost_of(&base);
        let with = cost_of(&v3);
        assert!(
            with < without,
            "block-max metadata must discount pushdown ({with} !< {without})"
        );
        // Non-pushdown candidates are unaffected by the metadata.
        let scans = |inputs: &PlanInputs| -> Vec<u64> {
            choose(&logical, inputs)
                .candidates
                .iter()
                .filter(|c| !c.plan.pushdown)
                .map(|c| c.cost)
                .collect()
        };
        assert_eq!(scans(&base), scans(&v3));
    }

    #[test]
    fn complex_scoring_fans_out_between_navigate_and_index() {
        let mut inputs = PlanInputs {
            corpus: corpus(1000, 100_000, 3000),
            terms: vec![term("rust", 5000, 900)],
        };
        let mut s = search(&["rust"], usize::MAX);
        s.scoring = Scoring::Complex;
        let logical = LogicalPlan::TermSearch(s);
        // Bushy elements: the child-count index wins.
        inputs.corpus.avg_children_milli = 50_000;
        let bushy = choose(&logical, &inputs);
        assert_eq!(
            bushy.chosen.plan,
            PhysicalPlan::scan(AccessMethod::EnhancedTermJoin)
        );
        // Near-linear documents: navigation is as cheap as the probe, and
        // plain TermJoin avoids the index lookups... the Enhanced variant
        // stays ahead only while c̄ > 1.
        inputs.corpus.avg_children_milli = 500;
        let skinny = choose(&logical, &inputs);
        assert_eq!(
            skinny.chosen.plan,
            PhysicalPlan::scan(AccessMethod::TermJoin)
        );
    }

    #[test]
    fn unbounded_k_never_chooses_pushdown() {
        let inputs = PlanInputs {
            corpus: corpus(100_000, 10_000_000, 3000),
            terms: vec![term("rust", 400_000, 90_000)],
        };
        let mut complex = search(&["rust"], usize::MAX);
        complex.scoring = Scoring::Complex;
        for s in [search(&["rust"], usize::MAX), complex] {
            let mut bounded = s.clone();
            bounded.k = 10;
            // At an unbounded k the early exit never fires, so no
            // pushdown row is listed; a bounded k lists one per method.
            let unbounded = choose(&LogicalPlan::TermSearch(s), &inputs);
            assert!(!unbounded.chosen.plan.pushdown);
            assert!(unbounded.candidates.iter().all(|c| !c.plan.pushdown));
            let bounded = choose(&LogicalPlan::TermSearch(bounded), &inputs);
            assert_eq!(bounded.candidates.len(), 2 * unbounded.candidates.len());
        }
    }

    #[test]
    fn phrase_plans_with_phrase_finder_alone() {
        let inputs = PlanInputs {
            corpus: corpus(1000, 100_000, 3000),
            terms: vec![term("search", 500, 300), term("engine", 200, 150)],
        };
        let logical = LogicalPlan::Phrase(crate::logical::PhraseSearch {
            terms: vec!["search".to_string(), "engine".to_string()],
            k: usize::MAX,
            min_score: None,
        });
        let choice = choose(&logical, &inputs);
        assert_eq!(
            choice.chosen.plan,
            PhysicalPlan::scan(AccessMethod::PhraseFinder)
        );
        assert_eq!(choice.candidates.len(), 1);
    }

    #[test]
    fn ties_resolve_to_the_earlier_candidate() {
        // An empty query costs every plan its constant floor; the first
        // candidate must win deterministically.
        let inputs = PlanInputs {
            corpus: corpus(1, 1, 0),
            terms: vec![],
        };
        let choice = choose(&LogicalPlan::TermSearch(search(&[], usize::MAX)), &inputs);
        assert_eq!(choice.chosen.plan, choice.candidates[0].plan);
    }

    #[test]
    fn costs_saturate_instead_of_overflowing() {
        let inputs = PlanInputs {
            corpus: CorpusStats {
                documents: u64::MAX,
                elements: u64::MAX,
                total_nodes: u64::MAX,
                distinct_tags: u64::MAX,
                max_depth: u64::MAX,
                avg_depth_milli: u64::MAX,
                avg_children_milli: u64::MAX,
                total_tokens: u64::MAX,
            },
            terms: vec![term("t", u64::MAX, u64::MAX)],
        };
        // The real assertion is that costing completes without the
        // overflow panic a debug build would raise on unchecked
        // arithmetic; the costs themselves pin saturation.
        let choice = choose(
            &LogicalPlan::TermSearch(search(&["t"], usize::MAX)),
            &inputs,
        );
        assert!(!choice.candidates.is_empty());
        assert!(choice.candidates.iter().any(|c| c.cost == u64::MAX));
    }
}
