//! **Threshold pushdown**: a WAND-style early-exit driver for the
//! TermJoin → Pick → top-k pipeline (`Threshold … stop after k` pushed
//! into the access method, Sec. 5.3 meets §4.2).
//!
//! The driver scans the query terms' posting lists **one document at a
//! time**, in document order, running the full per-document pipeline
//! (TermJoin → document-order sort → Pick → optional value threshold) and
//! feeding survivors into a deterministic [`TopK`] accumulator. After each
//! document it computes `bound = scorer.max_score_bound(remaining)` over
//! the postings of *not-yet-scanned* documents and stops as soon as
//!
//! * the accumulator holds `k` entries and the k-th score **strictly**
//!   exceeds `bound` (no unseen node can enter or even tie), or
//! * a value threshold `min` is present and `bound ≤ min` (no unseen node
//!   survives the strict `score > min` filter).
//!
//! ## Why this is byte-identical to the full scan
//!
//! Every stage is document-local: TermJoin's ancestor stack drains at
//! document boundaries, and Pick's containment hierarchy never spans
//! documents. So the concatenation of per-document pipeline outputs *is*
//! the sequential pipeline's stream, element for element, bit for bit.
//! The accumulator's total order (score, then arrival) makes offering an
//! element that scores strictly below the k-th retained score a no-op —
//! and the §4.2 bound proves every skipped element is such an element —
//! so stopping early cannot change the retained set, its tie-breaks, or
//! its emitted order. The exit condition itself is guarded by
//! [`tix_invariants::assert_topk_early_exit_safe`] under
//! `debug_assertions` / `check-invariants`.
//!
//! ## Block-max skipping (v3 indexes)
//!
//! When the index representation carries per-block skip metadata
//! ([`tix_index::BlockSummary`], produced by the `tix-pack` v3 format),
//! the driver additionally runs a true WAND skip discipline:
//!
//! * **per-document skip** — before running the pipeline on a candidate
//!   document, bound its best possible score by the document's per-term
//!   run lengths (`scorer.max_score_bound(&runs)`); if the accumulator is
//!   full and the k-th score strictly exceeds that bound (or a `min`
//!   threshold does, non-strictly), the document's postings are *skipped*
//!   — consumed off the cursors but never joined, scored, or pushed. The
//!   same strictly-below-k-th no-op argument proves byte-identity.
//! * **tightened tail bound** — the §4.2 exit bound uses, per term,
//!   `min(remaining, suffix-max over unscanned blocks of max_doc_count)`
//!   instead of raw `remaining`. Any unseen document intersects only
//!   unscanned blocks, and a block's `max_doc_count` bounds the *whole
//!   document* posting count of every document intersecting it, so the
//!   tightened vector still dominates every unseen node's counter vector
//!   componentwise — the §4.2 invariant is checked against the tightened
//!   bound, same as before.
//!
//! Both disciplines only *remove* work whose results provably cannot
//! appear in the output, so all byte-identity guarantees above carry
//! over verbatim; the differential proptests in `crates/pack/tests/`
//! hold the two index representations to that bar.

use tix_index::{BlockSummary, IndexReader, Posting};
use tix_store::{DocId, Store};

use crate::pick::{pick_stream, PickParams};
use crate::scored::{sort_by_node, ScoredNode};
use crate::termjoin::{TermJoin, TermJoinScorer};
use crate::topk::TopK;

/// A pushdown run's results plus the scan accounting the planner bench
/// and the EXPLAIN rendering report.
#[derive(Debug, Clone, PartialEq)]
pub struct PushdownRun {
    /// Top-k results, best first — byte-identical to the full pipeline
    /// `top_k(min_score(pick_stream(sort_by_node(term_join(…)))), k)`.
    pub results: Vec<ScoredNode>,
    /// Postings fed through the join/score pipeline before the exit
    /// condition held.
    pub postings_scanned: u64,
    /// Postings consumed off the cursors but never joined or scored,
    /// because the per-document block-max bound proved the document
    /// could not contribute (0 without block metadata).
    pub postings_skipped: u64,
    /// Postings the full-scan pipeline would consume.
    pub postings_total: u64,
}

impl PushdownRun {
    /// Did the §4.2 bound prove the tail unreachable before the scan
    /// finished?
    pub fn early_exit(&self) -> bool {
        self.postings_scanned.saturating_add(self.postings_skipped) < self.postings_total
    }
}

/// Run the pushed-down pipeline over `terms`. `pick` is the optional Pick
/// stage (skipped entirely when `None`); `min` is the optional value
/// threshold (keep `score > min`, applied after Pick); `k` bounds the
/// result count. `cancelled` is polled on entry, before every document,
/// and before the final sort; a `true` poll aborts with `None`.
#[allow(clippy::too_many_arguments)] // mirrors the full pipeline's stage list
pub fn search_topk<S: TermJoinScorer>(
    store: &Store,
    index: &dyn IndexReader,
    terms: &[&str],
    scorer: &S,
    pick: Option<&PickParams>,
    k: usize,
    min: Option<f64>,
    cancelled: &dyn Fn() -> bool,
) -> Option<PushdownRun> {
    let lists: Vec<&[Posting]> = terms.iter().map(|t| index.postings(t)).collect();
    let blocks: Vec<Option<&[BlockSummary]>> =
        terms.iter().map(|t| index.block_summaries(t)).collect();
    search_topk_on_lists_with_blocks(store, &lists, &blocks, scorer, pick, k, min, cancelled)
}

/// Per-term skip state over the v3 block metadata: the first block not
/// yet fully consumed, plus the suffix maximum of `max_doc_count` from
/// each block position to the end of the list.
struct BlockCursor<'a> {
    /// Cumulative postings through each block (`ends[j]` = postings in
    /// blocks `0..=j`), so the block holding the scan cursor is found by
    /// advancing while `consumed >= ends[pos]`.
    ends: Vec<u64>,
    /// `suffix_max[j]` = max `max_doc_count` over blocks `j..`;
    /// `suffix_max[len] = 0` (term exhausted).
    suffix_max: Vec<u32>,
    summaries: &'a [BlockSummary],
    pos: usize,
}

impl<'a> BlockCursor<'a> {
    fn new(summaries: &'a [BlockSummary]) -> Self {
        let mut ends = Vec::with_capacity(summaries.len());
        let mut cum = 0u64;
        for b in summaries {
            cum = cum.saturating_add(u64::from(b.postings));
            ends.push(cum);
        }
        let mut suffix_max = vec![0u32; summaries.len() + 1];
        for (j, b) in summaries.iter().enumerate().rev() {
            let tail = suffix_max.get(j + 1).copied().unwrap_or(0);
            if let Some(slot) = suffix_max.get_mut(j) {
                *slot = tail.max(b.max_doc_count);
            }
        }
        BlockCursor {
            ends,
            suffix_max,
            summaries,
            pos: 0,
        }
    }

    /// Tightest sound per-term counter cap for documents past the scan
    /// cursor (`consumed` postings already sliced off this term's list):
    /// every unseen document intersects only blocks at or after the
    /// cursor's block, and each such block's `max_doc_count` bounds the
    /// whole-document posting count of every document intersecting it.
    fn cap(&mut self, consumed: u64) -> u32 {
        while self.pos < self.summaries.len()
            && self.ends.get(self.pos).is_some_and(|&end| consumed >= end)
        {
            self.pos += 1;
        }
        self.suffix_max.get(self.pos).copied().unwrap_or(0)
    }
}

/// [`search_topk`] over explicit posting-list slices plus optional
/// per-term block metadata (same order as the query terms). Terms whose
/// entry is `Some` contribute tightened tail bounds; if *any* term has
/// metadata the per-document skip discipline is enabled (it is sound
/// regardless — run lengths come from the lists themselves — but gating
/// it keeps v2 scan accounting unchanged for baseline comparison).
#[allow(clippy::too_many_arguments)] // mirrors the full pipeline's stage list
pub fn search_topk_on_lists_with_blocks<S: TermJoinScorer>(
    store: &Store,
    lists: &[&[Posting]],
    blocks: &[Option<&[BlockSummary]>],
    scorer: &S,
    pick: Option<&PickParams>,
    k: usize,
    min: Option<f64>,
    cancelled: &dyn Fn() -> bool,
) -> Option<PushdownRun> {
    if cancelled() {
        return None;
    }
    let postings_total: u64 = lists
        .iter()
        .map(|l| u64::try_from(l.len()).unwrap_or(u64::MAX))
        .sum();
    let mut cursors = vec![0usize; lists.len()];
    // Per-term counts of postings in not-yet-scanned documents; saturating
    // to u32::MAX only loosens (never tightens) the bound.
    let mut remaining: Vec<u32> = lists
        .iter()
        .map(|l| u32::try_from(l.len()).unwrap_or(u32::MAX))
        .collect();
    let mut block_cursors: Vec<Option<BlockCursor>> =
        blocks.iter().map(|b| b.map(BlockCursor::new)).collect();
    let blockmax = block_cursors.iter().any(|b| b.is_some());
    let mut acc = TopK::new(k);
    let mut scanned: u64 = 0;
    let mut skipped: u64 = 0;
    loop {
        // The smallest document id any list still holds.
        let mut next_doc: Option<DocId> = None;
        for (list, &cursor) in lists.iter().zip(&cursors) {
            if let Some(p) = list.get(cursor) {
                next_doc = Some(match next_doc {
                    Some(d) if d <= p.doc => d,
                    _ => p.doc,
                });
            }
        }
        let Some(doc) = next_doc else { break };
        if cancelled() {
            return None;
        }
        // Slice each list's run of postings for `doc` off its front.
        let mut doc_lists: Vec<&[Posting]> = Vec::with_capacity(lists.len());
        let mut runs: Vec<u32> = Vec::with_capacity(lists.len());
        let mut doc_postings: u64 = 0;
        for ((list, cursor), rem) in lists.iter().zip(&mut cursors).zip(&mut remaining) {
            let tail = list.get(*cursor..).unwrap_or(&[]);
            let run = tail.partition_point(|p| p.doc <= doc);
            doc_lists.push(tail.get(..run).unwrap_or(&[]));
            *cursor += run;
            let run32 = u32::try_from(run).unwrap_or(u32::MAX);
            *rem = rem.saturating_sub(run32);
            runs.push(run32);
            doc_postings += u64::try_from(run).unwrap_or(u64::MAX);
        }
        // Per-document skip: any node in this document has a counter
        // vector componentwise ≤ the run lengths, so the scorer's bound
        // over the runs dominates every score the document could produce.
        // A full accumulator whose k-th score strictly exceeds it makes
        // every push a no-op; a `min` threshold at or above it fails the
        // strict `score > min` filter. Either way the document cannot
        // change the output, so its postings are skipped unjoined.
        let mut skip_doc = false;
        if blockmax {
            let doc_bound = scorer.max_score_bound(&runs);
            if let Some(kth) = acc.kth_score() {
                if kth > doc_bound {
                    tix_invariants::check! {
                        tix_invariants::assert_topk_early_exit_safe(kth, doc_bound);
                    }
                    skip_doc = true;
                }
            }
            if let Some(m) = min {
                if doc_bound <= m {
                    skip_doc = true;
                }
            }
        }
        if skip_doc {
            skipped += doc_postings;
        } else {
            scanned += doc_postings;
            // The full pipeline, restricted to this document.
            // Document-local stages make the concatenation over documents
            // equal the global stream (see module docs).
            let joined = sort_by_node(TermJoin::with_lists(store, doc_lists, scorer).run());
            let survivors = match pick {
                Some(p) => pick_stream(store, &joined, p),
                None => joined,
            };
            for survivor in survivors {
                let passes = match min {
                    Some(m) => survivor.score > m,
                    None => true,
                };
                if passes {
                    acc.push(survivor);
                }
            }
        }
        // §4.2 exit checks against the unscanned suffix, tightened per
        // term by the block suffix maxima when metadata is present.
        let bound = if blockmax {
            let tightened: Vec<u32> = remaining
                .iter()
                .zip(&mut block_cursors)
                .zip(&cursors)
                .map(|((&rem, bc), &cursor)| match bc {
                    Some(bc) => rem.min(bc.cap(u64::try_from(cursor).unwrap_or(u64::MAX))),
                    None => rem,
                })
                .collect();
            scorer.max_score_bound(&tightened)
        } else {
            scorer.max_score_bound(&remaining)
        };
        if let Some(kth) = acc.kth_score() {
            if kth > bound {
                tix_invariants::check! {
                    tix_invariants::assert_topk_early_exit_safe(kth, bound);
                }
                break;
            }
        }
        if let Some(m) = min {
            // Strict filter: nothing scoring ≤ bound ≤ min survives it.
            if bound <= m {
                break;
            }
        }
    }
    if cancelled() {
        return None;
    }
    Some(PushdownRun {
        results: acc.into_sorted(),
        postings_scanned: scanned,
        postings_skipped: skipped,
        postings_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::termjoin::{ChildCountMode, ComplexScorer, IdfScorer, SimpleScorer};
    use crate::topk;
    use tix_index::InvertedIndex;

    /// Many small documents with skewed term frequencies, so top-k exits
    /// have a real tail to skip.
    fn fixture() -> (Store, InvertedIndex) {
        let mut store = Store::new();
        for i in 0..40u32 {
            // Earlier documents are denser in "x", so the best results
            // live early in document order and the bound closes fast.
            let hits = 40 - i;
            let mut body = String::from("<doc><sec><p>");
            for _ in 0..hits {
                body.push_str("x ");
            }
            body.push_str("</p></sec><sec><p>y filler</p></sec></doc>");
            store.load_str(&format!("d{i}.xml"), &body).unwrap();
        }
        let index = InvertedIndex::build(&store);
        (store, index)
    }

    fn full_pipeline<S: TermJoinScorer>(
        store: &Store,
        index: &dyn IndexReader,
        terms: &[&str],
        scorer: &S,
        pick: Option<&PickParams>,
        k: usize,
        min: Option<f64>,
    ) -> Vec<ScoredNode> {
        let joined = sort_by_node(TermJoin::new(store, index, terms, scorer).run());
        let picked = match pick {
            Some(p) => pick_stream(store, &joined, p),
            None => joined,
        };
        let filtered = match min {
            Some(m) => topk::min_score(picked, m),
            None => picked,
        };
        topk::top_k(filtered, k)
    }

    #[test]
    fn matches_full_pipeline_and_exits_early() {
        let (store, index) = fixture();
        let scorer = SimpleScorer::uniform();
        let pick = PickParams::paper();
        let run = search_topk(
            &store,
            &index,
            &["x", "y"],
            &scorer,
            Some(&pick),
            3,
            None,
            &|| false,
        )
        .unwrap();
        let full = full_pipeline(&store, &index, &["x", "y"], &scorer, Some(&pick), 3, None);
        assert_eq!(run.results, full);
        assert!(run.early_exit(), "k=3 over 40 docs must not scan the tail");
        assert!(run.postings_scanned < run.postings_total);
    }

    #[test]
    fn every_k_matches_full_pipeline() {
        let (store, index) = fixture();
        let scorer = SimpleScorer::paper();
        let pick = PickParams {
            relevance_threshold: 1.0,
            fraction: 0.5,
        };
        for k in [0, 1, 2, 5, 17, 1000] {
            let run = search_topk(
                &store,
                &index,
                &["x", "y"],
                &scorer,
                Some(&pick),
                k,
                None,
                &|| false,
            )
            .unwrap();
            let full = full_pipeline(&store, &index, &["x", "y"], &scorer, Some(&pick), k, None);
            assert_eq!(run.results, full, "k={k}");
        }
    }

    #[test]
    fn min_score_exit_matches_filter() {
        let (store, index) = fixture();
        let scorer = SimpleScorer::uniform();
        let pick = PickParams::paper();
        for min in [0.5, 10.0, 1e9] {
            let run = search_topk(
                &store,
                &index,
                &["x"],
                &scorer,
                Some(&pick),
                1000,
                Some(min),
                &|| false,
            )
            .unwrap();
            let full = full_pipeline(
                &store,
                &index,
                &["x"],
                &scorer,
                Some(&pick),
                1000,
                Some(min),
            );
            assert_eq!(run.results, full, "min={min}");
        }
    }

    #[test]
    fn complex_and_idf_scorers_match() {
        let (store, index) = fixture();
        let pick = PickParams::paper();
        let complex = ComplexScorer::uniform(ChildCountMode::Index);
        let run = search_topk(
            &store,
            &index,
            &["x", "y"],
            &complex,
            Some(&pick),
            4,
            None,
            &|| false,
        )
        .unwrap();
        let full = full_pipeline(&store, &index, &["x", "y"], &complex, Some(&pick), 4, None);
        assert_eq!(run.results, full);

        let idf = IdfScorer::new(&index, store.doc_count(), &["x", "y"]);
        let run = search_topk(
            &store,
            &index,
            &["x", "y"],
            &idf,
            Some(&pick),
            4,
            None,
            &|| false,
        )
        .unwrap();
        let full = full_pipeline(&store, &index, &["x", "y"], &idf, Some(&pick), 4, None);
        assert_eq!(run.results, full);
    }

    #[test]
    fn unknown_terms_and_empty_query() {
        let (store, index) = fixture();
        let scorer = SimpleScorer::uniform();
        let pick = PickParams::paper();
        let run = search_topk(
            &store,
            &index,
            &["nosuch"],
            &scorer,
            Some(&pick),
            5,
            None,
            &|| false,
        )
        .unwrap();
        assert!(run.results.is_empty());
        assert_eq!(run.postings_total, 0);
        assert!(!run.early_exit());
        let run = search_topk(&store, &index, &[], &scorer, Some(&pick), 5, None, &|| {
            false
        })
        .unwrap();
        assert!(run.results.is_empty());
    }

    #[test]
    fn cancellation_polls_and_aborts() {
        let (store, index) = fixture();
        let scorer = SimpleScorer::uniform();
        let pick = PickParams::paper();
        assert!(search_topk(
            &store,
            &index,
            &["x"],
            &scorer,
            Some(&pick),
            3,
            None,
            &|| true
        )
        .is_none());
        let polls = std::cell::Cell::new(0u32);
        let late = search_topk(
            &store,
            &index,
            &["x"],
            &scorer,
            Some(&pick),
            3,
            None,
            &|| {
                polls.set(polls.get() + 1);
                polls.get() >= 2
            },
        );
        assert!(late.is_none());
        assert!(polls.get() >= 2);
    }

    #[test]
    fn no_pick_stage_matches_full_pipeline() {
        let (store, index) = fixture();
        let scorer = SimpleScorer::uniform();
        let run = search_topk(&store, &index, &["x", "y"], &scorer, None, 3, None, &|| {
            false
        })
        .unwrap();
        let full = full_pipeline(&store, &index, &["x", "y"], &scorer, None, 3, None);
        assert_eq!(run.results, full);
        assert!(run.early_exit());
    }

    /// Build sound block metadata for a posting list, the same statistic
    /// the v3 pack writer persists: chunk into `block` postings, and for
    /// each chunk take the max over intersecting documents of that
    /// document's *whole-list* posting count.
    fn summarize(list: &[Posting], block: usize) -> Vec<BlockSummary> {
        let mut totals: Vec<(u32, u32)> = Vec::new();
        for p in list {
            match totals.last_mut() {
                Some(t) if t.0 == p.doc.0 => t.1 += 1,
                _ => totals.push((p.doc.0, 1)),
            }
        }
        list.chunks(block)
            .map(|chunk| {
                let first = chunk.first().map(|p| p.doc.0).unwrap_or(0);
                let last = chunk.last().map(|p| p.doc.0).unwrap_or(0);
                let lo = totals.partition_point(|t| t.0 < first);
                let hi = totals.partition_point(|t| t.0 <= last);
                let max = totals
                    .get(lo..hi)
                    .unwrap_or(&[])
                    .iter()
                    .map(|t| t.1)
                    .max()
                    .unwrap_or(0);
                BlockSummary {
                    first_doc: first,
                    last_doc: last,
                    postings: u32::try_from(chunk.len()).unwrap_or(u32::MAX),
                    max_doc_count: max,
                }
            })
            .collect()
    }

    #[test]
    fn block_metadata_skips_documents_and_stays_byte_identical() {
        let (store, index) = fixture();
        let scorer = SimpleScorer::uniform();
        let pick = PickParams::paper();
        let terms = ["x", "y"];
        let lists: Vec<&[Posting]> = terms.iter().map(|t| index.postings(t)).collect();
        let summaries: Vec<Vec<BlockSummary>> = lists.iter().map(|l| summarize(l, 8)).collect();
        let blocks: Vec<Option<&[BlockSummary]>> =
            summaries.iter().map(|s| Some(s.as_slice())).collect();
        for k in [1, 2, 3, 5, 17] {
            let with = search_topk_on_lists_with_blocks(
                &store,
                &lists,
                &blocks,
                &scorer,
                Some(&pick),
                k,
                None,
                &|| false,
            )
            .unwrap();
            let without = search_topk_on_lists_with_blocks(
                &store,
                &lists,
                &[None, None],
                &scorer,
                Some(&pick),
                k,
                None,
                &|| false,
            )
            .unwrap();
            assert_eq!(with.results, without.results, "k={k}");
            assert!(
                with.postings_scanned <= without.postings_scanned,
                "k={k}: block metadata must never scan more ({} vs {})",
                with.postings_scanned,
                without.postings_scanned,
            );
        }
        // Small k over the skewed fixture must actually skip documents.
        let with = search_topk_on_lists_with_blocks(
            &store,
            &lists,
            &blocks,
            &scorer,
            Some(&pick),
            2,
            None,
            &|| false,
        )
        .unwrap();
        assert!(
            with.postings_skipped > 0,
            "skewed fixture with k=2 must skip whole documents"
        );
    }

    #[test]
    fn block_metadata_min_threshold_matches_filter() {
        let (store, index) = fixture();
        let scorer = SimpleScorer::uniform();
        let pick = PickParams::paper();
        let lists: Vec<&[Posting]> = [index.postings("x")].to_vec();
        let summaries = summarize(lists.first().unwrap(), 4);
        let blocks = [Some(summaries.as_slice())];
        for min in [0.5, 10.0, 1e9] {
            let with = search_topk_on_lists_with_blocks(
                &store,
                &lists,
                &blocks,
                &scorer,
                Some(&pick),
                1000,
                Some(min),
                &|| false,
            )
            .unwrap();
            let without = search_topk_on_lists_with_blocks(
                &store,
                &lists,
                &[None],
                &scorer,
                Some(&pick),
                1000,
                Some(min),
                &|| false,
            )
            .unwrap();
            assert_eq!(with.results, without.results, "min={min}");
        }
    }

    #[test]
    fn unbounded_scorer_disables_early_exit() {
        struct NoBound;
        impl TermJoinScorer for NoBound {
            fn needs_detail(&self) -> bool {
                false
            }
            fn score(
                &self,
                _store: &Store,
                _node: tix_store::NodeRef,
                counters: &[u32],
                _detail: &[crate::scored::TermHit],
                _nonzero: u32,
            ) -> f64 {
                counters.iter().map(|&c| f64::from(c)).sum()
            }
        }
        let (store, index) = fixture();
        let pick = PickParams::paper();
        let run = search_topk(
            &store,
            &index,
            &["x"],
            &NoBound,
            Some(&pick),
            1,
            None,
            &|| false,
        )
        .unwrap();
        assert!(!run.early_exit(), "INFINITY bound must never exit early");
        assert_eq!(run.postings_scanned, run.postings_total);
    }
}
