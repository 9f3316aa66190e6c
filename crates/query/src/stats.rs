//! Statistics the cost-based planner consumes.
//!
//! The store and index already maintain everything the planner needs —
//! document/element counts and depth sums ([`tix_store::StoreStats`]),
//! per-term collection/document/node frequencies
//! ([`tix_index::InvertedIndex`]) — this module just snapshots them into a
//! deterministic, integer-only shape ([`PlanInputs`]) that the cost model
//! in [`crate::physical`] can consume and that tests can **fabricate**
//! to force any plan choice without building a matching corpus.
//!
//! Fractional quantities (average depth, average children per element)
//! are carried in *milli* units (thousandths, rounded down) so the whole
//! planner runs on `u64` arithmetic: no float rounding, no
//! platform-dependent plan choices.

use tix_core::histogram::ScoreHistogram;
use tix_index::IndexReader;
use tix_store::Store;

/// Corpus-level statistics (one snapshot per store/index generation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusStats {
    /// Loaded documents.
    pub documents: u64,
    /// Element nodes across all documents.
    pub elements: u64,
    /// Element + text nodes.
    pub total_nodes: u64,
    /// Distinct tag names.
    pub distinct_tags: u64,
    /// Deepest nesting level (root = 0).
    pub max_depth: u64,
    /// Average node depth in thousandths (`level_sum * 1000 /
    /// total_nodes`): the ancestor-expansion factor in the planner's
    /// distinct-ancestor bound `A = min(E, F·d̄ + t)`.
    pub avg_depth_milli: u64,
    /// Average children per element in thousandths — the per-node
    /// navigation fan-out Enhanced TermJoin's child-count index avoids.
    pub avg_children_milli: u64,
    /// Total tokens in the inverted index.
    pub total_tokens: u64,
}

impl CorpusStats {
    /// Snapshot the loaded corpus.
    pub fn gather(store: &Store, index: &dyn IndexReader) -> Self {
        let stats = store.stats();
        let documents = u64::try_from(stats.documents).unwrap_or(u64::MAX);
        let elements = u64::try_from(stats.elements).unwrap_or(u64::MAX);
        let total_nodes = u64::try_from(stats.total_nodes()).unwrap_or(u64::MAX);
        let avg_depth_milli = stats
            .level_sum
            .saturating_mul(1000)
            .checked_div(total_nodes)
            .unwrap_or(0);
        // Every non-root node is some element's child, so the average
        // fan-out is (total_nodes - documents) / elements.
        let avg_children_milli = total_nodes
            .saturating_sub(documents)
            .saturating_mul(1000)
            .checked_div(elements)
            .unwrap_or(0);
        CorpusStats {
            documents,
            elements,
            total_nodes,
            distinct_tags: u64::try_from(stats.distinct_tags).unwrap_or(u64::MAX),
            max_depth: u64::from(stats.max_depth),
            avg_depth_milli,
            avg_children_milli,
            total_tokens: index.total_tokens(),
        }
    }
}

/// Per-query-term statistics, straight off the posting lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TermStats {
    /// The query term (normalized form).
    pub term: String,
    /// Total occurrences in the collection.
    pub collection_frequency: u64,
    /// Distinct documents containing the term.
    pub document_frequency: u64,
    /// Distinct text nodes containing the term.
    pub node_frequency: u64,
    /// Maximum whole-document occurrence count, when the index
    /// representation carries block-max metadata (v3 only). Feeds the
    /// planner's pushdown estimate: with it the §4.2 early exit provably
    /// fires near the optimistic point.
    pub max_doc_count: Option<u64>,
}

impl TermStats {
    /// Look a term up in the index. Unknown terms get all-zero
    /// frequencies (their posting lists are empty).
    pub fn lookup(index: &dyn IndexReader, term: &str) -> Self {
        match index.term_summary(term) {
            Some(summary) => TermStats {
                term: term.to_string(),
                collection_frequency: u64::try_from(summary.collection_frequency)
                    .unwrap_or(u64::MAX),
                document_frequency: u64::from(summary.doc_frequency),
                node_frequency: u64::from(summary.node_frequency),
                max_doc_count: index.max_doc_count(term).map(u64::from),
            },
            None => TermStats {
                term: term.to_string(),
                collection_frequency: 0,
                document_frequency: 0,
                node_frequency: 0,
                max_doc_count: None,
            },
        }
    }
}

/// Everything the cost model reads: corpus shape + the query's term
/// statistics. Fabricate this directly in tests to force plan flips.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanInputs {
    /// Corpus-level statistics.
    pub corpus: CorpusStats,
    /// One entry per query term, in query order.
    pub terms: Vec<TermStats>,
}

impl PlanInputs {
    /// Gather inputs for `terms` against a live store + index.
    pub fn gather<S: AsRef<str>>(store: &Store, index: &dyn IndexReader, terms: &[S]) -> Self {
        PlanInputs {
            corpus: CorpusStats::gather(store, index),
            terms: terms
                .iter()
                .map(|t| TermStats::lookup(index, t.as_ref()))
                .collect(),
        }
    }

    /// Total postings across the query's terms (the `F` of the cost
    /// model).
    pub fn total_postings(&self) -> u64 {
        self.terms
            .iter()
            .fold(0u64, |acc, t| acc.saturating_add(t.collection_frequency))
    }

    /// Do *all* query terms carry block-max metadata (v3 index)? When
    /// true the pushdown runner skips provably non-contributing
    /// documents, and the cost model discounts its scan estimate.
    pub fn block_max_available(&self) -> bool {
        !self.terms.is_empty() && self.terms.iter().all(|t| t.max_doc_count.is_some())
    }

    /// Upper bound on documents containing *any* query term
    /// (`min(documents, Σ df)`), the denominator of the pushdown
    /// early-exit fraction.
    pub fn docs_union_bound(&self) -> u64 {
        let sum = self
            .terms
            .iter()
            .fold(0u64, |acc, t| acc.saturating_add(t.document_frequency));
        sum.min(self.corpus.documents)
    }
}

/// A cached per-generation statistics snapshot: the corpus shape plus a
/// histogram of the dictionary's document frequencies (quartiles of which
/// EXPLAIN reports, so a reader can see where a query's terms sit in the
/// collection's frequency distribution).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStats {
    /// Corpus-level statistics.
    pub corpus: CorpusStats,
    /// Document-frequency histogram over the whole dictionary (`None`
    /// for an empty dictionary).
    pub df_histogram: Option<ScoreHistogram>,
}

/// Buckets in the dictionary document-frequency histogram.
const DF_HISTOGRAM_BUCKETS: usize = 16;

impl PlanStats {
    /// Snapshot statistics for the loaded corpus.
    pub fn gather(store: &Store, index: &dyn IndexReader) -> Self {
        let dfs: Vec<f64> = index.doc_frequencies().into_iter().map(f64::from).collect();
        let df_histogram = if dfs.is_empty() {
            None
        } else {
            Some(ScoreHistogram::build(dfs, DF_HISTOGRAM_BUCKETS))
        };
        PlanStats {
            corpus: CorpusStats::gather(store, index),
            df_histogram,
        }
    }

    /// Per-query inputs from this snapshot (term lookups still hit the
    /// index — posting-list headers are O(1) per term).
    pub fn inputs<S: AsRef<str>>(&self, index: &dyn IndexReader, terms: &[S]) -> PlanInputs {
        PlanInputs {
            corpus: self.corpus.clone(),
            terms: terms
                .iter()
                .map(|t| TermStats::lookup(index, t.as_ref()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tix_index::InvertedIndex;

    fn fixture() -> (Store, InvertedIndex) {
        let mut store = Store::new();
        store
            .load_str(
                "a.xml",
                "<article><sec><p>rust xml database</p></sec>\
                 <sec><p>xml and more xml</p></sec></article>",
            )
            .unwrap();
        store.load_str("b.xml", "<note>rust</note>").unwrap();
        let index = InvertedIndex::build(&store);
        (store, index)
    }

    #[test]
    fn corpus_stats_are_integer_exact() {
        let (store, index) = fixture();
        let corpus = CorpusStats::gather(&store, &index);
        assert_eq!(corpus.documents, 2);
        // article, sec, sec, p, p, note.
        assert_eq!(corpus.elements, 6);
        // + 3 text nodes.
        assert_eq!(corpus.total_nodes, 9);
        assert_eq!(corpus.total_tokens, index.total_tokens());
        // Depths: article 0, sec 1, sec 1, p 2, p 2, texts 3,3, note 0,
        // text 1 → level_sum 13, avg 13000/9 = 1444.
        assert_eq!(corpus.avg_depth_milli, 1444);
        // (9 - 2) * 1000 / 6 = 1166.
        assert_eq!(corpus.avg_children_milli, 1166);
    }

    #[test]
    fn term_stats_lookup_known_and_unknown() {
        let (_store, index) = fixture();
        let xml = TermStats::lookup(&index, "xml");
        assert_eq!(xml.collection_frequency, 3);
        assert_eq!(xml.document_frequency, 1);
        assert_eq!(xml.node_frequency, 2);
        let nope = TermStats::lookup(&index, "nope");
        assert_eq!(nope.collection_frequency, 0);
        assert_eq!(nope.document_frequency, 0);
        assert_eq!(nope.node_frequency, 0);
    }

    #[test]
    fn plan_inputs_aggregates() {
        let (store, index) = fixture();
        let inputs = PlanInputs::gather(&store, &index, &["xml", "rust"]);
        assert_eq!(inputs.total_postings(), 3 + 2);
        // xml df=1, rust df=2 → Σ=3 clamped to 2 documents.
        assert_eq!(inputs.docs_union_bound(), 2);
    }

    #[test]
    fn plan_stats_snapshot_matches_direct_gather() {
        let (store, index) = fixture();
        let snap = PlanStats::gather(&store, &index);
        let inputs = snap.inputs(&index, &["xml"]);
        assert_eq!(inputs, PlanInputs::gather(&store, &index, &["xml"]));
        let hist = snap.df_histogram.as_ref().unwrap();
        assert_eq!(hist.count(), index.term_count());
    }

    #[test]
    fn empty_dictionary_has_no_histogram() {
        let store = Store::new();
        let index = InvertedIndex::build(&store);
        let snap = PlanStats::gather(&store, &index);
        assert!(snap.df_histogram.is_none());
        assert_eq!(snap.corpus.avg_depth_milli, 0);
        assert_eq!(snap.corpus.avg_children_milli, 0);
    }
}
