//! The high-level convenience wrapper around the layered system.

use std::sync::{Arc, Mutex};

use tix_exec::pick::PickParams;
use tix_exec::scored::{sort_by_node, ScoredNode};
use tix_exec::termjoin::{SimpleScorer, TermJoin};
use tix_index::{IndexReader, InvertedIndex};
use tix_pack::PackIndex;
use tix_query::{
    LogicalPlan, PhraseSearch, PlanChoice, PlanInputs, PlanStats, Scoring, TermSearch,
};
use tix_store::{DocId, LoadError, RemoveError, Store};

/// The two physical index representations a database can serve from.
/// Queries read either one through [`IndexReader`] with byte-identical
/// results; only the in-memory form supports incremental maintenance, so
/// a pack-backed index is materialized on the first mutation.
#[derive(Debug)]
enum IndexRepr {
    /// Uncompressed in-memory lists (built, or loaded from a v2 snapshot).
    Mem(InvertedIndex),
    /// Compressed v3 `TIXPAK` file, loaded by reference with lazy decode.
    Pack(PackIndex),
}

impl IndexRepr {
    fn reader(&self) -> &dyn IndexReader {
        match self {
            IndexRepr::Mem(index) => index,
            IndexRepr::Pack(pack) => pack,
        }
    }
}

/// An XML database with IR-style querying: a [`Store`], an on-demand
/// [`InvertedIndex`], and shortcuts to the most common access-method
/// pipelines.
///
/// For full control (custom scorers, the algebra operators, the XQuery
/// dialect) use the layer crates directly; `Database` just wires the
/// common paths together.
#[derive(Debug)]
pub struct Database {
    store: Store,
    index: Option<IndexRepr>,
    generation: u64,
    /// Planner-statistics cache, keyed by [`Database::generation`] so a
    /// snapshot computed against an older store or index is never reused
    /// after a mutation.
    plan_stats: Mutex<Option<(u64, Arc<PlanStats>)>>,
}

impl Default for Database {
    fn default() -> Self {
        Database {
            store: Store::new(),
            index: None,
            generation: 0,
            plan_stats: Mutex::new(None),
        }
    }
}

/// Canonical query-term normalization: trim surrounding whitespace and
/// drop empty terms. The term *case* is preserved — index lookups are
/// exact-string, so case folding here would change results.
///
/// Every [`SearchRequest`] constructor applies this to its input, so two
/// queries with the same normalized form are guaranteed identical
/// results; `tix-server`'s result cache keys on this form for exactly
/// that reason.
pub fn normalize_query<S: AsRef<str>>(terms: &[S]) -> Vec<String> {
    terms
        .iter()
        .map(|t| t.as_ref().trim().to_string())
        .filter(|t| !t.is_empty())
        .collect()
}

/// What a read computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReadKind {
    /// Scoring (uniform weights) → stack-based Pick → top-k: the classic
    /// IR pipeline over the TermJoin family of access methods.
    Terms {
        /// The Pick stage's parameters.
        pick: PickParams,
    },
    /// The exact phrase (PhraseFinder): text nodes with their occurrence
    /// counts as scores, in document order.
    Phrase,
}

/// One read: everything [`Database::run`] needs to plan and execute it.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchRequest {
    /// Query terms in [`normalize_query`] form; the constructors
    /// normalize, so equal requests are equal reads.
    terms: Vec<String>,
    /// What to compute.
    pub kind: ReadKind,
    /// Result budget; `usize::MAX` for none.
    pub k: usize,
    /// Exclusive minimum score: only results with `score > min_score`.
    pub min_score: Option<f64>,
    /// Top `k` **with ties**, for the cluster's scatter-gather merge:
    /// every result whose score ties the k-th is kept, so truncation
    /// never splits a tie, and [`SearchResponse::withheld_bound`] bounds
    /// the rest. `k == 0` counts as `k == 1` (no finite exclusive bound
    /// covers "everything withheld").
    pub ties: bool,
}

impl SearchRequest {
    /// A [`ReadKind::Terms`] read of the top `k` above `min_score`.
    pub fn search<S: AsRef<str>>(
        terms: &[S],
        pick: PickParams,
        k: usize,
        min_score: Option<f64>,
    ) -> Self {
        SearchRequest {
            terms: normalize_query(terms),
            kind: ReadKind::Terms { pick },
            k,
            min_score,
            ties: false,
        }
    }

    /// A [`ReadKind::Phrase`] read of every match.
    pub fn phrase<S: AsRef<str>>(terms: &[S]) -> Self {
        SearchRequest {
            terms: normalize_query(terms),
            kind: ReadKind::Phrase,
            k: usize::MAX,
            min_score: None,
            ties: false,
        }
    }

    /// The normalized query terms.
    pub fn terms(&self) -> &[String] {
        &self.terms
    }
}

/// The answer to a [`SearchRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResponse {
    /// Best first for a term search; document order for a phrase.
    pub results: Vec<ScoredNode>,
    /// For a `ties` read, the *exclusive* upper bound on every withheld
    /// score (the k-th score; all its ties are kept), checked by
    /// [`tix_invariants::try_scatter_merge_bound`]. `None` when nothing
    /// was withheld, and always without `ties`.
    pub withheld_bound: Option<f64>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Parse and load a document. Invalidates the index and bumps the
    /// [generation](Database::generation).
    pub fn load(&mut self, name: &str, xml: &str) -> Result<DocId, LoadError> {
        self.index = None;
        self.generation += 1;
        self.store.load_str(name, xml)
    }

    /// Parse and load a document **without** invalidating the index: when
    /// an index is present it is maintained incrementally (the new
    /// document's postings are appended in document order), so the
    /// database stays queryable across the mutation. This is the live-
    /// ingestion entry point; batch loading should keep using
    /// [`Database::load`] + one [`Database::build_index`]. Bumps the
    /// [generation](Database::generation). Returns the new document's
    /// slot; its dense id is [`Store::dense_id`] of it.
    ///
    /// Under `debug_assertions` or `--features check-invariants` the
    /// maintained index is asserted byte-identical to a from-scratch
    /// rebuild after the mutation.
    pub fn insert_document(&mut self, name: &str, xml: &str) -> Result<DocId, LoadError> {
        let id = self.store.load_str(name, xml)?;
        self.materialize_index();
        if let Some(IndexRepr::Mem(index)) = &mut self.index {
            index.add_document(&self.store, id);
        }
        self.generation += 1;
        self.assert_index_matches_rebuild();
        Ok(id)
    }

    /// Remove a document by name in O(document): the store tombstones its
    /// slot and the index cuts only that document's posting runs; no
    /// other document is renumbered (see [`tix_store::Tombstones`]).
    /// Returns the dense id the document had — the id every rendering and
    /// serialization used for it. Bumps the
    /// [generation](Database::generation).
    ///
    /// Under `debug_assertions` or `--features check-invariants` the
    /// maintained index is asserted byte-identical to a from-scratch
    /// rebuild after the mutation.
    pub fn remove_document(&mut self, name: &str) -> Result<DocId, RemoveError> {
        let removed = self.store.remove_document(name)?;
        let dense = removed.dense();
        self.materialize_index();
        if let Some(IndexRepr::Mem(index)) = &mut self.index {
            index.remove_document(removed);
        }
        self.generation += 1;
        self.assert_index_matches_rebuild();
        Ok(dense)
    }

    /// The incremental-maintenance acceptance check: the maintained index
    /// must serialize **byte-identically** to `InvertedIndex::build` over
    /// the current store. Compiled only under `debug_assertions` or
    /// `--features check-invariants`; a no-op without an index.
    fn assert_index_matches_rebuild(&self) {
        tix_invariants::check! {
            if let Some(IndexRepr::Mem(index)) = &self.index {
                let mut maintained = Vec::new();
                let mut rebuilt = Vec::new();
                let saved = (
                    index.save_snapshot(&mut maintained),
                    InvertedIndex::build(&self.store).save_snapshot(&mut rebuilt),
                );
                assert!(
                    matches!(saved, (Ok(()), Ok(()))),
                    "serialize maintained and rebuilt index: {saved:?}"
                );
                assert!(
                    maintained == rebuilt,
                    "incrementally maintained index diverged from a from-scratch rebuild"
                );
            }
        }
    }

    /// Build (or rebuild) the inverted index over everything loaded,
    /// fanning per-document extraction out over the machine's available
    /// parallelism. Bumps the [generation](Database::generation).
    pub fn build_index(&mut self) {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.index = Some(IndexRepr::Mem(InvertedIndex::build_with_threads(
            &self.store,
            threads,
        )));
        self.generation += 1;
    }

    /// Convert a pack-backed index into the in-memory representation so it
    /// can be maintained incrementally. Materialization preserves term
    /// order and statistics exactly, so the maintained index still matches
    /// a from-scratch rebuild byte-for-byte. Its dense ids are the store's
    /// slots: [`Database::set_pack_index`] left the store without
    /// tombstones, and the index has not yet seen the mutation that
    /// triggers materializing. A decode failure is
    /// unreachable behind the open-time seal; if it happens anyway the
    /// index is dropped (callers rebuild, matching post-`load` behavior).
    fn materialize_index(&mut self) {
        if let Some(IndexRepr::Pack(pack)) = &self.index {
            self.index = match pack.to_inverted() {
                Ok(mem) => Some(IndexRepr::Mem(mem)),
                Err(_) => None,
            };
        }
    }

    /// Install a pre-built index: one built over this store, or one loaded
    /// from an index snapshot. The caller is responsible for it matching
    /// the loaded documents. A loaded index speaks dense document ids, so
    /// over a store with tombstones the store is first reassembled with
    /// dense slots. Bumps the [generation](Database::generation).
    pub fn set_index(&mut self, index: InvertedIndex) {
        if index.tombstones().is_empty() {
            self.densify_store();
        }
        self.index = Some(IndexRepr::Mem(index));
        self.generation += 1;
    }

    /// Install a compressed v3 pack index loaded by reference (e.g. from a
    /// `TIXPAK` sidecar). Queries serve straight off the packed bytes with
    /// lazy per-term decode; the first mutation materializes the in-memory
    /// form. A pack speaks dense document ids, so over a store with
    /// tombstones the store is first reassembled with dense slots. Bumps
    /// the [generation](Database::generation).
    pub fn set_pack_index(&mut self, pack: PackIndex) {
        self.densify_store();
        self.index = Some(IndexRepr::Pack(pack));
        self.generation += 1;
    }

    /// Give every live document its dense id as its slot, so an index
    /// written in dense ids addresses the store directly. A no-op without
    /// tombstones; otherwise O(documents) reference bumps plus the tag
    /// index, as in a checkpoint's freeze and thaw.
    fn densify_store(&mut self) {
        if !self.store.tombstones().is_empty() {
            self.store = self.store.freeze().thaw();
        }
    }

    /// The store/index **generation**: a counter bumped by every mutation
    /// ([`Database::load`], [`Database::build_index`],
    /// [`Database::set_index`], [`Database::store_mut`]). Result caches key
    /// on it so entries computed against an older store or index can never
    /// be served after a reload.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The underlying store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Mutable store access (e.g. for the corpus generator's `load_into`).
    /// Invalidates the index and bumps the
    /// [generation](Database::generation).
    pub fn store_mut(&mut self) -> &mut Store {
        self.index = None;
        self.generation += 1;
        &mut self.store
    }

    /// The inverted index.
    ///
    /// # Panics
    /// Panics if [`Database::build_index`] has not been called since the
    /// last load.
    pub fn index(&self) -> &dyn IndexReader {
        self.index
            .as_ref()
            // lint:allow(no-unwrap): the documented contract; every query needs an index
            .expect("call Database::build_index() after loading documents")
            .reader()
    }

    /// The in-memory index, when that is the active representation
    /// (v2 snapshot writers need the concrete type).
    pub fn mem_index(&self) -> Option<&InvertedIndex> {
        match &self.index {
            Some(IndexRepr::Mem(index)) => Some(index),
            _ => None,
        }
    }

    /// The pack-backed index, when that is the active representation.
    pub fn pack_index(&self) -> Option<&PackIndex> {
        match &self.index {
            Some(IndexRepr::Pack(pack)) => Some(pack),
            _ => None,
        }
    }

    /// Has an index been built (or installed) since the last mutation?
    pub fn has_index(&self) -> bool {
        self.index.is_some()
    }

    /// Score every element containing any of `terms` (subtree containment)
    /// with uniform weights, via the TermJoin access method. Results are
    /// sorted by descending score (ties in document order).
    pub fn term_join(&self, terms: &[&str]) -> Vec<ScoredNode> {
        let scorer = SimpleScorer::uniform();
        let mut out = TermJoin::new(&self.store, self.index(), terms, &scorer).run();
        out.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.node.cmp(&b.node))
        });
        out
    }

    /// The one read path: lower `request` to a logical plan, let the
    /// cost-based planner pick the physical plan ([`Database::plan`]), and
    /// execute it. Every candidate plan returns byte-identical results, so
    /// the choice affects time only; [`Database::explain`] shows it.
    ///
    /// `cancelled` is consulted between the pipeline's operator stages
    /// (before scoring, between scoring and Pick, and between Pick and
    /// top-k) and the read returns `None` as soon as it reports `true`.
    /// This is the serving layer's deadline hook: an expired request stops
    /// paying for the remaining stages.
    pub fn run(
        &self,
        request: &SearchRequest,
        cancelled: &dyn Fn() -> bool,
    ) -> Option<SearchResponse> {
        let (logical, inputs, _) = self.lower(request);
        let choice = tix_query::choose(&logical, &inputs);
        let mut results = tix_query::execute(
            &self.store,
            self.index(),
            &logical,
            &choice.chosen.plan,
            1,
            cancelled,
        )?
        .results;
        let withheld_bound = if request.ties {
            withhold_below_kth(&mut results, request.k.max(1))
        } else {
            None
        };
        if request.kind == ReadKind::Phrase {
            // `execute` ranks phrase matches by count; a phrase answer is
            // in document order.
            results = sort_by_node(results);
        }
        Some(SearchResponse {
            results,
            withheld_bound,
        })
    }

    /// The lowering [`Database::run`], [`Database::plan`] and
    /// [`Database::explain`] share: the request's logical plan, the
    /// planner inputs for its terms, and the statistics snapshot they came
    /// from. A `ties` request is planned without its rank cutoff.
    fn lower(&self, request: &SearchRequest) -> (LogicalPlan, PlanInputs, Arc<PlanStats>) {
        let k = if request.ties { usize::MAX } else { request.k };
        let terms = request.terms.clone();
        let logical = match request.kind {
            ReadKind::Terms { pick } => LogicalPlan::TermSearch(TermSearch {
                terms,
                scoring: Scoring::SimpleUniform,
                pick: Some(pick),
                k,
                min_score: request.min_score,
            }),
            ReadKind::Phrase => LogicalPlan::Phrase(PhraseSearch {
                terms,
                k,
                min_score: request.min_score,
            }),
        };
        let stats = self.plan_stats();
        let inputs = stats.inputs(self.index(), &request.terms);
        (logical, inputs, stats)
    }

    /// The per-generation planner-statistics snapshot (gathered at most
    /// once per mutation, then shared).
    fn plan_stats(&self) -> Arc<PlanStats> {
        let mut guard = self.plan_stats.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((generation, stats)) = guard.as_ref() {
            if *generation == self.generation {
                return Arc::clone(stats);
            }
        }
        let stats = Arc::new(PlanStats::gather(&self.store, self.index()));
        *guard = Some((self.generation, Arc::clone(&stats)));
        stats
    }

    /// The classic end-to-end IR pipeline: scoring → stack-based Pick
    /// (parent/child redundancy elimination) → top-k, through
    /// [`Database::run`]. Returns at most `k` picked elements, best first.
    pub fn search(&self, terms: &[&str], pick: PickParams, k: usize) -> Vec<ScoredNode> {
        self.search_filtered(terms, pick, k, None, &|| false)
            .unwrap_or_default()
    }

    /// [`Database::search`] with a value threshold pushed into the
    /// pipeline — only nodes with `score > min_score` are returned (the
    /// dialect's `Threshold $v/@score > min stop after k`) — and
    /// cooperative cancellation, as in [`Database::run`].
    pub fn search_filtered(
        &self,
        terms: &[&str],
        pick: PickParams,
        k: usize,
        min_score: Option<f64>,
        cancelled: &dyn Fn() -> bool,
    ) -> Option<Vec<ScoredNode>> {
        let request = SearchRequest::search(terms, pick, k, min_score);
        self.run(&request, cancelled).map(|r| r.results)
    }

    /// Text nodes containing the exact phrase, with occurrence counts
    /// (PhraseFinder access method), in document order.
    pub fn find_phrase(&self, phrase_terms: &[&str]) -> Vec<ScoredNode> {
        self.run(&SearchRequest::phrase(phrase_terms), &|| false)
            .map(|r| r.results)
            .unwrap_or_default()
    }

    /// The planner's decision for a search, without executing it: every
    /// candidate plan with its cost estimate, and the chosen one.
    pub fn plan(
        &self,
        terms: &[&str],
        pick: PickParams,
        k: usize,
        min_score: Option<f64>,
    ) -> PlanChoice {
        let (logical, inputs, _) = self.lower(&SearchRequest::search(terms, pick, k, min_score));
        tix_query::choose(&logical, &inputs)
    }

    /// Render the EXPLAIN report for a read: the statistics the planner
    /// read, every candidate plan with its cost, and the chosen plan.
    pub fn explain(&self, request: &SearchRequest) -> String {
        let (logical, inputs, stats) = self.lower(request);
        let choice = tix_query::choose(&logical, &inputs);
        tix_query::explain::render(&logical, &inputs, &choice, stats.df_histogram.as_ref())
    }
}

/// Cut a best-first ranking after the `k`-th result's score, keeping
/// every result that ties it, and return that score as the *exclusive*
/// bound on what was cut: every withheld score is strictly below it.
/// `None` when nothing was cut.
fn withhold_below_kth(results: &mut Vec<ScoredNode>, k: usize) -> Option<f64> {
    let kth = results.get(k.checked_sub(1)?)?.score;
    // Sorted descending, so `score >= kth` is a prefix.
    let cut = results.partition_point(|s| s.score >= kth);
    if cut >= results.len() {
        return None;
    }
    results.truncate(cut);
    Some(kth)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::new();
        db.load(
            "a.xml",
            "<article><sec><p>rust xml database systems</p></sec>\
             <sec><p>cooking with rust the metal</p></sec></article>",
        )
        .unwrap();
        db.build_index();
        db
    }

    fn multi_doc_db() -> Database {
        let mut db = Database::new();
        for i in 0..7 {
            let xml = format!(
                "<article><sec><p>rust xml database number{i}</p></sec>\
                 <sec><p>xml rust and more rust</p></sec></article>"
            );
            db.load(&format!("d{i}.xml"), &xml).unwrap();
        }
        db.build_index();
        db
    }

    #[test]
    fn term_join_sorted_by_score() {
        let db = db();
        let out = db.term_join(&["rust", "xml"]);
        assert!(!out.is_empty());
        assert!(out.windows(2).all(|w| w[0].score >= w[1].score));
        // Top hit: the article (3 hits) ... ties resolved by doc order.
        assert_eq!(db.store().tag_name(out[0].node), Some("article"));
    }

    #[test]
    fn phrase_search() {
        let db = db();
        let out = db.find_phrase(&["xml", "database"]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].score, 1.0);
    }

    #[test]
    fn search_pipeline_picks_and_limits() {
        let db = db();
        let out = db.search(
            &["rust"],
            PickParams {
                relevance_threshold: 1.0,
                fraction: 0.5,
            },
            5,
        );
        assert!(!out.is_empty());
        assert!(out.len() <= 5);
    }

    #[test]
    #[should_panic(expected = "build_index")]
    fn index_access_without_build_panics() {
        let mut db = Database::new();
        db.load("a.xml", "<a>x</a>").unwrap();
        let _ = db.index();
    }

    #[test]
    fn load_invalidates_index() {
        let mut db = db();
        db.load("b.xml", "<b>fresh</b>").unwrap();
        db.build_index();
        assert_eq!(db.index().collection_frequency("fresh"), 1);
    }

    #[test]
    fn generation_bumps_on_every_mutation() {
        let mut db = Database::new();
        assert_eq!(db.generation(), 0);
        db.load("a.xml", "<a>x</a>").unwrap();
        let after_load = db.generation();
        assert!(after_load > 0);
        db.build_index();
        let after_build = db.generation();
        assert!(after_build > after_load);
        let _ = db.store_mut();
        assert!(db.generation() > after_build);
        db.build_index();
        let g = db.generation();
        let index = InvertedIndex::build(db.store());
        db.set_index(index);
        assert!(db.generation() > g);
    }

    #[test]
    fn insert_document_keeps_index_live() {
        let mut db = db();
        let gen_before = db.generation();
        let id = db
            .insert_document("b.xml", "<b><p>fresh rust</p></b>")
            .unwrap();
        // No rebuild needed: the index was maintained in place (the
        // check-invariants hook inside insert_document already asserted
        // byte-identity with a rebuild).
        assert!(db.has_index());
        assert!(db.generation() > gen_before);
        assert_eq!(db.index().collection_frequency("fresh"), 1);
        let hits = db.term_join(&["fresh"]);
        assert!(hits.iter().all(|h| h.node.doc == id));
        assert!(!hits.is_empty());
    }

    #[test]
    fn remove_document_keeps_index_live() {
        let mut db = multi_doc_db();
        let before = db.term_join(&["number3"]);
        assert!(!before.is_empty());
        db.remove_document("d3.xml").unwrap();
        assert!(db.has_index());
        assert!(db.term_join(&["number3"]).is_empty());
        // The surviving documents are still fully queryable.
        assert!(!db.term_join(&["rust"]).is_empty());
        assert!(matches!(
            db.remove_document("d3.xml"),
            Err(RemoveError::NotFound(_))
        ));
    }

    #[test]
    fn insert_duplicate_name_is_typed_and_mutation_free() {
        let mut db = db();
        let gen_before = db.generation();
        assert!(matches!(
            db.insert_document("a.xml", "<a>dup</a>"),
            Err(LoadError::DuplicateName(_))
        ));
        assert_eq!(db.generation(), gen_before);
        assert_eq!(db.index().collection_frequency("dup"), 0);
    }

    #[test]
    fn mutations_without_index_defer_to_build() {
        let mut db = Database::new();
        db.insert_document("a.xml", "<a>x</a>").unwrap();
        db.insert_document("b.xml", "<a>y</a>").unwrap();
        db.remove_document("a.xml").unwrap();
        assert!(!db.has_index());
        db.build_index();
        assert_eq!(db.index().collection_frequency("x"), 0);
        assert_eq!(db.index().collection_frequency("y"), 1);
    }

    #[test]
    fn normalize_query_trims_and_drops_empty() {
        assert_eq!(
            crate::normalize_query(&[" rust ", "xml", "", "  "]),
            vec!["rust".to_string(), "xml".to_string()]
        );
        // Case is preserved: index lookups are exact-string.
        assert_eq!(crate::normalize_query(&["Rust"]), vec!["Rust".to_string()]);
    }

    #[test]
    fn search_normalizes_terms() {
        let db = db();
        let pick = PickParams {
            relevance_threshold: 1.0,
            fraction: 0.5,
        };
        assert_eq!(
            db.search(&[" rust ", ""], pick, 5),
            db.search(&["rust"], pick, 5)
        );
    }

    #[test]
    fn run_stops_between_stages() {
        let db = db();
        let pick = PickParams {
            relevance_threshold: 1.0,
            fraction: 0.5,
        };
        let request = SearchRequest::search(&["rust"], pick, 5, None);
        assert!(db.run(&request, &|| true).is_none());
        let full = db.run(&request, &|| false).map(|r| r.results);
        assert_eq!(full, Some(db.search(&["rust"], pick, 5)));
        // Cancel only after the first checkpoint has passed: flip on the
        // second poll.
        let polls = std::cell::Cell::new(0u32);
        let late = db.run(&request, &|| {
            polls.set(polls.get() + 1);
            polls.get() >= 2
        });
        assert!(late.is_none());
        assert!(polls.get() >= 2);
    }

    #[test]
    fn search_filtered_applies_min_score() {
        let db = multi_doc_db();
        let pick = PickParams {
            relevance_threshold: 1.0,
            fraction: 0.5,
        };
        let all = db.search(&["rust"], pick, 100);
        let cutoff = all[all.len() / 2].score;
        let filtered = db
            .search_filtered(&["rust"], pick, 100, Some(cutoff), &|| false)
            .unwrap();
        let expected: Vec<ScoredNode> = all.iter().filter(|n| n.score > cutoff).cloned().collect();
        assert_eq!(filtered, expected);
        assert!(!filtered.is_empty());
        assert!(filtered.len() < all.len());
        // No filter = plain search.
        assert_eq!(
            db.search_filtered(&["rust"], pick, 100, None, &|| false)
                .unwrap(),
            all
        );
    }

    fn with_ties(terms: &[&str], pick: PickParams, k: usize) -> SearchRequest {
        SearchRequest {
            ties: true,
            ..SearchRequest::search(terms, pick, k, None)
        }
    }

    #[test]
    fn run_with_ties_never_splits_a_tie_and_bounds_the_rest() {
        let db = multi_doc_db();
        let pick = PickParams {
            relevance_threshold: 1.0,
            fraction: 0.5,
        };
        let all = db.search(&["rust"], pick, usize::MAX);
        assert!(all.len() >= 3, "need a multi-result corpus");
        let run = |k| db.run(&with_ties(&["rust"], pick, k), &|| false).unwrap();
        for k in 1..=all.len() + 1 {
            let SearchResponse {
                results: kept,
                withheld_bound: bound,
            } = run(k);
            // The kept prefix is exactly the full ranking's head.
            assert_eq!(kept[..], all[..kept.len()]);
            assert!(kept.len() >= k.min(all.len()));
            match bound {
                None => assert_eq!(kept.len(), all.len()),
                Some(b) => {
                    // Exclusive: every withheld score is strictly below,
                    // every kept score at least b.
                    assert!(kept.iter().all(|s| s.score >= b));
                    assert!(all[kept.len()..].iter().all(|s| s.score < b));
                    tix_invariants::assert_scatter_merge_bound(kept[k - 1].score, [Some(b)]);
                }
            }
        }
        // k == 0 behaves as k == 1.
        assert_eq!(run(0), run(1));
        // Without ties nothing is reported withheld.
        let plain = db
            .run(&SearchRequest::search(&["rust"], pick, 1, None), &|| false)
            .unwrap();
        assert_eq!(plain.withheld_bound, None);
        assert_eq!(plain.results, all[..1]);
    }

    #[test]
    fn every_candidate_plan_matches_the_planner_choice() {
        let db = multi_doc_db();
        let pick = PickParams {
            relevance_threshold: 1.0,
            fraction: 0.5,
        };
        let terms = ["rust", "xml"];
        for (k, min) in [(3, None), (100, Some(1.5)), (1, Some(0.0))] {
            let chosen = db.search_filtered(&terms, pick, k, min, &|| false).unwrap();
            let choice = db.plan(&terms, pick, k, min);
            assert!(choice
                .candidates
                .iter()
                .any(|c| c.plan == choice.chosen.plan));
            let logical = LogicalPlan::TermSearch(TermSearch {
                terms: normalize_query(&terms),
                scoring: Scoring::SimpleUniform,
                pick: Some(pick),
                k,
                min_score: min,
            });
            for c in &choice.candidates {
                let forced =
                    tix_query::execute(db.store(), db.index(), &logical, &c.plan, 1, &|| false)
                        .unwrap()
                        .results;
                assert_eq!(forced, chosen, "plan {} diverged", c.plan.label());
            }
        }
    }

    #[test]
    fn explain_reports_statistics_and_choice() {
        let db = multi_doc_db();
        let pick = PickParams {
            relevance_threshold: 1.0,
            fraction: 0.5,
        };
        let text = db.explain(&SearchRequest::search(&["rust"], pick, 5, None));
        assert!(text.contains("term-search"));
        assert!(text.contains("documents=7"));
        assert!(text.contains("term \"rust\""));
        assert!(text.contains("dictionary df:"));
        assert!(text.contains("chosen: "));
        // Deterministic rendering.
        assert_eq!(
            text,
            db.explain(&SearchRequest::search(&["rust"], pick, 5, None))
        );
    }

    #[test]
    fn plan_stats_cache_tracks_generation() {
        let mut db = db();
        let pick = PickParams {
            relevance_threshold: 1.0,
            fraction: 0.5,
        };
        let before = db.explain(&SearchRequest::search(&["rust"], pick, 5, None));
        db.insert_document("extra.xml", "<a><p>rust rust rust</p></a>")
            .unwrap();
        let after = db.explain(&SearchRequest::search(&["rust"], pick, 5, None));
        assert_ne!(before, after, "stats must refresh after a mutation");
        assert!(after.contains("documents=2"));
    }
}
