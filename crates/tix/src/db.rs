//! The high-level convenience wrapper around the layered system.

use std::sync::{Arc, Mutex};

use tix_core::scoring::ScoreContext;
use tix_exec::parallel::{phrase_finder_parallel, term_join_parallel};
use tix_exec::pick::PickParams;
use tix_exec::scored::{sort_by_node, ScoredNode};
use tix_exec::termjoin::{SimpleScorer, TermJoinScorer};
use tix_index::{IndexReader, InvertedIndex};
use tix_pack::PackIndex;
use tix_query::{LogicalPlan, PhysicalPlan, PlanChoice, PlanStats, Scoring, TermSearch};
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
///
/// ## Parallelism
///
/// Index construction and every query entry point run document-partitioned
/// over a configurable number of worker threads — the `TIX_THREADS`
/// environment variable by default, overridable per database with
/// [`Database::set_threads`]. Results are **identical** to single-threaded
/// execution at any thread count (enforced by the equivalence tests in
/// `tix-exec` and `tix-index`); threads only change wall-clock time.
#[derive(Debug)]
pub struct Database {
    store: Store,
    index: Option<IndexRepr>,
    threads: usize,
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
            threads: tix_parallel::default_threads(),
            generation: 0,
            plan_stats: Mutex::new(None),
        }
    }
}

/// Canonical query-term normalization shared by every result-caching and
/// batching layer: trim surrounding whitespace and drop empty terms. The
/// term *case* is preserved — index lookups are exact-string, so case
/// folding here would change results.
///
/// [`Database::search`] applies this to its input, so two queries with the
/// same normalized form are guaranteed identical results; `tix-server`'s
/// result cache and [`Database::search_batch`]'s deduplication both key on
/// this form for exactly that reason.
pub fn normalize_query<S: AsRef<str>>(terms: &[S]) -> Vec<String> {
    terms
        .iter()
        .map(|t| t.as_ref().trim().to_string())
        .filter(|t| !t.is_empty())
        .collect()
}

impl Database {
    /// An empty database using [`tix_parallel::default_threads`] workers.
    pub fn new() -> Self {
        Database::default()
    }

    /// Set the worker-thread count for index builds and queries. `1` means
    /// fully sequential execution on the calling thread.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The worker-thread count used for index builds and queries.
    pub fn threads(&self) -> usize {
        self.threads
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
                index
                    .save_snapshot(&mut maintained)
                    .expect("serialize maintained index");
                let mut rebuilt = Vec::new();
                InvertedIndex::build(&self.store)
                    .save_snapshot(&mut rebuilt)
                    .expect("serialize rebuilt index");
                assert!(
                    maintained == rebuilt,
                    "incrementally maintained index diverged from a from-scratch rebuild"
                );
            }
        }
    }

    /// Build (or rebuild) the inverted index over everything loaded,
    /// fanning per-document extraction out over the configured threads.
    /// Bumps the [generation](Database::generation).
    pub fn build_index(&mut self) {
        self.index = Some(IndexRepr::Mem(InvertedIndex::build_with_threads(
            &self.store,
            self.threads,
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

    /// A scoring context carrying the store and index.
    pub fn score_context(&self) -> ScoreContext<'_> {
        match &self.index {
            Some(repr) => ScoreContext::with_index(&self.store, repr.reader()),
            None => ScoreContext::new(&self.store),
        }
    }

    /// Score every element containing any of `terms` (subtree containment)
    /// with uniform weights, via the TermJoin access method. Results are
    /// sorted by descending score (ties in document order).
    pub fn term_join(&self, terms: &[&str]) -> Vec<ScoredNode> {
        self.term_join_with(terms, &SimpleScorer::uniform())
    }

    /// [`Database::term_join`] with a custom scorer.
    pub fn term_join_with<S: TermJoinScorer>(&self, terms: &[&str], scorer: &S) -> Vec<ScoredNode> {
        let mut out = term_join_parallel(&self.store, self.index(), terms, scorer, self.threads);
        out.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.node.cmp(&b.node))
        });
        out
    }

    /// Text nodes containing the exact phrase, with occurrence counts
    /// (PhraseFinder access method).
    pub fn find_phrase(&self, phrase_terms: &[&str]) -> Vec<ScoredNode> {
        sort_by_node(phrase_finder_parallel(
            &self.store,
            self.index(),
            phrase_terms,
            self.threads,
        ))
    }

    /// The classic end-to-end IR pipeline: scoring → stack-based Pick
    /// (parent/child redundancy elimination) → top-k. Returns at most `k`
    /// picked elements, best first. Terms are normalized with
    /// [`normalize_query`] first, so e.g. `" rust "` and `"rust"` are the
    /// same query.
    ///
    /// The physical evaluation is chosen by the **cost-based planner**
    /// ([`Database::plan`]): TermJoin, one of the Sec. 6 baselines, or the
    /// Threshold-pushdown scan. Every candidate returns byte-identical
    /// results, so the choice affects time only; [`Database::explain`]
    /// shows it, [`Database::search_with_plan`] overrides it.
    pub fn search(&self, terms: &[&str], pick: PickParams, k: usize) -> Vec<ScoredNode> {
        // Never cancelled, so always Some.
        self.search_cancellable(terms, pick, k, &|| false)
            .unwrap_or_default()
    }

    /// [`Database::search`] with cooperative cancellation: `cancelled` is
    /// consulted between the pipeline's operator stages (before TermJoin,
    /// between TermJoin and Pick, and between Pick and top-k) and the
    /// search returns `None` as soon as it reports `true`. This is the
    /// serving layer's deadline hook — an expired request stops paying for
    /// the remaining stages instead of computing a result nobody reads.
    pub fn search_cancellable(
        &self,
        terms: &[&str],
        pick: PickParams,
        k: usize,
        cancelled: &dyn Fn() -> bool,
    ) -> Option<Vec<ScoredNode>> {
        let normalized = normalize_query(terms);
        self.search_stages(&normalized, pick, k, cancelled)
    }

    /// The staged pipeline behind [`Database::search_cancellable`];
    /// `terms` must already be in [`normalize_query`] form.
    fn search_stages(
        &self,
        terms: &[String],
        pick: PickParams,
        k: usize,
        cancelled: &dyn Fn() -> bool,
    ) -> Option<Vec<ScoredNode>> {
        self.search_stages_threads(terms, pick, k, cancelled, self.threads)
    }

    fn search_stages_threads(
        &self,
        terms: &[String],
        pick: PickParams,
        k: usize,
        cancelled: &dyn Fn() -> bool,
        threads: usize,
    ) -> Option<Vec<ScoredNode>> {
        self.search_planned(terms, pick, k, None, cancelled, threads)
    }

    /// The logical plan behind every `search*` entry point.
    fn term_search(
        terms: &[String],
        pick: PickParams,
        k: usize,
        min_score: Option<f64>,
    ) -> LogicalPlan {
        LogicalPlan::TermSearch(TermSearch {
            terms: terms.to_vec(),
            scoring: Scoring::SimpleUniform,
            pick: Some(pick),
            k,
            min_score,
        })
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

    /// Plan and execute: the cost-based route every search takes.
    fn search_planned(
        &self,
        terms: &[String],
        pick: PickParams,
        k: usize,
        min_score: Option<f64>,
        cancelled: &dyn Fn() -> bool,
        threads: usize,
    ) -> Option<Vec<ScoredNode>> {
        let logical = Self::term_search(terms, pick, k, min_score);
        let stats = self.plan_stats();
        let inputs = stats.inputs(self.index(), terms);
        let choice = tix_query::choose(&logical, &inputs);
        let run = tix_query::execute(
            &self.store,
            self.index(),
            &logical,
            &choice.chosen.plan,
            threads,
            cancelled,
        )?;
        Some(run.results)
    }

    /// [`Database::search`] with a value threshold pushed into the
    /// pipeline: only nodes with `score > min_score` are returned (the
    /// dialect's `Threshold $v/@score > min stop after k`). With a low
    /// `k` or a high threshold the planner can choose the pushdown scan,
    /// which stops reading postings once the §4.2 score bound proves the
    /// tail irrelevant.
    pub fn search_filtered(
        &self,
        terms: &[&str],
        pick: PickParams,
        k: usize,
        min_score: Option<f64>,
        cancelled: &dyn Fn() -> bool,
    ) -> Option<Vec<ScoredNode>> {
        let normalized = normalize_query(terms);
        self.search_planned(&normalized, pick, k, min_score, cancelled, self.threads)
    }

    /// [`Database::search`] variant for the cluster's scatter-gather
    /// merge: the top `k` results **with ties** — every result whose
    /// score ties the k-th is included, so truncation never splits a tie
    /// — plus an *exclusive* upper bound on the scores it withheld
    /// (`None` when nothing was withheld).
    ///
    /// The bound is exactly the k-th score: all k-th-score ties are
    /// returned, so every hidden score is strictly below it. A
    /// coordinator merging per-shard responses proves its global top-k
    /// exact against these bounds with
    /// [`tix_invariants::try_scatter_merge_bound`]. `k == 0` is treated
    /// as `k == 1` (no finite exclusive bound covers "everything
    /// withheld").
    pub fn search_with_ties(
        &self,
        terms: &[&str],
        pick: PickParams,
        k: usize,
    ) -> (Vec<ScoredNode>, Option<f64>) {
        let k = k.max(1);
        let all = self.search(terms, pick, usize::MAX);
        if all.len() <= k {
            return (all, None);
        }
        let kth = all[k - 1].score;
        // Sorted descending, so `score >= kth` is a prefix.
        let cut = all.partition_point(|s| s.score >= kth);
        if cut >= all.len() {
            return (all, None);
        }
        let mut kept = all;
        kept.truncate(cut);
        (kept, Some(kth))
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
        let normalized = normalize_query(terms);
        let logical = Self::term_search(&normalized, pick, k, min_score);
        let stats = self.plan_stats();
        let inputs = stats.inputs(self.index(), &normalized);
        tix_query::choose(&logical, &inputs)
    }

    /// Run a search with an explicitly chosen physical plan, bypassing
    /// the cost model — the differential-testing and experimentation
    /// hook. Results are byte-identical to [`Database::search_filtered`]
    /// for **every** candidate plan (enforced by the plan-equivalence
    /// suite).
    pub fn search_with_plan(
        &self,
        terms: &[&str],
        pick: PickParams,
        k: usize,
        min_score: Option<f64>,
        plan: &PhysicalPlan,
        cancelled: &dyn Fn() -> bool,
    ) -> Option<Vec<ScoredNode>> {
        let normalized = normalize_query(terms);
        let logical = Self::term_search(&normalized, pick, k, min_score);
        let run = tix_query::execute(
            &self.store,
            self.index(),
            &logical,
            plan,
            self.threads,
            cancelled,
        )?;
        Some(run.results)
    }

    /// Render the EXPLAIN report for a search: the statistics the planner
    /// read, every candidate plan with its cost, and the chosen plan.
    pub fn explain(
        &self,
        terms: &[&str],
        pick: PickParams,
        k: usize,
        min_score: Option<f64>,
    ) -> String {
        let normalized = normalize_query(terms);
        let logical = Self::term_search(&normalized, pick, k, min_score);
        let stats = self.plan_stats();
        let inputs = stats.inputs(self.index(), &normalized);
        let choice = tix_query::choose(&logical, &inputs);
        tix_query::explain::render(&logical, &inputs, &choice, stats.df_histogram.as_ref())
    }

    /// Run [`Database::search`] for several queries, fanning the *queries*
    /// out over the configured threads (each individual search runs
    /// sequentially, so workers are never oversubscribed). Results are in
    /// query order and identical to calling `search` per query.
    ///
    /// Queries that are identical after [`normalize_query`] are
    /// deduplicated before dispatch — the search runs once and the result
    /// is fanned back out to every occurrence — so a batch of popular
    /// repeated queries costs one evaluation each.
    pub fn search_batch(
        &self,
        queries: &[Vec<&str>],
        pick: PickParams,
        k: usize,
    ) -> Vec<Vec<ScoredNode>> {
        let normalized: Vec<Vec<String>> = queries.iter().map(|q| normalize_query(q)).collect();
        // First occurrence index of each distinct normalized query, and
        // each query's slot in the deduplicated dispatch list.
        let mut first_of: std::collections::HashMap<&[String], usize> =
            std::collections::HashMap::new();
        let mut unique: Vec<&Vec<String>> = Vec::new();
        let mut slot_of: Vec<usize> = Vec::with_capacity(queries.len());
        for q in &normalized {
            let slot = *first_of.entry(q.as_slice()).or_insert_with(|| {
                unique.push(q);
                unique.len() - 1
            });
            slot_of.push(slot);
        }
        let unique_results: Vec<Vec<ScoredNode>> =
            tix_parallel::parallel_map(&unique, self.threads, |terms| {
                self.search_stages_threads(terms, pick, k, &|| false, 1)
                    .unwrap_or_default()
            });
        slot_of
            .into_iter()
            .map(|slot| unique_results.get(slot).cloned().unwrap_or_default())
            .collect()
    }
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
    fn thread_count_does_not_change_any_entry_point() {
        let mut db = multi_doc_db();
        db.set_threads(1);
        db.build_index();
        let term_join = db.term_join(&["rust", "xml"]);
        let phrase = db.find_phrase(&["rust", "xml"]);
        let pick = PickParams {
            relevance_threshold: 1.0,
            fraction: 0.5,
        };
        let search = db.search(&["rust"], pick, 10);
        for threads in [2, 8] {
            db.set_threads(threads);
            db.build_index();
            assert_eq!(
                db.term_join(&["rust", "xml"]),
                term_join,
                "{threads} threads"
            );
            assert_eq!(
                db.find_phrase(&["rust", "xml"]),
                phrase,
                "{threads} threads"
            );
            assert_eq!(db.search(&["rust"], pick, 10), search, "{threads} threads");
        }
    }

    #[test]
    fn search_batch_matches_individual_searches() {
        let mut db = multi_doc_db();
        let pick = PickParams {
            relevance_threshold: 1.0,
            fraction: 0.5,
        };
        let queries: Vec<Vec<&str>> = vec![
            vec!["rust"],
            vec!["xml", "database"],
            vec!["nosuchterm"],
            vec!["rust", "xml"],
        ];
        for threads in [1, 2, 8] {
            db.set_threads(threads);
            let batch = db.search_batch(&queries, pick, 5);
            assert_eq!(batch.len(), queries.len());
            for (terms, result) in queries.iter().zip(&batch) {
                assert_eq!(
                    result,
                    &db.search(terms, pick, 5),
                    "{terms:?} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn set_threads_clamps_zero_to_one() {
        let mut db = Database::new();
        db.set_threads(0);
        assert_eq!(db.threads(), 1);
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
    fn search_cancellable_stops_between_stages() {
        let db = db();
        let pick = PickParams {
            relevance_threshold: 1.0,
            fraction: 0.5,
        };
        assert!(db
            .search_cancellable(&["rust"], pick, 5, &|| true)
            .is_none());
        let full = db.search_cancellable(&["rust"], pick, 5, &|| false);
        assert_eq!(full, Some(db.search(&["rust"], pick, 5)));
        // Cancel only after the first checkpoint has passed: flip on the
        // second poll.
        let polls = std::cell::Cell::new(0u32);
        let late = db.search_cancellable(&["rust"], pick, 5, &|| {
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

    #[test]
    fn search_with_ties_never_splits_a_tie_and_bounds_the_rest() {
        let db = multi_doc_db();
        let pick = PickParams {
            relevance_threshold: 1.0,
            fraction: 0.5,
        };
        let all = db.search(&["rust"], pick, usize::MAX);
        assert!(all.len() >= 3, "need a multi-result corpus");
        for k in 1..=all.len() + 1 {
            let (kept, bound) = db.search_with_ties(&["rust"], pick, k);
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
        assert_eq!(
            db.search_with_ties(&["rust"], pick, 0),
            db.search_with_ties(&["rust"], pick, 1)
        );
    }

    #[test]
    fn every_candidate_plan_matches_the_planner_choice() {
        let db = multi_doc_db();
        let pick = PickParams {
            relevance_threshold: 1.0,
            fraction: 0.5,
        };
        for (k, min) in [(3, None), (100, Some(1.5)), (1, Some(0.0))] {
            let chosen = db
                .search_filtered(&["rust", "xml"], pick, k, min, &|| false)
                .unwrap();
            let choice = db.plan(&["rust", "xml"], pick, k, min);
            assert!(choice
                .candidates
                .iter()
                .any(|c| c.plan == choice.chosen.plan));
            for c in &choice.candidates {
                let forced = db
                    .search_with_plan(&["rust", "xml"], pick, k, min, &c.plan, &|| false)
                    .unwrap();
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
        let text = db.explain(&["rust"], pick, 5, None);
        assert!(text.contains("term-search"));
        assert!(text.contains("documents=7"));
        assert!(text.contains("term \"rust\""));
        assert!(text.contains("dictionary df:"));
        assert!(text.contains("chosen: "));
        // Deterministic rendering.
        assert_eq!(text, db.explain(&["rust"], pick, 5, None));
    }

    #[test]
    fn plan_stats_cache_tracks_generation() {
        let mut db = db();
        let pick = PickParams {
            relevance_threshold: 1.0,
            fraction: 0.5,
        };
        let before = db.explain(&["rust"], pick, 5, None);
        db.insert_document("extra.xml", "<a><p>rust rust rust</p></a>")
            .unwrap();
        let after = db.explain(&["rust"], pick, 5, None);
        assert_ne!(before, after, "stats must refresh after a mutation");
        assert!(after.contains("documents=2"));
    }

    #[test]
    fn search_batch_dedupes_identical_queries() {
        let db = multi_doc_db();
        let pick = PickParams {
            relevance_threshold: 1.0,
            fraction: 0.5,
        };
        // Duplicates both literal and up-to-normalization.
        let queries: Vec<Vec<&str>> = vec![
            vec!["rust"],
            vec![" rust "],
            vec!["rust", "xml"],
            vec!["rust"],
            vec!["xml", "rust"],
        ];
        let batch = db.search_batch(&queries, pick, 5);
        assert_eq!(batch.len(), queries.len());
        for (terms, result) in queries.iter().zip(&batch) {
            assert_eq!(result, &db.search(terms, pick, 5), "{terms:?}");
        }
        // Fanned-out duplicates are identical, not merely equivalent.
        assert_eq!(batch[0], batch[1]);
        assert_eq!(batch[0], batch[3]);
    }
}
