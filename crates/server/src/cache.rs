//! The normalized-query LRU result cache.
//!
//! Entries are keyed on the **normalized** term list (see
//! [`tix::normalize_query`]), the Pick parameters and `k`, the endpoint
//! kind, and — crucially — the database **generation**. `build_index` /
//! `load` bump the generation, so every entry cached against the old store
//! is unreachable the instant a reload lands: invalidation is by key, not
//! by scanning. The [`tix_invariants::try_cache_coherent`] check at the
//! lookup boundary asserts exactly that property.

use std::collections::HashMap;

use tix::{ReadKind, SearchRequest};

/// Which endpoint produced the cached body (identical term lists for
/// different endpoints must not collide).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// `/search` — TermJoin → Pick → top-k.
    Search,
    /// `/phrase` — PhraseFinder.
    Phrase,
}

/// The full cache key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryKey {
    /// Endpoint kind.
    pub kind: QueryKind,
    /// Normalized query terms, order-preserving.
    pub terms: Vec<String>,
    /// `PickParams::relevance_threshold`, bit-exact.
    pub threshold_bits: u64,
    /// `PickParams::fraction`, bit-exact.
    pub fraction_bits: u64,
    /// The value threshold (`min_score`), bit-exact; `u64::MAX` when the
    /// request had none. The sentinel is distinct from `0.0f64.to_bits()`,
    /// so "no filter" and "filter at 0" — which differ, the filter is
    /// strict — can never share an entry.
    pub min_score_bits: u64,
    /// Result budget.
    pub k: usize,
    /// Top-k with ties (see [`SearchRequest::ties`]).
    pub ties: bool,
    /// Database generation the result was computed at.
    pub generation: u64,
}

impl QueryKey {
    /// The key of `request`'s result at `generation`: every field of the
    /// request, floats bit-exact. A phrase read has no Pick stage, so its
    /// Pick fields are 0.
    pub(crate) fn of(request: &SearchRequest, generation: u64) -> Self {
        let (kind, threshold_bits, fraction_bits) = match request.kind {
            ReadKind::Terms { pick } => (
                QueryKind::Search,
                pick.relevance_threshold.to_bits(),
                pick.fraction.to_bits(),
            ),
            ReadKind::Phrase => (QueryKind::Phrase, 0, 0),
        };
        QueryKey {
            kind,
            terms: request.terms().to_vec(),
            threshold_bits,
            fraction_bits,
            min_score_bits: request.min_score.map_or(u64::MAX, f64::to_bits),
            k: request.k,
            ties: request.ties,
            generation,
        }
    }
}

/// A cached rendered response body plus the generation it was computed at
/// (redundant with the key; kept so the coherence invariant can compare
/// entry against serve-time state explicitly).
#[derive(Debug, Clone)]
struct Entry {
    generation: u64,
    body: String,
    last_used: u64,
}

/// A fixed-capacity LRU map from [`QueryKey`] to rendered response body.
/// Not thread-safe by itself — the server wraps it in a `Mutex`.
#[derive(Debug)]
pub struct ResultCache {
    entries: HashMap<QueryKey, Entry>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl ResultCache {
    /// An empty cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        ResultCache {
            entries: HashMap::with_capacity(capacity),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Look up a rendered body. `current_generation` is the database
    /// generation at serve time; the coherence invariant asserts that any
    /// hit was computed at exactly that generation.
    pub fn get(&mut self, key: &QueryKey, current_generation: u64) -> Option<String> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(key) {
            Some(entry) => {
                tix_invariants::check! {
                    tix_invariants::assert_cache_coherent(entry.generation, current_generation);
                }
                debug_assert_eq!(entry.generation, current_generation);
                entry.last_used = tick;
                self.hits += 1;
                Some(entry.body.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a rendered body, evicting the least-recently-used entry when
    /// at capacity. Stale-generation entries are preferred for eviction —
    /// they can never hit again.
    pub fn insert(&mut self, key: QueryKey, body: String) {
        self.tick += 1;
        let generation = key.generation;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(k, e)| (k.generation == generation, e.last_used))
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(
            key,
            Entry {
                generation,
                body,
                last_used: self.tick,
            },
        );
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(terms: &[&str], generation: u64) -> QueryKey {
        QueryKey {
            kind: QueryKind::Search,
            terms: terms.iter().map(|t| t.to_string()).collect(),
            threshold_bits: 0.5f64.to_bits(),
            fraction_bits: 0.5f64.to_bits(),
            min_score_bits: u64::MAX,
            k: 10,
            ties: false,
            generation,
        }
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let mut c = ResultCache::new(8);
        assert_eq!(c.get(&key(&["rust"], 1), 1), None);
        c.insert(key(&["rust"], 1), "body".into());
        assert_eq!(c.get(&key(&["rust"], 1), 1), Some("body".into()));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn generation_bump_invalidates() {
        let mut c = ResultCache::new(8);
        c.insert(key(&["rust"], 1), "old".into());
        // After a rebuild the server looks up with the new generation in
        // the key — the old entry can never match.
        assert_eq!(c.get(&key(&["rust"], 2), 2), None);
        c.insert(key(&["rust"], 2), "new".into());
        assert_eq!(c.get(&key(&["rust"], 2), 2), Some("new".into()));
    }

    #[test]
    fn distinct_params_do_not_collide() {
        let mut c = ResultCache::new(8);
        c.insert(key(&["rust"], 1), "a".into());
        let mut other = key(&["rust"], 1);
        other.k = 20;
        assert_eq!(c.get(&other, 1), None);
        let mut phrase = key(&["rust"], 1);
        phrase.kind = QueryKind::Phrase;
        assert_eq!(c.get(&phrase, 1), None);
    }

    #[test]
    fn min_score_is_part_of_the_key() {
        // Regression: a cached unfiltered result must never be served for
        // a request carrying a min_score filter — and "no filter" must be
        // distinct from "filter at 0.0" (the filter is strict).
        let mut c = ResultCache::new(8);
        c.insert(key(&["rust"], 1), "unfiltered".into());
        let mut filtered = key(&["rust"], 1);
        filtered.min_score_bits = 2.5f64.to_bits();
        assert_eq!(c.get(&filtered, 1), None);
        let mut zero = key(&["rust"], 1);
        zero.min_score_bits = 0.0f64.to_bits();
        assert_eq!(c.get(&zero, 1), None);
        c.insert(filtered.clone(), "filtered".into());
        assert_eq!(c.get(&filtered, 1), Some("filtered".into()));
        assert_eq!(c.get(&key(&["rust"], 1), 1), Some("unfiltered".into()));
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut c = ResultCache::new(2);
        c.insert(key(&["a"], 1), "a".into());
        c.insert(key(&["b"], 1), "b".into());
        // Touch "a" so "b" is the LRU victim.
        assert!(c.get(&key(&["a"], 1), 1).is_some());
        c.insert(key(&["c"], 1), "c".into());
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(&["a"], 1), 1).is_some());
        assert_eq!(c.get(&key(&["b"], 1), 1), None);
        assert!(c.get(&key(&["c"], 1), 1).is_some());
    }

    #[test]
    fn stale_generation_evicted_first() {
        let mut c = ResultCache::new(2);
        c.insert(key(&["a"], 1), "a".into());
        c.insert(key(&["b"], 2), "b".into());
        // "a" is stale at generation 2; despite "b" being older by LRU
        // order after the touch below, "a" goes first.
        assert!(c.get(&key(&["a"], 1), 1).is_some());
        c.insert(key(&["c"], 2), "c".into());
        assert_eq!(c.get(&key(&["a"], 1), 1), None);
        assert!(c.get(&key(&["b"], 2), 2).is_some());
    }

    #[test]
    fn capacity_minimum_is_one() {
        let mut c = ResultCache::new(0);
        c.insert(key(&["a"], 1), "a".into());
        c.insert(key(&["b"], 1), "b".into());
        assert_eq!(c.len(), 1);
    }
}
