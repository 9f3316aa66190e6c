//! Scatter-gather merging with the §4.2 bound as the correctness
//! predicate.
//!
//! Each shard answers `/cluster/search` with its **top-k including
//! ties** plus an *exclusive* upper bound on every score it withheld
//! (`bound_bits`, absent when nothing was withheld). Merging is then
//! provably exact: the global top-k can contain at most `k` hits from
//! any one shard, every candidate tied with a shard's k-th is present
//! (ties are never split), and the §4.2 condition — global k-th score ≥
//! every truncated shard's bound — certifies that no withheld hit could
//! have displaced a kept one. The condition is asserted through
//! [`tix_invariants::assert_scatter_merge_bound`] under
//! `check-invariants` on every merge the coordinator performs.
//!
//! Hits are addressed by **document name + node index**, never by
//! `DocId`: ids are an artifact of per-shard load order and differ
//! between a sharded layout and a single node over the union corpus,
//! while `(name, node_idx)` identifies the same element in both.
//! Scores travel as raw `f64` bits (`score_bits`), so the merged body is
//! byte-identical to what a single node over the union corpus produces
//! — the property the differential suite checks.
//!
//! Canonical order (total, layout-independent):
//! score descending (`f64::total_cmp`), then name ascending, then node
//! index ascending.

use std::cmp::Ordering;

use tix::exec::pick::PickParams;
use tix::Database;
use tix_server::render;

use crate::json::Json;

/// One merged search hit, addressed by `(name, node_idx)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// Document name (unique across the cluster — the router's key).
    pub name: String,
    /// Node index within the document (parse-order stable).
    pub node_idx: u32,
    /// The score's raw `f64` bits — exact across the wire.
    pub score_bits: u64,
    /// Element tag name, if the node is an element.
    pub tag: Option<String>,
    /// Text snippet (first [`render::SNIPPET_CHARS`] chars).
    pub text: String,
}

impl Hit {
    /// The score as a float.
    pub fn score(&self) -> f64 {
        f64::from_bits(self.score_bits)
    }
}

/// One merged phrase match.
#[derive(Debug, Clone, PartialEq)]
pub struct PhraseHit {
    /// Document name.
    pub name: String,
    /// Node index within the document.
    pub node_idx: u32,
    /// Occurrence count as raw `f64` bits.
    pub occ_bits: u64,
}

impl PhraseHit {
    /// The occurrence count as a float.
    pub fn occurrences(&self) -> f64 {
        f64::from_bits(self.occ_bits)
    }
}

/// A parsed per-shard `/cluster/search` response.
#[derive(Debug, Clone)]
pub struct ShardSearch {
    /// LSN the shard had applied when it answered.
    pub applied_lsn: u64,
    /// Exclusive bound on withheld scores (absent: nothing withheld).
    pub bound_bits: Option<u64>,
    /// The shard's top-k-with-ties.
    pub hits: Vec<Hit>,
}

/// A parsed per-shard `/cluster/phrase` response.
#[derive(Debug, Clone)]
pub struct ShardPhrase {
    /// LSN the shard had applied when it answered.
    pub applied_lsn: u64,
    /// Every phrase match on the shard.
    pub hits: Vec<PhraseHit>,
}

/// Parse a shard's `/cluster/search` body. `None` on any shape mismatch
/// (the coordinator treats that shard attempt as failed).
pub fn parse_shard_search(body: &str) -> Option<ShardSearch> {
    let doc = Json::parse(body).ok()?;
    let applied_lsn = doc.get("applied_lsn")?.u64()?;
    let bound_bits = match doc.get("bound_bits")? {
        Json::Null => None,
        other => Some(other.u64()?),
    };
    let mut hits = Vec::new();
    for item in doc.get("results")?.items() {
        hits.push(Hit {
            name: item.get("name")?.str()?.to_string(),
            node_idx: u32::try_from(item.get("node_idx")?.u64()?).ok()?,
            score_bits: item.get("score_bits")?.u64()?,
            tag: match item.get("tag")? {
                Json::Null => None,
                other => Some(other.str()?.to_string()),
            },
            text: item.get("text")?.str()?.to_string(),
        });
    }
    Some(ShardSearch {
        applied_lsn,
        bound_bits,
        hits,
    })
}

/// Parse a shard's `/cluster/phrase` body.
pub fn parse_shard_phrase(body: &str) -> Option<ShardPhrase> {
    let doc = Json::parse(body).ok()?;
    let applied_lsn = doc.get("applied_lsn")?.u64()?;
    let mut hits = Vec::new();
    for item in doc.get("results")?.items() {
        hits.push(PhraseHit {
            name: item.get("name")?.str()?.to_string(),
            node_idx: u32::try_from(item.get("node_idx")?.u64()?).ok()?,
            occ_bits: item.get("occ_bits")?.u64()?,
        });
    }
    Some(ShardPhrase { applied_lsn, hits })
}

/// The canonical hit order: score descending (total order over `f64`),
/// then document name, then node index.
pub fn canonical_cmp(a: &Hit, b: &Hit) -> Ordering {
    b.score()
        .total_cmp(&a.score())
        .then_with(|| a.name.cmp(&b.name))
        .then_with(|| a.node_idx.cmp(&b.node_idx))
}

fn canonical_phrase_cmp(a: &PhraseHit, b: &PhraseHit) -> Ordering {
    b.occurrences()
        .total_cmp(&a.occurrences())
        .then_with(|| a.name.cmp(&b.name))
        .then_with(|| a.node_idx.cmp(&b.node_idx))
}

/// Merge per-shard top-k-with-ties responses into the global top-k in
/// canonical order, verifying the §4.2 merge-bound condition (under
/// `check-invariants`): the global k-th kept score must be ≥ every
/// truncated shard's exclusive bound, which proves no withheld score
/// could enter the top-k.
pub fn merge_search(shards: &[ShardSearch], k: usize) -> Vec<Hit> {
    let k = k.max(1);
    let mut all: Vec<Hit> = shards.iter().flat_map(|s| s.hits.iter().cloned()).collect();
    all.sort_by(canonical_cmp);
    all.truncate(k);
    tix_invariants::check! {
        if all.len() == k {
            if let Some(kth) = all.last() {
                tix_invariants::assert_scatter_merge_bound(
                    kth.score(),
                    shards
                        .iter()
                        .map(|s| s.bound_bits.map(f64::from_bits)),
                );
            }
        }
        // Fewer than k kept globally: no shard may have truncated (a
        // shard only truncates past k local hits, all of which merged).
        if all.len() < k {
            tix_invariants::assert_scatter_merge_bound(
                f64::INFINITY,
                shards.iter().map(|s| s.bound_bits.map(f64::from_bits)),
            );
        }
    }
    all
}

/// Merge per-shard phrase responses: phrase results are exhaustive per
/// shard (no truncation, no bound), so the merge is a union in
/// canonical order.
pub fn merge_phrase(shards: &[ShardPhrase]) -> Vec<PhraseHit> {
    let mut all: Vec<PhraseHit> = shards.iter().flat_map(|s| s.hits.iter().cloned()).collect();
    all.sort_by(canonical_phrase_cmp);
    all
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Render the coordinator's `/search` body from merged hits. The same
/// renderer backs [`expected_search_body`], so "coordinator output is
/// byte-identical to a single node over the union corpus" is checked at
/// the bytes level by the differential suite.
pub fn render_search_body(k: usize, hits: &[Hit]) -> String {
    let items: Vec<String> = hits
        .iter()
        .map(|h| {
            format!(
                "{{\"name\":{},\"node_idx\":{},\"score\":{},\"score_bits\":{},\"tag\":{},\"text\":{}}}",
                render::json_string(&h.name),
                h.node_idx,
                json_f64(h.score()),
                h.score_bits,
                h.tag
                    .as_deref()
                    .map(render::json_string)
                    .unwrap_or_else(|| "null".to_string()),
                render::json_string(&h.text)
            )
        })
        .collect();
    format!(
        "{{\"k\":{k},\"count\":{},\"results\":[{}]}}",
        hits.len(),
        items.join(",")
    )
}

/// Render the coordinator's `/phrase` body from merged matches.
pub fn render_phrase_body(hits: &[PhraseHit]) -> String {
    let items: Vec<String> = hits
        .iter()
        .map(|h| {
            format!(
                "{{\"name\":{},\"node_idx\":{},\"occurrences\":{},\"occ_bits\":{}}}",
                render::json_string(&h.name),
                h.node_idx,
                json_f64(h.occurrences()),
                h.occ_bits
            )
        })
        .collect();
    format!(
        "{{\"count\":{},\"results\":[{}]}}",
        hits.len(),
        items.join(",")
    )
}

/// Convert one of a database's scored nodes into a [`Hit`] — shared by
/// the expected-body helpers and tests.
fn hit_of(db: &Database, s: &tix::exec::ScoredNode) -> Hit {
    let store = db.store();
    Hit {
        name: store.doc(s.node.doc).name().to_string(),
        node_idx: s.node.node.0,
        score_bits: s.score.to_bits(),
        tag: store.tag_name(s.node).map(str::to_string),
        text: store
            .text_content(s.node)
            .chars()
            .take(render::SNIPPET_CHARS)
            .collect(),
    }
}

/// The body a coordinator **must** produce for `/search` over a corpus,
/// computed from a single-node [`Database`] holding the union of every
/// shard. The full ranking is re-sorted into canonical order before
/// truncation, so the expectation is independent of load order.
pub fn expected_search_body(db: &Database, terms: &[&str], pick: PickParams, k: usize) -> String {
    expected_search_body_above(db, terms, pick, k, None)
}

/// [`expected_search_body`] for `/search?min_score=…`: only hits scoring
/// above `min_score` count.
pub fn expected_search_body_above(
    db: &Database,
    terms: &[&str],
    pick: PickParams,
    k: usize,
    min_score: Option<f64>,
) -> String {
    let k = k.max(1);
    let all = db
        .search_filtered(terms, pick, usize::MAX, min_score, &|| false)
        .unwrap_or_default();
    let mut hits: Vec<Hit> = all.iter().map(|s| hit_of(db, s)).collect();
    hits.sort_by(canonical_cmp);
    hits.truncate(k);
    render_search_body(k, &hits)
}

/// The body a coordinator must produce for `/phrase` over a corpus,
/// from a single-node union database.
pub fn expected_phrase_body(db: &Database, terms: &[&str]) -> String {
    let matches = db.find_phrase(terms);
    let mut hits: Vec<PhraseHit> = matches
        .iter()
        .map(|m| PhraseHit {
            name: db.store().doc(m.node.doc).name().to_string(),
            node_idx: m.node.node.0,
            occ_bits: m.score.to_bits(),
        })
        .collect();
    hits.sort_by(canonical_phrase_cmp);
    render_phrase_body(&hits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(name: &str, node_idx: u32, score: f64) -> Hit {
        Hit {
            name: name.to_string(),
            node_idx,
            score_bits: score.to_bits(),
            tag: Some("p".to_string()),
            text: "t".to_string(),
        }
    }

    fn shard(bound: Option<f64>, hits: Vec<Hit>) -> ShardSearch {
        ShardSearch {
            applied_lsn: 0,
            bound_bits: bound.map(f64::to_bits),
            hits,
        }
    }

    #[test]
    fn merge_is_canonical_and_respects_k() {
        let merged = merge_search(
            &[
                shard(Some(1.0), vec![hit("b", 1, 3.0), hit("a", 2, 2.0)]),
                shard(None, vec![hit("a", 1, 3.0), hit("c", 7, 1.5)]),
            ],
            3,
        );
        // Ties on 3.0 break by name; k truncates the rest.
        assert_eq!(
            merged
                .iter()
                .map(|h| (h.name.as_str(), h.node_idx))
                .collect::<Vec<_>>(),
            vec![("a", 1), ("b", 1), ("a", 2)]
        );
    }

    #[test]
    fn bound_equality_is_exact() {
        // Global 3rd score == a truncated shard's bound: allowed (bounds
        // are exclusive on the withheld side).
        let merged = merge_search(
            &[
                shard(Some(2.0), vec![hit("a", 1, 4.0), hit("a", 2, 2.0)]),
                shard(None, vec![hit("b", 1, 2.0)]),
            ],
            3,
        );
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.last().unwrap().score(), 2.0);
    }

    #[test]
    #[should_panic(expected = "scatter-merge-bound")]
    fn violated_bound_panics_under_checks() {
        if !tix_invariants::ACTIVE {
            panic!("scatter-merge-bound (checks compiled out; satisfy the harness)");
        }
        // The shard claims it withheld scores up to 5.0 — above the
        // global 1st (3.0): the merge cannot be exact.
        merge_search(&[shard(Some(5.0), vec![hit("a", 1, 3.0)])], 1);
    }

    #[test]
    fn shard_body_parses_back() {
        let body = "{\"generation\":3,\"applied_lsn\":9,\"count\":1,\"bound_bits\":null,\"results\":[{\"name\":\"d.xml\",\"node_idx\":4,\"score_bits\":4611686018427387904,\"tag\":null,\"text\":\"snippet\"}]}";
        let parsed = parse_shard_search(body).unwrap();
        assert_eq!(parsed.applied_lsn, 9);
        assert_eq!(parsed.bound_bits, None);
        assert_eq!(parsed.hits.len(), 1);
        assert_eq!(parsed.hits[0].score(), 2.0);
        assert_eq!(parsed.hits[0].tag, None);
        assert!(parse_shard_search("{\"nope\":1}").is_none());
    }

    #[test]
    fn phrase_merge_orders_by_occurrences_then_name() {
        let a = ShardPhrase {
            applied_lsn: 0,
            hits: vec![PhraseHit {
                name: "b".into(),
                node_idx: 0,
                occ_bits: 1f64.to_bits(),
            }],
        };
        let b = ShardPhrase {
            applied_lsn: 0,
            hits: vec![
                PhraseHit {
                    name: "a".into(),
                    node_idx: 3,
                    occ_bits: 2f64.to_bits(),
                },
                PhraseHit {
                    name: "a".into(),
                    node_idx: 1,
                    occ_bits: 1f64.to_bits(),
                },
            ],
        };
        let merged = merge_phrase(&[a, b]);
        assert_eq!(
            merged
                .iter()
                .map(|h| (h.name.as_str(), h.node_idx))
                .collect::<Vec<_>>(),
            vec![("a", 3), ("a", 1), ("b", 0)]
        );
    }

    #[test]
    fn expected_body_matches_hand_merge() {
        let mut db = Database::new();
        db.load("a.xml", "<a><p>rust xml</p><p>rust</p></a>")
            .unwrap();
        db.load("b.xml", "<b><p>rust database</p></b>").unwrap();
        db.build_index();
        let pick = PickParams::paper();
        let body = expected_search_body(&db, &["rust"], pick, 2);
        let parsed = Json::parse(&body).unwrap();
        assert_eq!(parsed.get("k").unwrap().u64(), Some(2));
        assert_eq!(
            parsed.get("count").unwrap().u64().unwrap() as usize,
            parsed.get("results").unwrap().items().len()
        );
    }
}
