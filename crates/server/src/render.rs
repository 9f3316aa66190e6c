//! Canonical JSON rendering of query results.
//!
//! These functions are `pub` on purpose: the end-to-end tests call them on
//! results obtained from `Database::search` *directly* and assert that the
//! bytes served over HTTP are identical — the server adds no rendering
//! drift of its own.

use tix::exec::pick::PickParams;
use tix::exec::scored::ScoredNode;
use tix::query::ResultItem;
use tix::store::{NodeRef, Store};
use tix::SearchResponse;

/// Longest text snippet included per result, in characters.
pub const SNIPPET_CHARS: usize = 120;

/// Escape `s` as a JSON string literal (with quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render an `f64` score. Rust's shortest-roundtrip float formatting is
/// deterministic, so equal scores always render to equal bytes.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no NaN/Infinity; scores are finite by the Threshold
        // §4.2 invariant, but render defensively rather than emit invalid
        // JSON.
        "null".to_string()
    }
}

fn json_str_array(items: &[String]) -> String {
    let parts: Vec<String> = items.iter().map(|t| json_string(t)).collect();
    format!("[{}]", parts.join(","))
}

/// A node's rendered id, `d<doc>#<node>`, with the document's dense id
/// (see [`Store::dense_id`]): the same bytes whatever the delete history.
fn node_id(store: &Store, node: NodeRef) -> String {
    NodeRef::new(store.dense_id(node.doc), node.node).to_string()
}

/// A node's tag as JSON (`null` for a text node).
fn tag(store: &Store, node: NodeRef) -> String {
    store
        .tag_name(node)
        .map(json_string)
        .unwrap_or_else(|| "null".to_string())
}

/// The first [`SNIPPET_CHARS`] characters of a node's text, as JSON.
fn snippet(store: &Store, node: NodeRef) -> String {
    let text: String = store
        .text_content(node)
        .chars()
        .take(SNIPPET_CHARS)
        .collect();
    json_string(&text)
}

/// One scored element as a JSON object.
fn scored_node(store: &Store, s: &ScoredNode) -> String {
    format!(
        "{{\"doc\":{},\"node\":{},\"tag\":{},\"score\":{},\"text\":{}}}",
        json_string(store.doc(s.node.doc).name()),
        json_string(&node_id(store, s.node)),
        tag(store, s.node),
        json_f64(s.score),
        snippet(store, s.node)
    )
}

fn scored_nodes(store: &Store, results: &[ScoredNode]) -> String {
    let parts: Vec<String> = results.iter().map(|s| scored_node(store, s)).collect();
    format!("[{}]", parts.join(","))
}

/// The `/search` response body.
pub fn search_body(
    store: &Store,
    terms: &[String],
    pick: PickParams,
    k: usize,
    results: &[ScoredNode],
) -> String {
    format!(
        "{{\"query\":{},\"k\":{},\"threshold\":{},\"fraction\":{},\"count\":{},\"results\":{}}}",
        json_str_array(terms),
        k,
        json_f64(pick.relevance_threshold),
        json_f64(pick.fraction),
        results.len(),
        scored_nodes(store, results)
    )
}

/// The `/phrase` response body. `matches` are PhraseFinder hits whose
/// score is the occurrence count.
pub fn phrase_body(store: &Store, terms: &[String], matches: &[ScoredNode]) -> String {
    let parts: Vec<String> = matches
        .iter()
        .map(|m| {
            format!(
                "{{\"doc\":{},\"node\":{},\"occurrences\":{}}}",
                json_string(store.doc(m.node.doc).name()),
                json_string(&node_id(store, m.node)),
                // Occurrence counts are small exact integers stored in the
                // score field.
                json_f64(m.score)
            )
        })
        .collect();
    format!(
        "{{\"phrase\":{},\"count\":{},\"matches\":[{}]}}",
        json_str_array(terms),
        matches.len(),
        parts.join(",")
    )
}

/// The `/cluster/search` response body: the shard's top-k with ties and
/// the exclusive bound on what it withheld, every score as raw `f64`
/// bits, and results addressed by document *name* + node index (both
/// shard-layout-independent, unlike `DocId`).
pub(crate) fn cluster_search_body(
    store: &Store,
    generation: u64,
    applied_lsn: u64,
    answer: &SearchResponse,
) -> String {
    let items: Vec<String> = answer
        .results
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":{},\"node_idx\":{},\"score_bits\":{},\"tag\":{},\"text\":{}}}",
                json_string(store.doc(s.node.doc).name()),
                s.node.node.0,
                s.score.to_bits(),
                tag(store, s.node),
                snippet(store, s.node)
            )
        })
        .collect();
    let bound_bits = answer
        .withheld_bound
        .map_or("null".to_string(), |b| b.to_bits().to_string());
    format!(
        "{{\"generation\":{generation},\"applied_lsn\":{applied_lsn},\"count\":{},\"bound_bits\":{bound_bits},\"results\":[{}]}}",
        items.len(),
        items.join(",")
    )
}

/// The `/cluster/phrase` response body: every match (phrase results are
/// not top-k), occurrence counts as raw score bits, addressed by name +
/// node index.
pub(crate) fn cluster_phrase_body(
    store: &Store,
    generation: u64,
    applied_lsn: u64,
    matches: &[ScoredNode],
) -> String {
    let items: Vec<String> = matches
        .iter()
        .map(|m| {
            format!(
                "{{\"name\":{},\"node_idx\":{},\"occ_bits\":{}}}",
                json_string(store.doc(m.node.doc).name()),
                m.node.node.0,
                m.score.to_bits()
            )
        })
        .collect();
    format!(
        "{{\"generation\":{generation},\"applied_lsn\":{applied_lsn},\"count\":{},\"results\":[{}]}}",
        items.len(),
        items.join(",")
    )
}

/// The `/query` (extended-XQuery dialect) response body.
pub fn query_body(items: &[ResultItem]) -> String {
    let parts: Vec<String> = items
        .iter()
        .map(|item| {
            format!(
                "{{\"tag\":{},\"score\":{},\"xml\":{}}}",
                item.tag
                    .as_deref()
                    .map(json_string)
                    .unwrap_or_else(|| "null".to_string()),
                item.score
                    .map(json_f64)
                    .unwrap_or_else(|| "null".to_string()),
                json_string(&item.xml)
            )
        })
        .collect();
    format!(
        "{{\"count\":{},\"results\":[{}]}}",
        items.len(),
        parts.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tix::Database;

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn search_body_is_deterministic_json() {
        let mut db = Database::new();
        db.load("a.xml", "<a><p>rust xml db</p></a>").unwrap();
        db.build_index();
        let pick = PickParams {
            relevance_threshold: 0.5,
            fraction: 0.5,
        };
        let results = db.search(&["rust"], pick, 5);
        let terms = vec!["rust".to_string()];
        let body = search_body(db.store(), &terms, pick, 5, &results);
        assert_eq!(body, search_body(db.store(), &terms, pick, 5, &results));
        assert!(body.starts_with("{\"query\":[\"rust\"],"), "{body}");
        assert!(body.contains("\"count\":"), "{body}");
        assert!(body.contains("\"doc\":\"a.xml\""), "{body}");
    }

    #[test]
    fn nonfinite_scores_render_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }
}
