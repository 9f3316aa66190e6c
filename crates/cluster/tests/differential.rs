//! Differential property test for scatter-gather correctness: after ANY
//! randomized interleaving of inserts, deletes, and forced checkpoints
//! applied through the coordinator, `/search` (with and without
//! `min_score`, and with Pick's parameters at and off their defaults)
//! and `/phrase` responses
//! must be **byte-identical** — score bits included — to the canonical
//! body computed from a single-node database holding the union corpus,
//! for every shard count in {1, 2, 4}.
//!
//! This exercises the whole pipeline: deterministic routing, per-shard
//! WAL + checkpoint ingest, top-k-with-ties + §4.2 bounds on the shard
//! side, bit-exact score transport, and the coordinator's canonical
//! merge (which asserts the merge bound under `check-invariants`).

use std::collections::BTreeMap;

use proptest::prelude::*;
use tix::exec::pick::PickParams;
use tix::Database;
use tix_cluster::{local::scratch_dir, merge, LocalCluster};

// Names chosen to spread over shards: under the CRC-32 router these
// cover both shards at 2 shards and all four at 4.
const NAMES: [&str; 6] = ["a0.xml", "a8.xml", "b0.xml", "b8.xml", "c0.xml", "c8.xml"];
const DOCS: [&str; 5] = [
    "<d><s><p>alpha beta gamma</p></s></d>",
    "<d><p>beta beta delta</p><p>alpha</p></d>",
    "<d><s><p>gamma</p><p>epsilon alpha</p></s></d>",
    "<d><p>zeta alpha beta</p><p>alpha beta</p></d>",
    "<d><s><p>beta gamma epsilon</p></s><p>alpha beta</p></d>",
];

/// (kind, name index, doc index): kind selects insert / remove /
/// checkpoint with the same 5/4/1 weighting as the ingest differential.
type Op = (u8, u8, u8);

/// The queries whose coordinator responses are compared byte-for-byte:
/// `(terms, k, Pick's threshold and fraction)`, the last sent only when
/// set. `k` spans "asks for nothing", "truncates hard", "tie-heavy",
/// and "returns everything". Pick decides within one document, so a
/// non-default threshold or fraction changes the answer the same way on
/// any shard count.
const SEARCHES: [(&str, usize, Option<PickParams>); 7] = [
    ("alpha", 0, None),
    ("alpha", 1, None),
    ("alpha", 3, None),
    ("beta gamma", 5, None),
    ("alpha beta epsilon", 50, None),
    (
        "alpha beta",
        50,
        Some(PickParams {
            relevance_threshold: 1.5,
            fraction: 0.5,
        }),
    ),
    (
        "alpha beta gamma",
        50,
        Some(PickParams {
            relevance_threshold: 0.5,
            fraction: 1.0,
        }),
    ),
];
/// Searches with a `min_score` filter: `(terms, k, min_score)`. A lone
/// `alpha` scores 1, so `1` cuts hits out of every non-trivial corpus.
const FILTERED: [(&str, usize, f64); 2] = [("alpha beta", 50, 1.0), ("alpha", 1, 1.0)];
const PHRASES: [&str; 2] = ["alpha beta", "beta beta"];

/// Server-side `/search` defaults (threshold 0.5, fraction 0.5).
fn server_pick() -> PickParams {
    PickParams {
        relevance_threshold: 0.5,
        fraction: 0.5,
    }
}

/// Drive the ops through a coordinator over `shards` shards, mirroring
/// acknowledged mutations into `model`; then compare every probe query
/// bytewise against the single-node expectation.
fn run_case(ops: &[Op], shards: usize) {
    let dir = scratch_dir(&format!("diff-{shards}"));
    let cluster = LocalCluster::start(&dir, shards, 0).unwrap();
    let mut model: BTreeMap<&str, &str> = BTreeMap::new();

    for &(kind, name_i, doc_i) in ops {
        let name = NAMES[name_i as usize % NAMES.len()];
        match kind % 10 {
            0..=4 => {
                let xml = DOCS[doc_i as usize % DOCS.len()];
                let (status, body) = cluster.insert(name, xml).unwrap();
                if model.contains_key(name) {
                    assert_eq!(status, 409, "duplicate insert of {name}: {body}");
                } else {
                    assert_eq!(status, 201, "insert of {name}: {body}");
                    model.insert(name, xml);
                }
            }
            5..=8 => {
                let (status, body) = cluster.remove(name).unwrap();
                if model.remove(name).is_some() {
                    assert_eq!(status, 200, "remove of {name}: {body}");
                } else {
                    assert_eq!(status, 404, "remove of missing {name}: {body}");
                }
            }
            _ => {
                let (status, body) = cluster.request("POST", "/admin/checkpoint", &[]).unwrap();
                assert_eq!(status, 200, "checkpoint: {body}");
            }
        }
    }

    // The single-node union database the cluster must be
    // indistinguishable from.
    let mut union_db = Database::new();
    for (name, xml) in &model {
        union_db.load(name, xml).unwrap();
    }
    union_db.build_index();

    for (terms, k, pick) in SEARCHES {
        let term_refs: Vec<&str> = terms.split(' ').collect();
        let mut path = format!(
            "/search?q={}&k={k}",
            tix_cluster::client::encode_component(terms)
        );
        if let Some(pick) = pick {
            path.push_str(&format!(
                "&threshold={}&fraction={}",
                pick.relevance_threshold, pick.fraction
            ));
        }
        let pick = pick.unwrap_or_else(server_pick);
        let expected = merge::expected_search_body(&union_db, &term_refs, pick, k);
        let (status, body) = cluster.get(&path).unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            body, expected,
            "shards={shards} q={terms:?} k={k} pick={pick:?}: coordinator body diverged from single-node"
        );
    }
    for (terms, k, min_score) in FILTERED {
        let term_refs: Vec<&str> = terms.split(' ').collect();
        let expected = merge::expected_search_body_above(
            &union_db,
            &term_refs,
            server_pick(),
            k,
            Some(min_score),
        );
        let path = format!(
            "/search?q={}&k={k}&min_score={min_score}",
            tix_cluster::client::encode_component(terms)
        );
        let (status, body) = cluster.get(&path).unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            body, expected,
            "shards={shards} q={terms:?} k={k} min_score={min_score}: coordinator body diverged from single-node"
        );
    }
    for phrase in PHRASES {
        let term_refs: Vec<&str> = phrase.split(' ').collect();
        let expected = merge::expected_phrase_body(&union_db, &term_refs);
        let path = format!(
            "/phrase?q={}",
            tix_cluster::client::encode_component(phrase)
        );
        let (status, body) = cluster.get(&path).unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            body, expected,
            "shards={shards} phrase={phrase:?}: coordinator body diverged from single-node"
        );
    }

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn scatter_gather_is_byte_identical_to_single_node(
        ops in prop::collection::vec((0u8..10, 0u8..6, 0u8..5), 1..12)
    ) {
        for shards in [1usize, 2, 4] {
            run_case(&ops, shards);
        }
    }
}
