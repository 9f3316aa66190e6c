//! Golden coordinator bodies: the status and body of every client-facing
//! `/search` and `/phrase` request in the node's golden table
//! (`crates/server/tests/read_bodies.rs`), sent to the coordinator of
//! in-process clusters of 1, 2 and 3 shards over the node table's
//! corpus, and compared byte for byte with the transcript in
//! `data/coordinator_bodies.txt`.
//!
//! The table covers 200s with and without every parameter, every 400,
//! `k=0`, and the parameters a read ignores. Any change to how the
//! coordinator parses, forwards, merges or renders a read shows up here
//! as a diff.

use tix_cluster::{local::scratch_dir, LocalCluster};

const DOCS: &[(&str, &str)] = &[
    (
        "a.xml",
        "<article><sec><p>rust xml database systems</p></sec>\
         <sec><p>cooking with rust the metal</p></sec></article>",
    ),
    (
        "b.xml",
        "<article><sec><title>xml storage</title><p>rust engines for xml</p></sec>\
         <sec><p>unrelated text here</p></sec></article>",
    ),
    (
        "c.xml",
        "<review><p>the database was fast</p><p>rust xml database again</p>\
         <p>xml database and xml database</p></review>",
    ),
];

/// `(method, target)` per request, in transcript order: the `/search` and
/// `/phrase` rows of the node's table.
const REQUESTS: &[(&str, &str)] = &[
    // /search: 200s.
    ("GET", "/search?q=rust+xml"),
    ("GET", "/search?q=rust+xml&k=2"),
    ("GET", "/search?q=rust+xml&k=0"),
    ("GET", "/search?q=rust&threshold=1.0&fraction=0.25"),
    ("GET", "/search?q=rust+xml&min_score=1.5"),
    ("GET", "/search?q=rust+xml&k=3&min_score=0"),
    ("GET", "/search?q=+rust++xml+"),
    ("GET", "/search?q=nosuchterm"),
    // /search: 400s, first error wins.
    ("GET", "/search"),
    ("GET", "/search?q="),
    ("GET", "/search?q=+++"),
    ("GET", "/search?q=rust&k=banana"),
    ("GET", "/search?q=rust&k=-1"),
    ("GET", "/search?q=rust&threshold=x"),
    ("GET", "/search?q=rust&fraction=x"),
    ("GET", "/search?q=rust&min_score=nope"),
    ("GET", "/search?q=rust&k=banana&threshold=x&min_score=nope"),
    ("GET", "/search?q=rust&threshold=x&min_score=nope"),
    ("GET", "/search?k=banana"),
    ("GET", "/search?q=rust&deadline_ms=soon"),
    // /search: a client's watermark.
    ("GET", "/search?q=rust&min_lsn=5"),
    ("GET", "/search?q=rust&min_lsn=x"),
    ("GET", "/search?q=rust&min_lsn=0"),
    // /phrase.
    ("GET", "/phrase?q=xml+database"),
    (
        "GET",
        "/phrase?q=xml+database&k=banana&threshold=x&min_score=nope",
    ),
    ("GET", "/phrase?q=rust+cooking"),
    ("GET", "/phrase?q=xml"),
    ("GET", "/phrase"),
    ("GET", "/phrase?q=+"),
    ("GET", "/phrase?q=xml+database&min_lsn=5"),
    // 405 per route.
    ("POST", "/search?q=rust"),
    ("POST", "/phrase?q=xml+database"),
];

/// The CRC-32 router puts all three documents on shard 0 of 2, so the
/// 2-shard cluster merges an empty shard's answer; at 3 shards `a.xml`
/// lands on shard 1 apart from the others, so hits from two shards merge.
const SHARD_COUNTS: [usize; 3] = [1, 2, 3];

const GOLDEN: &str = include_str!("data/coordinator_bodies.txt");

/// One transcript line per request: `shards=N METHOD TARGET -> STATUS
/// BODY`. Bodies are JSON with every control character escaped, so a
/// line never breaks.
fn transcript(shards: usize) -> Vec<String> {
    let dir = scratch_dir(&format!("coordinator-bodies-{shards}"));
    let cluster = LocalCluster::start(&dir, shards, 0).unwrap();
    for (name, xml) in DOCS {
        let (status, body) = cluster.insert(name, xml).unwrap();
        assert_eq!(status, 201, "insert {name}: {body}");
    }
    let lines = REQUESTS
        .iter()
        .map(|(method, target)| {
            let (status, body) = cluster.request(method, target, &[]).unwrap();
            assert!(!body.contains('\n'), "{method} {target}: multi-line body");
            format!("shards={shards} {method} {target} -> {status} {body}")
        })
        .collect();
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    lines
}

#[test]
fn coordinator_bodies_match_the_golden_transcript() {
    let actual: Vec<String> = SHARD_COUNTS.into_iter().flat_map(transcript).collect();
    let golden: Vec<&str> = GOLDEN.lines().collect();
    if actual.len() != golden.len() || actual.iter().zip(&golden).any(|(a, g)| a != g) {
        eprintln!("actual transcript:\n{}", actual.join("\n"));
    }
    assert_eq!(actual.len(), golden.len(), "transcript length");
    for (actual, expected) in actual.iter().zip(&golden) {
        assert_eq!(actual, expected);
    }
}
