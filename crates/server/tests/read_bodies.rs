//! Golden read bodies: the status and body of every response the five
//! read routes (`/search`, `/phrase`, `/cluster/search`,
//! `/cluster/phrase`, `/explain`) give over a socket, for a fixed corpus
//! and a fixed table of requests, compared byte for byte with the
//! transcript in `data/read_bodies.txt`.
//!
//! The table covers 200s with and without every parameter, every 400 in
//! the order a handler reports them, the parameters an endpoint ignores,
//! the stale `min_lsn` 403 and a 405 per route. Any change to parsing,
//! planning or rendering on the read path shows up here as a diff.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use tix::Database;
use tix_server::{Server, ServerConfig};

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

/// `(method, target)` per request, in transcript order.
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
    // /search: watermark.
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
    // /cluster/search.
    ("GET", "/cluster/search?q=rust+xml"),
    ("GET", "/cluster/search?q=rust+xml&k=2"),
    ("GET", "/cluster/search?q=rust+xml&k=0"),
    (
        "GET",
        "/cluster/search?q=rust&threshold=1.0&fraction=0.25&k=1",
    ),
    ("GET", "/cluster/search?q=rust&min_score=nope"),
    ("GET", "/cluster/search?q=rust&k=x"),
    ("GET", "/cluster/search?q=rust&threshold=x"),
    ("GET", "/cluster/search?k=x"),
    ("GET", "/cluster/search?q=rust&min_lsn=5"),
    // /cluster/phrase.
    ("GET", "/cluster/phrase?q=xml+database"),
    ("GET", "/cluster/phrase?q=xml+database&k=x"),
    ("GET", "/cluster/phrase?q=rust"),
    ("GET", "/cluster/phrase"),
    ("GET", "/cluster/phrase?q=xml+database&min_lsn=5"),
    // /explain: no watermark gate.
    ("GET", "/explain?q=rust+xml"),
    (
        "GET",
        "/explain?q=rust&k=3&min_score=1.5&threshold=1.0&fraction=0.25",
    ),
    ("GET", "/explain?q=rust&k=bad"),
    ("GET", "/explain?q=rust&min_score=bad"),
    ("GET", "/explain"),
    ("GET", "/explain?q=rust&min_lsn=5"),
    // 405 per route.
    ("POST", "/search?q=rust"),
    ("POST", "/phrase?q=xml+database"),
    ("POST", "/cluster/search?q=rust"),
    ("POST", "/cluster/phrase?q=xml+database"),
    ("DELETE", "/explain?q=rust"),
];

const GOLDEN: &str = include_str!("data/read_bodies.txt");

fn corpus_db() -> Database {
    let mut db = Database::new();
    for (name, xml) in DOCS {
        db.load(name, xml).unwrap();
    }
    db.build_index();
    db
}

fn request(server: &Server, method: &str, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let request = format!("{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8(raw).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body separator");
    let status = head.split(' ').nth(1).unwrap().parse().unwrap();
    (status, body.to_string())
}

/// One transcript line: `METHOD TARGET -> STATUS BODY`. Bodies are JSON
/// with every control character escaped, so a line never breaks.
fn transcript(server: &Server) -> Vec<String> {
    REQUESTS
        .iter()
        .map(|(method, target)| {
            let (status, body) = request(server, method, target);
            assert!(!body.contains('\n'), "{method} {target}: multi-line body");
            format!("{method} {target} -> {status} {body}")
        })
        .collect()
}

#[test]
fn read_bodies_match_the_golden_transcript() {
    let server = Server::start(corpus_db(), ServerConfig::default()).unwrap();
    // Twice: the second pass answers the cacheable routes from the
    // result cache and must send the same bytes.
    let first = transcript(&server);
    let second = transcript(&server);
    server.shutdown();
    assert_eq!(first, second, "a cached body differs from the computed one");

    let golden: Vec<&str> = GOLDEN.lines().collect();
    if first.len() != golden.len() || first.iter().zip(&golden).any(|(a, g)| a != g) {
        eprintln!("actual transcript:\n{}", first.join("\n"));
    }
    assert_eq!(first.len(), golden.len(), "transcript length");
    for (actual, expected) in first.iter().zip(&golden) {
        assert_eq!(actual, expected);
    }
}
