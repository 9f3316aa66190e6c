//! End-to-end serving tests over raw `TcpStream`s: byte-identical results
//! vs. direct `Database` calls, cache behavior across reloads, deadline
//! expiry, bounded-admission saturation, and graceful shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use tix::exec::pick::PickParams;
use tix::{normalize_query, Database, SearchRequest};
use tix_server::{render, Server, ServerConfig};

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
        "<review><p>the database was fast</p><p>rust xml database again</p></review>",
    ),
];

fn corpus_db() -> Database {
    let mut db = Database::new();
    for (name, xml) in DOCS {
        db.load(name, xml).unwrap();
    }
    db.build_index();
    db
}

fn start(config: ServerConfig) -> Server {
    Server::start(corpus_db(), config).unwrap()
}

/// Issue one raw HTTP request and return `(status, headers, body)`.
fn raw_request(server: &Server, request: &str) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    read_response(&mut stream)
}

fn read_response(stream: &mut TcpStream) -> (u16, String, Vec<u8>) {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header/body separator");
    let headers = String::from_utf8_lossy(&raw[..split]).into_owned();
    let body = raw[split + 4..].to_vec();
    let status: u16 = headers
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, headers, body)
}

/// Poll the live metrics document until `needle` appears (10 s cap).
fn wait_for_metric(server: &Server, needle: &str) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let metrics = server.metrics_json();
        if metrics.contains(needle) {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for {needle} in {metrics}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn get(server: &Server, target: &str) -> (u16, String, Vec<u8>) {
    raw_request(server, &format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn post(server: &Server, target: &str, body: &str) -> (u16, String, Vec<u8>) {
    raw_request(
        server,
        &format!(
            "POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

#[test]
fn health_reports_corpus() {
    let server = start(ServerConfig::default());
    let (status, _, body) = get(&server, "/health");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("\"status\":\"ok\""), "{text}");
    assert!(text.contains(&format!("\"docs\":{}", DOCS.len())), "{text}");
    server.shutdown();
}

#[test]
fn search_is_byte_identical_to_direct_database_search() {
    let server = start(ServerConfig::default());
    let reference = corpus_db();
    let pick = PickParams {
        relevance_threshold: 1.0,
        fraction: 0.5,
    };
    let terms = normalize_query(&["rust", "xml"]);
    let expected_results = reference.search(&["rust", "xml"], pick, 5);
    let expected = render::search_body(reference.store(), &terms, pick, 5, &expected_results);

    let (status, _, body) = get(&server, "/search?q=rust+xml&k=5&threshold=1.0&fraction=0.5");
    assert_eq!(status, 200);
    assert_eq!(
        body,
        expected.as_bytes(),
        "served bytes differ from direct search"
    );
    assert!(!expected_results.is_empty(), "fixture should produce hits");
    server.shutdown();
}

#[test]
fn phrase_is_byte_identical_to_direct_find_phrase() {
    let server = start(ServerConfig::default());
    let reference = corpus_db();
    let terms = normalize_query(&["xml", "database"]);
    let matches = reference.find_phrase(&["xml", "database"]);
    let expected = render::phrase_body(reference.store(), &terms, &matches);

    let (status, _, body) = get(&server, "/phrase?q=xml+database");
    assert_eq!(status, 200);
    assert_eq!(body, expected.as_bytes());
    assert!(!matches.is_empty(), "fixture should contain the phrase");
    server.shutdown();
}

#[test]
fn query_endpoint_runs_the_dialect() {
    let server = start(ServerConfig::default());
    let query = r#"
        For $a in document("a.xml")//article/descendant-or-self::*
        Score $a using ScoreFoo($a, {"xml database"}, {})
        Sortby(score)
        Threshold $a/@score > 0.5
    "#;
    let (status, _, body) = post(&server, "/query", query);
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("\"count\":"), "{text}");
    assert!(text.contains("score"), "{text}");

    let (status, _, body) = post(&server, "/query", "this is not the dialect");
    assert_eq!(status, 400);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("error"), "{text}");
    server.shutdown();
}

#[test]
fn repeated_search_hits_the_cache() {
    let server = start(ServerConfig::default());
    let (_, _, first) = get(&server, "/search?q=rust&k=3");
    let (_, _, second) = get(&server, "/search?q=rust&k=3");
    assert_eq!(first, second);
    // Normalized variants share the cache entry.
    let (_, _, third) = get(&server, "/search?q=%20rust%20&k=3");
    assert_eq!(first, third);
    let metrics = server.metrics_json();
    let hits: u64 = metrics
        .split("\"hits\":")
        .nth(1)
        .and_then(|s| s.split(&[',', '}'][..]).next())
        .and_then(|s| s.parse().ok())
        .unwrap();
    assert!(hits >= 2, "expected ≥2 cache hits, metrics: {metrics}");
    server.shutdown();
}

#[test]
fn reload_invalidates_cached_results() {
    let server = start(ServerConfig::default());
    let (_, _, before) = get(&server, "/search?q=freshterm&k=3");
    let before = String::from_utf8(before).unwrap();
    assert!(before.contains("\"count\":0"), "{before}");
    // Serve it again so the entry is hot in the cache.
    let _ = get(&server, "/search?q=freshterm&k=3");

    server.reload(|db| {
        db.load("d.xml", "<article><p>freshterm appears here</p></article>")
            .unwrap();
        db.build_index();
    });

    let (_, _, after) = get(&server, "/search?q=freshterm&k=3");
    let after = String::from_utf8(after).unwrap();
    assert!(
        !after.contains("\"count\":0"),
        "stale cached result served after reload: {after}"
    );
    assert!(after.contains("d.xml"), "{after}");
    server.shutdown();
}

#[test]
fn reload_after_crash_recovery_serves_identical_results() {
    // The full durability story, end to end: a serving database whose
    // snapshot survives a torn overwrite, whose corrupted index sidecar is
    // detected and rebuilt, and whose recovered state is hot-swapped in
    // with `reload` — answering exactly what the pre-crash server answered.
    let dir = std::env::temp_dir().join(format!("tix-e2e-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("corpus.tix");
    let idx = dir.join("corpus.tix.idx");

    let db = corpus_db();
    db.save_store_to(&snap).unwrap();
    db.save_index_to(&idx).unwrap();
    let committed = std::fs::read(&snap).unwrap();

    let server = Server::start(db, ServerConfig::default()).unwrap();
    let (_, _, before) = get(&server, "/search?q=rust+xml&k=5");

    // Crash mid-overwrite of the store snapshot: the committed bytes on
    // disk must be untouched.
    let torn: Result<(), tix::PersistError> = tix::store::persist::atomic_write(&snap, |w| {
        w.write_all(&committed[..committed.len() / 2])?;
        Err(tix::PersistError::Io(std::io::Error::other(
            "injected crash",
        )))
    });
    assert!(torn.is_err());
    assert_eq!(
        std::fs::read(&snap).unwrap(),
        committed,
        "torn write damaged the snapshot"
    );

    // Bit-flip the index sidecar: recovery detects it, rebuilds, repairs.
    let mut sidecar = std::fs::read(&idx).unwrap();
    let mid = sidecar.len() / 2;
    sidecar[mid] ^= 0x20;
    std::fs::write(&idx, &sidecar).unwrap();

    let mut recovered = Database::open(&snap).unwrap();
    if recovered.load_index_from(&idx).is_err() {
        recovered.build_index();
        recovered.save_index_to(&idx).unwrap();
    } else {
        panic!("corrupt sidecar loaded without complaint");
    }

    server.reload(|db| *db = recovered);
    let (_, _, after) = get(&server, "/search?q=rust+xml&k=5");
    assert_eq!(after, before, "recovered database answers differently");
    // And the repaired sidecar now loads cleanly.
    let mut check = Database::open(&snap).unwrap();
    check.load_index_from(&idx).unwrap();
    server.shutdown();
}

#[test]
fn malformed_and_unroutable_requests_get_4xx() {
    let server = start(ServerConfig::default());
    let (status, _, _) = raw_request(&server, "NONSENSE\r\n\r\n");
    assert_eq!(status, 400);
    let (status, _, _) = raw_request(&server, "GET /health SMTP/1.0\r\n\r\n");
    assert_eq!(status, 400);
    let (status, _, _) = get(&server, "/no/such/endpoint");
    assert_eq!(status, 404);
    let (status, headers, _) = raw_request(&server, "POST /search HTTP/1.1\r\n\r\n");
    assert_eq!(status, 405);
    assert!(headers.contains("Allow: GET"), "{headers}");
    let (status, _, _) = get(&server, "/search?k=3"); // no q
    assert_eq!(status, 400);
    let (status, _, _) = get(&server, "/search?q=rust&k=banana");
    assert_eq!(status, 400);
    server.shutdown();
}

#[test]
fn oversized_body_is_413_not_a_panic() {
    let server = Server::start(
        corpus_db(),
        ServerConfig {
            max_body: 1024,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let (status, _, _) = raw_request(
        &server,
        "POST /query HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
    );
    assert_eq!(status, 413);
    // The server is still healthy afterwards.
    let (status, _, _) = get(&server, "/health");
    assert_eq!(status, 200);
    server.shutdown();
}

/// A request the server answers before it has read all of it must still
/// deliver that answer: the unread rest may not turn the close into a
/// reset that destroys the response.
#[test]
fn oversized_headers_are_431_and_the_client_reads_it() {
    let server = start(ServerConfig::default());
    // About 27 KiB of headers against the 16 KiB limit.
    let mut request = String::from("GET /health HTTP/1.1\r\nHost: t\r\n");
    for i in 0..432 {
        request.push_str(&format!("X-Filler-{i:03}: {}\r\n", "a".repeat(48)));
    }
    request.push_str("\r\n");
    let (status, _, _) = raw_request(&server, &request);
    assert_eq!(status, 431);
    let (status, _, _) = get(&server, "/health");
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn oversized_body_that_is_sent_still_gets_its_413() {
    let server = Server::start(
        corpus_db(),
        ServerConfig {
            max_body: 1024,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let body = vec![b'a'; 64 * 1024];
    let mut request = format!(
        "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(&body);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // The server reads no more than the largest request it admits (here
    // about 25 KiB) after it has answered, so this write may fail once it
    // lets go; the 413 must reach the client either way.
    let _ = stream.write_all(&request);
    let (status, _, _) = read_response(&mut stream);
    assert_eq!(status, 413);
    let (status, _, _) = get(&server, "/health");
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn expired_deadline_is_504() {
    let server = Server::start(
        corpus_db(),
        ServerConfig {
            debug_endpoints: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let (status, _, body) = get(&server, "/debug/sleep?ms=2000&deadline_ms=40");
    assert_eq!(status, 504, "{}", String::from_utf8_lossy(&body));
    let metrics = server.metrics_json();
    assert!(
        metrics.contains("\"deadline_expired\":1"),
        "metrics: {metrics}"
    );
    server.shutdown();
}

#[test]
fn saturation_returns_503_with_retry_after() {
    let server = Server::start(
        corpus_db(),
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            debug_endpoints: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    // Occupy the single worker, confirmed via the busy-workers gauge (a
    // fixed sleep here is flaky when the whole suite shares one core).
    let mut busy = TcpStream::connect(server.addr()).unwrap();
    busy.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    busy.write_all(b"GET /debug/sleep?ms=3000 HTTP/1.1\r\n\r\n")
        .unwrap();
    wait_for_metric(&server, "\"busy\":1");
    // …fill the single queue slot (it stays queued: the worker is busy)…
    let mut queued = TcpStream::connect(server.addr()).unwrap();
    queued
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    queued
        .write_all(b"GET /debug/sleep?ms=10 HTTP/1.1\r\n\r\n")
        .unwrap();
    wait_for_metric(&server, "\"depth\":1");
    // …and the next request must be rejected immediately, not buffered.
    let start = std::time::Instant::now();
    let (status, headers, _) = get(&server, "/health");
    assert_eq!(status, 503);
    assert!(headers.contains("Retry-After:"), "{headers}");
    assert!(
        start.elapsed() < Duration::from_millis(1500),
        "503 took {:?} — the full queue blocked behind the 3 s sleep instead of rejecting",
        start.elapsed()
    );
    // The in-flight and queued requests still complete.
    let (status, _, _) = read_response(&mut busy);
    assert_eq!(status, 200);
    let (status, _, _) = read_response(&mut queued);
    assert_eq!(status, 200);
    let metrics = server.metrics_json();
    assert!(
        metrics.contains("\"rejected_saturated\":1"),
        "metrics: {metrics}"
    );
    server.shutdown();
}

#[test]
fn graceful_shutdown_finishes_in_flight_work() {
    let server = Server::start(
        corpus_db(),
        ServerConfig {
            workers: 2,
            debug_endpoints: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let mut in_flight = TcpStream::connect(addr).unwrap();
    in_flight
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    in_flight
        .write_all(b"GET /debug/sleep?ms=300 HTTP/1.1\r\n\r\n")
        .unwrap();
    wait_for_metric(&server, "\"busy\":1");
    server.shutdown();
    // The in-flight request was drained, not dropped.
    let (status, _, _) = read_response(&mut in_flight);
    assert_eq!(status, 200);
    // New connections are refused once shutdown completes.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener still accepting after shutdown"
    );
}

#[test]
fn metrics_track_requests_and_latency() {
    let server = start(ServerConfig::default());
    for _ in 0..3 {
        let (status, _, _) = get(&server, "/search?q=rust");
        assert_eq!(status, 200);
    }
    let (status, _, body) = get(&server, "/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    for key in [
        "\"requests_total\":",
        "\"2xx\":",
        "\"p50_us\":",
        "\"p95_us\":",
        "\"p99_us\":",
        "\"utilization\":",
        "\"search\":3",
    ] {
        assert!(text.contains(key), "missing {key} in {text}");
    }
    server.shutdown();
}

fn delete(server: &Server, target: &str) -> (u16, String, Vec<u8>) {
    raw_request(
        server,
        &format!("DELETE {target} HTTP/1.1\r\nHost: t\r\n\r\n"),
    )
}

fn live_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tix-e2e-live-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn read_only_server_refuses_document_mutations() {
    let server = start(ServerConfig::default());
    let (status, _, _) = post(&server, "/documents?name=x.xml", "<a>x</a>");
    assert_eq!(status, 403);
    let (status, _, _) = delete(&server, "/documents/a.xml");
    assert_eq!(status, 403);
    server.shutdown();
}

#[test]
fn live_ingestion_mutates_while_serving() {
    let server = Server::start_live(live_dir("mutate"), ServerConfig::default()).unwrap();
    // Empty corpus serves (no results) before any ingestion.
    let (status, _, _) = get(&server, "/search?q=ingested");
    assert_eq!(status, 200);

    let (status, _, body) = post(
        &server,
        "/documents?name=live.xml",
        "<a><p>ingested rust text</p></a>",
    );
    assert_eq!(status, 201, "{}", String::from_utf8_lossy(&body));
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("\"inserted\":\"live.xml\""), "{text}");
    assert!(text.contains("\"lsn\":1"), "{text}");

    // The searcher sees the new document immediately.
    let (status, _, body) = get(&server, "/search?q=ingested&threshold=1.0");
    assert_eq!(status, 200);
    assert!(
        String::from_utf8(body).unwrap().contains("ingested"),
        "search does not see the ingested document"
    );

    // Duplicate name: 409, nothing changed.
    let (status, _, _) = post(&server, "/documents?name=live.xml", "<a>dup</a>");
    assert_eq!(status, 409);
    // Unparsable XML: 400.
    let (status, _, _) = post(&server, "/documents?name=bad.xml", "<unclosed>");
    assert_eq!(status, 400);
    // Unknown removal target: 404.
    let (status, _, _) = delete(&server, "/documents/nope.xml");
    assert_eq!(status, 404);
    // Wrong methods: 405 with the right Allow.
    let (status, headers, _) = get(&server, "/documents/live.xml");
    assert_eq!(status, 405);
    assert!(headers.contains("Allow: DELETE"), "{headers}");

    // Remove a second document end to end.
    let (status, _, _) = post(&server, "/documents?name=gone.xml", "<a>ephemeral</a>");
    assert_eq!(status, 201);
    let (status, _, body) = delete(&server, "/documents/gone.xml");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    assert!(String::from_utf8(body)
        .unwrap()
        .contains("\"removed\":\"gone.xml\""),);
    let (status, _, body) = get(&server, "/search?q=ephemeral&threshold=1.0");
    assert_eq!(status, 200);
    assert!(!String::from_utf8(body).unwrap().contains("gone.xml"));

    let metrics = server.metrics_json();
    assert!(metrics.contains("\"inserts\":2"), "{metrics}");
    assert!(metrics.contains("\"removes\":1"), "{metrics}");
    server.shutdown();
}

#[test]
fn ingested_documents_survive_restart_with_identical_results() {
    let dir = live_dir("restart");
    let query = "/search?q=durable+rust&threshold=1.0&k=5";
    let before = {
        let server = Server::start_live(&dir, ServerConfig::default()).unwrap();
        let (status, _, _) = post(
            &server,
            "/documents?name=a.xml",
            "<article><p>durable rust words</p><p>more rust</p></article>",
        );
        assert_eq!(status, 201);
        let (status, _, _) = post(
            &server,
            "/documents?name=b.xml",
            "<article><p>durable xml</p></article>",
        );
        assert_eq!(status, 201);
        let (status, _, _) = delete(&server, "/documents/b.xml");
        assert_eq!(status, 200);
        let (status, _, body) = get(&server, query);
        assert_eq!(status, 200);
        // The "kill": shutdown does NOT checkpoint, so everything lives
        // only in the WAL at this point.
        server.shutdown();
        String::from_utf8(body).unwrap()
    };
    assert!(
        !std::fs::exists(dir.join("store.1.tixsnap")).unwrap(),
        "no checkpoint should have been taken"
    );
    // Restart: recovery replays the WAL and answers byte-identically.
    let server = Server::start_live(&dir, ServerConfig::default()).unwrap();
    let (status, _, body) = get(&server, query);
    assert_eq!(status, 200);
    assert_eq!(String::from_utf8(body).unwrap(), before);
    let (status, _, _) = post(&server, "/documents?name=a.xml", "<a>dup</a>");
    assert_eq!(status, 409, "replayed state lost the duplicate-name guard");
    server.shutdown();
}

#[test]
fn min_score_is_never_served_from_the_unfiltered_cache() {
    // Regression: before the key carried min_score, a cached unfiltered
    // body could be replayed verbatim for a stricter request.
    let server = start(ServerConfig::default());
    let reference = corpus_db();
    let pick = PickParams {
        relevance_threshold: 1.0,
        fraction: 0.5,
    };
    let terms = normalize_query(&["rust", "xml"]);

    // Prime the cache with the unfiltered query.
    let (status, _, unfiltered) = get(&server, "/search?q=rust+xml&k=5&threshold=1.0");
    assert_eq!(status, 200);

    // A min_score no result can clear must come back empty — not the
    // cached unfiltered body.
    let (status, _, filtered) = get(
        &server,
        "/search?q=rust+xml&k=5&threshold=1.0&min_score=1e9",
    );
    assert_eq!(status, 200);
    assert_ne!(filtered, unfiltered, "stricter request served stale cache");
    let expected_results = reference
        .search_filtered(&["rust", "xml"], pick, 5, Some(1e9), &|| false)
        .unwrap();
    assert!(expected_results.is_empty());
    let expected = render::search_body(reference.store(), &terms, pick, 5, &expected_results);
    assert_eq!(filtered, expected.as_bytes());

    // The filtered entry caches under its own key and replays bit-exactly.
    let (status, _, again) = get(
        &server,
        "/search?q=rust+xml&k=5&threshold=1.0&min_score=1e9",
    );
    assert_eq!(status, 200);
    assert_eq!(again, filtered);

    // And the unfiltered entry is still intact under its own key.
    let (status, _, unfiltered_again) = get(&server, "/search?q=rust+xml&k=5&threshold=1.0");
    assert_eq!(status, 200);
    assert_eq!(unfiltered_again, unfiltered);

    // min_score=0.0 is a real (strict) filter — distinct key from "none".
    let (status, _, _) = get(
        &server,
        "/search?q=rust+xml&k=5&threshold=1.0&min_score=0.0",
    );
    assert_eq!(status, 200);

    let (status, _, _) = get(
        &server,
        "/search?q=rust+xml&k=5&threshold=1.0&min_score=nope",
    );
    assert_eq!(status, 400);
    server.shutdown();
}

#[test]
fn explain_reports_the_chosen_plan() {
    let server = start(ServerConfig::default());
    let (status, headers, body) = get(&server, "/explain?q=rust+xml&k=5&min_score=1.5");
    assert_eq!(status, 200);
    assert!(headers.contains("application/json"), "{headers}");
    let text = String::from_utf8(body).unwrap();
    assert!(text.starts_with("{\"explain\":\""), "{text}");
    for needle in ["term-join", "chosen:", "candidates:", "statistics:"] {
        assert!(text.contains(needle), "missing {needle:?} in {text}");
    }
    assert!(text.contains("threshold: score > 1.5"), "{text}");

    // Matches the direct Database::explain rendering exactly.
    let reference = corpus_db();
    let pick = PickParams {
        relevance_threshold: 0.5,
        fraction: 0.5,
    };
    let expected = format!(
        "{{\"explain\":{}}}",
        render::json_string(&reference.explain(&SearchRequest::search(
            &["rust", "xml"],
            pick,
            5,
            Some(1.5)
        )))
    );
    assert_eq!(text, expected);

    let (status, headers, _) = raw_request(
        &server,
        "POST /explain HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status, 405);
    assert!(headers.contains("Allow: GET"), "{headers}");
    let (status, _, _) = get(&server, "/explain");
    assert_eq!(status, 400);
    server.shutdown();
}

#[test]
fn durability_mode_acks_and_checkpoint_health() {
    let dir = live_dir("durability");
    let config = ServerConfig {
        durability: tix_ingest::DurabilityMode::Batched {
            max_delay: std::time::Duration::from_millis(2),
        },
        ..ServerConfig::default()
    };
    let server = Server::start_live(&dir, config).unwrap();

    // Batched acks carry both the assigned and the durable LSN.
    let (status, _, body) = post(&server, "/documents?name=a.xml", "<a><p>alpha</p></a>");
    assert_eq!(status, 201, "{}", String::from_utf8_lossy(&body));
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("\"lsn\":1"), "{text}");
    assert!(text.contains("\"durable_lsn\":"), "{text}");

    let (status, _, body) = get(&server, "/health");
    assert_eq!(status, 200);
    let health = String::from_utf8(body).unwrap();
    assert!(health.contains("\"durability\":\"batched:2\""), "{health}");
    assert!(health.contains("\"checkpoint_degraded\":false"), "{health}");
    assert!(health.contains("\"durable_lsn\":"), "{health}");

    // Obstruct the next checkpoint's snapshot targets (a rename cannot
    // replace a directory), so the admin checkpoint fails...
    for name in ["store.1.tixsnap", "index.1.tixsnap"] {
        std::fs::create_dir_all(dir.join(name)).unwrap();
    }
    let (status, _, _) = post(&server, "/admin/checkpoint", "");
    assert_eq!(status, 500);
    // ...and /health turns degraded, with the reason.
    let (_, _, body) = get(&server, "/health");
    let health = String::from_utf8(body).unwrap();
    assert!(health.contains("\"checkpoint_degraded\":true"), "{health}");
    assert!(health.contains("\"checkpoint_error\":"), "{health}");
    // Mutations keep working while degraded — the WAL still hardens them.
    let (status, _, _) = post(&server, "/documents?name=b.xml", "<a><p>beta</p></a>");
    assert_eq!(status, 201);

    // Clear the obstruction: the next checkpoint succeeds and the health
    // flag resets.
    for name in ["store.1.tixsnap", "index.1.tixsnap"] {
        let _ = std::fs::remove_dir_all(dir.join(name));
    }
    let (status, _, body) = post(&server, "/admin/checkpoint", "");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let (_, _, body) = get(&server, "/health");
    let health = String::from_utf8(body).unwrap();
    assert!(health.contains("\"checkpoint_degraded\":false"), "{health}");

    server.shutdown();
}
