//! Phrase matches come back in document order, not ranked by occurrence
//! count — from `Database::find_phrase`, `Database::run`, `GET /phrase`
//! and `GET /cluster/phrase`. The corpus puts more occurrences in the
//! *second* document, so a count-ranked answer would list it first.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use tix::{Database, SearchRequest};
use tix_server::{Server, ServerConfig};

const DOCS: &[(&str, &str)] = &[
    ("first.xml", "<a><p>xml database once</p></a>"),
    (
        "second.xml",
        "<a><p>xml database and xml database and xml database</p></a>",
    ),
];

const PHRASE: [&str; 2] = ["xml", "database"];

fn corpus_db() -> Database {
    let mut db = Database::new();
    for (name, xml) in DOCS {
        db.load(name, xml).unwrap();
    }
    db.build_index();
    db
}

fn get(server: &Server, target: &str) -> String {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8(raw).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body separator");
    assert!(head.starts_with("HTTP/1.1 200"), "{target}: {head}");
    body.to_string()
}

/// Byte offsets of `first` and `second` in `body`; both must be present.
fn positions(body: &str, first: &str, second: &str) -> (usize, usize) {
    let a = body
        .find(first)
        .unwrap_or_else(|| panic!("{first} in {body}"));
    let b = body
        .find(second)
        .unwrap_or_else(|| panic!("{second} in {body}"));
    (a, b)
}

#[test]
fn phrase_matches_are_in_document_order() {
    let db = corpus_db();
    let matches = db.find_phrase(&PHRASE);
    let counts: Vec<(u32, f64)> = matches.iter().map(|m| (m.node.doc.0, m.score)).collect();
    assert_eq!(counts, vec![(0, 1.0), (1, 3.0)]);
    let run = db.run(&SearchRequest::phrase(&PHRASE), &|| false).unwrap();
    assert_eq!(run.results, matches);
    assert_eq!(run.withheld_bound, None);

    let server = Server::start(corpus_db(), ServerConfig::default()).unwrap();
    let phrase = get(&server, "/phrase?q=xml+database");
    let cluster = get(&server, "/cluster/phrase?q=xml+database");
    server.shutdown();
    let (a, b) = positions(&phrase, "\"doc\":\"first.xml\"", "\"doc\":\"second.xml\"");
    assert!(a < b, "/phrase order: {phrase}");
    let (a, b) = positions(
        &cluster,
        "\"name\":\"first.xml\"",
        "\"name\":\"second.xml\"",
    );
    assert!(a < b, "/cluster/phrase order: {cluster}");
}
