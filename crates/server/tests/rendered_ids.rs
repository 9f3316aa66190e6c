//! Rendered node ids over the socket: after `DELETE` of the oldest
//! document, the `/search` and `/phrase` bodies a live server sends must
//! be byte-identical to those of a server started over the surviving
//! documents — directly, after a kill → restart → WAL replay, and after a
//! checkpoint taken while the removal's tombstone is still in the store.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use tix::Database;
use tix_server::{Server, ServerConfig};

const DOCS: &[(&str, &str)] = &[
    (
        "first.xml",
        "<article><sec><p>rust xml database systems</p></sec>\
         <sec><p>structured text in rust</p></sec></article>",
    ),
    (
        "second.xml",
        "<article><sec><title>xml storage</title><p>rust engines for xml</p></sec>\
         <sec><p>structured text search</p></sec></article>",
    ),
    (
        "third.xml",
        "<review><p>the database was fast</p><p>rust xml database again</p></review>",
    ),
    (
        "fourth.xml",
        "<article><p>structured text and more rust xml</p></article>",
    ),
];

const QUERIES: [&str; 3] = [
    "/search?q=rust+xml&k=10&threshold=1.0",
    "/search?q=database&k=3",
    "/phrase?q=structured+text",
];

fn request(server: &Server, method: &str, target: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let request = format!(
        "{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8(raw).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body separator");
    let status = head.split(' ').nth(1).unwrap().parse().unwrap();
    (status, body.to_string())
}

fn bodies(server: &Server) -> Vec<String> {
    QUERIES
        .iter()
        .map(|target| {
            let (status, body) = request(server, "GET", target, "");
            assert_eq!(status, 200, "{target}: {body}");
            body
        })
        .collect()
}

/// The bodies a read-only server over the surviving documents sends.
fn survivors_bodies() -> Vec<String> {
    let mut db = Database::new();
    for (name, xml) in &DOCS[1..] {
        db.load(name, xml).unwrap();
    }
    db.build_index();
    let server = Server::start(db, ServerConfig::default()).unwrap();
    let out = bodies(&server);
    server.shutdown();
    out
}

fn live_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tix-rendered-ids-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn ids_after_delete_match_a_server_over_the_survivors() {
    let expected = survivors_bodies();
    assert!(
        expected.iter().all(|body| body.contains("\"node\":\"d")),
        "the queries must return nodes: {expected:?}"
    );
    let dir = live_dir();

    let server = Server::start_live(&dir, ServerConfig::default()).unwrap();
    for (name, xml) in DOCS {
        let (status, body) = request(&server, "POST", &format!("/documents?name={name}"), xml);
        assert_eq!(status, 201, "{body}");
    }
    let (status, body) = request(&server, "DELETE", "/documents/first.xml", "");
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains("\"doc\":0"),
        "the oldest document had id 0: {body}"
    );
    let (status, body) = request(&server, "POST", "/documents?name=extra.xml", "<a>extra</a>");
    assert_eq!(status, 201, "{body}");
    assert!(
        body.contains("\"doc\":3"),
        "a fresh insert is the last id: {body}"
    );
    let (status, body) = request(&server, "DELETE", "/documents/extra.xml", "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(bodies(&server), expected, "live, with tombstones");
    // The "kill": shutdown takes no checkpoint, so the state lives only
    // in the WAL.
    server.shutdown();

    let server = Server::start_live(&dir, ServerConfig::default()).unwrap();
    assert_eq!(bodies(&server), expected, "after restart and WAL replay");
    // Replay re-created the tombstones; checkpoint with them present.
    let (status, body) = request(&server, "POST", "/admin/checkpoint", "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(bodies(&server), expected, "after a checkpoint");
    server.shutdown();

    let server = Server::start_live(&dir, ServerConfig::default()).unwrap();
    assert_eq!(
        bodies(&server),
        expected,
        "after restart from the checkpoint"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
