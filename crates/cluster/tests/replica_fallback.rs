//! Transport-failure fallback end to end: a shard whose replica address
//! has no listener must be answered by its primary, byte-identical to a
//! single node over the union corpus, with the failure counted.

use std::time::Duration;

use tix_cluster::topology::{ShardTopology, Topology};
use tix_cluster::{client, local::scratch_dir, merge, Coordinator, CoordinatorConfig, Json};
use tix_server::{Server, ServerConfig};

const TIMEOUT: Duration = Duration::from_secs(10);

// Spread over both shards under the CRC-32 router.
const CORPUS: [(&str, &str); 6] = [
    ("a0.xml", "<d><s><p>alpha beta gamma</p></s></d>"),
    ("a8.xml", "<d><p>beta beta delta</p><p>alpha</p></d>"),
    ("b0.xml", "<d><s><p>gamma</p><p>epsilon alpha</p></s></d>"),
    ("b8.xml", "<d><p>zeta alpha beta</p></d>"),
    ("c0.xml", "<d><p>alpha beta</p><p>alpha beta</p></d>"),
    ("c8.xml", "<d><s><p>beta gamma</p></s><p>alpha</p></d>"),
];

fn node_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_capacity: 32,
        ..ServerConfig::default()
    }
}

/// An address nothing listens on: bind an ephemeral port, note it, and
/// close the listener.
fn closed_port() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap().to_string()
}

fn fanout_counter(metrics: &Json, name: &str) -> u64 {
    metrics
        .get("fanout")
        .and_then(|f| f.get(name))
        .and_then(Json::u64)
        .unwrap()
}

#[test]
fn unreachable_replica_falls_back_to_the_primary() {
    let dir = scratch_dir("closed-replica");
    let primaries = [
        Server::start_primary(dir.join("shard-0"), node_config()).unwrap(),
        Server::start_primary(dir.join("shard-1"), node_config()).unwrap(),
    ];
    let topology = Topology {
        shards: vec![
            ShardTopology {
                primary: primaries[0].addr().to_string(),
                replicas: vec![closed_port()],
            },
            ShardTopology {
                primary: primaries[1].addr().to_string(),
                replicas: Vec::new(),
            },
        ],
    };
    let coordinator = Coordinator::start(topology, CoordinatorConfig::default()).unwrap();
    let c = coordinator.addr().to_string();

    let mut union_db = tix::Database::new();
    for (name, xml) in CORPUS {
        let path = format!("/documents?name={}", client::encode_component(name));
        let r = client::request(&c, "POST", &path, xml.as_bytes(), TIMEOUT).unwrap();
        assert_eq!(r.status, 201, "{}", r.text());
        union_db.load(name, xml).unwrap();
    }
    union_db.build_index();
    assert!(
        CORPUS.iter().any(|(n, _)| tix_cluster::shard_of(n, 2) == 0),
        "no document on the shard with the dead replica"
    );

    let pick = tix::exec::pick::PickParams {
        relevance_threshold: 0.5,
        fraction: 0.5,
    };
    let r = client::get(&c, "/search?q=alpha+beta&k=5", TIMEOUT).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(
        r.text(),
        merge::expected_search_body(&union_db, &["alpha", "beta"], pick, 5)
    );
    let r = client::get(&c, "/phrase?q=alpha+beta", TIMEOUT).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(
        r.text(),
        merge::expected_phrase_body(&union_db, &["alpha", "beta"])
    );

    // Exactly one refused connection and one fallback per read, before
    // `/metrics` adds its own fan-out to the dead address.
    let own = Json::parse(&coordinator.metrics_json()).unwrap();
    assert_eq!(fanout_counter(&own, "errors"), 2);
    assert_eq!(fanout_counter(&own, "replica_fallbacks"), 2);
    assert_eq!(fanout_counter(&own, "stale_retries"), 0);

    let r = client::get(&c, "/metrics", TIMEOUT).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    let section = r.json().unwrap().get("coordinator").unwrap().clone();
    assert!(fanout_counter(&section, "replica_fallbacks") >= 1);
    assert!(fanout_counter(&section, "errors") >= 1);

    coordinator.shutdown();
    for primary in primaries {
        primary.shutdown();
    }
    let _ = std::fs::remove_dir_all(dir);
}
