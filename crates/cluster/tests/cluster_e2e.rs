//! End-to-end cluster tests over real sockets: sharded ingest through
//! the coordinator, scatter-gather reads, query routing, replication
//! convergence, merged metrics, and cluster health.

use std::time::Duration;

use tix_cluster::{local::scratch_dir, Json, LocalCluster};

fn boot(label: &str, shards: usize, replicas: usize) -> (LocalCluster, std::path::PathBuf) {
    let dir = scratch_dir(label);
    let cluster = LocalCluster::start(&dir, shards, replicas).unwrap();
    (cluster, dir)
}

fn teardown(cluster: LocalCluster, dir: std::path::PathBuf) {
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

// Names chosen to spread over shards: under the CRC-32 router the six
// documents cover both shards at 2 shards and all four at 4.
const CORPUS: [(&str, &str); 6] = [
    ("a0.xml", "<d><s><p>alpha beta gamma</p></s></d>"),
    ("a8.xml", "<d><p>beta beta delta</p><p>alpha</p></d>"),
    ("b0.xml", "<d><s><p>gamma</p><p>epsilon alpha</p></s></d>"),
    ("b8.xml", "<d><p>zeta alpha beta</p></d>"),
    ("c0.xml", "<d><p>alpha beta</p><p>alpha beta</p></d>"),
    ("c8.xml", "<d><s><p>beta gamma</p></s><p>alpha</p></d>"),
];

fn load_corpus(cluster: &LocalCluster) {
    for (name, xml) in CORPUS {
        let (status, body) = cluster.insert(name, xml).unwrap();
        assert_eq!(status, 201, "{name}: {body}");
    }
}

#[test]
fn writes_route_by_name_hash_and_reads_see_every_shard() {
    let (cluster, dir) = boot("route", 2, 0);
    load_corpus(&cluster);

    // Placement matches the deterministic router: each primary holds
    // exactly the documents hashed to its shard.
    let mut expected = [0usize; 2];
    for (name, _) in CORPUS {
        expected[tix_cluster::shard_of(name, 2)] += 1;
    }
    for (shard, group) in cluster.shards().iter().enumerate() {
        let health = group.primary.metrics_json();
        assert!(!health.is_empty());
        let docs = group.primary.reload(|db| db.store().doc_count());
        assert_eq!(docs, expected[shard], "shard {shard} doc count");
    }
    assert!(expected.iter().all(|&n| n > 0), "corpus spans both shards");

    // A scatter-gather search sees hits from documents on both shards.
    let (status, body) = cluster.get("/search?q=alpha&k=20").unwrap();
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).unwrap();
    let names: Vec<&str> = doc
        .get("results")
        .unwrap()
        .items()
        .iter()
        .filter_map(|r| r.get("name").and_then(Json::str))
        .collect();
    let shards_hit: std::collections::HashSet<usize> =
        names.iter().map(|n| tix_cluster::shard_of(n, 2)).collect();
    assert_eq!(shards_hit.len(), 2, "hits from one shard only: {names:?}");

    // `k=0` asks for no results, and gets none, as from a node.
    let (status, body) = cluster.get("/search?q=alpha&k=0").unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, "{\"k\":0,\"count\":0,\"results\":[]}");

    // Phrase scatter-gather: "alpha beta" occurs on specific documents.
    let (status, body) = cluster.get("/phrase?q=alpha+beta").unwrap();
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert!(doc.get("count").unwrap().u64().unwrap() >= 2, "{body}");

    teardown(cluster, dir);
}

#[test]
fn query_routes_to_the_owning_shard_and_rejects_cross_shard_joins() {
    let (cluster, dir) = boot("query", 2, 0);
    load_corpus(&cluster);

    // Single-document query: forwarded to the shard that owns a0.xml.
    let q = "For $p in document(\"a0.xml\")//p Return $p";
    let (status, body) = cluster.request("POST", "/query", q.as_bytes()).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("alpha beta gamma"), "{body}");

    // A document that exists nowhere: the owning shard's own error
    // passes through verbatim.
    let q = "For $p in document(\"missing.xml\")//p Return $p";
    let (status, body) = cluster.request("POST", "/query", q.as_bytes()).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("is not loaded"), "{body}");

    // Parse errors are caught at the coordinator.
    let (status, body) = cluster
        .request("POST", "/query", b"Fro $x in nonsense")
        .unwrap();
    assert_eq!(status, 400, "{body}");

    // A join whose two documents live on different shards answers 501.
    let (one, other) = {
        let mut by_shard: [Option<&str>; 2] = [None, None];
        for (name, _) in CORPUS {
            by_shard[tix_cluster::shard_of(name, 2)].get_or_insert(name);
        }
        (by_shard[0].unwrap(), by_shard[1].unwrap())
    };
    let q =
        format!("For $a in document(\"{one}\")//p For $b in document(\"{other}\")//p Return $a");
    let (status, body) = cluster.request("POST", "/query", q.as_bytes()).unwrap();
    assert_eq!(status, 501, "{body}");
    assert!(body.contains("cross-shard"), "{body}");

    teardown(cluster, dir);
}

#[test]
fn followers_replicate_and_reject_writes() {
    let (cluster, dir) = boot("replicate", 2, 1);
    load_corpus(&cluster);
    assert!(
        cluster.wait_replicated(Duration::from_secs(20)),
        "followers never caught up"
    );
    for group in cluster.shards() {
        let target = group.primary.applied_lsn();
        for replica in &group.replicas {
            assert_eq!(replica.applied_lsn(), target);
            let docs = replica.reload(|db| db.store().doc_count());
            let primary_docs = group.primary.reload(|db| db.store().doc_count());
            assert_eq!(docs, primary_docs, "replica store diverged");
        }
    }

    // Writes against a follower are refused: replication is the only
    // way data reaches a replica.
    let group = &cluster.shards()[0];
    let addr = group.replicas[0].addr().to_string();
    let response = tix_cluster::client::request(
        &addr,
        "POST",
        "/documents?name=direct.xml",
        b"<d><p>x</p></d>",
        Duration::from_secs(5),
    )
    .unwrap();
    assert_eq!(response.status, 403, "{}", response.text());

    // Removals replicate too.
    let (status, body) = cluster.remove("a0.xml").unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(cluster.wait_replicated(Duration::from_secs(20)));
    let shard = tix_cluster::shard_of("a0.xml", 2);
    for replica in &cluster.shards()[shard].replicas {
        let has = replica.reload(|db| {
            db.store()
                .doc_ids()
                .any(|id| db.store().doc(id).name() == "a0.xml")
        });
        assert!(!has, "a0.xml still on a replica after replicated removal");
    }

    teardown(cluster, dir);
}

#[test]
fn health_reports_roles_generations_and_lsns() {
    let (cluster, dir) = boot("health", 2, 1);
    load_corpus(&cluster);
    assert!(cluster.wait_replicated(Duration::from_secs(20)));

    let (status, body) = cluster.get("/health").unwrap();
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("status").unwrap().str(), Some("ok"), "{body}");
    assert_eq!(doc.get("shards").unwrap().u64(), Some(2));
    let nodes = doc.get("nodes").unwrap().items();
    assert_eq!(nodes.len(), 4);
    for node in nodes {
        let health = node.get("health").unwrap();
        let role = health.get("role").and_then(Json::str).unwrap();
        let expected = node.get("expected_role").and_then(Json::str).unwrap();
        assert_eq!(role, expected, "{body}");
        assert!(health.get("generation").and_then(Json::u64).is_some());
        assert!(health.get("applied_lsn").and_then(Json::u64).is_some());
        assert!(health.get("checkpoint_seq").and_then(Json::u64).is_some());
    }

    // /status is an alias.
    let (status, alias) = cluster.get("/status").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        Json::parse(&alias).unwrap().get("shards").unwrap().u64(),
        Some(2)
    );

    teardown(cluster, dir);
}

#[test]
fn metrics_merge_sums_nodes_and_keeps_breakdown() {
    let (cluster, dir) = boot("metrics", 2, 1);
    load_corpus(&cluster);
    for _ in 0..3 {
        let (status, _) = cluster.get("/search?q=alpha&k=5").unwrap();
        assert_eq!(status, 200);
    }

    let (status, body) = cluster.get("/metrics").unwrap();
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).unwrap();

    // The coordinator's own section carries its fan-out accounting.
    let coordinator = doc.get("coordinator").unwrap();
    assert!(
        coordinator
            .get("fanout")
            .unwrap()
            .get("requests")
            .unwrap()
            .u64()
            .unwrap()
            > 0
    );
    assert_eq!(
        coordinator
            .get("endpoints")
            .unwrap()
            .get("search")
            .unwrap()
            .u64(),
        Some(3)
    );

    // The merged section sums per-node counters: every shard served
    // cluster reads, so the cluster-wide count is ≥ the per-node one.
    let cluster_doc = doc.get("cluster").unwrap();
    let merged_cluster_reqs = cluster_doc
        .get("endpoints")
        .unwrap()
        .get("cluster")
        .unwrap()
        .u64()
        .unwrap();
    assert!(
        merged_cluster_reqs >= 6,
        "{merged_cluster_reqs} cluster-endpoint hits merged"
    );
    // Histograms merged bucket-wise: count equals the bucket sum.
    let latency = cluster_doc.get("latency").unwrap();
    let bucket_sum: u64 = latency
        .get("buckets")
        .unwrap()
        .items()
        .iter()
        .filter_map(Json::u64)
        .sum();
    assert_eq!(latency.get("count").unwrap().u64(), Some(bucket_sum));

    // Per-node breakdown lists every node with its own document.
    let nodes = doc.get("nodes").unwrap().items();
    assert_eq!(nodes.len(), 4);
    for node in nodes {
        assert!(node.get("metrics").unwrap().get("requests_total").is_some());
    }

    teardown(cluster, dir);
}

#[test]
fn admin_checkpoint_hits_every_primary() {
    let (cluster, dir) = boot("checkpoint", 2, 0);
    load_corpus(&cluster);
    let (status, body) = cluster.request("POST", "/admin/checkpoint", &[]).unwrap();
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).unwrap();
    let shards = doc.get("shards").unwrap().items();
    assert_eq!(shards.len(), 2);
    for shard in shards {
        assert!(
            shard.get("checkpoint").and_then(Json::u64).unwrap() >= 1,
            "{body}"
        );
    }
    teardown(cluster, dir);
}

#[test]
fn cluster_survives_restart_of_every_node() {
    let dir = scratch_dir("restart");
    {
        let cluster = LocalCluster::start(&dir, 2, 1).unwrap();
        load_corpus(&cluster);
        assert!(cluster.wait_replicated(Duration::from_secs(20)));
        cluster.shutdown();
    }
    // Same directories, fresh processes-worth of servers: recovery
    // replays checkpoint + WAL on every node; the corpus survives.
    let cluster = LocalCluster::start(&dir, 2, 1).unwrap();
    let (status, body) = cluster.get("/search?q=alpha&k=20").unwrap();
    assert_eq!(status, 200, "{body}");
    let count = Json::parse(&body)
        .unwrap()
        .get("count")
        .unwrap()
        .u64()
        .unwrap();
    assert!(count > 0, "corpus lost across restart: {body}");
    teardown(cluster, dir);
}
