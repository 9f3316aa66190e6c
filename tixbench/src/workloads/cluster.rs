//! `cluster_scatter`: reads through the coordinator of an in-process
//! cluster of 2 shards × (primary + replica).

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use tix_cluster::LocalCluster;

use super::{
    expected_hashes, first_checkable, first_correct_answer, replay_reads, rss_peak_mb, run_phases,
    set_median_secs, set_read_layers, set_server_counters, write_spans, Config,
};
use crate::client;
use crate::layers;
use crate::report::{RunResult, Snapshot};
use crate::spec::{COORDINATOR_WORKERS, VERIFY_SAMPLE};
use crate::stats;
use crate::stream::{make_stream, stream_hash, wire_bytes, TOP_K};
use crate::trace::Tracer;

/// Load `docs` through the coordinator with a closed loop of `clients`;
/// returns how many inserts were not acknowledged with 201.
fn load_through_coordinator(addr: SocketAddr, docs: &[(String, String)], clients: usize) -> usize {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut bad = 0usize;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((name, xml)) = docs.get(i) else {
                            return bad;
                        };
                        let wire =
                            wire_bytes("POST", &format!("/documents?name={name}"), xml.as_bytes());
                        if !matches!(client::call(addr, &wire), Ok((201, _))) {
                            bad += 1;
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loader thread"))
            .sum()
    })
}

/// Every node's `/metrics`, primaries first within each shard.
fn node_snapshots(cluster: &LocalCluster) -> Vec<(bool, Snapshot)> {
    cluster
        .shards()
        .iter()
        .flat_map(|shard| {
            std::iter::once((false, Snapshot::parse(&shard.primary.metrics_json()))).chain(
                shard
                    .replicas
                    .iter()
                    .map(|r| (true, Snapshot::parse(&r.metrics_json()))),
            )
        })
        .collect()
}

pub(super) fn run(cfg: &Config) -> RunResult {
    let mut out = RunResult::new(cfg.workload, cfg.seed, cfg.trace);
    let generator = layers::generator(cfg.corpus, cfg.seed);
    let stream = make_stream(cfg.workload, cfg.seed, generator.document_count());
    let cycle = stream.len();

    // Set-up: generate → boot 2 shards × (primary + replica) + coordinator
    // → load every article through the coordinator → replicas caught up →
    // first answer.
    let mut setup_s = Vec::new();
    let mut live: Option<(LocalCluster, PathBuf)> = None;
    let mut docs = Vec::new();
    for round in 0..cfg.setups() {
        if let Some((cluster, dir)) = live.take() {
            cluster.shutdown();
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = cfg.work.join(format!("cluster-{round}"));
        let t = Instant::now();
        docs = generator.documents().collect::<Vec<_>>();
        let cluster = layers::start_cluster(&dir);
        let addr = layers::coordinator_addr(&cluster);
        let unacked = load_through_coordinator(addr, &docs, cfg.clients);
        let replicated = layers::wait_replicated(&cluster);
        let first = client::call(addr, &stream[0].wire);
        setup_s.push(t.elapsed().as_secs_f64());
        if unacked > 0 || !replicated || !matches!(first, Ok((200, _))) {
            out.problem(format!(
                "set-up: {unacked} inserts unacknowledged, replicated={replicated}, first answer ok={}",
                matches!(first, Ok((200, _)))
            ));
        }
        out.count(docs.len() + 1, unacked + usize::from(!replicated));
        live = Some((cluster, dir));
    }
    let (cluster, dir) = live.expect("at least one set-up");
    set_median_secs(&mut out, "setup_s", "", &setup_s);
    let xml_bytes: u64 = docs.iter().map(|(_, xml)| xml.len() as u64).sum();
    let addr = layers::coordinator_addr(&cluster);

    let before = Snapshot::parse(&cluster.coordinator().metrics_json());
    let nodes_before = node_snapshots(&cluster);
    let window = Instant::now();
    let phases = run_phases(cfg, addr, &stream);
    let window_s = window.elapsed().as_secs_f64();
    let after = Snapshot::parse(&cluster.coordinator().metrics_json());
    let nodes_after = node_snapshots(&cluster);
    out.set("rss_peak_mb", rss_peak_mb());
    phases.count(&mut out);

    // Checks: the coordinator's bodies against a single-node database
    // holding every shard's documents.
    let union = layers::union_database(&docs);
    let expected = expected_hashes(&stream, |req| layers::cluster_expected_body(&union, req));
    phases.check(&mut out, cycle, &expected);

    if cfg.trace {
        let mut tracer = Tracer::new();
        // The coordinator keeps the node servers' queue and latency
        // counters under the same names; it has no result cache.
        set_server_counters(&mut out, &before, &after, window_s, COORDINATOR_WORKERS);
        phases.set_client_layers(&mut out, &mut tracer, cycle);
        let d = |path: &[&str]| before.delta(&after, path);
        out.set("cluster.fanout_errors", d(&["fanout", "errors"]));
        out.set(
            "cluster.stale_fallbacks",
            d(&["fanout", "stale_retries"]) + d(&["fanout", "replica_fallbacks"]),
        );
        let shard_reads = |replicas_only: bool| -> f64 {
            nodes_before
                .iter()
                .zip(&nodes_after)
                .filter(|((is_replica, _), _)| *is_replica || !replicas_only)
                .map(|((_, b), (_, a))| b.delta(a, &["endpoints", "cluster"]))
                .sum()
        };
        out.set(
            "cluster.replica_read_share",
            shard_reads(true) / shard_reads(false).max(1.0),
        );

        // The sample once more, request by request: the coordinator's
        // round trip beside each shard's own answer and the merge.
        let primaries = layers::primary_addrs(&cluster);
        let (mut coord_us, mut slowest_us, mut merge_us, mut hits) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut buf = Vec::new();
        for (slot, req) in stream.iter().take(VERIFY_SAMPLE).enumerate() {
            let id = (cycle + slot) as u64;
            let t = Instant::now();
            let answered = client::roundtrip(addr, &req.wire, &mut buf, false);
            let root = tracer.record("coordinator", t, Instant::now(), None, id);
            let good = answered.is_ok_and(|(reply, _)| reply.status == 200);
            out.count(1, usize::from(!good));
            coord_us.push(tracer.spans()[root].duration_us());
            let shard_wire = wire_bytes("GET", &layers::shard_target(req), b"");
            let mut bodies = Vec::new();
            let mut slowest = 0.0f64;
            for &primary in &primaries {
                let t = Instant::now();
                let answer = client::call(primary, &shard_wire);
                let span = tracer.record("shard", t, Instant::now(), None, id);
                slowest = slowest.max(tracer.spans()[span].duration_us());
                match answer {
                    Ok((200, body)) => bodies.push(body),
                    _ => out.count(1, 1),
                }
            }
            slowest_us.push(slowest);
            let t = Instant::now();
            let per_shard = layers::merge_shard_bodies(req, &bodies);
            let span = tracer.record("merge", t, Instant::now(), None, id);
            merge_us.push(tracer.spans()[span].duration_us());
            hits.extend(per_shard.into_iter().map(|n| n as f64));
        }
        out.set("cluster.shard_us_max", stats::median(&slowest_us));
        out.set(
            "cluster.coordinator_overhead_us",
            stats::median(&coord_us) - stats::median(&slowest_us),
        );
        out.note(
            "cluster.coordinator_overhead_us",
            format!(
                "coordinator round trip {:.0} us, median of n={}",
                stats::median(&coord_us),
                coord_us.len()
            ),
        );
        out.set("cluster.merge_us", stats::median(&merge_us));
        out.set("cluster.shard_hits_returned", stats::mean(&hits));
        out.note(
            "cluster.shard_hits_returned",
            format!("mean per shard response, k={TOP_K}"),
        );

        let replay = replay_reads(&union, &stream, &mut tracer);
        set_read_layers(&mut out, &tracer, &replay, &phases.timed_samples(), cycle);
        out.set("client.stream_hash", stream_hash(&stream) as f64);
        write_spans(cfg, &tracer, &mut out);
        cluster.shutdown();
        return out;
    }
    drop(union);

    phases.set_end_to_end(&mut out, cfg);
    cluster.shutdown();
    out.set(
        "disk_bytes_per_xml_byte",
        layers::dir_bytes(&dir) as f64 / xml_bytes.max(1) as f64,
    );
    out.note(
        "disk_bytes_per_xml_byte",
        format!("every node's directory over {xml_bytes} XML bytes"),
    );

    // Recovery: the nodes' directories → a serving cluster → first
    // correct answer from the coordinator.
    let probe = first_checkable(&expected);
    let mut recovery_s = Vec::new();
    for _ in 0..cfg.recoveries() {
        let t = Instant::now();
        let cluster = layers::start_cluster(&dir);
        let addr = layers::coordinator_addr(&cluster);
        first_correct_answer(&mut out, "recovery", addr, &stream[probe], expected[probe]);
        recovery_s.push(t.elapsed().as_secs_f64());
        cluster.shutdown();
    }
    set_median_secs(&mut out, "recovery_s", "", &recovery_s);
    out
}
