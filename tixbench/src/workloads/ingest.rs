//! `ingest_mixed`: a closed-loop writer beside an open-loop reader on a
//! live server, then a recovery drill with a fixed amount of log.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use tix_cluster::Json;
use tix_server::Server;

use super::{
    count_phase, record_http_spans, replay_reads, rss_peak_mb, set_capacity, set_client_tail,
    set_connect_and_bytes, set_median_secs, set_read_latency, set_read_layers, set_server_counters,
    write_spans, Config,
};
use crate::client::{self, Load, Sample};
use crate::layers::{self, Built, WriteLab};
use crate::report::{RunResult, Snapshot};
use crate::spec::{
    CAPACITY_QUANTILE, FRESH_POOL, RECOVERY_WAL_RECORDS, SERVER_WORKERS, VERIFY_SAMPLE, WINDOWS,
    WRITE_SAMPLE,
};
use crate::stats;
use crate::stream::{make_stream, stream_hash, wire_bytes, Req};
use crate::trace::Tracer;

/// A document the writer knows to be live.
struct LiveDoc {
    name: String,
    xml_bytes: usize,
    /// Fresh documents carry a unique marker term; base articles do not.
    marker: Option<String>,
}

/// One acknowledged or failed mutation.
#[derive(Debug, Clone, Copy)]
struct WriteSample {
    insert: bool,
    latency_us: f64,
    status: u16,
    started_us: f64,
}

impl WriteSample {
    fn ok(&self) -> bool {
        client::is_ok(self.status)
    }
}

/// The closed-loop writer: alternates `DELETE` of the oldest live
/// document with `POST` of a fresh one, so the corpus keeps its size.
struct Writer<'a> {
    addr: SocketAddr,
    pool: &'a [String],
    live: VecDeque<LiveDoc>,
    /// Markers of fresh documents that were deleted again.
    deleted: Vec<String>,
    next_fresh: usize,
    next_is_insert: bool,
    buf: Vec<u8>,
}

impl Writer<'_> {
    fn fresh(&self, n: usize) -> (String, String, String) {
        let marker = format!("mk{n}");
        let xml = self.pool[n % self.pool.len()].replacen("<p>", &format!("<p>{marker} "), 1);
        (format!("live{n:07}.xml"), marker, xml)
    }

    fn send(&mut self, insert: bool, wire: &[u8], origin: Instant) -> WriteSample {
        let begin = Instant::now();
        let status = client::roundtrip(self.addr, wire, &mut self.buf, false)
            .map_or(0, |(reply, _)| reply.status);
        WriteSample {
            insert,
            latency_us: begin.elapsed().as_secs_f64() * 1e6,
            status,
            started_us: begin.saturating_duration_since(origin).as_secs_f64() * 1e6,
        }
    }

    /// The next mutation of the alternation.
    fn step(&mut self, origin: Instant) -> WriteSample {
        let insert = self.next_is_insert || self.live.is_empty();
        self.next_is_insert = !insert;
        if insert {
            let (name, marker, xml) = self.fresh(self.next_fresh);
            self.next_fresh += 1;
            let wire = wire_bytes("POST", &format!("/documents?name={name}"), xml.as_bytes());
            let sample = self.send(true, &wire, origin);
            if sample.ok() {
                self.live.push_back(LiveDoc {
                    name,
                    xml_bytes: xml.len(),
                    marker: Some(marker),
                });
            }
            sample
        } else {
            let doc = self.live.pop_front().expect("checked non-empty");
            let wire = wire_bytes("DELETE", &format!("/documents/{}", doc.name), b"");
            let sample = self.send(false, &wire, origin);
            if sample.ok() {
                self.deleted.extend(doc.marker);
            } else {
                self.live.push_front(doc);
            }
            sample
        }
    }

    fn run_until(&mut self, end: Instant, origin: Instant) -> Vec<WriteSample> {
        let mut samples = Vec::new();
        while Instant::now() < end {
            let sample = self.step(origin);
            if sample.status == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            samples.push(sample);
        }
        samples
    }

    fn live_xml_bytes(&self) -> u64 {
        self.live.iter().map(|d| d.xml_bytes as u64).sum()
    }

    /// Every acknowledged, not yet deleted marker term must be answerable
    /// and every deleted one must be gone. Checks an evenly spaced sample
    /// of up to 128 live and 32 deleted markers, newest included.
    fn check_markers(&self, out: &mut RunResult, label: &str) {
        let live: Vec<(&str, &str)> = self
            .live
            .iter()
            .filter_map(|d| Some((d.name.as_str(), d.marker.as_deref()?)))
            .collect();
        let pick = |len: usize, want: usize| -> Vec<usize> {
            let step = len.div_ceil(want.max(1)).max(1);
            let mut picked: Vec<usize> = (0..len).step_by(step).collect();
            if len > 0 && picked.last() != Some(&(len - 1)) {
                picked.push(len - 1);
            }
            picked
        };
        let (mut checked, mut bad) = (0usize, 0usize);
        for i in pick(live.len(), 128) {
            let (name, marker) = live[i];
            checked += 1;
            if !marker_found(self.addr, marker, Some(name)) {
                bad += 1;
                out.problem(format!(
                    "{label}: acknowledged document {name} is not answerable by {marker}"
                ));
            }
        }
        for i in pick(self.deleted.len(), 32) {
            checked += 1;
            if !marker_found(self.addr, &self.deleted[i], None) {
                bad += 1;
                out.problem(format!(
                    "{label}: deleted marker {} still answers",
                    self.deleted[i]
                ));
            }
        }
        out.count(checked, bad);
    }
}

/// Search for a marker term. With `doc`, every result must come from that
/// document and there must be one; without, there must be none.
fn marker_found(addr: SocketAddr, marker: &str, doc: Option<&str>) -> bool {
    let Ok((200, body)) = client::call(addr, &Req::search_one(marker).wire) else {
        return false;
    };
    let Ok(json) = Json::parse(&body) else {
        return false;
    };
    let results = json.get("results").map_or(&[][..], Json::items);
    match doc {
        Some(name) => {
            !results.is_empty()
                && results
                    .iter()
                    .all(|r| r.get("doc").and_then(Json::str) == Some(name))
        }
        None => results.is_empty(),
    }
}

/// The write path through the layers' public functions, at corpus size:
/// `xml`, `store` and `index` maintenance on a private copy, then `ingest`
/// stage, commit, checkpoint and replay on a private engine over `db`.
fn write_layers(
    cfg: &Config,
    out: &mut RunResult,
    tracer: &mut Tracer,
    writer: &Writer,
    db: &mut tix::Database,
    base_docs: &[(String, usize)],
    cycle: usize,
) {
    let mut lab = WriteLab::new(db);
    out.set("index.build_s", lab.index_build_s);
    let sample: Vec<(String, String)> = (0..WRITE_SAMPLE)
        .map(|n| {
            let (name, _, xml) = writer.fresh(1_000_000 + n);
            (name, xml)
        })
        .collect();
    let first_id = (2 * cycle) as u64;
    for (n, (name, xml)) in sample.iter().enumerate() {
        lab.insert(name, xml, first_id + n as u64, tracer);
    }
    for (n, (name, _)) in base_docs.iter().take(WRITE_SAMPLE).enumerate() {
        lab.remove(name, first_id + (WRITE_SAMPLE + n) as u64, tracer);
    }
    drop(lab);
    let kib: f64 = sample
        .iter()
        .map(|(_, xml)| xml.len() as f64 / 1024.0)
        .sum();
    let total = |name: &str| tracer.durations(name).iter().sum::<f64>();
    out.set("xml.parse_us_per_kb", total("xml.parse") / kib.max(1e-9));
    out.set("store.load_us_per_kb", total("store.load") / kib.max(1e-9));
    let engine = layers::replay_writes(
        &cfg.work.join("write-lab"),
        db,
        &sample,
        first_id + (2 * WRITE_SAMPLE) as u64,
        tracer,
    );
    for (span, metric) in [
        ("index.add", "index.add_us"),
        ("index.remove", "index.remove_us"),
        ("ingest.stage", "ingest.stage_us"),
        ("ingest.commit", "ingest.commit_us"),
    ] {
        out.set(metric, stats::median(&tracer.durations(span)));
    }
    out.set(
        "ingest.wal_bytes_per_doc_byte",
        engine.wal_bytes_per_doc_byte,
    );
    out.set("ingest.checkpoint_ms", engine.checkpoint_ms);
    out.set("ingest.replay_docs_per_s", engine.replay_docs_per_s);
}

pub(super) fn run(cfg: &Config) -> RunResult {
    let mut out = RunResult::new(cfg.workload, cfg.seed, cfg.trace);
    let generator = layers::generator(cfg.corpus, cfg.seed);
    let stream = make_stream(cfg.workload, cfg.seed, generator.document_count());
    let cycle = stream.len();
    let pool = layers::fresh_articles(cfg.corpus, cfg.seed, FRESH_POOL);

    // Set-up: generate → load → index → write as the live directory's
    // checkpoint → boot live → first acknowledged write (which turns the
    // pack-backed index into the in-memory one).
    let mut setup_s = Vec::new();
    let mut first_write_ms = 0.0;
    let mut live: Option<(Server, Writer, Built, PathBuf)> = None;
    for round in 0..cfg.setups() {
        if let Some((server, _, _, dir)) = live.take() {
            server.shutdown();
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = cfg.work.join(format!("live-{round}"));
        let t = Instant::now();
        let mut built = layers::build_database(&generator);
        layers::write_base_checkpoint(&dir, &mut built.db);
        let server = layers::start_live(&dir);
        let mut writer = Writer {
            addr: server.addr(),
            pool: &pool,
            live: built
                .docs
                .iter()
                .map(|(name, xml_bytes)| LiveDoc {
                    name: name.clone(),
                    xml_bytes: *xml_bytes,
                    marker: None,
                })
                .collect(),
            deleted: Vec::new(),
            next_fresh: 0,
            next_is_insert: true,
            buf: Vec::new(),
        };
        let first = writer.step(t);
        first_write_ms = first.latency_us / 1e3;
        setup_s.push(t.elapsed().as_secs_f64());
        if !first.ok() {
            out.problem(format!("set-up: first write answered {}", first.status));
        }
        out.count(1, usize::from(!first.ok()));
        live = Some((server, writer, built, dir));
    }
    let (server, mut writer, built, dir) = live.expect("at least one set-up");
    // Only the traced run replays through the set-up's own database.
    let built = cfg.trace.then_some(built);
    set_median_secs(&mut out, "setup_s", "", &setup_s);
    let addr = server.addr();

    // Warm-up, then the window: one closed-loop writer beside one
    // open-loop reader.
    let reader = Load {
        addr,
        stream: &stream,
        timed: cfg.trace,
        hash_below: 0,
    };
    let mixed = |writer: &mut Writer, first_pos: usize, span: Duration| {
        let origin = Instant::now();
        let end = origin + span;
        std::thread::scope(|scope| {
            let writes = scope.spawn(|| writer.run_until(end, origin));
            let reads = reader.open_loop(first_pos, 1, cfg.rate(), span);
            (writes.join().expect("writer thread"), reads, origin)
        })
    };
    let (warm_writes, warm_reads, _) = mixed(&mut writer, 0, cfg.warm());
    let before = Snapshot::parse(&server.metrics_json());
    // The traced window starts the cycle over; see `run_phases`.
    let first_read = if cfg.trace {
        0
    } else {
        warm_reads.samples.len()
    };
    let (writes, reads, origin) = mixed(&mut writer, first_read, cfg.whole());
    let window_s = origin.elapsed().as_secs_f64();
    let after = Snapshot::parse(&server.metrics_json());
    out.set("rss_peak_mb", rss_peak_mb());

    count_phase(&mut out, "warm-up reads", &warm_reads);
    count_phase(&mut out, "window reads", &reads);
    for (label, samples) in [("warm-up writes", &warm_writes), ("window writes", &writes)] {
        let bad = samples.iter().filter(|w| !w.ok()).count();
        if let Some(first) = samples.iter().find(|w| !w.ok()) {
            out.problem(format!(
                "{label}: {bad} of {} mutations failed (first: status {})",
                samples.len(),
                first.status
            ));
        }
        out.count(samples.len(), bad);
    }
    writer.check_markers(&mut out, "window end");

    let acked = writes.iter().filter(|w| w.ok()).count();
    let inserts: Vec<&WriteSample> = writes.iter().filter(|w| w.ok() && w.insert).collect();

    if let Some(built) = built {
        let mut tracer = Tracer::new();
        set_server_counters(&mut out, &before, &after, window_s, SERVER_WORKERS);
        set_client_tail(&mut out, &reads);
        let timed: Vec<&Sample> = reads.samples.iter().collect();
        set_connect_and_bytes(&mut out, &timed);
        record_http_spans(&mut tracer, &reads, origin, cycle);
        for (n, w) in writes.iter().take(VERIFY_SAMPLE).enumerate() {
            let at = |us: f64| origin + Duration::from_secs_f64(us.max(0.0) / 1e6);
            let name = if w.insert {
                "http.insert"
            } else {
                "http.delete"
            };
            tracer.record(
                name,
                at(w.started_us),
                at(w.started_us + w.latency_us),
                None,
                (cycle + n) as u64,
            );
        }

        // Writes as the client saw them.
        let insert_ms = stats::sorted(inserts.iter().map(|w| w.latency_us / 1e3).collect());
        out.set("client.write_docs_per_s", inserts.len() as f64 / window_s);
        out.set("client.write_p50_ms", stats::percentile(&insert_ms, 0.5));
        out.set("client.write_p95_ms", stats::percentile(&insert_ms, 0.95));
        for name in ["client.write_p50_ms", "client.write_p95_ms"] {
            out.note(name, format!("insert acks, n={}", insert_ms.len()));
        }
        out.set("ingest.first_write_ms", first_write_ms);

        // The write path's server-side counts over the window.
        let d = |path: &[&str]| before.delta(&after, path);
        let mutations = d(&["ingest", "inserts"]) + d(&["ingest", "removes"]);
        out.set("ingest.checkpoints", d(&["ingest", "checkpoints"]));
        out.set(
            "ingest.fsyncs_per_doc",
            d(&["commit", "fsyncs"]) / mutations.max(1.0),
        );
        out.set(
            "ingest.frames_per_batch",
            d(&["commit", "frames"]) / d(&["commit", "batches"]).max(1.0),
        );
        out.set(
            "ingest.checkpoint_stall_us",
            d(&["commit", "checkpoint_stall_us"]),
        );
        server.shutdown();

        // Reads through the layers, on the set-up's own database.
        let mut db = built.db;
        let replay = replay_reads(&db, &stream, &mut tracer);
        set_read_layers(&mut out, &tracer, &replay, &timed, cycle);

        write_layers(
            cfg,
            &mut out,
            &mut tracer,
            &writer,
            &mut db,
            &built.docs,
            cycle,
        );
        out.set("client.stream_hash", stream_hash(&stream) as f64);
        write_spans(cfg, &tracer, &mut out);
        return out;
    }

    let done: Vec<f64> = writes
        .iter()
        .filter(|w| w.ok())
        .map(|w| (w.started_us + w.latency_us) / 1e6)
        .collect();
    set_capacity(&mut out, &done, cfg.whole(), acked as f64 / window_s);
    out.note(
        "capacity_rps",
        format!(
            "p{:.0} of {WINDOWS} windows; {acked} acknowledged mutations ({} inserts) in {window_s:.2} s = {:.1}/s overall, one closed-loop writer",
            CAPACITY_QUANTILE * 100.0,
            inserts.len(),
            acked as f64 / window_s
        ),
    );
    set_read_latency(&mut out, &reads, cfg.whole());

    // Recovery drill with a fixed amount of log: force a checkpoint,
    // write a fixed number of mutations, stop without a final checkpoint,
    // reopen.
    let forced = client::call(addr, &wire_bytes("POST", "/admin/checkpoint", b""));
    let forced_ok = matches!(forced, Ok((200, _)));
    if !forced_ok {
        out.problem("recovery drill: forced checkpoint failed".to_string());
    }
    out.count(1, usize::from(!forced_ok));
    let tail: Vec<WriteSample> = (0..RECOVERY_WAL_RECORDS)
        .map(|_| writer.step(origin))
        .collect();
    out.count(tail.len(), tail.iter().filter(|w| !w.ok()).count());
    server.shutdown();
    let live_xml = writer.live_xml_bytes();
    out.set(
        "disk_bytes_per_xml_byte",
        layers::dir_bytes(&dir) as f64 / live_xml.max(1) as f64,
    );
    out.note(
        "disk_bytes_per_xml_byte",
        format!(
            "checkpoint pair + WAL of {RECOVERY_WAL_RECORDS} records over {live_xml} live XML bytes"
        ),
    );
    let newest = writer
        .live
        .iter()
        .rev()
        .find_map(|d| Some((d.name.clone(), d.marker.clone()?)));
    let mut recovery_s = Vec::new();
    for round in 0..cfg.recoveries() {
        let t = Instant::now();
        let server = layers::start_live(&dir);
        let found = newest
            .as_ref()
            .is_some_and(|(name, marker)| marker_found(server.addr(), marker, Some(name)));
        recovery_s.push(t.elapsed().as_secs_f64());
        if !found {
            out.problem("recovery: the newest acknowledged document is not answerable".to_string());
        }
        out.count(1, usize::from(!found));
        if round + 1 == cfg.recoveries() {
            writer.addr = server.addr();
            writer.check_markers(&mut out, "after reopen");
        }
        server.shutdown();
    }
    set_median_secs(
        &mut out,
        "recovery_s",
        &format!("checkpoint load + replay of {RECOVERY_WAL_RECORDS} records, "),
        &recovery_s,
    );
    out
}
