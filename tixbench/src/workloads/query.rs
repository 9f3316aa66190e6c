//! `query_cold` and `query_hot`: a read-only server over a saved,
//! pack-backed corpus.

use std::time::Instant;

use tix_server::Server;

use super::{
    expected_hashes, first_checkable, first_correct_answer, replay_reads, rss_peak_mb, run_phases,
    set_median_secs, set_read_layers, set_server_counters, write_spans, Config,
};
use crate::client;
use crate::layers::{self, Saved};
use crate::report::{RunResult, Snapshot};
use crate::spec::SERVER_WORKERS;
use crate::stream::{make_stream, stream_hash, Req};
use crate::trace::Tracer;

/// Layer costs measured while setting up a saved, pack-backed corpus.
struct SetupLayers {
    index_build_s: f64,
    pack_ms: f64,
    index_bytes: u64,
    open_ms: f64,
    first_answer_ms: f64,
    parse_us_per_kb: f64,
    load_us_per_kb: f64,
}

pub(super) fn run(cfg: &Config) -> RunResult {
    let mut out = RunResult::new(cfg.workload, cfg.seed, cfg.trace);
    let generator = layers::generator(cfg.corpus, cfg.seed);
    let stream = make_stream(cfg.workload, cfg.seed, generator.document_count());
    let cycle = stream.len();

    // Set-up: generate → load → index → save store + v3 pack → reopen by
    // reference → boot → first answer.
    let mut setup_s = Vec::new();
    let mut live: Option<(Server, Saved)> = None;
    let mut layer_costs = None;
    for round in 0..cfg.setups() {
        if let Some((server, saved)) = live.take() {
            server.shutdown();
            saved.remove();
        }
        let dir = cfg.work.join(format!("corpus-{round}"));
        let t = Instant::now();
        let built = layers::build_database(&generator);
        let saved = layers::save_database(&built.db, &dir);
        let xml_bytes = built.xml_bytes;
        if cfg.trace {
            let (pack_ms, index_bytes) = layers::pack_cost(&built.db);
            let (parse_us_per_kb, load_us_per_kb) = layers::parse_and_load_cost(&generator, 100);
            let open_ms = layers::pack_open_ms(&saved);
            let t = Instant::now();
            let cold = layers::open_database(&saved);
            let first = layers::expected_body(&cold, &stream[0]);
            let first_answer_ms = t.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(first);
            layer_costs = Some(SetupLayers {
                index_build_s: built.index_build_s,
                pack_ms,
                index_bytes,
                open_ms,
                first_answer_ms,
                parse_us_per_kb,
                load_us_per_kb,
            });
        }
        drop(built);
        let server = layers::start_server(layers::open_database(&saved));
        let health = client::call(server.addr(), &Req::health().wire);
        let up = matches!(health, Ok((200, _)));
        setup_s.push(t.elapsed().as_secs_f64());
        if !up {
            out.problem("set-up: the server did not answer /health".to_string());
        }
        out.count(1, usize::from(!up));
        out.set(
            "disk_bytes_per_xml_byte",
            saved.disk_bytes() as f64 / xml_bytes.max(1) as f64,
        );
        out.note(
            "disk_bytes_per_xml_byte",
            format!("store snapshot + index sidecar over {xml_bytes} XML bytes"),
        );
        live = Some((server, saved));
    }
    let (server, saved) = live.expect("at least one set-up");
    set_median_secs(&mut out, "setup_s", "", &setup_s);

    let before = Snapshot::parse(&server.metrics_json());
    let window = Instant::now();
    let phases = run_phases(cfg, server.addr(), &stream);
    let window_s = window.elapsed().as_secs_f64();
    let after = Snapshot::parse(&server.metrics_json());
    out.set("rss_peak_mb", rss_peak_mb());
    phases.count(&mut out);

    // Checks: every hashed body against the in-process answer of a second
    // database opened from the same files.
    let reference = layers::open_database(&saved);
    let expected = expected_hashes(&stream, |req| layers::expected_body(&reference, req));
    phases.check(&mut out, cycle, &expected);

    if cfg.trace {
        let mut tracer = Tracer::new();
        set_server_counters(&mut out, &before, &after, window_s, SERVER_WORKERS);
        phases.set_client_layers(&mut out, &mut tracer, cycle);
        // A fresh by-reference open, so the decode counters show what the
        // sample alone touched.
        let lazy = layers::open_database(&saved);
        let replay = replay_reads(&lazy, &stream, &mut tracer);
        if replay.bodies != expected {
            out.problem("traced replay: a layer-by-layer body differs from Database's".to_string());
        }
        set_read_layers(&mut out, &tracer, &replay, &phases.timed_samples(), cycle);
        let (terms, blocks, total_blocks) = layers::pack_decoded(&lazy);
        out.set("pack.decoded_terms", terms as f64);
        out.set(
            "pack.decoded_blocks_share",
            blocks as f64 / total_blocks.max(1) as f64,
        );
        out.note(
            "pack.decoded_blocks_share",
            format!("{blocks} of {total_blocks} blocks"),
        );
        if let Some(costs) = layer_costs {
            out.set("index.build_s", costs.index_build_s);
            out.set("pack.pack_ms", costs.pack_ms);
            out.set("pack.index_bytes", costs.index_bytes as f64);
            out.set("pack.open_ms", costs.open_ms);
            out.set("pack.first_answer_ms", costs.first_answer_ms);
            out.set("xml.parse_us_per_kb", costs.parse_us_per_kb);
            out.set("store.load_us_per_kb", costs.load_us_per_kb);
        }
        out.set("client.stream_hash", stream_hash(&stream) as f64);
        write_spans(cfg, &tracer, &mut out);
        server.shutdown();
        return out;
    }

    phases.set_end_to_end(&mut out, cfg);
    server.shutdown();

    // Recovery: the saved files → a serving process → first correct
    // answer.
    let probe = first_checkable(&expected);
    let mut recovery_s = Vec::new();
    for _ in 0..cfg.recoveries() {
        let t = Instant::now();
        let server = layers::start_server(layers::open_database(&saved));
        first_correct_answer(
            &mut out,
            "recovery",
            server.addr(),
            &stream[probe],
            expected[probe],
        );
        recovery_s.push(t.elapsed().as_secs_f64());
        server.shutdown();
    }
    set_median_secs(&mut out, "recovery_s", "", &recovery_s);
    out
}
