//! Closed-loop serving benchmark for `tix-server`.
//!
//! Boots an in-process server over a generated corpus (or targets an
//! already-running one), then runs N closed-loop clients — each sends a
//! request, waits for the full response, and immediately sends the next —
//! until a shared request budget is spent. Reports throughput and
//! client-observed p50/p95/p99 latency, and writes
//! `results/BENCH_serving.json`.
//!
//! The query mix rotates over `/search` (single- and two-term), `/phrase`,
//! and `/health`, using the generated corpus's background vocabulary
//! (`w0`…`w9`), so repeated queries exercise the result cache the way a
//! real skewed workload would.
//!
//! Environment:
//! * `TIX_SERVE_ADDR`     — target an external server instead of booting
//!   one in-process (e.g. `127.0.0.1:7878`; used by the CI smoke job);
//! * `TIX_SERVE_ARTICLES` — self-boot corpus size (default 200);
//! * `TIX_SERVE_CLIENTS`  — concurrent closed-loop clients (default 4);
//! * `TIX_SERVE_REQUESTS` — total request budget (default 2000).
//!
//! Any response outside 2xx/503 — or any transport error — fails the run
//! with exit code 1, so the CI smoke job doubles as a correctness check.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tix::Database;
use tix_corpus::{CorpusSpec, Generator, PlantSpec};
use tix_server::metrics::LatencyHistogram;
use tix_server::{Server, ServerConfig};

/// Per-status-class outcome counts shared by every client.
#[derive(Default)]
struct Outcomes {
    ok: AtomicU64,
    shed: AtomicU64,
    failed: AtomicU64,
}

fn main() {
    let clients: usize = env_parse("TIX_SERVE_CLIENTS", 4).max(1);
    let budget: usize = env_parse("TIX_SERVE_REQUESTS", 2000).max(1);
    let external = std::env::var("TIX_SERVE_ADDR").ok();

    // Self-boot mode builds its own corpus + server; external mode targets
    // a server somebody else booted (the CI smoke job boots `tix serve`).
    let server = if external.is_none() {
        let articles: usize = env_parse("TIX_SERVE_ARTICLES", 200).max(1);
        eprintln!("booting in-process server over {articles} generated articles …");
        let spec = CorpusSpec {
            articles,
            ..CorpusSpec::small()
        };
        let generator = Generator::new(spec, PlantSpec::default()).expect("valid corpus spec");
        let mut db = Database::new();
        generator.load_into(db.store_mut()).expect("corpus loads");
        db.build_index();
        Some(Server::start(db, ServerConfig::default()).expect("server boots"))
    } else {
        None
    };
    let addr: String = match (&server, &external) {
        (Some(s), _) => s.addr().to_string(),
        (None, Some(a)) => a.clone(),
        (None, None) => unreachable!(),
    };
    eprintln!("target: http://{addr}  clients: {clients}  budget: {budget}");

    let next = AtomicUsize::new(0);
    let outcomes = Outcomes::default();
    let latency = LatencyHistogram::default();

    let started = Instant::now();
    // One closed loop per client, drawing request numbers from the shared
    // budget counter.
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let seq = next.fetch_add(1, Ordering::Relaxed);
                if seq >= budget {
                    break;
                }
                let target = request_target(seq);
                let begin = Instant::now();
                match roundtrip(&addr, &target) {
                    Ok(status) if (200..300).contains(&status) => {
                        latency.record(begin.elapsed());
                        outcomes.ok.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(503) => {
                        // Load shedding is a correct answer under saturation; count
                        // it separately and briefly back off, as a client honoring
                        // Retry-After would.
                        outcomes.shed.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Ok(status) => {
                        eprintln!("FAIL: {target} answered {status}");
                        outcomes.failed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => {
                        eprintln!("FAIL: {target}: {e}");
                        outcomes.failed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let elapsed = started.elapsed();

    let ok = outcomes.ok.load(Ordering::Relaxed);
    let shed = outcomes.shed.load(Ordering::Relaxed);
    let failed = outcomes.failed.load(Ordering::Relaxed);
    let throughput = ok as f64 / elapsed.as_secs_f64().max(1e-9);
    let (p50, p95, p99) = (
        latency.quantile_micros(0.50),
        latency.quantile_micros(0.95),
        latency.quantile_micros(0.99),
    );

    println!("\n## Serving benchmark ({clients} clients, {budget} requests)\n");
    println!("| metric | value |");
    println!("|---|---:|");
    println!("| completed (2xx) | {ok} |");
    println!("| shed (503) | {shed} |");
    println!("| failed | {failed} |");
    println!("| wall time (s) | {:.3} |", elapsed.as_secs_f64());
    println!("| throughput (req/s) | {throughput:.1} |");
    println!("| p50 (µs) | {p50} |");
    println!("| p95 (µs) | {p95} |");
    println!("| p99 (µs) | {p99} |");

    if let Some(server) = &server {
        eprintln!("server metrics: {}", server.metrics_json());
    }

    let mut json = String::from("{\n");
    writeln!(json, "  \"experiment\": \"serving\",").unwrap();
    writeln!(json, "  \"clients\": {clients},").unwrap();
    writeln!(json, "  \"requests\": {budget},").unwrap();
    writeln!(json, "  \"completed_2xx\": {ok},").unwrap();
    writeln!(json, "  \"shed_503\": {shed},").unwrap();
    writeln!(json, "  \"failed\": {failed},").unwrap();
    writeln!(json, "  \"wall_s\": {:.4},", elapsed.as_secs_f64()).unwrap();
    writeln!(json, "  \"throughput_rps\": {throughput:.2},").unwrap();
    writeln!(
        json,
        "  \"latency_us\": {{ \"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99}, \"mean\": {} }}",
        latency.mean_micros()
    )
    .unwrap();
    json.push_str("}\n");
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_serving.json", &json).expect("write BENCH_serving.json");
    eprintln!("wrote results/BENCH_serving.json");

    if let Some(server) = server {
        server.shutdown();
    }
    if failed > 0 {
        eprintln!("error: {failed} requests failed");
        std::process::exit(1);
    }
}

/// The rotating query mix. Skewed on purpose: a third of searches repeat
/// the same two-term query so the result cache sees realistic reuse.
fn request_target(seq: usize) -> String {
    match seq % 6 {
        0 | 3 => "/search?q=w0+w1&k=10".to_string(),
        1 => format!("/search?q=w{}&k=10", seq % 10),
        2 => format!("/search?q=w{}+w{}&k=5", seq % 10, (seq + 1) % 10),
        4 => format!("/phrase?q=w{}+w{}", seq % 10, (seq + 1) % 10),
        _ => "/health".to_string(),
    }
}

/// One full HTTP round trip; returns the response status.
fn roundtrip(addr: &str, target: &str) -> Result<u16, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    let header = String::from_utf8_lossy(&response);
    header
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("unparsable response: {:.60}", header))
}

fn env_parse<T: std::str::FromStr>(var: &str, default: T) -> T {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
