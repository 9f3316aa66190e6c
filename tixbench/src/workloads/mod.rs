//! The four workloads. Each one: set-up (several times, `setup_s` is the
//! median) → warm-up (not timed) → phase A, a closed loop of `nproc`
//! clients → phase B, an open loop at the workload's fixed rate → checks
//! → recovery drill. The traced variant sets up once, measures the same
//! phases with client-side spans, replays a sample through the layers'
//! public functions and writes the spans out.

mod cluster;
mod ingest;
mod query;

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use tix::Database;

use crate::client::{self, Load, Phase, Sample};
use crate::layers::{self, ReadStats};
use crate::report::{RunResult, Snapshot};
use crate::spec::{
    CorpusSize, Workload, CAPACITY_QUANTILE, LATE_US, RECOVERY_REPEATS, SETUP_REPEATS,
    VERIFY_SAMPLE, WINDOWS,
};
use crate::stats;
use crate::stream::{fnv1a, Req};
use crate::trace::Tracer;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Measured seconds: phase A takes a third, phase B two thirds.
    pub seconds: f64,
    pub trace: bool,
    /// `--quick`: tiny corpus, one set-up, a fraction of the fixed rate.
    pub quick: bool,
    pub corpus: CorpusSize,
    /// Scratch directory of this run (inside the checkout).
    pub work: PathBuf,
    /// Where the traced run writes `trace-<workload>.json`.
    pub trace_dir: PathBuf,
    /// Sender threads = connections in flight = `nproc`.
    pub clients: usize,
}

impl Config {
    fn warm(&self) -> Duration {
        Duration::from_secs_f64((self.seconds / 10.0).clamp(0.3, 1.5))
    }

    fn phase_a(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 3.0)
    }

    fn phase_b(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * 2.0 / 3.0)
    }

    fn whole(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    fn setups(&self) -> usize {
        if self.trace || self.quick {
            1
        } else {
            SETUP_REPEATS
        }
    }

    fn recoveries(&self) -> usize {
        if self.trace || self.quick {
            1
        } else {
            RECOVERY_REPEATS
        }
    }

    fn rate(&self) -> f64 {
        let rate = self.workload.open_loop_rps();
        if self.quick {
            rate / 4.0
        } else {
            rate
        }
    }
}

pub fn run(cfg: &Config) -> RunResult {
    std::fs::create_dir_all(&cfg.work).expect("create scratch directory");
    let result = match cfg.workload {
        Workload::QueryCold | Workload::QueryHot => query::run(cfg),
        Workload::IngestMixed => ingest::run(cfg),
        Workload::ClusterScatter => cluster::run(cfg),
    };
    let _ = std::fs::remove_dir_all(&cfg.work);
    result
}

// ---- shared pieces ----------------------------------------------------------

/// `VmHWM` of this process in MiB. Read when the measured window ends:
/// the peak of set-up and serving (checkpoints included), before the
/// benchmark's own reference databases and recovery drills add to it.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `setup_s` / `recovery_s`: the median of the repeats, with all of them
/// in the note.
fn set_median_secs(out: &mut RunResult, name: &'static str, what: &str, secs: &[f64]) {
    out.set(name, stats::median(secs));
    out.note(name, format!("{what}median of {secs:.3?}"));
}

/// Count a phase's requests and its failures (transport errors and
/// non-2xx answers).
fn count_phase(out: &mut RunResult, label: &str, phase: &Phase) {
    let bad: Vec<&Sample> = phase.samples.iter().filter(|s| !s.ok()).collect();
    if let Some(first) = bad.first() {
        out.problem(format!(
            "{label}: {} of {} requests failed (first: status {} at stream position {})",
            bad.len(),
            phase.samples.len(),
            first.status,
            first.pos
        ));
    }
    out.count(phase.samples.len(), bad.len());
}

/// Compare the hashed bodies of `phase` with `expected` (by stream slot).
fn check_bodies(
    out: &mut RunResult,
    label: &str,
    phase: &Phase,
    cycle: usize,
    expected: &[Option<u64>],
) {
    let mut wrong = 0usize;
    for sample in phase.samples.iter().filter(|s| s.ok()) {
        let slot = sample.pos % cycle;
        if let Some(Some(hash)) = expected.get(slot) {
            if *hash != sample.body_hash {
                wrong += 1;
                if wrong == 1 {
                    out.problem(format!(
                        "{label}: body of stream position {slot} differs from the in-process answer"
                    ));
                }
            }
        }
    }
    out.failed += wrong as u64;
}

/// `capacity_rps` from the completion times (seconds since the phase
/// began) of a closed loop's successful operations.
fn set_capacity(out: &mut RunResult, done_at_s: &[f64], span: Duration, overall: f64) {
    let rate = stats::windowed_rate(done_at_s, span.as_secs_f64(), WINDOWS, CAPACITY_QUANTILE);
    // A phase too short to fill its windows falls back to the plain rate.
    out.set("capacity_rps", if rate > 0.0 { rate } else { overall });
}

/// `read_p50_ms` / `read_p95_ms` from an open-loop phase: medians of the
/// per-window percentiles of the latency from due time.
fn set_read_latency(out: &mut RunResult, phase: &Phase, span: Duration) {
    let samples: Vec<(f64, f64)> = phase
        .samples
        .iter()
        .filter(|s| s.ok())
        .map(|s| (s.at_s, s.latency_us / 1e3))
        .collect();
    let span_s = span.as_secs_f64();
    for (name, q) in [("read_p50_ms", 0.5), ("read_p95_ms", 0.95)] {
        out.set(
            name,
            stats::windowed_percentile(&samples, span_s, WINDOWS, q),
        );
        let per_window = samples.len() / WINDOWS;
        let support = if stats::supported(per_window, q) {
            ""
        } else {
            " (fewer than 10 samples beyond it)"
        };
        out.note(
            name,
            format!(
                "n={} in {WINDOWS} windows of ~{per_window}{support}",
                samples.len()
            ),
        );
    }
}

/// The generator-side tail and lateness of an open-loop phase.
fn set_client_tail(out: &mut RunResult, phase: &Phase) {
    let latencies = stats::sorted(
        phase
            .samples
            .iter()
            .filter(|s| s.ok())
            .map(|s| s.latency_us / 1e3)
            .collect(),
    );
    let n = latencies.len();
    for (name, q) in [("client.p99_ms", 0.99), ("client.p999_ms", 0.999)] {
        out.set(name, stats::percentile(&latencies, q));
        let support = if stats::supported(n, q) {
            String::new()
        } else {
            format!(
                " (unsupported: fewer than 10 samples beyond it; highest supported is p{})",
                stats::highest_supported(n).map_or(0.0, |q| q * 100.0)
            )
        };
        out.note(name, format!("n={n}{support}"));
    }
    out.set("client.max_ms", latencies.last().copied().unwrap_or(0.0));
    let late = phase
        .samples
        .iter()
        .filter(|s| s.late_us >= LATE_US)
        .count();
    out.set(
        "client.late_share",
        late as f64 / phase.samples.len().max(1) as f64,
    );
    out.note(
        "client.late_share",
        format!("{late} of {} started ≥ 1 ms late", phase.samples.len()),
    );
    out.set("client.sent", phase.samples.len() as f64);
    out.set("client.ok", phase.ok_count() as f64);
}

/// Server-side counts over a window, as `/metrics` deltas.
fn set_server_counters(
    out: &mut RunResult,
    before: &Snapshot,
    after: &Snapshot,
    window_s: f64,
    workers: usize,
) {
    let d = |path: &[&str]| before.delta(after, path);
    let hits = d(&["cache", "hits"]);
    let lookups = hits + d(&["cache", "misses"]);
    out.set(
        "server.cache_hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    out.note("server.cache_hit_ratio", format!("{lookups} lookups"));
    let waits = d(&["queue", "wait", "count"]);
    let wait_us = d(&["queue", "wait", "sum_us"]);
    out.set(
        "server.queue_wait_us",
        if waits > 0.0 { wait_us / waits } else { 0.0 },
    );
    let handler_us = (d(&["latency", "sum_us"]) - wait_us).max(0.0);
    out.set(
        "server.worker_busy_share",
        handler_us / (window_s * 1e6 * workers as f64).max(1.0),
    );
    out.set("server.shed", d(&["rejected_saturated"]));
    out.set("server.deadline_expired", d(&["deadline_expired"]));
}

/// Client-side spans `http → {connect, send, wait, read}` of the timed
/// samples that fall into the checked part of the stream.
fn record_http_spans(tracer: &mut Tracer, phase: &Phase, phase_started: Instant, cycle: usize) {
    for sample in phase
        .samples
        .iter()
        .filter(|s| s.pos % cycle < VERIFY_SAMPLE)
    {
        let timing = sample.timing;
        let at = |us: f64| phase_started + Duration::from_secs_f64(us.max(0.0) / 1e6);
        let t0 = sample.at_s * 1e6 + sample.late_us;
        let id = sample.pos as u64;
        let root = tracer.record("http", at(t0), at(t0 + timing.total_us()), None, id);
        let mut cursor = t0;
        for (name, us) in [
            ("connect", timing.connect_us),
            ("send", timing.send_us),
            ("wait", timing.wait_us),
            ("read", timing.read_us),
        ] {
            tracer.record(name, at(cursor), at(cursor + us), Some(root), id);
            cursor += us;
        }
    }
}

/// What the in-process replay of the read sample found.
struct ReadReplay {
    /// Body hash per stream slot (`None` for `/health`).
    bodies: Vec<Option<u64>>,
    stats: Vec<ReadStats>,
}

/// Replay the first `VERIFY_SAMPLE` requests of `stream` in-process with
/// spans.
fn replay_reads(db: &Database, stream: &[Req], tracer: &mut Tracer) -> ReadReplay {
    let mut bodies = Vec::new();
    let mut all = Vec::new();
    for (slot, req) in stream.iter().take(VERIFY_SAMPLE).enumerate() {
        let (body, stats) = layers::replay_read(db, req, slot as u64, tracer);
        bodies.push(body.map(|b| fnv1a(b.as_bytes())));
        all.push(stats);
    }
    ReadReplay { bodies, stats: all }
}

/// The `query.*`, `exec.*` and `server.render_us` / `server.overhead_us`
/// metrics from the replay's spans and the timed HTTP samples.
fn set_read_layers(
    out: &mut RunResult,
    tracer: &Tracer,
    replay: &ReadReplay,
    http: &[&Sample],
    cycle: usize,
) {
    for (span, metric) in [
        ("plan", "query.plan_us"),
        ("execute", "exec.execute_us"),
        ("render", "server.render_us"),
        ("termjoin", "exec.termjoin_us"),
        ("pick", "exec.pick_us"),
        ("topk", "exec.topk_us"),
        ("phrase", "exec.phrase_us"),
    ] {
        let durations = tracer.durations(span);
        out.set(metric, stats::median(&durations));
        out.note(metric, format!("median of n={}", durations.len()));
    }
    let requests = tracer.durations("request");
    let executes = tracer.durations("execute");
    let request_sum: f64 = requests.iter().sum();
    out.set(
        "exec.inprocess_share",
        executes.iter().sum::<f64>() / request_sum.max(1e-9),
    );
    let planned = replay.stats.iter().filter(|s| s.planned).count();
    let pushed = replay.stats.iter().filter(|s| s.pushdown).count();
    out.set(
        "query.pushdown_share",
        pushed as f64 / planned.max(1) as f64,
    );
    out.note(
        "query.pushdown_share",
        format!("{pushed} of {planned} plans"),
    );
    let scanned: u64 = replay.stats.iter().map(|s| s.postings_scanned).sum();
    let total: u64 = replay.stats.iter().map(|s| s.postings_total).sum();
    out.set("exec.postings_scanned", scanned as f64);
    out.set("exec.postings_total", total as f64);
    out.set("exec.scan_ratio", scanned as f64 / total.max(1) as f64);
    out.set(
        "exec.results_per_query",
        stats::mean(
            &replay
                .stats
                .iter()
                .map(|s| s.results as f64)
                .collect::<Vec<_>>(),
        ),
    );

    // The same requests over HTTP: what the serving layer adds. A cached
    // answer skips the engine, so only the missing share of the
    // in-process time is subtracted.
    let trips: Vec<f64> = http
        .iter()
        .filter(|s| s.ok() && s.pos % cycle < VERIFY_SAMPLE)
        .map(|s| s.timing.total_us())
        .collect();
    let miss = 1.0 - out.value("server.cache_hit_ratio");
    out.set(
        "server.overhead_us",
        stats::median(&trips) - miss * stats::median(&requests),
    );
    out.note(
        "server.overhead_us",
        format!("median of n={} round trips", trips.len()),
    );
    if !trips.is_empty() {
        out.set(
            "exec.served_share",
            miss * stats::mean(&executes) / stats::mean(&trips),
        );
    }
}

fn set_connect_and_bytes(out: &mut RunResult, timed: &[&Sample]) {
    let connects: Vec<f64> = timed
        .iter()
        .filter(|s| s.ok())
        .map(|s| s.timing.connect_us)
        .collect();
    out.set("server.connect_us", stats::median(&connects));
    out.note(
        "server.connect_us",
        format!("median of n={}", connects.len()),
    );
    out.set(
        "server.response_bytes",
        stats::mean(
            &timed
                .iter()
                .filter(|s| s.ok())
                .map(|s| s.body_bytes as f64)
                .collect::<Vec<_>>(),
        ),
    );
}

/// Body hashes the server must produce for the checked part of `stream`.
fn expected_hashes(stream: &[Req], body: impl Fn(&Req) -> Option<String>) -> Vec<Option<u64>> {
    stream
        .iter()
        .take(VERIFY_SAMPLE)
        .map(|req| body(req).map(|b| fnv1a(b.as_bytes())))
        .collect()
}

/// First request of the stream whose body can be checked.
fn first_checkable(expected: &[Option<u64>]) -> usize {
    expected.iter().position(Option::is_some).unwrap_or(0)
}

/// One checked request against a freshly started system; records a
/// failure unless the answer is the expected one.
fn first_correct_answer(
    out: &mut RunResult,
    label: &str,
    addr: SocketAddr,
    req: &Req,
    expected: Option<u64>,
) {
    let answer = client::call(addr, &req.wire);
    let good = matches!(&answer, Ok((200, body)) if Some(fnv1a(body.as_bytes())) == expected);
    if !good {
        out.problem(format!("{label}: first answer after reopen is wrong"));
    }
    out.count(1, usize::from(!good));
}

fn write_spans(cfg: &Config, tracer: &Tracer, out: &mut RunResult) {
    let path = cfg
        .trace_dir
        .join(format!("trace-{}.json", cfg.workload.name()));
    if let Err(e) = tracer.write_json(&path, cfg.workload.name(), cfg.seed) {
        out.problem(format!("could not write {}: {e}", path.display()));
    }
    eprintln!(
        "tixbench: {} spans → {}",
        tracer.spans().len(),
        path.display()
    );
}

/// Phases A and B against `addr`. With tracing, phase A runs half
/// untimed and half timed, which gives the tracing overhead.
struct Phases {
    warm: Phase,
    a: Phase,
    /// The timed half of phase A (traced runs only).
    a_timed: Option<(Phase, Instant)>,
    b: Phase,
    b_started: Instant,
}

fn run_phases(cfg: &Config, addr: SocketAddr, stream: &[Req]) -> Phases {
    let untimed = Load {
        addr,
        stream,
        timed: false,
        hash_below: VERIFY_SAMPLE,
    };
    let timed = Load {
        timed: cfg.trace,
        ..untimed
    };
    let warm = untimed.closed_loop(0, cfg.clients, cfg.warm());
    let mut pos = warm.samples.len();
    let (a, a_timed) = if cfg.trace {
        let a = untimed.closed_loop(pos, cfg.clients, cfg.phase_a() / 2);
        pos += a.samples.len();
        let started = Instant::now();
        let a_timed = timed.closed_loop(pos, cfg.clients, cfg.phase_a() / 2);
        pos += a_timed.samples.len();
        (a, Some((a_timed, started)))
    } else {
        let a = untimed.closed_loop(pos, cfg.clients, cfg.phase_a());
        pos += a.samples.len();
        (a, None)
    };
    // The traced phase B starts the cycle over, so that the sample the
    // in-process replay covers (its first requests) is sent with spans.
    let b_first = if cfg.trace { 0 } else { pos };
    let b_started = Instant::now();
    let b = timed.open_loop(b_first, cfg.clients, cfg.rate(), cfg.phase_b());
    Phases {
        warm,
        a,
        a_timed,
        b,
        b_started,
    }
}

impl Phases {
    fn all(&self) -> impl Iterator<Item = (&'static str, &Phase)> {
        [("warm-up", &self.warm), ("phase A", &self.a)]
            .into_iter()
            .chain(self.a_timed.iter().map(|(p, _)| ("phase A (timed)", p)))
            .chain([("phase B", &self.b)])
    }

    fn count(&self, out: &mut RunResult) {
        for (label, phase) in self.all() {
            count_phase(out, label, phase);
        }
    }

    fn check(&self, out: &mut RunResult, cycle: usize, expected: &[Option<u64>]) {
        for (label, phase) in self.all() {
            check_bodies(out, label, phase, cycle, expected);
        }
    }

    fn timed_samples(&self) -> Vec<&Sample> {
        self.a_timed
            .iter()
            .flat_map(|(phase, _)| phase.samples.iter())
            .chain(self.b.samples.iter())
            .collect()
    }

    /// End-to-end: capacity from phase A, read latency from phase B.
    fn set_end_to_end(&self, out: &mut RunResult, cfg: &Config) {
        let done: Vec<f64> = self
            .a
            .samples
            .iter()
            .filter(|s| s.ok())
            .map(|s| s.at_s + s.latency_us / 1e6)
            .collect();
        set_capacity(out, &done, cfg.phase_a(), self.a.ok_per_s());
        out.note(
            "capacity_rps",
            format!(
                "p{:.0} of {WINDOWS} windows; {} ok in {:.2} s = {:.1}/s overall, closed loop of {}",
                CAPACITY_QUANTILE * 100.0,
                self.a.ok_count(),
                self.a.elapsed_s,
                self.a.ok_per_s(),
                cfg.clients
            ),
        );
        set_read_latency(out, &self.b, cfg.phase_b());
    }

    /// Per layer: the client's view, and the spans of the checked sample.
    fn set_client_layers(&self, out: &mut RunResult, tracer: &mut Tracer, cycle: usize) {
        set_client_tail(out, &self.b);
        set_connect_and_bytes(out, &self.timed_samples());
        if let Some((a_timed, started)) = &self.a_timed {
            out.set(
                "client.trace_overhead_share",
                1.0 - a_timed.ok_per_s() / self.a.ok_per_s().max(1e-9),
            );
            out.note(
                "client.trace_overhead_share",
                format!(
                    "{:.0} req/s timed vs {:.0} untimed",
                    a_timed.ok_per_s(),
                    self.a.ok_per_s()
                ),
            );
            record_http_spans(tracer, a_timed, *started, cycle);
        }
        record_http_spans(tracer, &self.b, self.b_started, cycle);
    }
}

// Exercised by `tixbench --quick`; the pieces above that need no server
// are tested here.
#[cfg(test)]
mod tests {
    use super::*;

    use crate::client::Timing;

    fn sample(pos: usize, status: u16, hash: u64) -> Sample {
        Sample {
            pos,
            at_s: 0.0,
            latency_us: 100.0,
            late_us: 0.0,
            status,
            body_bytes: 10,
            body_hash: hash,
            timing: Timing::default(),
        }
    }

    #[test]
    fn wrong_bodies_and_failed_requests_count_as_failures() {
        let phase = Phase {
            samples: vec![
                sample(0, 200, 11),
                sample(1, 200, 99),
                sample(2, 503, 0),
                sample(4096, 200, 12),
            ],
            elapsed_s: 1.0,
        };
        let mut out = RunResult::new(Workload::QueryCold, 1, false);
        count_phase(&mut out, "phase", &phase);
        assert_eq!((out.attempted, out.failed), (4, 1));
        // Slot 0 recurs at position 4096 with another body: wrong.
        check_bodies(&mut out, "phase", &phase, 4096, &[Some(11), Some(22), None]);
        assert_eq!(out.failed, 3);
        assert!(!out.correct());
    }

    #[test]
    fn the_recovery_probe_is_the_first_request_with_a_checkable_body() {
        assert_eq!(first_checkable(&[None, None, Some(5)]), 2);
        assert_eq!(first_checkable(&[]), 0);
    }
}
