//! The benchmark's fixed vocabulary: workload names, metric names with
//! units, corpus sizes and the open-loop rates. Later issues cite these
//! names, so they change only in a `benchmark` issue. `BENCHMARK.json`
//! at the repository root repeats the names; a test keeps the two equal.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

/// The four workloads, in the order `--quick` runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    QueryCold,
    QueryHot,
    IngestMixed,
    ClusterScatter,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::QueryCold,
        Workload::QueryHot,
        Workload::IngestMixed,
        Workload::ClusterScatter,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::QueryCold => "query_cold",
            Workload::QueryHot => "query_hot",
            Workload::IngestMixed => "ingest_mixed",
            Workload::ClusterScatter => "cluster_scatter",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The corpus a gated run uses (see [`CorpusSize`]). The contract
    /// caps a run at about half a minute including three set-ups, which
    /// is what fixes these sizes; `--corpus` overrides them for ungated
    /// runs up to the paper's 500 MB.
    pub fn default_corpus(self) -> CorpusSize {
        match self {
            Workload::QueryCold | Workload::QueryHot => CorpusSize::INEX_32,
            // A delete renumbers every later document, so a mutation
            // costs time in proportion to the corpus; only at this size
            // does the writer fill the 8 MiB log, and so trigger a
            // checkpoint, more than once inside the window.
            Workload::IngestMixed => CorpusSize::INEX_128,
            // The ties path returns every hit that ties the k-th score,
            // and a shard response above the 16 KiB send buffer stalls the
            // coordinator's read for 15–40 ms. On `inex-128` a tenth of the
            // requests do, and how many flips from one build to the next
            // (capacity 290 or 400 req/s, p95 11 or 22 ms): nothing a
            // change could be judged by. At this size the responses stay
            // below the buffer and the workload measures the coordination.
            Workload::ClusterScatter => CorpusSize::INEX_256,
        }
    }

    /// Phase B's fixed open-loop rate in requests per second: about a
    /// quarter of the seed's `capacity_rps` on the reference box, to two
    /// significant figures. A constant, never derived at run time, so that
    /// latency at a given load compares across commits. (A quarter, not the
    /// issue's half: with one blocking sender, at half load every hiccup of
    /// the host queues requests behind it and the percentiles stop
    /// repeating.)
    pub fn open_loop_rps(self) -> f64 {
        match self {
            Workload::QueryCold => 540.0,
            Workload::QueryHot => 3400.0,
            Workload::IngestMixed => 60.0,
            Workload::ClusterScatter => 120.0,
        }
    }
}

/// A corpus size: `CorpusSpec::default().with_target_bytes(bytes)` with
/// `workloads::paper_plants(plant_scale)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusSize {
    pub name: &'static str,
    pub target_bytes: u64,
    /// Share of the paper's Table 1–5 term frequencies that is planted.
    /// Full frequencies need about 260 articles' worth of paragraphs, so
    /// the smallest sizes scale them down.
    pub plant_scale: f64,
}

const MIB: u64 = 1024 * 1024;

impl CorpusSize {
    pub const INEX: CorpusSize = CorpusSize::new("inex", 500 * MIB, 1.0);
    pub const INEX_8: CorpusSize = CorpusSize::new("inex-8", 64 * MIB, 1.0);
    pub const INEX_16: CorpusSize = CorpusSize::new("inex-16", 32 * MIB, 1.0);
    pub const INEX_32: CorpusSize = CorpusSize::new("inex-32", 16 * MIB, 1.0);
    pub const INEX_64: CorpusSize = CorpusSize::new("inex-64", 8 * MIB, 0.25);
    pub const INEX_128: CorpusSize = CorpusSize::new("inex-128", 4 * MIB, 0.125);
    pub const INEX_256: CorpusSize = CorpusSize::new("inex-256", 2 * MIB, 0.0625);
    /// `--quick` only: a hundred articles, enough for every planted name
    /// to exist.
    pub const QUICK: CorpusSize = CorpusSize::new("quick", MIB, 0.03);

    pub const ALL: [CorpusSize; 8] = [
        CorpusSize::INEX,
        CorpusSize::INEX_8,
        CorpusSize::INEX_16,
        CorpusSize::INEX_32,
        CorpusSize::INEX_64,
        CorpusSize::INEX_128,
        CorpusSize::INEX_256,
        CorpusSize::QUICK,
    ];

    const fn new(name: &'static str, target_bytes: u64, plant_scale: f64) -> CorpusSize {
        CorpusSize {
            name,
            target_bytes,
            plant_scale,
        }
    }

    pub fn parse(name: &str) -> Option<CorpusSize> {
        CorpusSize::ALL.into_iter().find(|c| c.name == name)
    }
}

/// Server worker threads on every node (the reference box has 2 cores).
pub const SERVER_WORKERS: usize = 2;
/// The coordinator's worker threads (`CoordinatorConfig::default()`, which
/// `LocalCluster::start` uses).
pub const COORDINATOR_WORKERS: usize = 4;
/// Cluster shape for `cluster_scatter`.
pub const CLUSTER_SHARDS: usize = 2;
pub const CLUSTER_REPLICAS: usize = 1;
/// How often a gated run sets the system up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
/// How often a gated run reopens the persisted state; `recovery_s` is
/// the median.
pub const RECOVERY_REPEATS: usize = 3;
/// Stream positions whose bodies are checked byte for byte, and the
/// sample the traced run replays through the layers.
pub const VERIFY_SAMPLE: usize = 300;
/// Length of a workload's request cycle. Far above the server's
/// 256-entry result cache, so a cycled `query_cold` stream keeps missing.
pub const STREAM_LEN: usize = 4096;
/// Distinct requests in `query_hot` (they fit the result cache).
pub const HOT_DISTINCT: usize = 32;
/// Each phase is cut into this many windows. `read_p50_ms` /
/// `read_p95_ms` are the medians of the per-window percentiles and
/// `capacity_rps` is an upper quantile of the per-window rates; both
/// repeat far better on a shared box than one figure over the whole phase.
pub const WINDOWS: usize = 20;
/// `capacity_rps` is this quantile of the per-window rates: a neighbour
/// on the host can only slow a window down, so the upper windows are the
/// ones that show what the system sustains.
pub const CAPACITY_QUANTILE: f64 = 0.8;
/// A request counts as sent late when the generator started it this long
/// after it was due.
pub const LATE_US: f64 = 1000.0;
/// `ingest_mixed`: mutations written after a forced checkpoint and before
/// the shutdown, so every recovery replays the same amount of log.
pub const RECOVERY_WAL_RECORDS: usize = 200;
/// `ingest_mixed`: distinct generated articles the writer cycles through
/// (each insert gets a fresh name and marker term).
pub const FRESH_POOL: usize = 256;
/// Documents the traced run pushes through the write path in-process.
pub const WRITE_SAMPLE: usize = 100;

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one, and
/// none of them can be 0. (The issue's `failed_share` is the result
/// line's `failed` / `attempted`; its `write_*` metrics have no value on a
/// read-only server, so `ingest_mixed` reports its write rate as
/// `capacity_rps` and the ack latencies per layer as `client.write_*`.)
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("capacity_rps", "1/s", Higher),
    m("read_p50_ms", "ms", Lower),
    m("read_p95_ms", "ms", Lower),
    m("recovery_s", "s", Lower),
    m("rss_peak_mb", "MiB", Lower),
    m("disk_bytes_per_xml_byte", "ratio", Lower),
];

/// One layer's work, time or waste. A layer that does not run in a
/// workload reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("server.cache_hit_ratio", "ratio", Higher),
    m("server.overhead_us", "us", Lower),
    m("server.connect_us", "us", Lower),
    m("server.queue_wait_us", "us", Lower),
    m("server.worker_busy_share", "ratio", Lower),
    m("server.render_us", "us", Lower),
    m("server.response_bytes", "bytes", Lower),
    m("server.shed", "count", Lower),
    m("server.deadline_expired", "count", Lower),
    m("query.plan_us", "us", Lower),
    m("query.pushdown_share", "ratio", Higher),
    m("exec.execute_us", "us", Lower),
    m("exec.inprocess_share", "ratio", Lower),
    m("exec.served_share", "ratio", Lower),
    m("exec.postings_scanned", "count", Lower),
    m("exec.postings_total", "count", Lower),
    m("exec.scan_ratio", "ratio", Lower),
    m("exec.termjoin_us", "us", Lower),
    m("exec.pick_us", "us", Lower),
    m("exec.topk_us", "us", Lower),
    m("exec.phrase_us", "us", Lower),
    m("exec.results_per_query", "count", Lower),
    m("pack.open_ms", "ms", Lower),
    m("pack.first_answer_ms", "ms", Lower),
    m("pack.decoded_blocks_share", "ratio", Lower),
    m("pack.decoded_terms", "count", Lower),
    m("pack.index_bytes", "bytes", Lower),
    m("pack.pack_ms", "ms", Lower),
    m("index.build_s", "s", Lower),
    m("index.add_us", "us", Lower),
    m("index.remove_us", "us", Lower),
    m("xml.parse_us_per_kb", "us/KiB", Lower),
    m("store.load_us_per_kb", "us/KiB", Lower),
    m("ingest.stage_us", "us", Lower),
    m("ingest.commit_us", "us", Lower),
    m("ingest.fsyncs_per_doc", "ratio", Lower),
    m("ingest.frames_per_batch", "ratio", Higher),
    m("ingest.wal_bytes_per_doc_byte", "ratio", Lower),
    m("ingest.checkpoints", "count", Higher),
    m("ingest.checkpoint_ms", "ms", Lower),
    m("ingest.checkpoint_stall_us", "us", Lower),
    m("ingest.first_write_ms", "ms", Lower),
    m("ingest.replay_docs_per_s", "1/s", Higher),
    m("cluster.shard_us_max", "us", Lower),
    m("cluster.coordinator_overhead_us", "us", Lower),
    m("cluster.shard_hits_returned", "count", Lower),
    m("cluster.merge_us", "us", Lower),
    m("cluster.fanout_errors", "count", Lower),
    m("cluster.stale_fallbacks", "count", Lower),
    m("cluster.replica_read_share", "ratio", Higher),
    m("client.p99_ms", "ms", Lower),
    m("client.p999_ms", "ms", Lower),
    m("client.max_ms", "ms", Lower),
    m("client.late_share", "ratio", Lower),
    m("client.sent", "count", Higher),
    m("client.ok", "count", Higher),
    m("client.trace_overhead_share", "ratio", Lower),
    m("client.write_docs_per_s", "1/s", Higher),
    m("client.write_p50_ms", "ms", Lower),
    m("client.write_p95_ms", "ms", Lower),
    m("client.stream_hash", "hash", Lower),
];

/// Counters that must repeat exactly for one seed (`--repeat` checks it).
pub const EXACT: &[&str] = &[
    "exec.postings_scanned",
    "exec.postings_total",
    "pack.index_bytes",
    "client.stream_hash",
];

#[cfg(test)]
mod tests {
    use super::*;
    use tix_cluster::Json;

    fn names_of(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .expect("key present")
            .items()
            .iter()
            .map(|item| {
                let field = |f: &str| item.get(f).and_then(Json::str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_agrees_with_the_printed_names() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let workloads: Vec<String> = names_of(&doc, "workloads")
            .into_iter()
            .map(|(name, _, _)| name)
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let theirs = names_of(&doc, key);
            let ours: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        d.better.as_str().to_string(),
                    )
                })
                .collect();
            assert_eq!(theirs, ours, "{key}");
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(def.name), "{}", def.name);
            assert!(unit_ok(def.unit), "{} {}", def.name, def.unit);
            assert!(seen.insert(def.name), "{} used twice", def.name);
        }
        for w in Workload::ALL {
            assert!(name_ok(w.name()));
            assert!(seen.insert(w.name()));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        for exact in EXACT {
            assert!(PER_LAYER.iter().any(|d| d.name == *exact), "{exact}");
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    }
}
