//! The serving metrics registry: lock-free counters and gauges plus
//! log-bucketed latency histograms, rendered as the `/metrics` JSON
//! document. Everything is atomic — recording a sample on the hot path is
//! a handful of `fetch_add`s, never a lock.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Number of log₂ latency buckets: bucket `i` covers `[2^i, 2^(i+1))`
/// microseconds, so 40 buckets span 1 µs to ~13 days.
pub const BUCKETS: usize = 40;

/// The `q`-quantile (`0.0..=1.0`) of `total` samples spread over log₂
/// `buckets`, as the upper bound of the bucket where the cumulative count
/// crosses it. 0 with no samples. One function serves a node's live
/// histogram and the coordinator's bucket-wise merge of many.
pub fn quantile_of(buckets: &[u64], total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &bucket) in buckets.iter().enumerate() {
        seen += bucket;
        if seen >= rank {
            return 2u64.saturating_pow(u32::try_from(i + 1).unwrap_or(u32::MAX));
        }
    }
    2u64.saturating_pow(u32::try_from(buckets.len()).unwrap_or(u32::MAX))
}

/// A log₂-bucketed latency histogram with atomic buckets.
///
/// Percentile estimates are upper bucket bounds, so they over-report by at
/// most 2× — the right bias for latency SLOs (never claims faster than
/// reality) at a fixed 320-byte footprint.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Record one sample.
    pub fn record(&self, latency: Duration) {
        let micros = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        let bucket = usize::try_from(micros.max(1).ilog2())
            .unwrap_or(0)
            .min(BUCKETS - 1);
        if let Some(slot) = self.buckets.get(bucket) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 with no samples).
    pub fn mean_micros(&self) -> u64 {
        self.sum_micros
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// The `q`-quantile (`0.0..=1.0`) in microseconds, as the upper bound
    /// of the bucket where the cumulative count crosses it. 0 with no
    /// samples.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        quantile_of(&self.bucket_counts(), self.count(), q)
    }

    /// A snapshot of the raw bucket counts, index `i` covering
    /// `[2^i, 2^(i+1))` µs. The coordinator merges per-node histograms by
    /// summing these bucket-wise, which is exact (unlike merging
    /// quantiles).
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Total recorded microseconds (for exact merged means).
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros.load(Ordering::Relaxed)
    }

    /// Render as a JSON object with count, mean, p50/p95/p99, and the raw
    /// log₂ `buckets` array (so multi-node aggregation can merge
    /// histograms exactly instead of averaging quantiles).
    pub fn to_json(&self) -> String {
        let buckets: Vec<String> = self.bucket_counts().iter().map(|c| c.to_string()).collect();
        format!(
            "{{\"count\":{},\"sum_us\":{},\"mean_us\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"buckets\":[{}]}}",
            self.count(),
            self.sum_micros(),
            self.mean_micros(),
            self.quantile_micros(0.50),
            self.quantile_micros(0.95),
            self.quantile_micros(0.99),
            buckets.join(",")
        )
    }
}

/// What the front door ([`crate::front`]) counts for every connection it
/// admits or refuses. The node's [`Metrics`] and the coordinator's
/// registry each hold one and render it into their own `/metrics`
/// documents.
#[derive(Debug)]
pub struct AdmissionMetrics {
    /// Connections accepted (includes ones refused with 503, and ones
    /// that later fail parsing or time out).
    pub requests_total: AtomicU64,
    /// Responses by status class: index 0 ↔ 1xx, … index 4 ↔ 5xx.
    pub responses_by_class: [AtomicU64; 5],
    /// 503s sent because the admission queue was full.
    pub rejected_saturated: AtomicU64,
    /// 503s sent because the server was shutting down.
    pub rejected_shutdown: AtomicU64,
    /// Current admission-queue depth (gauge).
    pub queue_depth: AtomicUsize,
    /// Workers currently handling a request (gauge).
    pub workers_busy: AtomicUsize,
    /// Size of the worker pool (constant, minimum 1).
    pub workers_total: usize,
    /// End-to-end latency (admission to response written).
    pub latency: LatencyHistogram,
    /// Time spent queued before a worker picked the request up.
    pub queue_wait: LatencyHistogram,
}

impl AdmissionMetrics {
    /// Zeroed counters for a pool of `workers_total` workers (minimum 1).
    pub fn new(workers_total: usize) -> Self {
        AdmissionMetrics {
            requests_total: AtomicU64::new(0),
            responses_by_class: Default::default(),
            rejected_saturated: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
            queue_depth: AtomicUsize::new(0),
            workers_busy: AtomicUsize::new(0),
            workers_total: workers_total.max(1),
            latency: LatencyHistogram::default(),
            queue_wait: LatencyHistogram::default(),
        }
    }

    /// Count one response with `status`.
    pub fn record_status(&self, status: u16) {
        let class = usize::from(status / 100).saturating_sub(1);
        if let Some(slot) = self.responses_by_class.get(class) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Per-endpoint request counter set.
#[derive(Debug, Default)]
pub struct EndpointCounters {
    /// `/search` requests.
    pub search: AtomicU64,
    /// `/phrase` requests.
    pub phrase: AtomicU64,
    /// `/query` requests.
    pub query: AtomicU64,
    /// `/documents` mutations (POST and DELETE).
    pub documents: AtomicU64,
    /// `/health` requests.
    pub health: AtomicU64,
    /// `/metrics` requests.
    pub metrics: AtomicU64,
    /// `/explain` requests.
    pub explain: AtomicU64,
    /// `/wal` replication pulls served.
    pub wal: AtomicU64,
    /// `/cluster/*` scatter-gather requests.
    pub cluster: AtomicU64,
    /// Everything else (404s, debug endpoints).
    pub other: AtomicU64,
}

/// The registry behind `/metrics`. One instance per server, shared by the
/// front door (through [`Metrics::admission`]) and every handler.
#[derive(Debug)]
pub struct Metrics {
    /// Admission, status and latency counters kept by the front door.
    pub admission: Arc<AdmissionMetrics>,
    /// 504s sent because a deadline expired.
    pub deadline_expired: AtomicU64,
    /// Documents ingested through `POST /documents`.
    pub ingest_inserts: AtomicU64,
    /// Documents removed through `DELETE /documents/{name}`.
    pub ingest_removes: AtomicU64,
    /// Checkpoints taken by the serving layer (size-triggered).
    pub ingest_checkpoints: AtomicU64,
    /// Size-triggered checkpoints that failed (the mutation itself was
    /// already durable; the WAL simply keeps growing until the next try).
    pub ingest_checkpoint_errors: AtomicU64,
    /// Group-commit batches led (one WAL write each). Mirrored from the
    /// ingest engine's [`CommitStats`](tix_ingest::CommitStats) after
    /// every mutation.
    pub commit_batches: AtomicU64,
    /// Frames written through group commit.
    pub commit_frames: AtomicU64,
    /// fsyncs the commit pipeline actually issued; `frames - fsyncs` is
    /// what batching + relaxed durability saved.
    pub commit_fsyncs: AtomicU64,
    /// Largest number of frames one leader flushed in a single batch.
    pub commit_max_batch: AtomicU64,
    /// Total microseconds commit leaders stalled behind checkpoint
    /// rotations (should stay near 0 — checkpoints are non-blocking).
    pub commit_checkpoint_stall_us: AtomicU64,
    /// WAL suffixes this node pulled from its primary (followers only).
    pub replication_pulls: AtomicU64,
    /// Logical ops applied from pulled WAL images (followers only).
    pub replication_records: AtomicU64,
    /// Failed pulls or rejected images (gap, lsn discontinuity, apply
    /// error). Torn transfers are *not* errors — the scanner just yields
    /// the committed prefix and the next pull resumes.
    pub replication_errors: AtomicU64,
    /// Reads answered 403 because this replica's applied LSN was behind
    /// the request's `min_lsn` watermark.
    pub stale_rejects: AtomicU64,
    /// Result-cache hits.
    pub cache_hits: AtomicU64,
    /// Result-cache misses.
    pub cache_misses: AtomicU64,
    /// Per-endpoint request counts.
    pub endpoints: EndpointCounters,
}

impl Metrics {
    /// A zeroed registry for a pool of `workers_total` workers.
    pub fn new(workers_total: usize) -> Self {
        Metrics {
            admission: Arc::new(AdmissionMetrics::new(workers_total)),
            deadline_expired: AtomicU64::new(0),
            ingest_inserts: AtomicU64::new(0),
            ingest_removes: AtomicU64::new(0),
            ingest_checkpoints: AtomicU64::new(0),
            ingest_checkpoint_errors: AtomicU64::new(0),
            commit_batches: AtomicU64::new(0),
            commit_frames: AtomicU64::new(0),
            commit_fsyncs: AtomicU64::new(0),
            commit_max_batch: AtomicU64::new(0),
            commit_checkpoint_stall_us: AtomicU64::new(0),
            replication_pulls: AtomicU64::new(0),
            replication_records: AtomicU64::new(0),
            replication_errors: AtomicU64::new(0),
            stale_rejects: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            endpoints: EndpointCounters::default(),
        }
    }

    /// Render the whole registry as the `/metrics` JSON document.
    pub fn to_json(&self) -> String {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let a = &*self.admission;
        let busy = a.workers_busy.load(Ordering::Relaxed);
        let utilization = busy as f64 / a.workers_total as f64;
        format!(
            concat!(
                "{{\"requests_total\":{},",
                "\"responses\":{{\"1xx\":{},\"2xx\":{},\"3xx\":{},\"4xx\":{},\"5xx\":{}}},",
                "\"rejected_saturated\":{},",
                "\"rejected_shutdown\":{},",
                "\"deadline_expired\":{},",
                "\"ingest\":{{\"inserts\":{},\"removes\":{},\"checkpoints\":{},\"checkpoint_errors\":{}}},",
                "\"commit\":{{\"batches\":{},\"frames\":{},\"fsyncs\":{},\"fsyncs_saved\":{},\"max_batch_frames\":{},\"checkpoint_stall_us\":{}}},",
                "\"replication\":{{\"pulls\":{},\"records\":{},\"errors\":{},\"stale_rejects\":{}}},",
                "\"cache\":{{\"hits\":{},\"misses\":{}}},",
                "\"queue\":{{\"depth\":{},\"wait\":{}}},",
                "\"workers\":{{\"busy\":{},\"total\":{},\"utilization\":{:.3}}},",
                "\"endpoints\":{{\"search\":{},\"phrase\":{},\"query\":{},\"documents\":{},\"health\":{},\"metrics\":{},\"explain\":{},\"wal\":{},\"cluster\":{},\"other\":{}}},",
                "\"latency\":{}}}"
            ),
            load(&a.requests_total),
            load(&a.responses_by_class[0]),
            load(&a.responses_by_class[1]),
            load(&a.responses_by_class[2]),
            load(&a.responses_by_class[3]),
            load(&a.responses_by_class[4]),
            load(&a.rejected_saturated),
            load(&a.rejected_shutdown),
            load(&self.deadline_expired),
            load(&self.ingest_inserts),
            load(&self.ingest_removes),
            load(&self.ingest_checkpoints),
            load(&self.ingest_checkpoint_errors),
            load(&self.commit_batches),
            load(&self.commit_frames),
            load(&self.commit_fsyncs),
            load(&self.commit_frames).saturating_sub(load(&self.commit_fsyncs)),
            load(&self.commit_max_batch),
            load(&self.commit_checkpoint_stall_us),
            load(&self.replication_pulls),
            load(&self.replication_records),
            load(&self.replication_errors),
            load(&self.stale_rejects),
            load(&self.cache_hits),
            load(&self.cache_misses),
            a.queue_depth.load(Ordering::Relaxed),
            a.queue_wait.to_json(),
            busy,
            a.workers_total,
            utilization,
            load(&self.endpoints.search),
            load(&self.endpoints.phrase),
            load(&self.endpoints.query),
            load(&self.endpoints.documents),
            load(&self.endpoints.health),
            load(&self.endpoints.metrics),
            load(&self.endpoints.explain),
            load(&self.endpoints.wal),
            load(&self.endpoints.cluster),
            load(&self.endpoints.other),
            a.latency.to_json(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_bracket_samples() {
        let h = LatencyHistogram::default();
        for micros in [100u64, 100, 100, 100, 100, 100, 100, 100, 100, 10_000] {
            h.record(Duration::from_micros(micros));
        }
        assert_eq!(h.count(), 10);
        // p50 falls in the 100 µs bucket [64, 128) → upper bound 128.
        assert_eq!(h.quantile_micros(0.50), 128);
        // p99 falls in the 10 ms bucket [8192, 16384) → upper bound 16384.
        assert_eq!(h.quantile_micros(0.99), 16384);
        assert!(h.mean_micros() >= 100 && h.mean_micros() <= 10_000);
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_micros(0.5), 0);
        assert_eq!(h.mean_micros(), 0);
    }

    #[test]
    fn histogram_extremes_clamp() {
        let h = LatencyHistogram::default();
        h.record(Duration::ZERO);
        h.record(Duration::from_secs(1 << 50));
        assert_eq!(h.count(), 2);
        assert!(h.quantile_micros(1.0) > 0);
    }

    #[test]
    fn histogram_json_exposes_raw_buckets() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(100));
        h.record(Duration::from_micros(100));
        let json = h.to_json();
        assert!(json.contains("\"buckets\":["), "{json}");
        assert!(json.contains("\"sum_us\":200"), "{json}");
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 2);
        // 100 µs lands in bucket 6 ([64, 128)).
        assert_eq!(h.bucket_counts()[6], 2);
    }

    #[test]
    fn commit_fsyncs_saved_is_frames_minus_fsyncs() {
        let m = Metrics::new(1);
        m.commit_frames.store(10, Ordering::Relaxed);
        m.commit_fsyncs.store(3, Ordering::Relaxed);
        let json = m.to_json();
        assert!(json.contains("\"fsyncs_saved\":7"), "{json}");
    }

    #[test]
    fn status_classes_counted() {
        let m = AdmissionMetrics::new(4);
        m.record_status(200);
        m.record_status(201);
        m.record_status(404);
        m.record_status(503);
        assert_eq!(m.responses_by_class[1].load(Ordering::Relaxed), 2);
        assert_eq!(m.responses_by_class[3].load(Ordering::Relaxed), 1);
        assert_eq!(m.responses_by_class[4].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn json_document_shape() {
        let m = Metrics::new(2);
        m.admission.requests_total.fetch_add(3, Ordering::Relaxed);
        m.admission.record_status(200);
        m.admission.latency.record(Duration::from_millis(5));
        let json = m.to_json();
        for key in [
            "\"requests_total\":3",
            "\"2xx\":1",
            "\"cache\"",
            "\"queue\"",
            "\"utilization\"",
            "\"p95_us\"",
            "\"endpoints\"",
            "\"documents\":0",
            "\"ingest\":{\"inserts\":0,\"removes\":0,\"checkpoints\":0,\"checkpoint_errors\":0}",
            "\"commit\":{\"batches\":0,\"frames\":0,\"fsyncs\":0,\"fsyncs_saved\":0,\"max_batch_frames\":0,\"checkpoint_stall_us\":0}",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
