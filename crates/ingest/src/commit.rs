//! ARIES-style group commit: the commit-waiter pipeline behind every
//! mutation.
//!
//! ## Protocol
//!
//! A mutation is split into two halves:
//!
//! 1. **Stage** (`CommitPipeline::stage`) — called while the caller
//!    holds the database write lock, *after* the mutation applied to the
//!    in-memory database. The pipeline assigns the next LSN, encodes the
//!    WAL frame, and pushes it onto the bounded pending queue. Because
//!    every stager holds the database write lock, stage order == apply
//!    order == LSN order, and the pending queue is always an LSN-contiguous
//!    run.
//! 2. **Commit** (`CommitPipeline::commit`) — called after the database
//!    lock is released. The first committer to find no I/O in progress
//!    becomes the **leader**: it drains the whole pending queue, performs
//!    one `write_all` (and, depending on the durability mode, one
//!    `sync_all`) for the entire batch, then wakes every waiter. Committers
//!    that arrive while a leader is flushing simply wait; their frames ride
//!    in the next batch. This is what collapses the fsync-bound segment of
//!    the write path: N concurrent committers cost one fsync, not N.
//!
//! ## Durability modes
//!
//! | mode      | `commit` returns when          | lost on crash                  |
//! |-----------|--------------------------------|--------------------------------|
//! | `Strict`  | frame fsynced (`durable ≥ lsn`)| nothing acknowledged           |
//! | `Batched` | frame written (`written ≥ lsn`)| acks younger than `max_delay`  |
//! | `Flush`   | frame written                  | acks since last explicit flush |
//!
//! In every mode the on-disk log is a **prefix** of the acknowledged
//! stream (frames are written in LSN order, all-or-nothing per batch), so
//! recovery always yields a prefix-consistent database — the modes differ
//! only in how much acknowledged tail a crash may cost.
//!
//! ## Failure semantics
//!
//! A failed batch write rolls the file back (see `Wal::append_frames`)
//! but the batch's mutations are already applied in memory; the pipeline
//! **poisons** itself — every later stage/commit errors — because memory
//! is now ahead of a log that can no longer catch up. A poisoned pipeline
//! requires a restart, which recovers the durable prefix.

use std::io;
use std::path::Path;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::wal::{encode_frame, len_u64, Wal, WalRecord};

/// When a mutation's acknowledgement may be released relative to its
/// frame reaching stable storage. See the module docs for the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityMode {
    /// Every commit waits for its frame to be fsynced (the PR-5
    /// behaviour, now amortized: one fsync per *batch*).
    Strict,
    /// Commits are acknowledged once written; the leader fsyncs when the
    /// oldest unsynced frame is older than `max_delay` (a background
    /// flusher or the next commit triggers it).
    Batched {
        /// Upper bound on how long an acknowledged frame may stay
        /// un-fsynced.
        max_delay: Duration,
    },
    /// Commits are acknowledged once written; fsync happens only on an
    /// explicit `CommitPipeline::flush` or at a checkpoint.
    Flush,
}

impl DurabilityMode {
    /// Parse a CLI spelling: `strict`, `flush`, `batched` (default
    /// 5 ms), or `batched:<millis>`.
    pub fn parse(s: &str) -> Result<DurabilityMode, String> {
        match s {
            "strict" => Ok(DurabilityMode::Strict),
            "flush" => Ok(DurabilityMode::Flush),
            "batched" => Ok(DurabilityMode::Batched {
                max_delay: Duration::from_millis(5),
            }),
            other => match other.strip_prefix("batched:") {
                Some(ms) => match ms.parse::<u64>() {
                    Ok(ms) => Ok(DurabilityMode::Batched {
                        max_delay: Duration::from_millis(ms),
                    }),
                    Err(_) => Err(format!("bad batched delay {ms:?} (want milliseconds)")),
                },
                None => Err(format!(
                    "unknown durability mode {other:?} (want strict, batched[:ms], or flush)"
                )),
            },
        }
    }
}

impl std::fmt::Display for DurabilityMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityMode::Strict => write!(f, "strict"),
            DurabilityMode::Batched { max_delay } => {
                write!(f, "batched:{}", max_delay.as_millis())
            }
            DurabilityMode::Flush => write!(f, "flush"),
        }
    }
}

/// A staged-but-uncommitted mutation. Returned by `stage_*`; must be
/// passed to `CommitPipeline::commit` (via `Ingest::commit`) to obtain
/// the durability acknowledgement.
#[derive(Debug)]
#[must_use = "a staged mutation is not durable until committed"]
pub struct CommitTicket {
    pub(crate) lsn: u64,
}

impl CommitTicket {
    /// The LSN assigned to the staged mutation.
    pub fn lsn(&self) -> u64 {
        self.lsn
    }
}

/// A committed mutation's acknowledgement.
#[derive(Debug, Clone, Copy)]
pub struct CommitAck {
    /// The mutation's LSN.
    pub lsn: u64,
    /// Highest LSN known fsynced when the ack was issued. Under `Strict`
    /// this is `>= lsn`; under `Batched`/`Flush` it may lag `lsn`.
    pub durable_lsn: u64,
}

/// A snapshot of the pipeline's commit counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommitStats {
    /// Batches written by a leader.
    pub batches: u64,
    /// Frames carried by those batches.
    pub frames: u64,
    /// `sync_all` calls issued.
    pub fsyncs: u64,
    /// Largest single batch, in frames.
    pub max_batch_frames: u64,
    /// Cumulative time writers were stalled by `begin_checkpoint`, µs.
    pub checkpoint_stall_us: u64,
}

impl CommitStats {
    /// Fsyncs avoided relative to the one-fsync-per-frame protocol.
    pub fn fsyncs_saved(&self) -> u64 {
        self.frames.saturating_sub(self.fsyncs)
    }
}

#[derive(Debug)]
struct PendingFrame {
    lsn: u64,
    bytes: Vec<u8>,
}

#[derive(Debug)]
struct PipelineState {
    /// Highest LSN handed out (mutation applied in memory and queued).
    staged_lsn: u64,
    /// Highest LSN written to the log file.
    written_lsn: u64,
    /// Highest LSN fsynced.
    durable_lsn: u64,
    /// Staged frames not yet written, in LSN order.
    pending: Vec<PendingFrame>,
    /// A leader is doing I/O outside the state lock.
    io_in_progress: bool,
    /// A checkpoint is quiescing/rotating the log; leaders must not start.
    rotating: bool,
    /// When the last fsync completed (drives `Batched` deadlines).
    last_sync: Instant,
    /// Fatal-failure reason; set once, never cleared.
    poisoned: Option<String>,
    batches: u64,
    frames: u64,
    fsyncs: u64,
    max_batch_frames: u64,
    checkpoint_stall_us: u64,
}

/// The group-commit pipeline: shared state + condvar for the waiter
/// queue, and the WAL under its own lock so frame I/O never holds the
/// state lock (arrivals keep staging while the leader fsyncs).
///
/// Lock order: `state` and `wal` are never held at the same time except
/// transiently by the leader *after* clearing `io_in_progress` — the
/// leader takes `wal` only while `io_in_progress` (or `rotating`) is set,
/// which excludes every other I/O path, so there is no lock-order cycle.
#[derive(Debug)]
pub(crate) struct CommitPipeline {
    state: Mutex<PipelineState>,
    cond: Condvar,
    wal: Mutex<Wal>,
    mode: DurabilityMode,
    queue_capacity: usize,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // A poisoned std mutex only means another thread panicked while
    // holding it; the pipeline's own poison flag tracks logical damage.
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn poison_err(reason: &str) -> io::Error {
    io::Error::other(format!("ingest pipeline poisoned: {reason}"))
}

impl CommitPipeline {
    /// Wrap a recovered WAL. `last_lsn` is the highest LSN already in the
    /// log (replayed into the database), so staged == written == durable
    /// at construction.
    pub(crate) fn new(
        wal: Wal,
        mode: DurabilityMode,
        last_lsn: u64,
        queue_capacity: usize,
    ) -> CommitPipeline {
        CommitPipeline {
            state: Mutex::new(PipelineState {
                staged_lsn: last_lsn,
                written_lsn: last_lsn,
                durable_lsn: last_lsn,
                pending: Vec::new(),
                io_in_progress: false,
                rotating: false,
                last_sync: Instant::now(),
                poisoned: None,
                batches: 0,
                frames: 0,
                fsyncs: 0,
                max_batch_frames: 0,
                checkpoint_stall_us: 0,
            }),
            cond: Condvar::new(),
            wal: Mutex::new(wal),
            mode,
            queue_capacity,
        }
    }

    /// The pipeline's durability mode.
    pub(crate) fn mode(&self) -> DurabilityMode {
        self.mode
    }

    /// Admission check, to be run **before** applying a mutation to the
    /// database (while holding the database write lock): a poisoned
    /// pipeline or a full commit queue rejects the mutation while nothing
    /// has been applied yet. Between this check and [`stage`], the queue
    /// can only drain (stagers are serialized by the database write
    /// lock), so a subsequent stage cannot overflow the bound.
    ///
    /// [`stage`]: CommitPipeline::stage
    pub(crate) fn check_admission(&self) -> io::Result<()> {
        let st = lock(&self.state);
        if let Some(reason) = &st.poisoned {
            return Err(poison_err(reason));
        }
        // Bounded commit queue: compare against the configured capacity
        // and refuse admission instead of queueing without limit.
        if st.pending.len() >= self.queue_capacity {
            return Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "commit queue full (writers are outrunning the log)",
            ));
        }
        Ok(())
    }

    /// Assign the next LSN to an already-applied mutation and queue its
    /// frame. Caller must hold the database write lock (which makes LSN
    /// order identical to apply order) and must have passed
    /// [`CommitPipeline::check_admission`] before applying.
    pub(crate) fn stage(&self, record: &WalRecord) -> io::Result<CommitTicket> {
        let mut st = lock(&self.state);
        if let Some(reason) = &st.poisoned {
            return Err(poison_err(reason));
        }
        let lsn = st.staged_lsn + 1;
        let bytes = match encode_frame(lsn, record) {
            Ok(bytes) => bytes,
            Err(e) => {
                // The mutation is already applied in memory but can never
                // reach the log: memory is ahead of the durable stream.
                st.poisoned = Some(format!("staged mutation failed to encode: {e}"));
                return Err(e);
            }
        };
        st.staged_lsn = lsn;
        st.pending.push(PendingFrame { lsn, bytes });
        Ok(CommitTicket { lsn })
    }

    fn reached(&self, st: &PipelineState, lsn: u64) -> bool {
        match self.mode {
            DurabilityMode::Strict => st.durable_lsn >= lsn,
            DurabilityMode::Batched { .. } | DurabilityMode::Flush => st.written_lsn >= lsn,
        }
    }

    /// Wait until `ticket`'s frame meets the durability mode's bar,
    /// becoming the batch leader if no I/O is in flight. See the module
    /// docs for the protocol.
    pub(crate) fn commit(&self, ticket: CommitTicket) -> io::Result<CommitAck> {
        let mut st = lock(&self.state);
        loop {
            if let Some(reason) = &st.poisoned {
                return Err(poison_err(reason));
            }
            if self.reached(&st, ticket.lsn) {
                return Ok(CommitAck {
                    lsn: ticket.lsn,
                    durable_lsn: st.durable_lsn,
                });
            }
            if !st.io_in_progress && !st.rotating {
                st = self.lead(st, false);
            } else {
                st = self.cond.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        }
    }

    /// One leader round: drain the pending queue, write it as a single
    /// batch, fsync per the mode, update watermarks, wake waiters.
    /// Errors surface through the poison flag (checked by every waiter's
    /// loop), so this always returns the re-acquired state lock.
    fn lead<'a>(
        &'a self,
        mut st: MutexGuard<'a, PipelineState>,
        force_sync: bool,
    ) -> MutexGuard<'a, PipelineState> {
        st.io_in_progress = true;
        let batch = std::mem::take(&mut st.pending);
        let sync = force_sync
            || match self.mode {
                DurabilityMode::Strict => true,
                DurabilityMode::Batched { max_delay } => st.last_sync.elapsed() >= max_delay,
                DurabilityMode::Flush => false,
            };
        let last_lsn = batch.last().map(|f| f.lsn);
        drop(st);
        let io_result = {
            let mut wal = lock(&self.wal);
            if batch.is_empty() {
                if sync {
                    wal.sync()
                } else {
                    Ok(())
                }
            } else {
                let total: usize = batch.iter().map(|f| f.bytes.len()).sum();
                let mut bytes = Vec::with_capacity(total);
                for frame in &batch {
                    bytes.extend_from_slice(&frame.bytes);
                }
                wal.append_frames(&bytes, sync)
            }
        };
        let mut st = lock(&self.state);
        st.io_in_progress = false;
        match io_result {
            Ok(()) => {
                if let Some(lsn) = last_lsn {
                    st.written_lsn = lsn;
                    st.batches += 1;
                    st.frames += len_u64(batch.len());
                    st.max_batch_frames = st.max_batch_frames.max(len_u64(batch.len()));
                }
                if sync {
                    st.durable_lsn = st.written_lsn;
                    st.last_sync = Instant::now();
                    st.fsyncs += 1;
                }
                tix_invariants::check! {
                    tix_invariants::assert_commit_watermarks(
                        st.durable_lsn,
                        st.written_lsn,
                        st.staged_lsn,
                    );
                }
            }
            Err(e) => {
                // The WAL rolled the batch back (or poisoned itself), but
                // the batch's mutations are applied in memory: the log can
                // no longer catch up to the database. Poison everything.
                st.poisoned = Some(format!("group-commit batch write failed: {e}"));
            }
        }
        self.cond.notify_all();
        st
    }

    /// Write and fsync everything staged; returns the durable LSN.
    pub(crate) fn flush(&self) -> io::Result<u64> {
        let mut st = lock(&self.state);
        loop {
            if let Some(reason) = &st.poisoned {
                return Err(poison_err(reason));
            }
            if st.durable_lsn >= st.staged_lsn {
                return Ok(st.durable_lsn);
            }
            if !st.io_in_progress && !st.rotating {
                st = self.lead(st, true);
            } else {
                st = self.cond.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        }
    }

    /// Under `Batched`, flush if the oldest unsynced frame has exceeded
    /// `max_delay` (the background flusher's entry point). Returns the
    /// durable LSN if a flush ran.
    pub(crate) fn flush_if_due(&self) -> io::Result<Option<u64>> {
        let due = {
            let st = lock(&self.state);
            st.poisoned.is_none()
                && st.durable_lsn < st.staged_lsn
                && match self.mode {
                    DurabilityMode::Batched { max_delay } => st.last_sync.elapsed() >= max_delay,
                    DurabilityMode::Strict | DurabilityMode::Flush => false,
                }
        };
        if due {
            self.flush().map(Some)
        } else {
            Ok(None)
        }
    }

    /// Quiesce leader I/O, write + fsync every staged frame, and (for
    /// non-retaining checkpoints) rotate the log aside to `rotate_to`.
    /// Returns the checkpoint LSN `L` — every frame `<= L` is durable
    /// (and, when rotating, lives in the rotated-away file).
    ///
    /// The caller must hold the database lock, which blocks new stagers,
    /// so `staged_lsn` is stable across the call. Leaders never touch the
    /// database, so waiting for `io_in_progress` here cannot deadlock.
    pub(crate) fn prepare_checkpoint(&self, rotate_to: Option<&Path>) -> io::Result<u64> {
        let stall_started = Instant::now();
        let mut st = lock(&self.state);
        if let Some(reason) = &st.poisoned {
            return Err(poison_err(reason));
        }
        st.rotating = true;
        while st.io_in_progress {
            st = self.cond.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        if let Some(reason) = st.poisoned.clone() {
            st.rotating = false;
            self.cond.notify_all();
            return Err(poison_err(&reason));
        }
        let batch = std::mem::take(&mut st.pending);
        let staged = st.staged_lsn;
        let need_sync = st.durable_lsn < staged;
        drop(st);
        let io_result = {
            let mut wal = lock(&self.wal);
            let mut step = || -> io::Result<()> {
                if !batch.is_empty() {
                    let total: usize = batch.iter().map(|f| f.bytes.len()).sum();
                    let mut bytes = Vec::with_capacity(total);
                    for frame in &batch {
                        bytes.extend_from_slice(&frame.bytes);
                    }
                    wal.append_frames(&bytes, true)?;
                } else if need_sync {
                    wal.sync()?;
                }
                if let Some(prev) = rotate_to {
                    wal.rotate(prev)?;
                }
                Ok(())
            };
            step()
        };
        let mut st = lock(&self.state);
        st.rotating = false;
        match &io_result {
            Ok(()) => {
                st.written_lsn = staged;
                st.durable_lsn = staged;
                st.last_sync = Instant::now();
                if need_sync || !batch.is_empty() {
                    st.fsyncs += 1;
                }
            }
            Err(e) => {
                st.poisoned = Some(format!("checkpoint quiesce failed: {e}"));
            }
        }
        let stall = u64::try_from(stall_started.elapsed().as_micros()).unwrap_or(u64::MAX);
        st.checkpoint_stall_us = st.checkpoint_stall_us.saturating_add(stall);
        self.cond.notify_all();
        io_result.map(|()| staged)
    }

    /// Highest LSN handed out (== applied in memory).
    pub(crate) fn staged_lsn(&self) -> u64 {
        lock(&self.state).staged_lsn
    }

    /// Highest LSN known fsynced.
    pub(crate) fn durable_lsn(&self) -> u64 {
        lock(&self.state).durable_lsn
    }

    /// The poison reason, if the pipeline has failed fatally.
    pub(crate) fn poison_reason(&self) -> Option<String> {
        lock(&self.state).poisoned.clone()
    }

    /// Snapshot of the commit counters.
    pub(crate) fn stats(&self) -> CommitStats {
        let st = lock(&self.state);
        CommitStats {
            batches: st.batches,
            frames: st.frames,
            fsyncs: st.fsyncs,
            max_batch_frames: st.max_batch_frames,
            checkpoint_stall_us: st.checkpoint_stall_us,
        }
    }

    /// Current log length in bytes (header included). Takes the WAL lock;
    /// may briefly wait out an in-flight batch write.
    pub(crate) fn wal_len(&self) -> u64 {
        lock(&self.wal).len()
    }

    /// Run `f` with the WAL locked (recovery-time truncation and the
    /// engine's suffix reads).
    pub(crate) fn with_wal<R>(&self, f: impl FnOnce(&mut Wal) -> R) -> R {
        f(&mut lock(&self.wal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_wal(name: &str) -> Wal {
        let dir = std::env::temp_dir().join(format!("tix-commit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Wal::open(dir.join("wal.log")).unwrap().0
    }

    fn add(name: &str) -> WalRecord {
        WalRecord::AddDocument {
            name: name.into(),
            xml: "<a/>".into(),
        }
    }

    #[test]
    fn strict_commit_is_durable_immediately() {
        let p = CommitPipeline::new(tmp_wal("strict"), DurabilityMode::Strict, 0, 16);
        let t = p.stage(&add("a.xml")).unwrap();
        let ack = p.commit(t).unwrap();
        assert_eq!(ack.lsn, 1);
        assert_eq!(ack.durable_lsn, 1);
        assert_eq!(p.stats().fsyncs, 1);
    }

    #[test]
    fn flush_mode_defers_the_fsync() {
        let p = CommitPipeline::new(tmp_wal("flushmode"), DurabilityMode::Flush, 0, 16);
        let t = p.stage(&add("a.xml")).unwrap();
        let ack = p.commit(t).unwrap();
        assert_eq!(ack.lsn, 1);
        assert_eq!(ack.durable_lsn, 0, "no fsync yet");
        assert_eq!(p.stats().fsyncs, 0);
        assert_eq!(p.flush().unwrap(), 1);
        assert_eq!(p.stats().fsyncs, 1);
    }

    #[test]
    fn staged_frames_batch_into_one_write() {
        let p = CommitPipeline::new(tmp_wal("batching"), DurabilityMode::Strict, 0, 16);
        let t1 = p.stage(&add("a.xml")).unwrap();
        let t2 = p.stage(&add("b.xml")).unwrap();
        let t3 = p.stage(&add("c.xml")).unwrap();
        // The first commit leads and flushes all three staged frames.
        p.commit(t1).unwrap();
        let stats = p.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.frames, 3);
        assert_eq!(stats.max_batch_frames, 3);
        assert_eq!(stats.fsyncs_saved(), 2);
        // The other tickets are already satisfied.
        assert_eq!(p.commit(t2).unwrap().lsn, 2);
        assert_eq!(p.commit(t3).unwrap().lsn, 3);
        assert_eq!(p.stats().batches, 1, "no extra IO for satisfied waiters");
    }

    #[test]
    fn admission_bounds_the_pending_queue() {
        let p = CommitPipeline::new(tmp_wal("bounded"), DurabilityMode::Flush, 0, 2);
        p.check_admission().unwrap();
        let _t1 = p.stage(&add("a.xml")).unwrap();
        let _t2 = p.stage(&add("b.xml")).unwrap();
        let err = p.check_admission().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn failed_batch_poisons_the_pipeline() {
        let mut wal = tmp_wal("poison");
        wal.inject_write_fault(3);
        let p = CommitPipeline::new(wal, DurabilityMode::Strict, 0, 16);
        let t = p.stage(&add("a.xml")).unwrap();
        let err = p.commit(t).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        assert!(p.poison_reason().is_some());
        // Everything after the poison errors out instead of diverging.
        assert!(p.check_admission().is_err());
        assert!(p.stage(&add("b.xml")).is_err());
        assert!(p.flush().is_err());
    }

    #[test]
    fn prepare_checkpoint_flushes_and_rotates() {
        let dir = std::env::temp_dir().join(format!("tix-commit-{}-rot", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let wal = Wal::open(dir.join("wal.log")).unwrap().0;
        let prev: PathBuf = dir.join("wal.prev");
        let p = CommitPipeline::new(wal, DurabilityMode::Flush, 0, 16);
        let t = p.stage(&add("a.xml")).unwrap();
        p.commit(t).unwrap();
        let _t2 = p.stage(&add("b.xml")).unwrap(); // staged, never committed
        let lsn = p.prepare_checkpoint(Some(&prev)).unwrap();
        assert_eq!(lsn, 2, "checkpoint covers every staged frame");
        assert_eq!(p.durable_lsn(), 2);
        let prev_scan = crate::wal::scan_bytes(&std::fs::read(&prev).unwrap()).unwrap();
        assert_eq!(prev_scan.entries.len(), 2, "both frames in the rotated log");
        assert_eq!(p.wal_len(), crate::wal::WAL_HEADER_LEN);
    }

    #[test]
    fn durability_mode_parse_roundtrip() {
        assert_eq!(DurabilityMode::parse("strict"), Ok(DurabilityMode::Strict));
        assert_eq!(DurabilityMode::parse("flush"), Ok(DurabilityMode::Flush));
        assert_eq!(
            DurabilityMode::parse("batched:25"),
            Ok(DurabilityMode::Batched {
                max_delay: Duration::from_millis(25)
            })
        );
        assert!(matches!(
            DurabilityMode::parse("batched"),
            Ok(DurabilityMode::Batched { .. })
        ));
        assert!(DurabilityMode::parse("eventually").is_err());
        assert!(DurabilityMode::parse("batched:fast").is_err());
        assert_eq!(DurabilityMode::Strict.to_string(), "strict");
        assert_eq!(
            DurabilityMode::parse("batched:25").unwrap().to_string(),
            "batched:25"
        );
    }
}
