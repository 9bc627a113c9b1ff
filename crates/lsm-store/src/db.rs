//! The key-value store: memtable + WAL + leveled runs + compaction.
//!
//! Implements the paper's storage model (§2, §5.3):
//!
//! * writes go to the WAL (outside the enclave) and the memtable (inside),
//! * a full memtable flushes by merging into level 1,
//! * `COMPACTION(Li, Li+1)` merges two whole adjacent levels when `Li`
//!   exceeds its size budget (geometric level targets),
//! * point reads search memtable then levels in order with **early stop**,
//! * range reads visit every level (§5.4),
//! * deletes are tombstones, purged at the bottom level.
//!
//! This file is the store's front: open and the commit pipeline. The read
//! path is `read.rs`, the manifest and recovery from it `recovery.rs`; what
//! rewrites levels — flush, the compaction scheduler and executor,
//! value-log GC — is `maintenance.rs`.
//!
//! # Concurrency model
//!
//! The store is built for concurrent readers. On-disk state is an
//! immutable, epoch-tagged [`Version`] (copy-on-write, LevelDB-style)
//! swapped atomically on every flush/compaction install:
//!
//! * **reads** briefly take the shared side of the write lock to probe the
//!   memtable and clone the current `Arc<Version>`, then do all Bloom,
//!   index and block IO — and any caller-supplied verification — with no
//!   store lock held;
//! * **writes** take the write lock only for the WAL append + memtable
//!   insert;
//! * **flush/compaction** (serialized by a maintenance mutex) do their
//!   merge IO against a pinned version and re-enter the write lock only to
//!   freeze the memtable and to install the successor version.
//!
//! Retired versions are garbage-collected as readers drain; the listener
//! learns of installs and retirements
//! ([`StoreListener::on_version_install`] /
//! [`StoreListener::on_versions_retired`]), which is how eLSM keeps
//! epoch-tagged commitment snapshots for trace verification without a
//! store-wide mutex (the §5.5.2 guarantee, without §5.5.2's lock).
//!
//! # Write pipeline
//!
//! All writes — singleton puts included — flow through a LevelDB-style
//! **group commit**: a writer enqueues its [`WriteBatch`] and the first
//! writer to find no leader active becomes the leader, drains the queue
//! (up to `MAX_GROUP_COMMIT_BYTES`), and commits the whole
//! group under one write-lock acquisition: timestamps assigned in arrival
//! order, one WAL frame appended per batch (the frame is the crash
//! atomicity unit), every record installed in the memtable. Followers
//! sleep on a condvar until the leader publishes their timestamps. The
//! per-commit fixed costs (operation bookkeeping, the listener's
//! trusted-state fold, and — where the WAL is not mapped — the host exit
//! that pushes each frame) are paid once per group instead of once per
//! record — the ecall/ocall amortization the eLSM paper names as the
//! dominant enclave tax on writes. A store that maps its files writes its
//! frames through a mapping of the log and does not leave the enclave to
//! commit at all, but to map or grow the log (`wal` module docs).
//!
//! All observable events fire on the configured [`StoreListener`], which is
//! how the `elsm` crate adds authentication without modifying this crate.
//! Listener hooks must not write back into the same store from the WAL
//! hooks: they run on the commit leader.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock};

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use sgx_sim::{EnclaveRegion, SerialClass};
use sim_disk::FsError;

use crate::batch::{BatchOp, Ops, WriteBatch};
use crate::compaction::{CompactionDebt, CompactionStrategy, LevelsView};
use crate::env::StorageEnv;
use crate::events::{ReplicationEvent, ReplicationSink, StoreListener};
use crate::memtable::MemTable;
use crate::options::Options;
use crate::read::Interposer;
use crate::record::{Record, Timestamp, ValueKind};
use crate::recovery::MANIFEST;
use crate::version::Version;
use crate::vlog::Vlog;
use crate::wal::WalWriter;

/// Upper bound on the bytes one group-commit leader coalesces before
/// handing leadership on (keeps follower latency bounded under bursts).
const MAX_GROUP_COMMIT_BYTES: usize = 1 << 20;

/// Cumulative operation counters.
///
/// Expressed over the store's telemetry registry (`db.*` counters under
/// the options' [`telemetry::Telemetry`] scope), so the snapshot a test
/// asserts on and the counters a telemetry export reports are *the same
/// atomics* — there is no second bookkeeping path to drift from.
#[derive(Debug, Clone)]
pub struct DbStats {
    pub(crate) puts: telemetry::Counter,
    pub(crate) deletes: telemetry::Counter,
    pub(crate) gets: telemetry::Counter,
    pub(crate) scans: telemetry::Counter,
    pub(crate) flushes: telemetry::Counter,
    pub(crate) compactions: telemetry::Counter,
    pub(crate) compaction_input_records: telemetry::Counter,
    pub(crate) compaction_output_records: telemetry::Counter,
}

impl DbStats {
    fn new(tel: &telemetry::Telemetry) -> Self {
        DbStats {
            puts: tel.counter("db.puts"),
            deletes: tel.counter("db.deletes"),
            gets: tel.counter("db.gets"),
            scans: tel.counter("db.scans"),
            flushes: tel.counter("db.flushes"),
            compactions: tel.counter("db.compactions"),
            compaction_input_records: tel.counter("db.compaction_input_records"),
            compaction_output_records: tel.counter("db.compaction_output_records"),
        }
    }
}

impl Default for DbStats {
    fn default() -> Self {
        DbStats::new(&telemetry::Telemetry::disabled())
    }
}

/// Spans, histograms and gauges instrumenting the store's hot paths.
/// Registered once at open; hot-path use is handle clones and atomics.
#[derive(Debug)]
pub(crate) struct StoreMetrics {
    /// One activation per committed group (leader-side work: WAL frames,
    /// group sync, memtable inserts, trusted fold).
    pub(crate) commit_group: telemetry::Span,
    /// Batches committed through the group pipeline.
    pub(crate) commit_batches: telemetry::Counter,
    /// Coalescing quality: batches riding each group.
    pub(crate) batches_per_group: telemetry::Histogram,
    /// Records riding each group.
    pub(crate) records_per_group: telemetry::Histogram,
    /// WAL frames appended (one per batch).
    pub(crate) wal_frames: telemetry::Counter,
    /// Encoded WAL bytes appended.
    pub(crate) wal_bytes: telemetry::Counter,
    /// Flush phase 1: freeze + WAL rotation + install (write lock).
    pub(crate) flush_freeze: telemetry::Span,
    /// Flush phase 2: separation + merge to the target level (no lock).
    pub(crate) flush_merge: telemetry::Span,
    /// Flush phase 3: successor install + manifest (write lock).
    pub(crate) flush_install: telemetry::Span,
    /// Compaction waves executed (each wave = one strategy pick).
    pub(crate) compaction_waves: telemetry::Counter,
    /// One activation per compaction job merge (worker-thread side).
    pub(crate) compaction_merge: telemetry::Span,
    /// One activation per job install (write-lock side).
    pub(crate) compaction_install: telemetry::Span,
    /// One activation per value-log GC pass that found victims.
    pub(crate) vlog_gc: telemetry::Span,
    /// Instantaneous compaction debt (bytes over per-level budgets).
    pub(crate) debt_bytes: telemetry::Gauge,
    /// Jobs the strategy would schedule right now.
    pub(crate) pending_jobs: telemetry::Gauge,
    /// Bytes in live value-log files.
    pub(crate) vlog_bytes: telemetry::Gauge,
    /// Of those, bytes belonging to dropped pointer records.
    pub(crate) vlog_garbage_bytes: telemetry::Gauge,
}

impl StoreMetrics {
    fn new(tel: &telemetry::Telemetry) -> Self {
        StoreMetrics {
            commit_group: tel.span("commit.group", "commit"),
            commit_batches: tel.counter("commit.batches"),
            batches_per_group: tel.histogram("commit.batches_per_group"),
            records_per_group: tel.histogram("commit.records_per_group"),
            wal_frames: tel.counter("wal.frames"),
            wal_bytes: tel.counter("wal.appended_bytes"),
            flush_freeze: tel.span("flush.freeze", "flush"),
            flush_merge: tel.span("flush.merge", "flush"),
            flush_install: tel.span("flush.install", "flush"),
            compaction_waves: tel.counter("compaction.waves"),
            compaction_merge: tel.span("compaction.merge", "compaction"),
            compaction_install: tel.span("compaction.install", "compaction"),
            vlog_gc: tel.span("vlog.gc", "vlog_gc"),
            debt_bytes: tel.gauge("compaction.debt_bytes"),
            pending_jobs: tel.gauge("compaction.pending_jobs"),
            vlog_bytes: tel.gauge("vlog.bytes"),
            vlog_garbage_bytes: tel.gauge("vlog.garbage_bytes"),
        }
    }
}

/// Snapshot of [`DbStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct DbStatsSnapshot {
    pub puts: u64,
    pub deletes: u64,
    pub gets: u64,
    pub scans: u64,
    pub flushes: u64,
    pub compactions: u64,
    pub compaction_input_records: u64,
    pub compaction_output_records: u64,
    /// Instantaneous compaction debt: total bytes over per-level budgets
    /// (see [`CompactionDebt`] for the per-level breakdown).
    pub debt_bytes: u64,
    /// Jobs the strategy would schedule right now.
    pub pending_compaction_jobs: u64,
    /// Bytes stored in live value-log files (0 when separation is off).
    pub vlog_bytes: u64,
    /// Of those, bytes belonging to dropped pointer records (GC fodder).
    pub vlog_garbage_bytes: u64,
    /// Block-cache hits of the storage environment (0 without a cache).
    pub block_cache_hits: u64,
    /// Block-cache misses of the storage environment.
    pub block_cache_misses: u64,
}

/// The mutable write side: everything the write lock protects.
pub(crate) struct DbInner {
    pub(crate) memtable: MemTable,
    pub(crate) wal: WalWriter,
    /// Oldest WAL the manifest still names (differs from `wal_no` only
    /// while a flush is merging the frozen memtable).
    pub(crate) wal_lo: u64,
    /// The active WAL receiving new appends.
    pub(crate) wal_no: u64,
    /// The version visible to new readers.
    pub(crate) current: Arc<Version>,
    /// Published versions not yet known to have drained (newest included).
    pub(crate) live: Vec<Arc<Version>>,
}

/// One writer's batch waiting for a group-commit leader.
struct PendingBatch {
    seq: u64,
    /// The operations, until the leader moves them into records.
    ops: Ops,
    /// How many operations the batch has (kept once they moved on).
    len: usize,
    /// Timestamp of the first operation, assigned at commit: a batch's
    /// timestamps are contiguous, so it and `len` name them all.
    first_ts: Timestamp,
}

/// The group-commit queue (leader/follower, LevelDB-style).
#[derive(Default)]
struct CommitQueue {
    next_seq: u64,
    pending: VecDeque<PendingBatch>,
    /// First timestamps of committed batches not yet picked up by their
    /// writers, plus the trace context of the group-commit span that
    /// served them (so follower traces can link the shared commit).
    done: HashMap<u64, (Timestamp, telemetry::TraceContext)>,
    leader_active: bool,
    /// The leader's buffers, kept from one group to the next: whoever
    /// leads takes them, and puts them back empty.
    spare: GroupBuffers,
}

/// What a group-commit leader fills: the batches it drained, and their
/// operations as timestamped records.
#[derive(Default)]
struct GroupBuffers {
    group: Vec<PendingBatch>,
    records: Vec<Record>,
}

struct Committer {
    queue: StdMutex<CommitQueue>,
    cv: Condvar,
}

impl Committer {
    fn new() -> Self {
        Committer { queue: StdMutex::new(CommitQueue::default()), cv: Condvar::new() }
    }
}

/// A LevelDB-class LSM key-value store over the simulated platform.
///
/// # Examples
///
/// ```
/// use lsm_store::{Db, Options};
/// use sgx_sim::Platform;
/// use sim_disk::{SimDisk, SimFs};
///
/// # fn main() -> Result<(), sim_disk::FsError> {
/// let platform = Platform::with_defaults();
/// let fs = SimFs::new(SimDisk::new(platform.clone()));
/// let env = lsm_store::StorageEnv::new(platform, fs, lsm_store::EnvConfig::default(), None);
/// let db = Db::open(env, Options::default(), None)?;
/// db.put(b"k", b"v")?;
/// assert_eq!(&db.get(b"k")?.unwrap().value[..], b"v");
/// # Ok(())
/// # }
/// ```
pub struct Db {
    pub(crate) env: Arc<StorageEnv>,
    pub(crate) options: Options,
    pub(crate) listener: Arc<dyn StoreListener>,
    pub(crate) inner: RwLock<DbInner>,
    /// Serializes maintenance passes: memtable freeze, wave selection and
    /// installs. Merge IO itself runs outside the store's write lock (and,
    /// for parallel waves, on worker threads).
    pub(crate) maint: Mutex<()>,
    /// Next SSTable file number; concurrent merge jobs allocate lock-free.
    pub(crate) file_no: AtomicU64,
    /// The configured compaction strategy (from [`Options::compaction`]).
    pub(crate) strategy: Box<dyn CompactionStrategy>,
    /// Point reads search levels bottom-up when runs stack upward
    /// (compaction off, or a stacked strategy such as size-tiered).
    pub(crate) stacked_reads: bool,
    commit: Committer,
    /// Held from a commit's WAL append (under the write lock) until the
    /// listener has folded its records: whoever takes it under the write
    /// lock knows that every frame in the log has been folded.
    pub(crate) wal_fold: Mutex<()>,
    pub(crate) ts: AtomicU64,
    pub(crate) memtable_region: Option<EnclaveRegion>,
    pub(crate) stats: DbStats,
    pub(crate) metrics: StoreMetrics,
    /// Replication event sink, if one is attached (see
    /// [`Db::set_replication_sink`]).
    repl: RwLock<Option<Arc<dyn ReplicationSink>>>,
    /// The value log (key-value separation). Present when
    /// [`Options::vlog`] is set, or when a recovered manifest names log
    /// files (so pointer records stay readable after separation is turned
    /// off). New separation happens only while [`Options::vlog`] is set.
    pub(crate) vlog: Option<Arc<Vlog>>,
    /// Host code a verified read hands its trace to before the check (see
    /// [`Db::interpose`]); empty unless a host installed one.
    pub(crate) interposer: OnceLock<Arc<dyn Interposer>>,
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Db(ts={}, levels={})", self.ts.load(Ordering::Relaxed), self.options.max_levels)
    }
}

impl Db {
    /// Whether point reads search the levels bottom-up — runs stack upward
    /// (compaction off, or a stacked strategy such as size-tiered), so the
    /// freshest run has the highest index — rather than top-down.
    pub fn stacked_reads(&self) -> bool {
        self.stacked_reads
    }

    /// Opens (or recovers) a store in the environment's filesystem.
    ///
    /// If a manifest exists, levels and the WAL are recovered; otherwise a
    /// fresh store is initialized.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO or corruption errors, and
    /// [`FsError::NotFound`] naming the manifest when the filesystem holds
    /// a store's tables, value-log files or logged writes but no manifest.
    pub fn open(
        env: Arc<StorageEnv>,
        options: Options,
        listener: Option<Arc<dyn StoreListener>>,
    ) -> Result<Self, FsError> {
        let listener = listener.unwrap_or_else(|| Arc::new(crate::events::NoopListener));
        let memtable_region = env
            .config()
            .in_enclave
            .then(|| env.platform().enclave_alloc(options.write_buffer_bytes * 2));
        let recovering = env.fs().open(MANIFEST).is_ok();
        let (inner, next_file_no, last_ts, vlog_manifest) = if recovering {
            Self::recover_parts(&env, &options, listener.as_ref())?
        } else {
            Self::fresh_parts(&env, &options)?
        };
        let (vlog_next_no, vlog_files) = vlog_manifest;
        // Keep the log readable even when separation was turned off, as
        // long as the manifest still names files (levels may hold pointer
        // records into them).
        let vlog = if options.vlog.is_some() || !vlog_files.is_empty() {
            let config = options.vlog.unwrap_or_default();
            Some(Arc::new(Vlog::recover(env.clone(), config, vlog_next_no, &vlog_files)?))
        } else {
            None
        };
        // Publish epoch 0 to the listener before any reader exists, so
        // every epoch a trace can name has listener-side state.
        listener.on_version_install(inner.current.epoch());
        let strategy = options.compaction.strategy();
        let stacked_reads = !options.compaction_enabled || strategy.stacked();
        let db = Db {
            env,
            listener,
            inner: RwLock::new(inner),
            maint: Mutex::new(()),
            file_no: AtomicU64::new(next_file_no),
            strategy,
            stacked_reads,
            commit: Committer::new(),
            wal_fold: Mutex::new(()),
            ts: AtomicU64::new(last_ts),
            memtable_region,
            stats: DbStats::new(&options.telemetry),
            metrics: StoreMetrics::new(&options.telemetry),
            repl: RwLock::new(None),
            vlog,
            interposer: OnceLock::new(),
            options,
        };
        if !recovering {
            let _maint = db.maint.lock();
            db.write_manifest()?;
        }
        Ok(db)
    }

    /// The storage environment.
    pub fn env(&self) -> &Arc<StorageEnv> {
        &self.env
    }

    /// The options this store was opened with.
    pub fn options(&self) -> &Options {
        &self.options
    }

    /// Operation counters plus instantaneous compaction-debt gauges.
    ///
    /// The counter values are read back from the telemetry registry the
    /// store was opened with (the registry *is* the bookkeeping); the
    /// instantaneous gauges are recomputed and mirrored into the registry
    /// as `compaction.*`/`vlog.*` gauges.
    pub fn stats(&self) -> DbStatsSnapshot {
        let (debt, (vlog_bytes, vlog_garbage_bytes)) = self.refresh_gauges();
        let (block_cache_hits, block_cache_misses) = self.env.cache_stats().unwrap_or((0, 0));
        DbStatsSnapshot {
            puts: self.stats.puts.value(),
            deletes: self.stats.deletes.value(),
            gets: self.stats.gets.value(),
            scans: self.stats.scans.value(),
            flushes: self.stats.flushes.value(),
            compactions: self.stats.compactions.value(),
            compaction_input_records: self.stats.compaction_input_records.value(),
            compaction_output_records: self.stats.compaction_output_records.value(),
            debt_bytes: debt.total_over_bytes,
            pending_compaction_jobs: debt.pending_jobs as u64,
            vlog_bytes,
            vlog_garbage_bytes,
            block_cache_hits,
            block_cache_misses,
        }
    }

    /// Recomputes the instantaneous gauges — compaction debt and value-log
    /// `(bytes, garbage bytes)` — and mirrors them into the registry.
    pub(crate) fn refresh_gauges(&self) -> (CompactionDebt, (u64, u64)) {
        let debt = self.compaction_debt();
        let vlog = self.vlog.as_ref().map_or((0, 0), |vlog| vlog.stats());
        self.metrics.debt_bytes.set(debt.total_over_bytes);
        self.metrics.pending_jobs.set(debt.pending_jobs as u64);
        self.metrics.vlog_bytes.set(vlog.0);
        self.metrics.vlog_garbage_bytes.set(vlog.1);
        (debt, vlog)
    }

    /// The value log, when key-value separation is (or was) enabled.
    pub fn vlog(&self) -> Option<&Arc<Vlog>> {
        self.vlog.as_ref()
    }

    /// How far behind compaction currently is: per-level bytes over the
    /// geometric size budgets, plus the number of jobs the strategy would
    /// schedule against the current version. Lock-free (reads one version
    /// snapshot).
    fn compaction_debt(&self) -> CompactionDebt {
        let version = self.current_version();
        let view = LevelsView::from_version(&version);
        let mut per_level = vec![0u64];
        for level in 1..view.len() {
            let budget = self.options.level_target_bytes(level.min(self.options.max_levels).max(1));
            per_level.push(view.bytes(level).unwrap_or(0).saturating_sub(budget));
        }
        let pending_jobs = if self.options.compaction_enabled {
            self.strategy.pick_jobs(&view, &self.options).len()
        } else {
            0
        };
        CompactionDebt {
            total_over_bytes: per_level.iter().sum(),
            per_level_over_bytes: per_level,
            pending_jobs,
        }
    }

    /// Attaches the sink that observes this store's replication event
    /// stream ([`ReplicationEvent`]): committed WAL frames, flush and
    /// compaction-job markers, and version installs, in stream order.
    /// One sink at a time; registering replaces any previous one.
    pub fn set_replication_sink(&self, sink: Arc<dyn ReplicationSink>) {
        *self.repl.write() = Some(sink);
    }

    /// Fires one replication event at the attached sink, if any.
    pub(crate) fn emit(&self, event: ReplicationEvent<'_>) {
        if let Some(sink) = self.repl.read().as_ref() {
            sink.on_event(event);
        }
    }

    /// The currently visible version snapshot. Readers may hold it
    /// arbitrarily long; its epoch stays verifiable until the snapshot
    /// drops.
    pub fn current_version(&self) -> Arc<Version> {
        self.inner.read().current.clone()
    }

    /// Epoch of the currently visible version.
    pub fn current_epoch(&self) -> u64 {
        self.inner.read().current.epoch()
    }

    /// Every record of one on-disk level, in internal-key order, owned —
    /// for harnesses that inspect or tamper with stored records (recovery
    /// streams a level through [`Run::for_each_record`](crate::version::Run::for_each_record)
    /// instead).
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors, and when a table of the level
    /// does not decode to its end.
    pub fn level_record_dump(&self, level: usize) -> Result<Vec<Record>, FsError> {
        let mut records = Vec::new();
        if let Some(run) = self.current_version().level(level) {
            run.for_each_record(|r| records.push(r.to_record()))?;
        }
        Ok(records)
    }

    /// Bytes stored at each level (index 0 = memtable approximation,
    /// including a frozen memtable mid-flush).
    pub fn level_bytes(&self) -> Vec<u64> {
        let (mem, version) = {
            let inner = self.inner.read();
            (inner.memtable.approximate_bytes() as u64, inner.current.clone())
        };
        let imm = version.imm().map_or(0, |m| m.approximate_bytes() as u64);
        let mut out = vec![mem + imm];
        for level in 1..version.levels().len() {
            out.push(version.level(level).map_or(0, |r| r.total_bytes()));
        }
        out
    }

    /// Record count at each level (index 0 = memtable, including a frozen
    /// memtable mid-flush).
    pub fn level_records(&self) -> Vec<u64> {
        let (mem, version) = {
            let inner = self.inner.read();
            (inner.memtable.len() as u64, inner.current.clone())
        };
        let imm = version.imm().map_or(0, |m| m.len() as u64);
        let mut out = vec![mem + imm];
        for level in 1..version.levels().len() {
            out.push(version.level(level).map_or(0, |r| r.total_records()));
        }
        out
    }

    // ----- write path -----------------------------------------------------

    /// Inserts a key-value record; returns its timestamp (Equation 1:
    /// `ts = PUT(k, v)`). Key and value are copied into one shared buffer
    /// and committed as [`Db::put_bytes`] commits them.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] if flushing or compaction IO fails.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<Timestamp, FsError> {
        let record = Bytes::build(key.len() + value.len(), |buf| {
            let (key_buf, value_buf) = buf.split_at_mut(key.len());
            key_buf.copy_from_slice(key);
            value_buf.copy_from_slice(value);
        });
        self.put_bytes(record.slice(..key.len()), record.slice(key.len()..))
    }

    /// Inserts a key-value record the caller already holds as `Bytes`;
    /// returns its timestamp. The record rides the group-commit pipeline
    /// as a batch of one — racing singleton writers coalesce into one
    /// commit — and reaches the memtable without a copy or a vector.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] if flushing or compaction IO fails.
    pub fn put_bytes(&self, key: Bytes, value: Bytes) -> Result<Timestamp, FsError> {
        self.commit(Ops::One(BatchOp { key, value, kind: ValueKind::Put }))
    }

    /// Deletes a key by writing a tombstone; returns its timestamp.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] if flushing or compaction IO fails.
    pub fn delete(&self, key: &[u8]) -> Result<Timestamp, FsError> {
        let key = Bytes::copy_from_slice(key);
        self.commit(Ops::One(BatchOp { key, value: Bytes::new(), kind: ValueKind::Delete }))
    }

    /// Applies a [`WriteBatch`] atomically; returns one timestamp per
    /// operation, in batch order.
    ///
    /// Concurrent writers' batches are coalesced by a leader (LevelDB-style
    /// group commit): the whole group pays one write-lock acquisition and
    /// one fixed bookkeeping charge, and each batch one WAL push (a host
    /// exit unless the log is mapped) — while each batch stays its own
    /// atomic WAL frame, so a crash either persists a batch whole or drops
    /// it whole.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] if the flush this write triggers fails; the
    /// batch itself is already committed at that point.
    ///
    /// # Panics
    ///
    /// Panics if the batch's encoded WAL frame would exceed the format's
    /// 32-bit length field (≈4 GiB) — split giant ingests into multiple
    /// batches.
    pub fn write_batch(&self, batch: WriteBatch) -> Result<Vec<Timestamp>, FsError> {
        let len = batch.len() as u64;
        if len == 0 {
            return Ok(Vec::new());
        }
        let first = self.commit(batch.into_ops())?;
        Ok((first..first + len).collect())
    }

    /// Commits one writer's operations (one WAL frame) through the
    /// group-commit queue; returns the first one's timestamp.
    fn commit(&self, ops: Ops) -> Result<Timestamp, FsError> {
        // The WAL frame's length field is 32-bit: a batch whose encoded
        // payload could overflow it must fail here, on its own writer's
        // thread, not as a panic on whichever leader commits the group
        // (18 bytes/record bounds the encoding overhead).
        let payload: usize = ops.as_slice().iter().map(|o| o.key.len() + o.value.len()).sum();
        let len = ops.as_slice().len();
        assert!(
            payload + 18 * len < u32::MAX as usize,
            "write batch too large for one WAL frame ({payload} payload bytes); split it"
        );
        for op in ops.as_slice() {
            match op.kind {
                ValueKind::Put | ValueKind::VlogPut => self.stats.puts.inc(),
                ValueKind::Delete => self.stats.deletes.inc(),
            };
        }
        let mut q = self.commit.queue.lock().expect("commit queue poisoned");
        let seq = q.next_seq;
        q.next_seq += 1;
        q.pending.push_back(PendingBatch { seq, ops, len, first_ts: 0 });
        loop {
            // A previous leader may have committed us while we waited.
            if let Some((first_ts, commit_ctx)) = q.done.remove(&seq) {
                // One group commit served many writers: this follower's
                // request tree records a span *link* to the shared commit
                // span rather than claiming it as a child.
                telemetry::trace::link_current(commit_ctx);
                return Ok(first_ts);
            }
            if q.leader_active {
                q = self.commit.cv.wait(q).expect("commit queue poisoned");
                continue;
            }
            // Become the leader: drain waiting batches in arrival order up
            // to the group byte budget.
            q.leader_active = true;
            let GroupBuffers { mut group, mut records } = std::mem::take(&mut q.spare);
            let mut group_bytes = 0usize;
            while let Some(front) = q.pending.front() {
                let bytes: usize =
                    front.ops.as_slice().iter().map(|o| o.key.len() + o.value.len() + 24).sum();
                if !group.is_empty() && group_bytes + bytes > MAX_GROUP_COMMIT_BYTES {
                    break;
                }
                group_bytes += bytes;
                group.push(q.pending.pop_front().expect("front checked"));
            }
            drop(q);
            let (commit_ctx, flush_needed) = self.commit_group(&mut group, &mut records);
            q = self.commit.queue.lock().expect("commit queue poisoned");
            for p in group.drain(..) {
                q.done.insert(p.seq, (p.first_ts, commit_ctx));
            }
            q.spare = GroupBuffers { group, records };
            q.leader_active = false;
            self.commit.cv.notify_all();
            let mine = q.done.remove(&seq);
            if let Some((first_ts, _ctx)) = mine {
                // The leader's own trace already encloses the commit span
                // as a nested child; no link needed.
                drop(q);
                // Only the leader chases the flush its group triggered;
                // followers are already unblocked.
                if flush_needed {
                    self.flush_if_over()?;
                }
                return Ok(first_ts);
            }
            // Our batch did not fit this group's budget: loop and commit it
            // in the next group (we are first in the queue now).
        }
    }

    /// Commits a drained group: timestamps in arrival order, one WAL frame
    /// per batch, every record installed in the memtable — all under a
    /// single write-lock acquisition. Runs only on the group-commit leader,
    /// which lends its `records` buffer (handed back empty).
    fn commit_group(
        &self,
        group: &mut [PendingBatch],
        records: &mut Vec<Record>,
    ) -> (telemetry::TraceContext, bool) {
        // The commit span nests under the leader's request trace (it runs
        // on the leader's thread); its context is handed back through the
        // done map so followers can link it, and it is the innermost
        // active span when frames are shipped below — the wire envelope
        // carries it to replicas.
        let span = self.metrics.commit_group.start();
        let trace_ctx = span.ctx();
        let total_ops: usize = group.iter().map(|p| p.len).sum();
        self.metrics.commit_batches.add(group.len() as u64);
        self.metrics.batches_per_group.observe(group.len() as u64);
        self.metrics.records_per_group.observe(total_ops as u64);
        let (flush_needed, folding) = {
            let _serial = self.env.platform().serial_section(SerialClass::StoreWrite);
            // Fixed commit bookkeeping is paid once per group, not per op.
            self.env.platform().charge_op_base();
            let mut inner = self.inner.write();
            for p in group.iter_mut() {
                // Timestamps are assigned under the write lock, so
                // timestamp order equals commit order even across racing
                // writers, and a batch's records are always contiguous.
                p.first_ts = self.ts.fetch_add(p.len as u64, Ordering::SeqCst) + 1;
                let mut ts = p.first_ts;
                p.ops.drain(|op| {
                    records.push(Record { key: op.key, value: op.value, ts, kind: op.kind });
                    ts += 1;
                });
            }
            self.apply_frames_locked(&mut inner, records, group.iter().map(|p| p.len));
            let over = inner.memtable.approximate_bytes() >= self.options.write_buffer_bytes;
            (over, self.wal_fold.lock())
        };
        // Outside the write lock — leader exclusivity still keeps commit
        // order — the listener folds the group into its order-sensitive
        // trusted state (eLSM's WAL digest), once per group.
        self.listener.on_wal_append_batch(records);
        drop(folding);
        records.clear();
        (trace_ctx, flush_needed)
    }

    /// What every commit does under the write lock, local or replicated:
    /// one WAL frame per batch (`records` cut at `frame_lens`), then every
    /// record into the memtable.
    fn apply_frames_locked(
        &self,
        inner: &mut DbInner,
        records: &[Record],
        frame_lens: impl Iterator<Item = usize>,
    ) {
        let mut start = 0;
        for len in frame_lens {
            let frame = &records[start..start + len];
            let frame_bytes = inner.wal.append_batch(frame);
            self.metrics.wal_frames.inc();
            self.metrics.wal_bytes.add(frame_bytes as u64);
            // Ship the frame while the write lock still orders the
            // stream: a concurrent flush can then never slip its marker
            // between a committed frame and its shipment. (A replica
            // ships too: it can itself feed replicas.)
            self.emit(ReplicationEvent::Frame { records: frame });
            start += len;
        }
        for record in records {
            // Model the in-enclave memtable write: touch the insertion
            // point.
            if let Some(region) = &self.memtable_region {
                let off = inner.memtable.approximate_bytes() % region.len().max(1);
                let len =
                    record.approximate_size().min(region.len() - off.min(region.len())).max(1);
                self.env.platform().enclave_touch(region, off.min(region.len() - len), len);
            }
            inner.memtable.insert(record.clone());
        }
    }

    /// The clean shutdown: rewrites the manifest, so the listener's
    /// section covers every write so far. Every acknowledged frame is on
    /// the host already; there is nothing to push.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors.
    pub fn close(&self) -> Result<(), FsError> {
        let _maint = self.maint.lock();
        self.write_manifest()
    }

    /// Applies one replicated WAL batch frame: records shipped from a
    /// primary, **timestamps already assigned** by the primary's enclave.
    ///
    /// This is the replica half of the replication seam. The records are
    /// appended to this store's own WAL as one atomic frame, inserted
    /// into the memtable, and folded through the listener exactly as a
    /// local commit would be — so a replica that replays the primary's
    /// event stream ends up with the same memtable content, the same WAL
    /// digest, and (after replaying the primary's `Flush`/`Compact`
    /// markers) the same level contents and epochs. The timestamp
    /// allocator advances past the frame's timestamps, keeping a later
    /// promotion's own writes strictly newer.
    ///
    /// Deliberately does **not** trigger a flush: version boundaries come
    /// from the primary's [`ReplicationEvent::Flush`] markers (replayed as
    /// [`Db::flush`]), never from this store's own thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors.
    pub fn apply_replicated_batch(&self, records: &[Record]) -> Result<(), FsError> {
        if records.is_empty() {
            return Ok(());
        }
        for record in records {
            match record.kind {
                ValueKind::Put | ValueKind::VlogPut => self.stats.puts.inc(),
                ValueKind::Delete => self.stats.deletes.inc(),
            };
        }
        let folding = {
            let _serial = self.env.platform().serial_section(SerialClass::StoreWrite);
            self.env.platform().charge_op_base();
            let mut inner = self.inner.write();
            let max_ts = records.iter().map(|r| r.ts).max().unwrap_or(0);
            self.ts.fetch_max(max_ts, Ordering::SeqCst);
            self.apply_frames_locked(&mut inner, records, std::iter::once(records.len()));
            self.wal_fold.lock()
        };
        self.listener.on_wal_append_batch(records);
        drop(folding);
        Ok(())
    }
}

pub(crate) fn table_name(file_no: u64) -> String {
    format!("{file_no:06}.sst")
}

pub(crate) fn wal_name(wal_no: u64) -> String {
    format!("wal-{wal_no:06}.log")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    use sgx_sim::Platform;
    use sim_disk::{SimDisk, SimFs};

    impl Db {
        /// Latest assigned timestamp.
        pub(crate) fn latest_ts(&self) -> Timestamp {
            self.ts.load(Ordering::SeqCst)
        }
    }

    pub(crate) fn open_db(options: Options) -> Arc<Db> {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let env = StorageEnv::new(platform, fs, options.env.clone(), None);
        Arc::new(Db::open(env, options, None).unwrap())
    }

    pub(crate) fn small_options() -> Options {
        Options {
            write_buffer_bytes: 4 * 1024,
            target_file_bytes: 8 * 1024,
            level1_max_bytes: 16 * 1024,
            level_multiplier: 4,
            max_levels: 4,
            ..Options::default()
        }
    }

    #[test]
    fn put_get_round_trip() {
        let db = open_db(small_options());
        db.put(b"alpha", b"1").unwrap();
        db.put(b"beta", b"2").unwrap();
        assert_eq!(&db.get(b"alpha").unwrap().unwrap().value[..], b"1");
        assert_eq!(&db.get(b"beta").unwrap().unwrap().value[..], b"2");
        assert!(db.get(b"gamma").unwrap().is_none());
    }

    #[test]
    fn overwrites_return_newest() {
        let db = open_db(small_options());
        db.put(b"k", b"v1").unwrap();
        db.put(b"k", b"v2").unwrap();
        assert_eq!(&db.get(b"k").unwrap().unwrap().value[..], b"v2");
    }

    #[test]
    fn timestamps_are_unique_and_monotone() {
        let db = open_db(small_options());
        let t1 = db.put(b"a", b"1").unwrap();
        let t2 = db.put(b"b", b"2").unwrap();
        let t3 = db.delete(b"a").unwrap();
        assert!(t1 < t2 && t2 < t3);
    }

    #[test]
    fn delete_hides_key() {
        let db = open_db(small_options());
        db.put(b"k", b"v").unwrap();
        db.delete(b"k").unwrap();
        assert!(db.get(b"k").unwrap().is_none());
    }

    #[test]
    fn write_batch_round_trips_with_consecutive_timestamps() {
        let db = open_db(small_options());
        db.put(b"before", b"x").unwrap();
        let mut batch = WriteBatch::new();
        for i in 0..10 {
            batch.put(format!("b{i:02}").into_bytes(), format!("v{i}").into_bytes());
        }
        batch.delete(b"b03".as_slice());
        let ts = db.write_batch(batch).unwrap();
        assert_eq!(ts.len(), 11);
        for w in ts.windows(2) {
            assert_eq!(w[1], w[0] + 1, "a batch's timestamps are contiguous");
        }
        for i in 0..10 {
            let got = db.get(format!("b{i:02}").as_bytes()).unwrap();
            if i == 3 {
                assert!(got.is_none(), "tombstone in the same batch wins");
            } else {
                assert_eq!(&got.unwrap().value[..], format!("v{i}").as_bytes());
            }
        }
    }

    #[test]
    fn empty_write_batch_is_a_noop() {
        let db = open_db(small_options());
        assert!(db.write_batch(WriteBatch::new()).unwrap().is_empty());
        assert_eq!(db.stats().puts, 0);
    }

    #[test]
    fn batch_commit_pays_one_host_exit() {
        let db = open_db(small_options());
        let ocalls0 = db.env().platform().stats().ocalls;
        let mut batch = WriteBatch::new();
        for i in 0..16 {
            batch.put(format!("k{i:02}").into_bytes(), b"v".as_slice());
        }
        db.write_batch(batch).unwrap();
        let ocalls = db.env().platform().stats().ocalls - ocalls0;
        assert_eq!(ocalls, 1, "one WAL exit per batch, not per record");
    }

    #[test]
    fn a_mapped_log_is_one_host_exit_per_mapping() {
        // With its files mapped, a store's first commit has the host map
        // the log; every later frame — a local batch, a delete, a
        // replicated frame's replay — is copied into the mapping.
        let mapped = crate::env::EnvConfig {
            use_mmap: true,
            block_cache_bytes: 0,
            ..crate::env::EnvConfig::default()
        };
        let db = open_db(Options { env: mapped, write_buffer_bytes: 1 << 20, ..small_options() });
        let ocalls = || db.env().platform().stats().ocalls;
        let ocalls0 = ocalls();
        db.put(b"first", b"v").unwrap();
        assert_eq!(ocalls() - ocalls0, 1, "the first commit maps the log");
        let mut batch = WriteBatch::new();
        for i in 0..16 {
            batch.put(format!("k{i:02}").into_bytes(), b"v".as_slice());
        }
        db.write_batch(batch).unwrap();
        db.delete(b"first").unwrap();
        db.apply_replicated_batch(&[Record::put(b"replayed".as_slice(), b"r".as_slice(), 1_000)])
            .unwrap();
        assert_eq!(ocalls() - ocalls0, 1, "later frames stay in the enclave");
        assert_eq!(&db.get(b"replayed").unwrap().unwrap().value[..], b"r");
    }

    #[test]
    fn a_rotated_log_is_mapped_by_the_manifest_write() {
        // A commit group larger than the write buffer fills a log by
        // itself, so every commit flushes and rotates the log. The next
        // log is mapped in the host call that writes the freeze's
        // manifest, as large as the closed log needed: its one frame
        // leaves the enclave no more.
        let mapped = crate::env::EnvConfig {
            use_mmap: true,
            block_cache_bytes: 0,
            ..crate::env::EnvConfig::default()
        };
        let db = open_db(Options { env: mapped, compaction_enabled: false, ..small_options() });
        let batch = |round: u8| {
            let mut batch = WriteBatch::new();
            for i in 0..40 {
                batch.put(format!("r{round}k{i:02}").into_bytes(), vec![round; 128]);
            }
            batch
        };
        let ocalls = || db.env().platform().stats().ocalls;
        let before = ocalls();
        db.write_batch(batch(0)).unwrap();
        assert_eq!(db.stats().flushes, 1, "the batch fills the write buffer");
        assert_eq!(ocalls() - before, 4, "the first log's mapping, the table's, two manifests");
        for round in 1..4 {
            let before = ocalls();
            db.write_batch(batch(round)).unwrap();
            assert_eq!(ocalls() - before, 3, "the table's mapping and two manifests");
        }
        assert_eq!(db.stats().flushes, 4);
    }

    #[test]
    fn racing_writers_coalesce_into_groups() {
        // With many threads hammering singleton puts, followers must ride
        // leaders' commits: fewer op-base charges than records would imply
        // is not directly observable, but correctness under the committer
        // is — every write must land exactly once, timestamps unique.
        let db = open_db(Options { write_buffer_bytes: 1 << 20, ..small_options() });
        std::thread::scope(|s| {
            for t in 0..8 {
                let db = &db;
                s.spawn(move || {
                    for i in 0..100 {
                        let mut batch = WriteBatch::new();
                        batch.put(format!("t{t}-k{i:03}").into_bytes(), b"v".as_slice());
                        batch.put(format!("t{t}-k{i:03}-b").into_bytes(), b"w".as_slice());
                        db.write_batch(batch).unwrap();
                    }
                });
            }
        });
        assert_eq!(db.stats().puts, 1600);
        let mut seen = std::collections::HashSet::new();
        for t in 0..8 {
            for i in 0..100 {
                let r = db.get(format!("t{t}-k{i:03}").as_bytes()).unwrap().unwrap();
                assert!(seen.insert(r.ts), "timestamps must be unique");
            }
        }
        // Group commit must have coalesced at least some racing batches
        // into shared WAL frames... which recovery can count: replaying the
        // log yields every record regardless of grouping.
        let total: u64 = db.level_records().iter().sum::<u64>();
        assert_eq!(total, 1600, "no record lost or duplicated: {total}");
    }

    #[test]
    fn concurrent_puts_and_gets_are_safe() {
        let db = open_db(small_options());
        std::thread::scope(|s| {
            for t in 0..4 {
                let db = &db;
                s.spawn(move || {
                    for i in 0..200 {
                        let key = format!("t{t}-key{i:04}");
                        db.put(key.as_bytes(), b"v").unwrap();
                        assert!(db.get(key.as_bytes()).unwrap().is_some());
                    }
                });
            }
        });
        for t in 0..4 {
            for i in (0..200).step_by(13) {
                let key = format!("t{t}-key{i:04}");
                assert!(db.get(key.as_bytes()).unwrap().is_some(), "missing {key}");
            }
        }
    }

    #[test]
    fn concurrent_readers_race_flushes_without_losing_data() {
        let db = open_db(small_options());
        for i in 0..200 {
            db.put(format!("key{i:04}").as_bytes(), b"stable").unwrap();
        }
        db.flush().unwrap();
        std::thread::scope(|s| {
            // One writer churning flushes and compactions over other keys.
            let dbw = &db;
            s.spawn(move || {
                for i in 0..1500u32 {
                    dbw.put(format!("churn{:05}", i % 300).as_bytes(), &[b'x'; 60]).unwrap();
                }
            });
            // Readers: the stable keys must never disappear mid-install.
            for t in 0..4 {
                let dbr = &db;
                s.spawn(move || {
                    for i in 0..400u32 {
                        let k = format!("key{:04}", (i * 7 + t * 13) % 200);
                        let r = dbr.get(k.as_bytes()).unwrap();
                        assert!(r.is_some(), "reader lost {k} during flush/compaction");
                    }
                });
            }
        });
        assert!(db.stats().flushes > 0);
    }

    #[test]
    fn compaction_debt_reports_backlog() {
        // Bottom-level overflow is un-schedulable debt under leveled
        // compaction (no level below to merge into): the gauge must
        // report it while pending_jobs stays drained.
        let db = open_db(Options {
            level1_max_bytes: 1024,
            level_multiplier: 2,
            max_levels: 2,
            ..small_options()
        });
        for i in 0..1500u32 {
            db.put(format!("key{:05}", i % 300).as_bytes(), &[b'x'; 40]).unwrap();
        }
        db.flush().unwrap();
        let debt = db.compaction_debt();
        assert!(debt.total_over_bytes > 0, "bottom level must be over budget: {debt:?}");
        assert_eq!(debt.pending_jobs, 0, "scheduler drains every schedulable job: {debt:?}");
        assert_eq!(debt.per_level_over_bytes.iter().sum::<u64>(), debt.total_over_bytes);
        let snap = db.stats();
        assert_eq!(snap.debt_bytes, debt.total_over_bytes, "stats gauge mirrors debt");
        assert_eq!(snap.pending_compaction_jobs, 0);
    }
}
