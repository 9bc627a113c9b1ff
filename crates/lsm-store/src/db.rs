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
//! # Compaction scheduler
//!
//! Which merges run is delegated to a pluggable
//! [`CompactionStrategy`](crate::compaction::CompactionStrategy)
//! (leveled — the paper's model — or size-tiered). After each flush the
//! scheduler repeatedly asks the strategy for a **wave**: a set of jobs
//! over pairwise-disjoint level sets. Wave jobs merge concurrently on
//! scoped worker threads (each under its own
//! [`SerialClass::compaction_slot`] so simulated merge time overlaps
//! across clients), then install sequentially in deterministic job order
//! — each install a brief write-lock epoch swap, so readers stay
//! lock-free and group commit keeps flowing while merges run. The
//! maintenance mutex now covers only job selection, the memtable freeze
//! and installs, not merge IO.
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
//! per-commit fixed costs (operation bookkeeping, host exits for the WAL,
//! the listener's trusted-state fold) are paid once per group instead of
//! once per record — the ecall/ocall amortization the eLSM paper names as
//! the dominant enclave tax on writes.
//!
//! All observable events fire on the configured [`StoreListener`], which is
//! how the `elsm` crate adds authentication without modifying this crate.
//! Listener hooks must not write back into the same store from the WAL
//! hooks: they run on the commit leader.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use sgx_sim::{EnclaveRegion, SerialClass};
use sim_disk::FsError;

use crate::batch::{BatchOp, WriteBatch};
use crate::compaction::{CompactionDebt, CompactionJob, CompactionStrategy, LevelsView, VlogGcJob};
use crate::encoding::{get_fixed_u64, get_varint_u64, put_fixed_u64, put_varint_u64};
use crate::env::StorageEnv;
use crate::events::{
    CompactionInfo, FilterDecision, RecordSource, ReplicationEvent, ReplicationSink, StoreListener,
};
use crate::memtable::MemTable;
use crate::merge::{KWayMerge, MergeInput};
use crate::options::{Options, WalSyncPolicy};
use crate::record::{Record, Timestamp, ValueKind};
use crate::sstable::{NeighborPolicy, TableBuilder, TableGet, TableReader};
use crate::version::{GetTrace, LevelOutcome, LevelRange, LevelSearch, Run, ScanTrace, Version};
use crate::vlog::{decode_pointer, encode_pointer, parse_vlog_name, vlog_name, Vlog};
use crate::wal::{recover, WalWriter};

const MANIFEST: &str = "MANIFEST";

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
    puts: telemetry::Counter,
    deletes: telemetry::Counter,
    gets: telemetry::Counter,
    scans: telemetry::Counter,
    flushes: telemetry::Counter,
    compactions: telemetry::Counter,
    compaction_input_records: telemetry::Counter,
    compaction_output_records: telemetry::Counter,
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
struct StoreMetrics {
    /// One activation per committed group (leader-side work: WAL frames,
    /// group sync, memtable inserts, trusted fold).
    commit_group: telemetry::SpanHandle,
    /// Batches committed through the group pipeline.
    commit_batches: telemetry::Counter,
    /// Coalescing quality: batches riding each group.
    batches_per_group: telemetry::Histogram,
    /// Records riding each group.
    records_per_group: telemetry::Histogram,
    /// WAL frames appended (one per batch).
    wal_frames: telemetry::Counter,
    /// Encoded WAL bytes appended.
    wal_bytes: telemetry::Counter,
    /// Host pushes of buffered WAL frames.
    wal_syncs: telemetry::Counter,
    /// Flush phase 1: freeze + WAL rotation + install (write lock).
    flush_freeze: telemetry::SpanHandle,
    /// Flush phase 2: separation + merge to the target level (no lock).
    flush_merge: telemetry::SpanHandle,
    /// Flush phase 3: successor install + manifest (write lock).
    flush_install: telemetry::SpanHandle,
    /// Compaction waves executed (each wave = one strategy pick).
    compaction_waves: telemetry::Counter,
    /// One activation per compaction job merge (worker-thread side).
    compaction_merge: telemetry::SpanHandle,
    /// One activation per job install (write-lock side).
    compaction_install: telemetry::SpanHandle,
    /// One activation per value-log GC pass that found victims.
    vlog_gc: telemetry::SpanHandle,
    /// Instantaneous compaction debt (bytes over per-level budgets).
    debt_bytes: telemetry::Gauge,
    /// Jobs the strategy would schedule right now.
    pending_jobs: telemetry::Gauge,
    /// Bytes in live value-log files.
    vlog_bytes: telemetry::Gauge,
    /// Of those, bytes belonging to dropped pointer records.
    vlog_garbage_bytes: telemetry::Gauge,
}

impl StoreMetrics {
    fn new(tel: &telemetry::Telemetry) -> Self {
        StoreMetrics {
            commit_group: tel.span("commit.group"),
            commit_batches: tel.counter("commit.batches"),
            batches_per_group: tel.histogram("commit.batches_per_group"),
            records_per_group: tel.histogram("commit.records_per_group"),
            wal_frames: tel.counter("wal.frames"),
            wal_bytes: tel.counter("wal.appended_bytes"),
            wal_syncs: tel.counter("wal.syncs"),
            flush_freeze: tel.span("flush.freeze"),
            flush_merge: tel.span("flush.merge"),
            flush_install: tel.span("flush.install"),
            compaction_waves: tel.counter("compaction.waves"),
            compaction_merge: tel.span("compaction.merge"),
            compaction_install: tel.span("compaction.install"),
            vlog_gc: tel.span("vlog.gc"),
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
    /// (see [`Db::compaction_debt`] for the per-level breakdown).
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
struct DbInner {
    memtable: MemTable,
    wal: WalWriter,
    /// Oldest WAL the manifest still names (differs from `wal_no` only
    /// while a flush is merging the frozen memtable).
    wal_lo: u64,
    /// The active WAL receiving new appends.
    wal_no: u64,
    /// The version visible to new readers.
    current: Arc<Version>,
    /// Published versions not yet known to have drained (newest included).
    live: Vec<Arc<Version>>,
}

/// One finished merge: the output run (None when everything was purged)
/// plus the listener-facing summary.
struct MergeOutput {
    run: Option<Arc<Run>>,
    info: CompactionInfo,
}

/// One writer's batch waiting for a group-commit leader.
struct PendingBatch {
    seq: u64,
    ops: Vec<BatchOp>,
}

/// The group-commit queue (leader/follower, LevelDB-style).
#[derive(Default)]
struct CommitQueue {
    next_seq: u64,
    pending: VecDeque<PendingBatch>,
    /// Timestamps of committed batches not yet picked up by their
    /// writers, plus the trace context of the group-commit span that
    /// served them (so follower traces can link the shared commit).
    done: HashMap<u64, (Vec<Timestamp>, telemetry::TraceContext)>,
    leader_active: bool,
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
    env: Arc<StorageEnv>,
    options: Options,
    listener: Arc<dyn StoreListener>,
    inner: RwLock<DbInner>,
    /// Serializes maintenance passes: memtable freeze, wave selection and
    /// installs. Merge IO itself runs outside the store's write lock (and,
    /// for parallel waves, on worker threads).
    maint: Mutex<()>,
    /// Next SSTable file number; concurrent merge jobs allocate lock-free.
    file_no: AtomicU64,
    /// The configured compaction strategy (from [`Options::compaction`]).
    strategy: Box<dyn CompactionStrategy>,
    /// Point reads search levels bottom-up when runs stack upward
    /// (compaction off, or a stacked strategy such as size-tiered).
    stacked_reads: bool,
    commit: Committer,
    ts: AtomicU64,
    memtable_region: Option<EnclaveRegion>,
    stats: DbStats,
    metrics: StoreMetrics,
    /// Replication event sink, if one is attached (see
    /// [`Db::set_replication_sink`]).
    repl: RwLock<Option<Arc<dyn ReplicationSink>>>,
    /// The value log (key-value separation). Present when
    /// [`Options::vlog`] is set, or when a recovered manifest names log
    /// files (so pointer records stay readable after separation is turned
    /// off). New separation happens only while [`Options::vlog`] is set.
    vlog: Option<Arc<Vlog>>,
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Db(ts={}, levels={})", self.ts.load(Ordering::Relaxed), self.options.max_levels)
    }
}

impl Db {
    /// Opens (or recovers) a store in the environment's filesystem.
    ///
    /// If a manifest exists, levels and the WAL are recovered; otherwise a
    /// fresh store is initialized.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO or corruption errors.
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
            Self::recover_parts(&env, &options)?
        } else {
            let wal_file = env.fs().create(&wal_name(1))?;
            let current = Arc::new(Version::empty(options.max_levels));
            (
                DbInner {
                    memtable: MemTable::new(),
                    wal: WalWriter::new(env.clone(), wal_file, options.wal_sync),
                    wal_lo: 1,
                    wal_no: 1,
                    live: vec![current.clone()],
                    current,
                },
                1,
                0,
                (1, Vec::new()),
            )
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
            ts: AtomicU64::new(last_ts),
            memtable_region,
            stats: DbStats::new(&options.telemetry),
            metrics: StoreMetrics::new(&options.telemetry),
            repl: RwLock::new(None),
            vlog,
            options,
        };
        if !recovering {
            let _maint = db.maint.lock();
            db.write_manifest()?;
        }
        Ok(db)
    }

    #[allow(clippy::type_complexity)]
    fn recover_parts(
        env: &Arc<StorageEnv>,
        options: &Options,
    ) -> Result<(DbInner, u64, u64, (u64, Vec<(u64, u64, u64)>)), FsError> {
        let manifest = env.fs().open(MANIFEST)?;
        let bytes = env.host_call(|| manifest.read_at(0, manifest.len()))?;
        let corrupt =
            || FsError::OutOfBounds { name: MANIFEST.to_string(), requested_end: 0, len: 0 };
        let next_file_no = get_fixed_u64(&bytes, 0).ok_or_else(corrupt)?;
        let last_ts = get_fixed_u64(&bytes, 8).ok_or_else(corrupt)?;
        let wal_lo = get_fixed_u64(&bytes, 16).ok_or_else(corrupt)?;
        let wal_no = get_fixed_u64(&bytes, 24).ok_or_else(corrupt)?;
        let mut pos = 32usize;
        let (nlevels, n) = get_varint_u64(&bytes[pos..]).ok_or_else(corrupt)?;
        pos += n;
        let mut levels: Vec<Option<Arc<Run>>> =
            (0..=options.max_levels.max(nlevels as usize)).map(|_| None).collect();
        let mut named = HashSet::new();
        for slot in levels.iter_mut().take(nlevels as usize + 1).skip(1) {
            let (nfiles, n) = get_varint_u64(&bytes[pos..]).ok_or_else(corrupt)?;
            pos += n;
            if nfiles == 0 {
                continue;
            }
            let mut tables = Vec::new();
            for _ in 0..nfiles {
                let (file_no, n) = get_varint_u64(&bytes[pos..]).ok_or_else(corrupt)?;
                pos += n;
                named.insert(file_no);
                let file = env.fs().open(&table_name(file_no))?;
                tables.push(Arc::new(TableReader::open(env.clone(), file, file_no)?));
            }
            *slot = Some(Arc::new(Run::new(tables)));
        }
        // The value-log section follows the levels. Older manifests (no
        // section) decode as an empty log.
        let (vlog_next_no, vlog_files) = match crate::vlog::decode_manifest_section(&bytes[pos..]) {
            Some((next_no, files, _)) => (next_no, files),
            None => (1, Vec::new()),
        };
        // A crash between writing a merge's output files and the manifest
        // that names them leaves orphaned SSTables. Remove them: they hold
        // only data still reachable through the manifest's inputs, and
        // leaving them would collide with reused file numbers (the
        // recovered `next_file_no` predates the orphans).
        let named_vlogs: HashSet<u64> = vlog_files.iter().map(|&(no, _, _)| no).collect();
        for name in env.fs().list() {
            if let Some(no) = parse_table_name(&name) {
                if !named.contains(&no) {
                    let _ = env.fs().delete(&name);
                }
            }
            // Likewise for value-log files the manifest never learned of:
            // no durable pointer record can name them (pointers reach the
            // levels only via SSTables the same manifest would name), so
            // they hold only garbage from a crash mid-flush or mid-GC.
            if let Some(no) = parse_vlog_name(&name) {
                if !named_vlogs.contains(&no) {
                    let _ = env.fs().delete(&name);
                }
            }
        }
        // Replay every WAL the manifest names, oldest first (a crash
        // mid-flush leaves both the pre-freeze log and the active log
        // live; appends are strictly ordered across the rotation).
        let mut max_ts = last_ts;
        let mut memtable = MemTable::new();
        for no in wal_lo..=wal_no {
            let Ok(file) = env.fs().open(&wal_name(no)) else { continue };
            for r in recover(env, &file)? {
                max_ts = max_ts.max(r.ts);
                memtable.insert(r);
            }
        }
        let wal_file = match env.fs().open(&wal_name(wal_no)) {
            Ok(f) => f,
            Err(_) => env.fs().create(&wal_name(wal_no))?,
        };
        // Orphaned logs outside the manifest's range (e.g. a rotation the
        // manifest never learned of) hold no acknowledged data; remove
        // them so their numbers can be reused.
        for name in env.fs().list() {
            if let Some(no) = parse_wal_name(&name) {
                if !(wal_lo..=wal_no).contains(&no) {
                    let _ = env.fs().delete(&name);
                }
            }
        }
        let current = Arc::new(Version::new(0, None, levels));
        Ok((
            DbInner {
                memtable,
                wal: WalWriter::new(env.clone(), wal_file, options.wal_sync),
                wal_lo,
                wal_no,
                live: vec![current.clone()],
                current,
            },
            next_file_no,
            max_ts,
            (vlog_next_no, vlog_files),
        ))
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
        let debt = self.compaction_debt();
        let (vlog_bytes, vlog_garbage_bytes) =
            self.vlog.as_ref().map_or((0, 0), |vlog| vlog.stats());
        let (block_cache_hits, block_cache_misses) = self.env.cache_stats().unwrap_or((0, 0));
        self.metrics.debt_bytes.set(debt.total_over_bytes);
        self.metrics.pending_jobs.set(debt.pending_jobs as u64);
        self.metrics.vlog_bytes.set(vlog_bytes);
        self.metrics.vlog_garbage_bytes.set(vlog_garbage_bytes);
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

    /// The value log, when key-value separation is (or was) enabled.
    pub fn vlog(&self) -> Option<&Arc<Vlog>> {
        self.vlog.as_ref()
    }

    /// How far behind compaction currently is: per-level bytes over the
    /// geometric size budgets, plus the number of jobs the strategy would
    /// schedule against the current version. Lock-free (reads one version
    /// snapshot); a figure harness can poll it mid-workload.
    pub fn compaction_debt(&self) -> CompactionDebt {
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

    /// Latest assigned timestamp.
    pub fn latest_ts(&self) -> Timestamp {
        self.ts.load(Ordering::SeqCst)
    }

    /// Attaches the sink that observes this store's replication event
    /// stream ([`ReplicationEvent`]): committed WAL frames, flush and
    /// compaction-job markers, and version installs, in stream order.
    /// One sink at a time; registering replaces any previous one.
    pub fn set_replication_sink(&self, sink: Arc<dyn ReplicationSink>) {
        *self.repl.write() = Some(sink);
    }

    /// Fires one replication event at the attached sink, if any.
    fn emit(&self, event: ReplicationEvent<'_>) {
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

    /// Every record of one on-disk level, in internal-key order. Used by
    /// recovery paths that must rebuild derived structures (e.g. eLSM's
    /// untrusted digest store after a restart).
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors.
    pub fn level_record_dump(&self, level: usize) -> Result<Vec<Record>, FsError> {
        let version = self.current_version();
        let Some(run) = version.level(level) else {
            return Ok(Vec::new());
        };
        Ok(run.iter_records().collect())
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
    /// `ts = PUT(k, v)`). Routed through the group-commit pipeline as a
    /// batch of one, so racing singleton writers coalesce into one commit.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] if flushing or compaction IO fails.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<Timestamp, FsError> {
        let mut batch = WriteBatch::with_capacity(1);
        batch.put(Bytes::copy_from_slice(key), Bytes::copy_from_slice(value));
        Ok(self.write_batch(batch)?[0])
    }

    /// Deletes a key by writing a tombstone; returns its timestamp.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] if flushing or compaction IO fails.
    pub fn delete(&self, key: &[u8]) -> Result<Timestamp, FsError> {
        let mut batch = WriteBatch::with_capacity(1);
        batch.delete(Bytes::copy_from_slice(key));
        Ok(self.write_batch(batch)?[0])
    }

    /// Applies a [`WriteBatch`] atomically; returns one timestamp per
    /// operation, in batch order.
    ///
    /// Concurrent writers' batches are coalesced by a leader (LevelDB-style
    /// group commit): the whole group pays one write-lock acquisition, one
    /// fixed bookkeeping charge, and one WAL host exit per batch — while
    /// each batch stays its own atomic WAL frame, so a crash either
    /// persists a batch whole or drops it whole.
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
        // The WAL frame's length field is 32-bit: a batch whose encoded
        // payload could overflow it must fail here, on its own writer's
        // thread, not as a panic on whichever leader commits the group
        // (18 bytes/record bounds the encoding overhead).
        assert!(
            batch.payload_bytes() + 18 * batch.len() < u32::MAX as usize,
            "write batch too large for one WAL frame ({} payload bytes); split it",
            batch.payload_bytes()
        );
        let ops = batch.into_ops();
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        for op in &ops {
            match op.kind {
                ValueKind::Put | ValueKind::VlogPut => self.stats.puts.inc(),
                ValueKind::Delete => self.stats.deletes.inc(),
            };
        }
        let mut q = self.commit.queue.lock().expect("commit queue poisoned");
        let seq = q.next_seq;
        q.next_seq += 1;
        q.pending.push_back(PendingBatch { seq, ops });
        loop {
            // A previous leader may have committed us while we waited.
            if let Some((ts, commit_ctx)) = q.done.remove(&seq) {
                // One group commit served many writers: this follower's
                // request tree records a span *link* to the shared commit
                // span rather than claiming it as a child.
                telemetry::trace::link_current(commit_ctx);
                return Ok(ts);
            }
            if q.leader_active {
                q = self.commit.cv.wait(q).expect("commit queue poisoned");
                continue;
            }
            // Become the leader: drain waiting batches in arrival order up
            // to the group byte budget.
            q.leader_active = true;
            let mut group = Vec::new();
            let mut group_bytes = 0usize;
            while let Some(front) = q.pending.front() {
                let bytes: usize = front.ops.iter().map(|o| o.key.len() + o.value.len() + 24).sum();
                if !group.is_empty() && group_bytes + bytes > MAX_GROUP_COMMIT_BYTES {
                    break;
                }
                group_bytes += bytes;
                group.push(q.pending.pop_front().expect("front checked"));
            }
            drop(q);
            let (results, commit_ctx, flush_needed) = self.commit_group(&group);
            q = self.commit.queue.lock().expect("commit queue poisoned");
            for (p, ts) in group.iter().zip(results) {
                q.done.insert(p.seq, (ts, commit_ctx));
            }
            q.leader_active = false;
            self.commit.cv.notify_all();
            let mine = q.done.remove(&seq);
            if let Some((ts, _ctx)) = mine {
                // The leader's own trace already encloses the commit span
                // as a nested child; no link needed.
                drop(q);
                // Only the leader chases the flush its group triggered;
                // followers are already unblocked.
                if flush_needed {
                    self.flush_if_over()?;
                }
                return Ok(ts);
            }
            // Our batch did not fit this group's budget: loop and commit it
            // in the next group (we are first in the queue now).
        }
    }

    /// Commits a drained group: timestamps in arrival order, one WAL frame
    /// per batch, every record installed in the memtable — all under a
    /// single write-lock acquisition. Runs only on the group-commit leader.
    fn commit_group(
        &self,
        group: &[PendingBatch],
    ) -> (Vec<Vec<Timestamp>>, telemetry::TraceContext, bool) {
        // The commit span nests under the leader's request trace (it runs
        // on the leader's thread); its context is handed back through the
        // done map so followers can link it, and it is the innermost
        // active span when frames are shipped below — the wire envelope
        // carries it to replicas.
        let trace = self.options.telemetry.trace_op("commit.group", "commit");
        let trace_ctx = trace.ctx();
        let _span = self.metrics.commit_group.start();
        let total_ops: usize = group.iter().map(|p| p.ops.len()).sum();
        self.metrics.commit_batches.add(group.len() as u64);
        self.metrics.batches_per_group.observe(group.len() as u64);
        self.metrics.records_per_group.observe(total_ops as u64);
        let mut all_records: Vec<Record> = Vec::with_capacity(total_ops);
        let mut results = Vec::with_capacity(group.len());
        let flush_needed = {
            let _serial = self.env.platform().serial_section(SerialClass::StoreWrite);
            // Fixed commit bookkeeping is paid once per group, not per op.
            self.env.platform().charge_op_base();
            let mut inner = self.inner.write();
            for p in group {
                // Timestamps are assigned under the write lock, so
                // timestamp order equals commit order even across racing
                // writers, and a batch's records are always contiguous.
                let frame_start = all_records.len();
                let mut timestamps = Vec::with_capacity(p.ops.len());
                for op in &p.ops {
                    let ts = self.ts.fetch_add(1, Ordering::SeqCst) + 1;
                    timestamps.push(ts);
                    all_records.push(Record {
                        key: op.key.clone(),
                        value: op.value.clone(),
                        ts,
                        kind: op.kind,
                    });
                }
                let frame_bytes = inner.wal.append_batch(&all_records[frame_start..]);
                self.metrics.wal_frames.inc();
                self.metrics.wal_bytes.add(frame_bytes as u64);
                // Ship the frame while the write lock still orders the
                // stream: a concurrent flush can then never slip its
                // marker between a committed frame and its shipment.
                self.emit(ReplicationEvent::Frame { records: &all_records[frame_start..] });
                results.push(timestamps);
            }
            if self.options.wal_sync == WalSyncPolicy::EveryBatch {
                // One host exit carries the whole group's frames.
                if inner.wal.sync() > 0 {
                    self.metrics.wal_syncs.inc();
                }
            }
            for record in &all_records {
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
            inner.memtable.approximate_bytes() >= self.options.write_buffer_bytes
        };
        // Outside the write lock — leader exclusivity still keeps commit
        // order — the listener folds the group into its order-sensitive
        // trusted state (eLSM's WAL digest), once per group.
        self.listener.on_wal_append_batch(&all_records);
        (results, trace_ctx, flush_needed)
    }

    /// Pushes any WAL frames still buffered under a lazy
    /// [`WalSyncPolicy`] out to the host. Part of every clean-shutdown
    /// path: without it, `EveryNBytes` could lose acknowledged writes
    /// across a *graceful* close, not just a crash.
    pub fn sync_wal(&self) {
        let _serial = self.env.platform().serial_section(SerialClass::StoreWrite);
        self.inner.write().wal.sync();
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
        {
            let _serial = self.env.platform().serial_section(SerialClass::StoreWrite);
            self.env.platform().charge_op_base();
            let mut inner = self.inner.write();
            let max_ts = records.iter().map(|r| r.ts).max().unwrap_or(0);
            self.ts.fetch_max(max_ts, Ordering::SeqCst);
            let frame_bytes = inner.wal.append_batch(records);
            self.metrics.wal_frames.inc();
            self.metrics.wal_bytes.add(frame_bytes as u64);
            if self.options.wal_sync == WalSyncPolicy::EveryBatch && inner.wal.sync() > 0 {
                self.metrics.wal_syncs.inc();
            }
            for record in records {
                if let Some(region) = &self.memtable_region {
                    let off = inner.memtable.approximate_bytes() % region.len().max(1);
                    let len =
                        record.approximate_size().min(region.len() - off.min(region.len())).max(1);
                    self.env.platform().enclave_touch(region, off.min(region.len() - len), len);
                }
                inner.memtable.insert(record.clone());
            }
            // Chained replication: a replica can itself feed replicas.
            self.emit(ReplicationEvent::Frame { records });
        }
        self.listener.on_wal_append_batch(records);
        Ok(())
    }

    /// Forces a memtable flush (to the strategy's target level), then lets
    /// the scheduler run any compaction waves the flush made due.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors.
    pub fn flush(&self) -> Result<(), FsError> {
        let _maint = self.maint.lock();
        let _serial = self.env.platform().serial_section(SerialClass::Maintenance);
        self.flush_inner(0, true)
    }

    /// Flush triggered by a full memtable: once the maintenance lock is
    /// ours, flush only if the memtable is still over the write-buffer
    /// budget (another writer may have flushed it meanwhile).
    fn flush_if_over(&self) -> Result<(), FsError> {
        let _maint = self.maint.lock();
        let _serial = self.env.platform().serial_section(SerialClass::Maintenance);
        self.flush_inner(self.options.write_buffer_bytes, true)
    }

    /// Replays a primary's [`ReplicationEvent::Flush`] marker: flushes the
    /// memtable exactly as [`Db::flush`] would, but does **not** chase
    /// compaction waves afterward — the primary ships every job it ran as
    /// its own [`ReplicationEvent::Compact`] marker, and a replica that
    /// re-selected jobs locally could diverge (double-compact) from the
    /// primary's epoch sequence.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors.
    pub fn apply_replicated_flush(&self) -> Result<(), FsError> {
        let _maint = self.maint.lock();
        let _serial = self.env.platform().serial_section(SerialClass::Maintenance);
        self.flush_inner(0, false)
    }

    // ----- read path ------------------------------------------------------

    /// Point query at the latest timestamp; tombstones read as absent.
    ///
    /// This is the unauthenticated fast path: definite Bloom misses return
    /// without index/block IO, and misses resolve no bounding neighbors
    /// ([`NeighborPolicy::Skip`]).
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors.
    pub fn get(&self, key: &[u8]) -> Result<Option<Record>, FsError> {
        let ts_q = Timestamp::MAX >> 1;
        let (mem_hit, version) = self.read_view(key, ts_q);
        let trace = self.get_on_version(&version, mem_hit, key, ts_q, NeighborPolicy::Skip)?;
        match trace.result.filter(|r| r.kind.is_value()) {
            Some(r) => self.resolve_vlog_record(r).map(Some),
            None => Ok(None),
        }
    }

    /// Replaces a pointer record's value with the bytes it points at in
    /// the value log; non-pointer records pass through. The unauthenticated
    /// counterpart of eLSM's MAC-checked resolution: a pointer that does
    /// not resolve (missing file, CRC mismatch, key/ts mismatch) is disk
    /// corruption and surfaces as an IO error, never as silent garbage or
    /// a silent miss.
    fn resolve_vlog_record(&self, record: Record) -> Result<Record, FsError> {
        if record.kind != ValueKind::VlogPut {
            return Ok(record);
        }
        let corrupt = |name: String| FsError::OutOfBounds { name, requested_end: 0, len: 0 };
        let vlog = self.vlog.as_ref().ok_or_else(|| corrupt("no value log".to_string()))?;
        let entry = self
            .listener
            .unwrap_vlog_pointer(&record.value)
            .and_then(|ptr_bytes| decode_pointer(&ptr_bytes))
            .map(|(ptr, _mac)| vlog.read(ptr).map(|e| (ptr, e)))
            .transpose()?
            .and_then(|(ptr, entry)| entry.map(|e| (ptr, e)));
        match entry {
            Some((_, e)) if e.key == record.key && e.ts == record.ts => Ok(Record {
                key: record.key,
                value: Bytes::from(e.value),
                ts: record.ts,
                kind: ValueKind::Put,
            }),
            Some((ptr, _)) => Err(corrupt(vlog_name(ptr.file_no))),
            None => Err(corrupt("vlog pointer".to_string())),
        }
    }

    /// Point query returning the full per-level trace (the middleware
    /// interface eLSM builds proofs from). Search stops at the first level
    /// with a record for the key — the paper's early stop.
    ///
    /// The trace is collected against an immutable [`Version`] snapshot;
    /// no store lock is held during level IO. [`GetTrace::epoch`] names
    /// the snapshot so verifiers check against the matching commitments.
    /// `check` runs on the trace while the snapshot is still pinned:
    /// pinning guarantees the trace's epoch has not been retired, so
    /// `check` can verify against the epoch's published commitments even
    /// while concurrent flushes/compactions install new versions — the
    /// §5.5.2 read/compaction synchronization, without holding any store
    /// lock across block IO or verification.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors; `check`'s verdict is returned
    /// alongside the trace.
    pub fn get_with_trace<T>(
        &self,
        key: &[u8],
        ts_q: Timestamp,
        check: impl FnOnce(&GetTrace) -> T,
    ) -> Result<(GetTrace, T), FsError> {
        let (mem_hit, version) = self.read_view(key, ts_q);
        let trace = self.get_on_version(&version, mem_hit, key, ts_q, NeighborPolicy::Required)?;
        let verdict = check(&trace);
        drop(version); // the epoch may drain only after verification
        Ok((trace, verdict))
    }

    /// Probes the live memtable and pins the current version: the only
    /// part of a read that takes (the shared side of) the store lock.
    fn read_view(&self, key: &[u8], ts_q: Timestamp) -> (Option<Record>, Arc<Version>) {
        self.stats.gets.inc();
        self.env.platform().charge_op_base();
        // Model the in-enclave memtable probe.
        if let Some(region) = &self.memtable_region {
            let h = fxhash(key) as usize;
            let len = region.len().max(2);
            self.env.platform().enclave_touch(region, h % (len / 2), 32.min(len / 2));
        }
        let inner = self.inner.read();
        (inner.memtable.get(key, ts_q), inner.current.clone())
    }

    /// Searches a pinned version: frozen memtable first (trusted memory),
    /// then the levels in freshness order with early stop. No lock held.
    fn get_on_version(
        &self,
        version: &Version,
        mem_hit: Option<Record>,
        key: &[u8],
        ts_q: Timestamp,
        neighbors: NeighborPolicy,
    ) -> Result<GetTrace, FsError> {
        let epoch = version.epoch();
        let from_memtable = mem_hit.or_else(|| version.imm().and_then(|imm| imm.get(key, ts_q)));
        if let Some(r) = from_memtable {
            return Ok(GetTrace {
                epoch,
                memtable: Some(r.clone()),
                levels: Vec::new(),
                result: Some(r),
            });
        }
        let mut levels = Vec::new();
        let mut result = None;
        // Under leveled compaction, lower levels are fresher (Lemma 5.4).
        // In stacked layouts — compaction off, or a stacked strategy like
        // size-tiered — runs stack upward as they flush, so the freshest
        // run has the highest index and search order reverses.
        let level_count = version.levels().len();
        for nth in 1..level_count {
            let level = if self.stacked_reads { level_count - nth } else { nth };
            match version.level(level) {
                None => levels.push(LevelSearch { level, outcome: LevelOutcome::Empty }),
                Some(run) => match run.get(key, ts_q, neighbors)? {
                    TableGet::Hit(r) => {
                        levels.push(LevelSearch { level, outcome: LevelOutcome::Hit(r.clone()) });
                        result = Some(r);
                        break; // early stop (§5.3)
                    }
                    TableGet::Miss { left, right } => {
                        levels.push(LevelSearch {
                            level,
                            outcome: LevelOutcome::Miss { left, right },
                        });
                    }
                },
            }
        }
        Ok(GetTrace { epoch, memtable: None, levels, result })
    }

    /// Range query at the latest timestamp (Equation 1's SCAN).
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors.
    pub fn scan(&self, from: &[u8], to: &[u8]) -> Result<Vec<Record>, FsError> {
        let ts_q = Timestamp::MAX >> 1;
        let (mem, version) = self.scan_view(from, to);
        let trace = self.scan_on_version(&version, mem, from, to, ts_q, NeighborPolicy::Skip)?;
        trace.merged.into_iter().map(|r| self.resolve_vlog_record(r)).collect()
    }

    /// Range query with the full per-level trace. Unlike GET, every level
    /// is visited (§5.4). Collected against a pinned version with no store
    /// lock held; `check` runs while the version is still pinned — the
    /// scan counterpart of [`Db::get_with_trace`].
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors; `check`'s verdict is returned
    /// alongside the trace.
    pub fn scan_with_trace<T>(
        &self,
        from: &[u8],
        to: &[u8],
        ts_q: Timestamp,
        check: impl FnOnce(&ScanTrace) -> T,
    ) -> Result<(ScanTrace, T), FsError> {
        let (mem, version) = self.scan_view(from, to);
        let trace =
            self.scan_on_version(&version, mem, from, to, ts_q, NeighborPolicy::Required)?;
        let verdict = check(&trace);
        drop(version);
        Ok((trace, verdict))
    }

    fn scan_view(&self, from: &[u8], to: &[u8]) -> (Vec<Record>, Arc<Version>) {
        self.stats.scans.inc();
        self.env.platform().charge_op_base();
        let inner = self.inner.read();
        (inner.memtable.range_records(from, to), inner.current.clone())
    }

    fn scan_on_version(
        &self,
        version: &Version,
        mut memtable: Vec<Record>,
        from: &[u8],
        to: &[u8],
        ts_q: Timestamp,
        neighbors: NeighborPolicy,
    ) -> Result<ScanTrace, FsError> {
        if let Some(imm) = version.imm() {
            memtable.extend(imm.range_records(from, to));
        }
        memtable.retain(|r| r.ts <= ts_q);
        let mut levels = Vec::new();
        for level in 1..version.levels().len() {
            match version.level(level) {
                None => levels.push(LevelRange {
                    level,
                    empty: true,
                    records: Vec::new(),
                    left: None,
                    right: None,
                }),
                Some(run) => {
                    let (left, right) = if neighbors == NeighborPolicy::Required {
                        (run.neighbor_below(from, ts_q)?, run.neighbor_above(to, ts_q)?)
                    } else {
                        (None, None)
                    };
                    levels.push(LevelRange {
                        level,
                        empty: false,
                        records: run.range(from, to)?,
                        left,
                        right,
                    });
                }
            }
        }
        // Merge: newest visible version per key, tombstones hide.
        let mut all: Vec<&Record> = memtable
            .iter()
            .chain(levels.iter().flat_map(|l| l.records.iter()))
            .filter(|r| r.ts <= ts_q)
            .collect();
        all.sort_by(|a, b| a.key.cmp(&b.key).then(b.ts.cmp(&a.ts)));
        let mut merged = Vec::new();
        let mut last_key: Option<&[u8]> = None;
        for r in all {
            if last_key == Some(&r.key[..]) {
                continue;
            }
            last_key = Some(&r.key[..]);
            if r.kind.is_value() {
                merged.push(r.clone());
            }
        }
        Ok(ScanTrace { epoch: version.epoch(), memtable, levels, merged })
    }

    // ----- flush & compaction ----------------------------------------------

    /// Installs `next` as the current version: the listener publishes the
    /// epoch first (so no reader can observe an epoch without its
    /// commitments), then the pointer swaps, then drained versions retire.
    fn install_locked(&self, inner: &mut DbInner, next: Arc<Version>) {
        self.listener.on_version_install(next.epoch());
        // After the listener published: the epoch's commitment snapshot
        // exists, so a replica receiving this event can cross-check.
        self.emit(ReplicationEvent::Install { epoch: next.epoch() });
        inner.current = next.clone();
        inner.live.push(next);
        let newest = inner.current.epoch();
        // A version has drained when only the live list itself holds it.
        // Keep a small floor of recent epochs for detached-trace flows.
        inner.live.retain(|v| {
            v.epoch() == newest
                || Arc::strong_count(v) > 1
                || newest - v.epoch() < self.options.retired_epoch_floor
        });
        let live_epochs: Vec<u64> = inner.live.iter().map(|v| v.epoch()).collect();
        self.listener.on_versions_retired(&live_epochs);
    }

    /// Key-value separation (flush-time): records whose stored value
    /// reaches the configured threshold move their bytes to the value log
    /// and become pointer records ([`ValueKind::VlogPut`]). The log is
    /// synced before returning, so by the time any SSTable (and later the
    /// manifest) names a pointer, its entry is durable.
    fn separate_large_values(&self, records: &mut [Record]) -> Result<(), FsError> {
        let Some(config) = self.options.vlog else {
            return Ok(());
        };
        let Some(vlog) = &self.vlog else {
            return Ok(());
        };
        let mut moved = false;
        for record in records.iter_mut() {
            if record.kind != ValueKind::Put || record.value.len() < config.value_threshold {
                continue;
            }
            let mac = self.listener.vlog_mac(record);
            let ptr = vlog.append(&record.key, record.ts, &record.value)?;
            record.value = self.listener.wrap_vlog_pointer(encode_pointer(ptr, &mac));
            record.kind = ValueKind::VlogPut;
            moved = true;
        }
        if moved {
            vlog.sync();
        }
        Ok(())
    }

    fn flush_inner(&self, min_bytes: usize, chase: bool) -> Result<(), FsError> {
        // Phase 1 (write lock): freeze the memtable into the version as an
        // immutable snapshot, rotate the WAL, and publish — readers keep
        // finding the frozen records in trusted memory while the merge
        // writes them to their level.
        let (imm, base, old_wal) = {
            let _span = self.metrics.flush_freeze.start();
            let _serial = self.env.platform().serial_section(SerialClass::StoreWrite);
            let mut inner = self.inner.write();
            if inner.memtable.is_empty() || inner.memtable.approximate_bytes() < min_bytes {
                return Ok(());
            }
            let new_wal_no = inner.wal_no + 1;
            let wal_file = self.env.fs().create(&wal_name(new_wal_no))?;
            // The flush decision is the primary's alone: replicas replay
            // this marker instead of watching their own thresholds, which
            // pins both stores' version boundaries to the same point in
            // the frame stream. Emitted after the fallible WAL creation,
            // so an IO error here aborts the flush on both sides alike.
            self.emit(ReplicationEvent::Flush);
            self.stats.flushes.inc();
            // Any frames still buffered under a lazy sync policy must reach
            // the host before the log rotates out from under them.
            inner.wal.sync();
            let imm = Arc::new(std::mem::replace(&mut inner.memtable, MemTable::new()));
            let old_wal = wal_name(inner.wal_no);
            inner.wal = WalWriter::new(self.env.clone(), wal_file, self.options.wal_sync);
            inner.wal_no = new_wal_no;
            let next =
                Arc::new(inner.current.with_imm(inner.current.epoch() + 1, Some(imm.clone())));
            self.install_locked(&mut inner, next);
            // Crash safety: before any writer can append to the new WAL
            // (i.e. before this lock releases), the manifest must name
            // both logs — otherwise acknowledged writes that land in the
            // new WAL while the merge runs would be lost on recovery.
            self.write_manifest_with(inner.wal_lo, inner.wal_no, &inner.current)?;
            (imm, inner.current.clone(), old_wal)
        };

        // Phase 2 (no store lock): merge the frozen records into the
        // strategy's target level. Key-value separation happens here —
        // before the listener observes the records — so levels, proofs and
        // commitments all cover pointer records, while the WAL and the
        // memtable (whose replay must restore values without the log)
        // always carry the full values.
        let merge_span = self.metrics.flush_merge.start();
        let mut mem_records: Vec<Record> = imm.iter_records().collect();
        self.separate_large_values(&mut mem_records)?;
        for r in &mem_records {
            self.listener.on_flush_record(r);
        }
        let mut inputs = vec![MergeInput {
            source: RecordSource { level: 0, file_no: 0 },
            iter: Box::new(mem_records.into_iter()),
        }];
        let mut input_levels = vec![0];
        let (target, merge_existing) = if self.options.compaction_enabled {
            let plan = self.strategy.flush_plan(&LevelsView::from_version(&base), &self.options);
            (plan.target, plan.merge_existing)
        } else {
            // Compaction off: stack the run at the first empty level —
            // write amplification 1, read cost grows with run count
            // (Figure 7b's wo-compaction mode).
            let mut i = 1;
            while i < base.levels().len() && base.level(i).is_some() {
                i += 1;
            }
            (i, false)
        };
        if merge_existing && base.level(target).is_some() {
            push_run_inputs(&mut inputs, base.level(target).map(|r| r.as_ref()), target);
            input_levels.push(target);
        }
        // A flush may purge tombstones only when it *merges into* the
        // bottom level (leveled, tiny stores). A stacked flush run — no
        // matter its slot index — is the newest data with older runs
        // below, so purging there would resurrect shadowed versions.
        let purge =
            self.options.compaction_enabled && merge_existing && target >= self.options.max_levels;
        let out = self.merge_to_run(inputs, input_levels, target, purge, &[])?;
        drop(merge_span);

        // Phase 3 (write lock): install the successor version with the
        // frozen memtable absorbed into its level.
        let install_span = self.metrics.flush_install.start();
        let mut replaced = Vec::new();
        {
            let _serial = self.env.platform().serial_section(SerialClass::StoreWrite);
            let mut inner = self.inner.write();
            let mut levels = inner.current.levels().to_vec();
            while levels.len() <= target {
                levels.push(None);
            }
            if let Some(old) = levels[target].take() {
                replaced.push(old);
            }
            levels[target] = out.run.clone();
            let next = Arc::new(Version::new(inner.current.epoch() + 1, None, levels));
            self.listener.on_compaction_install(&out.info);
            self.install_locked(&mut inner, next);
            inner.wal_lo = inner.wal_no;
        }
        self.write_manifest()?;
        // Only after the manifest stopped naming them may replaced runs
        // and the old WAL disappear — a crash landing between install and
        // manifest must still recover the pre-flush state whole.
        for run in &replaced {
            self.retire_run(run);
        }
        let _ = self.env.fs().delete(&old_wal);
        drop(install_span);
        if self.options.telemetry.is_enabled() {
            // Refresh the registry's debt gauges at every version boundary
            // so a telemetry snapshot is current even if nobody polls
            // [`Db::stats`].
            let debt = self.compaction_debt();
            self.metrics.debt_bytes.set(debt.total_over_bytes);
            self.metrics.pending_jobs.set(debt.pending_jobs as u64);
            if let Some(vlog) = &self.vlog {
                let (bytes, garbage) = vlog.stats();
                self.metrics.vlog_bytes.set(bytes);
                self.metrics.vlog_garbage_bytes.set(garbage);
            }
        }
        if chase && self.options.compaction_enabled {
            self.run_waves()?;
        }
        if chase && self.options.vlog.is_some_and(|c| c.gc_enabled) {
            self.vlog_gc_locked()?;
        }
        Ok(())
    }

    /// Runs compaction waves until the strategy reports no due work: each
    /// wave is a set of jobs over disjoint level sets, merged concurrently
    /// (per [`crate::compaction::CompactionConfig::parallelism`]) and
    /// installed in deterministic job order. Caller holds the maintenance
    /// mutex.
    fn run_waves(&self) -> Result<(), FsError> {
        // Bounded defensively: every wave from a sane strategy strictly
        // shrinks debt, so the cap only guards a pathological plugin.
        for _ in 0..256 {
            let base = self.current_version();
            let jobs = self.strategy.pick_jobs(&LevelsView::from_version(&base), &self.options);
            if jobs.is_empty() {
                return Ok(());
            }
            self.metrics.compaction_waves.inc();
            self.execute_jobs(&base, &jobs, self.options.compaction.parallelism.max(1))?;
        }
        Ok(())
    }

    /// Merges one wave of jobs against `base` and installs the outputs.
    ///
    /// With `parallelism > 1` each job's merge runs on its own scoped
    /// worker thread under a dedicated [`SerialClass::compaction_slot`]:
    /// worker threads start with an empty serial-class mask (thread-local),
    /// so their merge time lands in the slot horizons — overlapping with
    /// the write path and with each other in the simulated timeline —
    /// instead of extending the caller's Maintenance section. Installs are
    /// sequential in job order regardless of parallelism, so the epoch
    /// sequence (and every listener/replication observation) is
    /// deterministic.
    fn execute_jobs(
        &self,
        base: &Arc<Version>,
        jobs: &[CompactionJob],
        parallelism: usize,
    ) -> Result<(), FsError> {
        self.execute_jobs_inner(base, jobs, parallelism, None)
    }

    /// [`Db::execute_jobs`], optionally in value-log-GC mode: `gc` names
    /// victim files whose live entries every merge rewrites, the install
    /// emits [`ReplicationEvent::VlogGc`] instead of per-job `Compact`
    /// markers, and the victims are deleted once the rewrite is durable.
    fn execute_jobs_inner(
        &self,
        base: &Arc<Version>,
        jobs: &[CompactionJob],
        parallelism: usize,
        gc: Option<&VlogGcJob>,
    ) -> Result<(), FsError> {
        let rewrite: &[u64] = gc.map_or(&[], |gc| &gc.rewrite_files);
        let outputs: Vec<Result<MergeOutput, FsError>> = if parallelism <= 1 {
            jobs.iter().map(|job| self.run_merge_job(base, job, rewrite)).collect()
        } else {
            let slots = parallelism.min(4);
            std::thread::scope(|s| {
                let handles: Vec<_> = jobs
                    .iter()
                    .enumerate()
                    .map(|(i, job)| {
                        s.spawn(move || {
                            let _slot = self
                                .env
                                .platform()
                                .serial_section(SerialClass::compaction_slot(i % slots));
                            self.run_merge_job(base, job, rewrite)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("compaction worker panicked")).collect()
            })
        };
        for (job, out) in jobs.iter().zip(outputs) {
            let out = out?;
            let _install_span = self.metrics.compaction_install.start();
            let mut replaced: Vec<Arc<Run>> = Vec::new();
            {
                let _serial = self.env.platform().serial_section(SerialClass::StoreWrite);
                let mut inner = self.inner.write();
                let mut levels = inner.current.levels().to_vec();
                while levels.len() <= job.output_level {
                    levels.push(None);
                }
                for &level in &job.input_levels {
                    if level != job.output_level {
                        if let Some(old) = levels[level].take() {
                            replaced.push(old);
                        }
                    }
                }
                if let Some(old) = levels[job.output_level].take() {
                    replaced.push(old);
                }
                levels[job.output_level] = out.run.clone();
                let imm = inner.current.imm().cloned();
                let next = Arc::new(Version::new(inner.current.epoch() + 1, imm, levels));
                // Under the write lock, in job order: the listener commits
                // its staged digest state, the replication stream learns
                // the exact job, then the epoch swaps — so a replica
                // replaying the stream reproduces this install verbatim.
                self.listener.on_compaction_install(&out.info);
                match gc {
                    Some(gc) => self.emit(ReplicationEvent::VlogGc { gc }),
                    None => self.emit(ReplicationEvent::Compact { job }),
                }
                self.install_locked(&mut inner, next);
            }
            self.stats.compactions.inc();
            self.write_manifest()?;
            // Retire-after-manifest: a crash before this point recovers
            // the pre- or post-compaction manifest, both of whose inputs
            // still exist on disk.
            for run in &replaced {
                self.retire_run(run);
            }
        }
        // GC epilogue: every pointer into a victim file has been rewritten
        // and the manifest that names the rewritten tables (and drops the
        // victims from its value-log section) is durable — the victims can
        // go. Pinned old versions keep reading them through their retained
        // handles; a crash right here merely redoes the deletions.
        if let (Some(gc), Some(vlog)) = (gc, &self.vlog) {
            for &no in &gc.rewrite_files {
                vlog.remove_file(no);
            }
            self.write_manifest()?;
        }
        Ok(())
    }

    /// Merges one job's input runs into an output run (no store state is
    /// touched — safe to run concurrently with other jobs of a wave).
    /// `rewrite` names value-log files whose pointer records must be
    /// re-homed to the active log file (GC mode; empty otherwise).
    fn run_merge_job(
        &self,
        base: &Version,
        job: &CompactionJob,
        rewrite: &[u64],
    ) -> Result<MergeOutput, FsError> {
        let _span = self.metrics.compaction_merge.start();
        let mut inputs = Vec::new();
        for &level in &job.input_levels {
            push_run_inputs(&mut inputs, base.level(level).map(|r| r.as_ref()), level);
        }
        self.merge_to_run(inputs, job.input_levels.clone(), job.output_level, job.purge, rewrite)
    }

    /// Replays one job from a primary's [`ReplicationEvent::Compact`]
    /// marker: executes exactly the shipped job (inline, no worker
    /// threads), installing the same level edit and epoch bump the
    /// primary did. A no-op when every input level is empty — mirroring
    /// how the primary never schedules such a job.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors.
    pub fn apply_compaction_job(&self, job: &CompactionJob) -> Result<(), FsError> {
        let _maint = self.maint.lock();
        let _serial = self.env.platform().serial_section(SerialClass::Maintenance);
        let base = self.current_version();
        if job.input_levels.iter().all(|&l| base.level(l).is_none()) {
            return Ok(());
        }
        self.execute_jobs(&base, std::slice::from_ref(job), 1)
    }

    /// Compacts level `i` into level `i+1` (the paper's
    /// `COMPACTION(Li, Li+1)`), expressed as a single explicit job.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors.
    pub fn compact(&self, level: usize) -> Result<(), FsError> {
        assert!(level >= 1 && level < self.options.max_levels, "invalid compaction level");
        let job = CompactionJob {
            input_levels: vec![level, level + 1],
            output_level: level + 1,
            purge: level + 1 >= self.options.max_levels,
        };
        self.apply_compaction_job(&job)
    }

    /// Runs the strategy's **major** compaction: one job folding every
    /// populated level into a single run with tombstones purged (the
    /// tombstone-collecting full pass; wave scheduling is the minor
    /// counterpart). A no-op when fewer than two levels are populated.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors.
    pub fn compact_major(&self) -> Result<(), FsError> {
        let _maint = self.maint.lock();
        let _serial = self.env.platform().serial_section(SerialClass::Maintenance);
        let base = self.current_version();
        let Some(job) = self.strategy.major_job(&LevelsView::from_version(&base), &self.options)
        else {
            return Ok(());
        };
        self.execute_jobs(&base, std::slice::from_ref(&job), 1)
    }

    /// Value-log garbage collection: deletes fully-dead log files
    /// outright, then — if any non-active file's garbage fraction reaches
    /// [`crate::options::VlogConfig::gc_garbage_ratio`] — runs one merge
    /// over the populated levels with the victims' live entries rewritten
    /// to the active file, and deletes the victims once the rewrite is
    /// durable. A no-op without a value log or without due victims.
    /// Runs automatically after flush-chased compaction when
    /// [`crate::options::VlogConfig::gc_enabled`] is set.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors.
    pub fn vlog_gc(&self) -> Result<(), FsError> {
        let _maint = self.maint.lock();
        let _serial = self.env.platform().serial_section(SerialClass::Maintenance);
        self.vlog_gc_locked()
    }

    /// [`Db::vlog_gc`] body; caller holds the maintenance mutex.
    fn vlog_gc_locked(&self) -> Result<(), FsError> {
        let Some(vlog) = &self.vlog else {
            return Ok(());
        };
        // Files every byte of which is garbage need no rewrite, but they
        // still ride in the victim set so replicas replaying the shipped
        // job drop them too — removing them only locally would leave the
        // follower's log strictly larger than the primary's.
        let mut victims = vlog.fully_dead();
        victims.extend(vlog.victims());
        if victims.is_empty() {
            return Ok(());
        }
        let _span = self.metrics.vlog_gc.start();
        let base = self.current_version();
        let view = LevelsView::from_version(&base);
        // Any merge that visits every pointer record works; the strategy's
        // major job does, and a single populated level degenerates to a
        // self-merge of that level.
        let job = match self.strategy.major_job(&view, &self.options) {
            Some(job) => job,
            None => match view.non_empty().first() {
                Some(&level) => {
                    CompactionJob { input_levels: vec![level], output_level: level, purge: false }
                }
                // No levels: no live pointer can exist, so every victim is
                // fully dead. Ship a degenerate (empty-input) job so the
                // replica's [`Db::apply_vlog_gc`] takes its deletion-only
                // path.
                None => CompactionJob { input_levels: Vec::new(), output_level: 0, purge: false },
            },
        };
        let gc = VlogGcJob { job, rewrite_files: victims };
        if gc.job.input_levels.is_empty() {
            for &no in &gc.rewrite_files {
                vlog.remove_file(no);
            }
            self.write_manifest()?;
            self.emit(ReplicationEvent::VlogGc { gc: &gc });
            return Ok(());
        }
        self.execute_jobs_inner(&base, std::slice::from_ref(&gc.job), 1, Some(&gc))
    }

    /// Replays a value-log GC from a primary's
    /// [`ReplicationEvent::VlogGc`] marker: runs exactly the shipped merge
    /// with the shipped victim set, then drops the victims — mirroring
    /// [`Db::apply_compaction_job`]. The victim choice is the primary's
    /// alone; a replica deciding locally could rewrite entries in a
    /// different order and diverge from the primary's commitments.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors.
    pub fn apply_vlog_gc(&self, gc: &VlogGcJob) -> Result<(), FsError> {
        let _maint = self.maint.lock();
        let _serial = self.env.platform().serial_section(SerialClass::Maintenance);
        let base = self.current_version();
        if gc.job.input_levels.iter().all(|&l| base.level(l).is_none()) {
            // Degenerate shipped job (nothing to merge here): still honor
            // the victim deletions so both logs' file sets match.
            if let Some(vlog) = &self.vlog {
                for &no in &gc.rewrite_files {
                    vlog.remove_file(no);
                }
                self.write_manifest()?;
            }
            return Ok(());
        }
        self.execute_jobs_inner(&base, std::slice::from_ref(&gc.job), 1, Some(gc))
    }

    /// Merges sorted inputs into one output run, chunked into files. Pure
    /// with respect to store state (only the lock-free file-number
    /// allocator advances), so wave jobs run it concurrently.
    /// Tells the value log that a dropped pointer record's entry bytes are
    /// now garbage (GC victim accounting). Non-pointer records are free.
    fn note_vlog_drop(&self, record: &Record) {
        if record.kind != ValueKind::VlogPut {
            return;
        }
        if let (Some(vlog), Some((ptr, _))) = (
            &self.vlog,
            self.listener.unwrap_vlog_pointer(&record.value).and_then(|b| decode_pointer(&b)),
        ) {
            vlog.note_garbage(ptr.file_no, ptr.len);
        }
    }

    fn merge_to_run(
        &self,
        inputs: Vec<MergeInput>,
        input_levels: Vec<usize>,
        output_level: usize,
        purge: bool,
        rewrite: &[u64],
    ) -> Result<MergeOutput, FsError> {
        // Tombstones may only be purged when a merge observes every live
        // version of its keys (bottom level, or a major pass over all
        // populated levels); stacked (no-compaction) runs must keep them
        // (§5.4 "Handling Deletes").
        let mut output: Vec<Record> = Vec::new();
        // `unchanged[i]`: output record i's whole key chain came from one
        // input *run* with nothing dropped — its authenticated leaf is
        // bit-identical to the input's (see
        // [`StoreListener::transform_output_tagged`]). Tags are assigned
        // when a key's chain completes, so a late drop flips the whole
        // chain to changed.
        let mut unchanged: Vec<bool> = Vec::new();
        let mut key_source: Option<usize> = None;
        let mut key_clean = true;
        let mut input_count = 0u64;
        let mut cur_key: Option<Bytes> = None;
        let mut drop_rest = false;
        let mut seen_version = false;
        for (source, record) in KWayMerge::new(inputs) {
            input_count += 1;
            if source.level != 0 {
                self.listener.on_compaction_input(source, &record);
            }
            let same_key = cur_key.as_ref() == Some(&record.key);
            if !same_key {
                // Seal the previous key's tags (memtable records are new
                // material: never "unchanged").
                let clean = key_clean && key_source.is_some_and(|l| l != 0);
                unchanged.resize(output.len(), clean);
                cur_key = Some(record.key.clone());
                drop_rest = false;
                seen_version = false;
                key_source = Some(source.level);
                key_clean = true;
            } else if key_source != Some(source.level) {
                key_clean = false; // chain spans input runs
            }
            if drop_rest {
                key_clean = false;
                self.note_vlog_drop(&record);
                continue;
            }
            if purge && record.kind == ValueKind::Delete && !seen_version {
                // Newest surviving version is a tombstone at the bottom:
                // the key disappears entirely (§5.4).
                drop_rest = true;
                key_clean = false;
                continue;
            }
            if seen_version && !self.options.keep_old_versions {
                key_clean = false;
                self.note_vlog_drop(&record);
                continue;
            }
            seen_version = true;
            if self.listener.filter_output(&record) == FilterDecision::Drop {
                key_clean = false;
                self.note_vlog_drop(&record);
                continue;
            }
            output.push(record);
        }
        let clean = key_clean && key_source.is_some_and(|l| l != 0);
        unchanged.resize(output.len(), clean);
        // GC mode: re-home surviving pointer records out of the victim
        // files before the listener transforms the output — the rewritten
        // pointer value must be what gets hashed into the new leaf. The
        // MAC is carried over verbatim: it binds key‖ts‖payload, not the
        // entry's location.
        if !rewrite.is_empty() {
            let victims: HashSet<u64> = rewrite.iter().copied().collect();
            let mut moved = false;
            for (record, tag) in output.iter_mut().zip(unchanged.iter_mut()) {
                if record.kind != ValueKind::VlogPut {
                    continue;
                }
                let Some(vlog) = &self.vlog else { continue };
                let Some((ptr, mac)) = self
                    .listener
                    .unwrap_vlog_pointer(&record.value)
                    .and_then(|bytes| decode_pointer(&bytes))
                else {
                    continue;
                };
                if !victims.contains(&ptr.file_no) {
                    continue;
                }
                let entry = vlog.read(ptr)?.ok_or_else(|| FsError::OutOfBounds {
                    name: vlog_name(ptr.file_no),
                    requested_end: (ptr.offset + ptr.len) as usize,
                    len: 0,
                })?;
                let new_ptr = vlog.append(&entry.key, entry.ts, &entry.value)?;
                vlog.note_garbage(ptr.file_no, ptr.len);
                record.value = self.listener.wrap_vlog_pointer(encode_pointer(new_ptr, &mac));
                *tag = false;
                moved = true;
            }
            if moved {
                if let Some(vlog) = &self.vlog {
                    vlog.sync();
                }
            }
        }
        self.stats.compaction_input_records.add(input_count);
        let output = self.listener.transform_output_tagged(output_level, output, &unchanged);
        self.stats.compaction_output_records.add(output.len() as u64);

        // Write the output run, chunked into files.
        let mut output_files = Vec::new();
        let mut tables = Vec::new();
        let mut idx = 0usize;
        while idx < output.len() {
            let file_no = self.file_no.fetch_add(1, Ordering::SeqCst);
            let file = self.env.fs().create(&table_name(file_no))?;
            let mut builder = TableBuilder::new(
                self.env.clone(),
                file.clone(),
                file_no,
                self.options.table.clone(),
            );
            let mut bytes = 0u64;
            while idx < output.len() {
                let r = &output[idx];
                // Never split versions of one key across files (chains stay
                // within one file's leaf).
                let key_boundary = builder.count() > 0 && output[idx - 1].key != r.key;
                if bytes >= self.options.target_file_bytes && key_boundary {
                    break;
                }
                builder.add(r);
                bytes += r.approximate_size() as u64;
                idx += 1;
            }
            let meta = builder.finish();
            output_files.push(meta.file_no);
            tables.push(Arc::new(TableReader::open(self.env.clone(), file, file_no)?));
        }

        let info = CompactionInfo {
            input_levels,
            output_level,
            input_records: input_count,
            output_records: output.len() as u64,
            output_files,
        };
        self.listener.on_compaction_end(&info);
        let run = (!tables.is_empty()).then(|| Arc::new(Run::new(tables)));
        Ok(MergeOutput { run, info })
    }

    fn retire_run(&self, run: &Run) {
        run.close();
        for t in run.tables() {
            let _ = self.env.fs().delete(&table_name(t.meta().file_no));
        }
    }

    // ----- manifest ---------------------------------------------------------

    /// Callers hold the maintenance mutex (manifest writes must not race).
    fn write_manifest(&self) -> Result<(), FsError> {
        let (wal_lo, wal_no, version) = {
            let inner = self.inner.read();
            (inner.wal_lo, inner.wal_no, inner.current.clone())
        };
        self.write_manifest_with(wal_lo, wal_no, &version)
    }

    fn write_manifest_with(
        &self,
        wal_lo: u64,
        wal_hi: u64,
        version: &Version,
    ) -> Result<(), FsError> {
        let mut bytes = Vec::new();
        put_fixed_u64(&mut bytes, self.file_no.load(Ordering::SeqCst));
        put_fixed_u64(&mut bytes, self.ts.load(Ordering::SeqCst));
        put_fixed_u64(&mut bytes, wal_lo);
        put_fixed_u64(&mut bytes, wal_hi);
        put_varint_u64(&mut bytes, (version.levels().len() - 1) as u64);
        for level in 1..version.levels().len() {
            match version.level(level) {
                None => put_varint_u64(&mut bytes, 0),
                Some(run) => {
                    put_varint_u64(&mut bytes, run.tables().len() as u64);
                    for t in run.tables() {
                        put_varint_u64(&mut bytes, t.meta().file_no);
                    }
                }
            }
        }
        crate::vlog::encode_manifest_section(self.vlog.as_deref(), &mut bytes);
        let _ = self.env.fs().delete(MANIFEST);
        let file = self.env.fs().create(MANIFEST)?;
        self.env.append(&file, &bytes);
        Ok(())
    }
}

fn push_run_inputs(inputs: &mut Vec<MergeInput>, run: Option<&Run>, level: usize) {
    if let Some(run) = run {
        for t in run.tables() {
            let records: Vec<Record> = t.iter().collect();
            inputs.push(MergeInput {
                source: RecordSource { level, file_no: t.meta().file_no },
                iter: Box::new(records.into_iter()),
            });
        }
    }
}

fn table_name(file_no: u64) -> String {
    format!("{file_no:06}.sst")
}

fn parse_table_name(name: &str) -> Option<u64> {
    name.strip_suffix(".sst")?.parse().ok()
}

fn wal_name(wal_no: u64) -> String {
    format!("wal-{wal_no:06}.log")
}

fn parse_wal_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?.strip_suffix(".log")?.parse().ok()
}

fn fxhash(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    use sgx_sim::Platform;
    use sim_disk::{SimDisk, SimFs};

    fn open_db(options: Options) -> Arc<Db> {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let env = StorageEnv::new(platform, fs, options.env.clone(), None);
        Arc::new(Db::open(env, options, None).unwrap())
    }

    fn small_options() -> Options {
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
    fn flush_moves_data_to_level1_and_reads_still_work() {
        let db = open_db(small_options());
        for i in 0..100 {
            db.put(format!("key{i:04}").as_bytes(), format!("val{i}").as_bytes()).unwrap();
        }
        db.flush().unwrap();
        let lb = db.level_bytes();
        assert_eq!(lb[0], 0, "memtable empty after flush");
        assert!(lb[1] > 0 || lb[2] > 0, "data must be on disk");
        for i in (0..100).step_by(7) {
            let key = format!("key{i:04}");
            assert_eq!(
                &db.get(key.as_bytes()).unwrap().unwrap().value[..],
                format!("val{i}").as_bytes(),
                "{key}"
            );
        }
    }

    #[test]
    fn many_writes_trigger_flushes_and_compactions() {
        let db = open_db(small_options());
        for i in 0..2000u32 {
            let key = format!("key{:05}", i % 500);
            db.put(key.as_bytes(), &[b'x'; 40]).unwrap();
        }
        let s = db.stats();
        assert!(s.flushes > 0, "expected flushes");
        assert!(s.compactions > 0, "expected compactions");
        // All keys still readable with the newest value.
        for i in 0..500u32 {
            let key = format!("key{i:05}");
            assert!(db.get(key.as_bytes()).unwrap().is_some(), "missing {key}");
        }
    }

    #[test]
    fn get_trace_early_stops() {
        let db = open_db(Options { compaction_enabled: false, ..small_options() });
        for i in 0..200 {
            db.put(format!("k{i:04}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();
        // New write of k0000 stays in the memtable.
        db.put(b"k0000", b"new").unwrap();
        let trace = db.get_with_trace(b"k0000", Timestamp::MAX >> 1, |_| ()).unwrap().0;
        assert!(trace.memtable.is_some(), "memtable hit must not search levels");
        assert!(trace.levels.is_empty());

        let trace = db.get_with_trace(b"k0001", Timestamp::MAX >> 1, |_| ()).unwrap().0;
        assert!(trace.memtable.is_none());
        assert!(matches!(trace.levels.last().unwrap().outcome, LevelOutcome::Hit(_)));
    }

    #[test]
    fn get_trace_miss_has_neighbors() {
        let db = open_db(small_options());
        db.put(b"b", b"1").unwrap();
        db.put(b"d", b"2").unwrap();
        db.flush().unwrap();
        let trace = db.get_with_trace(b"c", Timestamp::MAX >> 1, |_| ()).unwrap().0;
        let hit_level = trace
            .levels
            .iter()
            .find(|l| !matches!(l.outcome, LevelOutcome::Empty))
            .expect("one searched level");
        match &hit_level.outcome {
            LevelOutcome::Miss { left, right } => {
                assert_eq!(&left.as_ref().unwrap().key[..], b"b");
                assert_eq!(&right.as_ref().unwrap().key[..], b"d");
            }
            other => panic!("expected miss, got {other:?}"),
        }
    }

    #[test]
    fn plain_get_miss_skips_neighbor_io() {
        let db = open_db(small_options());
        db.put(b"b", b"1").unwrap();
        db.put(b"d", b"2").unwrap();
        db.flush().unwrap();
        // A definite Bloom miss on the plain path must not read any block:
        // disk traffic stays flat (the Bloom filter and index live in
        // enclave metadata, not on disk).
        let before = db.env().platform().stats().disk_bytes;
        assert!(db.get(b"zzz-definitely-absent").unwrap().is_none());
        let after = db.env().platform().stats().disk_bytes;
        assert_eq!(after, before, "bloom-filtered plain get must do no block IO");
    }

    #[test]
    fn epochs_advance_on_flush_and_compaction() {
        let db = open_db(small_options());
        let e0 = db.current_epoch();
        db.put(b"k", b"v").unwrap();
        db.flush().unwrap();
        let e1 = db.current_epoch();
        assert!(e1 >= e0 + 2, "freeze + install must advance the epoch twice: {e0} -> {e1}");
        let trace = db.get_with_trace(b"k", Timestamp::MAX >> 1, |_| ()).unwrap().0;
        assert_eq!(trace.epoch, db.current_epoch());
    }

    #[test]
    fn pinned_snapshot_survives_later_installs() {
        let db = open_db(small_options());
        for i in 0..50 {
            db.put(format!("key{i:04}").as_bytes(), b"v1").unwrap();
        }
        db.flush().unwrap();
        let snapshot = db.current_version();
        // Overwrite everything and flush/compact repeatedly.
        for round in 0..4 {
            for i in 0..50 {
                db.put(format!("key{i:04}").as_bytes(), format!("v{round}").as_bytes()).unwrap();
            }
            db.flush().unwrap();
        }
        assert!(db.current_epoch() > snapshot.epoch());
        // The pinned snapshot still reads the old state, including from
        // runs whose files have since been unlinked.
        let trace = db
            .get_on_version(&snapshot, None, b"key0007", Timestamp::MAX >> 1, NeighborPolicy::Skip)
            .unwrap();
        assert_eq!(&trace.result.unwrap().value[..], b"v1");
        assert_eq!(trace.epoch, snapshot.epoch());
    }

    #[test]
    fn scan_merges_levels_and_memtable() {
        let db = open_db(Options { compaction_enabled: false, ..small_options() });
        db.put(b"a", b"old").unwrap();
        db.put(b"c", b"1").unwrap();
        db.flush().unwrap();
        db.put(b"a", b"new").unwrap();
        db.put(b"b", b"2").unwrap();
        let got = db.scan(b"a", b"c").unwrap();
        let pairs: Vec<(&[u8], &[u8])> = got.iter().map(|r| (&r.key[..], &r.value[..])).collect();
        assert_eq!(
            pairs,
            vec![
                (b"a".as_slice(), b"new".as_slice()),
                (b"b".as_slice(), b"2".as_slice()),
                (b"c".as_slice(), b"1".as_slice())
            ]
        );
    }

    #[test]
    fn scan_hides_deleted_keys() {
        let db = open_db(small_options());
        db.put(b"a", b"1").unwrap();
        db.put(b"b", b"2").unwrap();
        db.delete(b"a").unwrap();
        let got = db.scan(b"a", b"z").unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].key[..], b"b");
    }

    #[test]
    fn tombstones_purged_at_bottom_level() {
        let mut opts = small_options();
        opts.max_levels = 2;
        let db = open_db(opts);
        db.put(b"k", b"v").unwrap();
        db.delete(b"k").unwrap();
        db.flush().unwrap();
        db.compact(1).unwrap();
        assert!(db.get(b"k").unwrap().is_none());
        // At the bottom level the key is physically gone.
        let recs = db.level_records();
        assert_eq!(recs.iter().sum::<u64>(), 0, "tombstone and value purged: {recs:?}");
    }

    #[test]
    fn old_versions_retained_by_default() {
        let db = open_db(Options { compaction_enabled: false, ..small_options() });
        db.put(b"k", b"v1").unwrap();
        db.put(b"k", b"v2").unwrap();
        db.flush().unwrap();
        let recs = db.level_records();
        assert_eq!(recs.iter().sum::<u64>(), 2, "both versions kept: {recs:?}");
    }

    #[test]
    fn old_versions_dropped_when_configured() {
        let db = open_db(Options {
            keep_old_versions: false,
            compaction_enabled: false,
            ..small_options()
        });
        db.put(b"k", b"v1").unwrap();
        db.put(b"k", b"v2").unwrap();
        db.flush().unwrap();
        let recs = db.level_records();
        assert_eq!(recs.iter().sum::<u64>(), 1, "only newest kept: {recs:?}");
        assert_eq!(&db.get(b"k").unwrap().unwrap().value[..], b"v2");
    }

    #[test]
    fn recovery_from_manifest_and_wal() {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let options = small_options();
        let env = StorageEnv::new(platform.clone(), fs.clone(), options.env.clone(), None);
        {
            let db = Db::open(env.clone(), options.clone(), None).unwrap();
            for i in 0..300 {
                db.put(format!("key{i:04}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
            }
            // Some data flushed, some still in WAL/memtable.
        }
        // "Power cycle": reopen from the same filesystem.
        let db2 = Db::open(env, options, None).unwrap();
        for i in 0..300 {
            let key = format!("key{i:04}");
            assert_eq!(
                &db2.get(key.as_bytes()).unwrap().unwrap().value[..],
                format!("v{i}").as_bytes(),
                "lost {key} across restart"
            );
        }
        // Timestamps must continue past the recovered maximum.
        let t = db2.put(b"post", b"restart").unwrap();
        assert!(t > 300);
    }

    #[test]
    fn listener_sees_flush_and_compaction_events() {
        use std::sync::atomic::AtomicU64;
        #[derive(Default)]
        struct Spy {
            wal: AtomicU64,
            flush: AtomicU64,
            inputs: AtomicU64,
            ends: AtomicU64,
            installs: AtomicU64,
        }
        impl StoreListener for Spy {
            fn on_wal_append(&self, _: &Record) {
                self.wal.fetch_add(1, Ordering::Relaxed);
            }
            fn on_flush_record(&self, _: &Record) {
                self.flush.fetch_add(1, Ordering::Relaxed);
            }
            fn on_compaction_input(&self, _: RecordSource, _: &Record) {
                self.inputs.fetch_add(1, Ordering::Relaxed);
            }
            fn on_compaction_end(&self, _: &CompactionInfo) {
                self.ends.fetch_add(1, Ordering::Relaxed);
            }
            fn on_version_install(&self, _: u64) {
                self.installs.fetch_add(1, Ordering::Relaxed);
            }
        }
        let spy = Arc::new(Spy::default());
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let options = small_options();
        let env = StorageEnv::new(platform, fs, options.env.clone(), None);
        let db = Db::open(env, options, Some(spy.clone())).unwrap();
        for i in 0..400 {
            db.put(format!("key{i:05}").as_bytes(), &[b'x'; 30]).unwrap();
        }
        db.flush().unwrap();
        assert_eq!(spy.wal.load(Ordering::Relaxed), 400);
        assert!(spy.flush.load(Ordering::Relaxed) >= 400);
        assert!(spy.ends.load(Ordering::Relaxed) >= 1);
        assert!(spy.installs.load(Ordering::Relaxed) >= 2, "freeze + merge installs");
    }

    #[test]
    fn transform_output_rewrites_values() {
        struct Embed;
        impl StoreListener for Embed {
            fn transform_output(&self, _: usize, records: Vec<Record>) -> Vec<Record> {
                records
                    .into_iter()
                    .map(|mut r| {
                        let mut v = r.value.to_vec();
                        v.extend_from_slice(b"+proof");
                        r.value = Bytes::from(v);
                        r
                    })
                    .collect()
            }
        }
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let options = small_options();
        let env = StorageEnv::new(platform, fs, options.env.clone(), None);
        let db = Db::open(env, options, Some(Arc::new(Embed))).unwrap();
        db.put(b"k", b"v").unwrap();
        db.flush().unwrap();
        assert_eq!(&db.get(b"k").unwrap().unwrap().value[..], b"v+proof");
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
    fn lazy_wal_sync_still_recovers_after_rotation() {
        // EveryNBytes buffers frames in enclave memory; a flush-triggered
        // rotation must force them out so recovery never loses a frozen
        // memtable's records.
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let options = Options { wal_sync: WalSyncPolicy::EveryNBytes(1 << 20), ..small_options() };
        let env = StorageEnv::new(platform, fs.clone(), options.env.clone(), None);
        {
            let db = Db::open(env.clone(), options.clone(), None).unwrap();
            for i in 0..40 {
                db.put(format!("key{i:03}").as_bytes(), b"v").unwrap();
            }
            db.flush().unwrap();
        }
        let db2 = Db::open(env, options, None).unwrap();
        for i in 0..40 {
            let key = format!("key{i:03}");
            assert!(db2.get(key.as_bytes()).unwrap().is_some(), "lost {key}");
        }
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
    fn snapshot_reads_see_history() {
        let db = open_db(Options { compaction_enabled: false, ..small_options() });
        let t1 = db.put(b"k", b"v1").unwrap();
        let t2 = db.put(b"k", b"v2").unwrap();
        let tr1 = db.get_with_trace(b"k", t1, |_| ()).unwrap().0;
        assert_eq!(&tr1.result.unwrap().value[..], b"v1");
        let tr2 = db.get_with_trace(b"k", t2, |_| ()).unwrap().0;
        assert_eq!(&tr2.result.unwrap().value[..], b"v2");
    }

    /// Listener capturing the live-epoch set after every install.
    #[derive(Default)]
    struct LiveEpochProbe {
        live: Mutex<Vec<u64>>,
    }

    impl StoreListener for LiveEpochProbe {
        fn on_versions_retired(&self, live_epochs: &[u64]) {
            *self.live.lock() = live_epochs.to_vec();
        }
    }

    fn open_db_with_listener(options: Options, listener: Arc<dyn StoreListener>) -> Arc<Db> {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let env = StorageEnv::new(platform, fs, options.env.clone(), None);
        Arc::new(Db::open(env, options, Some(listener)).unwrap())
    }

    #[test]
    fn retired_epoch_floor_pins_drain_behavior() {
        // With no reader pinning anything, drained versions survive
        // exactly until they fall `retired_epoch_floor` epochs behind.
        let run = |floor: u64| {
            let probe = Arc::new(LiveEpochProbe::default());
            let db = open_db_with_listener(
                Options {
                    retired_epoch_floor: floor,
                    compaction_enabled: false,
                    ..small_options()
                },
                probe.clone(),
            );
            for round in 0..6 {
                for i in 0..40 {
                    db.put(format!("key{round}-{i:03}").as_bytes(), &[b'x'; 40]).unwrap();
                }
                db.flush().unwrap();
            }
            let live = probe.live.lock().clone();
            let newest = *live.iter().max().unwrap();
            (live.len(), newest)
        };
        let (live0, newest0) = run(0);
        // Captured at the final flush's phase-3 install: the flush still
        // pins its phase-1 version, so exactly that version plus the
        // newest survive — every *drained* version retired immediately.
        assert_eq!(live0, 2, "floor 0 must retire every drained version immediately");
        let (live8, newest8) = run(8);
        assert_eq!(newest0, newest8, "same workload, same epoch sequence");
        assert_eq!(
            live8,
            8.min(newest8 + 1) as usize,
            "floor 8 must keep the 8 newest epochs verifiable"
        );
    }

    /// One recorded replication event (frames and jobs owned).
    enum ReplayEvent {
        Frame(Vec<Record>),
        Flush,
        Compact(CompactionJob),
        VlogGc(VlogGcJob),
        Install,
    }

    /// Replication sink recording the event stream.
    #[derive(Default)]
    struct StreamProbe {
        events: Mutex<Vec<ReplayEvent>>,
    }

    impl ReplicationSink for StreamProbe {
        fn on_event(&self, event: ReplicationEvent<'_>) {
            let entry = match event {
                ReplicationEvent::Frame { records } => ReplayEvent::Frame(records.to_vec()),
                ReplicationEvent::Flush => ReplayEvent::Flush,
                ReplicationEvent::Compact { job } => ReplayEvent::Compact(job.clone()),
                ReplicationEvent::VlogGc { gc } => ReplayEvent::VlogGc(gc.clone()),
                ReplicationEvent::Install { .. } => ReplayEvent::Install,
            };
            self.events.lock().push(entry);
        }
    }

    #[test]
    fn replication_stream_replays_to_an_identical_store() {
        let probe = Arc::new(StreamProbe::default());
        let primary = open_db(small_options());
        primary.set_replication_sink(probe.clone());
        for i in 0..300u32 {
            let key = format!("key{:04}", i % 120);
            primary.put(key.as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        primary.delete(b"key0003").unwrap();
        primary.flush().unwrap();
        primary.put(b"tail", b"after-flush").unwrap();

        // Replay the recorded stream against a second store: flush
        // decisions and compaction jobs come from the markers, never from
        // the replica's own thresholds or strategy.
        let replica = open_db(small_options());
        for event in probe.events.lock().iter() {
            match event {
                ReplayEvent::Frame(records) => replica.apply_replicated_batch(records).unwrap(),
                ReplayEvent::Flush => replica.apply_replicated_flush().unwrap(),
                ReplayEvent::Compact(job) => replica.apply_compaction_job(job).unwrap(),
                ReplayEvent::VlogGc(gc) => replica.apply_vlog_gc(gc).unwrap(),
                ReplayEvent::Install => {}
            }
        }
        assert_eq!(replica.current_epoch(), primary.current_epoch(), "epoch sequences diverged");
        assert_eq!(replica.level_records(), primary.level_records(), "level shapes diverged");
        assert_eq!(replica.latest_ts(), primary.latest_ts(), "timestamp allocators diverged");
        for i in 0..120u32 {
            let key = format!("key{i:04}");
            let a = primary.get(key.as_bytes()).unwrap();
            let b = replica.get(key.as_bytes()).unwrap();
            assert_eq!(a, b, "{key} diverged");
        }
        assert_eq!(&replica.get(b"tail").unwrap().unwrap().value[..], b"after-flush");
    }

    use crate::compaction::{CompactionConfig, CompactionStrategyKind, TieredConfig};

    fn tiered_options(parallelism: usize) -> Options {
        Options {
            compaction: CompactionConfig {
                strategy: CompactionStrategyKind::Tiered(TieredConfig::default()),
                parallelism,
            },
            ..small_options()
        }
    }

    #[test]
    fn tiered_strategy_stacks_and_merges() {
        let db = open_db(tiered_options(1));
        for i in 0..3000u32 {
            db.put(format!("key{:05}", i % 600).as_bytes(), &[b'x'; 40]).unwrap();
        }
        let s = db.stats();
        assert!(s.flushes > 0, "expected flushes: {s:?}");
        assert!(s.compactions > 0, "tiered merges must have run: {s:?}");
        for i in 0..600u32 {
            let key = format!("key{i:05}");
            assert!(db.get(key.as_bytes()).unwrap().is_some(), "missing {key}");
        }
        // Freshness order: a stacked layout must still serve the newest
        // version (higher slots are fresher; reads search top-down).
        db.put(b"key00001", b"newest").unwrap();
        db.flush().unwrap();
        assert_eq!(&db.get(b"key00001").unwrap().unwrap().value[..], b"newest");
    }

    #[test]
    fn parallel_waves_match_serial_execution() {
        // Parallelism moves merge work onto worker threads but installs
        // stay in deterministic job order: epochs, level shapes, and every
        // read must be bit-identical to the serial scheduler's.
        let run = |parallelism: usize| {
            let db = open_db(tiered_options(parallelism));
            for i in 0..2500u32 {
                db.put(format!("key{:05}", i % 500).as_bytes(), &[b'y'; 40]).unwrap();
            }
            db.flush().unwrap();
            let reads: Vec<_> = (0..500u32)
                .map(|i| {
                    db.get(format!("key{i:05}").as_bytes())
                        .unwrap()
                        .map(|r| (r.value.clone(), r.ts))
                })
                .collect();
            (db.current_epoch(), db.level_records(), reads)
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.0, parallel.0, "epoch sequences must not depend on parallelism");
        assert_eq!(serial.1, parallel.1, "level shapes must not depend on parallelism");
        assert_eq!(serial.2, parallel.2, "reads must not depend on parallelism");
    }

    /// Filesystem-snapshotting listener: captures the on-disk state at the
    /// two riskiest instants of a compaction job — merge done but not
    /// installed, and mid-install (listener committed, manifest not yet
    /// written) — together with how many puts had been issued.
    struct CrashProbe {
        fs: Arc<SimFs>,
        issued: Arc<AtomicU64>,
        at_end: Mutex<Option<(sim_disk::FsSnapshot, u64)>>,
        at_install: Mutex<Option<(sim_disk::FsSnapshot, u64)>>,
    }

    impl StoreListener for CrashProbe {
        fn on_compaction_end(&self, info: &CompactionInfo) {
            if info.input_levels != [0] {
                *self.at_end.lock() =
                    Some((self.fs.snapshot(), self.issued.load(Ordering::SeqCst)));
            }
        }
        fn on_compaction_install(&self, info: &CompactionInfo) {
            if info.input_levels != [0] {
                *self.at_install.lock() =
                    Some((self.fs.snapshot(), self.issued.load(Ordering::SeqCst)));
            }
        }
    }

    #[test]
    fn crash_mid_compaction_recovers_consistent_state() {
        // An acknowledged put is already in a manifest-named WAL before
        // any compaction of the same flush cycle runs, so a crash at
        // either captured instant must recover every put issued by then:
        // the store lands on the consistent pre-compaction version (the
        // manifest still names the input runs; orphaned output files are
        // swept) and loses nothing.
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let options = small_options();
        let issued = Arc::new(AtomicU64::new(0));
        let probe = Arc::new(CrashProbe {
            fs: fs.clone(),
            issued: issued.clone(),
            at_end: Mutex::new(None),
            at_install: Mutex::new(None),
        });
        let env = StorageEnv::new(platform.clone(), fs.clone(), options.env.clone(), None);
        let db = Db::open(env, options.clone(), Some(probe.clone())).unwrap();
        let puts: Vec<(String, String)> =
            (0..1800u32).map(|i| (format!("key{:05}", i % 400), format!("v{i}"))).collect();
        for (i, (key, val)) in puts.iter().enumerate() {
            // Counted *before* the put: when a compaction inside this
            // put's flush chase snapshots the fs, the put itself is
            // already committed (WAL frame written before the chase).
            issued.store(i as u64 + 1, Ordering::SeqCst);
            db.put(key.as_bytes(), val.as_bytes()).unwrap();
        }
        drop(db);
        let snaps: Vec<(sim_disk::FsSnapshot, u64)> = [
            probe.at_end.lock().take().expect("a compaction job must have run"),
            probe.at_install.lock().take().expect("a compaction job must have installed"),
        ]
        .into_iter()
        .collect();
        for (snap, n) in snaps {
            fs.restore(&snap);
            let env = StorageEnv::new(platform.clone(), fs.clone(), options.env.clone(), None);
            let db2 = Db::open(env, options.clone(), None).unwrap();
            let mut expected = HashMap::new();
            for (key, val) in &puts[..n as usize] {
                expected.insert(key.clone(), val.clone());
            }
            for (key, val) in &expected {
                let got = db2.get(key.as_bytes()).unwrap();
                assert_eq!(
                    got.as_ref().map(|r| &r.value[..]),
                    Some(val.as_bytes()),
                    "acked write to {key} lost across crash at put {n}"
                );
            }
            // The recovered store keeps working: writes, flushes, waves.
            db2.put(b"post-crash", b"ok").unwrap();
            db2.flush().unwrap();
            assert!(db2.get(b"post-crash").unwrap().is_some());
        }
    }

    #[test]
    fn compaction_stress_concurrent_writers_and_readers() {
        // CI's compaction stress: tiered strategy, 4-way parallel waves,
        // racing writers and readers, then a major pass — nothing lost.
        let db = open_db(tiered_options(4));
        std::thread::scope(|s| {
            for t in 0..4 {
                let db = &db;
                s.spawn(move || {
                    for i in 0..600u32 {
                        db.put(format!("t{t}-key{:04}", i % 150).as_bytes(), &[b'z'; 50]).unwrap();
                    }
                });
            }
            let dbr = &db;
            s.spawn(move || {
                for i in 0..800u32 {
                    let _ = dbr.get(format!("t{}-key{:04}", i % 4, (i * 7) % 150).as_bytes());
                    if i % 100 == 0 {
                        let _ = dbr.scan(b"t0", b"t3~");
                    }
                }
            });
        });
        let s = db.stats();
        assert!(s.compactions > 0, "stress must exercise the scheduler: {s:?}");
        for t in 0..4 {
            for i in 0..150u32 {
                let key = format!("t{t}-key{i:04}");
                assert!(db.get(key.as_bytes()).unwrap().is_some(), "missing {key}");
            }
        }
        // Tombstone-aware major pass: folds all populated runs into one.
        db.compact_major().unwrap();
        let recs = db.level_records();
        assert!(
            recs.iter().filter(|&&n| n > 0).count() <= 2,
            "major pass must fold runs (memtable + one run at most): {recs:?}"
        );
        for t in 0..4 {
            assert!(db.get(format!("t{t}-key0000").as_bytes()).unwrap().is_some());
        }
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

    #[test]
    fn major_compaction_purges_tombstones() {
        let db = open_db(Options { keep_old_versions: false, ..tiered_options(1) });
        for i in 0..50u32 {
            db.put(format!("k{i:03}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();
        for i in 0..50u32 {
            db.delete(format!("k{i:03}").as_bytes()).unwrap();
        }
        db.flush().unwrap();
        db.compact_major().unwrap();
        assert!(db.get(b"k007").unwrap().is_none());
        let recs = db.level_records();
        assert_eq!(recs.iter().sum::<u64>(), 0, "values and tombstones physically gone: {recs:?}");
    }

    fn vlog_options() -> Options {
        Options {
            keep_old_versions: false,
            vlog: Some(crate::options::VlogConfig {
                value_threshold: 128,
                target_file_bytes: 4 * 1024,
                gc_garbage_ratio: 0.3,
                gc_enabled: false,
            }),
            ..small_options()
        }
    }

    #[test]
    fn large_values_separate_into_the_value_log_at_flush() {
        let db = open_db(vlog_options());
        db.put(b"small", b"inline").unwrap();
        db.put(b"big", &[7u8; 1000]).unwrap();
        db.flush().unwrap();
        // On-disk record for `big` is a pointer, not the payload.
        let level = (1..db.level_bytes().len())
            .find(|&l| !db.level_record_dump(l).unwrap().is_empty())
            .unwrap();
        let dump = db.level_record_dump(level).unwrap();
        let big = dump.iter().find(|r| &r.key[..] == b"big").unwrap();
        assert_eq!(big.kind, ValueKind::VlogPut);
        assert_eq!(big.value.len(), crate::vlog::POINTER_BYTES);
        let small = dump.iter().find(|r| &r.key[..] == b"small").unwrap();
        assert_eq!(small.kind, ValueKind::Put);
        // Reads resolve through the vlog transparently.
        assert_eq!(&db.get(b"big").unwrap().unwrap().value[..], &[7u8; 1000][..]);
        assert_eq!(&db.get(b"small").unwrap().unwrap().value[..], b"inline");
        let scanned = db.scan(b"a", b"z").unwrap();
        assert_eq!(scanned.len(), 2);
        assert_eq!(scanned[0].value.len(), 1000);
        let s = db.stats();
        assert!(s.vlog_bytes > 1000, "vlog holds the payload: {}", s.vlog_bytes);
        assert_eq!(s.vlog_garbage_bytes, 0);
    }

    #[test]
    fn vlog_survives_restart_and_gc_rewrites_live_entries() {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let options = vlog_options();
        let env = StorageEnv::new(platform.clone(), fs.clone(), options.env.clone(), None);
        {
            let db = Db::open(env.clone(), options.clone(), None).unwrap();
            for i in 0..20u32 {
                db.put(format!("k{i:02}").as_bytes(), &[i as u8; 600]).unwrap();
            }
            db.flush().unwrap();
        }
        let db = Db::open(env.clone(), options.clone(), None).unwrap();
        for i in 0..20u32 {
            let got = db.get(format!("k{i:02}").as_bytes()).unwrap().unwrap();
            assert_eq!(&got.value[..], &[i as u8; 600][..], "k{i:02} across restart");
        }
        // Overwrite half the keys: old vlog entries become garbage once
        // compaction drops the superseded versions.
        for i in 0..10u32 {
            db.put(format!("k{i:02}").as_bytes(), &[0xEE; 600]).unwrap();
        }
        db.flush().unwrap();
        db.compact_major().unwrap();
        let before = db.stats();
        assert!(before.vlog_garbage_bytes > 0, "superseded entries counted: {before:?}");
        db.vlog_gc().unwrap();
        let after = db.stats();
        assert!(
            after.vlog_bytes - after.vlog_garbage_bytes <= before.vlog_bytes,
            "gc never grows live bytes"
        );
        assert!(
            after.vlog_garbage_bytes < before.vlog_garbage_bytes
                || after.vlog_bytes < before.vlog_bytes,
            "gc reclaimed something: {before:?} -> {after:?}"
        );
        // Every key still readable after rewrite, including across one more restart.
        drop(db);
        let db = Db::open(env, options, None).unwrap();
        for i in 0..20u32 {
            let want: &[u8] = if i < 10 { &[0xEE; 600] } else { &[i as u8; 600] };
            let got = db.get(format!("k{i:02}").as_bytes()).unwrap().unwrap();
            assert_eq!(&got.value[..], want, "k{i:02} after gc + restart");
        }
    }

    #[test]
    fn vlog_gc_is_replayable_on_a_follower() {
        // Same stream-replay harness as
        // replication_stream_replays_to_an_identical_store, but with value
        // separation on and a GC cycle in the stream.
        let probe = Arc::new(StreamProbe::default());
        let db = open_db(vlog_options());
        db.set_replication_sink(probe.clone());
        for i in 0..20u32 {
            db.put(format!("k{i:02}").as_bytes(), &[i as u8; 600]).unwrap();
        }
        db.flush().unwrap();
        for i in 0..10u32 {
            db.put(format!("k{i:02}").as_bytes(), &[0xAB; 600]).unwrap();
        }
        db.flush().unwrap();
        db.compact_major().unwrap();
        db.vlog_gc().unwrap();
        assert!(
            probe.events.lock().iter().any(|e| matches!(e, ReplayEvent::VlogGc(_))),
            "gc must ship as a replication event"
        );

        let replica = open_db(vlog_options());
        for event in probe.events.lock().iter() {
            match event {
                ReplayEvent::Frame(records) => replica.apply_replicated_batch(records).unwrap(),
                ReplayEvent::Flush => replica.apply_replicated_flush().unwrap(),
                ReplayEvent::Compact(job) => replica.apply_compaction_job(job).unwrap(),
                ReplayEvent::VlogGc(gc) => replica.apply_vlog_gc(gc).unwrap(),
                ReplayEvent::Install => {}
            }
        }
        for i in 0..20u32 {
            let want: &[u8] = if i < 10 { &[0xAB; 600] } else { &[i as u8; 600] };
            let got = replica.get(format!("k{i:02}").as_bytes()).unwrap().unwrap();
            assert_eq!(&got.value[..], want, "replica k{i:02}");
        }
        assert_eq!(replica.stats().vlog_bytes, db.stats().vlog_bytes, "replayed vlog converges");
    }
}
