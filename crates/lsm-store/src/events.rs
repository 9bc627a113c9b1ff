//! RocksDB-style event callbacks.
//!
//! The paper's key implementation claim (§5.5.3) is that eLSM can be built
//! as an *add-on* over an unmodified LSM store using only its callback
//! interface. This module is that interface, modelled on RocksDB's:
//!
//! * [`StoreListener::on_compaction_input`] ↔ the `Filter()` event of the
//!   compaction filter API — fires for every record the compaction reads,
//!   tagged with its source level/file so the listener can rebuild input
//!   Merkle trees (Figure 4, `auth_filter`);
//! * [`StoreListener::begin_output`] ↔ `OnTableFileCreated()` — lets the
//!   listener see a merge's output records and then write their stored
//!   values (embed proofs) as they hit disk (Figure 4,
//!   `auth_onTableFileCreated`);
//! * [`StoreListener::on_compaction_end`] ↔ `OnCompactionCompleted()` —
//!   where eLSM checks input roots and installs the output root (a flush
//!   is a merge whose input level 0 is the memtable, so authenticated
//!   flush, §5.5.3 item 3, rides the same three hooks);
//! * [`StoreListener::on_wal_append_batch`] ↔ the WAL write hook used for
//!   the in-enclave WAL digest (§5.3, step w1).

use std::fmt;

use bytes::Bytes;

use crate::compaction::{CompactionJob, VlogGcJob};
use crate::record::{Record, RecordView};
use crate::vlog::MAC_BYTES;

/// Identifies where a compaction input record came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordSource {
    /// Source level (0 = the memtable being flushed).
    pub level: usize,
    /// Source SSTable file number (0 for the memtable).
    pub file_no: u64,
}

/// Where a merge's output record was read: the `ordinal`-th record (from
/// 0) the merge read from input `level` — level 0 being the frozen
/// memtable. For a stored level that is the record's position in the
/// stream [`StoreListener::on_compaction_input`] was shown of the level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InputPosition {
    /// Input level (0 = the memtable being flushed).
    pub level: usize,
    /// The record's index among the records read from `level`.
    pub ordinal: usize,
}

/// Summary of a finished compaction, passed to
/// [`StoreListener::on_compaction_end`] (merge complete, output staged)
/// and [`StoreListener::on_compaction_install`] (output becoming
/// visible).
#[derive(Debug, Clone)]
pub struct CompactionInfo {
    /// Input levels, ascending (`[0]` for a memtable flush). A parallel
    /// wave's concurrent jobs never share a level, so a listener may key
    /// per-job scratch state by these.
    pub input_levels: Vec<usize>,
    /// Output level.
    pub output_level: usize,
    /// Records read from inputs.
    pub input_records: u64,
    /// Records written to the output run.
    pub output_records: u64,
    /// Output file numbers, in key order.
    pub output_files: Vec<u64>,
}

/// Observer/extension interface of the vanilla store.
///
/// All methods have no-op defaults, so a listener implements only what it
/// needs. The store invokes these callbacks *inside the enclave* when the
/// environment runs in enclave mode (the listener is part of the trusted
/// code, exactly like RocksDB callbacks run inside the Speicher/eLSM
/// enclave).
pub trait StoreListener: Send + Sync {
    /// A record was read from a compaction input (Figure 4's `Filter`).
    /// The view is lent for the call: what a listener keeps, it copies.
    fn on_compaction_input(&self, source: RecordSource, record: RecordView<'_>) {
        let _ = (source, record);
    }

    /// A merge (flush, compaction or value-log GC) has settled which
    /// records it keeps and is about to write them as `output_level`'s run
    /// (Figure 4's `onTableFileCreated`). The returned observer is shown
    /// every output record in order (pass 1), then
    /// [`seals`](OutputObserver::seal) into the writer that produces each
    /// record's stored value as the tables are built (pass 2). Two passes,
    /// because what a listener stores with a record may depend on all of
    /// them — eLSM's embedded Merkle proof does. The default stores every
    /// value as it is ([`Verbatim`]).
    fn begin_output(&self, output_level: usize) -> Box<dyn OutputObserver + '_> {
        let _ = output_level;
        Box::new(Verbatim)
    }

    /// A compaction merge finished; its output run is written but **not
    /// yet visible**. Runs on the merging thread (a scheduler worker for
    /// parallel jobs), so expensive verification/digest work here
    /// overlaps with other jobs. Keyed state should be staged per
    /// `info.output_level` and applied in
    /// [`StoreListener::on_compaction_install`].
    fn on_compaction_end(&self, info: &CompactionInfo) {
        let _ = info;
    }

    /// A merge failed (an input did not read back or decode, an output file
    /// could not be written) after the listener may have been shown part of
    /// it. Nothing of the job installs and no
    /// [`StoreListener::on_compaction_end`] follows; eLSM refuses further
    /// service, as it does when an input level does not match its root.
    fn on_merge_failed(&self) {}

    /// The compaction's output version is about to install (fires under
    /// the store's write lock, immediately before the matching
    /// [`StoreListener::on_version_install`]). Installs of a parallel
    /// wave arrive in deterministic job order; this is where a listener
    /// commits state staged by `on_compaction_end` — e.g. eLSM folds the
    /// level-commitment delta into its trusted state.
    fn on_compaction_install(&self, info: &CompactionInfo) {
        let _ = info;
    }

    /// One commit group's records were appended to the write-ahead log as
    /// a single atomic frame. The committer serializes groups, so calls
    /// arrive in commit order and the listener may maintain order-sensitive
    /// state (eLSM folds the records into its WAL hash chain here) with a
    /// single lock acquisition and one amortized cost charge per group.
    fn on_wal_append_batch(&self, records: &[Record]) {
        let _ = records;
    }

    /// The write-ahead log rotated: every record heard of so far sits in a
    /// log before the one now active, every record from here on in the
    /// active one. Fired under the store's write lock when a flush freezes
    /// the memtable (after the last commit's
    /// [`StoreListener::on_wal_append_batch`] returned), and between the
    /// logs recovery replays. The frozen log is gone once the flush
    /// installs ([`StoreListener::on_compaction_install`] with input level
    /// 0) — eLSM notes the WAL digest here as what its oldest live log
    /// will start from then.
    fn on_wal_rotate(&self) {}

    /// A new [`Version`](crate::version::Version) with the given epoch is
    /// about to become visible to readers. Fired *before* the swap, under
    /// the store's write lock, so a listener can publish state keyed by
    /// `epoch` (eLSM snapshots its level commitments here) with the
    /// guarantee that no reader observes the epoch first.
    fn on_version_install(&self, epoch: u64) {
        let _ = epoch;
    }

    /// The set of epochs still live after an install (every other
    /// published version has drained — no reader holds it — and was
    /// retired). A listener may prune state it published for epochs not
    /// in the set.
    fn on_versions_retired(&self, live_epochs: &[u64]) {
        let _ = live_epochs;
    }

    /// MAC authenticating one value-log entry. Called at flush time (and
    /// on GC rewrite verification) for each record whose value moves to
    /// the value log; the returned bytes are embedded in the pointer
    /// record, so the Merkle commitment over the pointer transitively
    /// covers the out-of-line value. The default (vanilla store) is an
    /// all-zero MAC — only the per-entry CRC protects the log.
    ///
    /// Must be a **deterministic** function of the record (replicas replay
    /// the same flushes and must produce bit-identical pointer records,
    /// hence bit-identical level commitments).
    fn vlog_mac(&self, record: &Record) -> [u8; MAC_BYTES] {
        let _ = record;
        [0u8; MAC_BYTES]
    }

    /// Wraps encoded pointer bytes into the form the listener stores as a
    /// record value (eLSM wraps them in its plain value envelope so
    /// pointer records share the level's canonical-record format). The
    /// default stores them bare.
    fn wrap_vlog_pointer(&self, pointer: Vec<u8>) -> Bytes {
        Bytes::from(pointer)
    }

    /// Inverse of [`StoreListener::wrap_vlog_pointer`]: recovers the
    /// encoded pointer bytes from a `VlogPut` record's stored value.
    /// `None` means the stored value does not parse (tampering).
    fn unwrap_vlog_pointer(&self, stored: &[u8]) -> Option<Bytes> {
        Some(Bytes::copy_from_slice(stored))
    }
}

/// Pass 1 of a merge's output (see [`StoreListener::begin_output`]).
pub trait OutputObserver {
    /// The next output record, in internal-key order, and where the merge
    /// read it (`None`: the merge rewrote its value — value-log GC
    /// re-homing a pointer). A record read from a stored level is the
    /// bytes the listener was shown there, so what the listener derived
    /// from them can be reused instead of derived again — eLSM carries
    /// chain digests over (the amortized integrity-metadata maintenance
    /// the TEE-KV survey names as the enclave-LSM cost lever).
    fn observe(&mut self, record: RecordView<'_>, from: Option<InputPosition>);

    /// Every output record was observed; returns the writer for pass 2.
    fn seal<'a>(self: Box<Self>) -> Box<dyn OutputWriter + 'a>
    where
        Self: 'a;
}

/// Pass 2 of a merge's output: called once per output record, in the order
/// they were observed, as each is added to a table.
pub trait OutputWriter {
    /// Appends to `out` — the table block under construction — the value
    /// to store for `record`. Must only append.
    fn write_value(&mut self, record: RecordView<'_>, out: &mut Vec<u8>);
}

/// The output seam of a listener that stores values as they are.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verbatim;

impl OutputObserver for Verbatim {
    fn observe(&mut self, _: RecordView<'_>, _: Option<InputPosition>) {}

    fn seal<'a>(self: Box<Self>) -> Box<dyn OutputWriter + 'a> {
        self
    }
}

impl OutputWriter for Verbatim {
    fn write_value(&mut self, record: RecordView<'_>, out: &mut Vec<u8>) {
        out.extend_from_slice(record.value);
    }
}

/// One replication-relevant event of the write/maintenance path.
///
/// A [`ReplicationSink`] registered on a [`Db`](crate::db::Db) observes
/// these **in stream order**: replaying the same events against a second
/// store opened with the same options reproduces the first store's state
/// exactly — byte-identical WAL frames, the same memtable content at every
/// point, and (because `Flush`/`Compact` mark where maintenance ran) the
/// same version/epoch sequence and level contents. That determinism is
/// what lets a replica cross-check its own level commitments against the
/// primary's announcements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationEvent<'a> {
    /// One committed WAL batch frame (the crash-atomicity unit — a replica
    /// applies it whole via
    /// [`Db::apply_replicated_batch`](crate::db::Db::apply_replicated_batch)).
    Frame {
        /// The frame's records, timestamps already assigned.
        records: &'a [Record],
    },
    /// The memtable froze and is being flushed: a version boundary. A
    /// replica replays this as its own
    /// [`Db::flush`](crate::db::Db::flush) — the flush decision must
    /// come from the primary, never from the replica's own thresholds,
    /// or group-commit timing would desynchronize the two epoch
    /// sequences.
    Flush,
    /// A compaction job's output installed. Fired for **every** installed
    /// job — scheduler waves and explicit compactions alike — in install
    /// order, carrying the strategy-deterministic job description so a
    /// replica replays the exact same merge
    /// ([`Db::apply_compaction_job`](crate::db::Db::apply_compaction_job))
    /// instead of re-running its own selection. Flush replay therefore
    /// must **not** chase compaction
    /// ([`Db::apply_replicated_flush`](crate::db::Db::apply_replicated_flush)).
    Compact {
        /// The job that ran (input levels, output level, purge flag).
        job: &'a CompactionJob,
    },
    /// A version with this epoch was just installed; the listener's
    /// epoch-tagged state (eLSM's commitment snapshot) exists. Replicas
    /// use this to cross-check their replayed state per epoch.
    Install {
        /// The installed version's epoch.
        epoch: u64,
    },
    /// A value-log garbage collection installed: the carried merge job ran
    /// with the named victim files' live entries rewritten to the active
    /// log file, and the victims were deleted afterwards. A replica
    /// replays it via
    /// [`Db::apply_vlog_gc`](crate::db::Db::apply_vlog_gc) — like
    /// [`ReplicationEvent::Compact`], the decision (victim set and job)
    /// comes from the primary so both logs evolve identically.
    VlogGc {
        /// The GC description (merge job + victim file numbers).
        gc: &'a VlogGcJob,
    },
}

/// Observer of the replication event stream (the WAL-shipping seam).
///
/// Registered after open via
/// [`Db::set_replication_sink`](crate::db::Db::set_replication_sink).
/// `Frame`, `Flush` and `Install` events fire under the store's write
/// lock, so the callback sees them in exactly the order a replay must
/// apply them; keep the work done here small (enqueue and return).
pub trait ReplicationSink: Send + Sync {
    /// One event of the stream, in order.
    fn on_event(&self, event: ReplicationEvent<'_>);
}

/// A listener that does nothing (the vanilla, unsecured configuration).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopListener;

impl StoreListener for NoopListener {}

impl fmt::Debug for dyn StoreListener {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("dyn StoreListener")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct Counting {
        inputs: AtomicU64,
        outputs: AtomicU64,
        wal: AtomicU64,
    }

    impl StoreListener for Counting {
        fn on_compaction_input(&self, _: RecordSource, _: RecordView<'_>) {
            self.inputs.fetch_add(1, Ordering::Relaxed);
        }
        fn begin_output(&self, _: usize) -> Box<dyn OutputObserver + '_> {
            self.outputs.fetch_add(1, Ordering::Relaxed);
            Box::new(Verbatim)
        }
        fn on_wal_append_batch(&self, records: &[Record]) {
            self.wal.fetch_add(records.len() as u64, Ordering::Relaxed);
        }
    }

    #[test]
    fn defaults_are_noops() {
        let l = NoopListener;
        let r = Record::put(b"k".as_slice(), b"v".as_slice(), 1);
        let mut observer = l.begin_output(1);
        observer.observe(r.view(), None);
        let mut stored = Vec::new();
        observer.seal().write_value(r.view(), &mut stored);
        assert_eq!(stored, &r.value[..], "the default writer is the identity");
    }

    #[test]
    fn custom_listener_observes() {
        let l = Counting::default();
        let r = Record::put(b"k".as_slice(), b"v".as_slice(), 1);
        l.on_compaction_input(RecordSource { level: 1, file_no: 3 }, r.view());
        drop(l.begin_output(1));
        l.on_wal_append_batch(std::slice::from_ref(&r));
        assert_eq!(l.inputs.load(Ordering::Relaxed), 1);
        assert_eq!(l.outputs.load(Ordering::Relaxed), 1);
        assert_eq!(l.wal.load(Ordering::Relaxed), 1);
    }
}
