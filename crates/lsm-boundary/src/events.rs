//! RocksDB-style event callbacks.
//!
//! The paper's key implementation claim (§5.5.3) is that eLSM can be built
//! as an *add-on* over an unmodified LSM store using only its callback
//! interface. This module is that interface, modelled on RocksDB's. Every
//! merge — a flush (a merge whose input level 0 is the memtable, so
//! authenticated flush, §5.5.3 item 3, is the same job), a compaction or a
//! value-log GC — is one [`MergeJob`], begun by
//! [`StoreListener::begin_merge`] (RocksDB's compaction filter factory) and
//! shown, in order (Figure 4):
//!
//! * [`MergeJob::input`] ↔ `Filter()`: each record read from a stored input
//!   level, so the listener can rebuild input Merkle trees (`auth_filter`);
//! * [`MergeJob::observe`] → [`MergeJob::seal`] → [`MergeJob::write_value`]
//!   ↔ `OnTableFileCreated()`: the survivors, then each stored value as the
//!   tables are built (`auth_onTableFileCreated`);
//! * [`MergeJob::finish`] ↔ `OnCompactionCompleted()`: output written, not
//!   yet visible — where eLSM checks input roots and stages the output root;
//! * [`MergeJob::install`]: the output installs, under the store's write
//!   lock, in job order — where eLSM commits what it staged;
//! * [`MergeJob::fail`]: the merge failed, and nothing of it installs.
//!
//! [`StoreListener::on_wal_append_batch`] ↔ the WAL write hook used for the
//! in-enclave WAL digest (§5.3, step w1).

use std::fmt;

use bytes::Bytes;

use crate::record::{Record, RecordView};

/// Bytes of a value-log entry MAC.
pub const MAC_BYTES: usize = 32;

/// Where a merge's output record was read: the `ordinal`-th record (from
/// 0) the merge read from input `level` — level 0 being the frozen
/// memtable. For a stored level that is the record's position in the
/// stream [`MergeJob::input`] was shown of the level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InputPosition {
    /// Input level (0 = the memtable being flushed).
    pub level: usize,
    /// The record's index among the records read from `level`.
    pub ordinal: usize,
}

/// Observer/extension interface of the vanilla store.
///
/// All methods have no-op defaults, so a listener implements only what it
/// needs. The store invokes these callbacks *inside the enclave* when the
/// environment runs in enclave mode (the listener is part of the trusted
/// code, exactly like RocksDB callbacks run inside the Speicher/eLSM
/// enclave).
pub trait StoreListener: Send + Sync {
    /// A merge of `input_levels` (ascending; 0 is the frozen memtable) into
    /// `output_level` starts, on the merging thread (a scheduler worker for
    /// a parallel wave's jobs) with no store lock held. The returned job
    /// sees the whole merge (see [`MergeJob`]) and lives until the merge
    /// installs or fails, so what a listener derives for it is its own. The
    /// default stores every value as it is ([`Verbatim`]).
    fn begin_merge(&self, input_levels: &[usize], output_level: usize) -> Box<dyn MergeJob + '_> {
        let _ = (input_levels, output_level);
        Box::new(Verbatim)
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
    /// logs recovery replays. The frozen log is gone once the flush's job
    /// installs ([`MergeJob::install`]) — eLSM notes the WAL digest here as
    /// what its oldest live log will start from then.
    fn on_wal_rotate(&self) {}

    /// A new store version with the given epoch is about to become visible
    /// to readers. Fired *before* the swap, under the store's write lock, so
    /// a listener can publish state keyed by `epoch` (eLSM snapshots its
    /// level commitments here) with the guarantee that no reader observes
    /// the epoch first.
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

    /// The listener's section of the manifest being written, whose other
    /// bytes are `manifest`. The manifest is the store's one durable commit
    /// point: it is rewritten at open, at each flush freeze and install, when
    /// value-log files go, and at close — with the maintenance mutex held,
    /// after the install it records. eLSM seals its trusted state here,
    /// bound to `manifest`. The default keeps nothing.
    fn manifest_state(&self, manifest: &[u8]) -> Vec<u8> {
        let _ = manifest;
        Vec::new()
    }

    /// Recovery read `state`, the listener's section of the manifest whose
    /// other bytes are `manifest`, and replays the logs next — eLSM unseals
    /// the state and restarts its WAL chain where the state says the oldest
    /// live log starts.
    fn recover_manifest_state(&self, manifest: &[u8], state: &[u8]) {
        let _ = (manifest, state);
    }
}

/// One merge as a listener sees it, from its first input record to its
/// install, called in the order the [module docs](crate::events) list: the
/// kept records twice (`observe`, then `write_value`), because what a
/// listener stores with a record may depend on all of them — eLSM's
/// embedded Merkle proof does. A merge that fails (an input does not read
/// back or decode, an output file cannot be written) calls
/// [`fail`](MergeJob::fail) instead of finishing, and nothing of it
/// installs.
pub trait MergeJob: Send {
    /// A record read from stored input `level`, in the level's order
    /// (Figure 4's `Filter`). The view is lent for the call: what a job
    /// keeps, it copies.
    fn input(&mut self, level: usize, record: RecordView<'_>) {
        let _ = (level, record);
    }

    /// The next record the merge keeps, in internal-key order, and where it
    /// read it (`None`: the merge rewrote its value — value-log GC
    /// re-homing a pointer). A record read from a stored level is the
    /// bytes [`MergeJob::input`] was shown, so what the job derived from
    /// them can be reused instead of derived again — eLSM carries chain
    /// digests over (the amortized integrity-metadata maintenance the
    /// TEE-KV survey names as the enclave-LSM cost lever).
    fn observe(&mut self, record: RecordView<'_>, from: Option<InputPosition>) {
        let _ = (record, from);
    }

    /// Every kept record was observed; pass 2 follows.
    fn seal(&mut self) {}

    /// Appends to `out` — the table block under construction — the value
    /// to store for `record`, in the order the records were observed. Must
    /// only append. The default stores the value as it is.
    fn write_value(&mut self, record: RecordView<'_>, out: &mut Vec<u8>) {
        out.extend_from_slice(record.value);
    }

    /// The output run is written but **not yet visible**. Runs on the
    /// merging thread, so expensive verification and digest work here
    /// overlaps with a wave's other jobs.
    fn finish(&mut self) {}

    /// The output version is about to install: fires under the store's
    /// write lock, in deterministic job order, immediately before the
    /// matching [`StoreListener::on_version_install`]. This is where a
    /// job commits what it staged — eLSM folds its level-commitment delta
    /// into the trusted state.
    fn install(&mut self) {}

    /// The merge failed after the job may have been shown part of it;
    /// eLSM refuses further service, as it does when an input level does
    /// not match its root.
    fn fail(&mut self) {}
}

/// The job of a listener that stores values as they are.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verbatim;

impl MergeJob for Verbatim {}

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

    /// A job counting the input records it is shown into its listener.
    struct CountInputs<'a>(&'a AtomicU64);

    impl MergeJob for CountInputs<'_> {
        fn input(&mut self, _: usize, _: RecordView<'_>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    impl StoreListener for Counting {
        fn begin_merge(&self, _: &[usize], _: usize) -> Box<dyn MergeJob + '_> {
            self.outputs.fetch_add(1, Ordering::Relaxed);
            Box::new(CountInputs(&self.inputs))
        }
        fn on_wal_append_batch(&self, records: &[Record]) {
            self.wal.fetch_add(records.len() as u64, Ordering::Relaxed);
        }
    }

    #[test]
    fn defaults_are_noops() {
        let l = NoopListener;
        let r = Record::put(b"k".as_slice(), b"v".as_slice(), 1);
        let mut job = l.begin_merge(&[0], 1);
        job.observe(r.view(), None);
        job.seal();
        let mut stored = Vec::new();
        job.write_value(r.view(), &mut stored);
        assert_eq!(stored, &r.value[..], "the default writer is the identity");
    }

    #[test]
    fn custom_listener_observes() {
        let l = Counting::default();
        let r = Record::put(b"k".as_slice(), b"v".as_slice(), 1);
        l.begin_merge(&[1, 2], 2).input(1, r.view());
        l.on_wal_append_batch(std::slice::from_ref(&r));
        assert_eq!(l.inputs.load(Ordering::Relaxed), 1);
        assert_eq!(l.outputs.load(Ordering::Relaxed), 1);
        assert_eq!(l.wal.load(Ordering::Relaxed), 1);
    }
}
