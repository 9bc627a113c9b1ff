//! The replication stream. The listener callbacks, which run inside the
//! enclave, are `lsm_boundary::events`', re-exported here.

pub use lsm_boundary::events::{InputPosition, MergeJob, NoopListener, StoreListener, Verbatim};

use crate::compaction::{CompactionJob, VlogGcJob};
use crate::record::Record;

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
