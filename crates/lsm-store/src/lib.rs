//! # lsm-store
//!
//! A from-scratch LevelDB-class LSM-tree storage engine, the substrate the
//! eLSM paper builds on. It provides:
//!
//! * [`memtable`] — skiplist write buffer (level L0, in-enclave),
//! * [`batch`]/[`wal`] — atomic write batches over a framed, checksummed
//!   write-ahead log with leader/follower group commit,
//! * [`block`]/[`sstable`] — prefix-compressed blocks, Bloom filters,
//!   block indexes, footers,
//! * [`version`] — levels as whole sorted runs (the paper's model),
//! * [`db`] — open, puts/deletes and the group-commit pipeline; gets and
//!   scans (`read`), manifest + WAL recovery (`recovery`) and flushes,
//!   whole-level compactions and value-log GC (`maintenance`, one
//!   streaming merge executor) live beside it,
//! * [`events`] — RocksDB-style callbacks through which the `elsm` crate
//!   adds authentication **without modifying this crate** (§5.5.3),
//! * [`env`](mod@crate::env) — the placement/cost configuration matrix of Table 1.
//!
//! The traced read APIs ([`db::Db::get_with_trace`],
//! [`db::Db::scan_with_trace`]) expose per-level outcomes including miss
//! neighbors, which is exactly the information the paper's modified GET
//! path returns (§5.5.1), and run the caller's check while the version
//! the trace was collected on is still pinned.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod block;
pub mod bloom;
pub mod compaction;
pub mod db;
pub mod encoding;
pub mod env;
pub mod events;
mod maintenance;
pub mod memtable;
pub mod merge;
pub mod options;
mod read;
pub mod record;
mod recovery;
pub mod sstable;
pub mod version;
#[cfg(test)]
mod version_tests;
pub mod vlog;
pub mod wal;

pub use batch::WriteBatch;
pub use compaction::{
    CompactionConfig, CompactionDebt, CompactionJob, CompactionStrategy, CompactionStrategyKind,
    FlushPlan, Leveled, LevelsView, Tiered, VlogGcJob,
};
pub use db::{Db, DbStats, DbStatsSnapshot};
pub use env::{EnvConfig, ReadMode, StorageEnv};
pub use events::{
    InputPosition, MergeJob, NoopListener, ReplicationEvent, ReplicationSink, StoreListener,
    Verbatim,
};
pub use options::{Options, VlogConfig, WalSyncPolicy};
pub use record::{
    internal_cmp, EncodedParts, InternalKey, Record, RecordView, Timestamp, ValueKind,
};
pub use recovery::{decode_manifest, Manifest, MANIFEST};
pub use sstable::{NeighborPolicy, TableBuilder, TableMeta, TableOptions, TableReader};
pub use version::{GetTrace, LevelOutcome, LevelRange, LevelSearch, Run, ScanTrace, Version, Walk};
pub use vlog::{Vlog, VlogPtr};
pub use wal::{decode_frame, encode_frame, encode_frame_into};
