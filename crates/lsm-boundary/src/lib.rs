//! # lsm-boundary
//!
//! What crosses the enclave boundary between the `lsm-store` engine and
//! the `elsm-enclave` code that authenticates it (§5.5.3's add-on): the
//! [`record`]s and their codec, the read [`trace`]s the enclave verifies,
//! and the [`events`] through which the engine shows it merges and log
//! writes. It depends on `bytes` alone; `lsm-store` re-exports each item.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encoding;
pub mod events;
pub mod record;
pub mod trace;

pub use events::{InputPosition, MergeJob, NoopListener, StoreListener, Verbatim, MAC_BYTES};
pub use record::{
    internal_cmp, EncodedParts, InternalKey, Record, RecordView, Timestamp, ValueKind,
};
pub use trace::{GetTrace, LevelOutcome, LevelRange, LevelSearch, ScanTrace};
