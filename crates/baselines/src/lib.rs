//! # elsm-baselines
//!
//! The comparison systems from the eLSM paper's evaluation:
//!
//! * [`EleosStore`] — the Eleos baseline (§6.1): in-enclave update-in-place
//!   sorted array with user-space software paging and a 1 GB cap,
//! * [`open_unsecured`] — vanilla LevelDB with no enclave ("LevelDB
//!   (Unsecure)" in Figure 5a) and the code-in-enclave/buffer-outside
//!   unsecured "ideal" of Figures 2 and 6a, as a bare `lsm_store::Db`,
//! * [`MbtStore`] — the conventional update-in-place Merkle B-tree ADS the
//!   paper's §3.4 argues against,
//! * [`ShardedUnsecured`] — N unsecured LSM partitions behind the same
//!   partitioner as `elsm_shard::ShardedKv`: the roofline for the
//!   shard-scaling figure,
//! * [`ReplicatedUnsecured`] — an unsecured primary with N unsecured
//!   read replicas: the roofline for the replica-scaling figure.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eleos;
pub mod mbt_store;
pub mod replicated;
pub mod sharded;
pub mod unsecured;

pub use eleos::{EleosCapacityExceeded, EleosOptions, EleosStore};
pub use mbt_store::MbtStore;
pub use replicated::ReplicatedUnsecured;
pub use sharded::ShardedUnsecured;
pub use unsecured::{open_unsecured, open_unsecured_with, UnsecuredOptions};
