//! # elsm-shard
//!
//! Horizontal scale-out for the eLSM authenticated key-value store: a
//! sharded cluster of independent eLSM-P2 partitions behind a verified
//! router — the deployment shape TEE-backed datastores use to scale past
//! one enclave (LSKV-style partitioning; the TEE-KVS survey's
//! multi-enclave axis).
//!
//! * [`Partitioner`] — deterministic hash key→shard assignment, evaluated
//!   in trusted code;
//! * [`ShardedKv`] — implements [`elsm::AuthenticatedKv`] over N shards:
//!   routed verified point ops, per-shard-split batched writes (one
//!   enclave transition per shard per group), and cross-shard scans that
//!   merge per-shard verified range results into one totally-ordered
//!   answer;
//! * [`ShardedKv::check_owned`] — the trusted stitching check. Every
//!   shard's enclave binds its shard id into its commitment domain, so a
//!   malicious host that reroutes queries, swaps answers between shards,
//!   or swaps per-shard persistent state across restarts is detected
//!   ([`elsm::VerificationFailure::WrongShard`]).
//!
//! # Examples
//!
//! ```
//! use elsm::AuthenticatedKv;
//! use elsm_shard::{ShardedKv, ShardedOptions};
//! use sgx_sim::Platform;
//!
//! # fn main() -> Result<(), elsm::ElsmError> {
//! let cluster =
//!     ShardedKv::open(Platform::with_defaults(), ShardedOptions::hash(2, Default::default()))?;
//! cluster.put(b"alpha", b"1")?;
//! cluster.put(b"omega", b"2")?;
//! let all = cluster.scan(b"a", b"z")?; // verified, totally ordered
//! assert_eq!(all.len(), 2);
//! assert!(all[0].key() < all[1].key());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod partition;
pub mod router;
pub mod stitch;

pub use partition::Partitioner;
pub use router::{ShardedKv, ShardedOptions};
