//! # elsm-repro
//!
//! Facade crate for the reproduction of *Authenticated Key-Value Stores with
//! Hardware Enclaves* (Tang et al., MIDDLEWARE 2021). It re-exports every
//! subsystem so examples and integration tests can use a single dependency.
//!
//! See the workspace README for the system inventory and DESIGN.md for
//! the substitutions, the scaling rules and what the enclave holds; the
//! interesting entry points are:
//!
//! * [`elsm`] — the paper's contribution: eLSM-P1 and eLSM-P2 stores,
//! * [`shard`] — the sharded cluster layer: partitioner, per-shard
//!   enclaves, verified cross-shard router,
//! * [`replica`] — verified primary/replica replication: authenticated
//!   WAL shipping, deterministic replay, fenced failover,
//! * [`lsm_store`] — the LevelDB-class LSM engine substrate,
//! * [`merkle`] — the Merkle-forest authenticated data structures,
//! * [`sgx_sim`] — the SGX enclave simulator with its cost model,
//! * [`telemetry`] — unified metrics, enclave-attributed tracing and
//!   the security audit stream,
//! * [`ycsb`] — the YCSB-style workload harness,
//! * [`ct_log`] — the §5.7 certificate-transparency case study.
//!
//! # Examples
//!
//! ```
//! use elsm_repro::elsm::{AuthenticatedKv, ElsmP2, P2Options};
//! use elsm_repro::sgx_sim::Platform;
//!
//! # fn main() -> Result<(), elsm_repro::elsm::ElsmError> {
//! let store = ElsmP2::open(Platform::with_defaults(), P2Options::default())?;
//! store.put(b"k", b"v")?;
//! let rec = store.get(b"k")?.expect("present");
//! assert_eq!(rec.value(), b"v");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use ct_log;
pub use elsm;
pub use elsm_baselines as baselines;
pub use elsm_crypto as crypto;
pub use elsm_replica as replica;
pub use elsm_shard as shard;
pub use lsm_store;
pub use merkle;
pub use sgx_sim;
pub use sim_disk;
pub use telemetry;
pub use ycsb;
