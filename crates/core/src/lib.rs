//! # elsm
//!
//! The paper's primary contribution: **authenticated LSM-tree key-value
//! stores with hardware enclaves** ("Authenticated Key-Value Stores with
//! Hardware Enclaves", Tang et al., MIDDLEWARE 2021).
//!
//! Two designs are provided (Table 1 of the paper):
//!
//! * [`ElsmP1`] — the strawman: the whole store inside the enclave, files
//!   sealed at file granularity; fast writes, but reads collapse once the
//!   in-enclave buffer exceeds the 128 MB EPC (§4).
//! * [`ElsmP2`] — the real design: code inside, read path outside; one
//!   Merkle tree per LSM level with temporal hash chains for versions
//!   (§5.2), proofs embedded in records, early-stop GET verification
//!   (Theorem 5.3), segment-tree range completeness (§5.4),
//!   authenticated compaction through store callbacks (Figure 4, **zero
//!   storage-engine changes**), and monotonic-counter rollback defence
//!   (§5.6.1).
//!
//! [`ConfidentialStore`] adds the §5.6.2 confidentiality layer (DE keys,
//! OPE range tags, AEAD values). P2's enclave code is `elsm-enclave`'s:
//! [`trusted`], [`listener`], [`envelope`], [`cache`] and [`replication`]
//! are re-exported from it; this crate is the host glue around it.
//!
//! # Examples
//!
//! ```
//! use elsm::{AuthenticatedKv, ElsmP2, P2Options};
//! use sgx_sim::Platform;
//!
//! # fn main() -> Result<(), elsm::ElsmError> {
//! let store = ElsmP2::open(Platform::with_defaults(), P2Options::default())?;
//! let ts = store.put(b"k", b"v")?;             // ts = PUT(k, v)
//! let rec = store.get(b"k")?.expect("present"); // ⟨k, v, ts⟩ = GET(k)
//! assert_eq!((rec.value(), rec.ts()), (b"v".as_slice(), ts));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod confidential;
pub mod error;
pub mod p1;
pub mod p2;

pub use api::{AuthenticatedKv, OpSpans, VerifiedRecord};
pub use cache::{CacheStats, VerifiedCache};
pub use confidential::ConfidentialStore;
pub use elsm_enclave::{cache, envelope, listener, replication, trusted};
pub use error::{ElsmError, VerificationFailure, WRONG_SHARD_UNSHARDED};
pub use listener::AuthListener;
pub use lsm_store::ReadMode;
pub use p1::{ElsmP1, P1Options};
pub use p2::{ElsmP2, P2Options};
pub use replication::{Announcement, SessionKey};
pub use trusted::{CompactionDelta, TrustedState, Verified, VerifyStats};
