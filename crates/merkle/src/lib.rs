//! # merkle
//!
//! Authenticated data structures for the eLSM reproduction:
//!
//! * [`tree`] — Merkle hash trees of RFC 6962's shape (a node is one SHA-256
//!   compression, not RFC 6962's node hash) with audit paths,
//! * [`crown`] — the top rows of a tree, kept by the verifier so a proof
//!   is hashed only up to them and compared from there on,
//! * [`chain`] — temporal hash chains over record versions (§5.2),
//! * [`level`] — per-LSM-level digests: chains at the leaves of a tree,
//!   built streaming in compaction order (Figure 4's `MHT_add`) one key's
//!   chain at a time, stored flat with one suffix digest per record so
//!   proof generation is linear and a merge can carry a record's digest
//!   over instead of hashing it again,
//! * [`proof`] — embedded record proofs (owned, and borrowed in place from
//!   stored bytes, compactly encoded): an audit path for a key's newest
//!   version, a chain link for every older one, the walk that verifies a
//!   chain from its head, and the per-level commitments the enclave stores,
//! * [`range`] — segment-tree range proofs for query completeness (§5.4),
//!   walked with the boundary siblings read off the audit paths of a run's
//!   two end leaves.
//!
//! Everything here is enclave code. The §3.4 update-in-place Merkle B-tree
//! baseline lives with its store in `elsm-baselines`.
//!
//! # Examples
//!
//! ```
//! use merkle::LevelDigest;
//!
//! // Digest the paper's level L2 = [⟨T,4⟩, ⟨Z,7⟩, ⟨Z,6⟩]:
//! let l2 = LevelDigest::from_records(2, vec![
//!     (b"T".as_slice(), b"T,4".to_vec()),
//!     (b"Z".as_slice(), b"Z,7".to_vec()),
//!     (b"Z".as_slice(), b"Z,6".to_vec()),
//! ]);
//! let commitment = l2.commitment(); // lives in the enclave
//! let proof = l2.prove_newest(1); // leaf 1 = Z; embedded in the record
//! assert!(proof.verify(&commitment, b"Z,7").is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Enclave code: bytes the host controls must meet a refusal, never a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod chain;
pub mod crown;
pub mod level;
pub mod proof;
pub mod range;
pub mod tree;

pub use chain::{chain_digest, chain_link, chain_link_parts, ChainPosition};
pub use crown::{Anchor, Crown, Work, CROWN_ROW_MAX};
pub use level::{Folded, LevelDigest, LevelDigestBuilder, OutOfOrder};
pub use proof::{ChainWalk, LevelCommitment, RecordProof, RecordProofRef, VerifyError};
pub use range::{
    prove_range, verify_range, verify_range_anchored, verify_run_anchored, RangeProof,
};
pub use tree::{leaf_hash, node_hash, MerkleTree};
