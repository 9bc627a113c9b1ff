//! # elsm-crypto
//!
//! Cryptographic substrate for the eLSM reproduction ("Authenticated
//! Key-Value Stores with Hardware Enclaves", Tang et al., MIDDLEWARE 2021).
//!
//! The paper relies on the Intel SGX SDK for hashing, AEAD
//! (`sgx_rijndael128gcm_encrypt`), deterministic encryption of data keys and
//! order-preserving encryption for range queries. The offline crate set
//! contains no cryptography, so every primitive is implemented here from its
//! specification:
//!
//! * [`sha256`](mod@crate::sha256) — FIPS 180-4 SHA-256 (NIST vectors in
//!   tests). The portable scalar code is the reference; on x86 CPUs that
//!   report the SHA extensions the block-compression step runs on a SHA-NI
//!   kernel instead, chosen once at run time from the CPU's feature bits
//!   ([`sha256::backend`] names the choice for logs). Digests are identical
//!   either way and there is no option, env var or feature to set.
//!   [`sha256::compress`] is the compression function alone, one block and
//!   no padding: a Merkle node is one, from [`sha256::NODE_IV`],
//! * [`hmac`] — RFC 2104 HMAC-SHA256 (RFC 4231 vectors in tests), with
//!   [`hmac::HmacKey`] holding a long-lived key's pad midstates,
//! * [`aead`] — encrypt-then-MAC AEAD (stream cipher from SHA-256-CTR).
//!
//! The §5.6.2 key encryptions (deterministic and order-preserving) are host
//! glue, not enclave code: they live beside their only user,
//! `elsm::ConfidentialStore`.
//!
//! The [`Digest`] newtype is the hash value used by every Merkle structure
//! in the workspace.
//!
//! # Examples
//!
//! ```
//! use elsm_crypto::{sha256::sha256, hmac::hmac_sha256};
//!
//! let record_digest = sha256(b"key=value,ts=7");
//! let tag = hmac_sha256(b"session key", record_digest.as_bytes());
//! assert_eq!(tag.as_bytes().len(), 32);
//! ```

// `deny`, not `forbid`: exactly one module (`sha256/x86.rs`, the SHA-NI
// kernel and its dispatch call) carries `#![allow(unsafe_code)]`. CI fails
// on any other `allow(unsafe_code)` in the workspace.
#![deny(unsafe_code)]
#![warn(missing_docs)]
// Enclave code: bytes the host controls must meet a refusal, never a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod aead;
pub mod digest;
pub mod hmac;
pub mod sha256;

pub use aead::{AeadError, AeadKey};
pub use digest::Digest;
pub use sha256::{sha256, sha256_concat, sha256_joined, Sha256};
