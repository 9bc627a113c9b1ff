//! # elsm-enclave
//!
//! The code eLSM-P2 runs inside the enclave (§5), and nothing else. It
//! reads the host through `lsm-boundary` alone — records, read traces and
//! the engine's callbacks — and cannot name the engine or the host-side
//! store (`elsm`): DESIGN.md §2's trust boundary, held by the dependency
//! graph. No host byte may make it panic: a site that keeps an `unwrap`,
//! `expect` or `panic!` says in its `#[allow]` why host bytes cannot reach it.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod cache;
pub mod envelope;
pub mod failure;
pub mod listener;
pub mod replication;
pub mod trusted;
