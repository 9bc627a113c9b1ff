//! # sgx-sim
//!
//! A software simulation of an Intel SGX platform for the eLSM reproduction
//! ("Authenticated Key-Value Stores with Hardware Enclaves", Tang et al.,
//! MIDDLEWARE 2021).
//!
//! The paper's evaluation machine has SGX hardware; this environment does
//! not. Instead of stubbing the enclave out, this crate models the exact
//! mechanisms the paper's performance results hinge on:
//!
//! * **EPC paging** ([`epc`], [`Platform::enclave_touch`]): enclave memory
//!   beyond the 128 MB Enclave Page Cache faults with CLOCK replacement,
//!   charging realistic page-in/page-out costs — this produces the
//!   in-enclave-buffer blow-up of Figures 2, 5 and 6.
//! * **World switches** ([`Platform::ecall`]/[`Platform::ocall`]): every
//!   enclave transition charges a fixed cost and is counted. Host work that
//!   no switch starts — the kernel writing back pages the enclave wrote
//!   through a mapping — is host time with no transition ([`host_scope`]).
//! * **Memory traffic**: copies across the boundary are ~3× ordinary DRAM
//!   (MEE encryption), reproducing the "extra copy" penalty (S1 in §4.2).
//! * **Disk**: seek + sequential-transfer charging for the simulated drive.
//! * **Trusted monotonic counters** ([`MonotonicCounter`]): slow hardware
//!   writes with state that survives rollback attacks (§5.6.1).
//! * **Sealing** ([`Sealer`]): measurement-bound AEAD for data stored in
//!   the untrusted world (eLSM-P1's file-granularity protection).
//!
//! Everything runs on a virtual [`Clock`], so benchmarks are deterministic
//! and GB-scale workloads execute in seconds. See `DESIGN.md` §1 for the
//! substitution argument.
//!
//! # Examples
//!
//! ```
//! use sgx_sim::{CostModel, Platform};
//!
//! // An enclave working set larger than the EPC thrashes:
//! let p = Platform::new(CostModel::paper_defaults().with_epc_bytes(8 * 4096));
//! let big = p.enclave_alloc(64 * 4096);
//! for _ in 0..3 {
//!     p.enclave_touch(&big, 0, big.len());
//! }
//! assert!(p.stats().epc_page_outs > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrib;
pub mod clock;
pub mod cost;
pub mod counter;
pub mod epc;
pub mod platform;
pub mod seal;
pub mod serial;
pub mod stats;

pub use attrib::{
    current_world, enclave_scope, host_scope, thread_charges, ThreadCharges, TimeSplit, World,
    WorldScope,
};
pub use clock::{Clock, Stopwatch};
pub use cost::{CostModel, PAGE_SIZE};
pub use counter::{BufferedCounter, FencedState, FencingCounter, MonotonicCounter};
pub use epc::{EpcState, PageId, TouchOutcome};
pub use platform::{EnclaveRegion, Platform};
pub use seal::{SealError, SealedBlob, Sealer};
pub use serial::{SerialClass, SerialSection, SERIAL_CLASSES};
pub use stats::{PlatformStats, StatsSnapshot};
