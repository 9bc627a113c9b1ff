//! # sim-disk
//!
//! Storage substrate for the eLSM reproduction: a simulated block device
//! with a seek/sequential cost model ([`SimDisk`]), an append-only
//! filesystem whose files hold real bytes ([`SimFs`]), the placement-aware
//! LRU read buffer at the centre of the paper's design space
//! ([`BufferCache`]), and untrusted-memory file mappings ([`MmapFile`]).
//!
//! All costs are charged through [`sgx_sim::Platform`], so the same code
//! paths produce the latencies reported by the benchmark harness.
//!
//! # Examples
//!
//! ```
//! use sgx_sim::Platform;
//! use sim_disk::{Placement, BufferCache, SimDisk, SimFs};
//! use bytes::Bytes;
//!
//! let platform = Platform::with_defaults();
//! let fs = SimFs::new(SimDisk::new(platform.clone()));
//! let f = fs.create("000001.sst").unwrap();
//! f.append(b"block bytes");
//!
//! // eLSM-P2 places the read buffer in untrusted memory:
//! let cache: BufferCache<(u64, u64)> =
//!     BufferCache::new(platform, Placement::Untrusted, 4096, 1 << 20);
//! cache.insert((1, 0), Bytes::from_static(b"block bytes"));
//! assert!(cache.get(&(1, 0)).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod disk;
pub mod fs;
pub mod mmap;

pub use cache::{BufferCache, Placement};
pub use disk::SimDisk;
pub use fs::{FaultPlan, FsError, FsSnapshot, SimFile, SimFs};
pub use mmap::MmapFile;
