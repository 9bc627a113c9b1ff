//! # ycsb
//!
//! A native Rust reimplementation of the YCSB benchmark harness (Cooper et
//! al., SoCC'10) as used in the eLSM paper's evaluation (§6): key choosers
//! (uniform / scrambled-zipfian / latest), the core workloads A–F plus the
//! paper's read-ratio sweeps, the two-phase load/run driver, latency
//! histograms on the simulated platform's virtual clock, and tabular
//! reporting for the figure-regeneration harness.
//!
//! Every run phase goes through the one virtual-time scheduler in
//! [`runner`]: N clients over the machines of a [`Topology`]. A
//! single-client latency figure, a thread-scaling sweep on one store and a
//! 32-client run against an 8-shard cluster differ only in the
//! [`Phase`] and [`Topology`] values they pass.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generator;
pub mod histogram;
pub mod report;
pub mod runner;
pub mod workload;

pub use generator::{format_key, make_value, seeded_rng, KeyChooser, Zipfian};
pub use histogram::{LatencyHistogram, LatencySummary};
pub use report::Table;
pub use runner::{
    load_phase, run_phase, run_write_batches, KvDriver, Phase, RunReport, Topology, CLIENT_SEED_MIX,
};
pub use workload::{Op, Workload};
