//! # elsm-bench
//!
//! The figure-regeneration harness: one function per table/figure of the
//! eLSM paper plus ablation studies ([`figures`]), all run by the
//! `run_all` binary (`--only <figures>` for a subset). `perf_gate` diffs
//! two result files; `trace_report` renders a request-tracing report. See
//! DESIGN.md §3 for the experiment index and `BENCH_results.json` for the
//! recorded results.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drivers;
pub mod figures;
pub mod results;
pub mod scale;
mod systems;
pub mod telemetry;

pub use figures::FigOpts;
pub use scale::Scale;
