//! End-to-end and per-layer benchmark of the SSRESF workspace.
//!
//! `perfbench/run.py` builds this package and the `ssresf-serve` worker,
//! then runs one workload per process; see `perfbench/README.md` for the
//! workloads, the metrics and the layer → metric → workload map.

pub mod analysis;
pub mod report;
pub mod serve;
pub mod setup;
pub mod workload;
