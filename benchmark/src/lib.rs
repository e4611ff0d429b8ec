//! The repo benchmark: four workloads driven through the public functions
//! of the `rbvc-*` crates, end-to-end metrics from an uninstrumented binary,
//! per-layer metrics from a separately traced one. See `README.md`.

pub mod alloc;
pub mod check;
pub mod cli;
pub mod client;
pub mod compare;
pub mod gen;
pub mod ledger;
pub mod mesh;
pub mod micro;
pub mod probe;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
