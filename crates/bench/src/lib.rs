#![warn(missing_docs)]

//! # rbvc-bench
//!
//! Experiment harness regenerating every table and figure of the paper
//! (see DESIGN.md §3 for the experiment index E1–E13 and EXPERIMENTS.md for
//! recorded paper-vs-measured outcomes).
//!
//! The library half hosts reusable workload generators, experiment
//! functions returning typed rows, a plain-text table printer, and the
//! [`campaign`] harness the systems campaigns (E17–E23) are scenarios of;
//! the `src/bin/exp_*` binaries are thin wrappers, so integration tests can
//! assert on the same rows the binaries print.

pub mod campaign;
pub mod experiments;
pub mod report;
pub mod workloads;
