#![warn(missing_docs)]

//! # rbvc-bench
//!
//! Experiment harness regenerating every table and figure of the paper
//! (see DESIGN.md §3 for the experiment index and EXPERIMENTS.md for
//! recorded paper-vs-measured outcomes).
//!
//! One program, `exp` ([`cli`]), over two tables: the paper experiments
//! ([`experiments::EXPERIMENTS`], E1–E14 and E16) and the systems campaigns
//! ([`campaign::SCENARIOS`], E17, E20–E22) the [`campaign`] harness runs. Each
//! row's module under [`experiments`] holds the typed row functions and the
//! code that prints them, so tests assert on the same rows `exp` prints;
//! [`workloads`] are the seeded input generators and [`report`] the table
//! printer and `BENCH_*.json` envelope.

pub mod campaign;
pub mod cli;
pub mod experiments;
pub mod report;
pub mod workloads;
