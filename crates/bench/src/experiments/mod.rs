//! Experiment implementations: one module per paper artefact group, each
//! holding its typed row functions, the [`Experiment`] entries that print
//! them, and nothing else. [`EXPERIMENTS`] is the index of the paper
//! experiments (`exp list` prints it; DESIGN.md §3 describes the rows).
//!
//! The systems campaigns — [`service`] (E17), [`byzantine`] (E20),
//! [`client`] (E21), [`health`] (E22) — are
//! [`Scenario`](crate::campaign::Scenario) entries of the one
//! campaign harness ([`crate::campaign`]): each module holds only its fault
//! injection, per-run verdict, table, JSON payload and gates, and exports a
//! `SCENARIO` that `campaign::SCENARIOS` lists.

use serde_json::Value;

use crate::campaign::{gate, Args, Gate, Positional};

pub mod asynchrony;
pub mod broadcast_ablation;
pub mod byzantine;
pub mod chaos;
pub mod client;
pub mod conjecture_hunt;
pub mod counterex;
pub mod health;
pub mod lemmas;
pub mod service;
pub mod table1;
pub mod tverberg;

/// One experiment, declared once: `exp <name>`, `exp all`, `exp json` and
/// `exp list` all read this entry.
pub struct Experiment {
    /// `exp <name>`.
    pub name: &'static str,
    /// Experiment ids of DESIGN.md §3 (`"E1, E12"`).
    pub ids: &'static str,
    /// The paper artefact regenerated.
    pub artefact: &'static str,
    /// Named positional arguments with their defaults.
    pub positionals: &'static [Positional],
    /// Flags, as the usage line shows them.
    pub flags: &'static [&'static str],
    /// The arguments `exp all` passes, `(full, --quick)`; `None` keeps the
    /// experiment out of the suite.
    pub suite: Option<(&'static [&'static str], &'static [&'static str])>,
    /// The experiment's keys of the `exp json` document — its typed rows at
    /// the document's `(trials, seed)` scale, as one JSON object.
    pub json: Option<fn(usize, u64) -> Value>,
    /// Print the banner and the table(s); the returned gates decide the
    /// exit code. Every entry but `convergence` (E13) and `conjectures`
    /// (E14) gates on the rows it prints: those two report findings.
    pub run: fn(&Args) -> Vec<Gate>,
}

/// One gate per printed row: the paper's claim must hold on each, and a row
/// it fails on is printed whole.
fn claim_per_row<R: serde::Serialize>(id: &str, rows: &[R], holds: impl Fn(&R) -> bool) -> Vec<Gate> {
    let row = |r: &R| serde_json::to_string(r).unwrap_or_default();
    rows.iter().map(|r| gate(holds(r), format!("{id}: the claim fails on {}", row(r)))).collect()
}

/// Every paper experiment, in experiment order.
pub const EXPERIMENTS: [&Experiment; 13] = [
    &table1::TABLE1,
    &counterex::FIGURE1,
    &counterex::THM3,
    &counterex::THM4,
    &counterex::THM5,
    &counterex::THM6,
    &lemmas::LEMMAS,
    &tverberg::TVERBERG,
    &asynchrony::ASYNC_DELTA,
    &asynchrony::CONVERGENCE,
    &conjecture_hunt::CONJECTURES,
    &broadcast_ablation::BROADCAST,
    &chaos::CHAOS,
];
