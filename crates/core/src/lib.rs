#![warn(missing_docs)]

//! # rbvc-core
//!
//! Relaxed Byzantine vector consensus — the algorithms, bounds, validity
//! checkers and impossibility constructions of Xiang & Vaidya, *Relaxed
//! Byzantine Vector Consensus* (SPAA 2016 brief announcement / arXiv
//! 1601.08067).
//!
//! * [`problem`] — the six consensus problems as machine-checkable
//!   agreement/validity/termination conditions, checked by one
//!   [`Monitor`], online or over a finished execution.
//! * [`bounds`] — every tight process-count bound (Theorems 1–6) and δ
//!   bound (Table 1, Theorems 9/12/14/15, Conjectures 1–4) as functions.
//! * [`rules`] — the deterministic Step-2 decision rules over the common
//!   broadcast multiset `S`.
//! * [`sync_protocols`] — broadcast-then-decide synchronous protocols:
//!   Exact BVC, k-relaxed consensus, and ALGO (§9), over EIG broadcast.
//! * [`verified_avg`] — the asynchronous (Relaxed) Verified Averaging
//!   algorithm (§10) over Bracha reliable broadcast.
//! * [`va_batch`] — the one form a Verified-Averaging round state takes
//!   outside a record: a batch slot's bytes, written, walked and read in
//!   place, in the simulator and on the wire alike.
//! * [`counterexamples`] — the impossibility matrices of Theorems 3–6 and
//!   the Figure 1 (Lemma 10) scenario analysis, with LP certificates.
//! * [`runner`] — one-call experiment orchestration.
//! * [`error`] — typed protocol/runner errors; malformed input degrades one
//!   node instead of panicking the run.

pub mod bounds;
pub mod counterexamples;
pub mod error;
pub mod problem;
pub mod rules;
pub mod runner;
pub mod sync_protocols;
pub mod va_batch;
pub mod verified_avg;

pub use bounds::{exact_bvc_min_n, approx_bvc_min_n, kappa_l2, kappa_lp, kappa_async};
pub use error::ProtocolError;
pub use problem::{check_execution, Agreement, Monitor, Validity, Verdict};
pub use rules::DecisionRule;
pub use sync_protocols::{ByzantineStrategy, SyncBvc};
pub use verified_avg::{DeltaMode, VerifiedAveraging};
