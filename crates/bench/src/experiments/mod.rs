//! Experiment implementations (one module per paper artifact group).
//!
//! | module | experiments | paper artifact |
//! |--------|-------------|----------------|
//! | [`table1`] | E1, E12 | Table 1 (δ* upper bounds), Theorem 14 p-sweep |
//! | [`lemmas`] | E7–E9 | Lemmas 12–15 closed forms |
//! | [`counterex`] | E2–E6 | Figure 1 and the Theorem 3–6 constructions |
//! | [`broadcast_ablation`] | E15 | EIG vs Dolev–Strong substrate ablation |
//! | [`conjecture_hunt`] | E14 | adversarial stress-search of Conjectures 1–2 |
//! | [`tverberg`] | E10 | Section 8 (Tverberg tightness under relaxed hulls) |
//! | [`asynchrony`] | E11, E13 | Theorem 15 / Conjecture 4, ε-convergence |
//! | [`chaos`] | E16 | unreliable-network campaign (robustness, not a paper artifact) |
//!
//! The systems campaigns below are [`Scenario`](crate::campaign::Scenario)
//! entries of the one campaign harness ([`crate::campaign`]): each module
//! holds only its fault injection, per-run verdict, table, JSON payload
//! and gates, and exports a `SCENARIO` that `campaign::SCENARIOS` lists.
//!
//! | module | experiments | systems artifact |
//! |--------|-------------|------------------|
//! | [`service`] | E17 | multi-instance service load generation over real sockets |
//! | [`recovery`] | E18 | kill/restart crash-recovery campaign with WAL corruption injection |
//! | [`byzantine`] | E20 | live Byzantine adversaries over real TCP (robustness) |
//! | [`client`] | E21 | open-loop client saturation sweep through the external front-end |
//! | [`health`] | E22 | seeded stall-injection campaign for the self-diagnosis subsystem |
//! | [`identity`] | E23 | impersonation campaign against the keyed link-identity layer (robustness) |

pub mod asynchrony;
pub mod broadcast_ablation;
pub mod byzantine;
pub mod chaos;
pub mod client;
pub mod conjecture_hunt;
pub mod counterex;
pub mod health;
pub mod identity;
pub mod lemmas;
pub mod recovery;
pub mod service;
pub mod table1;
pub mod tverberg;
