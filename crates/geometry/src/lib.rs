#![warn(missing_docs)]

//! # rbvc-geometry
//!
//! Convex-hull calculus for relaxed Byzantine vector consensus.
//!
//! This crate implements every geometric object the paper (Xiang & Vaidya,
//! *Relaxed Byzantine Vector Consensus*) defines or relies on:
//!
//! * [`lp`] — a from-scratch two-phase simplex LP solver; all polyhedral
//!   predicates (hull membership, L1/L∞ distances, `Γ` emptiness) are exact
//!   LP queries.
//! * [`nearest`] — Wolfe's nearest-point algorithm (Euclidean projection
//!   onto a hull).
//! * [`hull`] — `H(S)` of point multisets: membership, distances in any Lp
//!   norm, Carathéodory decompositions.
//! * [`oracle2d`] — independent 2-D oracles (monotone-chain hulls, Radon
//!   points) cross-checking the LP/Wolfe machinery.
//! * [`projection`] — the coordinate projections `g_D` and the family `D_k`
//!   (Definitions 1–5).
//! * [`relaxed`] — the relaxed hulls `H_k(S)` (Definition 6) and
//!   `H_(δ,p)(S)` (Definition 9).
//! * [`gamma`] — the `Γ(Y)` / `Γ_(δ,p)(S)` intersections (§3, §9) with
//!   LP-exact emptiness certificates.
//! * [`minmax`] — the δ* solver: `min_p max_T dist_p(p, H(T))` (ALGO
//!   Step 2), with the Lemma 13 closed form as fast path.
//! * [`simplex_geom`] — simplex inradii/incenters and facet geometry
//!   (Lemmas 11–15).
//! * [`tverberg`] — Tverberg partitions and tightness witnesses (§8).
//! * [`combinatorics`] — subset and partition enumeration.

pub mod combinatorics;
pub mod gamma;
pub mod hull;
pub mod lp;
pub mod minmax;
pub mod nearest;
pub mod oracle2d;
pub mod projection;
pub mod relaxed;
pub mod simplex_geom;
pub mod tverberg;

pub use gamma::{gamma_point, min_delta_polyhedral, subset_hulls};
pub use hull::ConvexHull;
pub use minmax::{delta_star, DeltaStar};
pub use projection::{all_projections, CoordProjection};
pub use relaxed::{DeltaPHull, KRelaxedHull};
pub use simplex_geom::{pairwise_edges, pairwise_edges_norm, Simplex};
