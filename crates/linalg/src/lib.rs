#![warn(missing_docs)]

//! # rbvc-linalg
//!
//! Small-dimension dense linear algebra supporting the relaxed Byzantine
//! vector consensus (BVC) library.
//!
//! Everything in the paper operates on `d`-dimensional real vectors with
//! `d` typically between 1 and ~16, and on `(d+1)`-point simplices. This
//! crate therefore favours *correctness and clarity at small sizes* over
//! asymptotic tricks: row-major dense matrices, partial-pivot Gaussian
//! elimination, explicit tolerance management.
//!
//! Modules:
//! * [`vector`] — [`VecD`], the d-dimensional real (column) vector used for
//!   process inputs/outputs, with Lp-norm support ([`norms`]).
//! * [`matrix`] — [`Mat`], dense matrices: solve, inverse, determinant, rank.
//! * [`norms`] — the Lp / L∞ norm family and Hölder-type comparisons
//!   (Theorem 13 of the paper).
//! * [`affine`] — affine independence, affine bases, orthonormalisation and
//!   distance-preserving projections onto affine subspaces (used in
//!   Theorem 8 / Case II of Theorem 9).
//! * [`cayley_menger`] — simplex volumes from pairwise distances.
//! * [`tolerance`] — the shared numerical-tolerance policy.

pub mod affine;
pub mod cayley_menger;
pub mod matrix;
pub mod norms;
pub mod tolerance;
pub mod vector;

pub use matrix::Mat;
pub use norms::Norm;
pub use tolerance::{Tol, DEFAULT_TOL};
pub use vector::VecD;
