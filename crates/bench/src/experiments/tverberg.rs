//! E10 — Section 8: Tverberg's theorem and its tightness, for the exact
//! hull and for the paper's relaxed hulls.
//!
//! * At `n = (d+1)f + 1`: every random configuration admits a Tverberg
//!   partition (verified with LP witnesses).
//! * At `n = (d+1)f`: moment-curve configurations admit **no** partition —
//!   and, per §8, the emptiness persists when `H` is replaced by `H_k`
//!   (`2 ≤ k ≤ d−1`) on the paper's Theorem-3 input matrix, and by
//!   `H_(δ,∞)` (δ small relative to the configuration scale) on the
//!   Theorem-5 matrix.

use rbvc_core::counterexamples::{theorem3_inputs, theorem5_inputs};
use rbvc_geometry::combinatorics::set_partitions;
use rbvc_geometry::tverberg::{
    all_partitions_empty, blocks_fattened_intersection_point,
    blocks_k_relaxed_intersection_point, find_tverberg_partition, moment_curve_points,
    verify_tverberg,
};
use rbvc_linalg::{Tol, VecD};
use serde_json::json;

use super::{claim_per_row, Experiment};
use crate::campaign::{Args, Gate, Kind};
use crate::report::print_table;
use crate::workloads::{random_points, rng};

/// `exp tverberg` — E10.
pub const TVERBERG: Experiment = Experiment {
    name: "tverberg",
    ids: "E10",
    artefact: "Section 8 (Tverberg tightness, relaxed hulls)",
    positionals: &[("trials", Kind::Int, "25"), ("seed", Kind::Int, "3")],
    flags: &[],
    suite: Some((&["25", "3"], &["8", "3"])),
    json: Some(|trials, seed| json!({ "e10_tverberg": tverberg_sweep(trials.min(15), seed + 3) })),
    run,
};

/// One row of the Tverberg experiment.
#[derive(Debug, Clone, serde::Serialize)]
pub struct TverbergRow {
    /// Dimension.
    pub d: usize,
    /// Fault bound (partition into f+1 blocks).
    pub f: usize,
    /// Trials at the `(d+1)f + 1` bound.
    pub trials: usize,
    /// Trials where a partition was found and LP-verified (expect all).
    pub found_at_bound: usize,
    /// Moment curve at `(d+1)f`: every partition empty (exact hull)?
    pub tight_exact: bool,
    /// Theorem-3 matrix at `(d+1)f`, `f = 1`: every partition empty under
    /// `H_2`? (`None` when `f ≠ 1` — the matrix is the `f = 1` witness.)
    pub tight_k_relaxed: Option<bool>,
    /// Theorem-5 matrix: every partition empty under `H_(δ,∞)`?
    pub tight_delta_relaxed: Option<bool>,
}

/// Check that *every* partition of `points` into `f+1` blocks has empty
/// `⋂ H_k(block)`.
#[must_use]
pub fn all_partitions_empty_k(points: &[VecD], f: usize, k: usize, tol: Tol) -> bool {
    set_partitions(points.len(), f + 1)
        .into_iter()
        .all(|blocks| blocks_k_relaxed_intersection_point(points, &blocks, k, tol).is_none())
}

/// Check that every partition has empty `⋂ H_(δ,∞)(block)`.
#[must_use]
pub fn all_partitions_empty_fattened(points: &[VecD], f: usize, delta: f64, tol: Tol) -> bool {
    set_partitions(points.len(), f + 1)
        .into_iter()
        .all(|blocks| blocks_fattened_intersection_point(points, &blocks, delta, tol).is_none())
}

/// Run the Tverberg experiment for one `(d, f)`.
#[must_use]
pub fn run_config(d: usize, f: usize, trials: usize, seed: u64) -> TverbergRow {
    let tol = Tol::default();
    let mut r = rng(seed);
    let n_bound = (d + 1) * f + 1;

    let mut found = 0;
    for _ in 0..trials {
        let pts = random_points(&mut r, n_bound, d, 3.0);
        if let Some(tp) = find_tverberg_partition(&pts, f, tol) {
            if verify_tverberg(&pts, &tp, Tol(1e-6)) {
                found += 1;
            }
        }
    }

    let moment = moment_curve_points((d + 1) * f, d);
    let tight_exact = all_partitions_empty(&moment, f, tol);

    // Relaxed tightness (f = 1 witnesses from the impossibility matrices).
    let (tight_k_relaxed, tight_delta_relaxed) = if f == 1 && d >= 3 {
        let s3 = theorem3_inputs(d, 1.0, 0.5);
        let k_tight = all_partitions_empty_k(&s3, 1, 2, tol);
        let delta = 0.05; // far below the x = 1 scale of the matrix
        let s5 = theorem5_inputs(d, 1.0);
        let d_tight = all_partitions_empty_fattened(&s5, 1, delta, tol);
        (Some(k_tight), Some(d_tight))
    } else {
        (None, None)
    };

    TverbergRow {
        d,
        f,
        trials,
        found_at_bound: found,
        tight_exact,
        tight_k_relaxed,
        tight_delta_relaxed,
    }
}

/// The standard sweep.
#[must_use]
pub fn tverberg_sweep(trials: usize, seed: u64) -> Vec<TverbergRow> {
    vec![
        run_config(2, 1, trials, seed),
        run_config(3, 1, trials, seed + 1),
        run_config(4, 1, trials.min(10), seed + 2),
        run_config(2, 2, trials.min(10), seed + 3),
    ]
}

fn opt_bool(b: Option<bool>) -> String {
    match b {
        Some(v) => v.to_string(),
        None => "—".to_string(),
    }
}

fn run(args: &Args) -> Vec<Gate> {
    println!(
        "E10 — Tverberg (§8): at n = (d+1)f+1 every random configuration \
         partitions (LP-verified); at n = (d+1)f the moment curve admits no \
         partition, and the emptiness persists for H₂ (Theorem-3 matrix) \
         and H_(δ,∞) (Theorem-5 matrix)."
    );
    let sweep = tverberg_sweep(args.num(0), args.num(1));
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|r| {
            vec![
                r.d.to_string(),
                r.f.to_string(),
                format!("{}/{}", r.found_at_bound, r.trials),
                r.tight_exact.to_string(),
                opt_bool(r.tight_k_relaxed),
                opt_bool(r.tight_delta_relaxed),
            ]
        })
        .collect();
    print_table(
        "Tverberg bound and tightness",
        &[
            "d",
            "f",
            "partitions @ (d+1)f+1",
            "tight (exact)",
            "tight (H₂)",
            "tight (H_(δ,∞))",
        ],
        &rows,
    );
    gates(&sweep)
}

/// E10: every trial at the bound partitions, and no tightness column is
/// false.
fn gates(rows: &[TverbergRow]) -> Vec<Gate> {
    claim_per_row("E10", rows, |r| {
        r.found_at_bound == r.trials
            && r.tight_exact
            && ![r.tight_k_relaxed, r.tight_delta_relaxed].contains(&Some(false))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_configurations_always_partition() {
        let row = run_config(2, 1, 15, 42);
        assert_eq!(row.found_at_bound, row.trials, "{row:?}");
        assert!(row.tight_exact, "{row:?}");
    }

    #[test]
    fn relaxed_tightness_holds_at_d3() {
        let row = run_config(3, 1, 5, 7);
        assert_eq!(row.found_at_bound, row.trials);
        assert!(row.tight_exact);
        assert_eq!(row.tight_k_relaxed, Some(true), "§8 k-relaxed tightness");
        assert_eq!(
            row.tight_delta_relaxed,
            Some(true),
            "§8 (δ,p)-relaxed tightness"
        );
    }

    #[test]
    fn one_false_column_fails_the_gate() {
        let row = |found_at_bound, tight_k_relaxed| TverbergRow {
            d: 3,
            f: 1,
            trials: 4,
            found_at_bound,
            tight_exact: true,
            tight_k_relaxed,
            tight_delta_relaxed: None,
        };
        let ok = |r| gates(&[r])[0].ok;
        assert!(ok(row(4, Some(true))) && ok(row(4, None)));
        assert!(!ok(row(3, Some(true))) && !ok(row(4, Some(false))));
    }

    #[test]
    fn f2_configuration_partitions_at_bound() {
        let row = run_config(2, 2, 5, 13);
        assert_eq!(row.found_at_bound, row.trials, "{row:?}");
        assert!(row.tight_exact, "{row:?}");
    }
}
