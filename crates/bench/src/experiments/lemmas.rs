//! E7–E9 — the geometric lemmas behind Table 1, validated on random
//! simplices:
//!
//! * E7 (Lemma 13 + Lemma 12): `δ*(S) =` inradius, cross-checked between
//!   the `B = (A⁻¹)ᵀ` closed form, the Cayley–Menger volume identity, and
//!   the LP-exact L∞ bracketing `δ*_∞ ≤ δ*₂ ≤ √d·δ*_∞`.
//! * E8 (Lemma 14): `r < min_k r_k` over all facets.
//! * E9 (Lemma 15): `r < max-edge / d`.

use rbvc_geometry::{min_delta_polyhedral, Simplex};
use rbvc_linalg::cayley_menger::inradius_by_volumes;
use rbvc_linalg::{Norm, Tol};
use serde_json::json;

use super::Experiment;
use crate::campaign::{Args, Gate, Kind};
use crate::report::{fnum, print_table};
use crate::workloads::{random_simplex_points, rng};

/// `exp lemmas` — E7–E9.
pub const LEMMAS: Experiment = Experiment {
    name: "lemmas",
    ids: "E7–E9",
    artefact: "Lemmas 12–15 closed forms",
    positionals: &[("trials", Kind::Int, "200"), ("seed", Kind::Int, "7")],
    flags: &[],
    suite: Some((&["100", "7"], &["25", "7"])),
    json: Some(|trials, seed| json!({ "e7_9_lemmas": lemma_sweep(trials, seed + 7) })),
    run,
};

/// One row (per dimension) of the lemma-validation table.
#[derive(Debug, Clone, serde::Serialize)]
pub struct LemmaRow {
    /// Simplex dimension.
    pub d: usize,
    /// Trials run.
    pub trials: usize,
    /// E7: max |r(Lemma 12) − r(Cayley–Menger)| (relative).
    pub max_inradius_err: f64,
    /// E7: bracketing failures of δ*_∞ ≤ r ≤ √d·δ*_∞ (expected 0).
    pub bracket_violations: usize,
    /// E8: Lemma 14 violations (expected 0).
    pub lemma14_violations: usize,
    /// E8: max r / min_k r_k (must stay < 1).
    pub max_facet_ratio: f64,
    /// E9: Lemma 15 violations (expected 0).
    pub lemma15_violations: usize,
    /// E9: max r·d / max-edge (must stay < 1).
    pub max_edge_ratio: f64,
}

/// Run the lemma validations for one dimension.
#[must_use]
pub fn run_dimension(d: usize, trials: usize, seed: u64) -> LemmaRow {
    let tol = Tol::default();
    let mut r = rng(seed);
    let mut row = LemmaRow {
        d,
        trials,
        max_inradius_err: 0.0,
        bracket_violations: 0,
        lemma14_violations: 0,
        max_facet_ratio: 0.0,
        lemma15_violations: 0,
        max_edge_ratio: 0.0,
    };
    for _ in 0..trials {
        let pts = random_simplex_points(&mut r, d, 2.0, 0.02);
        let simplex = Simplex::new(pts.clone(), tol).expect("generator guarantees");
        let inr = simplex.inradius();

        // E7: closed form vs Cayley–Menger volumes.
        let cm = inradius_by_volumes(simplex.vertices());
        row.max_inradius_err = row
            .max_inradius_err
            .max(((inr - cm) / inr.max(1e-12)).abs());

        // E7: δ* bracketing via the LP-exact L∞ value (Lemma 13 says the
        // L2 δ* IS the inradius; norm equivalence brackets it by δ*_∞).
        let (dinf, _) = min_delta_polyhedral(&pts, 1, Norm::LInf, tol);
        if !(dinf <= inr + 1e-7 && inr <= (d as f64).sqrt() * dinf + 1e-7) {
            row.bracket_violations += 1;
        }

        // E8: Lemma 14.
        for k in 0..=d {
            if let Some(rk) = simplex.facet_inradius(k, tol) {
                row.max_facet_ratio = row.max_facet_ratio.max(inr / rk);
                if inr >= rk {
                    row.lemma14_violations += 1;
                }
            }
        }

        // E9: Lemma 15.
        let bound = simplex.max_edge() / d as f64;
        row.max_edge_ratio = row.max_edge_ratio.max(inr / bound);
        if inr >= bound {
            row.lemma15_violations += 1;
        }
    }
    row
}

/// Run the standard sweep over dimensions 2..=6.
#[must_use]
pub fn lemma_sweep(trials: usize, seed: u64) -> Vec<LemmaRow> {
    (2..=6).map(|d| run_dimension(d, trials, seed + d as u64)).collect()
}

fn run(args: &Args) -> Vec<Gate> {
    println!(
        "E7–E9 — Lemma 12 (inradius closed form), Lemma 13 (δ* = inradius, \
         bracketed by the LP-exact δ*_∞), Lemma 14 (r < min facet inradius), \
         Lemma 15 (r < max-edge/d) on random simplices."
    );
    let rows: Vec<Vec<String>> = lemma_sweep(args.num(0), args.num(1))
        .into_iter()
        .map(|r| {
            vec![
                r.d.to_string(),
                r.trials.to_string(),
                fnum(r.max_inradius_err),
                r.bracket_violations.to_string(),
                fnum(r.max_facet_ratio),
                r.lemma14_violations.to_string(),
                fnum(r.max_edge_ratio),
                r.lemma15_violations.to_string(),
            ]
        })
        .collect();
    print_table(
        "Lemmas 12–15 (all violation counts expected 0)",
        &[
            "d",
            "trials",
            "max rel err r (L12 vs CM)",
            "bracket viol (L13)",
            "max r/min r_k (L14)",
            "L14 viol",
            "max r·d/max-edge (L15)",
            "L15 viol",
        ],
        &rows,
    );
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lemma_validations_hold_at_d3() {
        let row = run_dimension(3, 50, 99);
        assert!(row.max_inradius_err < 1e-6, "{row:?}");
        assert_eq!(row.bracket_violations, 0, "{row:?}");
        assert_eq!(row.lemma14_violations, 0, "{row:?}");
        assert_eq!(row.lemma15_violations, 0, "{row:?}");
        assert!(row.max_facet_ratio < 1.0);
        assert!(row.max_edge_ratio < 1.0);
    }

    #[test]
    fn lemma_validations_hold_across_dimensions() {
        for row in lemma_sweep(15, 123) {
            assert_eq!(
                row.bracket_violations + row.lemma14_violations + row.lemma15_violations,
                0,
                "violation at d = {}: {row:?}",
                row.d
            );
        }
    }
}
