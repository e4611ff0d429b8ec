//! E14 (extension) — adversarial stress-search for the paper's open
//! conjectures.
//!
//! Conjecture 1 claims `δ*(S) < max-edge(E₊) / (⌊n/f⌋ − 2)` for
//! `3f+1 ≤ n < (d+1)f`; Conjecture 2 extends it to all
//! `3f+1 ≤ n ≤ (d+1)f`. Monte-Carlo sampling (E1) only probes typical
//! configurations; this module runs a **(1+1) evolutionary hill-climb on
//! the input points that maximizes the ratio δ*/bound**, with the fault
//! designation chosen adversarially (the `f` points whose removal
//! *minimizes* the remaining max-edge are declared faulty, which minimizes
//! the bound). A ratio reaching 1 would *refute* the conjecture; the
//! supremum found is tightness evidence. The same hunter runs against the
//! proven Theorem 9 bounds as a calibration control (it must stay < 1).

use rbvc_geometry::combinatorics::combinations;
use rbvc_geometry::minmax::delta_star;
use rbvc_geometry::pairwise_edges;
use rbvc_linalg::{Norm, Tol, VecD};
use rand::rngs::StdRng;
use rand::Rng;
use serde_json::json;

use super::Experiment;
use crate::campaign::{Args, Gate, Kind};
use crate::report::{fnum, print_table};
use crate::workloads::rng;

/// `exp conjectures` — E14.
pub const CONJECTURES: Experiment = Experiment {
    name: "conjectures",
    ids: "E14",
    artefact: "Conjectures 1–2 (adversarial stress-search)",
    positionals: &[
        ("restarts", Kind::Int, "40"),
        ("iters", Kind::Int, "1000"),
        ("seed", Kind::Int, "1"),
    ],
    flags: &[],
    // About a minute for the two Conjecture 1 rows at full scale, 25 s for
    // all four at --quick (a general-path δ* solve is about a millisecond):
    // EXPERIMENTS.md E14.
    suite: Some((&["40", "1000", "1"], &["15", "1000", "1"])),
    json: Some(|_, seed| json!({ "e14_conjecture_hunt": hunt_sweep(1, 30, seed + 1) })),
    run,
};

/// Result of one hunt.
#[derive(Debug, Clone, serde::Serialize)]
pub struct HuntResult {
    /// Configuration.
    pub n: usize,
    /// Fault bound.
    pub f: usize,
    /// Dimension.
    pub d: usize,
    /// Which bound was hunted.
    pub target: HuntTarget,
    /// Best (largest) δ*/bound ratio found.
    pub best_ratio: f64,
    /// Evaluations spent.
    pub evaluations: usize,
    /// True iff a violation (ratio ≥ 1) was found — refuting the statement.
    pub violation_found: bool,
}

/// Which statement the hunter attacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum HuntTarget {
    /// Theorem 9: min(min-edge/2, max-edge/(n−2)), f = 1 (control).
    Theorem9,
    /// Theorem 12: max-edge/(d−1) at n = (d+1)f, f ≥ 2 (control).
    Theorem12,
    /// Conjecture 1/2: max-edge/(⌊n/f⌋−2), 3f+1 ≤ n ≤ (d+1)f.
    Conjecture,
}

/// Ratio of `δ*(S)` to the target bound, with the fault designation chosen
/// adversarially (the bound minimized over all size-`f` fault sets).
#[must_use]
pub fn adversarial_ratio(
    points: &[VecD],
    f: usize,
    target: HuntTarget,
    tol: Tol,
) -> f64 {
    let n = points.len();
    let delta = delta_star(points, f, Norm::L2, tol).delta;
    if delta <= 0.0 {
        return 0.0;
    }
    // Adversarial designation: minimize the bound over fault sets.
    let mut min_bound = f64::INFINITY;
    for faulty in combinations(n, f) {
        let correct: Vec<VecD> = (0..n)
            .filter(|i| !faulty.contains(i))
            .map(|i| points[i].clone())
            .collect();
        let edges = pairwise_edges(&correct);
        let max_edge = edges.iter().copied().fold(0.0_f64, f64::max);
        let min_edge = edges.iter().copied().fold(f64::INFINITY, f64::min);
        let d = points[0].dim();
        let bound = match target {
            HuntTarget::Theorem9 => (min_edge / 2.0).min(max_edge / (n as f64 - 2.0)),
            HuntTarget::Theorem12 => max_edge / (d as f64 - 1.0),
            HuntTarget::Conjecture => max_edge / ((n / f) as f64 - 2.0),
        };
        min_bound = min_bound.min(bound);
    }
    if min_bound <= 0.0 {
        // All correct inputs coincide: δ* should be 0 too; treat as no-signal.
        return 0.0;
    }
    delta / min_bound
}

/// Run a (1+1) hill-climb with restarts.
#[must_use]
pub fn hunt(
    n: usize,
    f: usize,
    d: usize,
    target: HuntTarget,
    restarts: usize,
    iters_per_restart: usize,
    seed: u64,
) -> HuntResult {
    let tol = Tol::default();
    let mut best_overall = 0.0_f64;
    let mut evaluations = 0usize;
    for restart in 0..restarts {
        let mut r = rng(seed + restart as u64 * 7919);
        let mut current: Vec<VecD> = (0..n)
            .map(|_| VecD((0..d).map(|_| r.gen_range(-1.0..1.0)).collect()))
            .collect();
        let mut current_ratio = adversarial_ratio(&current, f, target, tol);
        evaluations += 1;
        let mut step = 0.4_f64;
        for it in 0..iters_per_restart {
            let candidate = mutate(&current, &mut r, step);
            let ratio = adversarial_ratio(&candidate, f, target, tol);
            evaluations += 1;
            if ratio > current_ratio {
                current = candidate;
                current_ratio = ratio;
            } else if it % 20 == 19 {
                step *= 0.8; // anneal when progress stalls
            }
        }
        best_overall = best_overall.max(current_ratio);
    }
    HuntResult {
        n,
        f,
        d,
        target,
        best_ratio: best_overall,
        evaluations,
        violation_found: best_overall >= 1.0,
    }
}

fn mutate(points: &[VecD], r: &mut StdRng, step: f64) -> Vec<VecD> {
    let mut out = points.to_vec();
    let which = r.gen_range(0..out.len());
    let coord = r.gen_range(0..out[which].dim());
    out[which][coord] += r.gen_range(-step..step);
    out
}

/// The standard hunt sweep: proven controls + the conjecture rows, every
/// row on the same budget.
#[must_use]
pub fn hunt_sweep(restarts: usize, iters: usize, seed: u64) -> Vec<HuntResult> {
    vec![
        // Controls (proven theorems — ratios must stay < 1).
        hunt(4, 1, 3, HuntTarget::Theorem9, restarts, iters, seed),
        hunt(8, 2, 3, HuntTarget::Theorem12, restarts, iters, seed + 1),
        // Conjecture 1 regime.
        hunt(7, 2, 5, HuntTarget::Conjecture, restarts, iters, seed + 2),
        hunt(8, 2, 4, HuntTarget::Conjecture, restarts, iters, seed + 3),
    ]
}

fn run(args: &Args) -> Vec<Gate> {
    println!(
        "E14 — (1+1) hill-climb maximizing δ*/bound with adversarial fault \
         designation. Ratio ≥ 1 would refute the statement; the supremum \
         found is tightness evidence. Proven bounds serve as controls."
    );
    let rows: Vec<Vec<String>> = hunt_sweep(args.num(0), args.num(1), args.num(2))
        .into_iter()
        .map(|r| {
            let label = match r.target {
                HuntTarget::Theorem9 => "Thm 9 (control)",
                HuntTarget::Theorem12 => "Thm 12 (control)",
                HuntTarget::Conjecture => "Conjecture 1",
            };
            vec![
                label.to_string(),
                r.n.to_string(),
                r.f.to_string(),
                r.d.to_string(),
                r.evaluations.to_string(),
                fnum(r.best_ratio),
                r.violation_found.to_string(),
            ]
        })
        .collect();
    print_table(
        "Conjecture stress-search",
        &["target", "n", "f", "d", "evals", "best δ*/bound", "violation"],
        &rows,
    );
    println!("\nno violation found ⇒ the conjectures survive adversarial search at these sizes.");
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem9_control_stays_below_one() {
        let result = hunt(4, 1, 3, HuntTarget::Theorem9, 2, 60, 11);
        assert!(!result.violation_found, "proven bound refuted?! {result:?}");
        assert!(result.best_ratio > 0.1, "hunter made no progress: {result:?}");
        assert!(result.best_ratio < 1.0);
    }

    #[test]
    fn conjecture_hunt_runs_and_reports() {
        let result = hunt(7, 2, 5, HuntTarget::Conjecture, 1, 15, 3);
        assert!(result.evaluations >= 16);
        assert!(
            result.best_ratio < 1.0,
            "conjecture violation claimed — investigate immediately: {result:?}"
        );
    }

    #[test]
    fn adversarial_designation_minimizes_bound() {
        // With one extreme outlier, the adversarial fault set must include
        // it (removing it shrinks max-edge the most → smallest bound).
        let points = vec![
            VecD::from_slice(&[0.0, 0.0, 0.0]),
            VecD::from_slice(&[1.0, 0.0, 0.0]),
            VecD::from_slice(&[0.0, 1.0, 0.0]),
            VecD::from_slice(&[100.0, 100.0, 100.0]),
        ];
        let with_outlier = adversarial_ratio(&points, 1, HuntTarget::Theorem9, Tol::default());
        // Ratio computed against the small cluster's edges — so a large δ*
        // (driven by the far-away simplex geometry) against a small bound.
        assert!(with_outlier > 0.0);
    }
}
