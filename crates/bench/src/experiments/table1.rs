//! E1 — **Table 1**: Monte-Carlo validation of the input-dependent δ*
//! upper bounds, and E12 — the Theorem 14 general-p scaling.
//!
//! For each (f, n, d) regime of Table 1 we draw seeded random inputs
//! (clustered correct values + adversarial outliers), compute the true
//! `δ*(S)` with the solver of `rbvc-geometry`, evaluate the paper's bound
//! from the edges of the *non-faulty* inputs only, and report the maximal
//! observed ratio `δ*/bound` together with the count of violations
//! (expected: zero for the theorems; conjecture rows are labelled).

use rbvc_core::bounds::{kappa_l2, kappa_lp, theorem9_min_edge_factor, BoundSource};
use rbvc_geometry::minmax::delta_star;
use rbvc_linalg::{Norm, Tol, VecD};
use rbvc_obs::Registry;
use serde_json::json;

use super::Experiment;
use crate::campaign::{gate, Args, Gate, Kind};
use crate::report::{fnum, print_table};
use crate::workloads::{self, rng};

/// `exp table1` — E1 and, with `--p-sweep`, E12.
pub const TABLE1: Experiment = Experiment {
    name: "table1",
    ids: "E1, E12",
    artefact: "Table 1 (δ* upper bounds); Theorem 14 p-sweep",
    positionals: &[("trials", Kind::Int, Some("100")), ("seed", Kind::Int, Some("2024"))],
    flags: &["--p-sweep"],
    suite: Some((&["100", "2024", "--p-sweep"], &["25", "2024", "--p-sweep"])),
    json: Some(|trials, seed| {
        json!({ "e1_table1_l2": table1_l2(trials, seed), "e12_p_sweep": p_sweep(trials, seed) })
    }),
    run,
};

/// One row of the regenerated Table 1.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Table1Row {
    /// Which paper statement the bound comes from.
    pub source: BoundSource,
    /// Fault bound.
    pub f: usize,
    /// Number of processes / inputs.
    pub n: usize,
    /// Dimension.
    pub d: usize,
    /// Norm parameter p.
    pub norm: Norm,
    /// Monte-Carlo trials.
    pub trials: usize,
    /// Trials where δ* ≥ bound (expected 0).
    pub violations: usize,
    /// Max observed δ*/bound (must stay < 1).
    pub max_ratio: f64,
    /// Mean observed δ*.
    pub mean_delta: f64,
    /// Mean bound value.
    pub mean_bound: f64,
    /// Trials whose δ* came with a certificate that does not verify
    /// (expected 0; the closed-form and LP paths carry the empty one).
    pub uncertified: usize,
}

/// The Table-1 configurations we sweep (kept small enough that the
/// `f = 2` combinatorics stay fast).
#[must_use]
pub fn default_configs() -> Vec<(usize, usize, usize)> {
    vec![
        // (f, n, d): Theorem 9 row — f = 1, n = d + 1.
        (1, 4, 3),
        (1, 5, 4),
        (1, 6, 5),
        // Theorem 12 row — f ≥ 2, n = (d+1)f.
        (2, 8, 3),
        // Conjecture 1 row — 3f+1 ≤ n < (d+1)f.
        (2, 7, 5),
        (2, 8, 4),
    ]
}

/// Run one configuration for `trials` seeded trials in the given norm.
#[must_use]
pub fn run_config(
    f: usize,
    n: usize,
    d: usize,
    norm: Norm,
    trials: usize,
    seed: u64,
) -> Table1Row {
    let tol = Tol::default();
    let results: Vec<(f64, f64, bool)> = (0..trials)
        .map(|trial| {
            let mut r = rng(seed ^ (trial as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let correct = workloads::random_points(&mut r, n - f, d, 1.0);
            let faulty = workloads::random_points(&mut r, f, d, 3.0);
            let (inputs, _) = workloads::assemble_inputs(&correct, &faulty);
            let ds = delta_star(&inputs, f, norm, tol);
            let bound = bound_for(f, n, d, norm, &correct);
            (ds.delta, bound, ds.verify(&inputs, f))
        })
        .collect();
    let mut violations = 0;
    let mut max_ratio = 0.0_f64;
    let mut sum_delta = 0.0;
    let mut sum_bound = 0.0;
    for (delta, bound, _) in &results {
        let ratio = delta / bound;
        if *delta >= *bound - 1e-9 {
            violations += 1;
        }
        max_ratio = max_ratio.max(ratio);
        sum_delta += delta;
        sum_bound += bound;
    }
    let source = source_for(f, n, d, norm);
    Table1Row {
        source,
        f,
        n,
        d,
        norm,
        trials,
        violations,
        max_ratio,
        mean_delta: sum_delta / trials as f64,
        mean_bound: sum_bound / trials as f64,
        uncertified: results.iter().filter(|(_, _, verified)| !verified).count(),
    }
}

/// The Table-1 bound value for a given non-faulty input multiset.
#[must_use]
pub fn bound_for(f: usize, n: usize, d: usize, norm: Norm, correct: &[VecD]) -> f64 {
    let edges = rbvc_geometry::pairwise_edges_norm(correct, norm);
    let max_edge = edges.iter().copied().fold(0.0_f64, f64::max);
    let kappa = if norm == Norm::L2 {
        kappa_l2(n, f, d).expect("config must be in a Table 1 regime").kappa
    } else {
        kappa_lp(n, f, d, norm)
            .expect("config must be in a Table 1 regime")
            .kappa
    };
    let mut bound = kappa * max_edge;
    // Theorem 9 additionally bounds by min-edge/2 (L2, f = 1, n = d+1).
    if f == 1 && n == d + 1 && norm == Norm::L2 {
        let min_edge = edges.into_iter().fold(f64::INFINITY, f64::min);
        bound = bound.min(theorem9_min_edge_factor() * min_edge);
    }
    bound
}

fn source_for(f: usize, n: usize, d: usize, norm: Norm) -> BoundSource {
    if norm == Norm::L2 {
        kappa_l2(n, f, d).expect("regime").source
    } else {
        kappa_lp(n, f, d, norm).expect("regime").source
    }
}

/// E1: the full L2 table.
#[must_use]
pub fn table1_l2(trials: usize, seed: u64) -> Vec<Table1Row> {
    default_configs()
        .into_iter()
        .map(|(f, n, d)| run_config(f, n, d, Norm::L2, trials, seed))
        .collect()
}

/// E12: the p-sweep for one f = 1 configuration (Theorem 14 scaling).
#[must_use]
pub fn p_sweep(trials: usize, seed: u64) -> Vec<Table1Row> {
    let (f, n, d) = (1, 5, 4);
    [Norm::L2, Norm::lp(3.0), Norm::lp(4.0), Norm::LInf]
        .into_iter()
        .map(|norm| run_config(f, n, d, norm, trials, seed))
        .collect()
}

fn source_label(s: BoundSource) -> &'static str {
    match s {
        BoundSource::Theorem9 => "Thm 9  (f=1, n=d+1)",
        BoundSource::Theorem12 => "Thm 12 (f>=2, n=(d+1)f)",
        BoundSource::Theorem14 => "Thm 14 (p-scaled)",
        BoundSource::Theorem15 => "Thm 15 (async)",
        BoundSource::Conjecture1 => "Conj 1 (3f+1<=n<(d+1)f)",
    }
}

fn rows_to_table(rows: &[Table1Row]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                source_label(r.source).to_string(),
                r.f.to_string(),
                r.n.to_string(),
                r.d.to_string(),
                format!("{:?}", r.norm),
                r.trials.to_string(),
                fnum(r.mean_delta),
                fnum(r.mean_bound),
                fnum(r.max_ratio),
                r.violations.to_string(),
            ]
        })
        .collect()
}

fn run(args: &Args) -> Vec<Gate> {
    let (trials, seed) = (args.num(0), args.num(1));
    let headers = [
        "bound", "f", "n", "d", "norm", "trials", "mean δ*", "mean bound", "max ratio",
        "violations",
    ];

    println!("E1 — Table 1 (L2, input-dependent δ*): δ* must stay strictly below the bound.");
    let rows = table1_l2(trials, seed);
    print_table("Table 1 (measured)", &headers, &rows_to_table(&rows));
    let total_violations: usize = rows.iter().map(|r| r.violations).sum();
    println!("total violations: {total_violations} (expected 0)");
    // Rows 4–6 go through the cutting-plane solver: its answers must come
    // with a proof that checks, within the solver's gap.
    let uncertified: usize = rows.iter().map(|r| r.uncertified).sum();
    let cap_hits = Registry::global().counter("geometry.delta_star.cap_hits").get();
    println!(
        "δ* certificates failing to verify: {uncertified}, solves ending above the gap: \
         {cap_hits} (expected 0, 0)\n"
    );

    if args.p_sweep {
        println!("E12 — Theorem 14 p-sweep (f=1, n=5, d=4): bound scales by d^(1/2-1/p).");
        let rows = p_sweep(trials, seed);
        print_table("Theorem 14 p-sweep (measured)", &headers, &rows_to_table(&rows));
    }
    vec![
        gate(uncertified == 0, format!("{uncertified} δ* certificates did not verify")),
        gate(
            cap_hits == 0,
            format!("{cap_hits} δ* solves ended above the gap (geometry.delta_star.cap_hits)"),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem9_bound_never_violated() {
        let row = run_config(1, 4, 3, Norm::L2, 60, 2024);
        assert_eq!(row.violations, 0, "Theorem 9 violated: {row:?}");
        assert!(row.max_ratio < 1.0);
        assert!(row.mean_delta > 0.0, "random simplices have positive δ*");
    }

    #[test]
    fn theorem12_bound_never_violated() {
        let row = run_config(2, 8, 3, Norm::L2, 12, 7);
        assert_eq!(row.violations, 0, "Theorem 12 violated: {row:?}");
        assert!(row.max_ratio < 1.0);
    }

    #[test]
    fn conjecture1_bound_never_violated_on_sample() {
        let row = run_config(2, 7, 5, Norm::L2, 12, 11);
        assert_eq!(row.violations, 0, "Conjecture 1 violated: {row:?}");
    }

    #[test]
    fn linf_bound_never_violated() {
        let row = run_config(1, 5, 4, Norm::LInf, 30, 5);
        assert_eq!(row.violations, 0, "Theorem 14 (L∞) violated: {row:?}");
    }

    #[test]
    fn bound_uses_only_correct_edges() {
        // Moving the faulty point far away must not change the bound.
        let correct = vec![
            VecD::from_slice(&[0.0, 0.0, 0.0]),
            VecD::from_slice(&[1.0, 0.0, 0.0]),
            VecD::from_slice(&[0.0, 1.0, 0.0]),
        ];
        let b = bound_for(1, 4, 3, Norm::L2, &correct);
        assert!(b.is_finite() && b > 0.0);
    }
}
