//! E11 — Theorem 15 / Conjecture 4: input-dependent δ in asynchronous
//! systems below the `(d+2)f + 1` bound; and E13 — ε-agreement convergence
//! of the averaging rounds (the "figure-style" series).

use rbvc_core::bounds::kappa_async;
use rbvc_core::problem::{Agreement, Validity};
use rbvc_core::runner::{run_async, AsyncByzantine, AsyncSpec, SchedulerSpec};
use rbvc_core::verified_avg::DeltaMode;
use rbvc_linalg::{Norm, Tol};
use serde_json::json;

use super::{claim_per_row, Experiment};
use crate::campaign::{Args, Gate, Kind};
use crate::report::{fnum, print_table};
use crate::workloads::{self, rng};

/// `exp async-delta` — E11.
pub const ASYNC_DELTA: Experiment = Experiment {
    name: "async-delta",
    ids: "E11",
    artefact: "Theorem 15 / Conjecture 4 (async input-dependent δ)",
    positionals: &[("trials", Kind::Int, "10"), ("seed", Kind::Int, "5")],
    flags: &[],
    suite: Some((&["10", "5"], &["3", "5"])),
    json: Some(|trials, seed| {
        json!({ "e11_async_delta": async_delta_sweep(trials.min(8), seed + 5) })
    }),
    run: run_async_delta,
};

/// `exp convergence` — E13.
pub const CONVERGENCE: Experiment = Experiment {
    name: "convergence",
    ids: "E13",
    artefact: "ε-agreement convergence series",
    positionals: &[("seed", Kind::Int, "5")],
    flags: &[],
    suite: Some((&["8"], &["8"])),
    json: Some(|_, seed| {
        json!({ "e13_convergence": convergence_series(4, 1, 3, &[2, 4, 8, 16], seed + 8) })
    }),
    run: run_convergence,
};

/// One row of the asynchronous input-dependent-δ experiment.
#[derive(Debug, Clone, serde::Serialize)]
pub struct AsyncDeltaRow {
    /// Processes.
    pub n: usize,
    /// Fault bound.
    pub f: usize,
    /// Dimension.
    pub d: usize,
    /// Trials.
    pub trials: usize,
    /// Trials where the run decided and passed ε-agreement + validity.
    pub ok: usize,
    /// Trials where round-0 δ exceeded κ(n−f)·max-edge(E₊) (expected 0).
    pub bound_violations: usize,
    /// Max observed δ / bound ratio.
    pub max_ratio: f64,
    /// Max observed coordinatewise disagreement between decisions.
    pub max_disagreement: f64,
}

/// Run the asynchronous δ experiment for one configuration.
#[must_use]
pub fn run_config(n: usize, f: usize, d: usize, trials: usize, seed: u64) -> AsyncDeltaRow {
    let tol = Tol::default();
    let kappa = kappa_async(n, f, d, Norm::L2)
        .expect("configuration must be in the Theorem 15 regime")
        .kappa;
    let mut row = AsyncDeltaRow {
        n,
        f,
        d,
        trials,
        ok: 0,
        bound_violations: 0,
        max_ratio: 0.0,
        max_disagreement: 0.0,
    };
    for trial in 0..trials {
        let mut r = rng(seed + trial as u64);
        let correct = workloads::random_points(&mut r, n - f, d, 1.0);
        let faulty = workloads::random_points(&mut r, f, d, 3.0);
        let (inputs, faulty_ids) = workloads::assemble_inputs(&correct, &faulty);
        let adversaries: Vec<(usize, AsyncByzantine)> = faulty_ids
            .iter()
            .map(|&i| (i, AsyncByzantine::HonestInput(inputs[i].clone())))
            .collect();
        let spec = AsyncSpec {
            n,
            f,
            mode: DeltaMode::MinDelta(Norm::L2),
            rounds: 30,
            inputs: inputs.clone(),
            adversaries,
            scheduler: SchedulerSpec::Random(seed * 31 + trial as u64),
            max_steps: 6_000_000,
            agreement: Agreement::Epsilon(1e-3),
            validity: Validity::InputDependentDeltaP {
                kappa,
                norm: Norm::L2,
            },
        };
        let report = run_async(&spec, tol);
        if report.verdict.ok() {
            row.ok += 1;
        }
        row.max_disagreement = row.max_disagreement.max(report.verdict.max_disagreement);
        if let Some(delta) = report.delta_used {
            let bound = kappa * workloads::max_edge(&correct);
            let ratio = delta / bound.max(1e-12);
            row.max_ratio = row.max_ratio.max(ratio);
            if delta >= bound - 1e-9 && delta > 1e-12 {
                row.bound_violations += 1;
            }
        }
    }
    row
}

/// Standard sweep: f = 1, d = 3, n from 3f+1 = 4 up to (d+2)f = 5 — the
/// regime where the baseline is impossible but the relaxation works.
#[must_use]
pub fn async_delta_sweep(trials: usize, seed: u64) -> Vec<AsyncDeltaRow> {
    vec![
        run_config(4, 1, 3, trials, seed),
        run_config(5, 1, 3, trials, seed + 100),
        run_config(4, 1, 4, trials, seed + 200),
        run_config(5, 1, 4, trials, seed + 300),
    ]
}

/// One point of the E13 convergence series.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ConvergencePoint {
    /// Averaging rounds before deciding.
    pub rounds: usize,
    /// Max coordinatewise disagreement among decisions.
    pub disagreement: f64,
}

/// E13: disagreement as a function of the number of rounds (fixed inputs,
/// fixed schedule seed) — the convergence behaviour behind ε-agreement.
#[must_use]
pub fn convergence_series(
    n: usize,
    f: usize,
    d: usize,
    rounds_list: &[usize],
    seed: u64,
) -> Vec<ConvergencePoint> {
    let tol = Tol::default();
    let mut r = rng(seed);
    let correct = workloads::random_points(&mut r, n - f, d, 1.0);
    let faulty = workloads::random_points(&mut r, f, d, 3.0);
    let (inputs, faulty_ids) = workloads::assemble_inputs(&correct, &faulty);
    rounds_list
        .iter()
        .map(|&rounds| {
            let adversaries: Vec<(usize, AsyncByzantine)> = faulty_ids
                .iter()
                .map(|&i| (i, AsyncByzantine::HonestInput(inputs[i].clone())))
                .collect();
            let spec = AsyncSpec {
                n,
                f,
                mode: DeltaMode::MinDelta(Norm::L2),
                rounds,
                inputs: inputs.clone(),
                adversaries,
                scheduler: SchedulerSpec::Random(seed),
                max_steps: 8_000_000,
                agreement: Agreement::Epsilon(f64::INFINITY),
                validity: Validity::InputDependentDeltaP {
                    kappa: 10.0, // not the object of this experiment
                    norm: Norm::L2,
                },
            };
            let report = run_async(&spec, tol);
            ConvergencePoint {
                rounds,
                disagreement: report.verdict.max_disagreement,
            }
        })
        .collect()
}

/// Geometric-contraction fit of a convergence series: the per-round factor
/// estimated from the first and last points.
#[must_use]
pub fn contraction_factor(series: &[ConvergencePoint]) -> Option<f64> {
    let first = series.first()?;
    let last = series.last()?;
    if last.rounds <= first.rounds || first.disagreement <= 0.0 || last.disagreement <= 0.0 {
        return None;
    }
    let steps = (last.rounds - first.rounds) as f64;
    Some((last.disagreement / first.disagreement).powf(1.0 / steps))
}

fn run_async_delta(args: &Args) -> Vec<Gate> {
    println!(
        "E11 — Relaxed Verified Averaging at 3f+1 ≤ n ≤ (d+2)f (baseline \
         impossible there): ε-agreement + (δ,2)-validity with \
         δ ≤ κ(n−f,f,d,2)·max-edge(E₊) (Theorem 15)."
    );
    let sweep = async_delta_sweep(args.num(0), args.num(1));
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.f.to_string(),
                r.d.to_string(),
                format!("{}/{}", r.ok, r.trials),
                fnum(r.max_ratio),
                r.bound_violations.to_string(),
                fnum(r.max_disagreement),
            ]
        })
        .collect();
    print_table(
        "Theorem 15 (asynchronous input-dependent δ)",
        &[
            "n",
            "f",
            "d",
            "runs ok",
            "max δ/bound",
            "bound violations",
            "max disagreement",
        ],
        &rows,
    );
    async_delta_gates(&sweep)
}

/// E11: every run passed, and no round-0 δ reached the bound.
fn async_delta_gates(rows: &[AsyncDeltaRow]) -> Vec<Gate> {
    claim_per_row("E11", rows, |r| r.ok == r.trials && r.bound_violations == 0)
}

fn run_convergence(args: &Args) -> Vec<Gate> {
    println!(
        "E13 — coordinatewise disagreement of decisions vs averaging rounds \
         (n = 4, f = 1, d = 3, Relaxed Verified Averaging). The paper's \
         ε-agreement (Definition 11) holds for any ε once rounds suffice."
    );
    let rounds = [2usize, 4, 6, 8, 12, 16, 20, 25, 30];
    let series = convergence_series(4, 1, 3, &rounds, args.num(0));
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|p| vec![p.rounds.to_string(), fnum(p.disagreement)])
        .collect();
    print_table("Convergence series", &["rounds", "max disagreement (L∞)"], &rows);
    if let Some(factor) = contraction_factor(&series) {
        println!("\nestimated per-round contraction factor: {}", fnum(factor));
        println!("theoretical ceiling 2f/(n−f) = {}", fnum(2.0 / 3.0));
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem15_bound_holds_in_sample_runs() {
        let row = run_config(4, 1, 3, 6, 77);
        assert_eq!(row.ok, row.trials, "{row:?}");
        assert_eq!(row.bound_violations, 0, "{row:?}");
        assert!(row.max_ratio < 1.0, "{row:?}");
    }

    #[test]
    fn a_failed_run_or_a_bound_violation_fails_the_gate() {
        let row = |ok, bound_violations| AsyncDeltaRow {
            n: 4,
            f: 1,
            d: 3,
            trials: 3,
            ok,
            bound_violations,
            max_ratio: 0.5,
            max_disagreement: 0.0,
        };
        let ok = |r| async_delta_gates(&[r])[0].ok;
        assert!(ok(row(3, 0)) && !ok(row(2, 0)) && !ok(row(3, 1)));
    }

    #[test]
    fn convergence_contracts_to_agreement() {
        // Observed dynamic at n = 4, f = 1: the three fastest processes
        // stabilize on the same verified set within a couple of rounds, so
        // disagreement often collapses to *exact* zero. The contract is:
        // disagreement never grows, and by 8 rounds it is either a small
        // fraction of the 2-round value or outright zero. Scan seeds so the
        // test covers at least one nontrivial (positive-start) trajectory.
        // Each series point is an *independent* execution (its own
        // scheduler draws), so intermediate points may fluctuate; the sound
        // contract is about the endpoint: by 8 rounds disagreement has
        // collapsed — either to (near) exact zero or to a small fraction of
        // whatever the 2-round execution left.
        let mut nontrivial = 0;
        for seed in [5u64, 6, 7, 8, 9, 10, 11] {
            let series = convergence_series(4, 1, 3, &[2, 4, 8], seed);
            assert_eq!(series.len(), 3);
            let first = series[0].disagreement;
            let last = series[2].disagreement;
            assert!(
                last <= first * 0.5 + 1e-12 || last < 1e-9,
                "seed {seed}: no contraction: {series:?}"
            );
            if series.iter().any(|p| p.disagreement > 1e-9) {
                nontrivial += 1;
            }
        }
        assert!(
            nontrivial >= 1,
            "every seed started at exact agreement — series uninformative"
        );
    }
}
