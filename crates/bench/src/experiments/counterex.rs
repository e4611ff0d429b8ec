//! E2–E6 — executable impossibility constructions plus their sufficiency
//! counterparts.
//!
//! Each theorem's necessity side is certified by LP on the paper's explicit
//! input matrix; the sufficiency side is an *actual protocol run* at the
//! bound with a Byzantine process present, checked by the validity
//! machinery. Together they exhibit the tightness the paper claims.

use rbvc_core::counterexamples::{
    figure1, theorem3_inputs, theorem3_psi_empty, theorem3_psi_empty_replicated,
    theorem4_inputs, theorem4_separation, theorem5_contradiction,
    theorem5_contradiction_replicated, theorem5_inputs, theorem6_inputs,
};
use rbvc_core::problem::{Agreement, Validity};
use rbvc_core::rules::DecisionRule;
use rbvc_core::runner::{
    run_async, run_sync, AsyncByzantine, AsyncSpec, SchedulerSpec, SyncSpec,
};
use rbvc_core::sync_protocols::ByzantineStrategy;
use rbvc_core::verified_avg::DeltaMode;
use rbvc_geometry::gamma::gamma_delta_point;
use rbvc_geometry::minmax::delta_star;
use rbvc_linalg::{Norm, Tol, VecD};
use serde_json::json;

use super::{claim_per_row, Experiment};
use crate::campaign::{gate, Args, Gate, Kind};
use crate::report::{fnum, print_table};

/// `exp figure1` — E2.
pub const FIGURE1: Experiment = Experiment {
    name: "figure1",
    ids: "E2",
    artefact: "Figure 1 (Lemma 10 impossibility at n ≤ 3f)",
    positionals: &[("d", Kind::Int, "3")],
    flags: &[],
    suite: Some((&["3"], &["3"])),
    json: None,
    run: run_figure1,
};

/// `exp thm3` — E3.
pub const THM3: Experiment = Experiment {
    name: "thm3",
    ids: "E3",
    artefact: "Theorem 3 tightness (sync k-relaxed)",
    positionals: &[("d_max", Kind::Int, "6")],
    flags: &[],
    suite: Some((&["6"], &["6"])),
    json: Some(|_, _| json!({ "e3_theorem3": (3..=5).map(theorem3_row).collect::<Vec<_>>() })),
    run: run_thm3,
};

/// `exp thm4` — E4.
pub const THM4: Experiment = Experiment {
    name: "thm4",
    ids: "E4",
    artefact: "Theorem 4 tightness (async k-relaxed)",
    positionals: &[("d_max", Kind::Int, "5")],
    flags: &[],
    suite: Some((&["5"], &["5"])),
    json: Some(|_, _| json!({ "e4_theorem4": (3..=4).map(theorem4_row).collect::<Vec<_>>() })),
    run: run_thm4,
};

/// `exp thm5` — E5.
pub const THM5: Experiment = Experiment {
    name: "thm5",
    ids: "E5",
    artefact: "Theorem 5 tightness (sync (δ,p), constant δ)",
    positionals: &[("d_max", Kind::Int, "6"), ("delta", Kind::Real, "0.25")],
    flags: &[],
    suite: Some((&["6"], &["6"])),
    json: Some(|_, _| {
        json!({ "e5_theorem5": (2..=5).map(|d| theorem5_row(d, 0.25)).collect::<Vec<_>>() })
    }),
    run: run_thm5,
};

/// `exp thm6` — E6.
pub const THM6: Experiment = Experiment {
    name: "thm6",
    ids: "E6",
    artefact: "Theorem 6 tightness (async (δ,p), constant δ)",
    positionals: &[
        ("d_max", Kind::Int, "5"),
        ("delta", Kind::Real, "0.25"),
        ("epsilon", Kind::Real, "0.05"),
    ],
    flags: &[],
    suite: Some((&["5"], &["5"])),
    json: Some(|_, _| {
        json!({ "e6_theorem6": (2..=4).map(|d| theorem6_row(d, 0.25, 0.05)).collect::<Vec<_>>() })
    }),
    run: run_thm6,
};

/// A necessity+sufficiency row for one dimension.
#[derive(Debug, Clone, serde::Serialize)]
pub struct TightnessRow {
    /// Dimension `d`.
    pub d: usize,
    /// Processes in the infeasible configuration.
    pub n_infeasible: usize,
    /// LP-certified emptiness / ε-violation at `n_infeasible`.
    pub necessity_certified: bool,
    /// Processes in the live sufficiency run.
    pub n_sufficient: usize,
    /// Protocol run at `n_sufficient` passed all three conditions.
    pub sufficiency_ok: bool,
    /// Extra metric (separation for Theorem 4, δ for Theorem 5/6 runs).
    pub metric: f64,
}

/// E3 — Theorem 3 (synchronous k-relaxed, k = 2, f = 1).
#[must_use]
pub fn theorem3_row(d: usize) -> TightnessRow {
    let tol = Tol::default();
    let necessity = theorem3_psi_empty(d, tol);

    // Sufficiency: n = d + 2 = (d+1)f + 1 processes. Inputs: the paper's
    // matrix plus the origin; one process is Byzantine-but-protocol-following
    // (the proof's restricted adversary).
    let mut inputs = theorem3_inputs(d, 1.0, 0.5);
    inputs.push(VecD::zeros(d));
    let n = inputs.len();
    let spec = SyncSpec {
        n,
        f: 1,
        d,
        rule: DecisionRule::GammaPoint,
        inputs: inputs.clone(),
        adversaries: vec![(
            n - 1,
            ByzantineStrategy::FollowProtocol(inputs[n - 1].clone()),
        )],
        agreement: Agreement::Exact,
        validity: Validity::KRelaxed(2),
    };
    let report = run_sync(&spec, tol);
    TightnessRow {
        d,
        n_infeasible: d + 1,
        necessity_certified: necessity,
        n_sufficient: n,
        sufficiency_ok: report.verdict.ok(),
        metric: 0.0,
    }
}

/// E4 — Theorem 4 (asynchronous k-relaxed, k = 2, f = 1).
#[must_use]
pub fn theorem4_row(d: usize) -> TightnessRow {
    let tol = Tol::default();
    let eps = 0.1;
    let separation = theorem4_separation(d, 1.0, eps, tol).unwrap_or(0.0);
    let necessity = separation >= 2.0 * eps - 1e-6;

    // Sufficiency: n = (d+2)f + 1 = d + 3 processes, asynchronous verified
    // averaging with δ = 0; ε-agreement plus 2-relaxed validity (which
    // exact validity implies).
    let mut inputs = theorem4_inputs(d, 1.0, eps);
    inputs.push(VecD::zeros(d));
    let n = inputs.len();
    let spec = AsyncSpec {
        n,
        f: 1,
        mode: DeltaMode::Zero,
        rounds: 25,
        inputs: inputs.clone(),
        adversaries: vec![(n - 1, AsyncByzantine::HonestInput(inputs[n - 1].clone()))],
        scheduler: SchedulerSpec::Random(17),
        max_steps: 4_000_000,
        agreement: Agreement::Epsilon(1e-3),
        validity: Validity::KRelaxed(2),
    };
    let report = run_async(&spec, tol);
    TightnessRow {
        d,
        n_infeasible: d + 2,
        necessity_certified: necessity,
        n_sufficient: n,
        sufficiency_ok: report.verdict.ok(),
        metric: separation,
    }
}

/// E5 — Theorem 5 (synchronous (δ,p) with constant δ, f = 1).
#[must_use]
pub fn theorem5_row(d: usize, delta: f64) -> TightnessRow {
    let tol = Tol::default();
    let necessity = theorem5_contradiction(d, delta, tol);

    // Sufficiency: n = d + 2 processes; the exact algorithm trivially
    // satisfies the (δ,∞)-relaxed validity (δ ≥ 0 relaxes Exact).
    let x = 2.0 * d as f64 * delta * 1.01 + 1.0;
    let mut inputs = theorem5_inputs(d, x);
    inputs.push(VecD::zeros(d));
    let n = inputs.len();
    let spec = SyncSpec {
        n,
        f: 1,
        d,
        rule: DecisionRule::GammaPoint,
        inputs: inputs.clone(),
        adversaries: vec![(
            n - 1,
            ByzantineStrategy::FollowProtocol(inputs[n - 1].clone()),
        )],
        agreement: Agreement::Exact,
        validity: Validity::DeltaP {
            delta,
            norm: Norm::LInf,
        },
    };
    let report = run_sync(&spec, tol);
    TightnessRow {
        d,
        n_infeasible: d + 1,
        necessity_certified: necessity,
        n_sufficient: n,
        sufficiency_ok: report.verdict.ok(),
        metric: delta,
    }
}

/// E6 — Theorem 6 (asynchronous (δ,p) with constant δ, f = 1).
#[must_use]
pub fn theorem6_row(d: usize, delta: f64, eps: f64) -> TightnessRow {
    let tol = Tol::default();
    // Necessity: with x > 2dδ + ε the sets Ψ₁ (first coord ≥ x − (2d−1)δ)
    // and Ψ₂ (first coord ≤ δ) are > ε apart. Certify via the fattened
    // hull machinery: the whole intersection ⋂_j H_(δ,∞)(S^j) over ALL j
    // must be empty (a weaker but sufficient certificate here).
    let x = 2.0 * d as f64 * delta + eps + 1.0;
    let inputs6 = theorem6_inputs(d, x);
    // Drop the slow process's column (it contributed no input yet).
    let active: Vec<VecD> = inputs6[..d + 1].to_vec();
    let necessity =
        gamma_delta_point(&active, 1, delta, Norm::LInf, tol).is_none();

    // Sufficiency: n = (d+2)f + 1 = d + 3 asynchronous processes.
    let mut inputs = inputs6;
    inputs.push(VecD::zeros(d));
    let n = inputs.len();
    let spec = AsyncSpec {
        n,
        f: 1,
        mode: DeltaMode::Zero,
        rounds: 25,
        inputs: inputs.clone(),
        adversaries: vec![(n - 1, AsyncByzantine::HonestInput(inputs[n - 1].clone()))],
        scheduler: SchedulerSpec::Random(23),
        max_steps: 6_000_000,
        agreement: Agreement::Epsilon(eps),
        validity: Validity::DeltaP {
            delta,
            norm: Norm::LInf,
        },
    };
    let report = run_async(&spec, tol);
    TightnessRow {
        d,
        n_infeasible: d + 2,
        necessity_certified: necessity,
        n_sufficient: n,
        sufficiency_ok: report.verdict.ok(),
        metric: delta,
    }
}

/// E2 — Figure 1 (Lemma 10): drive a natural candidate 3-process algorithm
/// ("flood inputs one round, decide the δ*-point of the three received
/// values") through the proof's scenarios and report which condition each
/// scenario breaks.
#[derive(Debug, Clone)]
pub struct Figure1Row {
    /// Scenario name.
    pub scenario: &'static str,
    /// Output of the first correct process under the candidate algorithm.
    pub out_a: VecD,
    /// Output of the second correct process.
    pub out_b: VecD,
    /// Which condition the scenario breaks for the candidate (empty = none).
    pub violated: &'static str,
}

/// Run the Figure 1 falsification in dimension `d`.
#[must_use]
pub fn figure1_demo(d: usize) -> Vec<Figure1Row> {
    let tol = Tol::default();
    let zero = VecD::zeros(d);
    let one = VecD::ones(d);
    let candidate = |view: &[VecD]| -> VecD {
        delta_star(view, 1, Norm::L2, tol).witness
    };

    let mut rows = Vec::new();

    // Scenario B: p, q correct with 0^d; Byzantine r replays the ring —
    // showing p the "r₁ = 1^d" face and q the "r₀ = 0^d" face.
    let p_view = vec![zero.clone(), zero.clone(), one.clone()];
    let q_view = vec![zero.clone(), zero.clone(), zero.clone()];
    let p_out = candidate(&p_view);
    let q_out = candidate(&q_view);
    let forced = figure1::forced_outcome(figure1::Scenario::BothZero, d)
        .required
        .expect("validity pins the output");
    let violated = if !p_out.approx_eq(&forced, Tol(1e-6)) {
        "validity at p (max-edge of correct inputs is 0 ⇒ output must be 0^d)"
    } else if !q_out.approx_eq(&forced, Tol(1e-6)) {
        "validity at q"
    } else {
        ""
    };
    rows.push(Figure1Row {
        scenario: "B: p,q=0^d, r Byzantine",
        out_a: p_out,
        out_b: q_out,
        violated,
    });

    // Scenario C: p correct with 0^d, r correct with 1^d, q Byzantine
    // showing each its ring face.
    let p_view = vec![zero.clone(), zero.clone(), one.clone()];
    let r_view = vec![zero.clone(), one.clone(), one.clone()];
    let p_out = candidate(&p_view);
    let r_out = candidate(&r_view);
    let violated = if p_out.approx_eq(&r_out, Tol(1e-6)) {
        ""
    } else {
        "agreement between p and r (identical views to scenarios A/B)"
    };
    rows.push(Figure1Row {
        scenario: "C: p=0^d, r=1^d, q Byzantine",
        out_a: p_out,
        out_b: r_out,
        violated,
    });
    rows
}

fn run_figure1(args: &Args) -> Vec<Gate> {
    let d: usize = args.num(0);
    println!(
        "E2 — Lemma 10 / Figure 1 at n = 3, f = 1, d = {d}: any candidate \
         algorithm must break a condition in some scenario."
    );
    println!(
        "Candidate under test: one flooding round, decide the δ*₂-point of \
         the three received values.\n"
    );
    let rows = figure1_demo(d);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.to_string(),
                format!("{}", r.out_a),
                format!("{}", r.out_b),
                if r.violated.is_empty() {
                    "—".to_string()
                } else {
                    r.violated.to_string()
                },
            ]
        })
        .collect();
    print_table(
        "Figure 1 scenarios",
        &["scenario", "output A", "output B", "violated condition"],
        &table,
    );
    let broken = rows.iter().filter(|r| !r.violated.is_empty()).count();
    println!(
        "\nscenarios with a violated condition: {broken} (Lemma 10 predicts ≥ 1 \
         for every algorithm; n ≥ 3f+1 = 4 removes the contradiction)"
    );
    vec![figure1_gate(&rows)]
}

/// E2: the candidate breaks a condition in some scenario.
fn figure1_gate(rows: &[Figure1Row]) -> Gate {
    gate(rows.iter().any(|r| !r.violated.is_empty()), "E2: the candidate broke no condition")
}

/// An f ≥ 2 replication row: `(d, f, construction empty)`.
type Replicated = (usize, usize, bool);

/// E3–E6: every row is certified on both sides, and every replication row
/// is empty.
fn tightness_gates(id: &str, rows: &[TightnessRow], replicated: &[Replicated]) -> Vec<Gate> {
    let mut gates = claim_per_row(id, rows, |r| r.necessity_certified && r.sufficiency_ok);
    gates.extend(claim_per_row(id, replicated, |&(_, _, empty)| empty));
    gates
}

/// The replication rows, and their table.
fn replication(empty: impl Fn(usize, usize) -> bool) -> (Vec<Replicated>, Vec<Vec<String>>) {
    let rows: Vec<_> = [(3usize, 2usize), (4, 2)].into_iter().map(|(d, f)| (d, f, empty(d, f))).collect();
    let table = rows
        .iter()
        .map(|&(d, f, e)| vec![d.to_string(), f.to_string(), ((d + 1) * f).to_string(), e.to_string()])
        .collect();
    (rows, table)
}

fn run_thm3(args: &Args) -> Vec<Gate> {
    let d_max: usize = args.num(0);
    println!(
        "E3 — Theorem 3: at n = d+1 the matrix S(γ,ε) makes Ψ(Y) = ⋂ H₂(T) \
         empty (LP certificate); at n = d+2 a live run with a Byzantine \
         process succeeds."
    );
    let tightness: Vec<TightnessRow> = (3..=d_max).map(theorem3_row).collect();
    let rows: Vec<Vec<String>> = tightness
        .iter()
        .map(|r| {
            vec![
                r.d.to_string(),
                r.n_infeasible.to_string(),
                r.necessity_certified.to_string(),
                r.n_sufficient.to_string(),
                r.sufficiency_ok.to_string(),
            ]
        })
        .collect();
    print_table(
        "Theorem 3 tightness",
        &["d", "n (infeasible)", "Ψ(Y) empty", "n (sufficient)", "run ok"],
        &rows,
    );
    // The f ≥ 2 extension via the simulation (column-replication) argument.
    let (replicated, rep_rows) =
        replication(|d, f| theorem3_psi_empty_replicated(d, f, Tol::default()));
    print_table(
        "Theorem 3, f ≥ 2 via replication",
        &["d", "f", "n (infeasible)", "Ψ(Y) empty"],
        &rep_rows,
    );
    tightness_gates("E3", &tightness, &replicated)
}

fn run_thm4(args: &Args) -> Vec<Gate> {
    let d_max: usize = args.num(0);
    println!(
        "E4 — Theorem 4: at n = d+2 the S(γ,2ε) matrix forces the feasible \
         sets of two correct processes ≥ 2ε apart (ε-agreement impossible); \
         at n = d+3 the asynchronous run converges."
    );
    let tightness: Vec<TightnessRow> = (3..=d_max).map(theorem4_row).collect();
    let rows: Vec<Vec<String>> = tightness
        .iter()
        .map(|r| {
            vec![
                r.d.to_string(),
                r.n_infeasible.to_string(),
                fnum(r.metric),
                r.necessity_certified.to_string(),
                r.n_sufficient.to_string(),
                r.sufficiency_ok.to_string(),
            ]
        })
        .collect();
    print_table(
        "Theorem 4 tightness (ε = 0.1 ⇒ separation ≥ 0.2)",
        &[
            "d",
            "n (infeasible)",
            "Ψ₁↔Ψ₂ separation",
            "≥ 2ε certified",
            "n (sufficient)",
            "run ok",
        ],
        &rows,
    );
    tightness_gates("E4", &tightness, &[])
}

fn run_thm5(args: &Args) -> Vec<Gate> {
    let d_max: usize = args.num(0);
    let delta: f64 = args.num(1);
    println!(
        "E5 — Theorem 5: with x > 2dδ the scaled-identity inputs make \
         ⋂ H_(δ,∞)(T) empty at n = d+1 (LP certificate); n = d+2 succeeds."
    );
    let tightness: Vec<TightnessRow> = (2..=d_max).map(|d| theorem5_row(d, delta)).collect();
    let rows: Vec<Vec<String>> = tightness
        .iter()
        .map(|r| {
            vec![
                r.d.to_string(),
                fnum(r.metric),
                r.n_infeasible.to_string(),
                r.necessity_certified.to_string(),
                r.n_sufficient.to_string(),
                r.sufficiency_ok.to_string(),
            ]
        })
        .collect();
    print_table(
        "Theorem 5 tightness",
        &["d", "δ", "n (infeasible)", "intersection empty", "n (sufficient)", "run ok"],
        &rows,
    );
    let (replicated, rep_rows) =
        replication(|d, f| theorem5_contradiction_replicated(d, f, delta, Tol::default()));
    print_table(
        "Theorem 5, f ≥ 2 via replication",
        &["d", "f", "n (infeasible)", "intersection empty"],
        &rep_rows,
    );
    tightness_gates("E5", &tightness, &replicated)
}

fn run_thm6(args: &Args) -> Vec<Gate> {
    let d_max: usize = args.num(0);
    let delta: f64 = args.num(1);
    let eps: f64 = args.num(2);
    println!(
        "E6 — Theorem 6: with x > 2dδ + ε the construction denies \
         ε-agreement at n = d+2; the asynchronous run at n = d+3 converges."
    );
    let tightness: Vec<TightnessRow> = (2..=d_max).map(|d| theorem6_row(d, delta, eps)).collect();
    let rows: Vec<Vec<String>> = tightness
        .iter()
        .map(|r| {
            vec![
                r.d.to_string(),
                fnum(delta),
                fnum(eps),
                r.n_infeasible.to_string(),
                r.necessity_certified.to_string(),
                r.n_sufficient.to_string(),
                r.sufficiency_ok.to_string(),
            ]
        })
        .collect();
    print_table(
        "Theorem 6 tightness",
        &["d", "δ", "ε", "n (infeasible)", "certified", "n (sufficient)", "run ok"],
        &rows,
    );
    tightness_gates("E6", &tightness, &[])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem3_tightness_d3() {
        let row = theorem3_row(3);
        assert!(row.necessity_certified, "{row:?}");
        assert!(row.sufficiency_ok, "{row:?}");
    }

    #[test]
    fn theorem4_tightness_d3() {
        let row = theorem4_row(3);
        assert!(row.necessity_certified, "{row:?}");
        assert!(row.sufficiency_ok, "{row:?}");
        assert!(row.metric >= 0.2 - 1e-6, "separation 2ε expected");
    }

    #[test]
    fn theorem5_tightness_d3() {
        let row = theorem5_row(3, 0.25);
        assert!(row.necessity_certified, "{row:?}");
        assert!(row.sufficiency_ok, "{row:?}");
    }

    #[test]
    fn theorem6_tightness_d3() {
        let row = theorem6_row(3, 0.25, 0.05);
        assert!(row.necessity_certified, "{row:?}");
        assert!(row.sufficiency_ok, "{row:?}");
    }

    #[test]
    fn a_false_row_fails_a_gate() {
        let row = |necessity_certified, sufficiency_ok| TightnessRow {
            d: 3,
            n_infeasible: 4,
            necessity_certified,
            n_sufficient: 5,
            sufficiency_ok,
            metric: 0.0,
        };
        let failing = |rows: &[TightnessRow], rep: &[Replicated]| {
            tightness_gates("E3", rows, rep).iter().filter(|g| !g.ok).count()
        };
        assert_eq!(failing(&[row(true, true)], &[(3, 2, true)]), 0);
        assert_eq!(failing(&[row(true, true), row(false, true)], &[]), 1);
        assert_eq!(failing(&[row(true, false)], &[]), 1);
        assert_eq!(failing(&[row(true, true)], &[(3, 2, true), (4, 2, false)]), 1);
        let mut scenarios = figure1_demo(3);
        assert!(figure1_gate(&scenarios).ok);
        scenarios.iter_mut().for_each(|r| r.violated = "");
        assert!(!figure1_gate(&scenarios).ok, "no broken condition contradicts Lemma 10");
    }

    #[test]
    fn figure1_candidate_fails_somewhere() {
        let rows = figure1_demo(3);
        assert_eq!(rows.len(), 2);
        // Lemma 10: no algorithm can pass all scenarios; our candidate
        // must break at least one condition.
        assert!(
            rows.iter().any(|r| !r.violated.is_empty()),
            "the candidate algorithm cannot satisfy all scenarios: {rows:?}"
        );
    }
}
