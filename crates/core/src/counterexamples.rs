//! Executable forms of the paper's impossibility constructions.
//!
//! A lower bound cannot be "run", but each proof in the paper is built
//! around an explicit adversarial input matrix whose feasible-output set is
//! empty (or forces an ε-agreement violation). This module constructs those
//! matrices and checks the emptiness/violation with LP certificates:
//!
//! * [`theorem3_inputs`] — synchronous k-relaxed, `k = 2`, `n = d + 1`:
//!   the matrix `S(γ, ε)` of Theorem 3; [`theorem3_psi_empty`] certifies
//!   `Ψ(Y) = ⋂_T H_k(T) = ∅`.
//! * [`theorem5_inputs`] — synchronous (δ,∞), `n = d + 1`: the scaled
//!   identity matrix with `x > 2dδ`; [`theorem5_contradiction`] certifies
//!   the Observation-1/Observation-2 clash.
//! * [`theorem4_inputs`] / [`theorem6_inputs`] — the asynchronous variants
//!   with `d + 2` processes; their checkers certify that the per-process
//!   feasible sets `Ψ₁`, `Ψ₂` are ≥ 2ε apart (ε-agreement impossible).
//! * [`figure1`] — the Lemma 10 ring construction (scenarios A/B/C) showing
//!   input-dependent (δ,p)-consensus impossible for `n ≤ 3f`.

use rbvc_geometry::combinatorics::combinations;
use rbvc_geometry::projection::all_projections;
use rbvc_geometry::lp::{LpBuilder, LpOutcome, VarId};
use rbvc_linalg::{Tol, VecD};

/// Theorem 3 inputs: `d + 1` columns in `R^d`; column `i < d` has zeros
/// above position `i`, `γ` at `i`, `ε` below; column `d` is all `−γ`.
/// Requires `0 < ε ≤ γ`.
#[must_use]
pub fn theorem3_inputs(d: usize, gamma: f64, eps: f64) -> Vec<VecD> {
    assert!(d >= 3, "Theorem 3 needs d >= 3");
    assert!(0.0 < eps && eps <= gamma, "need 0 < ε ≤ γ");
    let mut cols = Vec::with_capacity(d + 1);
    for i in 0..d {
        let mut c = vec![0.0; d];
        c[i] = gamma;
        for item in c.iter_mut().take(d).skip(i + 1) {
            *item = eps;
        }
        cols.push(VecD(c));
    }
    cols.push(VecD(vec![-gamma; d]));
    cols
}

/// Theorem 4 inputs (asynchronous): `d + 2` columns; like Theorem 3 with
/// `2ε` in place of `ε` (requires `0 < 2ε < γ`) plus an all-zero column.
#[must_use]
pub fn theorem4_inputs(d: usize, gamma: f64, eps: f64) -> Vec<VecD> {
    assert!(d >= 3, "Theorem 4 needs d >= 3");
    assert!(0.0 < 2.0 * eps && 2.0 * eps < gamma, "need 0 < 2ε < γ");
    let mut cols = theorem3_inputs(d, gamma, 2.0 * eps);
    cols.push(VecD::zeros(d));
    cols
}

/// Theorem 5 inputs: `d + 1` columns; column `i < d` is `x·e_i`, column `d`
/// is all-zero. The contradiction needs `x > 2dδ`.
#[must_use]
pub fn theorem5_inputs(d: usize, x: f64) -> Vec<VecD> {
    assert!(d >= 2, "Theorem 5 necessity argument needs d >= 2");
    assert!(x > 0.0);
    let mut cols: Vec<VecD> = (0..d).map(|i| VecD::scaled_basis(d, i, x)).collect();
    cols.push(VecD::zeros(d));
    cols
}

/// Theorem 6 inputs (asynchronous): Theorem 5's columns plus a second
/// all-zero column (`d + 2` processes). Needs `x > 2dδ + ε`.
#[must_use]
pub fn theorem6_inputs(d: usize, x: f64) -> Vec<VecD> {
    let mut cols = theorem5_inputs(d, x);
    cols.push(VecD::zeros(d));
    cols
}

/// Certify `Ψ(Y) = ⋂_{|T| = |Y|−f} H_k(T) = ∅` by LP: a single feasibility
/// problem with one hull-membership block per `(T, D)` pair. Returns `true`
/// iff the set is certified empty.
#[must_use]
pub fn psi_k_empty(points: &[VecD], f: usize, k: usize, tol: Tol) -> bool {
    psi_k_point(points, f, k, tol).is_none()
}

/// Find a point of `Ψ(Y)` (the output set any correct k-relaxed algorithm
/// must hit), or `None` when it is empty.
#[must_use]
pub fn psi_k_point(points: &[VecD], f: usize, k: usize, tol: Tol) -> Option<VecD> {
    let n = points.len();
    let d = points[0].dim();
    let mut lp = LpBuilder::new();
    let x = lp.free_vars(d);
    for t_idx in combinations(n, n - f) {
        for proj in all_projections(d, k) {
            add_projected_membership(&mut lp, &x, points, &t_idx, proj.indices());
        }
    }
    lp.minimize(vec![]);
    match lp.solve(tol) {
        LpOutcome::Optimal { x: sol, .. } => Some(VecD((0..d).map(|i| sol[i]).collect())),
        _ => None,
    }
}

/// Add rows stating `g_D(x) ∈ H(g_D({points[j] : j ∈ subset}))`.
fn add_projected_membership(
    lp: &mut LpBuilder,
    x: &[VarId],
    points: &[VecD],
    subset: &[usize],
    coords: &[usize],
) {
    let lam = lp.nonneg_vars(subset.len());
    lp.eq(lam.iter().map(|&v| (v, 1.0)).collect(), 1.0);
    for &c in coords {
        let mut row: Vec<_> = lam
            .iter()
            .zip(subset)
            .map(|(&v, &j)| (v, points[j][c]))
            .collect();
        row.push((x[c], -1.0));
        lp.eq(row, 0.0);
    }
}

/// Theorem 3's end-to-end certificate for the given dimension: at
/// `n = d + 1`, `f = 1`, `k = 2`, the matrix `S(γ, ε)` has empty `Ψ(Y)`.
#[must_use]
pub fn theorem3_psi_empty(d: usize, tol: Tol) -> bool {
    let inputs = theorem3_inputs(d, 1.0, 0.5);
    psi_k_empty(&inputs, 1, 2, tol)
}

/// The `f > 1` extension via the simulation approach \[12\] made executable:
/// replicate each of the `d + 1` columns `f` times, giving `n = (d+1)f`
/// inputs, and certify that `Ψ(Y)` with `f` faults is still empty. (Any
/// `(n−f)`-subset omits at most `f` inputs; the binding subsets are those
/// omitting all `f` copies of one column — exactly the `f = 1`
/// constraints — so emptiness transfers.)
#[must_use]
pub fn theorem3_psi_empty_replicated(d: usize, f: usize, tol: Tol) -> bool {
    assert!(f >= 1);
    let base = theorem3_inputs(d, 1.0, 0.5);
    let inputs = replicate_inputs(&base, f);
    psi_k_empty(&inputs, f, 2, tol)
}

/// Theorem 5's `f > 1` extension by the same column replication: `n =
/// (d+1)f` inputs, `⋂_{|T|=n−f} H_(δ,∞)(T) = ∅` for `x > 2dδ`.
#[must_use]
pub fn theorem5_contradiction_replicated(d: usize, f: usize, delta: f64, tol: Tol) -> bool {
    let x = 2.0 * d as f64 * delta * 1.01 + 1.0;
    let base = theorem5_inputs(d, x);
    let inputs = replicate_inputs(&base, f);
    rbvc_geometry::gamma::gamma_delta_point(&inputs, f, delta, rbvc_linalg::Norm::LInf, tol)
        .is_none()
}

/// Repeat each input `f` times (the multiset replication of the simulation
/// argument — each group of `f` identical inputs stands for one simulated
/// process of the `f = 1` construction).
#[must_use]
pub fn replicate_inputs(base: &[VecD], f: usize) -> Vec<VecD> {
    base.iter()
        .flat_map(|v| std::iter::repeat_n(v.clone(), f))
        .collect()
}

/// Theorem 5's contradiction at `n = d + 1`, `f = 1`: with the identity
/// matrix scaled by `x > 2dδ`, the intersection
/// `⋂_{|T| = n−1} H_(δ,∞)(T)` is empty. Certified by LP.
#[must_use]
pub fn theorem5_contradiction(d: usize, delta: f64, tol: Tol) -> bool {
    let x = 2.0 * d as f64 * delta * 1.01 + 1.0; // safely above the threshold
    let inputs = theorem5_inputs(d, x);
    rbvc_geometry::gamma::gamma_delta_point(&inputs, 1, delta, rbvc_linalg::Norm::LInf, tol)
        .is_none()
}

/// The feasible-output set `Ψ_i(S)` of process `i` in the asynchronous
/// necessity arguments (Appendix B/C): the intersection over all
/// `j ∉ {i, d+2}` of the relaxed hulls of `S^j = S − {s_j}` (process `i`
/// cannot trust any single other process, and `d+2` may be slow).
/// Returns a witness point minimizing nothing (pure feasibility), over the
/// k-relaxed hulls.
#[must_use]
pub fn async_psi_k_point(
    points: &[VecD],
    i: usize,
    k: usize,
    tol: Tol,
) -> Option<VecD> {
    let n = points.len(); // d + 2 processes, ids 0..n-1; "slow" one is n-1
    let d = points[0].dim();
    let mut lp = LpBuilder::new();
    let x = lp.free_vars(d);
    for j in 0..n - 1 {
        if j == i {
            continue;
        }
        // S^j = all inputs except j's (the potentially-faulty process),
        // and except the slow process n−1 which contributed nothing yet —
        // matching the proof's S^j = {s_l : 1 ≤ l ≤ d+1, l ≠ j}.
        let subset: Vec<usize> = (0..n - 1).filter(|&l| l != j).collect();
        for proj in all_projections(d, k) {
            add_projected_membership(&mut lp, &x, points, &subset, proj.indices());
        }
    }
    lp.minimize(vec![]);
    match lp.solve(tol) {
        LpOutcome::Optimal { x: sol, .. } => Some(VecD((0..d).map(|c| sol[c]).collect())),
        _ => None,
    }
}

/// Theorem 4's quantitative violation: for the `S(γ, 2ε)` construction the
/// feasible sets of processes 1 and 2 are at L∞ distance ≥ 2ε, hence
/// ε-agreement is impossible at `n = d + 2`. Returns the certified minimum
/// separation `min_{v₁ ∈ Ψ₁, v₂ ∈ Ψ₂} ||v₁ − v₂||_∞` lower bound witness:
/// here we exploit the proof's structure — coordinate 0 is pinned to
/// `≥ 2ε` on Ψ₁ and to `0` on Ψ₂ — and return the separation in
/// coordinate 0 of the two witness points.
#[must_use]
pub fn theorem4_separation(d: usize, gamma: f64, eps: f64, tol: Tol) -> Option<f64> {
    let inputs = theorem4_inputs(d, gamma, eps);
    let p1 = async_psi_k_point(&inputs, 0, 2, tol)?;
    let p2 = async_psi_k_point(&inputs, 1, 2, tol)?;
    // The proof pins coordinate 0 (paper's first coordinate).
    Some((p1[0] - p2[0]).abs())
}

/// Lemma 10 / Figure 1: the three-scenario ring construction showing
/// input-dependent (δ,p)-consensus impossible for `n = 3, f = 1`.
pub mod figure1 {
    use rbvc_linalg::VecD;

    /// One of the three executions in Figure 1.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Scenario {
        /// Six processes `p₀ q₀ r₀ p₁ q₁ r₁` joined into a ring; the first
        /// three start with `0^d`, the rest with `1^d`.
        Ring,
        /// `p, q` correct with input `0^d`; `r` Byzantine replaying the ring.
        BothZero,
        /// `p` correct with `0^d`, `r` correct with `1^d`; `q` Byzantine.
        Mixed,
    }

    /// What validity forces in each scenario, for any algorithm solving
    /// input-dependent (δ,p)-consensus (δ ≤ κ·max-edge, and max-edge = 0
    /// when all correct inputs coincide — so no relaxation is available).
    #[derive(Debug, Clone)]
    pub struct ForcedOutcome {
        /// Required output of the correct processes, or `None` if the
        /// scenario leaves the output unconstrained.
        pub required: Option<VecD>,
        /// Human-readable reason.
        pub reason: &'static str,
    }

    /// The validity constraint analysis of the proof.
    #[must_use]
    pub fn forced_outcome(scenario: Scenario, d: usize) -> ForcedOutcome {
        match scenario {
            Scenario::Ring => ForcedOutcome {
                required: None,
                reason: "the ring is a single (contradiction-deriving) execution",
            },
            Scenario::BothZero => ForcedOutcome {
                required: Some(VecD::zeros(d)),
                reason: "correct inputs identical ⇒ max-edge = 0 ⇒ δ = 0 ⇒ output = 0^d",
            },
            Scenario::Mixed => ForcedOutcome {
                required: None,
                reason: "p and r must agree on one output despite inputs 0^d and 1^d",
            },
        }
    }

    /// The contradiction of the proof: scenario `BothZero` forces `p` to
    /// output `0^d` in the ring (as `p₀`); symmetrically `r₁` outputs
    /// `1^d`; but scenario `Mixed` makes `p₀` and `r₁` parts of one
    /// correct pair that must agree. Returns the pair of irreconcilable
    /// required outputs.
    #[must_use]
    pub fn contradiction(d: usize) -> (VecD, VecD) {
        (VecD::zeros(d), VecD::ones(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbvc_geometry::relaxed::KRelaxedHull;
    use rbvc_linalg::Norm;

    fn t() -> Tol {
        Tol::default()
    }

    #[test]
    fn theorem3_matrix_shape_matches_paper() {
        // d = 4, γ = 1, ε = 0.5: check a few entries against the displayed
        // matrix (column i has γ at i, 0 above, ε below; last column −γ).
        let s = theorem3_inputs(4, 1.0, 0.5);
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].as_slice(), &[1.0, 0.5, 0.5, 0.5]);
        assert_eq!(s[1].as_slice(), &[0.0, 1.0, 0.5, 0.5]);
        assert_eq!(s[3].as_slice(), &[0.0, 0.0, 0.0, 1.0]);
        assert_eq!(s[4].as_slice(), &[-1.0, -1.0, -1.0, -1.0]);
    }

    #[test]
    fn theorem3_psi_is_empty_for_small_dimensions() {
        for d in 3..=5 {
            assert!(
                theorem3_psi_empty(d, t()),
                "Theorem 3 Ψ(Y) unexpectedly nonempty at d = {d}"
            );
        }
    }

    #[test]
    fn theorem3_observations_hold_individually() {
        // Observation 4: with T = Y − {s_{d+1}} and D = {d−2, d−1}, the last
        // coordinate of any feasible point is ≥ ε. Check via the k-hull.
        let d = 3;
        let eps = 0.5;
        let s = theorem3_inputs(d, 1.0, eps);
        let t_set: Vec<VecD> = s[..d].to_vec(); // drop the last input
        let hk = KRelaxedHull::new(t_set, 2);
        // A point with last coordinate 0 violates the projected hull.
        let candidate = VecD::from_slice(&[0.0, 0.0, 0.0]);
        assert!(
            !hk.contains(&candidate, t()),
            "Observation 4: 0 in the last coordinate must be infeasible"
        );
    }

    #[test]
    fn theorem3_with_one_more_process_becomes_feasible() {
        // Ψ is empty at n = d+1 but Γ-style feasibility returns at
        // n = (d+1)f+1 = d+2 (add the origin as an extra input).
        let d = 3;
        let mut inputs = theorem3_inputs(d, 1.0, 0.5);
        inputs.push(VecD::zeros(d));
        assert!(
            psi_k_point(&inputs, 1, 2, t()).is_some(),
            "one more process must restore feasibility"
        );
    }

    #[test]
    fn theorem3_replication_extends_to_f2() {
        // The simulation argument: the same construction with every column
        // doubled is infeasible at n = (d+1)·2 with f = 2.
        assert!(theorem3_psi_empty_replicated(3, 2, t()));
    }

    #[test]
    fn theorem5_replication_extends_to_f2() {
        assert!(theorem5_contradiction_replicated(3, 2, 0.25, t()));
    }

    #[test]
    fn replicate_inputs_shape() {
        let base = vec![VecD::zeros(2), VecD::ones(2)];
        let rep = replicate_inputs(&base, 3);
        assert_eq!(rep.len(), 6);
        assert_eq!(rep[0], rep[2]);
        assert_eq!(rep[3], rep[5]);
        assert_ne!(rep[2], rep[3]);
    }

    #[test]
    fn theorem5_matrix_shape() {
        let s = theorem5_inputs(3, 10.0);
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].as_slice(), &[10.0, 0.0, 0.0]);
        assert_eq!(s[2].as_slice(), &[0.0, 0.0, 10.0]);
        assert_eq!(s[3].as_slice(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn theorem5_contradiction_certified() {
        for d in 2..=5 {
            assert!(
                theorem5_contradiction(d, 0.25, t()),
                "Theorem 5 intersection unexpectedly nonempty at d = {d}"
            );
        }
    }

    #[test]
    fn theorem5_small_x_is_feasible() {
        // With x ≤ 2δ the fattened hulls DO intersect (the bound on x is
        // what drives the contradiction).
        let d = 3;
        let delta = 0.25;
        let inputs = theorem5_inputs(d, 0.4); // 0.4 < 2δ(d…) threshold
        assert!(
            rbvc_geometry::gamma::gamma_delta_point(&inputs, 1, delta, Norm::LInf, t())
                .is_some(),
            "small x must not produce a contradiction"
        );
    }

    #[test]
    fn theorem4_separation_is_at_least_two_eps() {
        let (gamma, eps) = (1.0, 0.1);
        for d in 3..=4 {
            let sep = theorem4_separation(d, gamma, eps, t())
                .expect("both Ψ sets nonempty");
            assert!(
                sep >= 2.0 * eps - 1e-6,
                "Theorem 4 separation {sep} < 2ε at d = {d}"
            );
        }
    }

    #[test]
    fn theorem6_inputs_have_d_plus_2_columns() {
        let s = theorem6_inputs(3, 50.0);
        assert_eq!(s.len(), 5);
        assert_eq!(s[3], VecD::zeros(3));
        assert_eq!(s[4], VecD::zeros(3));
    }

    #[test]
    fn figure1_forced_outcomes() {
        use figure1::*;
        let f = forced_outcome(Scenario::BothZero, 3);
        assert_eq!(f.required, Some(VecD::zeros(3)));
        let (a, b) = contradiction(3);
        assert_ne!(a, b, "the two forced outputs must be irreconcilable");
    }

    #[test]
    #[should_panic(expected = "0 < ε ≤ γ")]
    fn theorem3_rejects_bad_parameters() {
        let _ = theorem3_inputs(3, 1.0, 2.0);
    }
}
