//! Deterministic decision rules applied to the broadcast multiset `S`.
//!
//! Every synchronous algorithm in the paper has the same shape (ALGO, §9):
//! Step 1 Byzantine-broadcasts all inputs so that **every correct process
//! holds the identical multiset `S`**; Step 2 applies a deterministic
//! function of `S`. Agreement is then automatic; the rule determines which
//! validity condition holds and at which `n`:
//!
//! * [`DecisionRule::GammaPoint`] — a point of `Γ(S)` (Exact BVC, Vaidya–
//!   Garg \[19\]; also k-relaxed consensus for `2 ≤ k ≤ d` since
//!   `H(T) ⊆ H_k(T)`). Requires `n ≥ (d+1)f + 1` for nonemptiness
//!   (Tverberg).
//! * [`DecisionRule::CoordinateTrimmedMidpoint`] — per-coordinate scalar
//!   consensus (1-relaxed consensus, §5.3). Requires only `n ≥ 3f + 1`
//!   (the broadcast bound).
//! * [`DecisionRule::MinDeltaPoint`] — ALGO Step 2: the smallest δ making
//!   `Γ_(δ,p)(S)` nonempty and a deterministic point of it. Solves
//!   input-dependent (δ,p)-relaxed consensus at `n ≥ 3f + 1` (§9).

use rbvc_geometry::minmax::delta_star;
use rbvc_geometry::{gamma_point, ConvexHull};
use rbvc_linalg::{Norm, Tol, VecD};
use serde::{Deserialize, Serialize};

/// A deterministic function of the common multiset `S`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DecisionRule {
    /// Pick a point of `Γ(S)` (LP-deterministic).
    GammaPoint,
    /// Per-coordinate: drop the `f` lowest and `f` highest values, output
    /// the midpoint of the surviving range.
    CoordinateTrimmedMidpoint,
    /// ALGO Step 2: δ*(S) and a witness point of `Γ_(δ*,p)(S)`.
    MinDeltaPoint(Norm),
}

/// A rule's decision, with the δ it needed (0 for the non-relaxed rules).
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// The decided vector.
    pub value: VecD,
    /// The relaxation radius actually used (δ*(S) for `MinDeltaPoint`).
    pub delta: f64,
}

impl DecisionRule {
    /// Apply the rule to the common multiset `S` with fault bound `f`.
    ///
    /// # Panics
    /// Panics if `S` is empty, `f ≥ |S|`, or — for `GammaPoint` — if
    /// `Γ(S)` is empty (the caller violated `n ≥ (d+1)f + 1`; that regime
    /// is precisely what the paper's impossibility results rule out).
    #[must_use]
    pub fn decide(&self, s: &[VecD], f: usize, tol: Tol) -> Decision {
        assert!(!s.is_empty(), "decision over empty multiset");
        assert!(f < s.len(), "decision requires f < |S|");
        match self {
            DecisionRule::GammaPoint => {
                let value = gamma_point(s, f, tol).expect(
                    "Γ(S) empty: GammaPoint rule used below n >= (d+1)f + 1",
                );
                Decision { value, delta: 0.0 }
            }
            DecisionRule::CoordinateTrimmedMidpoint => {
                let d = s[0].dim();
                let n = s.len();
                assert!(n > 2 * f, "trimmed midpoint requires n > 2f");
                let mut out = VecD::zeros(d);
                for i in 0..d {
                    let mut coords: Vec<f64> = s.iter().map(|v| v[i]).collect();
                    coords.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    let kept = &coords[f..n - f];
                    out[i] = 0.5 * (kept[0] + kept[kept.len() - 1]);
                }
                Decision {
                    value: out,
                    delta: 0.0,
                }
            }
            DecisionRule::MinDeltaPoint(norm) => {
                let ds = delta_star(s, f, *norm, tol);
                Decision {
                    value: ds.witness,
                    delta: ds.delta,
                }
            }
        }
    }
}

/// Check the inductive validity invariant of `GammaPoint`: the decision is
/// in the hull of every `(n−f)`-subset of `S`, hence in `H(N)` whichever
/// `f` entries were faulty.
#[must_use]
pub fn gamma_decision_in_correct_hull(
    s: &[VecD],
    _f: usize,
    decision: &VecD,
    correct_indices: &[usize],
    tol: Tol,
) -> bool {
    let correct: Vec<VecD> = correct_indices.iter().map(|&i| s[i].clone()).collect();
    ConvexHull::new(correct).contains(decision, tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Tol {
        Tol::default()
    }

    #[test]
    fn gamma_rule_survives_any_fault_choice() {
        // n = 4 points in R², f = 1: decision must lie in the hull of every
        // 3-subset — in particular the all-correct one, whoever is faulty.
        let s = vec![
            VecD::from_slice(&[0.0, 0.0]),
            VecD::from_slice(&[2.0, 0.0]),
            VecD::from_slice(&[0.0, 2.0]),
            VecD::from_slice(&[5.0, 5.0]), // adversarial outlier
        ];
        let d = DecisionRule::GammaPoint.decide(&s, 1, t());
        assert_eq!(d.delta, 0.0);
        for faulty in 0..4 {
            let correct: Vec<usize> = (0..4).filter(|&i| i != faulty).collect();
            assert!(
                gamma_decision_in_correct_hull(&s, 1, &d.value, &correct, Tol(1e-6)),
                "validity broken when process {faulty} is the faulty one"
            );
        }
    }

    #[test]
    fn trimmed_midpoint_stays_in_correct_range() {
        // Coordinates with one huge adversarial value; after trimming f = 1
        // from each side, the midpoint is inside the correct range.
        let s = vec![
            VecD::from_slice(&[1.0]),
            VecD::from_slice(&[2.0]),
            VecD::from_slice(&[3.0]),
            VecD::from_slice(&[1000.0]), // faulty
        ];
        let d = DecisionRule::CoordinateTrimmedMidpoint.decide(&s, 1, t());
        assert!((d.value[0] - 2.5).abs() < 1e-12, "midpoint of [2,3]");
        assert!(d.value[0] >= 1.0 && d.value[0] <= 3.0);
    }

    #[test]
    fn trimmed_midpoint_handles_low_outlier_too() {
        let s = vec![
            VecD::from_slice(&[-1000.0]), // faulty
            VecD::from_slice(&[1.0]),
            VecD::from_slice(&[2.0]),
            VecD::from_slice(&[3.0]),
        ];
        let d = DecisionRule::CoordinateTrimmedMidpoint.decide(&s, 1, t());
        assert!((d.value[0] - 1.5).abs() < 1e-12, "midpoint of [1,2]");
    }

    #[test]
    fn min_delta_rule_reports_inradius_for_simplex() {
        let s = vec![
            VecD::from_slice(&[0.0, 0.0]),
            VecD::from_slice(&[3.0, 0.0]),
            VecD::from_slice(&[0.0, 4.0]),
        ];
        let d = DecisionRule::MinDeltaPoint(Norm::L2).decide(&s, 1, t());
        assert!((d.delta - 1.0).abs() < 1e-8, "3-4-5 inradius");
        assert!(d.value.approx_eq(&VecD::from_slice(&[1.0, 1.0]), Tol(1e-7)));
    }

    #[test]
    fn min_delta_zero_above_tverberg_bound() {
        let s = vec![
            VecD::from_slice(&[0.0, 0.0]),
            VecD::from_slice(&[2.0, 0.0]),
            VecD::from_slice(&[1.0, 2.0]),
            VecD::from_slice(&[1.0, 0.7]),
        ];
        let d = DecisionRule::MinDeltaPoint(Norm::L2).decide(&s, 1, t());
        assert_eq!(d.delta, 0.0);
    }

    #[test]
    fn rules_are_deterministic() {
        let s = vec![
            VecD::from_slice(&[0.1, 0.9]),
            VecD::from_slice(&[2.3, -0.4]),
            VecD::from_slice(&[-1.0, 1.5]),
            VecD::from_slice(&[0.8, 0.2]),
        ];
        for rule in [
            DecisionRule::GammaPoint,
            DecisionRule::CoordinateTrimmedMidpoint,
            DecisionRule::MinDeltaPoint(Norm::L2),
            DecisionRule::MinDeltaPoint(Norm::LInf),
        ] {
            let a = rule.decide(&s, 1, t());
            let b = rule.decide(&s, 1, t());
            assert_eq!(a, b, "rule {rule:?} must be deterministic");
        }
    }

    #[test]
    #[should_panic(expected = "GammaPoint rule used below")]
    fn gamma_rule_panics_below_bound() {
        // 3 affinely independent points in R², f = 1: Γ empty.
        let s = vec![
            VecD::from_slice(&[0.0, 0.0]),
            VecD::from_slice(&[1.0, 0.0]),
            VecD::from_slice(&[0.0, 1.0]),
        ];
        let _ = DecisionRule::GammaPoint.decide(&s, 1, t());
    }
}
