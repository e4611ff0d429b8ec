//! The δ* solver: `δ*(S) = min_p max_{T ⊆ S, |T| = |S|−f} dist_p(p, H(T))`
//! (Step 2 of algorithm ALGO, paper §9).
//!
//! Strategy by norm:
//! * **L1 / L∞** — a single exact LP ([`crate::gamma::min_delta_polyhedral`]).
//! * **L2** — closed forms where the paper provides them, otherwise a
//!   bracketed bisection with POCS (cyclic projections) feasibility checks:
//!   - *Fast path (Lemma 13 / Theorem 8 / Theorem 9 Case II):* for `f = 1`
//!     and `n ≤ d + 1`, isometrically project onto the affine span; if the
//!     points form a simplex there, `δ* = inradius`, witness = incenter;
//!     if they are affinely dependent, `δ* = 0` (Theorem 8) with an LP
//!     witness.
//!   - *General path:* `δ*₂` is bracketed by the LP-exact L∞ value
//!     (`δ*_∞ ≤ δ*₂ ≤ √d · δ*_∞`, by norm equivalence) and refined by
//!     bisection; each feasibility probe runs cyclic Euclidean projections
//!     onto the δ-fattened subset hulls.
//!
//! Accuracy of the general path is fixed by two constants next to the
//! bisection; the test suite pins it against the Lemma 13 closed form.

use rbvc_linalg::affine::IsometricProjection;
use rbvc_linalg::{Norm, Tol, VecD};
use rbvc_obs::{time_kernel, Kernel};

use crate::gamma::{gamma_point, min_delta_polyhedral, subset_hulls};
use crate::hull::ConvexHull;
use crate::simplex_geom::Simplex;

/// Result of a δ* computation.
#[derive(Debug, Clone)]
pub struct DeltaStar {
    /// The minimal δ making `Γ_(δ,p)(S)` nonempty (within solver accuracy).
    pub delta: f64,
    /// A point realizing (approximately) that δ against every subset hull.
    pub witness: VecD,
    /// Which computation path produced the answer.
    pub method: Method,
}

/// Solver path taken (for diagnostics and experiment reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Exact LP (L1/L∞ norms).
    PolyhedralLp,
    /// Lemma 13 closed form: inradius/incenter of the (projected) simplex.
    InradiusClosedForm,
    /// Theorem 8: affinely dependent inputs, δ* = 0 with LP witness.
    DegenerateZero,
    /// Bisection with POCS feasibility probes.
    BisectionPocs,
}

/// The max-distance objective `F(x) = max_T dist₂(x, H(T))` and the index of
/// the farthest hull.
#[must_use]
pub fn max_distance(hulls: &[ConvexHull], x: &VecD, tol: Tol) -> (f64, usize) {
    hulls
        .iter()
        .enumerate()
        .map(|(i, h)| (h.project(x, tol).1, i))
        .fold((f64::NEG_INFINITY, 0), |a, b| if a.0 >= b.0 { a } else { b })
}

/// Compute `δ*(S)` for the given norm.
///
/// ```
/// use rbvc_geometry::minmax::delta_star;
/// use rbvc_linalg::{Norm, Tol, VecD};
///
/// // The 3-4-5 triangle: δ*₂ is its inradius 1 (Lemma 13), realized at the
/// // incenter (1, 1).
/// let s = vec![
///     VecD::from_slice(&[0.0, 0.0]),
///     VecD::from_slice(&[3.0, 0.0]),
///     VecD::from_slice(&[0.0, 4.0]),
/// ];
/// let ds = delta_star(&s, 1, Norm::L2, Tol::default());
/// assert!((ds.delta - 1.0).abs() < 1e-8);
/// ```
///
/// # Panics
/// Panics if `points` is empty or `f ≥ |points|`.
#[must_use]
pub fn delta_star(points: &[VecD], f: usize, norm: Norm, tol: Tol) -> DeltaStar {
    assert!(!points.is_empty(), "delta_star: empty input multiset");
    assert!(f < points.len(), "delta_star requires f < n");
    time_kernel(Kernel::PsiOracle, || match norm {
        Norm::L1 | Norm::LInf => {
            let (delta, witness) = min_delta_polyhedral(points, f, norm, tol);
            DeltaStar {
                delta,
                witness,
                method: Method::PolyhedralLp,
            }
        }
        Norm::L2 => delta_star_l2(points, f, tol),
        Norm::Lp(_) => {
            // General p: bracket by the polyhedral values and bisect with
            // approximate distance probes (documented approximate path).
            delta_star_general_p(points, f, norm, tol)
        }
    })
}

/// δ*₂ with closed-form fast paths (see module docs).
#[must_use]
pub fn delta_star_l2(points: &[VecD], f: usize, tol: Tol) -> DeltaStar {
    let n = points.len();

    // Fast paths for f = 1 (Theorem 8 / Lemma 13 / Theorem 9 Case II).
    if f == 1 {
        let proj = IsometricProjection::span_of(points, tol);
        let m = proj.target_dim();
        if n == m + 1 {
            // Affinely independent in their span: simplex; δ* = inradius.
            let projected: Vec<VecD> = points.iter().map(|p| proj.project(p)).collect();
            if let Some(simplex) = Simplex::new(projected, tol) {
                let witness = proj.lift(&simplex.incenter());
                return DeltaStar {
                    delta: simplex.inradius(),
                    witness,
                    method: Method::InradiusClosedForm,
                };
            }
        } else if n > m + 1 {
            // Affinely dependent (Theorem 8): δ* = 0 — provided Γ(S) is
            // indeed nonempty, which Theorem 8 guarantees for n ≤ d+1 points
            // spanning < n−1 dimensions. Verify by LP; fall through if not.
            if let Some(witness) = gamma_point(points, f, tol) {
                return DeltaStar {
                    delta: 0.0,
                    witness,
                    method: Method::DegenerateZero,
                };
            }
        }
    }
    // General case: Γ(S) nonempty at δ = 0?
    if let Some(witness) = gamma_point(points, f, tol) {
        return DeltaStar {
            delta: 0.0,
            witness,
            method: Method::DegenerateZero,
        };
    }
    bisection_pocs(points, f, tol)
}

/// Relative width at which the bisection stops.
const BISECTION_REL_TOL: f64 = 1e-7;

/// Maximum POCS cycles per feasibility probe.
const POCS_MAX_CYCLES: usize = 400;

/// Bracketed bisection with POCS feasibility probes for the L2 norm.
fn bisection_pocs(points: &[VecD], f: usize, tol: Tol) -> DeltaStar {
    let d = points[0].dim();
    let hulls = subset_hulls(points, f);

    // Bracket via the LP-exact L∞ value: δ*_∞ ≤ δ*₂ ≤ √d δ*_∞.
    let (delta_inf, start) = min_delta_polyhedral(points, f, Norm::LInf, tol);
    let mut lo = delta_inf;
    let mut hi = delta_inf * (d as f64).sqrt();
    // The L∞ witness is feasible at F(start); tighten `hi` with it.
    let mut best_point = start;
    let (f_start, _) = max_distance(&hulls, &best_point, tol);
    hi = hi.min(f_start);
    let mut best_val = f_start;

    let scale = points.iter().fold(1.0_f64, |m, p| m.max(p.max_abs()));
    let abs_floor = tol.scaled(scale).value() * 10.0;

    while hi - lo > BISECTION_REL_TOL * hi.max(abs_floor) && hi - lo > abs_floor {
        let mid = 0.5 * (lo + hi);
        let feas_slack = 0.25 * (hi - lo);
        match pocs_probe(&hulls, &best_point, mid, feas_slack, tol) {
            Some((point, achieved)) => {
                best_point = point;
                best_val = achieved;
                hi = achieved.min(mid + feas_slack);
                if hi <= lo {
                    lo = (hi - abs_floor).max(0.0);
                }
            }
            None => {
                lo = mid;
            }
        }
    }
    DeltaStar {
        delta: best_val.max(lo).min(hi.max(best_val)),
        witness: best_point,
        method: Method::BisectionPocs,
    }
}

/// POCS probe: starting from `x0`, cyclically project onto the δ-fattened
/// subset hulls. Returns the final point and its max distance if that max
/// distance gets within `delta + slack`; `None` if the probe stalls above it.
fn pocs_probe(
    hulls: &[ConvexHull],
    x0: &VecD,
    delta: f64,
    slack: f64,
    tol: Tol,
) -> Option<(VecD, f64)> {
    let mut x = x0.clone();
    let mut best_f = f64::INFINITY;
    let mut best_x = x.clone();
    let mut stall = 0usize;
    for _ in 0..POCS_MAX_CYCLES {
        // One cycle of projections onto each fattened hull.
        for h in hulls {
            let (proj, dist) = h.project(&x, tol);
            if dist > delta {
                // Move to the δ-sphere around the hull along the projection ray.
                let t = (dist - delta) / dist;
                x = x.lerp(&proj, t);
            }
        }
        let (fval, _) = max_distance(hulls, &x, tol);
        if fval < best_f - 1e-15 {
            if best_f - fval < 1e-3 * slack.max(1e-12) {
                stall += 1;
            } else {
                stall = 0;
            }
            best_f = fval;
            best_x = x.clone();
        } else {
            stall += 1;
        }
        if best_f <= delta + slack {
            return Some((best_x, best_f));
        }
        if stall > 12 {
            break;
        }
    }
    if best_f <= delta + slack {
        Some((best_x, best_f))
    } else {
        None
    }
}

/// General-p path: bisection over δ with approximate Lp distance probes.
fn delta_star_general_p(points: &[VecD], f: usize, norm: Norm, tol: Tol) -> DeltaStar {
    // Seed from the L2 solution (distances within norm-equivalence factors).
    let l2 = delta_star_l2(points, f, tol);
    let hulls = subset_hulls(points, f);
    let fmax = |x: &VecD| -> f64 {
        hulls
            .iter()
            .map(|h| h.distance(x, norm, tol))
            .fold(0.0_f64, f64::max)
    };
    // Local refinement around the L2 witness with a farthest-hull descent.
    let mut x = l2.witness.clone();
    let mut best = fmax(&x);
    let mut best_x = x.clone();
    let mut step = 0.5;
    for _ in 0..200 {
        // Move toward the Euclidean projection of the farthest (in Lp) hull.
        let (far_val, far_idx) = hulls
            .iter()
            .enumerate()
            .map(|(i, h)| (h.distance(&x, norm, tol), i))
            .fold((f64::NEG_INFINITY, 0), |a, b| if a.0 >= b.0 { a } else { b });
        if far_val < tol.value() {
            best = 0.0;
            best_x = x.clone();
            break;
        }
        let (proj, _) = hulls[far_idx].project(&x, tol);
        let candidate = x.lerp(&proj, step);
        let cand_val = fmax(&candidate);
        if cand_val < best {
            best = cand_val;
            best_x = candidate.clone();
            x = candidate;
        } else {
            step *= 0.7;
            if step < 1e-6 {
                break;
            }
        }
    }
    DeltaStar {
        delta: best,
        witness: best_x,
        method: Method::BisectionPocs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn t() -> Tol {
        Tol::default()
    }


    #[test]
    fn lemma13_triangle_inradius() {
        // f = 1, n = d + 1 = 3 in R²: δ*₂ = inradius = 1 for the 3-4-5
        // triangle, witness = incenter (1, 1).
        let pts = vec![
            VecD::from_slice(&[0.0, 0.0]),
            VecD::from_slice(&[3.0, 0.0]),
            VecD::from_slice(&[0.0, 4.0]),
        ];
        let ds = delta_star(&pts, 1, Norm::L2, t());
        assert_eq!(ds.method, Method::InradiusClosedForm);
        assert!((ds.delta - 1.0).abs() < 1e-9);
        assert!(ds.witness.approx_eq(&VecD::from_slice(&[1.0, 1.0]), Tol(1e-8)));
    }

    #[test]
    fn theorem8_degenerate_inputs_give_zero() {
        // 4 points in R³ lying on a plane (affinely dependent): δ* = 0.
        let pts = vec![
            VecD::from_slice(&[0.0, 0.0, 0.0]),
            VecD::from_slice(&[1.0, 0.0, 0.0]),
            VecD::from_slice(&[0.0, 1.0, 0.0]),
            VecD::from_slice(&[1.0, 1.0, 0.0]),
        ];
        let ds = delta_star(&pts, 1, Norm::L2, t());
        assert_eq!(ds.method, Method::DegenerateZero);
        assert_eq!(ds.delta, 0.0);
        // Witness must be in every 3-subset hull.
        assert!(crate::gamma::verify_gamma_membership(&pts, 1, &ds.witness, Tol(1e-6)));
    }

    #[test]
    fn case_ii_projection_matches_lower_dimensional_simplex() {
        // n = 3 points in R³ (n < d + 1): project to their 2D span; the
        // triangle inradius is δ*. Compare against a manual construction.
        let pts = vec![
            VecD::from_slice(&[0.0, 0.0, 1.0]),
            VecD::from_slice(&[3.0, 0.0, 1.0]),
            VecD::from_slice(&[0.0, 4.0, 1.0]),
        ];
        let ds = delta_star(&pts, 1, Norm::L2, t());
        assert_eq!(ds.method, Method::InradiusClosedForm);
        assert!((ds.delta - 1.0).abs() < 1e-9, "inradius 1, got {}", ds.delta);
    }

    #[test]
    fn pocs_path_agrees_with_closed_form() {
        // Force the general path on a simplex instance by going through
        // `bisection_pocs` directly; Lemma 13 gives the exact answer.
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for _ in 0..10 {
            let d = rng.gen_range(2..4);
            let pts: Vec<VecD> = (0..=d)
                .map(|_| VecD((0..d).map(|_| rng.gen_range(-2.0..2.0)).collect()))
                .collect();
            let Some(simplex) = Simplex::new(pts.clone(), t()) else {
                continue;
            };
            if simplex.inradius() < 0.05 {
                continue; // skip needle cases for the iterative path
            }
            let exact = simplex.inradius();
            let approx = bisection_pocs(&pts, 1, t());
            assert!(
                (approx.delta - exact).abs() < 1e-4 * exact.max(1.0),
                "POCS δ*={} vs inradius {exact} (d={d})",
                approx.delta
            );
        }
    }

    #[test]
    fn delta_star_zero_when_gamma_nonempty() {
        // n = 4 points in R², f = 1 — above the Tverberg bound, Γ nonempty.
        let pts = vec![
            VecD::from_slice(&[0.0, 0.0]),
            VecD::from_slice(&[2.0, 0.0]),
            VecD::from_slice(&[1.0, 2.0]),
            VecD::from_slice(&[1.0, 0.7]),
        ];
        let ds = delta_star(&pts, 1, Norm::L2, t());
        assert_eq!(ds.delta, 0.0);
    }

    #[test]
    fn norm_ordering_of_delta_star() {
        // δ*_∞ ≤ δ*₂ ≤ δ*₁ (pointwise distance ordering carries through).
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        for _ in 0..10 {
            let d = rng.gen_range(2..4);
            let pts: Vec<VecD> = (0..=d)
                .map(|_| VecD((0..d).map(|_| rng.gen_range(-2.0..2.0)).collect()))
                .collect();
            if Simplex::new(pts.clone(), t()).is_none_or(|s| s.inradius() < 0.05) {
                continue;
            }
            let dinf = delta_star(&pts, 1, Norm::LInf, t()).delta;
            let d2 = delta_star(&pts, 1, Norm::L2, t()).delta;
            let d1 = delta_star(&pts, 1, Norm::L1, t()).delta;
            assert!(dinf <= d2 + 1e-6, "δ*_∞={dinf} > δ*₂={d2}");
            assert!(d2 <= d1 + 1e-6, "δ*₂={d2} > δ*₁={d1}");
        }
    }

    #[test]
    fn witness_attains_delta_against_every_subset_hull() {
        let pts = vec![
            VecD::from_slice(&[0.0, 0.0]),
            VecD::from_slice(&[3.0, 0.0]),
            VecD::from_slice(&[0.0, 4.0]),
        ];
        let ds = delta_star(&pts, 1, Norm::L2, t());
        for h in subset_hulls(&pts, 1) {
            let dist = h.project(&ds.witness, t()).1;
            assert!(dist <= ds.delta + 1e-7);
        }
    }

    #[test]
    fn f2_general_path_runs_and_is_bounded() {
        // f = 2, n = 8 points in R³ ((d+1)f = 8): the Theorem 12 regime.
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        let d = 3;
        let pts: Vec<VecD> = (0..8)
            .map(|_| VecD((0..d).map(|_| rng.gen_range(-1.0..1.0)).collect()))
            .collect();
        let ds = delta_star(&pts, 2, Norm::L2, t());
        // δ* must be attained (within solver slack) by the witness.
        let hulls = subset_hulls(&pts, 2);
        let (fval, _) = max_distance(&hulls, &ds.witness, t());
        assert!(fval <= ds.delta + 1e-5, "witness F={fval} vs δ*={}", ds.delta);
        // And bounded by the LP-exact L1 value from above.
        let d1 = delta_star(&pts, 2, Norm::L1, t()).delta;
        assert!(ds.delta <= d1 + 1e-5);
    }
}
