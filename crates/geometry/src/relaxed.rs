//! The paper's relaxed convex hulls: `H_k(S)` (Definition 6) and
//! `H_(δ,p)(S)` (Definition 9).
//!
//! * `H_k(S) = { u : g_D(u) ∈ H(g_D(S)) for every D ∈ D_k }` — membership is
//!   decided by `C(d, k)` hull-membership LPs in `k` dimensions.
//! * `H_(δ,p)(S) = { u : dist_p(u, H(S)) ≤ δ }` — membership reduces to one
//!   distance computation.
//!
//! Both relaxations contain the ordinary hull `H(S)` (paper §5.3), and the
//! containment order `H_i(S) ⊆ H_j(S)` for `i ≥ j` (Lemma 1) is exercised by
//! the tests below.

use rbvc_linalg::{Norm, Tol, VecD};

use crate::hull::ConvexHull;
use crate::projection::{all_projections, CoordProjection};

/// The k-relaxed convex hull `H_k(S)` of a point multiset, queried by
/// membership (the set itself is an intersection of prisms and is not
/// materialized).
///
/// ```
/// use rbvc_geometry::KRelaxedHull;
/// use rbvc_linalg::{Tol, VecD};
///
/// // H₁ of a triangle is its bounding box; the opposite corner is in H₁
/// // but not in the exact hull H₂ = H.
/// let pts = vec![
///     VecD::from_slice(&[0.0, 0.0]),
///     VecD::from_slice(&[1.0, 0.0]),
///     VecD::from_slice(&[0.0, 1.0]),
/// ];
/// let corner = VecD::from_slice(&[1.0, 1.0]);
/// assert!(KRelaxedHull::new(pts.clone(), 1).contains(&corner, Tol::default()));
/// assert!(!KRelaxedHull::new(pts, 2).contains(&corner, Tol::default()));
/// ```
#[derive(Debug, Clone)]
pub struct KRelaxedHull {
    points: Vec<VecD>,
    k: usize,
    /// Cached per-projection hulls `H(g_D(S))` for all `D ∈ D_k`.
    projected: Vec<(CoordProjection, ConvexHull)>,
}

impl KRelaxedHull {
    /// Build `H_k(S)`.
    ///
    /// # Panics
    /// Panics unless `1 ≤ k ≤ d` and `points` nonempty.
    #[must_use]
    pub fn new(points: Vec<VecD>, k: usize) -> Self {
        assert!(!points.is_empty(), "KRelaxedHull of empty multiset");
        let d = points[0].dim();
        assert!(k >= 1 && k <= d, "KRelaxedHull requires 1 <= k <= d");
        let projected = all_projections(d, k)
            .into_iter()
            .map(|g| {
                let hull = ConvexHull::new(g.apply_multiset(&points));
                (g, hull)
            })
            .collect();
        KRelaxedHull {
            points,
            k,
            projected,
        }
    }

    /// The relaxation parameter `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The generating multiset `S`.
    #[must_use]
    pub fn generators(&self) -> &[VecD] {
        &self.points
    }

    /// `u ∈ H_k(S)`: every projection of `u` lies in the projected hull.
    #[must_use]
    pub fn contains(&self, u: &VecD, tol: Tol) -> bool {
        self.projected
            .iter()
            .all(|(g, hull)| hull.contains(&g.apply(u), tol))
    }
}

/// The (δ,p)-relaxed convex hull `H_(δ,p)(S)` (Definition 9).
///
/// ```
/// use rbvc_geometry::DeltaPHull;
/// use rbvc_linalg::{Norm, Tol, VecD};
///
/// let h = DeltaPHull::new(vec![VecD::zeros(2)], 1.0, Norm::LInf);
/// assert!(h.contains(&VecD::from_slice(&[1.0, 1.0]), Tol::default()));
/// assert!(!h.contains(&VecD::from_slice(&[1.5, 0.0]), Tol::default()));
/// ```
#[derive(Debug, Clone)]
pub struct DeltaPHull {
    hull: ConvexHull,
    delta: f64,
    norm: Norm,
}

impl DeltaPHull {
    /// Build `H_(δ,p)(S)`.
    ///
    /// # Panics
    /// Panics if `delta < 0` or `points` is empty.
    #[must_use]
    pub fn new(points: Vec<VecD>, delta: f64, norm: Norm) -> Self {
        assert!(delta >= 0.0, "DeltaPHull requires delta >= 0");
        DeltaPHull {
            hull: ConvexHull::new(points),
            delta,
            norm,
        }
    }

    /// The relaxation radius δ.
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The norm defining the relaxation.
    #[must_use]
    pub fn norm(&self) -> Norm {
        self.norm
    }

    /// `u ∈ H_(δ,p)(S)`: distance to the base hull at most δ (within tol).
    #[must_use]
    pub fn contains(&self, u: &VecD, tol: Tol) -> bool {
        let scale = u.max_abs().max(self.delta);
        self.hull.distance(u, self.norm, tol) <= self.delta + tol.scaled(scale).value()
    }

    /// Distance of `u` beyond the relaxed hull: `max(0, dist_p(u, H(S)) − δ)`.
    #[must_use]
    pub fn excess(&self, u: &VecD, tol: Tol) -> f64 {
        (self.hull.distance(u, self.norm, tol) - self.delta).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn t() -> Tol {
        Tol::default()
    }

    fn unit_triangle_3d() -> Vec<VecD> {
        vec![
            VecD::from_slice(&[0.0, 0.0, 0.0]),
            VecD::from_slice(&[1.0, 0.0, 0.0]),
            VecD::from_slice(&[0.0, 1.0, 0.0]),
            VecD::from_slice(&[0.0, 0.0, 1.0]),
        ]
    }

    #[test]
    fn k_equals_d_is_exact_hull() {
        // H_d(S) = H(S) (paper §5.3): membership must coincide.
        let pts = unit_triangle_3d();
        let hk = KRelaxedHull::new(pts.clone(), 3);
        let h = ConvexHull::new(pts);
        let inside = VecD::from_slice(&[0.2, 0.2, 0.2]);
        let outside = VecD::from_slice(&[0.5, 0.5, 0.5]);
        assert_eq!(hk.contains(&inside, t()), h.contains(&inside, t()));
        assert_eq!(hk.contains(&outside, t()), h.contains(&outside, t()));
        assert!(hk.contains(&inside, t()));
        assert!(!hk.contains(&outside, t()));
    }

    #[test]
    fn k_one_is_bounding_box() {
        // H_1(S) is the coordinate bounding box of S.
        let pts = unit_triangle_3d();
        let h1 = KRelaxedHull::new(pts, 1);
        assert!(h1.contains(&VecD::from_slice(&[1.0, 1.0, 1.0]), t()));
        assert!(h1.contains(&VecD::from_slice(&[0.0, 0.0, 0.0]), t()));
        assert!(!h1.contains(&VecD::from_slice(&[1.1, 0.0, 0.0]), t()));
        assert!(!h1.contains(&VecD::from_slice(&[0.0, -0.1, 0.0]), t()));
    }

    #[test]
    fn containment_order_lemma1() {
        // Lemma 1: H_i(S) ⊆ H_j(S) for i ≥ j — every member of H_i is in H_j.
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let d = 4;
        let pts: Vec<VecD> = (0..6)
            .map(|_| VecD((0..d).map(|_| rng.gen_range(-1.0..1.0)).collect()))
            .collect();
        let hulls: Vec<KRelaxedHull> = (1..=d)
            .map(|k| KRelaxedHull::new(pts.clone(), k))
            .collect();
        for _ in 0..200 {
            let u = VecD((0..d).map(|_| rng.gen_range(-1.5..1.5)).collect());
            for i in 1..d {
                // index i ↔ k = i+1; membership in H_{k} implies in H_{k-1}.
                if hulls[i].contains(&u, t()) {
                    assert!(
                        hulls[i - 1].contains(&u, Tol(1e-7)),
                        "Lemma 1 violated at k={} for {u}",
                        i + 1
                    );
                }
            }
        }
    }

    #[test]
    fn hull_is_contained_in_k_relaxed_hull() {
        // H(S) ⊆ H_k(S) for every k (paper §5.3).
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let d = 3;
        let pts: Vec<VecD> = (0..5)
            .map(|_| VecD((0..d).map(|_| rng.gen_range(-2.0..2.0)).collect()))
            .collect();
        for k in 1..=d {
            let hk = KRelaxedHull::new(pts.clone(), k);
            for _ in 0..50 {
                // Random convex combination is in H(S).
                let mut w: Vec<f64> = (0..pts.len()).map(|_| rng.gen_range(0.0..1.0)).collect();
                let s: f64 = w.iter().sum();
                for wi in &mut w {
                    *wi /= s;
                }
                let u = VecD::combination(&pts, &w);
                assert!(hk.contains(&u, Tol(1e-7)), "H(S) ⊄ H_{k}(S) at {u}");
            }
        }
    }

    #[test]
    fn delta_zero_is_exact_hull() {
        let pts = unit_triangle_3d();
        let h0 = DeltaPHull::new(pts.clone(), 0.0, Norm::L2);
        let h = ConvexHull::new(pts);
        let inside = VecD::from_slice(&[0.1, 0.1, 0.1]);
        let outside = VecD::from_slice(&[0.6, 0.6, 0.6]);
        assert_eq!(h0.contains(&inside, t()), h.contains(&inside, t()));
        assert_eq!(h0.contains(&outside, t()), h.contains(&outside, t()));
    }

    #[test]
    fn delta_relaxation_admits_nearby_points() {
        let pts = vec![VecD::zeros(2)];
        let h = DeltaPHull::new(pts, 1.0, Norm::L2);
        assert!(h.contains(&VecD::from_slice(&[0.6, 0.6]), t())); // ||·||₂ ≈ 0.85
        assert!(!h.contains(&VecD::from_slice(&[0.8, 0.8]), t())); // ≈ 1.13
    }

    #[test]
    fn norm_choice_changes_membership() {
        // Point at L∞ distance 1 but L1 distance 2 from the origin.
        let pts = vec![VecD::zeros(2)];
        let q = VecD::from_slice(&[1.0, 1.0]);
        assert!(DeltaPHull::new(pts.clone(), 1.0, Norm::LInf).contains(&q, t()));
        assert!(!DeltaPHull::new(pts.clone(), 1.0, Norm::L1).contains(&q, t()));
        assert!(!DeltaPHull::new(pts, 1.0, Norm::L2).contains(&q, t()));
    }

    #[test]
    fn delta_monotone_lemma6_family() {
        // H_(δ',p) ⊆ H_(δ,p) for δ' ≤ δ (basis of Lemmas 6–9).
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let pts: Vec<VecD> = (0..4)
            .map(|_| VecD((0..3).map(|_| rng.gen_range(-1.0..1.0)).collect()))
            .collect();
        let small = DeltaPHull::new(pts.clone(), 0.2, Norm::L2);
        let large = DeltaPHull::new(pts, 0.7, Norm::L2);
        for _ in 0..100 {
            let u = VecD((0..3).map(|_| rng.gen_range(-2.0..2.0)).collect());
            if small.contains(&u, t()) {
                assert!(large.contains(&u, t()), "δ-monotonicity violated at {u}");
            }
        }
    }

    #[test]
    fn excess_measures_overshoot() {
        let pts = vec![VecD::zeros(1)];
        let h = DeltaPHull::new(pts, 1.0, Norm::L2);
        assert!((h.excess(&VecD::from_slice(&[3.0]), t()) - 2.0).abs() < 1e-9);
        assert_eq!(h.excess(&VecD::from_slice(&[0.5]), t()), 0.0);
    }
}
