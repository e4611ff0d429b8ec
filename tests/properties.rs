//! Property-based tests (proptest) on the geometric core: the invariants
//! every downstream consensus guarantee rests on.

use proptest::prelude::*;
use relaxed_bvc::geometry::minmax::delta_star;
use relaxed_bvc::geometry::{
    gamma_point, min_delta_polyhedral, subset_hulls, ConvexHull, KRelaxedHull, Simplex,
};
use relaxed_bvc::linalg::{Norm, Tol, VecD};

fn tol() -> Tol {
    Tol::default()
}

/// Strategy: a point in [-3, 3]^d.
fn point(d: usize) -> impl Strategy<Value = VecD> {
    prop::collection::vec(-3.0f64..3.0, d).prop_map(VecD::new)
}

/// Strategy: n points in [-3, 3]^d.
fn points(n: usize, d: usize) -> impl Strategy<Value = Vec<VecD>> {
    prop::collection::vec(point(d), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Convex combinations of generators are members of the hull.
    #[test]
    fn hull_contains_convex_combinations(
        pts in points(5, 3),
        raw_w in prop::collection::vec(0.01f64..1.0, 5),
    ) {
        let total: f64 = raw_w.iter().sum();
        let w: Vec<f64> = raw_w.iter().map(|x| x / total).collect();
        let q = VecD::combination(&pts, &w);
        let hull = ConvexHull::new(pts);
        prop_assert!(hull.contains(&q, Tol(1e-7)));
    }

    /// The Euclidean projection onto a hull satisfies the variational
    /// optimality certificate and lands inside the hull.
    #[test]
    fn projection_certificate(pts in points(6, 3), q in point(3)) {
        let hull = ConvexHull::new(pts.clone());
        let (proj, dist) = hull.project(&q, tol());
        prop_assert!((proj.dist2(&q) - dist).abs() < 1e-8);
        let qm = &q - &proj;
        for p in &pts {
            let dir = p - &proj;
            prop_assert!(qm.dot(&dir) <= 1e-6, "optimality violated: {}", qm.dot(&dir));
        }
    }

    /// Distance ordering: dist_∞ ≤ dist_2 ≤ dist_1 for every point/hull.
    #[test]
    fn distance_norm_ordering(pts in points(4, 3), q in point(3)) {
        let hull = ConvexHull::new(pts);
        let d1 = hull.distance(&q, Norm::L1, tol());
        let d2 = hull.distance(&q, Norm::L2, tol());
        let di = hull.distance(&q, Norm::LInf, tol());
        prop_assert!(di <= d2 + 1e-6);
        prop_assert!(d2 <= d1 + 1e-6);
    }

    /// Lemma 1: H_k ⊆ H_j for k ≥ j — membership is monotone in the
    /// relaxation direction.
    #[test]
    fn k_relaxed_containment_order(pts in points(5, 4), q in point(4)) {
        let hulls: Vec<KRelaxedHull> =
            (1..=4).map(|k| KRelaxedHull::new(pts.clone(), k)).collect();
        for k in (1..4).rev() {
            if hulls[k].contains(&q, tol()) {
                prop_assert!(
                    hulls[k - 1].contains(&q, Tol(1e-7)),
                    "H_{} member escaped H_{}", k + 1, k
                );
            }
        }
    }

    /// Tverberg (n = (d+1)f + 1): Γ(Y) is nonempty for every input set at
    /// the bound, and the witness is in every subset hull.
    #[test]
    fn gamma_nonempty_at_tverberg_bound(pts in points(4, 2)) {
        // d = 2, f = 1, n = 4 = (d+1)f + 1.
        let x = gamma_point(&pts, 1, tol());
        prop_assert!(x.is_some(), "Γ empty at the Tverberg bound");
        let x = x.unwrap();
        for h in subset_hulls(&pts, 1) {
            prop_assert!(h.contains(&x, Tol(1e-5)));
        }
    }

    /// Lemma 13: for simplices, the L2 δ* equals the inradius, and the
    /// incenter realizes it.
    #[test]
    fn delta_star_is_inradius(pts in points(4, 3)) {
        if let Some(s) = Simplex::new(pts.clone(), tol()) {
            if s.inradius() > 1e-3 {
                let ds = delta_star(&pts, 1, Norm::L2, tol());
                prop_assert!(
                    (ds.delta - s.inradius()).abs() < 1e-6 * s.inradius().max(1.0),
                    "δ* = {} vs inradius = {}", ds.delta, s.inradius()
                );
            }
        }
    }

    /// δ* in any norm is bounded by the distance from an arbitrary point to
    /// the farthest subset hull (δ* is a min).
    #[test]
    fn delta_star_is_a_lower_envelope(pts in points(4, 3), probe in point(3)) {
        let (dstar, _) = min_delta_polyhedral(&pts, 1, Norm::LInf, tol());
        let worst = subset_hulls(&pts, 1)
            .iter()
            .map(|h| h.distance(&probe, Norm::LInf, tol()))
            .fold(0.0_f64, f64::max);
        prop_assert!(dstar <= worst + 1e-6);
    }

    /// Theorem 9 (property form): for f = 1 and n = d + 1 random inputs,
    /// δ* < min(min-edge/2, max-edge/(n−2)) over ALL edges (the paper's E).
    #[test]
    fn theorem9_bounds_hold(pts in points(4, 3)) {
        if let Some(s) = Simplex::new(pts.clone(), tol()) {
            if s.inradius() > 1e-3 {
                let edges = relaxed_bvc::geometry::pairwise_edges(&pts);
                let min_e = edges.iter().copied().fold(f64::INFINITY, f64::min);
                let max_e = edges.iter().copied().fold(0.0_f64, f64::max);
                let ds = delta_star(&pts, 1, Norm::L2, tol());
                prop_assert!(ds.delta < min_e / 2.0 + 1e-9);
                prop_assert!(ds.delta < max_e / (pts.len() as f64 - 2.0) + 1e-9);
            }
        }
    }

    /// Simplex barycentric coordinates reconstruct the point and sum to 1.
    #[test]
    fn barycentric_reconstruction(pts in points(4, 3), q in point(3)) {
        if let Some(s) = Simplex::new(pts.clone(), tol()) {
            if s.inradius() > 1e-3 {
                let bc = s.barycentric(&q);
                prop_assert!((bc.iter().sum::<f64>() - 1.0).abs() < 1e-6);
                let recon = VecD::combination(&pts, &bc);
                prop_assert!(recon.approx_eq(&q, Tol(1e-5)), "{recon} vs {q}");
            }
        }
    }
}
