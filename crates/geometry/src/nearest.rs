//! Wolfe's nearest-point-in-polytope algorithm (Euclidean projection onto a
//! convex hull).
//!
//! Given generators `p₁ … p_m` and a query `q`, computes
//! `argmin_{x ∈ H({pᵢ})} ||x − q||₂` by Philip Wolfe's 1976 active-set
//! ("corral") method, which terminates finitely on exact arithmetic and is
//! the standard exact tool at these sizes. Each minor cycle moves to the
//! affine minimiser of the corral, a least-squares problem over the corral's
//! edge vectors solved by Householder QR: its accuracy follows the
//! conditioning of the edges, not of their Gram matrix (the square of it).
//! Every buffer of a solve lives in a [`Workspace`] the caller keeps, so a
//! warmed call allocates nothing.
//!
//! The result feeds every Euclidean distance in the paper: `dist(p, H(T))`
//! in the δ* definition (§9.2) — one call per subset hull per iterate of the
//! cutting-plane solver in [`crate::minmax`] — and the (δ,2)-relaxed hull
//! membership test.

use rbvc_linalg::{Tol, VecD};
use rbvc_obs::{time_kernel, Kernel};

/// Maximum outer iterations: Wolfe terminates finitely in exact arithmetic;
/// the cap is a float-robustness safety net only.
const MAX_OUTER: usize = 10_000;

/// A corral is degenerate when some diagonal entry of the R factor of its
/// edge vectors is at most this fraction of their largest entry.
const RANK_TOL: f64 = 1e-13;

/// Euclidean projection of `q` onto `H(points)`.
///
/// Returns `(projection, distance)`.
///
/// # Panics
/// Panics if `points` is empty or dimensions are inconsistent.
#[must_use]
pub fn nearest_point_in_hull(points: &[VecD], q: &VecD, tol: Tol) -> (VecD, f64) {
    let (x, _w) = nearest_point_with_weights(points, q, tol);
    let dist = x.dist2(q);
    (x, dist)
}

/// As [`nearest_point_in_hull`], additionally returning the convex weights
/// of the projection over the generators. Runs on a workspace of its own.
#[must_use]
pub fn nearest_point_with_weights(
    points: &[VecD],
    q: &VecD,
    tol: Tol,
) -> (VecD, Vec<f64>) {
    time_kernel(Kernel::WolfeNearest, || {
        // Stop on squared norms, at the workspace tolerance scaled by the
        // largest ‖pᵢ − q‖².
        let slack = |scale_sq: f64, _| tol.scaled(scale_sq).value();
        let mut ws = Workspace::default();
        wolfe_min_norm(points.iter(), q, slack, &mut ws);
        let mut weights = vec![0.0; points.len()];
        for (&i, &l) in ws.corral.iter().zip(&ws.lambda) {
            weights[i] += l;
        }
        (&VecD(ws.x) + q, weights)
    })
}

/// The offset `π − q` from `q` to its projection `π` onto the hull of
/// `{points[i] : i ∈ subset}`: the caller's one point slice indexed in
/// place, no hull object, and every buffer in the caller's `ws`. Its norm is
/// the distance, its negation the outward normal `u` of the supporting
/// half-space at `π` — what the cutting-plane δ* solver ([`crate::minmax`])
/// asks of every subset hull at every iterate. The slice lives in `ws`
/// until its next call.
///
/// `accuracy` is in units of distance, not of squared norm: the kernel
/// stops once no generator lies more than `accuracy` beyond that
/// half-space, `max_{p∈T} ⟨u, p − π⟩ ≤ accuracy`, so the cut through `π`
/// is at most `accuracy` shallower than the true distance however small
/// that distance is against the size of the hull (needle inputs).
///
/// # Panics
/// Panics if `subset` is empty, indexes out of `points`, or dimensions are
/// inconsistent.
#[must_use]
pub fn offset_to_subset_hull<'w>(
    points: &[VecD],
    subset: &[usize],
    q: &VecD,
    accuracy: f64,
    ws: &'w mut Workspace,
) -> &'w [f64] {
    time_kernel(Kernel::WolfeNearest, || {
        let slack = |_, xx: f64| accuracy * xx.sqrt();
        wolfe_min_norm(subset.iter().map(|&i| &points[i]), q, slack, ws);
    });
    &ws.x
}

/// The buffers of Wolfe's method — the translated generators, the iterate,
/// the corral with its weights, and the QR factor of the affine step —
/// reused from call to call: once they have grown to a problem's size, a
/// solve allocates nothing.
#[derive(Debug, Default)]
pub struct Workspace {
    /// `z_i = p_i − q`, row `i` of a flat buffer.
    z: Vec<f64>,
    /// The iterate; the min-norm point of `H({z_i})` once a solve returns.
    x: Vec<f64>,
    /// Generator positions in the corral, oldest first.
    corral: Vec<usize>,
    /// Convex weights of `x` over the corral.
    lambda: Vec<f64>,
    /// Weights of the corral's affine minimiser.
    alpha: Vec<f64>,
    qr: EdgeQr,
}

/// Householder QR of the corral's edge vectors `e_j = z_{c_j} − z_{c_0}`.
#[derive(Debug, Default)]
struct EdgeQr {
    /// The edges, one column of `d` after another, overwritten by the
    /// factorisation: `R` on and above the diagonal (its diagonal in
    /// `r_diag`), the reflectors on and below it.
    edges: Vec<f64>,
    r_diag: Vec<f64>,
    /// `−z_{c_0}`, reflected into `Qᵀ(−z_{c_0})`.
    rhs: Vec<f64>,
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(a, b)| a * b).sum()
}

/// Wolfe's method on the generators translated by `−q`, in `ws`: the
/// min-norm point of `H({z_i})` lands in `ws.x` and the corral that carries
/// it in `ws.corral` / `ws.lambda`. The iterate is accepted once `min_j ⟨x,
/// z_j⟩ ≥ ‖x‖² − slack(max_i ‖z_i‖², ‖x‖²)`.
fn wolfe_min_norm<'a>(
    generators: impl ExactSizeIterator<Item = &'a VecD>,
    q: &VecD,
    slack: impl Fn(f64, f64) -> f64,
    ws: &mut Workspace,
) {
    let d = q.dim();
    let m = generators.len();
    assert!(m > 0, "nearest_point: empty generator set");
    let Workspace { z, x, corral, lambda, alpha, qr } = ws;

    // Work translated: z_i = p_i − q, row i of the flat buffer; seek the
    // min-norm point of H({z_i}).
    z.clear();
    for p in generators {
        assert_eq!(p.dim(), d, "nearest_point: dimension mismatch");
        z.extend(p.as_slice().iter().zip(q.as_slice()).map(|(a, b)| a - b));
    }
    let z = |i: usize| &z[i * d..(i + 1) * d];
    let scale_sq = (0..m).map(|i| dot(z(i), z(i))).fold(1.0_f64, f64::max);
    let weight_eps = 1e-12;

    // Initial corral: the single closest generator.
    let mut start = 0;
    for i in 0..m {
        if dot(z(i), z(i)) < dot(z(start), z(start)) {
            start = i;
        }
    }
    corral.clear();
    corral.push(start);
    lambda.clear();
    lambda.push(1.0);
    x.clear();
    x.extend_from_slice(z(start));
    let mut shortest = f64::INFINITY;

    for _ in 0..MAX_OUTER {
        // Optimality: x is the min-norm point iff <x, z_j> ≥ ||x||² for all j.
        let xx = dot(x, x);
        if xx >= shortest {
            // Every major cycle shortens x in exact arithmetic (Wolfe 1976,
            // Theorem 1): one that does not is rounding, at the resolution
            // of the affine step, and further cycles would only wander.
            break;
        }
        shortest = xx;
        let mut best_j = 0;
        let mut best_val = f64::INFINITY;
        for j in 0..m {
            let v = dot(x, z(j));
            if v < best_val {
                best_val = v;
                best_j = j;
            }
        }
        if best_val >= xx - slack(scale_sq, xx) {
            break;
        }
        if corral.contains(&best_j) {
            // Numerically stalled: the improving vertex is already active.
            break;
        }
        corral.push(best_j);
        lambda.push(0.0);

        // Inner loop: move to the affine minimizer over the corral,
        // shrinking the corral when weights leave the simplex.
        loop {
            if !qr.affine_min_weights(&z, corral, alpha) {
                // Degenerate corral: drop the most recently added point.
                corral.pop();
                lambda.pop();
                break;
            }
            if alpha.iter().all(|&a| a > weight_eps) {
                lambda.clear();
                lambda.extend_from_slice(alpha);
                break;
            }
            // Line search from λ toward α up to the simplex boundary.
            let mut theta = 1.0_f64;
            for (l, a) in lambda.iter().zip(alpha.iter()) {
                if *a <= weight_eps && *l > *a {
                    theta = theta.min(*l / (*l - *a));
                }
            }
            for (l, a) in lambda.iter_mut().zip(alpha.iter()) {
                *l = (1.0 - theta) * *l + theta * *a;
            }
            // Remove at least one vanished point.
            let mut removed = false;
            let mut k = 0;
            while k < corral.len() {
                if lambda[k] <= weight_eps {
                    corral.remove(k);
                    lambda.remove(k);
                    removed = true;
                } else {
                    k += 1;
                }
            }
            if !removed {
                // Float guard: force-remove the smallest weight.
                let (kmin, _) = lambda
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .expect("corral nonempty");
                corral.remove(kmin);
                lambda.remove(kmin);
            }
            // Renormalize against drift.
            let s: f64 = lambda.iter().sum();
            if s > 0.0 {
                for l in lambda.iter_mut() {
                    *l /= s;
                }
            }
            if corral.len() <= 1 {
                lambda.clear();
                lambda.push(1.0);
                break;
            }
        }
        // Recompute x from the corral.
        x.fill(0.0);
        for (&i, &l) in corral.iter().zip(lambda.iter()) {
            for (xk, zk) in x.iter_mut().zip(z(i)) {
                *xk += l * zk;
            }
        }
    }
}

impl EdgeQr {
    /// Solve `min ‖Σ αᵢ z_{cᵢ}‖  s.t.  Σ αᵢ = 1` (α unrestricted in sign)
    /// into `alpha`: with `β` the least-squares solution of `min ‖z_{c_0} +
    /// Eβ‖` over the edges `E`, `α = (1 − Σβ, β)`. `false` — and `alpha`
    /// unspecified — when the corral is degenerate: more edges than `d`, or
    /// an edge within rounding of the span of the ones before it.
    fn affine_min_weights<'z>(
        &mut self,
        z: &impl Fn(usize) -> &'z [f64],
        corral: &[usize],
        alpha: &mut Vec<f64>,
    ) -> bool {
        let origin = z(corral[0]);
        let (d, edges) = (origin.len(), corral.len() - 1);
        if edges > d {
            return false;
        }
        let EdgeQr { edges: a, r_diag, rhs } = self;
        a.clear();
        for &c in &corral[1..] {
            a.extend(z(c).iter().zip(origin).map(|(p, o)| p - o));
        }
        rhs.clear();
        rhs.extend(origin.iter().map(|o| -o));
        r_diag.clear();
        let floor = RANK_TOL * a.iter().fold(0.0_f64, |m, v| m.max(v.abs()));

        for j in 0..edges {
            // The reflector v = e − r·e₁ that maps column j's rows j.. onto
            // r·e₁, with r of the sign that avoids cancellation; then
            // H w = w − v·(vᵀw)/(−r·v₀) on the later columns and on rhs.
            let (head, tail) = a.split_at_mut((j + 1) * d);
            let v = &mut head[j * d + j..];
            let norm = dot(v, v).sqrt();
            if norm <= floor {
                return false;
            }
            let r = if v[0] > 0.0 { -norm } else { norm };
            v[0] -= r;
            let denom = r * v[0];
            for w in tail.chunks_exact_mut(d).map(|col| &mut col[j..]).chain([&mut rhs[j..]]) {
                let s = dot(v, w) / denom;
                for (wi, vi) in w.iter_mut().zip(v.iter()) {
                    *wi += s * vi;
                }
            }
            r_diag.push(r);
        }

        // Back-substitute R β = (Qᵀ(−z_{c_0}))[..edges] into alpha[1..].
        alpha.clear();
        alpha.resize(edges + 1, 0.0);
        for j in (0..edges).rev() {
            let above: f64 = (j + 1..edges).map(|l| a[l * d + j] * alpha[l + 1]).sum();
            alpha[j + 1] = (rhs[j] - above) / r_diag[j];
        }
        alpha[0] = 1.0 - alpha[1..].iter().sum::<f64>();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rbvc_linalg::Norm;

    fn t() -> Tol {
        Tol::default()
    }

    #[test]
    fn projection_onto_single_point() {
        let pts = vec![VecD::from_slice(&[1.0, 2.0])];
        let (proj, dist) = nearest_point_in_hull(&pts, &VecD::zeros(2), t());
        assert!(proj.approx_eq(&pts[0], Tol(1e-10)));
        assert!((dist - 5.0_f64.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn projection_onto_segment_midrange() {
        let pts = vec![VecD::from_slice(&[0.0, 0.0]), VecD::from_slice(&[2.0, 0.0])];
        let q = VecD::from_slice(&[1.0, 1.0]);
        let (proj, dist) = nearest_point_in_hull(&pts, &q, t());
        assert!(proj.approx_eq(&VecD::from_slice(&[1.0, 0.0]), Tol(1e-8)));
        assert!((dist - 1.0).abs() < 1e-8);
    }

    #[test]
    fn projection_onto_segment_endpoint() {
        let pts = vec![VecD::from_slice(&[0.0, 0.0]), VecD::from_slice(&[2.0, 0.0])];
        let q = VecD::from_slice(&[3.0, 1.0]);
        let (proj, dist) = nearest_point_in_hull(&pts, &q, t());
        assert!(proj.approx_eq(&VecD::from_slice(&[2.0, 0.0]), Tol(1e-8)));
        assert!((dist - 2.0_f64.sqrt()).abs() < 1e-8);
    }

    #[test]
    fn interior_point_projects_to_itself() {
        let pts = vec![
            VecD::from_slice(&[0.0, 0.0]),
            VecD::from_slice(&[2.0, 0.0]),
            VecD::from_slice(&[0.0, 2.0]),
        ];
        let q = VecD::from_slice(&[0.5, 0.5]);
        let (proj, dist) = nearest_point_in_hull(&pts, &q, t());
        assert!(dist < 1e-8, "interior distance should vanish, got {dist}");
        assert!(proj.approx_eq(&q, Tol(1e-6)));
    }

    #[test]
    fn weights_are_convex_and_reconstruct_projection() {
        let pts = vec![
            VecD::from_slice(&[0.0, 0.0]),
            VecD::from_slice(&[1.0, 0.0]),
            VecD::from_slice(&[0.0, 1.0]),
        ];
        let q = VecD::from_slice(&[2.0, 2.0]);
        let (proj, w) = nearest_point_with_weights(&pts, &q, t());
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(w.iter().all(|&x| x >= -1e-12));
        assert!(VecD::combination(&pts, &w).approx_eq(&proj, Tol(1e-8)));
    }

    #[test]
    fn duplicated_generators_are_fine() {
        let pts = vec![
            VecD::from_slice(&[1.0, 0.0]),
            VecD::from_slice(&[1.0, 0.0]),
            VecD::from_slice(&[0.0, 1.0]),
        ];
        let (_, dist) = nearest_point_in_hull(&pts, &VecD::zeros(2), t());
        // Distance from origin to segment x + y = 1.
        assert!((dist - 1.0 / 2.0_f64.sqrt()).abs() < 1e-8);
    }

    #[test]
    fn affine_step_solves_the_corral_least_squares_problem() {
        // Against the normal equations on random corrals of 1 … d+1 points:
        // Σα = 1, and the affine minimiser y = Σ αᵢ z_{cᵢ} is orthogonal to
        // every edge. One more point than d + 1, or a repeated one, is
        // degenerate.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut qr = EdgeQr::default();
        let mut alpha = Vec::new();
        for _ in 0..200 {
            let d = rng.gen_range(1..6);
            let k = rng.gen_range(1..=d + 1);
            let z: Vec<f64> = (0..k * d).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let row = |i: usize| &z[i * d..(i + 1) * d];
            let corral: Vec<usize> = (0..k).rev().collect();
            assert!(qr.affine_min_weights(&row, &corral, &mut alpha));
            assert!((alpha.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            let y: Vec<f64> = (0..d)
                .map(|i| corral.iter().zip(&alpha).map(|(&c, a)| a * z[c * d + i]).sum())
                .collect();
            for &c in &corral[1..] {
                let edge: Vec<f64> = (0..d).map(|i| z[c * d + i] - z[corral[0] * d + i]).collect();
                assert!(dot(&y, &edge).abs() < 1e-9, "residual not orthogonal to an edge");
            }
            let mut repeated = corral.clone();
            repeated.push(corral[0]);
            assert!(!qr.affine_min_weights(&row, &repeated, &mut alpha));
        }
    }

    /// The variational characterization of the projection: x* is the nearest
    /// point iff <q − x*, p_j − x*> ≤ 0 for every generator. This is a
    /// *certificate of optimality* checked on random instances.
    #[test]
    fn random_projections_satisfy_optimality_certificate() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for trial in 0..300 {
            let d = rng.gen_range(1..7);
            let m = rng.gen_range(1..9);
            let pts: Vec<VecD> = (0..m)
                .map(|_| VecD((0..d).map(|_| rng.gen_range(-4.0..4.0)).collect()))
                .collect();
            let q = VecD((0..d).map(|_| rng.gen_range(-6.0..6.0)).collect());
            let (x, dist) = nearest_point_in_hull(&pts, &q, t());
            // Certificate: for each generator, moving toward it cannot help.
            let qm = &q - &x;
            for p in &pts {
                let dir = p - &x;
                assert!(
                    qm.dot(&dir) <= 1e-6,
                    "trial {trial}: optimality violated by {}",
                    qm.dot(&dir)
                );
            }
            // Distance consistency.
            assert!((x.dist2(&q) - dist).abs() < 1e-9);
            // Projection must be inside the hull (LP cross-check).
            assert!(
                crate::lp::convex_combination_weights(&pts, &x, Tol(1e-6)).is_some(),
                "trial {trial}: projection escaped the hull"
            );
        }
    }

    #[test]
    fn matches_linf_l1_bracketing_on_random_instances() {
        // dist_∞ ≤ dist_2 ≤ dist_1 for the same point/hull pair.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let d = rng.gen_range(2..5);
            let m = rng.gen_range(2..6);
            let pts: Vec<VecD> = (0..m)
                .map(|_| VecD((0..d).map(|_| rng.gen_range(-2.0..2.0)).collect()))
                .collect();
            let q = VecD((0..d).map(|_| rng.gen_range(-4.0..4.0)).collect());
            let hull = crate::hull::ConvexHull::new(pts);
            let d1 = hull.distance(&q, Norm::L1, t());
            let d2 = hull.distance(&q, Norm::L2, t());
            let dinf = hull.distance(&q, Norm::LInf, t());
            assert!(dinf <= d2 + 1e-6);
            assert!(d2 <= d1 + 1e-6);
        }
    }

    #[test]
    fn subset_offset_matches_the_hull_projection() {
        // The index-based entry point against the hull-object one, on
        // subsets of one point slice, with one workspace reused throughout.
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let mut ws = Workspace::default();
        for _ in 0..100 {
            let d = rng.gen_range(2..6);
            let pts: Vec<VecD> = (0..8)
                .map(|_| VecD((0..d).map(|_| rng.gen_range(-4.0..4.0)).collect()))
                .collect();
            let q = VecD((0..d).map(|_| rng.gen_range(-6.0..6.0)).collect());
            let subset: Vec<usize> = (0..8).filter(|_| rng.gen_bool(0.6)).chain([7]).collect();
            let offset = VecD::from_slice(offset_to_subset_hull(&pts, &subset, &q, 1e-10, &mut ws));
            let (proj, dist) = crate::hull::ConvexHull::from_indices(&pts, &subset).project(&q, t());
            assert!((offset.norm2() - dist).abs() < 1e-7);
            assert!((&q + &offset).approx_eq(&proj, Tol(1e-6)));
        }
    }

    #[test]
    fn subset_offset_is_accurate_in_distance_units() {
        // Queries 0.04 above a slab of extent 10 and thickness 0.02: no
        // generator may lie more than `accuracy` beyond the half-space
        // through the projection. (The stop test on squared norms only
        // promises 1e-9·‖z‖²/‖x‖ ≈ 1e-6 here, and less the nearer the
        // query.)
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let mut ws = Workspace::default();
        for _ in 0..500 {
            let pts: Vec<VecD> = (0..5)
                .map(|_| {
                    VecD::from_slice(&[
                        rng.gen_range(-5.0..5.0),
                        rng.gen_range(-5.0..5.0),
                        rng.gen_range(-0.01..0.01),
                    ])
                })
                .collect();
            let q = VecD::from_slice(&[rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0), 0.04]);
            let offset = VecD::from_slice(offset_to_subset_hull(&pts, &[0, 1, 2, 3, 4], &q, 1e-10, &mut ws));
            let proj = &q + &offset;
            let beyond = pts
                .iter()
                .map(|p| -offset.dot(&(p - &proj)) / offset.norm2())
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(beyond <= 1e-10, "a generator lies {beyond:e} beyond the half-space");
        }
    }
}
