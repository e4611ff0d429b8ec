//! Simplex geometry: the closed forms behind Lemmas 11–15 of the paper.
//!
//! For a full-dimensional simplex with vertices `a₁ … a_{d+1}` in `R^d`, set
//! `A = [a₁−a_{d+1}, …, a_d−a_{d+1}]` and `B = (A⁻¹)ᵀ` with columns
//! `b₁ … b_d` and `b_{d+1} = −Σ bᵢ`. Then (Akira Toda, cited as \[2\]):
//!
//! * Lemma 11: `⟨aᵢ − a_j, b_k⟩ = δ_{ik} − δ_{jk}`;
//! * Lemma 12: the inradius is `r = 1 / Σᵢ ‖bᵢ‖`;
//! * and the incenter has barycentric weights `‖b_k‖ / Σ‖bᵢ‖` (derived from
//!   the signed facet distance `dist(x, π_k) = t_k / ‖b_k‖`).
//!
//! Lemma 13 of the paper identifies the inradius with `δ*(S)` for `f = 1`,
//! `n = d + 1`, which makes this module the *oracle* for the δ* solver.

use rbvc_linalg::affine::{affinely_independent, IsometricProjection};
use rbvc_linalg::{Mat, Tol, VecD};

/// A non-degenerate simplex: `d + 1` affinely independent points in `R^d`.
#[derive(Debug, Clone)]
pub struct Simplex {
    vertices: Vec<VecD>,
    /// Columns `b₁ … b_{d+1}` (see module docs).
    b: Vec<VecD>,
}

impl Simplex {
    /// Build a simplex, computing the `b`-vector system. Returns `None` if
    /// the vertices are not affinely independent (degenerate simplex) or the
    /// vertex count is not `d + 1`.
    #[must_use]
    pub fn new(vertices: Vec<VecD>, tol: Tol) -> Option<Self> {
        if vertices.is_empty() {
            return None;
        }
        let d = vertices[0].dim();
        if vertices.len() != d + 1 {
            return None;
        }
        if !affinely_independent(&vertices, tol) {
            return None;
        }
        let last = &vertices[d];
        let diffs: Vec<VecD> = vertices[..d].iter().map(|a| a - last).collect();
        let a_mat = Mat::from_cols(&diffs);
        let b_mat = a_mat.inverse(tol)?.transpose();
        let mut b: Vec<VecD> = (0..d).map(|i| b_mat.col(i)).collect();
        let mut b_last = VecD::zeros(d);
        for bi in &b {
            b_last -= bi.clone();
        }
        b.push(b_last);
        Some(Simplex { vertices, b })
    }

    /// Dimension `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.vertices[0].dim()
    }

    /// The vertices `a₁ … a_{d+1}`.
    #[must_use]
    pub fn vertices(&self) -> &[VecD] {
        &self.vertices
    }

    /// The vector `b_k` (0-based `k ∈ 0..=d`), normal to facet `π_k`
    /// (the facet omitting vertex `k`), pointing toward vertex `k`.
    #[must_use]
    pub fn b_vector(&self, k: usize) -> &VecD {
        &self.b[k]
    }

    /// Inradius via Lemma 12: `r = 1 / Σ ‖bᵢ‖`.
    #[must_use]
    pub fn inradius(&self) -> f64 {
        1.0 / self.b.iter().map(VecD::norm2).sum::<f64>()
    }

    /// Incenter: barycentric weights `‖b_k‖ / Σ ‖bᵢ‖`.
    #[must_use]
    pub fn incenter(&self) -> VecD {
        let norms: Vec<f64> = self.b.iter().map(VecD::norm2).collect();
        let total: f64 = norms.iter().sum();
        let weights: Vec<f64> = norms.iter().map(|n| n / total).collect();
        VecD::combination(&self.vertices, &weights)
    }

    /// Signed distance from `x` to the hyperplane of facet `π_k` (positive
    /// on the vertex-`k` side, i.e. inside): `t_k / ‖b_k‖` where `t` are the
    /// barycentric coordinates of `x`.
    #[must_use]
    pub fn signed_facet_distance(&self, x: &VecD, k: usize) -> f64 {
        // ⟨x − a_j, b_k⟩ = t_k for any j ≠ k (Lemma 11 consequence).
        let j = if k == 0 { 1 } else { 0 };
        let t_k = (x - &self.vertices[j]).dot(&self.b[k]);
        t_k / self.b[k].norm2()
    }

    /// Barycentric coordinates of `x` (sum to 1; all in `[0,1]` iff inside).
    #[must_use]
    pub fn barycentric(&self, x: &VecD) -> Vec<f64> {
        let d = self.dim();
        // t_k = ⟨x − a_{d+1}, b_k⟩ for k < d; t_{d+1} = 1 − Σ.
        let diff = x - &self.vertices[d];
        let mut t: Vec<f64> = (0..d).map(|k| diff.dot(&self.b[k])).collect();
        let rest = 1.0 - t.iter().sum::<f64>();
        t.push(rest);
        t
    }

    /// True iff `x` lies in the closed simplex (within tolerance).
    #[must_use]
    pub fn contains(&self, x: &VecD, tol: Tol) -> bool {
        let scale = x.max_abs().max(1.0);
        self.barycentric(x)
            .iter()
            .all(|&t| t >= -tol.scaled(scale).value())
    }

    /// Vertices of facet `π_k` (all vertices except `k`).
    #[must_use]
    pub fn facet(&self, k: usize) -> Vec<VecD> {
        self.vertices
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != k)
            .map(|(_, v)| v.clone())
            .collect()
    }

    /// Inradius `r_k` of facet `π_k` viewed as a `(d−1)`-simplex inside its
    /// own affine span (Lemma 14). Requires `d ≥ 2`.
    #[must_use]
    pub fn facet_inradius(&self, k: usize, tol: Tol) -> Option<f64> {
        let d = self.dim();
        if d < 2 {
            return None;
        }
        let facet = self.facet(k);
        let proj = IsometricProjection::span_of(&facet, tol);
        if proj.target_dim() != d - 1 {
            return None;
        }
        let projected: Vec<VecD> = facet.iter().map(|p| proj.project(p)).collect();
        Simplex::new(projected, tol).map(|s| s.inradius())
    }

    /// All edge lengths `‖aᵢ − a_j‖₂`, `i < j`.
    #[must_use]
    pub fn edge_lengths(&self) -> Vec<f64> {
        let m = self.vertices.len();
        let mut out = Vec::with_capacity(m * (m - 1) / 2);
        for i in 0..m {
            for j in i + 1..m {
                out.push(self.vertices[i].dist2(&self.vertices[j]));
            }
        }
        out
    }

    /// Shortest edge.
    #[must_use]
    pub fn min_edge(&self) -> f64 {
        self.edge_lengths().into_iter().fold(f64::INFINITY, f64::min)
    }

    /// Longest edge.
    #[must_use]
    pub fn max_edge(&self) -> f64 {
        self.edge_lengths().into_iter().fold(0.0, f64::max)
    }
}

/// Pairwise L2 edge lengths of an arbitrary point set (the paper's `E` / `E₊`
/// edge sets). Returns the empty vector for singleton sets.
#[must_use]
pub fn pairwise_edges(points: &[VecD]) -> Vec<f64> {
    let m = points.len();
    let mut out = Vec::with_capacity(m.saturating_sub(1) * m / 2);
    for i in 0..m {
        for j in i + 1..m {
            out.push(points[i].dist2(&points[j]));
        }
    }
    out
}

/// Pairwise edge lengths in an arbitrary norm.
#[must_use]
pub fn pairwise_edges_norm(points: &[VecD], norm: rbvc_linalg::Norm) -> Vec<f64> {
    let m = points.len();
    let mut out = Vec::with_capacity(m.saturating_sub(1) * m / 2);
    for i in 0..m {
        for j in i + 1..m {
            out.push(points[i].dist(&points[j], norm));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rbvc_linalg::cayley_menger::inradius_by_volumes;

    fn t() -> Tol {
        Tol::default()
    }

    fn random_simplex(rng: &mut impl Rng, d: usize) -> Simplex {
        loop {
            let pts: Vec<VecD> = (0..=d)
                .map(|_| VecD((0..d).map(|_| rng.gen_range(-3.0..3.0)).collect()))
                .collect();
            if let Some(s) = Simplex::new(pts, t()) {
                if s.inradius() > 1e-3 {
                    return s; // avoid needle simplices in float tests
                }
            }
        }
    }

    #[test]
    fn rejects_degenerate_input() {
        let collinear = vec![
            VecD::from_slice(&[0.0, 0.0]),
            VecD::from_slice(&[1.0, 1.0]),
            VecD::from_slice(&[2.0, 2.0]),
        ];
        assert!(Simplex::new(collinear, t()).is_none());
        let wrong_count = vec![VecD::zeros(3), VecD::ones(3)];
        assert!(Simplex::new(wrong_count, t()).is_none());
    }

    #[test]
    fn lemma11_kronecker_identity() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..30 {
            let d = rng.gen_range(2..6);
            let s = random_simplex(&mut rng, d);
            for i in 0..=d {
                for j in 0..=d {
                    for k in 0..=d {
                        let lhs = (&s.vertices()[i] - &s.vertices()[j]).dot(s.b_vector(k));
                        let expect = f64::from(u8::from(i == k)) - f64::from(u8::from(j == k));
                        assert!(
                            (lhs - expect).abs() < 1e-7,
                            "Lemma 11 failed at d={d} (i,j,k)=({i},{j},{k}): {lhs} vs {expect}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lemma12_inradius_matches_cayley_menger() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..40 {
            let d = rng.gen_range(2..6);
            let s = random_simplex(&mut rng, d);
            let r_formula = s.inradius();
            let r_volumes = inradius_by_volumes(s.vertices());
            assert!(
                (r_formula - r_volumes).abs() < 1e-6 * r_formula.max(1.0),
                "Lemma 12 mismatch at d={d}: {r_formula} vs {r_volumes}"
            );
        }
    }

    #[test]
    fn incenter_is_equidistant_from_all_facets() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..30 {
            let d = rng.gen_range(2..6);
            let s = random_simplex(&mut rng, d);
            let c = s.incenter();
            let r = s.inradius();
            for k in 0..=d {
                let dist = s.signed_facet_distance(&c, k);
                assert!(
                    (dist - r).abs() < 1e-7 * r.max(1.0),
                    "incenter not equidistant at facet {k}: {dist} vs {r}"
                );
            }
            assert!(s.contains(&c, t()));
        }
    }

    #[test]
    fn triangle_345_inradius_is_one() {
        let s = Simplex::new(
            vec![
                VecD::from_slice(&[0.0, 0.0]),
                VecD::from_slice(&[3.0, 0.0]),
                VecD::from_slice(&[0.0, 4.0]),
            ],
            t(),
        )
        .unwrap();
        assert!((s.inradius() - 1.0).abs() < 1e-9);
        assert!(s.incenter().approx_eq(&VecD::from_slice(&[1.0, 1.0]), Tol(1e-9)));
    }

    #[test]
    fn barycentric_coordinates_of_vertices_and_centroid() {
        let s = Simplex::new(
            vec![
                VecD::from_slice(&[0.0, 0.0]),
                VecD::from_slice(&[1.0, 0.0]),
                VecD::from_slice(&[0.0, 1.0]),
            ],
            t(),
        )
        .unwrap();
        let b0 = s.barycentric(&s.vertices()[0]);
        assert!((b0[0] - 1.0).abs() < 1e-9 && b0[1].abs() < 1e-9 && b0[2].abs() < 1e-9);
        let centroid = VecD::centroid(s.vertices());
        for w in s.barycentric(&centroid) {
            assert!((w - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn contains_agrees_with_barycentric_signs() {
        let s = Simplex::new(
            vec![
                VecD::from_slice(&[0.0, 0.0]),
                VecD::from_slice(&[2.0, 0.0]),
                VecD::from_slice(&[0.0, 2.0]),
            ],
            t(),
        )
        .unwrap();
        assert!(s.contains(&VecD::from_slice(&[0.5, 0.5]), t()));
        assert!(s.contains(&VecD::from_slice(&[1.0, 1.0]), t())); // edge
        assert!(!s.contains(&VecD::from_slice(&[1.2, 1.2]), t()));
    }

    #[test]
    fn lemma14_inradius_below_every_facet_inradius() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for _ in 0..30 {
            let d = rng.gen_range(2..6);
            let s = random_simplex(&mut rng, d);
            let r = s.inradius();
            for k in 0..=d {
                if let Some(rk) = s.facet_inradius(k, t()) {
                    assert!(
                        r < rk + 1e-9,
                        "Lemma 14 violated at d={d}, facet {k}: r={r} rk={rk}"
                    );
                }
            }
        }
    }

    #[test]
    fn facet_inradius_of_d2_is_none_dimensionally() {
        // d = 2: facets are segments; the (d−1)-inradius of a 1-simplex is
        // defined (half nothing) — our helper builds a 1-dimensional simplex.
        let s = Simplex::new(
            vec![
                VecD::from_slice(&[0.0, 0.0]),
                VecD::from_slice(&[3.0, 0.0]),
                VecD::from_slice(&[0.0, 4.0]),
            ],
            t(),
        )
        .unwrap();
        // A 1-simplex [p, q] in R^1 has B = [1/(p−q)], b2 = −b1, so
        // r = |p − q| / 2: the midpoint is at half length from both ends.
        let r0 = s.facet_inradius(0, t()).expect("valid facet");
        assert!((r0 - 2.5).abs() < 1e-9, "hypotenuse midradius, got {r0}");
    }

    #[test]
    fn lemma15_inradius_below_max_edge_over_d() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let d = rng.gen_range(1..6);
            let s = random_simplex(&mut rng, d);
            let bound = s.max_edge() / d as f64;
            assert!(
                s.inradius() < bound + 1e-9,
                "Lemma 15 violated at d={d}: r={} bound={bound}",
                s.inradius()
            );
        }
    }

    #[test]
    fn regular_simplex_closed_form() {
        // Regular d-simplex with edge a has inradius a / sqrt(2 d (d+1)).
        // Embed via standard basis vectors in R^{d+1}... instead use d=3
        // regular tetrahedron from alternating cube vertices (edge 2√2).
        let s = Simplex::new(
            vec![
                VecD::from_slice(&[1.0, 1.0, 1.0]),
                VecD::from_slice(&[1.0, -1.0, -1.0]),
                VecD::from_slice(&[-1.0, 1.0, -1.0]),
                VecD::from_slice(&[-1.0, -1.0, 1.0]),
            ],
            t(),
        )
        .unwrap();
        let a = 2.0 * 2.0_f64.sqrt();
        let expected = a / (2.0 * 6.0_f64.sqrt());
        assert!((s.inradius() - expected).abs() < 1e-9);
        assert!(s.incenter().approx_eq(&VecD::zeros(3), Tol(1e-9)));
    }

    #[test]
    fn pairwise_edges_count_and_values() {
        let pts = vec![
            VecD::from_slice(&[0.0, 0.0]),
            VecD::from_slice(&[3.0, 0.0]),
            VecD::from_slice(&[0.0, 4.0]),
        ];
        let mut e = pairwise_edges(&pts);
        e.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(e.len(), 3);
        assert!((e[0] - 3.0).abs() < 1e-12);
        assert!((e[1] - 4.0).abs() < 1e-12);
        assert!((e[2] - 5.0).abs() < 1e-12);
        assert!(pairwise_edges(&pts[..1]).is_empty());
    }
}
