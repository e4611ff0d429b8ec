//! Coordinate projections `g_D` and the family `D_k` (Definitions 1–5 of the
//! paper).
//!
//! For `D = {d₁ < d₂ < … < d_k} ⊆ [1, d]`, the projection `g_D` keeps only
//! the coordinates indexed by `D`. The *k-relaxed convex hull* quantifies
//! over all of `D_k`, the size-`k` subsets of the coordinate set.

use rbvc_linalg::VecD;

use crate::combinatorics::combinations;

/// A coordinate projection `g_D : R^d → R^k` (Definition 1). Indices are
/// 0-based here (the paper is 1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordProjection {
    ambient_dim: usize,
    indices: Vec<usize>,
}

impl CoordProjection {
    /// Projection onto the sorted, distinct `indices` of a `d`-dimensional
    /// space.
    ///
    /// # Panics
    /// Panics if indices are unsorted, repeated, or out of range.
    #[must_use]
    pub fn new(ambient_dim: usize, indices: Vec<usize>) -> Self {
        assert!(!indices.is_empty(), "CoordProjection: empty index set");
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "CoordProjection: indices must be strictly increasing"
        );
        assert!(
            *indices.last().unwrap() < ambient_dim,
            "CoordProjection: index out of range"
        );
        CoordProjection {
            ambient_dim,
            indices,
        }
    }

    /// The retained coordinate indices `D`.
    #[must_use]
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Source dimension `d`.
    #[must_use]
    pub fn ambient_dim(&self) -> usize {
        self.ambient_dim
    }

    /// Target dimension `k = |D|`.
    #[must_use]
    pub fn target_dim(&self) -> usize {
        self.indices.len()
    }

    /// `g_D(u)` for a single point (Definition 1).
    #[must_use]
    pub fn apply(&self, u: &VecD) -> VecD {
        assert_eq!(u.dim(), self.ambient_dim, "g_D: dimension mismatch");
        VecD(self.indices.iter().map(|&i| u[i]).collect())
    }

    /// `g_D(S)` for a multiset of points (Definition 4).
    #[must_use]
    pub fn apply_multiset(&self, s: &[VecD]) -> Vec<VecD> {
        s.iter().map(|u| self.apply(u)).collect()
    }
}

/// The family `D_k`: all coordinate projections of size `k` out of `d`
/// (Definition 2). `|D_k| = C(d, k)`.
#[must_use]
pub fn all_projections(d: usize, k: usize) -> Vec<CoordProjection> {
    combinations(d, k)
        .into_iter()
        .map(|idx| CoordProjection::new(d, idx))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combinatorics::binomial;

    #[test]
    fn paper_example_projection() {
        // Paper §5.1: d = 4, D = {1, 3} (1-based) = {0, 2} (0-based),
        // u = (7, −4, −2, 0)ᵀ → g_D(u) = (7, −2)ᵀ.
        let g = CoordProjection::new(4, vec![0, 2]);
        let u = VecD::from_slice(&[7.0, -4.0, -2.0, 0.0]);
        assert_eq!(g.apply(&u), VecD::from_slice(&[7.0, -2.0]));
    }

    #[test]
    fn dk_has_binomial_size() {
        for d in 1..7 {
            for k in 1..=d {
                assert_eq!(all_projections(d, k).len(), binomial(d, k));
            }
        }
    }

    #[test]
    fn full_projection_is_identity() {
        let g = CoordProjection::new(3, vec![0, 1, 2]);
        let u = VecD::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(g.apply(&u), u);
    }

    #[test]
    fn multiset_projection_preserves_multiplicity() {
        let g = CoordProjection::new(2, vec![0]);
        let s = vec![
            VecD::from_slice(&[1.0, 5.0]),
            VecD::from_slice(&[1.0, 9.0]), // same first coordinate
        ];
        let gs = g.apply_multiset(&s);
        assert_eq!(gs.len(), 2);
        assert_eq!(gs[0], gs[1]); // multiset keeps the repeat
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_indices() {
        let _ = CoordProjection::new(4, vec![2, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let _ = CoordProjection::new(2, vec![0, 2]);
    }
}
