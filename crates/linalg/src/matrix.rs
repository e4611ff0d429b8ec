//! [`Mat`]: dense row-major matrices with partial-pivot Gaussian elimination.
//!
//! Sizes in this workspace are tiny (at most ~(d+2) × (d+2) with d ≤ 16), so
//! a straightforward O(n³) LU-style elimination with partial pivoting is the
//! right tool: simple, cache-friendly at these sizes, and numerically sound.
//!
//! The paper's Lemma 11/12 machinery needs `B = (A⁻¹)ᵀ` for the edge matrix
//! `A = [a₁−a_{d+1}, …, a_d−a_{d+1}]`; [`Mat::inverse`] provides it.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::tolerance::Tol;
use crate::vector::VecD;

/// Dense row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Zero matrix of the given shape.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from rows.
    ///
    /// # Panics
    /// Panics if rows have unequal lengths.
    #[must_use]
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "from_rows: empty");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Mat {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Build a `d × m` matrix whose columns are the given `d`-vectors
    /// (the paper's input matrix `S` is exactly this shape).
    #[must_use]
    pub fn from_cols(cols: &[VecD]) -> Self {
        assert!(!cols.is_empty(), "from_cols: empty");
        let d = cols[0].dim();
        let mut m = Mat::zeros(d, cols.len());
        for (j, c) in cols.iter().enumerate() {
            assert_eq!(c.dim(), d, "from_cols: ragged columns");
            for i in 0..d {
                m[(i, j)] = c[i];
            }
        }
        m
    }

    /// Number of rows.
    #[must_use]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Column `j` as a vector.
    #[must_use]
    pub fn col(&self, j: usize) -> VecD {
        VecD((0..self.rows).map(|i| self[(i, j)]).collect())
    }

    /// Row `i` as a vector.
    #[must_use]
    pub fn row(&self, i: usize) -> VecD {
        VecD(self.data[i * self.cols..(i + 1) * self.cols].to_vec())
    }

    /// Transpose.
    #[must_use]
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    #[must_use]
    pub fn matmul(&self, rhs: &Mat) -> Mat {
        assert_eq!(self.cols, rhs.rows, "matmul: inner dimension mismatch");
        let mut out = Mat::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix-vector product.
    #[must_use]
    pub fn matvec(&self, x: &VecD) -> VecD {
        assert_eq!(self.cols, x.dim(), "matvec: dimension mismatch");
        VecD(
            (0..self.rows)
                .map(|i| {
                    (0..self.cols)
                        .map(|j| self[(i, j)] * x[j])
                        .sum::<f64>()
                })
                .collect(),
        )
    }

    /// Solve the square linear system `self * x = b` via partial-pivot
    /// Gaussian elimination. Returns `None` if the matrix is singular to
    /// within `tol` (pivot threshold scaled by the matrix magnitude).
    #[must_use]
    pub fn solve(&self, b: &VecD, tol: Tol) -> Option<VecD> {
        assert_eq!(self.rows, self.cols, "solve: matrix must be square");
        assert_eq!(self.rows, b.dim(), "solve: rhs dimension mismatch");
        let n = self.rows;
        let mut a = self.clone();
        let mut rhs = b.clone();
        let pivot_tol = tol.scaled(self.max_abs()).value();

        for col in 0..n {
            // Partial pivot: largest magnitude in this column at/below `col`.
            let mut piv = col;
            for r in col + 1..n {
                if a[(r, col)].abs() > a[(piv, col)].abs() {
                    piv = r;
                }
            }
            if a[(piv, col)].abs() <= pivot_tol {
                return None;
            }
            if piv != col {
                a.swap_rows(piv, col);
                rhs.0.swap(piv, col);
            }
            let inv = 1.0 / a[(col, col)];
            for r in col + 1..n {
                let factor = a[(r, col)] * inv;
                if factor == 0.0 {
                    continue;
                }
                a[(r, col)] = 0.0;
                for c in col + 1..n {
                    a[(r, c)] -= factor * a[(col, c)];
                }
                rhs[r] -= factor * rhs[col];
            }
        }
        // Back substitution.
        let mut x = VecD::zeros(n);
        for i in (0..n).rev() {
            let mut s = rhs[i];
            for j in i + 1..n {
                s -= a[(i, j)] * x[j];
            }
            x[i] = s / a[(i, i)];
        }
        Some(x)
    }

    /// Inverse of a square matrix, or `None` if singular within `tol`.
    #[must_use]
    pub fn inverse(&self, tol: Tol) -> Option<Mat> {
        assert_eq!(self.rows, self.cols, "inverse: matrix must be square");
        let n = self.rows;
        let mut inv = Mat::zeros(n, n);
        // Solve against each basis vector; at these sizes the repeated
        // elimination cost is irrelevant and the code stays simple.
        for j in 0..n {
            let e = VecD::scaled_basis(n, j, 1.0);
            let x = self.solve(&e, tol)?;
            for i in 0..n {
                inv[(i, j)] = x[i];
            }
        }
        Some(inv)
    }

    /// Determinant via elimination.
    #[must_use]
    pub fn determinant(&self) -> f64 {
        assert_eq!(self.rows, self.cols, "determinant: matrix must be square");
        let n = self.rows;
        let mut a = self.clone();
        let mut det = 1.0;
        for col in 0..n {
            let mut piv = col;
            for r in col + 1..n {
                if a[(r, col)].abs() > a[(piv, col)].abs() {
                    piv = r;
                }
            }
            if a[(piv, col)] == 0.0 {
                return 0.0;
            }
            if piv != col {
                a.swap_rows(piv, col);
                det = -det;
            }
            det *= a[(col, col)];
            let inv = 1.0 / a[(col, col)];
            for r in col + 1..n {
                let factor = a[(r, col)] * inv;
                for c in col..n {
                    a[(r, c)] -= factor * a[(col, c)];
                }
            }
        }
        det
    }

    /// Numerical rank via row echelon with the given pivot tolerance.
    #[must_use]
    pub fn rank(&self, tol: Tol) -> usize {
        let mut a = self.clone();
        let pivot_tol = tol.scaled(self.max_abs()).value();
        let mut rank = 0;
        let mut row = 0;
        for col in 0..self.cols {
            if row >= self.rows {
                break;
            }
            let mut piv = row;
            for r in row + 1..self.rows {
                if a[(r, col)].abs() > a[(piv, col)].abs() {
                    piv = r;
                }
            }
            if a[(piv, col)].abs() <= pivot_tol {
                continue;
            }
            a.swap_rows(piv, row);
            let inv = 1.0 / a[(row, col)];
            for r in row + 1..self.rows {
                let factor = a[(r, col)] * inv;
                for c in col..self.cols {
                    a[(r, c)] -= factor * a[(row, c)];
                }
            }
            rank += 1;
            row += 1;
        }
        rank
    }

    /// Largest absolute entry (for tolerance scaling).
    #[must_use]
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(a * self.cols + c, b * self.cols + c);
        }
    }

    /// Entry-wise approximate equality.
    #[must_use]
    pub fn approx_eq(&self, other: &Mat, tol: Tol) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| tol.eq(*a, *b))
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.6} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Tol {
        Tol::default()
    }

    #[test]
    fn identity_and_indexing() {
        let id = Mat::identity(3);
        assert_eq!(id[(0, 0)], 1.0);
        assert_eq!(id[(0, 1)], 0.0);
        assert_eq!(id.nrows(), 3);
        assert_eq!(id.ncols(), 3);
    }

    #[test]
    fn from_cols_round_trips() {
        let cols = vec![VecD::from_slice(&[1.0, 2.0]), VecD::from_slice(&[3.0, 4.0])];
        let m = Mat::from_cols(&cols);
        assert_eq!(m.col(0).as_slice(), &[1.0, 2.0]);
        assert_eq!(m.col(1).as_slice(), &[3.0, 4.0]);
        assert_eq!(m.row(0).as_slice(), &[1.0, 3.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Mat::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert!(c.approx_eq(
            &Mat::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]),
            t()
        ));
    }

    #[test]
    fn solve_simple_system() {
        let a = Mat::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let b = VecD::from_slice(&[5.0, 10.0]);
        let x = a.solve(&b, t()).expect("nonsingular");
        assert!(a.matvec(&x).approx_eq(&b, Tol(1e-9)));
    }

    #[test]
    fn solve_detects_singularity() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(a.solve(&VecD::from_slice(&[1.0, 2.0]), t()).is_none());
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = Mat::from_rows(&[
            vec![4.0, 7.0, 2.0],
            vec![3.0, 6.0, 1.0],
            vec![2.0, 5.0, 3.0],
        ]);
        let inv = a.inverse(t()).expect("nonsingular");
        assert!(a.matmul(&inv).approx_eq(&Mat::identity(3), Tol(1e-8)));
        assert!(inv.matmul(&a).approx_eq(&Mat::identity(3), Tol(1e-8)));
    }

    #[test]
    fn determinant_matches_cofactor_expansion() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert!((a.determinant() - (-2.0)).abs() < 1e-12);
        let b = Mat::from_rows(&[
            vec![2.0, 0.0, 0.0],
            vec![0.0, 3.0, 0.0],
            vec![0.0, 0.0, 4.0],
        ]);
        assert!((b.determinant() - 24.0).abs() < 1e-12);
        // Row swap flips sign.
        let c = Mat::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert!((c.determinant() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn rank_of_rank_deficient_matrix() {
        let a = Mat::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![2.0, 4.0, 6.0],
            vec![1.0, 0.0, 1.0],
        ]);
        assert_eq!(a.rank(t()), 2);
        assert_eq!(Mat::identity(4).rank(t()), 4);
        assert_eq!(Mat::zeros(3, 3).rank(t()), 0);
    }

    #[test]
    fn random_solve_round_trip() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..100 {
            let n = rng.gen_range(1..7);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect())
                .collect();
            let a = Mat::from_rows(&rows);
            if a.determinant().abs() < 1e-3 {
                continue; // skip near-singular draws
            }
            let x_true = VecD((0..n).map(|_| rng.gen_range(-2.0..2.0)).collect());
            let b = a.matvec(&x_true);
            let x = a.solve(&b, t()).expect("well-conditioned");
            assert!(
                x.approx_eq(&x_true, Tol(1e-6)),
                "solve mismatch: {x} vs {x_true}"
            );
        }
    }
}
