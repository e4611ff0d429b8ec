//! A two-phase dense simplex LP solver with Bland's anti-cycling rule.
//!
//! Every exact polyhedral predicate in the workspace reduces to linear
//! programming: convex-hull membership (Carathéodory weights), L1/L∞
//! distance to a hull, emptiness of `Γ(Y) = ⋂_{|T|=|Y|−f} H(T)`, and the
//! LP-exact `δ*` computation for the L1/L∞ norms. The solver works on the
//! standard form
//!
//! ```text
//!   minimize    cᵀ x
//!   subject to  A x = b,   x ≥ 0,
//! ```
//!
//! with [`LpBuilder`] offering free variables (split into differences of
//! non-negatives) and `≤` rows (slack insertion) so that formulations in the
//! rest of the crate read like the math in the paper.
//!
//! Problem sizes here are tiny (≤ a few hundred variables), so a dense
//! tableau with Bland's rule — slow but provably terminating — is the right
//! engineering choice; see DESIGN.md §6 for the tolerance policy.

use std::sync::OnceLock;

use rbvc_linalg::{Mat, Tol, VecD};
use rbvc_obs::{time_kernel, Counter, Kernel, Registry};

/// Global counter for phase-1 infeasibility exits, replacing the old
/// `RBVC_LP_DEBUG` stderr diagnostics: inspect it through the metrics
/// registry (or an `exp obs` report) instead of scraping stderr.
fn phase1_infeasible_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| Registry::global().counter("lp.phase1_infeasible"))
}

/// Global counter for simplex runs that exhausted the iteration cap
/// (numerically stalled pivoting) — same replacement rationale as
/// [`phase1_infeasible_counter`].
fn iteration_cap_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| Registry::global().counter("lp.iteration_cap"))
}

/// Outcome of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// Optimal solution found.
    Optimal {
        /// Primal values in the builder's original variable order.
        x: Vec<f64>,
        /// Objective value at the optimum.
        value: f64,
    },
    /// No feasible point exists.
    Infeasible,
    /// Objective unbounded below.
    Unbounded,
}

impl LpOutcome {
    /// The optimal point, if any.
    #[must_use]
    pub fn point(&self) -> Option<&[f64]> {
        match self {
            LpOutcome::Optimal { x, .. } => Some(x),
            _ => None,
        }
    }

    /// The optimal value, if any.
    #[must_use]
    pub fn objective(&self) -> Option<f64> {
        match self {
            LpOutcome::Optimal { value, .. } => Some(*value),
            _ => None,
        }
    }
}

/// Identifier of a builder variable (index into the user-visible solution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarId(usize);

#[derive(Debug, Clone, Copy)]
enum VarKind {
    /// Maps to a single standard-form column.
    NonNeg(usize),
    /// Free variable split as `pos - neg` over two columns.
    Free(usize, usize),
}

/// A builder row: (coefficients over builder vars, relation, rhs).
type BuilderRow = (Vec<(VarId, f64)>, Rel, f64);

/// Incremental LP builder producing standard form.
#[derive(Debug, Default)]
pub struct LpBuilder {
    vars: Vec<VarKind>,
    n_cols: usize,
    rows: Vec<BuilderRow>,
    objective: Vec<(VarId, f64)>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Rel {
    Eq,
    Le,
}

impl LpBuilder {
    /// New empty problem (minimization).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one non-negative variable.
    pub fn nonneg(&mut self) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(VarKind::NonNeg(self.n_cols));
        self.n_cols += 1;
        id
    }

    /// Add `k` non-negative variables.
    pub fn nonneg_vars(&mut self, k: usize) -> Vec<VarId> {
        (0..k).map(|_| self.nonneg()).collect()
    }

    /// Add one free (sign-unrestricted) variable.
    pub fn free(&mut self) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(VarKind::Free(self.n_cols, self.n_cols + 1));
        self.n_cols += 2;
        id
    }

    /// Add `k` free variables.
    pub fn free_vars(&mut self, k: usize) -> Vec<VarId> {
        (0..k).map(|_| self.free()).collect()
    }

    /// Add an equality row `Σ cᵢ·vᵢ = rhs`.
    pub fn eq(&mut self, terms: Vec<(VarId, f64)>, rhs: f64) {
        self.rows.push((terms, Rel::Eq, rhs));
    }

    /// Add an inequality row `Σ cᵢ·vᵢ ≤ rhs` (slack inserted internally).
    pub fn le(&mut self, terms: Vec<(VarId, f64)>, rhs: f64) {
        self.rows.push((terms, Rel::Le, rhs));
    }

    /// Add an inequality row `Σ cᵢ·vᵢ ≥ rhs`.
    pub fn ge(&mut self, terms: Vec<(VarId, f64)>, rhs: f64) {
        let negated = terms.into_iter().map(|(v, c)| (v, -c)).collect();
        self.rows.push((negated, Rel::Le, -rhs));
    }

    /// Set the (minimization) objective `Σ cᵢ·vᵢ`.
    pub fn minimize(&mut self, terms: Vec<(VarId, f64)>) {
        self.objective = terms;
    }

    /// Solve. Returns the outcome with `x` indexed by [`VarId`] order.
    #[must_use]
    pub fn solve(&self, tol: Tol) -> LpOutcome {
        time_kernel(Kernel::LpSolve, || self.solve_inner(tol))
    }

    fn solve_inner(&self, tol: Tol) -> LpOutcome {
        // Assemble standard form with slacks appended after builder columns.
        let n_slacks = self
            .rows
            .iter()
            .filter(|(_, rel, _)| *rel == Rel::Le)
            .count();
        let n = self.n_cols + n_slacks;
        let m = self.rows.len();
        let mut a = vec![vec![0.0; n]; m];
        let mut b = vec![0.0; m];
        let mut slack_col = self.n_cols;
        for (r, (terms, rel, rhs)) in self.rows.iter().enumerate() {
            for (vid, coef) in terms {
                match self.vars[vid.0] {
                    VarKind::NonNeg(c) => a[r][c] += coef,
                    VarKind::Free(cp, cn) => {
                        a[r][cp] += coef;
                        a[r][cn] -= coef;
                    }
                }
            }
            b[r] = *rhs;
            if *rel == Rel::Le {
                a[r][slack_col] = 1.0;
                slack_col += 1;
            }
        }
        let mut c = vec![0.0; n];
        for (vid, coef) in &self.objective {
            match self.vars[vid.0] {
                VarKind::NonNeg(col) => c[col] += coef,
                VarKind::Free(cp, cn) => {
                    c[cp] += coef;
                    c[cn] -= coef;
                }
            }
        }

        match simplex_standard_form(&a, &b, &c, tol) {
            StdOutcome::Optimal { x, value, .. } => {
                let user_x: Vec<f64> = self
                    .vars
                    .iter()
                    .map(|k| match *k {
                        VarKind::NonNeg(col) => x[col],
                        VarKind::Free(cp, cn) => x[cp] - x[cn],
                    })
                    .collect();
                LpOutcome::Optimal { x: user_x, value }
            }
            StdOutcome::Infeasible => LpOutcome::Infeasible,
            StdOutcome::Unbounded => LpOutcome::Unbounded,
        }
    }

    /// Value of a variable in a solution vector returned by [`solve`].
    ///
    /// [`solve`]: LpBuilder::solve
    #[must_use]
    pub fn value(&self, x: &[f64], v: VarId) -> f64 {
        x[v.0]
    }
}

#[derive(Debug)]
enum StdOutcome {
    /// `basis[r]` is the column basic in row `r` at the optimum; a value
    /// `≥ n` is the artificial of a redundant row `basis[r] − n`.
    Optimal { x: Vec<f64>, value: f64, basis: Vec<usize> },
    Infeasible,
    Unbounded,
}

/// Two-phase simplex on `min cᵀx, Ax = b, x ≥ 0` (dense).
#[allow(clippy::needless_range_loop)] // tableau index arithmetic reads clearer
fn simplex_standard_form(a: &[Vec<f64>], b: &[f64], c: &[f64], tol: Tol) -> StdOutcome {
    let m = a.len();
    let n = if m > 0 { a[0].len() } else { c.len() };
    // Scale tolerance with data magnitude.
    let scale = a
        .iter()
        .flatten()
        .chain(b.iter())
        .fold(1.0_f64, |acc, &v| acc.max(v.abs()));
    let eps = tol.scaled(scale).value();

    // Tableau: m rows × (n + m artificials + 1 rhs); objective row separate.
    let n_total = n + m;
    let mut t = vec![vec![0.0; n_total + 1]; m];
    for (r, row) in a.iter().enumerate() {
        let flip = if b[r] < 0.0 { -1.0 } else { 1.0 };
        for (j, &v) in row.iter().enumerate() {
            t[r][j] = flip * v;
        }
        t[r][n + r] = 1.0; // artificial
        t[r][n_total] = flip * b[r];
    }
    let mut basis: Vec<usize> = (n..n_total).collect();

    // Phase-1 objective: minimize sum of artificials. Reduced-cost row.
    let mut obj = vec![0.0; n_total + 1];
    for r in 0..m {
        for j in 0..=n_total {
            obj[j] -= t[r][j];
        }
    }
    // Artificial columns start basic with zero reduced cost.
    for j in n..n_total {
        obj[j] = 0.0;
    }

    if !run_simplex(&mut t, &mut obj, &mut basis, n_total, eps, /*phase1=*/ true) {
        // Phase 1 of a feasibility problem is never unbounded.
        unreachable!("phase-1 simplex reported unbounded");
    }
    // Phase-1 optimum is -obj[rhs]; infeasible if positive.
    let phase1_value = -obj[n_total];
    if phase1_value > eps * (m as f64).max(1.0) {
        phase1_infeasible_counter().inc();
        return StdOutcome::Infeasible;
    }

    // Drive any remaining artificials out of the basis.
    for r in 0..m {
        if basis[r] >= n {
            // Find a non-artificial column with nonzero entry to pivot in.
            let mut pivoted = false;
            for j in 0..n {
                if t[r][j].abs() > eps {
                    pivot(&mut t, &mut obj, r, j);
                    basis[r] = j;
                    pivoted = true;
                    break;
                }
            }
            if !pivoted {
                // Redundant row: the artificial stays basic at value ~0.
                // Harmless for phase 2 as long as it never re-enters
                // (artificial columns are barred from entering below).
            }
        }
    }

    // Phase-2 objective: reduced costs of `c` w.r.t. the current basis.
    let mut obj2 = vec![0.0; n_total + 1];
    obj2[..n].copy_from_slice(&c[..n]);
    for r in 0..m {
        let cb = if basis[r] < n { c[basis[r]] } else { 0.0 };
        if cb != 0.0 {
            for j in 0..=n_total {
                obj2[j] -= cb * t[r][j];
            }
        }
    }
    // Bar artificial columns from re-entering.
    for cell in obj2.iter_mut().take(n_total).skip(n) {
        *cell = f64::INFINITY;
    }

    if !run_simplex(&mut t, &mut obj2, &mut basis, n_total, eps, /*phase1=*/ false) {
        return StdOutcome::Unbounded;
    }

    let mut x = vec![0.0; n];
    for r in 0..m {
        if basis[r] < n {
            x[basis[r]] = t[r][n_total].max(0.0);
        }
    }
    let value = c.iter().zip(&x).map(|(ci, xi)| ci * xi).sum();
    StdOutcome::Optimal { x, value, basis }
}

/// Run simplex iterations. Entering variable by Dantzig's rule (most
/// negative reduced cost) for speed, switching to Bland's rule (smallest
/// index) after a streak of degenerate pivots to guarantee termination.
/// Leaving variable by a two-pass ratio test: first find the exact minimum
/// ratio, then break ties among min-ratio rows by smallest basis index
/// (the Bland tie-break). Returns false on unboundedness.
#[allow(clippy::needless_range_loop)] // tableau index arithmetic reads clearer
fn run_simplex(
    t: &mut [Vec<f64>],
    obj: &mut [f64],
    basis: &mut [usize],
    n_total: usize,
    eps: f64,
    phase1: bool,
) -> bool {
    let m = t.len();
    let mut degenerate_streak = 0usize;
    let bland_after = 2 * (n_total + m);
    let max_iters = 50_000 + 200 * (n_total + m);
    for _ in 0..max_iters {
        let use_bland = degenerate_streak > bland_after;
        // Entering variable.
        let mut entering = None;
        if use_bland {
            for (j, &rc) in obj.iter().enumerate().take(n_total) {
                if rc.is_finite() && rc < -eps {
                    entering = Some(j);
                    break;
                }
            }
        } else {
            let mut best = -eps;
            for (j, &rc) in obj.iter().enumerate().take(n_total) {
                if rc.is_finite() && rc < best {
                    best = rc;
                    entering = Some(j);
                }
            }
        }
        let Some(e) = entering else {
            return true; // optimal
        };
        // Two-pass ratio test. Negative rhs cells are float noise from
        // earlier pivots; clamp them so the corresponding ratios are 0.
        // Pivot elements must clear a hard floor: pivoting on a near-zero
        // element scales the row by its reciprocal and destroys the tableau
        // (the failure mode that motivated this implementation).
        let mut pivot_floor = eps.max(1e-7);
        let mut min_ratio = f64::INFINITY;
        for r in 0..m {
            if t[r][e] > pivot_floor {
                let ratio = t[r][n_total].max(0.0) / t[r][e];
                if ratio < min_ratio {
                    min_ratio = ratio;
                }
            }
        }
        if !min_ratio.is_finite() {
            // No pivot above the stability floor; fall back to the raw
            // tolerance (correctness over stability) before concluding
            // unboundedness.
            pivot_floor = eps;
            for r in 0..m {
                if t[r][e] > pivot_floor {
                    let ratio = t[r][n_total].max(0.0) / t[r][e];
                    if ratio < min_ratio {
                        min_ratio = ratio;
                    }
                }
            }
            if !min_ratio.is_finite() {
                return phase1; // truly unbounded (cannot happen in phase 1)
            }
        }
        let tie = min_ratio + 1e-9 * (1.0 + min_ratio.abs());
        let mut leave: Option<usize> = None;
        for r in 0..m {
            if t[r][e] > pivot_floor {
                let ratio = t[r][n_total].max(0.0) / t[r][e];
                if ratio <= tie {
                    leave = match leave {
                        None => Some(r),
                        Some(lr) => {
                            // Anti-cycling mode: Bland's smallest-basis-index
                            // rule. Otherwise: largest pivot element for
                            // numerical stability.
                            let better = if use_bland {
                                basis[r] < basis[lr]
                            } else {
                                t[r][e] > t[lr][e]
                            };
                            if better {
                                Some(r)
                            } else {
                                Some(lr)
                            }
                        }
                    };
                }
            }
        }
        let lr = leave.expect("min ratio finite implies a candidate row");
        if min_ratio <= 1e-12 {
            degenerate_streak += 1;
        } else {
            degenerate_streak = 0;
        }
        pivot_obj(t, obj, lr, e);
        basis[lr] = e;
    }
    // Iteration cap exhausted — numerically stalled pivoting. Report
    // "optimal" with whatever certificate the caller checks (phase 1 will
    // see a positive objective and report infeasible; callers that panic on
    // that surface the instance for investigation).
    iteration_cap_counter().inc();
    true
}

fn pivot(t: &mut [Vec<f64>], obj: &mut [f64], row: usize, col: usize) {
    pivot_obj(t, obj, row, col);
}

#[allow(clippy::needless_range_loop)] // tableau index arithmetic reads clearer
fn pivot_obj(t: &mut [Vec<f64>], obj: &mut [f64], row: usize, col: usize) {
    let m = t.len();
    let width = t[row].len();
    let inv = 1.0 / t[row][col];
    for v in t[row].iter_mut() {
        *v *= inv;
    }
    t[row][col] = 1.0; // exact
    for r in 0..m {
        if r == row {
            continue;
        }
        let factor = t[r][col];
        if factor == 0.0 {
            continue;
        }
        for j in 0..width {
            let delta = factor * t[row][j];
            t[r][j] -= delta;
        }
        t[r][col] = 0.0; // exact
    }
    let factor = obj[col];
    if factor != 0.0 && factor.is_finite() {
        for j in 0..width {
            if obj[j].is_finite() {
                obj[j] -= factor * t[row][j];
            }
        }
        obj[col] = 0.0;
    }
}

/// An optimal solution of `min cᵀx, Ax = b, x ≥ 0` with the multipliers of
/// its rows.
#[derive(Debug, Clone, PartialEq)]
pub struct DualSolution {
    /// Optimal primal point, one entry per column.
    pub x: Vec<f64>,
    /// Objective value `cᵀx`.
    pub value: f64,
    /// Row multipliers `y` of the optimal basis: `Aᵀy ≤ c` and `bᵀy = cᵀx`,
    /// i.e. the optimal point of the dual `max bᵀy, Aᵀy ≤ c`.
    pub y: Vec<f64>,
}

/// Solve `min cᵀx, Ax = b, x ≥ 0` and return the optimal basis' multipliers
/// beside the point. `None` when the problem is infeasible or unbounded.
///
/// The multipliers are not read off the tableau (phase 2 bars the
/// artificial columns, so their reduced costs are gone): they solve
/// `Bᵀy = c_B` on the columns of the final basis. This is what lets a
/// caller whose problem has few variables and many constraints solve the
/// dual instead — the tableau then has one *row* per variable however many
/// constraints there are — and still recover its own variables, as `y`
/// (the δ* master in [`crate::minmax`] does exactly that).
#[must_use]
pub fn solve_with_duals(a: &[Vec<f64>], b: &[f64], c: &[f64], tol: Tol) -> Option<DualSolution> {
    time_kernel(Kernel::LpSolve, || {
        let StdOutcome::Optimal { x, value, basis } = simplex_standard_form(a, b, c, tol) else {
            return None;
        };
        let (m, n) = (a.len(), c.len());
        let mut bt = Mat::zeros(m, m);
        let mut cb = VecD::zeros(m);
        for (k, &col) in basis.iter().enumerate() {
            if col < n {
                for (i, row) in a.iter().enumerate() {
                    bt[(k, i)] = row[col];
                }
                cb[k] = c[col];
            } else {
                // Artificial left basic on a redundant row: a unit column
                // of cost 0, which pins that row's multiplier to 0.
                bt[(k, col - n)] = 1.0;
            }
        }
        let y = bt.solve(&cb, Tol(1e-13))?;
        Some(DualSolution { x, value, y: y.0 })
    })
}

/// Convenience: check feasibility of `A x = b, x ≥ 0` and return a feasible
/// point if one exists.
#[must_use]
pub fn feasible_point(a: &[Vec<f64>], b: &[f64], tol: Tol) -> Option<Vec<f64>> {
    let n = if a.is_empty() { 0 } else { a[0].len() };
    let c = vec![0.0; n];
    match simplex_standard_form(a, b, &c, tol) {
        StdOutcome::Optimal { x, .. } => Some(x),
        _ => None,
    }
}

/// Convenience: express `target` as a convex combination of `points`
/// (feasibility of the hull-membership LP). Returns the weights.
#[must_use]
pub fn convex_combination_weights(
    points: &[VecD],
    target: &VecD,
    tol: Tol,
) -> Option<Vec<f64>> {
    if points.is_empty() {
        return None;
    }
    let d = target.dim();
    let m = points.len();
    // Rows: d coordinate equations + 1 normalization.
    let mut a = vec![vec![0.0; m]; d + 1];
    let mut b = vec![0.0; d + 1];
    for (j, p) in points.iter().enumerate() {
        assert_eq!(p.dim(), d, "convex_combination_weights: dim mismatch");
        for i in 0..d {
            a[i][j] = p[i];
        }
        a[d][j] = 1.0;
    }
    b[..d].copy_from_slice(target.as_slice());
    b[d] = 1.0;
    feasible_point(&a, &b, tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Tol {
        Tol::default()
    }

    #[test]
    fn simple_min_problem() {
        // min -x - y s.t. x + y <= 1, x,y >= 0  → value -1 on the segment.
        let mut lp = LpBuilder::new();
        let x = lp.nonneg();
        let y = lp.nonneg();
        lp.le(vec![(x, 1.0), (y, 1.0)], 1.0);
        lp.minimize(vec![(x, -1.0), (y, -1.0)]);
        match lp.solve(t()) {
            LpOutcome::Optimal { x: sol, value } => {
                assert!((value + 1.0).abs() < 1e-9);
                assert!((sol[0] + sol[1] - 1.0).abs() < 1e-9);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn detects_infeasibility() {
        // x >= 0, x <= -1 infeasible.
        let mut lp = LpBuilder::new();
        let x = lp.nonneg();
        lp.le(vec![(x, 1.0)], -1.0);
        lp.minimize(vec![(x, 1.0)]);
        assert_eq!(lp.solve(t()), LpOutcome::Infeasible);
    }

    #[test]
    fn detects_unboundedness() {
        // min -x, x >= 0 unconstrained above.
        let mut lp = LpBuilder::new();
        let x = lp.nonneg();
        lp.minimize(vec![(x, -1.0)]);
        assert_eq!(lp.solve(t()), LpOutcome::Unbounded);
    }

    #[test]
    fn free_variables_take_negative_values() {
        // min x s.t. x >= -5 → x = -5.
        let mut lp = LpBuilder::new();
        let x = lp.free();
        lp.ge(vec![(x, 1.0)], -5.0);
        lp.minimize(vec![(x, 1.0)]);
        match lp.solve(t()) {
            LpOutcome::Optimal { x: sol, value } => {
                assert!((sol[0] + 5.0).abs() < 1e-9);
                assert!((value + 5.0).abs() < 1e-9);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn equality_rows_respected() {
        // min x + y s.t. x + 2y = 4, x - y = 1 → unique point (2, 1).
        let mut lp = LpBuilder::new();
        let x = lp.free();
        let y = lp.free();
        lp.eq(vec![(x, 1.0), (y, 2.0)], 4.0);
        lp.eq(vec![(x, 1.0), (y, -1.0)], 1.0);
        lp.minimize(vec![(x, 1.0), (y, 1.0)]);
        match lp.solve(t()) {
            LpOutcome::Optimal { x: sol, .. } => {
                assert!((sol[0] - 2.0).abs() < 1e-8);
                assert!((sol[1] - 1.0).abs() < 1e-8);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degenerate vertex: multiple redundant constraints at origin.
        let mut lp = LpBuilder::new();
        let x = lp.nonneg();
        let y = lp.nonneg();
        lp.le(vec![(x, 1.0), (y, 1.0)], 0.0);
        lp.le(vec![(x, 1.0)], 0.0);
        lp.le(vec![(y, 1.0)], 0.0);
        lp.minimize(vec![(x, -1.0), (y, -1.0)]);
        match lp.solve(t()) {
            LpOutcome::Optimal { value, .. } => assert!(value.abs() < 1e-9),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn redundant_equalities_ok() {
        // Same equality twice (redundant row exercise for artificial cleanup).
        let mut lp = LpBuilder::new();
        let x = lp.nonneg();
        lp.eq(vec![(x, 1.0)], 2.0);
        lp.eq(vec![(x, 2.0)], 4.0);
        lp.minimize(vec![(x, 1.0)]);
        match lp.solve(t()) {
            LpOutcome::Optimal { x: sol, .. } => assert!((sol[0] - 2.0).abs() < 1e-9),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn convex_combination_of_triangle_contains_centroid() {
        let pts = vec![
            VecD::from_slice(&[0.0, 0.0]),
            VecD::from_slice(&[1.0, 0.0]),
            VecD::from_slice(&[0.0, 1.0]),
        ];
        let target = VecD::from_slice(&[1.0 / 3.0, 1.0 / 3.0]);
        let w = convex_combination_weights(&pts, &target, t()).expect("inside");
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-8);
        assert!(w.iter().all(|&wi| wi >= -1e-9));
        let recon = VecD::combination(&pts, &w);
        assert!(recon.approx_eq(&target, Tol(1e-8)));
    }

    #[test]
    fn convex_combination_rejects_outside_point() {
        let pts = vec![
            VecD::from_slice(&[0.0, 0.0]),
            VecD::from_slice(&[1.0, 0.0]),
            VecD::from_slice(&[0.0, 1.0]),
        ];
        let target = VecD::from_slice(&[1.0, 1.0]);
        assert!(convex_combination_weights(&pts, &target, t()).is_none());
    }

    #[test]
    fn boundary_membership_is_accepted() {
        let pts = vec![
            VecD::from_slice(&[0.0, 0.0]),
            VecD::from_slice(&[2.0, 0.0]),
        ];
        let target = VecD::from_slice(&[2.0, 0.0]); // a vertex
        assert!(convex_combination_weights(&pts, &target, t()).is_some());
        let mid = VecD::from_slice(&[1.0, 0.0]);
        assert!(convex_combination_weights(&pts, &mid, t()).is_some());
    }

    #[test]
    fn random_lps_satisfy_weak_duality_spotcheck() {
        // Verify optimal objective matches brute-force vertex enumeration on
        // random 2-variable problems with box + one coupling constraint.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..60 {
            let (c1, c2) = (rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0));
            let cap: f64 = rng.gen_range(0.5..3.0);
            // min c1 x + c2 y, x + y <= cap, x <= 1, y <= 1, x,y >= 0.
            let mut lp = LpBuilder::new();
            let x = lp.nonneg();
            let y = lp.nonneg();
            lp.le(vec![(x, 1.0), (y, 1.0)], cap);
            lp.le(vec![(x, 1.0)], 1.0);
            lp.le(vec![(y, 1.0)], 1.0);
            lp.minimize(vec![(x, c1), (y, c2)]);
            let got = lp.solve(t()).objective().expect("bounded feasible");
            // Brute force over candidate vertices.
            let mut best = f64::INFINITY;
            let candidates = [
                (0.0, 0.0),
                (1.0_f64.min(cap), 0.0),
                (0.0, 1.0_f64.min(cap)),
                (1.0, (cap - 1.0).clamp(0.0, 1.0)),
                ((cap - 1.0).clamp(0.0, 1.0), 1.0),
                ((cap / 2.0).min(1.0), (cap / 2.0).min(1.0)),
            ];
            for &(px, py) in &candidates {
                if px + py <= cap + 1e-12 {
                    best = best.min(c1 * px + c2 * py);
                }
            }
            assert!(
                got <= best + 1e-7,
                "LP value {got} worse than vertex scan {best} (c=({c1},{c2}),cap={cap})"
            );
        }
    }

    #[test]
    fn duals_are_optimal_for_the_dual_problem() {
        // Strong duality and dual feasibility on random bounded problems:
        // min cᵀx over {x ≥ 0 : Σx = 1, Gx = g}, a few rows, many columns
        // (the shape of the δ* master). Rows with negative right-hand sides
        // are flipped inside the tableau; the multipliers must not be.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for trial in 0..100 {
            let (m, n) = (rng.gen_range(2..6), rng.gen_range(8..40));
            let mut a = vec![vec![1.0; n]];
            a.extend((1..m).map(|_| (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect()));
            // A right-hand side that some convex combination attains.
            let w: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
            let total: f64 = w.iter().sum();
            let b: Vec<f64> = a
                .iter()
                .map(|row| row.iter().zip(&w).map(|(r, w)| r * w / total).sum())
                .collect();
            let c: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let sol = solve_with_duals(&a, &b, &c, t()).expect("feasible and bounded");
            let dual_value: f64 = b.iter().zip(&sol.y).map(|(b, y)| b * y).sum();
            assert!(
                (dual_value - sol.value).abs() < 1e-8,
                "trial {trial}: bᵀy={dual_value} cᵀx={}",
                sol.value
            );
            for j in 0..n {
                let priced: f64 = a.iter().zip(&sol.y).map(|(row, y)| row[j] * y).sum();
                assert!(
                    priced <= c[j] + 1e-8,
                    "trial {trial}: column {j} prices out at {priced} > {}",
                    c[j]
                );
            }
        }
        // Infeasible and unbounded problems have no multipliers.
        assert!(solve_with_duals(&[vec![1.0]], &[-1.0], &[1.0], t()).is_none());
        assert!(solve_with_duals(&[vec![1.0, -1.0]], &[0.0], &[-1.0, 0.0], t()).is_none());
    }

    #[test]
    fn duals_of_a_redundant_row_are_zero() {
        // x = 2 stated twice: the second row's artificial stays basic.
        let sol = solve_with_duals(&[vec![1.0], vec![2.0]], &[2.0, 4.0], &[3.0], t())
            .expect("optimal");
        assert!((sol.value - 6.0).abs() < 1e-9);
        let priced = sol.y[0] + 2.0 * sol.y[1];
        assert!((priced - 3.0).abs() < 1e-9 && sol.y.contains(&0.0), "y = {:?}", sol.y);
    }
}
