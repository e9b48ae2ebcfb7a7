#![allow(clippy::needless_range_loop)] // parallel-array index loops are clearer here
//! Two-phase dense tableau simplex.
//!
//! Phase 1 minimizes the sum of artificial variables to find a basic
//! feasible solution; phase 2 minimizes the real objective. Entering
//! variables follow Dantzig's rule (most negative reduced cost) until a
//! degeneracy stall is detected, after which Bland's rule guarantees
//! termination. The leaving row is chosen by the minimum-ratio test with
//! smallest-basis-index tie-breaking.

use fss_linalg::Matrix;

use crate::model::{Cmp, LpBuilder};
use crate::solution::{LpError, LpSolution, LpStatus};
use crate::TOL;

/// Tuning knobs for the solver.
#[derive(Debug, Clone)]
pub struct SimplexOptions {
    /// Hard pivot budget across both phases. `None` derives
    /// `50 * (rows + cols) + 10_000` from the problem size.
    pub max_pivots: Option<usize>,
    /// Consecutive non-improving pivots tolerated before switching to
    /// Bland's rule.
    pub stall_threshold: usize,
    /// Pivot-eligibility tolerance.
    pub pivot_tol: f64,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            max_pivots: None,
            stall_threshold: 64,
            pivot_tol: 1e-9,
        }
    }
}

struct Tableau {
    /// `m x (ncols + 1)`; the last column is the rhs.
    t: Matrix,
    /// Basic variable (column index) of each row.
    basis: Vec<usize>,
    /// Total number of variable columns (structural + slack + artificial).
    ncols: usize,
    /// First artificial column index (or `ncols` when none exist).
    art_start: usize,
    pivots: usize,
}

impl Tableau {
    fn rhs(&self, r: usize) -> f64 {
        self.t[(r, self.ncols)]
    }

    /// Pivot on (row, col): scale the pivot row, eliminate the column from
    /// all other rows and from `cost`.
    fn pivot(&mut self, row: usize, col: usize, cost: &mut [f64]) {
        let m = self.t.rows();
        let width = self.ncols + 1;
        let piv = self.t[(row, col)];
        debug_assert!(piv.abs() > 1e-12);
        for j in 0..width {
            self.t[(row, j)] /= piv;
        }
        self.t[(row, col)] = 1.0;
        for i in 0..m {
            if i == row {
                continue;
            }
            let factor = self.t[(i, col)];
            if factor == 0.0 {
                continue;
            }
            let (target, pivot_row) = self.t.two_rows_mut(i, row);
            for (tv, pv) in target.iter_mut().zip(pivot_row.iter()) {
                *tv -= factor * pv;
            }
            self.t[(i, col)] = 0.0;
        }
        let factor = cost[col];
        if factor != 0.0 {
            for j in 0..width {
                cost[j] -= factor * self.t[(row, j)];
            }
            cost[col] = 0.0;
        }
        self.basis[row] = col;
        self.pivots += 1;
    }

    /// Reduced-cost row for objective `c` (length `ncols`) given the current
    /// basis: `rc_j = c_j - c_B^T (B^-1 A)_j`, with the objective value in
    /// the rhs slot (negated, tableau convention).
    fn reduced_costs(&self, c: &[f64]) -> Vec<f64> {
        let width = self.ncols + 1;
        let mut rc = vec![0.0; width];
        rc[..self.ncols].copy_from_slice(c);
        for (r, &b) in self.basis.iter().enumerate() {
            let cb = c[b];
            if cb == 0.0 {
                continue;
            }
            let row = self.t.row(r);
            for j in 0..width {
                rc[j] -= cb * row[j];
            }
        }
        rc
    }

    /// Run simplex minimizing the objective encoded in `cost` (a reduced
    /// cost row kept in sync by pivoting). `allowed` limits entering
    /// columns. Returns `Ok(true)` at optimality, `Ok(false)` when
    /// unbounded.
    fn run(
        &mut self,
        cost: &mut [f64],
        allowed_end: usize,
        opts: &SimplexOptions,
        budget: usize,
    ) -> Result<bool, LpError> {
        let m = self.t.rows();
        let mut stall = 0usize;
        let mut last_obj = f64::INFINITY;
        loop {
            if self.pivots >= budget {
                return Err(LpError::IterationLimit {
                    pivots: self.pivots,
                });
            }
            let bland = stall >= opts.stall_threshold;
            // Entering column.
            let mut enter: Option<usize> = None;
            if bland {
                for j in 0..allowed_end {
                    if cost[j] < -TOL {
                        enter = Some(j);
                        break;
                    }
                }
            } else {
                let mut best = -TOL;
                for j in 0..allowed_end {
                    if cost[j] < best {
                        best = cost[j];
                        enter = Some(j);
                    }
                }
            }
            let Some(col) = enter else {
                return Ok(true); // optimal
            };
            // Leaving row: min ratio test.
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for i in 0..m {
                let a = self.t[(i, col)];
                if a > opts.pivot_tol {
                    let ratio = self.rhs(i) / a;
                    let better = ratio < best_ratio - 1e-12
                        || (ratio < best_ratio + 1e-12
                            && leave.is_some_and(|l| self.basis[i] < self.basis[l]));
                    if better {
                        best_ratio = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(row) = leave else {
                return Ok(false); // unbounded in this direction
            };
            self.pivot(row, col, cost);
            let obj = -cost[self.ncols];
            if obj < last_obj - TOL {
                stall = 0;
                last_obj = obj;
            } else {
                stall += 1;
            }
        }
    }
}

/// Solve the builder's LP. See crate docs for the overall contract.
pub(crate) fn solve(lp: &LpBuilder, opts: &SimplexOptions) -> Result<LpSolution, LpError> {
    let n = lp.objective.len();
    let m = lp.rows.len();

    // Count slack and artificial columns after normalizing rhs >= 0.
    let mut n_slack = 0usize;
    let mut n_art = 0usize;
    // Per-row normalized sense (after possibly flipping for negative rhs).
    let mut senses = Vec::with_capacity(m);
    for row in &lp.rows {
        let (sign, cmp) = if row.rhs < 0.0 {
            let flipped = match row.cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            };
            (-1.0, flipped)
        } else {
            (1.0, row.cmp)
        };
        match cmp {
            Cmp::Le => n_slack += 1,
            Cmp::Ge => {
                n_slack += 1;
                n_art += 1;
            }
            Cmp::Eq => n_art += 1,
        }
        senses.push((sign, cmp));
    }

    let ncols = n + n_slack + n_art;
    let art_start = n + n_slack;
    let mut t = Matrix::zeros(m, ncols + 1);
    let mut basis = vec![0usize; m];
    let mut slack_at = n;
    let mut art_at = art_start;
    for (i, row) in lp.rows.iter().enumerate() {
        let (sign, cmp) = senses[i];
        for &(v, c) in &row.terms {
            t[(i, v)] = sign * c;
        }
        t[(i, ncols)] = sign * row.rhs;
        match cmp {
            Cmp::Le => {
                t[(i, slack_at)] = 1.0;
                basis[i] = slack_at;
                slack_at += 1;
            }
            Cmp::Ge => {
                t[(i, slack_at)] = -1.0;
                slack_at += 1;
                t[(i, art_at)] = 1.0;
                basis[i] = art_at;
                art_at += 1;
            }
            Cmp::Eq => {
                t[(i, art_at)] = 1.0;
                basis[i] = art_at;
                art_at += 1;
            }
        }
    }

    let mut tab = Tableau {
        t,
        basis,
        ncols,
        art_start,
        pivots: 0,
    };
    let budget = opts.max_pivots.unwrap_or(50 * (m + ncols) + 10_000);

    // Phase 1: minimize the sum of artificials (skippable when none exist).
    if n_art > 0 {
        let mut c1 = vec![0.0; ncols];
        for j in art_start..ncols {
            c1[j] = 1.0;
        }
        let mut cost = tab.reduced_costs(&c1);
        let optimal = tab.run(&mut cost, ncols, opts, budget)?;
        debug_assert!(optimal, "phase 1 cannot be unbounded (objective >= 0)");
        let phase1_obj = -cost[ncols];
        if phase1_obj > 1e-6 {
            return Ok(LpSolution {
                status: LpStatus::Infeasible,
                objective: f64::NAN,
                x: Vec::new(),
                pivots: tab.pivots,
            });
        }
        // Drive any remaining artificials (basic at value ~0) out of the basis.
        for r in 0..m {
            if tab.basis[r] >= art_start {
                let col = (0..art_start).find(|&j| tab.t[(r, j)].abs() > opts.pivot_tol);
                if let Some(j) = col {
                    let mut dummy = vec![0.0; ncols + 1];
                    tab.pivot(r, j, &mut dummy);
                } // else: redundant row; the artificial stays basic at 0.
            }
        }
    }

    // Phase 2: minimize the real objective over non-artificial columns.
    let mut c2 = vec![0.0; ncols];
    c2[..n].copy_from_slice(&lp.objective);
    let mut cost = tab.reduced_costs(&c2);
    let optimal = tab.run(&mut cost, tab.art_start, opts, budget)?;
    if !optimal {
        return Ok(LpSolution {
            status: LpStatus::Unbounded,
            objective: f64::NAN,
            x: Vec::new(),
            pivots: tab.pivots,
        });
    }

    let mut x = vec![0.0; n];
    for (r, &b) in tab.basis.iter().enumerate() {
        if b < n {
            // Clamp tiny negative noise; callers treat x as nonnegative.
            x[b] = tab.rhs(r).max(0.0);
        }
    }
    let objective = lp.objective_value(&x);
    Ok(LpSolution {
        status: LpStatus::Optimal,
        objective,
        x,
        pivots: tab.pivots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LpBuilder;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn trivial_no_constraints() {
        let mut lp = LpBuilder::minimize();
        let _x = lp.var(1.0);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 0.0);
        assert_close(sol.x[0], 0.0);
    }

    #[test]
    fn unbounded_detection() {
        let mut lp = LpBuilder::minimize();
        let _x = lp.var(-1.0); // min -x, x >= 0, no upper bound
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Unbounded);
    }

    #[test]
    fn bounded_after_adding_row() {
        let mut lp = LpBuilder::minimize();
        let x = lp.var(-1.0);
        lp.upper_bound(x, 3.0);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, -3.0);
        assert_close(sol.x[0], 3.0);
    }

    #[test]
    fn classic_two_var_problem() {
        // min -3x - 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (Dantzig's
        // textbook example); optimum -36 at (2, 6).
        let mut lp = LpBuilder::minimize();
        let x = lp.var(-3.0);
        let y = lp.var(-5.0);
        lp.constraint(&[(x, 1.0)], Cmp::Le, 4.0);
        lp.constraint(&[(y, 2.0)], Cmp::Le, 12.0);
        lp.constraint(&[(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, -36.0);
        assert_close(sol.x[x.idx()], 2.0);
        assert_close(sol.x[y.idx()], 6.0);
    }

    #[test]
    fn ge_rows_need_phase_one() {
        // min x + y  s.t. x + 2y >= 4, 3x + y >= 6; optimum at intersection
        // (8/5, 6/5) with value 14/5.
        let mut lp = LpBuilder::minimize();
        let x = lp.var(1.0);
        let y = lp.var(1.0);
        lp.constraint(&[(x, 1.0), (y, 2.0)], Cmp::Ge, 4.0);
        lp.constraint(&[(x, 3.0), (y, 1.0)], Cmp::Ge, 6.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 14.0 / 5.0);
        assert_close(sol.x[x.idx()], 8.0 / 5.0);
        assert_close(sol.x[y.idx()], 6.0 / 5.0);
    }

    #[test]
    fn equality_rows() {
        // min 2x + 3y  s.t. x + y = 10, x - y <= 2; optimum at y as large as
        // possible? No: cost of y is higher, so push x up: x - y <= 2 and
        // x + y = 10 give x <= 6; optimum (6, 4): 12 + 12 = 24.
        let mut lp = LpBuilder::minimize();
        let x = lp.var(2.0);
        let y = lp.var(3.0);
        lp.constraint(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 10.0);
        lp.constraint(&[(x, 1.0), (y, -1.0)], Cmp::Le, 2.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 24.0);
        assert_close(sol.x[x.idx()], 6.0);
        assert_close(sol.x[y.idx()], 4.0);
    }

    #[test]
    fn infeasible_detection() {
        let mut lp = LpBuilder::minimize();
        let x = lp.var(1.0);
        lp.constraint(&[(x, 1.0)], Cmp::Ge, 5.0);
        lp.constraint(&[(x, 1.0)], Cmp::Le, 3.0);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn negative_rhs_normalization() {
        // x - y <= -2 with rhs < 0 must flip correctly: equivalent to
        // y - x >= 2. min y s.t. that and x >= 0 gives y = 2 at x = 0.
        let mut lp = LpBuilder::minimize();
        let x = lp.var(0.0);
        let y = lp.var(1.0);
        lp.constraint(&[(x, 1.0), (y, -1.0)], Cmp::Le, -2.0);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 2.0);
        assert_close(sol.x[y.idx()], 2.0);
    }

    #[test]
    fn redundant_equality_rows_survive_phase1() {
        // x + y = 2 listed twice (redundant), plus x = 1.
        let mut lp = LpBuilder::minimize();
        let x = lp.var(1.0);
        let y = lp.var(1.0);
        lp.constraint(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 2.0);
        lp.constraint(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 2.0);
        lp.constraint(&[(x, 1.0)], Cmp::Eq, 1.0);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.x[x.idx()], 1.0);
        assert_close(sol.x[y.idx()], 1.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Multiple constraints meeting at the origin: classic degeneracy.
        let mut lp = LpBuilder::minimize();
        let x = lp.var(-1.0);
        let y = lp.var(-1.0);
        lp.constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 1.0);
        lp.constraint(&[(x, 1.0)], Cmp::Le, 1.0);
        lp.constraint(&[(y, 1.0)], Cmp::Le, 1.0);
        lp.constraint(&[(x, 1.0), (y, -1.0)], Cmp::Le, 0.0);
        lp.constraint(&[(x, -1.0), (y, 1.0)], Cmp::Le, 0.0);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, -1.0);
    }

    #[test]
    fn solution_is_feasible_for_model() {
        let mut lp = LpBuilder::minimize();
        let x = lp.var(1.0);
        let y = lp.var(2.0);
        let z = lp.var(0.5);
        lp.constraint(&[(x, 1.0), (y, 1.0), (z, 1.0)], Cmp::Ge, 3.0);
        lp.constraint(&[(x, 2.0), (z, -1.0)], Cmp::Le, 4.0);
        lp.constraint(&[(y, 1.0), (z, 2.0)], Cmp::Eq, 2.0);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(lp.is_feasible(&sol.x, 1e-6));
    }
}
