//! LP model builder: variables, linear constraints, minimize objective.

use crate::simplex::{self, SimplexOptions};
use crate::solution::{LpError, LpSolution};

/// Handle to a decision variable (nonnegative by construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index into [`LpSolution::x`].
    #[inline]
    pub fn idx(self) -> usize {
        self.0
    }
}

/// Handle to a constraint row, in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowId(pub(crate) usize);

impl RowId {
    /// Index into row-indexed solution data (e.g. tight-row queries).
    #[inline]
    pub fn idx(self) -> usize {
        self.0
    }
}

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `=`
    Eq,
}

/// A constraint row stored sparsely as `(variable, coefficient)` terms.
#[derive(Debug, Clone)]
pub(crate) struct Row {
    pub terms: Vec<(usize, f64)>,
    pub cmp: Cmp,
    pub rhs: f64,
}

/// Builder for a minimization LP over nonnegative variables.
///
/// All problem LPs in this workspace are naturally minimization problems
/// with `x >= 0`; upper bounds are expressed as rows.
#[derive(Debug, Clone, Default)]
pub struct LpBuilder {
    pub(crate) objective: Vec<f64>,
    pub(crate) rows: Vec<Row>,
}

impl LpBuilder {
    /// A fresh minimization model.
    pub fn minimize() -> Self {
        LpBuilder::default()
    }

    /// Add a nonnegative variable with the given objective coefficient.
    pub fn var(&mut self, obj: f64) -> VarId {
        self.objective.push(obj);
        VarId(self.objective.len() - 1)
    }

    /// Number of variables so far.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Add a constraint `sum(coef * var) cmp rhs`. Duplicate variable terms
    /// are accumulated. Panics on out-of-range variables.
    pub fn constraint(&mut self, terms: &[(VarId, f64)], cmp: Cmp, rhs: f64) -> RowId {
        let mut dense: Vec<(usize, f64)> = Vec::with_capacity(terms.len());
        for &(v, c) in terms {
            assert!(v.0 < self.objective.len(), "variable out of range");
            if c != 0.0 {
                dense.push((v.0, c));
            }
        }
        dense.sort_unstable_by_key(|&(i, _)| i);
        // Accumulate duplicates.
        let mut merged: Vec<(usize, f64)> = Vec::with_capacity(dense.len());
        for (i, c) in dense {
            match merged.last_mut() {
                Some(&mut (j, ref mut acc)) if j == i => *acc += c,
                _ => merged.push((i, c)),
            }
        }
        self.rows.push(Row {
            terms: merged,
            cmp,
            rhs,
        });
        RowId(self.rows.len() - 1)
    }

    /// Convenience: `var <= bound`.
    pub fn upper_bound(&mut self, v: VarId, bound: f64) -> RowId {
        self.constraint(&[(v, 1.0)], Cmp::Le, bound)
    }

    /// Solve with default options.
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        self.solve_with(&SimplexOptions::default())
    }

    /// Solve with explicit options (iteration limits, tolerances).
    pub fn solve_with(&self, opts: &SimplexOptions) -> Result<LpSolution, LpError> {
        simplex::solve(self, opts)
    }

    /// Evaluate the objective at a point (for tests and diagnostics).
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Row activity `sum(coef * x)` at a point.
    pub fn row_activity(&self, row: RowId, x: &[f64]) -> f64 {
        self.rows[row.0].terms.iter().map(|&(i, c)| c * x[i]).sum()
    }

    /// Whether `x` satisfies every row (and nonnegativity) within `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.objective.len() || x.iter().any(|&v| v < -tol) {
            return false;
        }
        self.rows.iter().enumerate().all(|(i, row)| {
            let a = self.row_activity(RowId(i), x);
            match row.cmp {
                Cmp::Le => a <= row.rhs + tol,
                Cmp::Ge => a >= row.rhs - tol,
                Cmp::Eq => (a - row.rhs).abs() <= tol,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_terms_accumulate() {
        let mut lp = LpBuilder::minimize();
        let x = lp.var(1.0);
        let r = lp.constraint(&[(x, 1.0), (x, 2.0)], Cmp::Le, 6.0);
        assert_eq!(lp.rows[r.0].terms, vec![(0, 3.0)]);
    }

    #[test]
    fn zero_coefficients_dropped() {
        let mut lp = LpBuilder::minimize();
        let x = lp.var(1.0);
        let y = lp.var(1.0);
        let r = lp.constraint(&[(x, 0.0), (y, 2.0)], Cmp::Ge, 1.0);
        assert_eq!(lp.rows[r.0].terms, vec![(1, 2.0)]);
    }

    #[test]
    fn feasibility_checker() {
        let mut lp = LpBuilder::minimize();
        let x = lp.var(1.0);
        let y = lp.var(1.0);
        lp.constraint(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 2.0);
        assert!(lp.is_feasible(&[1.0, 1.0], 1e-9));
        assert!(!lp.is_feasible(&[1.0, 0.5], 1e-9));
        assert!(!lp.is_feasible(&[-1.0, 3.0], 1e-9));
        assert!(!lp.is_feasible(&[2.0], 1e-9));
    }

    #[test]
    fn objective_and_activity_evaluation() {
        let mut lp = LpBuilder::minimize();
        let x = lp.var(3.0);
        let y = lp.var(-1.0);
        let r = lp.constraint(&[(x, 2.0), (y, 1.0)], Cmp::Le, 10.0);
        assert_eq!(lp.objective_value(&[2.0, 4.0]), 2.0);
        assert_eq!(lp.row_activity(r, &[2.0, 4.0]), 8.0);
    }
}
