//! Solver outputs and errors.

/// Terminal status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic feasible solution was found.
    Optimal,
    /// The constraints are infeasible.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
}

/// A solved LP. For `status != Optimal`, `x` is empty and `objective` is
/// meaningless (`f64::NAN`).
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Terminal status.
    pub status: LpStatus,
    /// Optimal objective value (minimization).
    pub objective: f64,
    /// Primal values per variable, a *basic* (vertex) solution.
    pub x: Vec<f64>,
    /// Simplex pivot count across both phases (diagnostics / benches).
    pub pivots: usize,
}

/// Hard solver failures (distinct from infeasible/unbounded, which are
/// legitimate *answers*).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// The pivot limit was exhausted — numerical trouble or a degenerate
    /// cycle that Bland's rule could not break within the budget.
    IterationLimit { pivots: usize },
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            LpError::IterationLimit { pivots } => {
                write!(f, "simplex exceeded the pivot budget ({pivots} pivots)")
            }
        }
    }
}

impl std::error::Error for LpError {}
