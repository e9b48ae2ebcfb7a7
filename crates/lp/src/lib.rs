//! # fss-lp — linear programming substrate
//!
//! The paper's experiments solve three LP families with Gurobi 8.1 (§5.2.2):
//! the average-response-time lower bound LP (1)–(4), the interval LPs of the
//! iterative rounding cascade (5)–(12), and the time-constrained feasibility
//! LP (19)–(21). This crate is the from-scratch replacement: a model builder
//! plus a two-phase dense tableau simplex.
//!
//! Design notes:
//! * **Vertex solutions.** The iterative rounding of §3.1 (Lemma 3.5) counts
//!   tight constraints at a *basic* optimal solution; a tableau simplex
//!   returns exactly that, which is why we implement simplex rather than an
//!   interior-point method.
//! * **Determinism.** Dantzig's rule with a Bland fallback after a stall,
//!   fixed tolerances, no randomization — results are reproducible.
//! * **Scale.** Dense tableaus comfortably handle the scaled-down instances
//!   this workspace solves (thousands of columns); see DESIGN.md §3.4 for
//!   the declared scale substitution versus the paper's Gurobi runs.
//!
//! ```
//! use fss_lp::{LpBuilder, Cmp, LpStatus};
//!
//! // min  x + 2y   s.t.  x + y >= 2,  y <= 5,  x,y >= 0
//! let mut lp = LpBuilder::minimize();
//! let x = lp.var(1.0);
//! let y = lp.var(2.0);
//! lp.constraint(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 2.0);
//! lp.constraint(&[(y, 1.0)], Cmp::Le, 5.0);
//! let sol = lp.solve().unwrap();
//! assert_eq!(sol.status, LpStatus::Optimal);
//! assert!((sol.objective - 2.0).abs() < 1e-7); // x = 2, y = 0
//! ```

#![warn(unreachable_pub)]

mod model;
mod simplex;
mod solution;

pub use model::{Cmp, LpBuilder, RowId, VarId};
pub use simplex::SimplexOptions;
pub use solution::{LpError, LpSolution, LpStatus};

/// Numeric tolerance shared by the solver and its consumers.
pub(crate) const TOL: f64 = 1e-7;
