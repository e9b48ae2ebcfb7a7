//! # fss-rounding — dependent rounding for Theorem 3
//!
//! Theorem 3 of the paper rounds a fractional solution of the
//! time-constrained LP (19)–(21) into an integral schedule whose flow rows
//! stay *exact* (every flow scheduled exactly once) while each port/round
//! capacity row is overloaded by at most `2·dmax − 1`. The paper invokes
//! the rounding theorem of Karp, Leighton, Rivest, Thompson, Vazirani and
//! Vazirani (reference \[35\], restated as Lemma 4.3).
//!
//! [`iterative_relaxation`] is the constructive engine, over a
//! [`RoundingProblem`] (disjoint assignment groups + capacity rows): a
//! Lau–Ravi–Singh style iterative LP relaxation targeting a caller-chosen
//! violation budget (the paper's `2·dmax − 1`). It re-solves the LP at a
//! vertex, freezes integral variables, and drops capacity rows that can no
//! longer exceed the budget. On degenerate stalls it drops the
//! least-dangerous row and *reports* the actually-achieved violation, so
//! callers always learn the true augmentation (tests in `fss-offline`
//! assert the paper's bound is met on randomized instances). It returns a
//! [`RoundingOutcome`] with the chosen variable per group and the measured
//! maximum violation.

pub mod iterative;
pub mod problem;

pub use iterative::{iterative_relaxation, IterativeOptions};
pub use problem::{RoundingError, RoundingOutcome, RoundingProblem};
