//! Maximum response time (FS-MRT) — paper §4.
//!
//! The pipeline mirrors the paper exactly:
//!
//! 1. reduce FS-MRT with bound ρ to *Time-Constrained Flow Scheduling*
//!    (every flow may run in `R(e) = {t : r_e <= t < r_e + ρ}`); the same
//!    machinery covers the release+deadline model of Remark 4.2;
//! 2. solve the LP relaxation (19)–(21); infeasibility certifies that no
//!    schedule meets the bound;
//! 3. round the fractional solution to an integral schedule with additive
//!    port augmentation — the paper invokes Lemma 4.3 (\[35\]) for a
//!    `2·dmax − 1` bound, realized here by `fss-rounding`'s iterative
//!    relaxation;
//! 4. binary-search ρ for the minimum LP-feasible value (the paper seeds
//!    the search with the best online heuristic; [`solve_mrt`] accepts an
//!    optional hint the same way).

mod solve;
mod time_constrained;

pub use solve::{lp_feasible, min_feasible_rho, solve_mrt, MrtError, MrtResult};
pub use time_constrained::{round_time_constrained, TimeConstrained, TimeConstrainedResult};
