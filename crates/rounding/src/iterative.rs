//! Iterative LP relaxation (Lau–Ravi–Singh style).
//!
//! Targets the paper's `2·dmax − 1` additive budget: repeatedly solve the
//! current LP at a vertex, freeze variables that the vertex already makes
//! integral, and *drop* any capacity row that can no longer be violated by
//! more than the budget even if all of its surviving variables round to 1.
//! Once every capacity row is dropped, the remaining LP is a product of
//! simplices whose vertices are integral, so the process terminates.
//!
//! On the (degeneracy-induced) iterations where nothing freezes and no row
//! is safely droppable, the engine drops the row with the smallest
//! worst-case overshoot and keeps going. The final violation is therefore
//! *measured* rather than assumed — [`crate::RoundingOutcome::max_violation`]
//! always reports the truth, and the caller decides whether the paper's
//! bound held (the `fss-offline` test-suite asserts it does on randomized
//! flow-scheduling instances).

use fss_lp::{Cmp, LpBuilder, LpStatus, SimplexOptions};

use crate::problem::{RoundingError, RoundingOutcome, RoundingProblem};

/// Options for [`iterative_relaxation`].
#[derive(Debug, Clone)]
pub struct IterativeOptions {
    /// Additive violation budget used by the safe row-drop rule (the paper
    /// uses `2·dmax − 1`).
    pub budget: f64,
    /// Integrality tolerance.
    pub tol: f64,
}

impl IterativeOptions {
    /// Budget `2·dmax − 1` for a given maximum demand.
    pub fn for_dmax(dmax: u32) -> Self {
        IterativeOptions {
            budget: f64::from(2 * dmax - 1),
            tol: 1e-7,
        }
    }
}

/// Round `problem` by iterative LP relaxation. The engine solves its own
/// LPs, so no starting point is required; returns
/// [`RoundingError::Infeasible`] when no fractional solution exists at
/// all.
pub fn iterative_relaxation(
    problem: &RoundingProblem,
    opts: &IterativeOptions,
) -> Result<RoundingOutcome, RoundingError> {
    problem.assert_valid();
    let n = problem.num_vars;
    let mut alive = vec![true; n];
    let mut fixed_choice: Vec<Option<usize>> = vec![None; problem.groups.len()];
    let mut dropped = vec![false; problem.capacities.len()];
    let mut fixed_load = vec![0.0f64; problem.capacities.len()];

    // Pre-index: capacity rows touching each variable.
    let mut rows_of_var: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for (ri, (terms, _)) in problem.capacities.iter().enumerate() {
        for &(v, c) in terms {
            rows_of_var[v].push((ri, c));
        }
    }

    let mut first_iteration = true;
    loop {
        if fixed_choice.iter().all(Option::is_some) {
            break;
        }

        // Build the current LP over alive vars of unfixed groups.
        let mut lp = LpBuilder::minimize();
        let mut var_ids = vec![None; n];
        for (gi, group) in problem.groups.iter().enumerate() {
            if fixed_choice[gi].is_some() {
                continue;
            }
            for &v in group {
                if alive[v] {
                    var_ids[v] = Some(lp.var(0.0));
                }
            }
        }
        for (gi, group) in problem.groups.iter().enumerate() {
            if fixed_choice[gi].is_some() {
                continue;
            }
            let terms: Vec<_> = group
                .iter()
                .filter_map(|&v| var_ids[v].map(|id| (id, 1.0)))
                .collect();
            lp.constraint(&terms, Cmp::Eq, 1.0);
        }
        for (ri, (terms, rhs)) in problem.capacities.iter().enumerate() {
            if dropped[ri] {
                continue;
            }
            let live_terms: Vec<_> = terms
                .iter()
                .filter_map(|&(v, c)| var_ids[v].map(|id| (id, c)))
                .collect();
            if live_terms.is_empty() {
                dropped[ri] = true; // fully determined; nothing left to bound
                continue;
            }
            lp.constraint(&live_terms, Cmp::Le, rhs - fixed_load[ri]);
        }

        let sol = lp
            .solve_with(&SimplexOptions::default())
            .map_err(|e| RoundingError::SolverFailure(e.to_string()))?;
        match sol.status {
            LpStatus::Optimal => {}
            LpStatus::Infeasible if first_iteration => {
                return Err(RoundingError::Infeasible);
            }
            status => {
                return Err(RoundingError::SolverFailure(format!(
                    "unexpected status {status:?} after relaxation step"
                )));
            }
        }
        first_iteration = false;

        let value = |v: usize| var_ids[v].map_or(0.0, |id| sol.x[id.idx()]);

        // Freeze integral variables.
        let mut progressed = false;
        for (gi, group) in problem.groups.iter().enumerate() {
            if fixed_choice[gi].is_some() {
                continue;
            }
            if let Some(&v) = group
                .iter()
                .find(|&&v| alive[v] && value(v) >= 1.0 - opts.tol)
            {
                fixed_choice[gi] = Some(v);
                for &(ri, c) in &rows_of_var[v] {
                    fixed_load[ri] += c;
                }
                for &w in group {
                    alive[w] = false;
                }
                progressed = true;
            } else {
                // Kill zero variables to shrink the support.
                for &v in group {
                    if alive[v] && var_ids[v].is_some() && value(v) <= opts.tol {
                        alive[v] = false;
                        progressed = true;
                    }
                }
            }
        }

        // Safe drops: rows that cannot exceed rhs + budget any more.
        let mut stall_candidate: Option<(usize, f64)> = None;
        for (ri, (terms, rhs)) in problem.capacities.iter().enumerate() {
            if dropped[ri] {
                continue;
            }
            let potential: f64 = terms
                .iter()
                .filter(|&&(v, _)| alive[v])
                .map(|&(_, c)| c)
                .sum();
            let overshoot = fixed_load[ri] + potential - rhs;
            if overshoot <= opts.budget + 1e-9 {
                dropped[ri] = true;
                progressed = true;
            } else {
                let best = stall_candidate.map_or(f64::INFINITY, |(_, o)| o);
                if overshoot < best {
                    stall_candidate = Some((ri, overshoot));
                }
            }
        }

        if !progressed {
            // Degenerate stall: drop the least dangerous row and continue.
            // The final outcome reports the measured violation regardless.
            match stall_candidate {
                Some((ri, _)) => dropped[ri] = true,
                None => unreachable!(
                    "no progress with every capacity row dropped: the \
                     remaining LP is a product of simplices with integral \
                     vertices"
                ),
            }
        }
    }

    let chosen: Vec<usize> = fixed_choice
        .into_iter()
        .map(|choice| choice.expect("loop exits only when all groups fixed"))
        .collect();
    let max_violation = problem.max_violation(&chosen);
    Ok(RoundingOutcome {
        chosen,
        max_violation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_problem(
        groups: Vec<Vec<usize>>,
        caps: Vec<(Vec<(usize, f64)>, f64)>,
    ) -> RoundingProblem {
        let num_vars = groups.iter().map(|g| g.len()).sum();
        RoundingProblem {
            num_vars,
            groups,
            capacities: caps,
        }
    }

    #[test]
    fn feasible_integral_instance_is_exact() {
        // Two groups, capacities admit an integral solution with zero
        // violation: flow 0 at round 0, flow 1 at round 1.
        let p = unit_problem(
            vec![vec![0, 1], vec![2, 3]],
            vec![
                (vec![(0, 1.0), (2, 1.0)], 1.0),
                (vec![(1, 1.0), (3, 1.0)], 1.0),
            ],
        );
        let out = iterative_relaxation(&p, &IterativeOptions::for_dmax(1)).unwrap();
        assert_eq!(out.chosen.len(), 2);
        assert!(out.max_violation <= 1.0); // 2*dmax - 1 = 1
    }

    #[test]
    fn infeasible_lp_reported() {
        // One group, its single var appears in a capacity row with rhs 0:
        // sum = 1 is incompatible with load <= 0.
        let p = unit_problem(vec![vec![0]], vec![(vec![(0, 1.0)], 0.0)]);
        let err = iterative_relaxation(&p, &IterativeOptions::for_dmax(1)).unwrap_err();
        assert_eq!(err, RoundingError::Infeasible);
    }

    #[test]
    fn violation_within_budget_on_random_unit_instances() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(4242);
        for _ in 0..30 {
            let groups_n = rng.gen_range(2..8);
            let opts_n = rng.gen_range(2..4);
            let mut groups = Vec::new();
            let mut v = 0;
            for _ in 0..groups_n {
                groups.push((v..v + opts_n).collect::<Vec<_>>());
                v += opts_n;
            }
            // Unit-coefficient capacity rows with the fractional uniform
            // point feasible.
            let mut caps = Vec::new();
            for _ in 0..rng.gen_range(1..6) {
                let mut terms = Vec::new();
                for j in 0..v {
                    if rng.gen_bool(0.5) {
                        terms.push((j, 1.0));
                    }
                }
                if terms.is_empty() {
                    continue;
                }
                let rhs = terms.len() as f64 / opts_n as f64;
                caps.push((terms, rhs.ceil()));
            }
            let p = RoundingProblem {
                num_vars: v,
                groups,
                capacities: caps,
            };
            let out = iterative_relaxation(&p, &IterativeOptions::for_dmax(1)).unwrap();
            // Budget for dmax = 1 is 1.
            assert!(
                out.max_violation <= 1.0 + 1e-9,
                "violation {} exceeds 2*dmax-1 = 1",
                out.max_violation
            );
        }
    }

    #[test]
    fn single_option_groups_are_forced() {
        let p = unit_problem(
            vec![vec![0], vec![1]],
            vec![(vec![(0, 1.0), (1, 1.0)], 2.0)],
        );
        let out = iterative_relaxation(&p, &IterativeOptions::for_dmax(1)).unwrap();
        assert_eq!(out.chosen, vec![0, 1]);
        assert_eq!(out.max_violation, 0.0);
    }
}
