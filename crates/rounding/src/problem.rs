//! Problem shape and outcome type of the rounding.

/// A dependent rounding problem:
///
/// * `num_vars` variables `x_j ∈ [0, 1]`;
/// * disjoint `groups` of variables, each required to have **exactly one**
///   variable rounded to 1 (the flow rows of LP (19)–(21));
/// * `capacities`: sparse rows `(terms, rhs)` with nonnegative coefficients
///   whose final load should stay close to `rhs` (the port/round rows).
///
/// Every variable must belong to exactly one group; capacity rows may touch
/// any subset of variables.
#[derive(Debug, Clone)]
pub struct RoundingProblem {
    /// Total number of variables.
    pub num_vars: usize,
    /// Disjoint variable groups; exactly one member of each is chosen.
    pub groups: Vec<Vec<usize>>,
    /// Capacity rows as `(sparse terms, rhs)`; coefficients must be `>= 0`.
    pub capacities: Vec<(Vec<(usize, f64)>, f64)>,
}

impl RoundingProblem {
    /// Validate structural invariants; panics with a message on violation.
    /// Called by [`crate::iterative_relaxation`] on entry (cheap relative
    /// to the solve).
    pub fn assert_valid(&self) {
        let mut owner = vec![usize::MAX; self.num_vars];
        for (gi, group) in self.groups.iter().enumerate() {
            assert!(!group.is_empty(), "group {gi} is empty");
            for &v in group {
                assert!(v < self.num_vars, "group {gi}: var {v} out of range");
                assert_eq!(owner[v], usize::MAX, "var {v} in two groups");
                owner[v] = gi;
            }
        }
        assert!(
            owner.iter().all(|&o| o != usize::MAX),
            "every variable must belong to a group"
        );
        for (ri, (terms, rhs)) in self.capacities.iter().enumerate() {
            assert!(rhs.is_finite(), "capacity {ri}: rhs not finite");
            for &(v, c) in terms {
                assert!(v < self.num_vars, "capacity {ri}: var {v} out of range");
                assert!(c >= 0.0, "capacity {ri}: negative coefficient {c}");
            }
        }
    }

    /// Evaluate an integral choice (one variable per group): the maximum
    /// capacity-row violation `max(0, load - rhs)` over all rows.
    pub fn max_violation(&self, chosen: &[usize]) -> f64 {
        assert_eq!(chosen.len(), self.groups.len(), "one choice per group");
        let mut selected = vec![false; self.num_vars];
        for (gi, &v) in chosen.iter().enumerate() {
            assert!(
                self.groups[gi].contains(&v),
                "chosen var {v} not in group {gi}"
            );
            selected[v] = true;
        }
        let mut worst = 0.0f64;
        for (terms, rhs) in &self.capacities {
            let load: f64 = terms
                .iter()
                .filter(|&&(v, _)| selected[v])
                .map(|&(_, c)| c)
                .sum();
            worst = worst.max(load - rhs);
        }
        worst
    }
}

/// Result of [`crate::iterative_relaxation`].
#[derive(Debug, Clone)]
pub struct RoundingOutcome {
    /// Chosen variable per group (index into `0..num_vars`).
    pub chosen: Vec<usize>,
    /// Measured maximum violation `max(0, load - rhs)` over capacity rows.
    pub max_violation: f64,
}

/// Rounding failures.
#[derive(Debug, Clone, PartialEq)]
pub enum RoundingError {
    /// The internal LP was infeasible — the supplied problem has no
    /// fractional solution.
    Infeasible,
    /// The LP solver ran out of pivots.
    SolverFailure(String),
}

impl std::fmt::Display for RoundingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoundingError::Infeasible => write!(f, "rounding LP infeasible"),
            RoundingError::SolverFailure(m) => write!(f, "LP solver failure: {m}"),
        }
    }
}

impl std::error::Error for RoundingError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RoundingProblem {
        RoundingProblem {
            num_vars: 4,
            groups: vec![vec![0, 1], vec![2, 3]],
            capacities: vec![
                (vec![(0, 1.0), (2, 1.0)], 1.0),
                (vec![(1, 1.0), (3, 1.0)], 1.0),
            ],
        }
    }

    #[test]
    fn valid_problem_passes() {
        tiny().assert_valid();
    }

    #[test]
    #[should_panic(expected = "two groups")]
    fn overlapping_groups_rejected() {
        let mut p = tiny();
        p.groups[1] = vec![1, 3];
        p.assert_valid();
    }

    #[test]
    #[should_panic(expected = "must belong")]
    fn orphan_variable_rejected() {
        let mut p = tiny();
        p.groups[0] = vec![0];
        p.assert_valid();
    }

    #[test]
    fn violation_evaluation() {
        let p = tiny();
        // Choose 0 and 2: row 0 load = 2 > rhs 1 -> violation 1.
        assert_eq!(p.max_violation(&[0, 2]), 1.0);
        // Choose 0 and 3: loads 1 and 1 -> violation 0.
        assert_eq!(p.max_violation(&[0, 3]), 0.0);
    }

    #[test]
    #[should_panic(expected = "not in group")]
    fn violation_rejects_wrong_choice() {
        let p = tiny();
        let _ = p.max_violation(&[2, 3]);
    }
}
