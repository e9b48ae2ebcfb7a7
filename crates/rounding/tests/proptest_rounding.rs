//! Property tests for iterative relaxation.

use fss_rounding::{iterative_relaxation, IterativeOptions, RoundingProblem};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RawProblem {
    groups_n: usize,
    opts: usize,
    rows: Vec<Vec<(usize, u32)>>, // (var, coefficient)
}

fn raw_problem() -> impl Strategy<Value = RawProblem> {
    (1usize..=6, 2usize..=4).prop_flat_map(|(groups_n, opts)| {
        let num_vars = groups_n * opts;
        let term = (0..num_vars, 1u32..=3);
        let row = proptest::collection::vec(term, 1..=num_vars.min(8));
        let rows = proptest::collection::vec(row, 0..=5);
        rows.prop_map(move |rows| RawProblem {
            groups_n,
            opts,
            rows,
        })
    })
}

/// Build a problem whose uniform fractional point `x = 1/opts` is feasible
/// (rhs = the uniform point's load), so the LP is feasible.
fn build(raw: &RawProblem) -> RoundingProblem {
    let num_vars = raw.groups_n * raw.opts;
    let groups: Vec<Vec<usize>> = (0..raw.groups_n)
        .map(|g| (g * raw.opts..(g + 1) * raw.opts).collect())
        .collect();
    let mut capacities = Vec::new();
    for row in &raw.rows {
        // Deduplicate variables, summing coefficients.
        let mut acc = std::collections::BTreeMap::<usize, f64>::new();
        for &(v, c) in row {
            *acc.entry(v).or_insert(0.0) += f64::from(c);
        }
        let terms: Vec<(usize, f64)> = acc.into_iter().collect();
        let rhs: f64 = terms.iter().map(|&(_, c)| c).sum::<f64>() / raw.opts as f64;
        capacities.push((terms, rhs));
    }
    RoundingProblem {
        num_vars,
        groups,
        capacities,
    }
}

/// Largest column L1-mass over the capacity rows: for each variable,
/// the sum of its (nonnegative) capacity coefficients; maximized over
/// variables. Twice this caps a rounding's violation.
fn max_column_mass(p: &RoundingProblem) -> f64 {
    let mut col = vec![0.0f64; p.num_vars];
    for (terms, _) in &p.capacities {
        for &(v, c) in terms {
            col[v] += c;
        }
    }
    col.into_iter().fold(0.0, f64::max)
}

#[test]
fn max_column_mass_sums_per_variable() {
    let p = RoundingProblem {
        num_vars: 2,
        groups: vec![vec![0], vec![1]],
        capacities: vec![(vec![(0, 2.0), (1, 1.0)], 5.0), (vec![(0, 3.0)], 5.0)],
    };
    assert_eq!(max_column_mass(&p), 5.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    #[test]
    fn iterative_relaxation_solves_feasible_problems(raw in raw_problem()) {
        let p = build(&raw);
        // Budget equal to the largest coefficient's 2x-1 (dmax analog).
        let dmax = p.capacities.iter()
            .flat_map(|(t, _)| t.iter().map(|&(_, c)| c))
            .fold(1.0f64, f64::max);
        let opts = IterativeOptions { budget: 2.0 * dmax - 1.0, tol: 1e-7 };
        // The uniform point is feasible, so the LP is feasible.
        let out = iterative_relaxation(&p, &opts).expect("feasible by construction");
        prop_assert_eq!(out.chosen.len(), p.groups.len());
        for (gi, group) in p.groups.iter().enumerate() {
            prop_assert!(group.contains(&out.chosen[gi]));
        }
        // Twice the largest column mass still caps the outcome even when
        // stall-drops fire.
        let delta = 2.0 * max_column_mass(&p);
        prop_assert!(out.max_violation <= delta + 1e-6,
            "violation {} vs global cap {delta}", out.max_violation);
    }
}
