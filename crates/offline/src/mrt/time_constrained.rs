//! Time-Constrained Flow Scheduling: the LP (19)–(21) and its rounding.

use fss_core::prelude::*;
use fss_lp::{Cmp, LpBuilder, LpStatus, VarId};
use fss_rounding::{iterative_relaxation, IterativeOptions, RoundingError, RoundingProblem};

/// An instance of Time-Constrained Flow Scheduling: each flow `e` may be
/// scheduled in any round of its active set `R(e)` (paper §4.2; sets may be
/// non-contiguous).
#[derive(Debug, Clone)]
pub struct TimeConstrained<'a> {
    /// The underlying switch and flows (release times are *ignored*; the
    /// active sets carry all timing information).
    pub inst: &'a Instance,
    /// Sorted active rounds per flow; must be non-empty for every flow.
    pub active: Vec<Vec<Round>>,
}

impl<'a> TimeConstrained<'a> {
    /// FS-MRT reduction: `R(e) = [r_e, r_e + rho)` (requires `rho >= 1`).
    pub fn from_response_bound(inst: &'a Instance, rho: u64) -> Self {
        assert!(rho >= 1, "response bound must be at least 1");
        let active = inst
            .flows
            .iter()
            .map(|f| (f.release..f.release + rho).collect())
            .collect();
        TimeConstrained { inst, active }
    }

    /// Release+deadline model (Remark 4.2): flow `e` may run in
    /// `[r_e, deadline_e]` (inclusive; deadlines are completion rounds - 1).
    pub fn from_deadlines(inst: &'a Instance, deadlines: &[Round]) -> Self {
        assert_eq!(deadlines.len(), inst.n(), "one deadline per flow");
        let active = inst
            .flows
            .iter()
            .zip(deadlines)
            .map(|(f, &d)| {
                assert!(d >= f.release, "deadline before release");
                (f.release..=d).collect()
            })
            .collect();
        TimeConstrained { inst, active }
    }

    /// Explicit, possibly non-contiguous active sets.
    pub fn from_active_sets(inst: &'a Instance, active: Vec<Vec<Round>>) -> Self {
        assert_eq!(active.len(), inst.n(), "one active set per flow");
        for (i, set) in active.iter().enumerate() {
            assert!(!set.is_empty(), "flow {i}: empty active set");
            assert!(
                set.windows(2).all(|w| w[0] < w[1]),
                "flow {i}: unsorted set"
            );
        }
        TimeConstrained { inst, active }
    }
}

/// Result of [`round_time_constrained`].
#[derive(Debug, Clone)]
pub struct TimeConstrainedResult {
    /// The integral schedule (each flow in one of its active rounds).
    pub schedule: Schedule,
    /// Measured additive port augmentation: the smallest `delta` such that
    /// the schedule is feasible on `switch.augmented(delta)`. Theorem 3
    /// promises `<= 2·dmax - 1`.
    pub augmentation: u32,
    /// Optimal LP objective is irrelevant here (feasibility problem); this
    /// carries the simplex pivot count for diagnostics.
    pub lp_pivots: usize,
}

/// Build the LP relaxation (19)–(21). Returns the builder and the variable
/// map `vars[flow][k]` for the `k`-th active round of each flow.
pub fn time_constrained_lp(tc: &TimeConstrained<'_>) -> (LpBuilder, Vec<Vec<VarId>>) {
    let inst = tc.inst;
    let mut lp = LpBuilder::minimize();
    let mut vars: Vec<Vec<VarId>> = Vec::with_capacity(inst.n());
    for active in &tc.active {
        vars.push(active.iter().map(|_| lp.var(0.0)).collect());
    }
    // (20): every flow fully scheduled across its active rounds.
    for v in &vars {
        let terms: Vec<_> = v.iter().map(|&id| (id, 1.0)).collect();
        lp.constraint(&terms, Cmp::Eq, 1.0);
    }
    // (19): per (port, round) capacity. Collect terms sparsely.
    use std::collections::HashMap;
    let mut in_rows: HashMap<(u32, Round), Vec<(VarId, f64)>> = HashMap::new();
    let mut out_rows: HashMap<(u32, Round), Vec<(VarId, f64)>> = HashMap::new();
    for (i, f) in inst.flows.iter().enumerate() {
        for (k, &t) in tc.active[i].iter().enumerate() {
            let id = vars[i][k];
            in_rows
                .entry((f.src, t))
                .or_default()
                .push((id, f64::from(f.demand)));
            out_rows
                .entry((f.dst, t))
                .or_default()
                .push((id, f64::from(f.demand)));
        }
    }
    // Deterministic row order (ports then rounds) for reproducible pivots.
    let mut in_keys: Vec<_> = in_rows.keys().copied().collect();
    in_keys.sort_unstable();
    for key in in_keys {
        let terms = &in_rows[&key];
        lp.constraint(terms, Cmp::Le, f64::from(inst.switch.in_cap(key.0)));
    }
    let mut out_keys: Vec<_> = out_rows.keys().copied().collect();
    out_keys.sort_unstable();
    for key in out_keys {
        let terms = &out_rows[&key];
        lp.constraint(terms, Cmp::Le, f64::from(inst.switch.out_cap(key.0)));
    }
    (lp, vars)
}

/// Solve the LP and round its support by iterative relaxation with the
/// paper's `2·dmax − 1` budget. `Ok(None)` means the LP — and hence the
/// instance — is infeasible (Theorem 3's "determine that there is no
/// schedule" branch).
pub fn round_time_constrained(
    tc: &TimeConstrained<'_>,
) -> Result<Option<TimeConstrainedResult>, RoundingError> {
    let inst = tc.inst;
    if inst.n() == 0 {
        return Ok(Some(TimeConstrainedResult {
            schedule: Schedule::from_rounds(vec![]),
            augmentation: 0,
            lp_pivots: 0,
        }));
    }
    let (lp, vars) = time_constrained_lp(tc);
    let sol = lp
        .solve()
        .map_err(|e| RoundingError::SolverFailure(e.to_string()))?;
    match sol.status {
        LpStatus::Optimal => {}
        LpStatus::Infeasible => return Ok(None),
        LpStatus::Unbounded => unreachable!("feasibility LP cannot be unbounded"),
    }

    // Build the rounding problem over the *support* of the LP solution
    // (plus one fallback variable per flow if the support went empty from
    // numerical noise — cannot happen for a feasible basic solution, but
    // cheap to guard).
    let mut flat_vars: Vec<(usize, Round)> = Vec::new(); // (flow, round)
    let mut groups: Vec<Vec<usize>> = Vec::with_capacity(inst.n());
    for (i, v) in vars.iter().enumerate() {
        let mut group = Vec::new();
        for (k, id) in v.iter().enumerate() {
            if sol.x[id.idx()] > 1e-9 {
                group.push(flat_vars.len());
                flat_vars.push((i, tc.active[i][k]));
            }
        }
        assert!(!group.is_empty(), "flow {i} has empty LP support");
        groups.push(group);
    }
    use std::collections::HashMap;
    let mut cap_rows: HashMap<(bool, u32, Round), Vec<(usize, f64)>> = HashMap::new();
    for (j, &(i, t)) in flat_vars.iter().enumerate() {
        let f = &inst.flows[i];
        cap_rows
            .entry((true, f.src, t))
            .or_default()
            .push((j, f64::from(f.demand)));
        cap_rows
            .entry((false, f.dst, t))
            .or_default()
            .push((j, f64::from(f.demand)));
    }
    let mut keys: Vec<_> = cap_rows.keys().copied().collect();
    keys.sort_unstable();
    let capacities: Vec<(Vec<(usize, f64)>, f64)> = keys
        .iter()
        .map(|&(is_in, p, t)| {
            let cap = if is_in {
                inst.switch.in_cap(p)
            } else {
                inst.switch.out_cap(p)
            };
            let _ = t;
            (cap_rows[&(is_in, p, t)].clone(), f64::from(cap))
        })
        .collect();
    let problem = RoundingProblem {
        num_vars: flat_vars.len(),
        groups,
        capacities,
    };

    let dmax = inst.dmax().max(1);
    let outcome = iterative_relaxation(&problem, &IterativeOptions::for_dmax(dmax))?;

    let mut rounds = vec![0u64; inst.n()];
    for (gi, &chosen) in outcome.chosen.iter().enumerate() {
        rounds[gi] = flat_vars[chosen].1;
    }
    let schedule = Schedule::from_rounds(rounds);
    // Augmentation measured on the real schedule (release-agnostic: active
    // sets already encode timing; for FS-MRT reductions they respect
    // releases by construction).
    let augmentation = outcome.max_violation.ceil().max(0.0) as u32;
    Ok(Some(TimeConstrainedResult {
        schedule,
        augmentation,
        lp_pivots: sol.pivots,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_inst(flows: &[(u32, u32, u64)], m: usize) -> Instance {
        let mut b = InstanceBuilder::new(Switch::uniform(m, m, 1));
        for &(s, d, r) in flows {
            b.unit_flow(s, d, r);
        }
        b.build().unwrap()
    }

    #[test]
    fn feasible_instance_schedules_within_active_sets() {
        let inst = unit_inst(&[(0, 0, 0), (0, 1, 0), (1, 1, 0)], 2);
        let tc = TimeConstrained::from_response_bound(&inst, 2);
        let res = round_time_constrained(&tc)
            .unwrap()
            .expect("rho = 2 is feasible");
        for (i, set) in tc.active.iter().enumerate() {
            assert!(set.contains(&res.schedule.round_of(FlowId(i as u32))));
        }
        assert!(res.augmentation <= 1, "2*dmax - 1 = 1 for unit demands");
    }

    #[test]
    fn infeasible_bound_detected() {
        // Three flows on one port pair, rho = 2: LP demands 3 units of
        // port capacity across 2 rounds.
        let inst = unit_inst(&[(0, 0, 0), (0, 0, 0), (0, 0, 0)], 1);
        let tc = TimeConstrained::from_response_bound(&inst, 2);
        assert!(round_time_constrained(&tc).unwrap().is_none());
    }

    #[test]
    fn rho_one_forces_exact_rounds() {
        let inst = unit_inst(&[(0, 0, 0), (1, 1, 0), (0, 1, 1)], 2);
        let tc = TimeConstrained::from_response_bound(&inst, 1);
        let res = round_time_constrained(&tc)
            .unwrap()
            .expect("disjoint flows fit with rho = 1");
        assert_eq!(res.schedule.round_of(FlowId(0)), 0);
        assert_eq!(res.schedule.round_of(FlowId(2)), 1);
    }

    #[test]
    fn deadline_model_respected() {
        let inst = unit_inst(&[(0, 0, 0), (0, 0, 0)], 1);
        // Flow 0 must finish by round 0; flow 1 by round 1.
        let tc = TimeConstrained::from_deadlines(&inst, &[0, 1]);
        let res = round_time_constrained(&tc)
            .unwrap()
            .expect("staggered deadlines feasible");
        assert_eq!(res.schedule.round_of(FlowId(0)), 0);
        assert_eq!(res.schedule.round_of(FlowId(1)), 1);
    }

    #[test]
    fn non_contiguous_active_sets() {
        let inst = unit_inst(&[(0, 0, 0), (0, 0, 0)], 1);
        let tc = TimeConstrained::from_active_sets(&inst, vec![vec![0, 7], vec![0, 7]]);
        let res = round_time_constrained(&tc)
            .unwrap()
            .expect("two flows, two allowed rounds");
        let (a, b) = (
            res.schedule.round_of(FlowId(0)),
            res.schedule.round_of(FlowId(1)),
        );
        assert_ne!(a, b);
        assert!(a == 0 || a == 7);
        assert!(b == 0 || b == 7);
        assert_eq!(res.augmentation, 0);
    }
}
