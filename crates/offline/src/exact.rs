//! Exact optimal solvers for tiny instances (branch and bound).
//!
//! These exponential-time solvers are the test oracles of the workspace:
//! they certify the optimal total/maximum response time on hand-sized
//! instances, which lets the test-suite verify the approximation guarantees
//! of the polynomial algorithms and the claimed values of the hardness and
//! lower-bound gadgets (Theorem 2, Figure 4).

use fss_core::prelude::*;

/// Upper limit on `n` accepted by the exact solvers (guards against
/// accidentally exponential test times).
pub(crate) const MAX_EXACT_FLOWS: usize = 16;

/// Minimum total response time over all feasible schedules, with the
/// argmin schedule. Search space: rounds `re..re + horizon_slack + n`.
pub fn min_total_response(inst: &Instance) -> (u64, Schedule) {
    branch_and_bound(inst, false)
}

/// Minimum maximum response time over all feasible schedules, with an
/// optimal schedule.
pub fn min_max_response(inst: &Instance) -> (u64, Schedule) {
    branch_and_bound(inst, true)
}

fn branch_and_bound(inst: &Instance, minimize_max: bool) -> (u64, Schedule) {
    let n = inst.n();
    assert!(
        n <= MAX_EXACT_FLOWS,
        "exact solver limited to {MAX_EXACT_FLOWS} flows"
    );
    if n == 0 {
        return (0, Schedule::from_rounds(vec![]));
    }
    // Incumbent from the greedy baseline.
    let greedy = crate::greedy::greedy_schedule(inst);
    let gm = fss_core::metrics::evaluate(inst, &greedy);
    let mut best_cost = if minimize_max {
        gm.max_response
    } else {
        gm.total_response
    };
    let mut best = greedy.clone();

    // Branch on flows in release order; each flow tries rounds
    // re..=latest, where latest is bounded by the incumbent cost.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (inst.flows[i].release, i));

    // Sparse per-(port, round) loads for the partial assignment.
    #[derive(Default)]
    struct State {
        rounds: Vec<u64>,
        in_load: std::collections::HashMap<(u32, u64), u32>,
        out_load: std::collections::HashMap<(u32, u64), u32>,
    }
    let mut st = State {
        rounds: vec![0; n],
        ..Default::default()
    };

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        inst: &Instance,
        order: &[usize],
        depth: usize,
        partial_cost: u64, // total-so-far or max-so-far
        minimize_max: bool,
        st: &mut State,
        best_cost: &mut u64,
        best: &mut Schedule,
    ) {
        if depth == order.len() {
            if partial_cost < *best_cost {
                *best_cost = partial_cost;
                *best = Schedule::from_rounds(st.rounds.clone());
            }
            return;
        }
        let i = order[depth];
        let f = inst.flows[i];
        // Admissible rounds: response time must keep the cost below the
        // incumbent. For total: rho_i <= best - partial - (remaining - 1)
        // since every remaining flow costs at least 1. For max: rho_i <
        // best.
        let remaining_after = (order.len() - depth - 1) as u64;
        let max_rho = if minimize_max {
            if *best_cost == 0 {
                return;
            }
            *best_cost - 1
        } else {
            if *best_cost <= partial_cost + remaining_after {
                return;
            }
            *best_cost - partial_cost - remaining_after - 1
        };
        if max_rho == 0 {
            return; // response time is at least 1
        }
        for rho in 1..=max_rho {
            let t = f.release + rho - 1;
            let in_key = (f.src, t);
            let out_key = (f.dst, t);
            let in_used = st.in_load.get(&in_key).copied().unwrap_or(0);
            let out_used = st.out_load.get(&out_key).copied().unwrap_or(0);
            if in_used + f.demand > inst.switch.in_cap(f.src)
                || out_used + f.demand > inst.switch.out_cap(f.dst)
            {
                continue;
            }
            *st.in_load.entry(in_key).or_insert(0) += f.demand;
            *st.out_load.entry(out_key).or_insert(0) += f.demand;
            st.rounds[i] = t;
            let cost = if minimize_max {
                partial_cost.max(rho)
            } else {
                partial_cost + rho
            };
            dfs(
                inst,
                order,
                depth + 1,
                cost,
                minimize_max,
                st,
                best_cost,
                best,
            );
            *st.in_load.get_mut(&in_key).unwrap() -= f.demand;
            *st.out_load.get_mut(&out_key).unwrap() -= f.demand;
        }
    }

    dfs(
        inst,
        &order,
        0,
        0,
        minimize_max,
        &mut st,
        &mut best_cost,
        &mut best,
    );
    debug_assert!(validate::check(inst, &best, &inst.switch).is_ok());
    (best_cost, best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_instance_costs_zero() {
        let inst = InstanceBuilder::new(Switch::uniform(1, 1, 1))
            .build()
            .unwrap();
        assert_eq!(min_total_response(&inst).0, 0);
        assert_eq!(min_max_response(&inst).0, 0);
    }

    #[test]
    fn single_flow_cost_one() {
        let mut b = InstanceBuilder::new(Switch::uniform(1, 1, 1));
        b.unit_flow(0, 0, 3);
        let inst = b.build().unwrap();
        assert_eq!(min_total_response(&inst).0, 1);
        assert_eq!(min_max_response(&inst).0, 1);
    }

    #[test]
    fn two_conflicting_flows_serialize() {
        let mut b = InstanceBuilder::new(Switch::uniform(1, 2, 1));
        b.unit_flow(0, 0, 0);
        b.unit_flow(0, 1, 0);
        let inst = b.build().unwrap();
        assert_eq!(min_total_response(&inst).0, 3); // 1 + 2
        assert_eq!(min_max_response(&inst).0, 2);
    }

    #[test]
    fn optimal_beats_or_matches_greedy() {
        use fss_core::gen::{random_instance, GenParams};
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(8);
        for _ in 0..10 {
            let p = GenParams::unit(3, 7, 3);
            let inst = random_instance(&mut rng, &p);
            let greedy = crate::greedy::greedy_schedule(&inst);
            let gm = fss_core::metrics::evaluate(&inst, &greedy);
            let (opt_tot, s1) = min_total_response(&inst);
            let (opt_max, s2) = min_max_response(&inst);
            assert!(opt_tot <= gm.total_response);
            assert!(opt_max <= gm.max_response);
            validate::check(&inst, &s1, &inst.switch).unwrap();
            validate::check(&inst, &s2, &inst.switch).unwrap();
            assert_eq!(
                fss_core::metrics::evaluate(&inst, &s1).total_response,
                opt_tot
            );
            assert_eq!(
                fss_core::metrics::evaluate(&inst, &s2).max_response,
                opt_max
            );
        }
    }

    #[test]
    fn interleaving_releases() {
        // Flow released later can still force waiting.
        let mut b = InstanceBuilder::new(Switch::uniform(1, 1, 1));
        b.unit_flow(0, 0, 0);
        b.unit_flow(0, 0, 0);
        b.unit_flow(0, 0, 1);
        let inst = b.build().unwrap();
        // One port pair: rounds 0,1,2 serialized. Responses 1,2,2 in the
        // best order (third flow released at 1 runs at 2).
        assert_eq!(min_total_response(&inst).0, 5);
        assert_eq!(min_max_response(&inst).0, 2);
    }

    #[test]
    #[should_panic(expected = "limited")]
    fn too_large_instances_rejected() {
        let mut b = InstanceBuilder::new(Switch::uniform(20, 20, 1));
        for i in 0..20 {
            b.unit_flow(i, i, 0);
        }
        let inst = b.build().unwrap();
        let _ = min_total_response(&inst);
    }
}
