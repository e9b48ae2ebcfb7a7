//! The online execution loop: rounds advance, released flows join the open
//! queue, the policy extracts a matching, matched flows depart.
//!
//! This mirrors the paper's simulator skeleton (§5.2.1): `G_t` consists of
//! flows released at time `t` plus those remaining from previous steps; any
//! heuristic plugs in to extract `M_t ⊆ E(G_t)`.
//!
//! This loop is the **reference implementation**: simple, obviously
//! faithful to the paper, and the differential-testing baseline for the
//! event-driven engine (`fss-engine`), which reproduces its schedules
//! round-for-round while running the hot cells much faster. New callers
//! should prefer `fss_engine::run_instance`.

use fss_core::prelude::*;

use crate::policy::{OnlinePolicy, QueueState, WaitingFlow};

/// Run `policy` over `inst` online. Requires unit capacities and unit
/// demands (the paper's experimental setting). Returns the resulting
/// feasible schedule.
///
/// Panics if the policy ever returns a non-matching or an out-of-range
/// selection — policies are trusted components and such a return is a bug.
pub fn run_policy<P: OnlinePolicy>(inst: &Instance, policy: &mut P) -> Schedule {
    run_policy_under(inst, policy, None)
}

/// [`run_policy`] under an optional outage plan: flows incident on a
/// dead port are hidden from the policy for the affected rounds (the
/// reference the engine's failure-aware drive is differentially tested
/// against). `None` hides nothing.
pub fn run_policy_under<P: OnlinePolicy + ?Sized>(
    inst: &Instance,
    policy: &mut P,
    failures: Option<&FailurePlan>,
) -> Schedule {
    assert!(
        inst.switch.is_unit_capacity(),
        "online runner requires unit capacities"
    );
    assert!(inst.is_unit_demand(), "online runner requires unit demands");
    let n = inst.n();
    let mut rounds = vec![0u64; n];
    if n == 0 {
        return Schedule::from_rounds(rounds);
    }

    // Arrival order.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (inst.flows[i].release, i));
    let mut next = 0usize;
    let mut waiting: Vec<WaitingFlow> = Vec::new();
    let mut t = inst.flows[order[0]].release;
    let mut remaining = n;

    while remaining > 0 {
        while next < n && inst.flows[order[next]].release <= t {
            let i = order[next];
            let f = &inst.flows[i];
            waiting.push(WaitingFlow {
                id: FlowId(i as u32),
                src: f.src,
                dst: f.dst,
                release: f.release,
            });
            next += 1;
        }
        if waiting.is_empty() {
            t = inst.flows[order[next]].release;
            continue;
        }
        // Under a plan only flows whose both ports are up are offered to
        // the policy: `usable` holds their `waiting` indices.
        let up = |w: &WaitingFlow| {
            failures.is_none_or(|plan| {
                plan.is_up(PortSide::Input, w.src, t) && plan.is_up(PortSide::Output, w.dst, t)
            })
        };
        let usable: Vec<usize> = (0..waiting.len()).filter(|&k| up(&waiting[k])).collect();
        if usable.is_empty() {
            t += 1;
            continue;
        }
        let visible: Vec<WaitingFlow> = usable.iter().map(|&k| waiting[k]).collect();
        let state = QueueState {
            round: t,
            waiting: &visible,
            m_in: inst.switch.num_inputs(),
            m_out: inst.switch.num_outputs(),
        };
        let mut selection = policy.choose(&state);
        selection.sort_unstable();
        selection.dedup();
        // Validate: indices in range and vertex-disjoint.
        let mut used_in = vec![false; inst.switch.num_inputs()];
        let mut used_out = vec![false; inst.switch.num_outputs()];
        for &k in &selection {
            let w = &visible[k];
            assert!(
                !used_in[w.src as usize] && !used_out[w.dst as usize],
                "policy {} returned a non-matching at round {t}",
                policy.name()
            );
            used_in[w.src as usize] = true;
            used_out[w.dst as usize] = true;
            rounds[w.id.idx()] = t;
        }
        remaining -= selection.len();
        // Remove scheduled flows (`usable` is increasing, so descending
        // index order keeps swaps valid).
        for &k in selection.iter().rev() {
            waiting.swap_remove(usable[k]);
        }
        t += 1;
    }
    let sched = Schedule::from_rounds(rounds);
    debug_assert!(validate::check(inst, &sched, &inst.switch).is_ok());
    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FifoGreedy, MaxCard, MaxWeight, MinRTime};
    use fss_core::gen::{random_instance, GenParams};
    use rand::{rngs::SmallRng, SeedableRng};

    fn all_policies_run(inst: &Instance) {
        let s1 = run_policy(inst, &mut MaxCard::default());
        let s2 = run_policy(inst, &mut MinRTime::default());
        let s3 = run_policy(inst, &mut MaxWeight::default());
        let s4 = run_policy(inst, &mut FifoGreedy::default());
        for s in [&s1, &s2, &s3, &s4] {
            validate::check(inst, s, &inst.switch).unwrap();
        }
    }

    #[test]
    fn empty_instance() {
        let inst = InstanceBuilder::new(Switch::uniform(2, 2, 1))
            .build()
            .unwrap();
        assert!(run_policy(&inst, &mut MaxCard::default()).is_empty());
    }

    #[test]
    fn all_policies_produce_feasible_schedules() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..6 {
            let p = GenParams::unit(5, 30, 8);
            let inst = random_instance(&mut rng, &p);
            all_policies_run(&inst);
        }
    }

    #[test]
    fn policies_never_idle_a_schedulable_flow_forever() {
        // Work conservation modulo matchings: makespan is finite and below
        // the serialization bound.
        let mut rng = SmallRng::seed_from_u64(14);
        let p = GenParams::unit(4, 25, 5);
        let inst = random_instance(&mut rng, &p);
        for s in [
            run_policy(&inst, &mut MaxCard::default()),
            run_policy(&inst, &mut MinRTime::default()),
            run_policy(&inst, &mut MaxWeight::default()),
            run_policy(&inst, &mut FifoGreedy::default()),
        ] {
            assert!(s.makespan() <= inst.max_release() + inst.n() as u64);
        }
    }

    #[test]
    fn maxcard_beats_fifo_on_average_sometimes() {
        // The classic augmenting-path situation: FIFO blocks, MaxCard
        // doesn't. Flows: (0,0) old, (0,1), (1,0) — FIFO takes (0,0) first
        // and serializes the rest.
        let mut b = InstanceBuilder::new(Switch::uniform(2, 2, 1));
        b.unit_flow(0, 0, 0);
        b.unit_flow(0, 1, 0);
        b.unit_flow(1, 0, 0);
        let inst = b.build().unwrap();
        let mc = fss_core::metrics::evaluate(&inst, &run_policy(&inst, &mut MaxCard::default()));
        let ff = fss_core::metrics::evaluate(&inst, &run_policy(&inst, &mut FifoGreedy::default()));
        assert!(mc.total_response <= ff.total_response);
    }

    #[test]
    fn minrtime_bounds_aging_on_adversarial_stream() {
        // Stream of conflicting pairs: MinRTime must not starve anyone.
        let mut b = InstanceBuilder::new(Switch::uniform(2, 2, 1));
        for t in 0..10 {
            b.unit_flow(0, 0, t);
            b.unit_flow(0, 1, t);
        }
        let inst = b.build().unwrap();
        let s = run_policy(&inst, &mut MinRTime::default());
        let m = fss_core::metrics::evaluate(&inst, &s);
        // Input port 0 receives 2 flows per round: queue grows linearly,
        // but MinRTime serves oldest-first so max response stays ~n.
        assert!(m.max_response <= 2 * 10 + 1);
    }

    #[test]
    #[should_panic(expected = "unit capacities")]
    fn non_unit_capacity_rejected() {
        let inst = InstanceBuilder::new(Switch::uniform(2, 2, 2))
            .build()
            .unwrap();
        let _ = run_policy(&inst, &mut MaxCard::default());
    }
}
