//! Theorem 1 realization: pseudo-schedule → valid schedule under a
//! `(1 + c)` capacity blow-up.
//!
//! Time is chopped into windows of `h` rounds. The flows a window receives
//! from the pseudo-schedule form a bipartite multigraph whose per-port
//! degree is at most `c_p·h + O(c_p log n)` (Lemma 3.3). Port replication
//! plus König edge coloring (`fss-matching`) decomposes that graph into
//! `d ≤ h + O(log n)` b-matchings, each loading every port by at most
//! `c_p`. Executing `1 + c` of those classes per round inside the *next*
//! window needs `⌈d/(1+c)⌉ ≤ h` rounds — guaranteed once
//! `h ≥ Θ(log n / c)` — and keeps every per-round port load at
//! `(1+c)·c_p`. Each flow is delayed by at most `2h = O(log n / c)` rounds
//! past its pseudo-round, giving the `1 + O(log n)/c` approximation.
//!
//! The implementation picks `h` adaptively (doubling) rather than deriving
//! the hidden constant: the first `h` for which every window's class count
//! fits is used, and it is `O(log n / c)` by the lemma.

use fss_core::prelude::*;
use fss_matching::{decompose_into_b_matchings, BipartiteGraph};

/// Output of [`realize_schedule`].
#[derive(Debug, Clone)]
pub struct RealizedSchedule {
    /// Valid schedule against `switch.scaled(1 + c)`.
    pub schedule: Schedule,
    /// The window length `h` that was used.
    pub window: u64,
}

/// Convert `pseudo` into a valid schedule on the `(1+c)`-scaled switch.
/// Unit demands required (Theorem 1 setting). Flows assigned to window `j`
/// by the pseudo-schedule execute inside window `j + 1`, so release times
/// are automatically respected.
pub fn realize_schedule(inst: &Instance, pseudo: &PseudoSchedule, c: u32) -> RealizedSchedule {
    assert!(c >= 1, "augmentation parameter c must be >= 1");
    assert!(
        inst.is_unit_demand(),
        "Theorem 1 realization requires unit demands"
    );
    assert_eq!(pseudo.len(), inst.n(), "pseudo-schedule covers every flow");
    let n = inst.n();
    if n == 0 {
        return RealizedSchedule {
            schedule: Schedule::from_rounds(vec![]),
            window: 1,
        };
    }

    let stack = u64::from(c) + 1; // classes executable per round
    let mut h = 1u64;
    loop {
        if let Some(schedule) = try_window(inst, pseudo, h, stack) {
            debug_assert!(
                validate::check(inst, &schedule, &inst.switch.scaled(1 + c)).is_ok(),
                "realized schedule must fit the scaled switch"
            );
            return RealizedSchedule {
                schedule,
                window: h,
            };
        }
        h *= 2;
        assert!(
            h <= 2 * (pseudo.makespan() + n as u64 + 2),
            "window growth runaway: decomposition cannot fail at h >= makespan"
        );
    }
}

/// Attempt the realization at a fixed window length; `None` when some
/// window needs more than `h` rounds to execute its color classes.
fn try_window(inst: &Instance, pseudo: &PseudoSchedule, h: u64, stack: u64) -> Option<Schedule> {
    let makespan = pseudo.makespan();
    let windows = makespan.div_ceil(h).max(1);
    let mut rounds = vec![0u64; inst.n()];

    let b_left: Vec<u32> = (0..inst.switch.num_inputs() as u32)
        .map(|p| inst.switch.in_cap(p))
        .collect();
    let b_right: Vec<u32> = (0..inst.switch.num_outputs() as u32)
        .map(|q| inst.switch.out_cap(q))
        .collect();

    for j in 0..windows {
        let lo = j * h;
        let hi = lo + h;
        // Flows the pseudo-schedule puts in this window.
        let members: Vec<usize> = (0..inst.n())
            .filter(|&i| {
                let t = pseudo.rounds()[i];
                t >= lo && t < hi
            })
            .collect();
        if members.is_empty() {
            continue;
        }
        let mut g = BipartiteGraph::new(inst.switch.num_inputs(), inst.switch.num_outputs());
        for &i in &members {
            let f = &inst.flows[i];
            g.add_edge(f.src, f.dst);
        }
        let classes = decompose_into_b_matchings(&g, &b_left, &b_right);
        let needed = (classes.len() as u64).div_ceil(stack);
        if needed > h {
            return None;
        }
        // Execute inside window j+1: `stack` classes share each round.
        let base = (j + 1) * h;
        for (k, class) in classes.iter().enumerate() {
            let round = base + k as u64 / stack;
            for &edge in class {
                rounds[members[edge]] = round;
            }
        }
    }
    Some(Schedule::from_rounds(rounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::art::iterative_rounding;
    use fss_core::gen::{random_instance, GenParams};
    use rand::{rngs::SmallRng, SeedableRng};

    fn realize_checked(inst: &Instance, c: u32) -> RealizedSchedule {
        let pseudo = iterative_rounding(inst).pseudo;
        let r = realize_schedule(inst, &pseudo, c);
        validate::check(inst, &r.schedule, &inst.switch.scaled(1 + c)).unwrap();
        r
    }

    #[test]
    fn empty_instance() {
        let inst = InstanceBuilder::new(Switch::uniform(1, 1, 1))
            .build()
            .unwrap();
        let r = realize_schedule(&inst, &PseudoSchedule::from_rounds(vec![]), 1);
        assert!(r.schedule.is_empty());
    }

    #[test]
    fn single_flow_lands_in_next_window() {
        let mut b = InstanceBuilder::new(Switch::uniform(1, 1, 1));
        b.unit_flow(0, 0, 0);
        let inst = b.build().unwrap();
        let pseudo = PseudoSchedule::from_rounds(vec![0]);
        let r = realize_schedule(&inst, &pseudo, 1);
        // Window 0 is [0, h); execution in window 1 starts at h >= 1.
        assert!(r.schedule.round_of(FlowId(0)) >= 1);
        assert!(r.schedule.round_of(FlowId(0)) <= 2 * r.window);
    }

    #[test]
    fn overloaded_pseudo_round_is_spread_out() {
        // Five flows rammed into pseudo-round 0 on a single unit pair:
        // realization must spread them across the next window(s) under
        // capacity 1 + c = 2 per round.
        let mut b = InstanceBuilder::new(Switch::uniform(1, 1, 1));
        for _ in 0..5 {
            b.unit_flow(0, 0, 0);
        }
        let inst = b.build().unwrap();
        let pseudo = PseudoSchedule::from_rounds(vec![0; 5]);
        let r = realize_schedule(&inst, &pseudo, 1);
        validate::check(&inst, &r.schedule, &inst.switch.scaled(2)).unwrap();
    }

    #[test]
    fn random_instances_all_valid_for_various_c() {
        let mut rng = SmallRng::seed_from_u64(33);
        for &c in &[1u32, 2, 4] {
            let p = GenParams::unit(4, 18, 4);
            let inst = random_instance(&mut rng, &p);
            let r = realize_checked(&inst, c);
            // Delay bound: every flow within 2h of its pseudo round is
            // implied by construction; spot-check the metric is finite and
            // the makespan did not explode.
            assert!(r.schedule.makespan() <= inst.trivial_horizon() + 2 * r.window + r.window);
        }
    }

    #[test]
    fn general_capacities_use_b_matchings() {
        let mut b = InstanceBuilder::new(Switch::new(vec![2, 1], vec![2, 1]));
        for _ in 0..4 {
            b.unit_flow(0, 0, 0);
        }
        b.unit_flow(1, 1, 0);
        b.unit_flow(0, 1, 1);
        let inst = b.build().unwrap();
        let r = realize_checked(&inst, 1);
        assert!(r.schedule.makespan() > 0);
    }

    #[test]
    fn larger_c_never_needs_a_larger_window() {
        let mut rng = SmallRng::seed_from_u64(99);
        let p = GenParams::unit(3, 15, 2);
        let inst = random_instance(&mut rng, &p);
        let pseudo = iterative_rounding(&inst).pseudo;
        let h1 = realize_schedule(&inst, &pseudo, 1).window;
        let h4 = realize_schedule(&inst, &pseudo, 4).window;
        assert!(h4 <= h1);
    }
}
