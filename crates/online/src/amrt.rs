//! AMRT — the online batching algorithm of Lemma 5.3 (Figure 5).
//!
//! Maintain a guessed maximum response time ρ. At each batch boundary,
//! check whether the flows that arrived during the previous window can be
//! scheduled within the next ρ rounds (time-constrained LP feasibility);
//! if so, commit the Theorem 3 offline schedule for them starting now; if
//! not, increase ρ and extend the window. Because consecutive committed
//! batches overlap at most pairwise, the port load at any round is at most
//! twice the offline bound, i.e. `2·(c_p + 2·dmax − 1)`, and every flow
//! completes within `2ρ_final` of its release.

use fss_core::prelude::*;
use fss_offline::mrt::{round_time_constrained, TimeConstrained};

/// Result of [`amrt_schedule`].
#[derive(Debug, Clone)]
pub struct AmrtResult {
    /// The committed schedule (feasible on the doubled augmented switch).
    pub schedule: Schedule,
    /// Final value of the guessed response bound ρ.
    pub final_rho: u64,
    /// Measured additive-then-doubled capacity actually used: the smallest
    /// per-port load bound of the schedule. Lemma 5.3 promises
    /// `<= 2·(c_p + 2·dmax − 1)`.
    pub max_port_load: u64,
    /// Metrics of the schedule (max response `<= 2·final_rho`).
    pub metrics: ResponseMetrics,
}

/// Run AMRT over `inst` (flows revealed at their release rounds).
pub fn amrt_schedule(inst: &Instance) -> AmrtResult {
    let n = inst.n();
    if n == 0 {
        let schedule = Schedule::from_rounds(vec![]);
        let metrics = fss_core::metrics::evaluate(inst, &schedule);
        return AmrtResult {
            schedule,
            final_rho: 0,
            max_port_load: 0,
            metrics,
        };
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (inst.flows[i].release, i));

    let mut rho = 1u64;
    let mut rounds = vec![0u64; n];
    let mut next = 0usize; // next arrival in `order`
    let mut batch_start = inst.flows[order[0]].release;

    while next < n {
        let checkpoint = batch_start + rho;
        // Flows released in [batch_start, checkpoint).
        let mut batch: Vec<usize> = Vec::new();
        let mut k = next;
        while k < n && inst.flows[order[k]].release < checkpoint {
            batch.push(order[k]);
            k += 1;
        }
        if batch.is_empty() {
            // Idle window: jump to the next arrival.
            batch_start = inst.flows[order[k]].release;
            continue;
        }
        // Can the batch run within [checkpoint, checkpoint + rho)?
        let sub = sub_instance(inst, &batch);
        let tc_active: Vec<Vec<u64>> = batch
            .iter()
            .map(|_| (checkpoint..checkpoint + rho).collect())
            .collect();
        let tc = TimeConstrained::from_active_sets(&sub, tc_active);
        match round_time_constrained(&tc).expect("LP solver within budget") {
            Some(res) => {
                for (bi, &i) in batch.iter().enumerate() {
                    rounds[i] = res.schedule.round_of(FlowId(bi as u32));
                }
                next = k;
                batch_start = checkpoint;
            }
            None => {
                // Guess too small: grow and retry with a wider window.
                rho += 1;
            }
        }
    }

    let schedule = Schedule::from_rounds(rounds);
    let metrics = fss_core::metrics::evaluate(inst, &schedule);
    let max_port_load = measure_max_port_load(inst, &schedule);
    AmrtResult {
        schedule,
        final_rho: rho,
        max_port_load,
        metrics,
    }
}

/// Project `inst` onto a subset of flows (releases kept; the active sets
/// supplied by the caller carry the batching semantics).
fn sub_instance(inst: &Instance, members: &[usize]) -> Instance {
    let mut b = InstanceBuilder::new(inst.switch.clone());
    for &i in members {
        b.push(inst.flows[i]);
    }
    b.build().expect("projection of a valid instance is valid")
}

/// Largest per-(port, round) demand load of the schedule.
fn measure_max_port_load(inst: &Instance, sched: &Schedule) -> u64 {
    use std::collections::HashMap;
    let mut in_load: HashMap<(u32, u64), u64> = HashMap::new();
    let mut out_load: HashMap<(u32, u64), u64> = HashMap::new();
    for (f, &t) in inst.flows.iter().zip(sched.rounds()) {
        *in_load.entry((f.src, t)).or_insert(0) += u64::from(f.demand);
        *out_load.entry((f.dst, t)).or_insert(0) += u64::from(f.demand);
    }
    in_load
        .values()
        .chain(out_load.values())
        .copied()
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fss_core::gen::{random_instance, GenParams};
    use fss_offline::mrt::solve_mrt;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn empty_instance() {
        let inst = InstanceBuilder::new(Switch::uniform(1, 1, 1))
            .build()
            .unwrap();
        let r = amrt_schedule(&inst);
        assert_eq!(r.final_rho, 0);
    }

    #[test]
    fn single_flow_runs_within_two_rho() {
        let mut b = InstanceBuilder::new(Switch::uniform(1, 1, 1));
        b.unit_flow(0, 0, 0);
        let inst = b.build().unwrap();
        let r = amrt_schedule(&inst);
        assert!(r.metrics.max_response <= 2 * r.final_rho);
    }

    #[test]
    fn response_bound_holds_on_random_instances() {
        let mut rng = SmallRng::seed_from_u64(64);
        for _ in 0..8 {
            let p = GenParams::unit(4, 20, 6);
            let inst = random_instance(&mut rng, &p);
            let r = amrt_schedule(&inst);
            assert!(
                r.metrics.max_response <= 2 * r.final_rho,
                "max response {} > 2 rho = {}",
                r.metrics.max_response,
                2 * r.final_rho
            );
            // Lemma 5.3 capacity bound: 2 * (c_p + 2 dmax - 1) = 2 * (1+1).
            assert!(
                r.max_port_load <= 2 * (1 + 2 * u64::from(inst.dmax()) - 1),
                "port load {} exceeds the doubled augmented bound",
                r.max_port_load
            );
        }
    }

    #[test]
    fn amrt_competitive_with_offline_optimum() {
        let mut rng = SmallRng::seed_from_u64(21);
        for _ in 0..5 {
            let p = GenParams::unit(3, 12, 5);
            let inst = random_instance(&mut rng, &p);
            let online = amrt_schedule(&inst);
            let offline = solve_mrt(&inst, None).unwrap();
            // Empirical competitiveness: record and bound loosely (the
            // lemma's constant, with batching slack, stays below 4x + 2).
            assert!(
                online.metrics.max_response <= 4 * offline.rho_star + 2,
                "online {} vs offline rho* {}",
                online.metrics.max_response,
                offline.rho_star
            );
        }
    }

    #[test]
    fn bursty_arrivals_grow_rho() {
        // 6 conflicting flows at once: rho must grow past 1.
        let mut b = InstanceBuilder::new(Switch::uniform(1, 1, 1));
        for _ in 0..6 {
            b.unit_flow(0, 0, 0);
        }
        let inst = b.build().unwrap();
        let r = amrt_schedule(&inst);
        assert!(r.final_rho >= 3, "six serialized flows need rho >= 6/2");
        assert!(r.metrics.max_response <= 2 * r.final_rho);
        validate::check(
            &inst,
            &r.schedule,
            &inst.switch.augmented((r.max_port_load.max(1) - 1) as u32),
        )
        .unwrap();
    }
}
