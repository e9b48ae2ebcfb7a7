//! Cross-crate integration tests: the full ART and MRT pipelines against
//! the LP bounds and the exact solver.

use flow_switch::offline::art::{art_lp_lower_bound, solve_art};
use flow_switch::offline::exact::{min_max_response, min_total_response};
use flow_switch::offline::greedy_schedule;
use flow_switch::offline::mrt::solve_mrt;
use flow_switch::prelude::*;
use fss_core::gen::{random_instance, GenParams};
use rand::{rngs::SmallRng, SeedableRng};

#[test]
fn art_pipeline_chain_of_inequalities() {
    // LP bound <= exact optimum <= greedy total; the ART schedule is valid
    // on the scaled switch and its cost is bounded by pseudo + delay.
    let mut rng = SmallRng::seed_from_u64(1001);
    for _ in 0..4 {
        let p = GenParams::unit(3, 9, 3);
        let inst = random_instance(&mut rng, &p);
        let lp = art_lp_lower_bound(&inst, None).unwrap();
        let (opt, _) = min_total_response(&inst);
        let greedy = metrics::evaluate(&inst, &greedy_schedule(&inst)).total_response;
        assert!(lp <= opt as f64 + 1e-6, "LP {lp} > OPT {opt}");
        assert!(opt <= greedy);

        let art = solve_art(&inst, 2);
        validate::check(&inst, &art.schedule, &inst.switch.scaled(3)).unwrap();
        // End-to-end: every flow delayed at most 2h beyond its pseudo round.
        for (i, f) in inst.flows.iter().enumerate() {
            let pseudo_t = art.pseudo.pseudo.round_of(FlowId(i as u32));
            let real_t = art.schedule.round_of(FlowId(i as u32));
            assert!(real_t >= f.release);
            assert!(
                real_t <= pseudo_t + 2 * art.window,
                "flow {i} delayed {real_t} > pseudo {pseudo_t} + 2h"
            );
        }
    }
}

#[test]
fn mrt_pipeline_sandwich() {
    // rho_star (LP) <= exact optimum <= achieved max response on the
    // augmented switch; augmentation within the paper bound.
    let mut rng = SmallRng::seed_from_u64(1002);
    for _ in 0..4 {
        let p = GenParams::unit(3, 8, 4);
        let inst = random_instance(&mut rng, &p);
        let r = solve_mrt(&inst, None).unwrap();
        let (opt, _) = min_max_response(&inst);
        assert!(r.rho_star <= opt, "LP rho* {} > OPT {opt}", r.rho_star);
        let m = metrics::evaluate(&inst, &r.schedule);
        assert!(m.max_response <= r.rho_star, "rounding broke the bound");
        assert!(r.augmentation <= 1);
        validate::check(&inst, &r.schedule, &inst.switch.augmented(r.augmentation)).unwrap();
    }
}

#[test]
fn art_cost_tracks_augmentation_tradeoff() {
    // Larger c (more capacity) should not significantly worsen total
    // response; check it is weakly better in aggregate over seeds.
    let mut rng = SmallRng::seed_from_u64(1004);
    let mut total_c1 = 0u64;
    let mut total_c4 = 0u64;
    for _ in 0..4 {
        let p = GenParams::unit(4, 14, 4);
        let inst = random_instance(&mut rng, &p);
        total_c1 += solve_art(&inst, 1).metrics.total_response;
        total_c4 += solve_art(&inst, 4).metrics.total_response;
    }
    assert!(
        total_c4 <= total_c1 + 8,
        "c = 4 markedly worse than c = 1: {total_c4} vs {total_c1}"
    );
}

#[test]
fn heavy_single_port_contention() {
    // Pathological hotspot: 12 flows through one pair. Everything
    // serializes; all algorithms must agree on the shape.
    let mut b = InstanceBuilder::new(Switch::uniform(1, 1, 1));
    for _ in 0..12 {
        b.unit_flow(0, 0, 0);
    }
    let inst = b.build().unwrap();
    let r = solve_mrt(&inst, None).unwrap();
    assert_eq!(r.rho_star, 12);
    let lp = art_lp_lower_bound(&inst, None).unwrap();
    assert!((lp - 72.0).abs() < 1e-4, "k^2/2 = 72 for k = 12, got {lp}");
}
