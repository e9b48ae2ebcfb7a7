//! Quickstart: build a small switch instance and run everything on it —
//! the greedy baseline, the three online heuristics, the FS-MRT offline
//! solver (Theorem 3), and the FS-ART pipeline (Theorem 1).
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use flow_switch::offline::art::{art_lp_lower_bound, solve_art};
use flow_switch::offline::greedy_schedule;
use flow_switch::offline::mrt::solve_mrt;
use flow_switch::online::{run_policy, MaxCard, MaxWeight, MinRTime};
use flow_switch::prelude::*;

fn main() {
    // A 4x4 unit-capacity switch and a bursty set of unit flows.
    let mut b = InstanceBuilder::new(Switch::uniform(4, 4, 1));
    // A hotspot: input 0 sends to every output at round 0.
    for q in 0..4 {
        b.unit_flow(0, q, 0);
    }
    // Cross traffic arriving over time.
    b.unit_flow(1, 0, 0);
    b.unit_flow(2, 1, 1);
    b.unit_flow(3, 2, 1);
    b.unit_flow(1, 3, 2);
    b.unit_flow(2, 0, 2);
    b.unit_flow(3, 1, 3);
    let inst = b.build().expect("valid instance");
    println!("instance: {} flows on a 4x4 unit switch", inst.n());

    // Fractional lower bound on total response time (Lemma 3.1).
    let lp = art_lp_lower_bound(&inst, None).expect("LP solve");
    println!("LP (1)-(4) lower bound on total response: {lp:.2}");

    // Greedy baseline.
    let g = greedy_schedule(&inst);
    let gm = metrics::evaluate(&inst, &g);
    println!(
        "greedy      : total {:>3}  avg {:.2}  max {}",
        gm.total_response, gm.mean_response, gm.max_response
    );

    // Online heuristics (paper §5.2).
    for (name, sched) in [
        ("MaxCard", run_policy(&inst, &mut MaxCard::default())),
        ("MinRTime", run_policy(&inst, &mut MinRTime::default())),
        ("MaxWeight", run_policy(&inst, &mut MaxWeight::default())),
    ] {
        let m = metrics::evaluate(&inst, &sched);
        println!(
            "{name:<12}: total {:>3}  avg {:.2}  max {}",
            m.total_response, m.mean_response, m.max_response
        );
    }

    // Offline FS-MRT (Theorem 3): optimal response bound with <= 2*dmax-1
    // extra capacity per port.
    let mrt = solve_mrt(&inst, None).expect("solve");
    println!(
        "FS-MRT      : rho* = {} with +{} port capacity",
        mrt.rho_star, mrt.augmentation
    );
    validate::check(
        &inst,
        &mrt.schedule,
        &inst.switch.augmented(mrt.augmentation),
    )
    .expect("schedule feasible on augmented switch");

    // Offline FS-ART (Theorem 1): average response within 1 + O(log n)/c
    // of optimal under a (1+c) capacity blow-up.
    for c in [1, 2] {
        let art = solve_art(&inst, c);
        println!(
            "FS-ART c={c}  : total {:>3}  avg {:.2} on a {}x capacity switch (window h = {})",
            art.metrics.total_response, art.metrics.mean_response, art.capacity_factor, art.window
        );
        validate::check(&inst, &art.schedule, &inst.switch.scaled(1 + c))
            .expect("schedule feasible on scaled switch");
    }
}
