//! Deadline-constrained flow scheduling (Remark 4.2): each flow has a
//! release round and a hard deadline; Theorem 3 either certifies
//! infeasibility or schedules everything with at most `2·dmax − 1` extra
//! units of port capacity.
//!
//! The scenario: a storage backup fabric where bulk transfers must finish
//! inside maintenance windows.
//!
//! ```sh
//! cargo run --release --example offline_mrt_deadlines
//! ```

use flow_switch::offline::mrt::{round_time_constrained, TimeConstrained};
use flow_switch::prelude::*;

fn main() {
    // 3 racks -> 2 backup targets; ports carry up to 4 demand units/round.
    let mut b = InstanceBuilder::new(Switch::new(vec![4, 4, 4], vec![4, 4]));
    // (src, dst, demand, release, deadline): bulky transfers with windows.
    let spec: &[(u32, u32, u32, u64, u64)] = &[
        (0, 0, 3, 0, 2),
        (0, 1, 2, 0, 3),
        (1, 0, 4, 1, 4),
        (1, 1, 2, 0, 1),
        (2, 0, 2, 2, 5),
        (2, 1, 4, 2, 4),
        (0, 0, 2, 3, 6),
        (1, 1, 3, 4, 6),
    ];
    let mut deadlines = Vec::new();
    for &(s, d, dem, r, dl) in spec {
        b.flow(s, d, dem, r);
        deadlines.push(dl);
    }
    let inst = b.build().expect("valid instance");
    let dmax = inst.dmax();
    println!("{} transfers, dmax = {dmax}", inst.n());

    let tc = TimeConstrained::from_deadlines(&inst, &deadlines);
    match round_time_constrained(&tc).expect("solver") {
        None => println!("infeasible: no schedule meets every deadline (LP certificate)"),
        Some(res) => {
            println!(
                "scheduled with +{} port capacity (Theorem 3 bound: {})",
                res.augmentation,
                2 * dmax - 1
            );
            for (i, &(s, d, dem, r, dl)) in spec.iter().enumerate() {
                let t = res.schedule.round_of(FlowId(i as u32));
                println!(
                    "  transfer {i}: {s}->{d} demand {dem} window [{r}, {dl}] runs at round {t}"
                );
                assert!(t >= r && t <= dl, "deadline respected");
            }
            validate::check(
                &inst,
                &res.schedule,
                &inst.switch.augmented(res.augmentation),
            )
            .expect("feasible on augmented switch");
        }
    }

    // Tighten the deadlines until infeasible to show the certificate path.
    let tight: Vec<u64> = deadlines.iter().map(|&d| d.saturating_sub(3)).collect();
    let tight: Vec<u64> = inst
        .flows
        .iter()
        .zip(&tight)
        .map(|(f, &d)| d.max(f.release))
        .collect();
    let tc2 = TimeConstrained::from_deadlines(&inst, &tight);
    match round_time_constrained(&tc2).expect("solver") {
        None => println!("\ntightened deadlines: correctly reported infeasible"),
        Some(res) => println!(
            "\ntightened deadlines: still feasible with +{} capacity",
            res.augmentation
        ),
    }
}
