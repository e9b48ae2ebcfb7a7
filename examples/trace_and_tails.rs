//! Tail-latency analysis (an extension on top of the paper's mean/max
//! metrics): run two heuristics on the same Poisson workload and compare
//! their response-time distributions — p50/p95/p99, histogram, and queue
//! dynamics.
//!
//! ```sh
//! cargo run --release --example trace_and_tails
//! ```

use flow_switch::online::{run_policy, MaxCard, MinRTime};
use flow_switch::prelude::*;
use flow_switch::sim::stats::queue_length_trace;
use flow_switch::sim::{
    poisson_workload, response_histogram, response_percentiles, WorkloadParams,
};
use rand::{rngs::SmallRng, SeedableRng};

fn main() {
    let mut rng = SmallRng::seed_from_u64(0x7a11);
    let params = WorkloadParams {
        m: 12,
        mean_arrivals: 13.0,
        rounds: 30,
    };
    let inst = poisson_workload(&mut rng, &params);
    println!(
        "workload: {} flows over {} rounds on a {}x{} switch (lambda ~ {:.2})\n",
        inst.n(),
        params.rounds,
        params.m,
        params.m,
        params.mean_arrivals / params.m as f64
    );

    let sched_mc = run_policy(&inst, &mut MaxCard::default());
    let sched_mr = run_policy(&inst, &mut MinRTime::default());

    for (name, sched) in [("MaxCard", &sched_mc), ("MinRTime", &sched_mr)] {
        validate::check(&inst, sched, &inst.switch).expect("feasible");
        let p = response_percentiles(&inst, sched);
        println!(
            "{name:<9} mean {:.2}  p50 {}  p95 {}  p99 {}  max {}",
            p.mean, p.p50, p.p95, p.p99, p.max
        );
    }

    // Histogram comparison: MinRTime should compress the tail.
    println!("\nresponse-time histogram (count per response value):");
    let h_mc = response_histogram(&inst, &sched_mc);
    let h_mr = response_histogram(&inst, &sched_mr);
    let len = h_mc.len().max(h_mr.len());
    println!("{:>5} {:>9} {:>9}", "rho", "MaxCard", "MinRTime");
    for r in 0..len.min(12) {
        println!(
            "{:>5} {:>9} {:>9}",
            r + 1,
            h_mc.get(r).copied().unwrap_or(0),
            h_mr.get(r).copied().unwrap_or(0)
        );
    }
    if len > 12 {
        let tail_mc: u64 = h_mc.iter().skip(12).sum();
        let tail_mr: u64 = h_mr.iter().skip(12).sum();
        println!("{:>5} {tail_mc:>9} {tail_mr:>9}", ">12");
    }

    // Queue dynamics from the schedules.
    let q_mc = queue_length_trace(&inst, &sched_mc);
    let peak_mc = q_mc.iter().max().copied().unwrap_or(0);
    let q_mr = queue_length_trace(&inst, &sched_mr);
    let peak_mr = q_mr.iter().max().copied().unwrap_or(0);
    println!("\npeak queue length: MaxCard {peak_mc}, MinRTime {peak_mr}");
}
