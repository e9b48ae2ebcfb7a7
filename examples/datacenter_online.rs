//! Datacenter-scale online scheduling: the paper's §5.2 experiment in
//! miniature. Generates Poisson workloads on a unit-capacity switch,
//! races the three heuristics, and prints a Figure 6/7-style table.
//!
//! ```sh
//! cargo run --release --example datacenter_online            # 30x30 demo
//! cargo run --release --example datacenter_online -- 150 10  # paper scale
//! ```
//!
//! Args: `[switch_size] [trials]`.

use flow_switch::engine::EngineTelemetry;
use flow_switch::sim::{figure_trial_seed, poisson_cell, scaled_rates, PolicyKind};

fn main() {
    let mut args = std::env::args().skip(1);
    let m: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(30);
    let trials: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(3);

    // Arrival rates proportional to the paper's M in {50,...,600} at 150
    // ports: M = m/3, 2m/3, m, 2m, 4m.
    let rates = scaled_rates(m);
    println!("switch {m}x{m}, arrival rates {rates:?}, {trials} trials/cell\n");
    let mut cells = Vec::new();
    for policy in [
        PolicyKind::MaxCard,
        PolicyKind::MinRTime,
        PolicyKind::MaxWeight,
        PolicyKind::FifoGreedy,
    ] {
        for rate in rates {
            for rounds in [10, 20, 40] {
                let seed = |k| figure_trial_seed(rate, rounds, k);
                let mut tele = EngineTelemetry::disabled();
                cells.push(poisson_cell(
                    policy, m, rate, rounds, trials, seed, &mut tele,
                ));
            }
        }
    }

    for ma in rates {
        println!(
            "{}",
            flow_switch::sim::report::figure_table(&cells, &[], ma, false)
        );
        println!(
            "{}",
            flow_switch::sim::report::figure_table(&cells, &[], ma, true)
        );
    }

    // The paper's qualitative conclusions, restated from the data:
    let pick = |p: PolicyKind, use_max: bool| -> f64 {
        cells
            .iter()
            .filter(|c| c.policy == p)
            .map(|c| {
                if use_max {
                    c.max_response
                } else {
                    c.avg_response
                }
            })
            .sum::<f64>()
    };
    println!(
        "aggregate avg-response: MaxCard {:.1}  MinRTime {:.1}  MaxWeight {:.1}",
        pick(PolicyKind::MaxCard, false),
        pick(PolicyKind::MinRTime, false),
        pick(PolicyKind::MaxWeight, false)
    );
    println!(
        "aggregate max-response: MaxCard {:.1}  MinRTime {:.1}  MaxWeight {:.1}",
        pick(PolicyKind::MaxCard, true),
        pick(PolicyKind::MinRTime, true),
        pick(PolicyKind::MaxWeight, true)
    );
}
