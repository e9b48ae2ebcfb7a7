//! Open-problem probe (paper §6): empirical evidence on whether
//! interval-degree-bounded request sequences admit constant response
//! time without augmentation.

use fss_core::prelude::*;
use fss_offline::exact::min_max_response;
use fss_offline::mrt::min_feasible_rho;
use rand::{rngs::SmallRng, Rng, SeedableRng};

use crate::registry::{CellOutcome, CellSpec, Experiment};

/// Generate `rounds` of unit-flow arrivals on an `m x m` unit switch such
/// that every port's arrival degree over any window `I` is `<= |I| + 1`.
///
/// Invariant maintained per port: with `g_v(t) = arrivals_v(0..=t) - t`,
/// the condition is `g_v(j) - min_{i<j} g_v(i) <= 1` for all `j`. We
/// track the running minimum and admit an edge only if both endpoints
/// stay within budget.
pub fn degree_bounded_sequence(rng: &mut SmallRng, m: usize, rounds: u64) -> Instance {
    let mut b = InstanceBuilder::new(Switch::uniform(m, m, 1));
    let mut g_in = vec![0i64; m];
    let mut gmin_in = vec![0i64; m];
    let mut g_out = vec![0i64; m];
    let mut gmin_out = vec![0i64; m];
    for t in 0..rounds {
        let mut deg_in = vec![0i64; m];
        let mut deg_out = vec![0i64; m];
        let attempts = m + rng.gen_range(0..=m / 2 + 1);
        for _ in 0..attempts {
            let s = rng.gen_range(0..m);
            let d = rng.gen_range(0..m);
            let gi = g_in[s] + deg_in[s] + 1 - 1;
            let go = g_out[d] + deg_out[d] + 1 - 1;
            if gi - gmin_in[s] <= 1 && go - gmin_out[d] <= 1 {
                deg_in[s] += 1;
                deg_out[d] += 1;
                b.unit_flow(s as u32, d as u32, t);
            }
        }
        for v in 0..m {
            g_in[v] += deg_in[v] - 1;
            gmin_in[v] = gmin_in[v].min(g_in[v]);
            g_out[v] += deg_out[v] - 1;
            gmin_out[v] = gmin_out[v].min(g_out[v]);
        }
    }
    b.build().expect("generator respects invariants")
}

/// Verify the interval-degree condition directly (test oracle for the
/// generator).
pub fn check_degree_condition(inst: &Instance, m: usize, rounds: u64) -> bool {
    let arr = |v: u32, input: bool, t: u64| -> i64 {
        inst.flows
            .iter()
            .filter(|f| f.release == t && if input { f.src == v } else { f.dst == v })
            .count() as i64
    };
    for v in 0..m as u32 {
        for input in [true, false] {
            for i in 0..rounds {
                let mut sum = 0i64;
                for j in i..rounds {
                    sum += arr(v, input, j);
                    if sum > (j - i + 1) as i64 + 1 {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// The probe experiment: one cell sampling many degree-bounded
/// sequences and reporting the worst exact / LP ρ observed.
pub fn open_problem_probe() -> Experiment {
    Experiment {
        id: "open_problem_probe",
        description: "paper §6 probe — worst exact rho over degree-bounded request sequences",
        build: Box::new(|scale| {
            // The paper tier samples many more sequences: the probe's
            // value is the worst case observed, which sharpens with
            // sample count. `sequences` is already a param, so tiers
            // get distinct fingerprints.
            let trials = scale.trials(5, 200);
            let rounds = if scale.paper { 5u64 } else { 4 };
            let m = 3usize;
            vec![CellSpec::new(
                format!("open_problem_probe/m{m}/rounds{rounds}"),
                vec![
                    ("m", m.to_string()),
                    ("rounds", rounds.to_string()),
                    ("sequences", trials.to_string()),
                ],
                move || probe_cell(m, rounds, trials),
            )]
        }),
    }
}

fn probe_cell(m: usize, rounds: u64, trials: u64) -> CellOutcome {
    let mut worst_exact = 0u64;
    let mut worst_lp = 0u64;
    let mut flows = 0u64;
    let mut done = 0u64;
    let mut seed = 0u64;
    while done < trials {
        seed += 1;
        let mut rng = SmallRng::seed_from_u64(0x09e4 + seed);
        let inst = degree_bounded_sequence(&mut rng, m, rounds);
        if inst.n() == 0 || inst.n() > 14 {
            continue; // keep the exact solver honest
        }
        assert!(
            check_degree_condition(&inst, m, rounds),
            "generator invariant broken"
        );
        let lp = min_feasible_rho(&inst, None).expect("LP search");
        let (exact, _) = min_max_response(&inst);
        worst_exact = worst_exact.max(exact);
        worst_lp = worst_lp.max(lp);
        flows += inst.n() as u64;
        done += 1;
    }
    CellOutcome {
        metrics: vec![
            ("worst_lp_rho".into(), worst_lp as f64),
            ("worst_exact_rho".into(), worst_exact as f64),
            ("sequences".into(), trials as f64),
        ],
        flows,
        engine_mode: "exact",
        telemetry: None,
    }
}
