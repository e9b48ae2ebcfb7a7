//! The theorem-validation and extension tables, registered cell-by-cell.
//!
//! Each table's rows are independent cells, each seeded from its own
//! row values, so heavy rows — large-`n` LP solves, exact searches —
//! load-balance across the orchestrator's threads and a row's numbers
//! do not depend on which other rows ran.

use fss_coflow::instance::CoflowBuilder;
use fss_coflow::{
    bottleneck_lower_bound, evaluate as coflow_evaluate, schedule_coflows, CoflowInstance,
    CoflowOrdering,
};
use fss_core::gen::{random_instance, GenParams};
use fss_core::prelude::*;
use fss_offline::art::{art_lp_lower_bound, solve_art};
use fss_offline::exact::min_max_response;
use fss_offline::greedy_schedule;
use fss_offline::hardness::{
    figure_4b, rtt_reduction, small_satisfiable_rtt, small_unsatisfiable_rtt,
};
use fss_offline::mrt::{lp_feasible, solve_mrt};
use fss_online::{amrt_schedule, run_policy, MaxCard, MaxWeight, MinRTime};
use rand::{rngs::SmallRng, Rng, SeedableRng};

use crate::registry::{CellOutcome, CellSpec, Experiment};

/// Theorem 1 validation: FS-ART vs the LP optimum for `c ∈ {1, 2, 4}`.
pub(crate) fn table_art() -> Experiment {
    Experiment {
        id: "table_art",
        description: "Theorem 1 validation — FS-ART cost vs LP (1)-(4) across capacity factors",
        build: Box::new(|scale| {
            let sizes: Vec<usize> = if scale.paper {
                vec![20, 40, 80, 120, 160]
            } else {
                vec![12, 20]
            };
            let trials = scale.trials(1, 10);
            let mut cells = Vec::new();
            for &n in &sizes {
                let m = (n / 5).clamp(3, 12);
                for &c in &[1u32, 2, 4] {
                    cells.push(CellSpec::new(
                        format!("table_art/n{n}/c{c}"),
                        vec![
                            ("n", n.to_string()),
                            ("m", m.to_string()),
                            ("c", c.to_string()),
                            ("trials", trials.to_string()),
                        ],
                        move || art_cell(n, m, c, trials),
                    ));
                }
            }
            cells
        }),
    }
}

fn art_cell(n: usize, m: usize, c: u32, trials: u64) -> CellOutcome {
    let mut lp_sum = 0.0;
    let mut pseudo_sum = 0.0;
    let mut overload_max = 0i64;
    let mut total_sum = 0u64;
    let mut window_sum = 0u64;
    for k in 0..trials {
        let mut rng = SmallRng::seed_from_u64((0xa47 + (n as u64)) << 8 | k);
        let p = GenParams::unit(m, n, (n / 4) as u64);
        let inst = random_instance(&mut rng, &p);
        let lp = art_lp_lower_bound(&inst, None).expect("LP bound");
        let res = solve_art(&inst, c);
        lp_sum += lp;
        pseudo_sum += res.pseudo.pseudo.total_response(&inst) as f64;
        overload_max = overload_max.max(res.pseudo.pseudo.max_window_overload(&inst));
        total_sum += res.metrics.total_response;
        window_sum += res.window;
    }
    let t = trials as f64;
    let lp = lp_sum / t;
    let total = total_sum as f64 / t;
    CellOutcome {
        metrics: vec![
            ("lp_bound".into(), lp),
            ("pseudo_cost".into(), pseudo_sum / t),
            ("overload".into(), overload_max as f64),
            ("log_bound".into(), 10.0 * ((n as f64).log2().ceil() + 1.0)),
            ("total_response".into(), total),
            ("ratio".into(), total / lp.max(1.0)),
            ("window".into(), window_sum as f64 / t),
        ],
        flows: n as u64 * trials,
        engine_mode: "offline",
        telemetry: None,
    }
}

/// Theorem 3 validation: FS-MRT augmentation vs the `2·dmax − 1` budget.
pub(crate) fn table_mrt() -> Experiment {
    Experiment {
        id: "table_mrt",
        description: "Theorem 3 validation — FS-MRT augmentation vs the 2*dmax-1 budget",
        build: Box::new(|scale| {
            let ns: Vec<usize> = if scale.paper {
                vec![15, 30, 60, 90]
            } else {
                vec![10]
            };
            let trials = scale.trials(2, 10);
            let mut cells = Vec::new();
            for &n in &ns {
                for &dmax in &[1u32, 2, 3, 5] {
                    cells.push(CellSpec::new(
                        format!("table_mrt/n{n}/dmax{dmax}"),
                        vec![
                            ("n", n.to_string()),
                            ("dmax", dmax.to_string()),
                            ("trials", trials.to_string()),
                        ],
                        move || mrt_cell(n, dmax, trials),
                    ));
                }
            }
            cells
        }),
    }
}

fn mrt_cell(n: usize, dmax: u32, trials: u64) -> CellOutcome {
    let mut rho_sum = 0u64;
    let mut greedy_sum = 0u64;
    let mut aug_max = 0u32;
    let mut all_within = true;
    for k in 0..trials {
        let mut rng = SmallRng::seed_from_u64(0x3a7 + (n as u64 * 131) + k);
        let p = GenParams {
            m: 4,
            m_out: 4,
            cap: 2 * dmax,
            n,
            max_demand: dmax,
            max_release: (n / 3) as u64,
        };
        let inst = random_instance(&mut rng, &p);
        let d_actual = inst.dmax();
        let r = solve_mrt(&inst, None).expect("solver");
        greedy_sum += metrics::evaluate(&inst, &greedy_schedule(&inst)).max_response;
        rho_sum += r.rho_star;
        aug_max = aug_max.max(r.augmentation);
        if r.augmentation > 2 * d_actual - 1 {
            all_within = false;
        }
        validate::check(&inst, &r.schedule, &inst.switch.augmented(r.augmentation))
            .expect("schedule feasible on augmented switch");
    }
    let t = trials as f64;
    CellOutcome {
        metrics: vec![
            ("rho_star".into(), rho_sum as f64 / t),
            ("greedy_rho".into(), greedy_sum as f64 / t),
            ("max_augmentation".into(), f64::from(aug_max)),
            ("budget".into(), f64::from(2 * dmax - 1)),
            ("within_budget".into(), if all_within { 1.0 } else { 0.0 }),
        ],
        flows: n as u64 * trials,
        engine_mode: "offline",
        telemetry: None,
    }
}

/// Lemma 5.3 validation: online AMRT vs the offline ρ* and its load
/// budget.
pub(crate) fn table_amrt() -> Experiment {
    Experiment {
        id: "table_amrt",
        description: "Lemma 5.3 validation — online AMRT vs offline rho* and the load budget",
        build: Box::new(|scale| {
            let configs: Vec<(usize, u64)> = if scale.paper {
                vec![(12, 4), (24, 8), (48, 16), (96, 32)]
            } else {
                vec![(10, 4)]
            };
            let trials = scale.trials(2, 10);
            configs
                .into_iter()
                .map(|(n, span)| {
                    CellSpec::new(
                        format!("table_amrt/n{n}/span{span}"),
                        vec![
                            ("n", n.to_string()),
                            ("release_span", span.to_string()),
                            ("trials", trials.to_string()),
                        ],
                        move || amrt_cell(n, span, trials),
                    )
                })
                .collect()
        }),
    }
}

fn amrt_cell(n: usize, span: u64, trials: u64) -> CellOutcome {
    let mut online_sum = 0u64;
    let mut offline_sum = 0u64;
    let mut load_max = 0u64;
    for k in 0..trials {
        let mut rng = SmallRng::seed_from_u64(0xa3a7 + (n as u64 * 17) + k);
        let p = GenParams::unit(4, n, span);
        let inst = random_instance(&mut rng, &p);
        let online = amrt_schedule(&inst);
        let offline = solve_mrt(&inst, None).unwrap();
        online_sum += online.metrics.max_response;
        offline_sum += offline.rho_star;
        load_max = load_max.max(online.max_port_load);
    }
    let t = trials as f64;
    let online = online_sum as f64 / t;
    let offline = offline_sum as f64 / t;
    CellOutcome {
        metrics: vec![
            ("online_rho".into(), online),
            ("offline_rho_star".into(), offline),
            ("ratio".into(), online / offline.max(1.0)),
            ("max_port_load".into(), load_max as f64),
            // Unit capacities and demands: 2 * (1 + 2*1 - 1) = 4.
            ("load_budget".into(), 4.0),
        ],
        flows: n as u64 * trials,
        engine_mode: "offline",
        telemetry: None,
    }
}

/// Theorem 2 / Lemma 5.2 gap table: exact values of the hardness
/// gadgets. Scale-independent (the gadgets are fixed).
pub(crate) fn table_gaps() -> Experiment {
    Experiment {
        id: "table_gaps",
        description: "Theorem 2 / Lemma 5.2 — exact gap values of the hardness gadgets",
        build: Box::new(|_scale| {
            vec![
                CellSpec::new(
                    "table_gaps/rtt_satisfiable",
                    vec![("gadget", "rtt_satisfiable".to_string())],
                    || {
                        let sat = rtt_reduction(&small_satisfiable_rtt());
                        let (opt, _) = min_max_response(&sat);
                        let solved = solve_mrt(&sat, None).unwrap();
                        CellOutcome {
                            metrics: vec![
                                ("exact_opt_rho".into(), opt as f64),
                                ("pipeline_rho_star".into(), solved.rho_star as f64),
                                (
                                    "pipeline_augmentation".into(),
                                    f64::from(solved.augmentation),
                                ),
                            ],
                            flows: sat.n() as u64,
                            engine_mode: "exact",
                            telemetry: None,
                        }
                    },
                ),
                CellSpec::new(
                    "table_gaps/rtt_unsatisfiable",
                    vec![("gadget", "rtt_unsatisfiable".to_string())],
                    || {
                        let unsat = rtt_reduction(&small_unsatisfiable_rtt());
                        let at3 = lp_feasible(&unsat, 3).unwrap();
                        let at4 = lp_feasible(&unsat, 4).unwrap();
                        CellOutcome {
                            metrics: vec![
                                ("lp_feasible_rho3".into(), if at3 { 1.0 } else { 0.0 }),
                                ("lp_feasible_rho4".into(), if at4 { 1.0 } else { 0.0 }),
                            ],
                            flows: unsat.n() as u64,
                            engine_mode: "lp",
                            telemetry: None,
                        }
                    },
                ),
                CellSpec::new(
                    "table_gaps/figure_4b",
                    vec![("gadget", "figure_4b".to_string())],
                    || {
                        let f4b = figure_4b();
                        let (opt, _) = min_max_response(&f4b);
                        let mut metrics = vec![("offline_opt_rho".into(), opt as f64)];
                        for (name, sched) in [
                            ("online_MaxCard", run_policy(&f4b, &mut MaxCard::default())),
                            (
                                "online_MinRTime",
                                run_policy(&f4b, &mut MinRTime::default()),
                            ),
                            (
                                "online_MaxWeight",
                                run_policy(&f4b, &mut MaxWeight::default()),
                            ),
                        ] {
                            let m = metrics::evaluate(&f4b, &sched);
                            metrics.push((name.into(), m.max_response as f64));
                        }
                        CellOutcome {
                            metrics,
                            flows: f4b.n() as u64,
                            engine_mode: "exact",
                            telemetry: None,
                        }
                    },
                ),
            ]
        }),
    }
}

/// Co-flow extension: SEBF / FIFO / Fair vs the bottleneck lower bound.
/// One cell per `(m, k)` config evaluating all three orderings on the
/// same generated instances, so instance generation and the bottleneck
/// bound run once per trial, not once per ordering.
pub(crate) fn table_coflow() -> Experiment {
    Experiment {
        id: "table_coflow",
        description: "co-flow extension — SEBF/FIFO/Fair vs the bottleneck lower bound",
        build: Box::new(|scale| {
            let configs: Vec<(usize, usize, usize)> = if scale.paper {
                vec![(6, 4, 6), (8, 8, 10), (12, 12, 20), (16, 16, 28)]
            } else {
                vec![(4, 3, 4)]
            };
            let trials = scale.trials(2, 10);
            configs
                .into_iter()
                .map(|(m, k, w)| {
                    CellSpec::new(
                        format!("table_coflow/m{m}/k{k}"),
                        vec![
                            ("m", m.to_string()),
                            ("coflows", k.to_string()),
                            ("max_width", w.to_string()),
                            ("trials", trials.to_string()),
                        ],
                        move || coflow_cell(m, k, w, trials),
                    )
                })
                .collect()
        }),
    }
}

/// The shuffle-workload generator. The order of its `rng` draws is what
/// `baselines/BENCH_table_coflow.json` pins: reordering them is a
/// baseline change.
fn random_coflows(rng: &mut SmallRng, m: usize, k: usize, max_width: usize) -> CoflowInstance {
    let mut b = CoflowBuilder::new(Switch::uniform(m, m, 1));
    let mut release = 0u64;
    for _ in 0..k {
        b.coflow(release);
        let width = rng.gen_range(1..=max_width);
        for _ in 0..width {
            b.flow(rng.gen_range(0..m as u32), rng.gen_range(0..m as u32), 1);
        }
        release += rng.gen_range(0..3u64);
    }
    b.build().expect("generator produces valid instances")
}

fn coflow_cell(m: usize, k: usize, w: usize, trials: u64) -> CellOutcome {
    const ORDERS: [CoflowOrdering; 3] = [
        CoflowOrdering::Sebf,
        CoflowOrdering::Fifo,
        CoflowOrdering::Fair,
    ];
    let mut totals = [0.0f64; 3];
    let mut maxes = [0.0f64; 3];
    let mut lb_total = 0.0;
    let mut lb_max = 0.0;
    let mut flows = 0u64;
    for trial in 0..trials {
        let mut rng = SmallRng::seed_from_u64(0xc0f + (m as u64) * 1009 + trial);
        let ci = random_coflows(&mut rng, m, k, w);
        let (t_lb, m_lb) = bottleneck_lower_bound(&ci);
        lb_total += t_lb as f64;
        lb_max += m_lb as f64;
        for (oi, &order) in ORDERS.iter().enumerate() {
            let met = coflow_evaluate(&ci, &schedule_coflows(&ci, order));
            totals[oi] += met.total_response as f64;
            maxes[oi] += met.max_response as f64;
        }
        flows += k as u64;
    }
    let t = trials as f64;
    let mut metrics_out = vec![
        ("total_lb".into(), lb_total / t),
        ("max_lb".into(), lb_max / t),
    ];
    for (oi, order) in ORDERS.iter().enumerate() {
        let name = order.name().to_lowercase();
        metrics_out.push((format!("{name}_mean_total"), totals[oi] / t));
        metrics_out.push((format!("{name}_mean_max"), maxes[oi] / t));
    }
    CellOutcome {
        metrics: metrics_out,
        flows,
        engine_mode: "coflow",
        telemetry: None,
    }
}
