//! Figures 6 and 7: the online heuristics across the `(M, T)` grid
//! against the paper's LP reference bounds.
//!
//! Cell layout: one heuristic cell per `(policy, M, T)` (shared seeds
//! across policies keep the comparison paired) and one LP cell per
//! bounded `(M, T)` point. The LP series stays on the scaled-down
//! switch at every tier; the paper itself needed >3 h of Gurobi per
//! full-size cell.

use fss_sim::{
    lp_bounds_grid_parts, run_grid, run_grid_telemetry, ExperimentConfig, LpBoundParts, PolicyKind,
};

use crate::registry::{CellOutcome, CellSpec, Experiment, Scale};

/// Format an `M` value for cell ids: integral values print bare
/// (`M50`), fractional ones with two decimals (`M2.67`).
fn fmt_m(ma: f64) -> String {
    if ma.fract() == 0.0 {
        format!("{ma}")
    } else {
        format!("{ma:.2}")
    }
}

/// Grid sizes per scale: `(m, heuristic T values, LP T values, trials,
/// LP trials)`. These sizes are part of every cell's fingerprint, so
/// changing one invalidates the checked-in baselines. Paper scale runs
/// the 150x150 heuristic grid and no LP series — the paper itself
/// needed >3 h of Gurobi per full-size LP cell.
fn grid(scale: &Scale) -> (usize, Vec<u64>, Vec<u64>, u64, u64) {
    if scale.paper {
        (
            150,
            vec![10, 12, 14, 16, 18, 20, 40, 60, 80, 100],
            vec![],
            scale.trials_or(10, 10),
            0,
        )
    } else if scale.smoke {
        (8, vec![6, 8], vec![6], scale.trials_or(2, 2), 1)
    } else {
        (
            6,
            vec![10, 12, 14, 16, 18, 20, 40, 60, 80, 100],
            vec![10, 12],
            scale.trials_or(5, 5),
            2,
        )
    }
}

/// The `M` values that get an LP reference series: all of them at full
/// scale, only the stable `λ = M/m <= 1` points at smoke scale (the
/// overloaded LPs dwarf a CI budget).
fn lp_m_values<'a>(scale: &Scale, m_values: &'a [f64], m: usize) -> impl Iterator<Item = &'a f64> {
    let smoke = scale.smoke;
    m_values
        .iter()
        .filter(move |&&ma| !smoke || ma / m as f64 <= 1.0)
}

/// One `(policy, M, T)` heuristic cell, executed through `fss-engine`
/// via [`run_grid`] on a singleton grid (the value-derived trial seeds
/// make this identical to the corresponding point of the full grid).
fn heuristic_cell(
    exp: &'static str,
    base: &ExperimentConfig,
    policy: PolicyKind,
    ma: f64,
    t: u64,
    instrument: bool,
) -> CellSpec {
    let cfg = ExperimentConfig {
        m_values: vec![ma],
        t_values: vec![t],
        policies: vec![policy],
        ..base.clone()
    };
    CellSpec::new(
        format!("{exp}/{}/M{}/T{t}", policy.name(), fmt_m(ma)),
        // `m` and `trials` are tier-dependent but absent from the cell
        // id, so they must be params: fingerprints (the checkpoint /
        // shard-assignment key) hash the params, and cells from
        // different tiers must never collide.
        vec![
            ("policy", policy.name().to_string()),
            ("M", fmt_m(ma)),
            ("T", t.to_string()),
            ("m", base.m.to_string()),
            ("trials", base.trials.to_string()),
        ],
        move || {
            let (cell, telemetry) = if instrument {
                let (mut cells, snap) = run_grid_telemetry(&cfg);
                (
                    cells.pop().expect("singleton grid yields a cell"),
                    Some(snap),
                )
            } else {
                (
                    run_grid(&cfg).pop().expect("singleton grid yields a cell"),
                    None,
                )
            };
            CellOutcome {
                metrics: vec![
                    ("avg_response".into(), cell.avg_response),
                    ("max_response".into(), cell.max_response),
                    ("mean_flows".into(), cell.mean_flows),
                ],
                flows: (cell.mean_flows * cell.trials as f64).round() as u64,
                engine_mode: "engine",
                telemetry,
            }
        },
    )
}

/// One `(M, T)` LP-bound cell.
fn lp_cell(
    exp: &'static str,
    base: &ExperimentConfig,
    ma: f64,
    t: u64,
    lp_trials: u64,
    window: Option<u64>,
    parts: LpBoundParts,
) -> CellSpec {
    let cfg = ExperimentConfig {
        m_values: vec![ma],
        t_values: vec![t],
        trials: lp_trials,
        ..base.clone()
    };
    let metric_name = if parts.avg {
        "avg_response_bound"
    } else {
        "max_response_bound"
    };
    CellSpec::new(
        format!("{exp}/lp/M{}/T{t}", fmt_m(ma)),
        vec![
            ("M", fmt_m(ma)),
            ("T", t.to_string()),
            ("m", base.m.to_string()),
            ("trials", lp_trials.to_string()),
        ],
        move || {
            let b = lp_bounds_grid_parts(&cfg, window, parts)
                .pop()
                .expect("singleton grid yields a bound");
            let value = if parts.avg {
                b.avg_response_bound
            } else {
                b.max_response_bound
            };
            CellOutcome {
                metrics: vec![(metric_name.into(), value)],
                flows: 0,
                engine_mode: "lp",
                telemetry: None,
            }
        },
    )
}

/// Figure 6: average response time, heuristics vs LP (1)–(4).
pub fn fig6() -> Experiment {
    Experiment {
        id: "fig6",
        description: "Figure 6 — average response time, heuristics vs LP (1)-(4) lower bound",
        build: Box::new(build_fig6),
    }
}

fn build_fig6(scale: &Scale) -> Vec<CellSpec> {
    let (m, heur_t, lp_t, trials, lp_trials) = grid(scale);
    let base = ExperimentConfig::scaled(m, heur_t.clone(), trials);
    let mut cells = Vec::new();
    for &policy in &PolicyKind::PAPER_TRIO {
        for &ma in &base.m_values {
            for &t in &heur_t {
                cells.push(heuristic_cell(
                    "fig6",
                    &base,
                    policy,
                    ma,
                    t,
                    scale.telemetry,
                ));
            }
        }
    }
    // Windowed ART LP: the window must comfortably exceed the worst
    // response an optimal schedule needs — with per-port intensity
    // λ = M/m the backlog after T rounds is about (λ-1)·T, so
    // λ·T_max + slack is safe per M; the LP auto-grows on infeasibility.
    // Smoke scale keeps only the stable points (λ <= 1): the overloaded
    // cells make the windowed LP orders of magnitude bigger than a
    // CI-sized run can afford.
    let t_max = lp_t.iter().copied().max().unwrap_or(10);
    for &ma in lp_m_values(scale, &base.m_values, m) {
        let lambda = ma / m as f64;
        let window = ((lambda * t_max as f64).ceil() as u64).max(8) + 4;
        for &t in &lp_t {
            cells.push(lp_cell(
                "fig6",
                &base,
                ma,
                t,
                lp_trials,
                Some(window),
                LpBoundParts::AVG,
            ));
        }
    }
    cells
}

/// Figure 7: maximum response time, heuristics vs LP (19)–(21).
pub fn fig7() -> Experiment {
    Experiment {
        id: "fig7",
        description: "Figure 7 — maximum response time, heuristics vs binary-searched LP (19)-(21)",
        build: Box::new(build_fig7),
    }
}

fn build_fig7(scale: &Scale) -> Vec<CellSpec> {
    let (m, heur_t, lp_t, trials, lp_trials) = grid(scale);
    let base = ExperimentConfig::scaled(m, heur_t.clone(), trials);
    let mut cells = Vec::new();
    for &policy in &PolicyKind::PAPER_TRIO {
        for &ma in &base.m_values {
            for &t in &heur_t {
                cells.push(heuristic_cell(
                    "fig7",
                    &base,
                    policy,
                    ma,
                    t,
                    scale.telemetry,
                ));
            }
        }
    }
    for &ma in lp_m_values(scale, &base.m_values, m) {
        for &t in &lp_t {
            cells.push(lp_cell(
                "fig7",
                &base,
                ma,
                t,
                lp_trials,
                None,
                LpBoundParts::MAX,
            ));
        }
    }
    cells
}
