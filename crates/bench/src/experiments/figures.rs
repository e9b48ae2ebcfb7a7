//! Figures 6 and 7: the online heuristics across the `(M, T)` grid
//! against the paper's LP reference bounds.
//!
//! Cell layout: one heuristic cell per `(policy, M, T)` (shared seeds
//! across policies keep the comparison paired) and one LP cell per
//! bounded `(M, T)` point. The LP series runs on the smoke tier's
//! scaled-down switch only; the paper itself needed >3 h of Gurobi per
//! full-size cell.

use fss_sim::{
    figure_trial_seed, lp_bounds_cell, poisson_cell, scaled_rates, LpBoundParts, PolicyKind,
};

use crate::registry::{engine_telemetry, CellOutcome, CellSpec, Experiment, Scale};

/// Format an `M` value for cell ids: integral values print bare
/// (`M50`), fractional ones with two decimals (`M2.67`).
fn fmt_m(ma: f64) -> String {
    if ma.fract() == 0.0 {
        format!("{ma}")
    } else {
        format!("{ma:.2}")
    }
}

/// Grid sizes per tier: `(m, heuristic T values, LP T values, trials,
/// LP trials)`. These sizes are part of every cell's fingerprint, so
/// changing one invalidates the checked-in baselines. Paper scale runs
/// the 150x150 heuristic grid and no LP series — the paper itself
/// needed >3 h of Gurobi per full-size LP cell.
fn grid(scale: &Scale) -> (usize, Vec<u64>, Vec<u64>, u64, u64) {
    let trials = scale.trials(2, 10);
    if scale.paper {
        (
            150,
            vec![10, 12, 14, 16, 18, 20, 40, 60, 80, 100],
            vec![],
            trials,
            0,
        )
    } else {
        (8, vec![6, 8], vec![6], trials, 1)
    }
}

/// The `M` values that get an LP reference series: only the stable
/// `λ = M/m <= 1` points (the overloaded LPs dwarf a CI budget).
fn lp_m_values(m: usize) -> impl Iterator<Item = f64> {
    scaled_rates(m)
        .into_iter()
        .filter(move |&ma| ma / m as f64 <= 1.0)
}

/// One `(policy, M, T)` heuristic cell: [`poisson_cell`] under the
/// figures' value-derived trial seeds.
fn heuristic_cell(
    exp: &'static str,
    m: usize,
    trials: u64,
    policy: PolicyKind,
    ma: f64,
    t: u64,
    instrument: bool,
) -> CellSpec {
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
            ("m", m.to_string()),
            ("trials", trials.to_string()),
        ],
        move || {
            let mut tele = engine_telemetry(instrument);
            let seed = |k| figure_trial_seed(ma, t, k);
            let cell = poisson_cell(policy, m, ma, t, trials, seed, &mut tele);
            CellOutcome {
                metrics: vec![
                    ("avg_response".into(), cell.avg_response),
                    ("max_response".into(), cell.max_response),
                    ("mean_flows".into(), cell.mean_flows),
                ],
                flows: (cell.mean_flows * cell.trials as f64).round() as u64,
                engine_mode: "engine",
                telemetry: instrument.then(|| tele.snapshot()),
            }
        },
    )
}

/// One `(M, T)` LP-bound cell, over the same trial seeds as the
/// heuristic cells of its point.
fn lp_cell(
    exp: &'static str,
    m: usize,
    ma: f64,
    t: u64,
    lp_trials: u64,
    window: Option<u64>,
    parts: LpBoundParts,
) -> CellSpec {
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
            ("m", m.to_string()),
            ("trials", lp_trials.to_string()),
        ],
        move || {
            let seed = |k| figure_trial_seed(ma, t, k);
            let b = lp_bounds_cell(m, ma, t, lp_trials, seed, window, parts);
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

/// The heuristic cells both figures share: the paper trio at every
/// `(M, T)` of the tier's grid.
fn heuristic_cells(
    exp: &'static str,
    m: usize,
    heur_t: &[u64],
    trials: u64,
    instrument: bool,
) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for &policy in &PolicyKind::PAPER_TRIO {
        for ma in scaled_rates(m) {
            for &t in heur_t {
                cells.push(heuristic_cell(exp, m, trials, policy, ma, t, instrument));
            }
        }
    }
    cells
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
    let mut cells = heuristic_cells("fig6", m, &heur_t, trials, scale.telemetry);
    // Windowed ART LP: the window must comfortably exceed the worst
    // response an optimal schedule needs — with per-port intensity
    // λ = M/m the backlog after T rounds is about (λ-1)·T, so
    // λ·T_max + slack is safe per M; the LP auto-grows on infeasibility.
    // Only the stable points (λ <= 1) get one: the overloaded cells
    // make the windowed LP orders of magnitude bigger than a CI-sized
    // run can afford.
    let t_max = lp_t.iter().copied().max().unwrap_or(10);
    for ma in lp_m_values(m) {
        let lambda = ma / m as f64;
        let window = ((lambda * t_max as f64).ceil() as u64).max(8) + 4;
        for &t in &lp_t {
            cells.push(lp_cell(
                "fig6",
                m,
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
    let mut cells = heuristic_cells("fig7", m, &heur_t, trials, scale.telemetry);
    for ma in lp_m_values(m) {
        for &t in &lp_t {
            cells.push(lp_cell(
                "fig7",
                m,
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
