//! Differential tests: the registry's per-cell runners must reproduce
//! the numbers the legacy one-off bins computed with direct library
//! calls on the same (small) grids.
//!
//! The legacy bins ran whole grids in one `run_grid` /
//! `lp_bounds_grid_parts` / `saturation_sweep` call; the registry runs
//! singleton grids per cell. The value-derived trial seeds make those
//! equal — these tests pin that equivalence down.

use fss_bench::{select, CellOutcome, CellSpec, Scale};
use fss_sim::{
    lp_bounds_grid_parts, run_grid, saturation_sweep, stable_intensity, ExperimentConfig,
    LpBoundParts, PolicyKind,
};

fn build(id: &str, scale: &Scale) -> Vec<CellSpec> {
    let exp = select(Some(id)).pop().expect("experiment registered");
    (exp.build)(scale)
}

fn run_cell(cells: &[CellSpec], id: &str) -> CellOutcome {
    let cell = cells
        .iter()
        .find(|c| c.id == id)
        .unwrap_or_else(|| panic!("no cell {id}"));
    (cell.run)()
}

fn metric(outcome: &CellOutcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|(k, _)| k == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .1
}

#[test]
fn fig6_heuristic_cells_match_legacy_whole_grid_run() {
    let scale = Scale {
        smoke: true,
        trials: Some(2),
        ..Scale::default()
    };
    let cells = build("fig6", &scale);
    // What the legacy fig6 bin computed: one run_grid over the full
    // smoke grid (m=8, T ∈ {6, 8}, paper trio, paired seeds).
    let cfg = ExperimentConfig::scaled(8, vec![6, 8], 2);
    let legacy = run_grid(&cfg);
    assert_eq!(legacy.len(), 3 * 5 * 2);
    for lr in &legacy {
        let ma = if lr.mean_arrivals.fract() == 0.0 {
            format!("{}", lr.mean_arrivals)
        } else {
            format!("{:.2}", lr.mean_arrivals)
        };
        let id = format!("fig6/{}/M{ma}/T{}", lr.policy.name(), lr.rounds);
        let got = run_cell(&cells, &id);
        assert_eq!(
            metric(&got, "avg_response"),
            lr.avg_response,
            "{id}: avg_response"
        );
        assert_eq!(
            metric(&got, "max_response"),
            lr.max_response,
            "{id}: max_response"
        );
        assert_eq!(
            metric(&got, "mean_flows"),
            lr.mean_flows,
            "{id}: mean_flows"
        );
    }
}

#[test]
fn fig6_lp_cell_matches_legacy_windowed_bound() {
    let scale = Scale {
        smoke: true,
        trials: Some(2),
        ..Scale::default()
    };
    let cells = build("fig6", &scale);
    // Legacy fig6 --quick: lp trials 1, T = {6}; per-M window =
    // max(ceil(lambda * t_max), 8) + 4 with lambda = M/m.
    let base = ExperimentConfig::scaled(8, vec![6, 8], 2);
    let ma = base.m_values[0];
    let window = ((ma / 8.0) * 6.0).ceil().max(8.0) as u64 + 4;
    let lp_cfg = ExperimentConfig {
        m_values: vec![ma],
        t_values: vec![6],
        trials: 1,
        ..base
    };
    let legacy = lp_bounds_grid_parts(&lp_cfg, Some(window), LpBoundParts::AVG)
        .pop()
        .unwrap();
    let got = run_cell(&cells, "fig6/lp/M2.67/T6");
    assert_eq!(
        metric(&got, "avg_response_bound"),
        legacy.avg_response_bound
    );
}

#[test]
fn fig7_lp_cell_matches_legacy_max_bound() {
    let scale = Scale {
        smoke: true,
        trials: Some(2),
        ..Scale::default()
    };
    let cells = build("fig7", &scale);
    let base = ExperimentConfig::scaled(8, vec![6, 8], 2);
    let lp_cfg = ExperimentConfig {
        m_values: vec![base.m_values[0]],
        t_values: vec![6],
        trials: 1,
        ..base
    };
    let legacy = lp_bounds_grid_parts(&lp_cfg, None, LpBoundParts::MAX)
        .pop()
        .unwrap();
    let got = run_cell(&cells, "fig7/lp/M2.67/T6");
    assert_eq!(
        metric(&got, "max_response_bound"),
        legacy.max_response_bound
    );
}

#[test]
fn saturation_cells_match_legacy_sweep() {
    let scale = Scale {
        smoke: true,
        trials: Some(2),
        ..Scale::default()
    };
    let cells = build("saturation", &scale);
    // Legacy saturation --quick: m=6, rounds=10, seed 0x5a7 for the
    // sweep and 0x5a8 for the knee.
    let legacy = saturation_sweep(
        PolicyKind::MaxCard,
        6,
        10,
        &[0.4, 1.25],
        2,
        0x5a7,
        &mut fss_engine::EngineTelemetry::disabled(),
    );
    let got = run_cell(&cells, "saturation/MaxCard/lam0.4");
    assert_eq!(metric(&got, "mean_response"), legacy[0].mean_response);
    assert_eq!(metric(&got, "max_response"), legacy[0].max_response);
    let got = run_cell(&cells, "saturation/MaxCard/lam1.25");
    assert_eq!(metric(&got, "mean_response"), legacy[1].mean_response);

    let knee = stable_intensity(PolicyKind::MaxCard, 6, 10, 4.0, 2, 0x5a8);
    let got = run_cell(&cells, "saturation/knee/MaxCard");
    assert_eq!(metric(&got, "stable_intensity"), knee);
}

#[test]
fn registry_cells_are_deterministic_across_runs() {
    let scale = Scale {
        smoke: true,
        trials: Some(1),
        ..Scale::default()
    };
    for id in ["table_mrt", "table_coflow", "table_rounding_ablation"] {
        let a = build(id, &scale);
        let b = build(id, &scale);
        for (ca, cb) in a.iter().zip(&b) {
            assert_eq!(ca.id, cb.id);
            let ra = (ca.run)();
            let rb = (cb.run)();
            // Wall-clock time lives in a cell's `wall_s`, never in its
            // metrics, so everything must match bit-exact.
            assert_eq!(ra.metrics, rb.metrics, "{id}/{}", ca.id);
            assert_eq!(ra.flows, rb.flows);
        }
    }
}
