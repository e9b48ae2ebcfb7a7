//! Differential tests: the registry's cell runners must reproduce the
//! numbers a direct library call computes for the same point: the
//! cell's id and params name the whole workload, nothing else feeds it.

use fss_bench::{select, CellOutcome, CellSpec, Scale};
use fss_sim::{
    figure_trial_seed, lp_bounds_cell, saturation_sweep, scaled_rates, stable_intensity,
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
fn fig6_lp_cell_matches_legacy_windowed_bound() {
    let scale = Scale {
        trials: Some(2),
        ..Scale::default()
    };
    let cells = build("fig6", &scale);
    // Smoke fig6: m = 8, lp trials 1, T = {6}; per-M window =
    // max(ceil(lambda * t_max), 8) + 4 with lambda = M/m.
    let ma = scaled_rates(8)[0];
    let window = ((ma / 8.0) * 6.0).ceil().max(8.0) as u64 + 4;
    let seed = |k| figure_trial_seed(ma, 6, k);
    let direct = lp_bounds_cell(8, ma, 6, 1, seed, Some(window), LpBoundParts::AVG);
    let got = run_cell(&cells, "fig6/lp/M2.67/T6");
    assert_eq!(
        metric(&got, "avg_response_bound"),
        direct.avg_response_bound
    );
}

#[test]
fn fig7_lp_cell_matches_legacy_max_bound() {
    let scale = Scale {
        trials: Some(2),
        ..Scale::default()
    };
    let cells = build("fig7", &scale);
    let ma = scaled_rates(8)[0];
    let seed = |k| figure_trial_seed(ma, 6, k);
    let direct = lp_bounds_cell(8, ma, 6, 1, seed, None, LpBoundParts::MAX);
    let got = run_cell(&cells, "fig7/lp/M2.67/T6");
    assert_eq!(
        metric(&got, "max_response_bound"),
        direct.max_response_bound
    );
}

#[test]
fn saturation_cells_match_legacy_sweep() {
    let scale = Scale {
        trials: Some(2),
        ..Scale::default()
    };
    let cells = build("saturation", &scale);
    // Smoke saturation: m=6, rounds=10, seed 0x5a7 for the sweep and
    // 0x5a8 for the knee.
    let direct = saturation_sweep(
        PolicyKind::MaxCard,
        6,
        10,
        &[0.4, 1.25],
        2,
        0x5a7,
        &mut fss_engine::EngineTelemetry::disabled(),
    );
    let got = run_cell(&cells, "saturation/MaxCard/lam0.4");
    assert_eq!(metric(&got, "mean_response"), direct[0].mean_response);
    assert_eq!(metric(&got, "max_response"), direct[0].max_response);
    let got = run_cell(&cells, "saturation/MaxCard/lam1.25");
    assert_eq!(metric(&got, "mean_response"), direct[1].mean_response);

    let knee = stable_intensity(PolicyKind::MaxCard, 6, 10, 4.0, 2, 0x5a8);
    let got = run_cell(&cells, "saturation/knee/MaxCard");
    assert_eq!(metric(&got, "stable_intensity"), knee);
}

#[test]
fn registry_cells_are_deterministic_across_runs() {
    let scale = Scale {
        trials: Some(1),
        ..Scale::default()
    };
    for id in ["table_mrt", "table_coflow"] {
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
