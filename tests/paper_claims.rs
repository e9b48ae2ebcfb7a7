//! §5.2.1's findings, asserted over the checked-in paper-tier artifacts
//! (`baselines/paper/BENCH_fig6.json` / `BENCH_fig7.json`: the paper's
//! own grid, a 150 x 150 switch, `M ∈ {50, 100, 150, 300, 600}`,
//! `T ∈ {10, ..., 20, 40, ..., 100}`, 10 trials a cell). CI strict-diffs
//! a fresh `bench --paper` run against the same two files, so a change
//! that moves a schedule either fails that diff or regenerates the
//! artifacts, and a regenerated artifact has to keep the paper's
//! conclusions to pass here. Every margin below was read off the
//! artifacts recorded at commit 1ae6e44 and is recomputed from the
//! files on each run.

use flow_switch::sim::{bench_report_from_json, BenchReport};

const RATES: [u32; 5] = [50, 100, 150, 300, 600];
const ROUNDS: [u64; 10] = [10, 12, 14, 16, 18, 20, 40, 60, 80, 100];
const OTHERS: [&str; 2] = ["MaxCard", "MaxWeight"];

fn load(experiment: &str) -> BenchReport {
    let path = format!(
        "{}/baselines/paper/BENCH_{experiment}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    bench_report_from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// `metric` of the `(policy, M, T)` heuristic cell of a figure's report.
fn read(report: &BenchReport, policy: &str, m: u32, t: u64, metric: &str) -> f64 {
    let id = format!("{}/{policy}/M{m}/T{t}", report.experiment);
    let cell = report
        .cells
        .iter()
        .find(|c| c.cell_id == id)
        .unwrap_or_else(|| panic!("no cell {id}"));
    assert_eq!(cell.param("m"), Some("150"), "{id}");
    assert_eq!(cell.param("trials"), Some("10"), "{id}");
    cell.metric(metric)
        .unwrap_or_else(|| panic!("{id}: no {metric}"))
}

/// Every `(M, T)` point of the paper's grid.
fn points() -> impl Iterator<Item = (u32, u64)> {
    RATES
        .into_iter()
        .flat_map(|m| ROUNDS.into_iter().map(move |t| (m, t)))
}

/// How many times MinRTime's average response the best other
/// heuristic's is exceeded by: `MinRTime / min(MaxCard, MaxWeight)`.
fn average_penalty(fig6: &BenchReport, m: u32, t: u64) -> f64 {
    let others = OTHERS.map(|p| read(fig6, p, m, t, "avg_response"));
    read(fig6, "MinRTime", m, t, "avg_response") / others[0].min(others[1])
}

/// MinRTime's lead on maximum response over the nearer of the other
/// two: `min(MaxCard, MaxWeight) / MinRTime`.
fn maximum_advantage(fig7: &BenchReport, m: u32, t: u64) -> f64 {
    let others = OTHERS.map(|p| read(fig7, p, m, t, "max_response"));
    others[0].min(others[1]) / read(fig7, "MinRTime", m, t, "max_response")
}

#[test]
fn both_figures_hold_the_papers_grid_over_the_same_workloads() {
    let (fig6, fig7) = (load("fig6"), load("fig7"));
    for report in [&fig6, &fig7] {
        assert!(!report.smoke);
        assert_eq!(report.cells.len(), 3 * RATES.len() * ROUNDS.len());
    }
    // The two figures plot two metrics of one run per cell: the trial
    // seeds depend on (M, T, trial) alone.
    for (m, t) in points() {
        for policy in ["MaxCard", "MinRTime", "MaxWeight"] {
            for metric in ["avg_response", "max_response", "mean_flows"] {
                assert_eq!(
                    read(&fig6, policy, m, t, metric),
                    read(&fig7, policy, m, t, metric),
                    "{policy} M{m} T{t} {metric}"
                );
            }
        }
    }
}

#[test]
fn minrtime_has_the_lowest_maximum_response_at_every_point() {
    let fig7 = load("fig7");
    let mut closest = f64::INFINITY;
    for (m, t) in points() {
        closest = closest.min(maximum_advantage(&fig7, m, t));
    }
    // Recorded: 1.0969 at M = 600, T = 12.
    assert!(closest >= 1.09, "closest lead over MinRTime: {closest}");
    // At the longest horizon the lead is 1.18x (M = 600) to 2.51x
    // (M = 100).
    let at_100 = RATES.map(|m| maximum_advantage(&fig7, m, 100));
    assert!(at_100.iter().all(|&a| a >= 1.17), "{at_100:?}");
    assert!(at_100[1] >= 2.4, "{at_100:?}");
}

#[test]
fn maxcard_and_maxweight_are_never_above_minrtime_on_average_response() {
    let fig6 = load("fig6");
    for (m, t) in points() {
        let minrtime = read(&fig6, "MinRTime", m, t, "avg_response");
        for policy in OTHERS {
            let other = read(&fig6, policy, m, t, "avg_response");
            // Recorded: the narrowest gap is 1.00037x, at M = 600, T = 100.
            assert!(
                other < minrtime,
                "{policy} M{m} T{t}: {other} vs {minrtime}"
            );
        }
    }
}

#[test]
fn minrtimes_average_penalty_peaks_at_m_and_vanishes_in_overload_but_its_lead_does_not() {
    let (fig6, fig7) = (load("fig6"), load("fig7"));
    // M = m, T = 100: recorded 1.3566x, the largest of the 50 points.
    let peak = average_penalty(&fig6, 150, 100);
    assert!((1.33..=1.38).contains(&peak), "{peak}");
    for (m, t) in points() {
        assert!(average_penalty(&fig6, m, t) <= peak, "M{m} T{t}");
    }
    // M = 4m, T = 100: recorded 1.00039x on the average, while the
    // maximum is still 1.177x (MaxWeight) and 1.203x (MaxCard) behind.
    let overload = average_penalty(&fig6, 600, 100);
    assert!(overload <= 1.0005, "{overload}");
    assert!(maximum_advantage(&fig7, 600, 100) >= 1.17);
    let maxcard = read(&fig7, "MaxCard", 600, 100, "max_response");
    assert!(maxcard / read(&fig7, "MinRTime", 600, 100, "max_response") >= 1.19);
}
