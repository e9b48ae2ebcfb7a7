//! Regression gating over persisted `BENCH_*.json` artifacts.
//!
//! CI uploads one [`BenchReport`] per experiment per build;
//! [`diff_artifacts`] compares two of them cell by cell: every metric's
//! delta is reported, and throughput (flows/s) drops beyond the tolerance
//! — or cells that disappeared outright — count as regressions. The CLI
//! (`flowsched bench --diff OLD.json NEW.json`) exits nonzero when any
//! regression is found, which is all a CI gate needs.
//!
//! Metric *values* are deterministic for a given seed, so value changes
//! are surfaced in the rendered table but do not gate: a legitimate code
//! change (a new tie-break, a different workload) moves them on purpose.
//! Throughput is the machine-sensitive axis the gate watches.

use std::path::Path;

use fss_sim::report::{bench_report_from_json, BenchCell, BenchReport};

/// Default flows/s regression tolerance: 30% absorbs normal CI-runner
/// noise while catching order-of-magnitude slowdowns.
pub const DEFAULT_TOLERANCE_PCT: f64 = 30.0;

/// One compared cell.
#[derive(Debug, Clone)]
pub struct CellDelta {
    /// The cell id (present in both reports).
    pub cell_id: String,
    /// Per-metric `(name, old, new)` for metrics present in both cells.
    pub metrics: Vec<(String, f64, f64)>,
    /// Old throughput in flows/s (0 when not meaningful).
    pub old_flows_per_s: f64,
    /// New throughput in flows/s.
    pub new_flows_per_s: f64,
    /// Throughput change in percent (negative = slower; 0 when either
    /// side has no throughput).
    pub speed_change_pct: f64,
    /// Do the cells disagree on any metric (a value changed, or a
    /// metric appeared/vanished)? Gates only under `--strict-metrics`.
    pub metric_drift: bool,
    /// Did this cell regress (throughput beyond tolerance, or metric
    /// drift in strict mode)?
    pub regressed: bool,
}

/// The full comparison of two reports.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Experiment id of the old report.
    pub experiment: String,
    /// Flows/s drop (in percent) beyond which a cell regresses.
    pub tolerance_pct: f64,
    /// Whether metric drift gates (the resumed-vs-uninterrupted
    /// differential mode: metric values are seed-deterministic, so any
    /// drift there is a correctness bug, while timing is noise).
    pub strict_metrics: bool,
    /// Cells present in both reports, in old-report order.
    pub cells: Vec<CellDelta>,
    /// Cell ids present only in the old report (each is a regression:
    /// coverage was lost).
    pub missing: Vec<String>,
    /// Cell ids present only in the new report (reported explicitly as
    /// added; never a regression).
    pub added: Vec<String>,
}

impl DiffReport {
    /// Number of regressions: vanished cells plus regressed cells.
    pub fn regressions(&self) -> usize {
        self.missing.len() + self.cells.iter().filter(|c| c.regressed).count()
    }

    /// Does the new report pass the gate?
    pub fn passes(&self) -> bool {
        self.regressions() == 0
    }
}

/// Compare two in-memory reports. `tolerance_pct` bounds the acceptable
/// flows/s drop per cell (e.g. `30.0` allows down to 70% of old speed).
pub fn diff_reports(old: &BenchReport, new: &BenchReport, tolerance_pct: f64) -> DiffReport {
    diff_reports_opts(old, new, tolerance_pct, false)
}

/// [`diff_reports`] with strict-metrics mode: any metric value drift
/// regresses, independent of throughput. Pair with `tolerance_pct =
/// 100` to gate *only* on coverage + values — the right setting for
/// comparing a multi-worker merged artifact against a single-process
/// run, where per-cell wall clocks are incomparable but every metric
/// must match exactly.
pub fn diff_reports_opts(
    old: &BenchReport,
    new: &BenchReport,
    tolerance_pct: f64,
    strict_metrics: bool,
) -> DiffReport {
    let find = |cells: &[BenchCell], id: &str| -> Option<usize> {
        cells.iter().position(|c| c.cell_id == id)
    };
    let mut cells = Vec::new();
    let mut missing = Vec::new();
    for oc in &old.cells {
        let Some(ni) = find(&new.cells, &oc.cell_id) else {
            missing.push(oc.cell_id.clone());
            continue;
        };
        let nc = &new.cells[ni];
        let metrics: Vec<(String, f64, f64)> = oc
            .metrics
            .iter()
            .filter_map(|(name, old_v)| nc.metric(name).map(|new_v| (name.clone(), *old_v, new_v)))
            .collect();
        // Drift: a value changed, or the metric sets differ at all
        // (metrics.len() below counts only the common names).
        let metric_drift = metrics.len() != oc.metrics.len()
            || oc.metrics.len() != nc.metrics.len()
            || metrics.iter().any(|(_, o, n)| o != n);
        let (old_fps, new_fps) = (oc.flows_per_s(), nc.flows_per_s());
        let (speed_change_pct, regressed) = if old_fps > 0.0 && new_fps > 0.0 {
            let pct = (new_fps - old_fps) / old_fps * 100.0;
            (pct, pct < -tolerance_pct)
        } else if old_fps > 0.0 {
            // The cell used to process work and now reports none: its
            // throughput collapsed outright, which no tolerance excuses.
            (-100.0, true)
        } else {
            (0.0, false)
        };
        cells.push(CellDelta {
            cell_id: oc.cell_id.clone(),
            metrics,
            old_flows_per_s: old_fps,
            new_flows_per_s: new_fps,
            speed_change_pct,
            metric_drift,
            regressed: regressed || (strict_metrics && metric_drift),
        });
    }
    let added = new
        .cells
        .iter()
        .filter(|nc| find(&old.cells, &nc.cell_id).is_none())
        .map(|nc| nc.cell_id.clone())
        .collect();
    DiffReport {
        experiment: old.experiment.clone(),
        tolerance_pct,
        strict_metrics,
        cells,
        missing,
        added,
    }
}

/// Load, schema-validate, and compare two `BENCH_*.json` artifacts.
/// Errors on unreadable/invalid files or mismatched experiment ids.
pub fn diff_artifacts(
    old_path: &Path,
    new_path: &Path,
    tolerance_pct: f64,
) -> Result<DiffReport, String> {
    diff_artifacts_opts(old_path, new_path, tolerance_pct, false)
}

/// [`diff_artifacts`] with strict-metrics mode (see
/// [`diff_reports_opts`]).
pub fn diff_artifacts_opts(
    old_path: &Path,
    new_path: &Path,
    tolerance_pct: f64,
    strict_metrics: bool,
) -> Result<DiffReport, String> {
    let read = |path: &Path| -> Result<BenchReport, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        bench_report_from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let old = read(old_path)?;
    let new = read(new_path)?;
    if old.experiment != new.experiment {
        return Err(format!(
            "experiment mismatch: {} vs {} (diff compares artifacts of the same experiment)",
            old.experiment, new.experiment
        ));
    }
    Ok(diff_reports_opts(&old, &new, tolerance_pct, strict_metrics))
}

/// Render a diff as an aligned table plus a verdict line.
pub fn render_diff(diff: &DiffReport) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "{} — {} cell(s) compared, tolerance {:.0}%{}\n",
        diff.experiment,
        diff.cells.len(),
        diff.tolerance_pct,
        if diff.strict_metrics {
            ", strict metrics"
        } else {
            ""
        }
    );
    for c in &diff.cells {
        let _ = write!(out, "{:<40}", c.cell_id);
        for (name, old_v, new_v) in &c.metrics {
            let delta = new_v - old_v;
            if delta == 0.0 {
                let _ = write!(out, "  {name}={old_v:.4}");
            } else {
                let _ = write!(out, "  {name}={old_v:.4}->{new_v:.4} ({delta:+.4})");
            }
        }
        if diff.strict_metrics && c.metric_drift {
            let _ = write!(out, "  [METRIC DRIFT]");
        }
        if c.old_flows_per_s > 0.0 || c.new_flows_per_s > 0.0 {
            let _ = write!(
                out,
                "  [{:.0} -> {:.0} flows/s, {:+.1}%{}]",
                c.old_flows_per_s,
                c.new_flows_per_s,
                c.speed_change_pct,
                if c.regressed { " REGRESSED" } else { "" }
            );
        }
        out.push('\n');
    }
    for id in &diff.missing {
        let _ = writeln!(out, "{id:<40}  MISSING in new report (regression)");
    }
    for id in &diff.added {
        let _ = writeln!(out, "{id:<40}  ADDED in new report (new coverage)");
    }
    let _ = writeln!(
        out,
        "{}: {} regression(s), {} cell(s) missing, {} cell(s) added",
        if diff.passes() { "PASS" } else { "FAIL" },
        diff.regressions(),
        diff.missing.len(),
        diff.added.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fss_sim::report::BENCH_SCHEMA_VERSION;

    fn report(cells: Vec<BenchCell>) -> BenchReport {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            experiment: "fig6".into(),
            description: "d".into(),
            smoke: true,
            jobs: 1,
            total_wall_s: 1.0,
            cells,
        }
    }

    fn cell(id: &str, metric: f64, wall_s: f64, flows: u64) -> BenchCell {
        BenchCell::new(
            id,
            vec![],
            vec![("avg_response".into(), metric)],
            wall_s,
            flows,
            "engine",
        )
    }

    #[test]
    fn self_diff_passes() {
        let r = report(vec![
            cell("fig6/a", 2.0, 0.5, 100),
            cell("fig6/b", 3.0, 0.1, 0),
        ]);
        let diff = diff_reports(&r, &r, DEFAULT_TOLERANCE_PCT);
        assert!(diff.passes());
        assert_eq!(diff.cells.len(), 2);
        assert_eq!(diff.cells[0].speed_change_pct, 0.0);
        assert!(render_diff(&diff).contains("PASS: 0 regression(s)"));
    }

    #[test]
    fn slowdown_beyond_tolerance_regresses() {
        let old = report(vec![cell("fig6/a", 2.0, 0.5, 1000)]);
        let new = report(vec![cell("fig6/a", 2.0, 1.0, 1000)]); // 2x slower
        let diff = diff_reports(&old, &new, 30.0);
        assert!(!diff.passes());
        assert!(diff.cells[0].regressed);
        assert!(render_diff(&diff).contains("REGRESSED"));
        // A 2x slowdown within a 60% tolerance passes.
        assert!(diff_reports(&old, &new, 60.0).passes());
    }

    #[test]
    fn missing_cell_is_a_regression_added_is_not() {
        let old = report(vec![
            cell("fig6/a", 2.0, 0.5, 10),
            cell("fig6/b", 1.0, 0.5, 10),
        ]);
        let new = report(vec![
            cell("fig6/a", 2.0, 0.5, 10),
            cell("fig6/c", 1.0, 0.5, 10),
        ]);
        let diff = diff_reports(&old, &new, 30.0);
        assert_eq!(diff.missing, vec!["fig6/b".to_string()]);
        assert_eq!(diff.added, vec!["fig6/c".to_string()]);
        assert_eq!(diff.regressions(), 1);
        // Added cells are reported explicitly, not silently dropped:
        // named in a body line AND counted in the verdict.
        let rendered = render_diff(&diff);
        assert!(
            rendered.contains("fig6/c") && rendered.contains("ADDED in new report"),
            "{rendered}"
        );
        assert!(rendered.contains("1 cell(s) added"), "{rendered}");
        assert!(rendered.contains("1 cell(s) missing"), "{rendered}");
    }

    #[test]
    fn added_cells_never_gate_and_self_diff_reports_zero_added() {
        let old = report(vec![cell("fig6/a", 2.0, 0.5, 10)]);
        let new = report(vec![
            cell("fig6/a", 2.0, 0.5, 10),
            cell("fig6/new1", 1.0, 0.5, 10),
            cell("fig6/new2", 1.0, 0.5, 0),
        ]);
        let diff = diff_reports(&old, &new, 30.0);
        assert!(diff.passes(), "new coverage is not a regression");
        assert_eq!(diff.added.len(), 2);
        let rendered = render_diff(&diff);
        assert!(rendered.contains("2 cell(s) added"), "{rendered}");
        let self_diff = diff_reports(&new, &new, 30.0);
        assert!(render_diff(&self_diff).contains("0 cell(s) added"));
    }

    #[test]
    fn metric_changes_report_but_do_not_gate() {
        let old = report(vec![cell("fig6/a", 2.0, 0.5, 10)]);
        let new = report(vec![cell("fig6/a", 2.5, 0.5, 10)]);
        let diff = diff_reports(&old, &new, 30.0);
        assert!(diff.passes());
        assert!(diff.cells[0].metric_drift, "drift is still recorded");
        let rendered = render_diff(&diff);
        assert!(rendered.contains("2.0000->2.5000"), "{rendered}");
    }

    #[test]
    fn strict_metrics_gates_on_value_drift_but_never_on_timing() {
        let old = report(vec![cell("fig6/a", 2.0, 0.5, 1000)]);
        // Same metrics, wildly different timing: strict mode at full
        // tolerance passes (the resumed-vs-uninterrupted setting).
        let new = report(vec![cell("fig6/a", 2.0, 50.0, 1000)]);
        let diff = diff_reports_opts(&old, &new, 100.0, true);
        assert!(diff.passes(), "timing noise must not gate in strict mode");

        // A drifted value gates, whatever the throughput did.
        let drifted = report(vec![cell("fig6/a", 2.0001, 0.5, 1000)]);
        let diff = diff_reports_opts(&old, &drifted, 100.0, true);
        assert!(!diff.passes());
        assert!(diff.cells[0].metric_drift && diff.cells[0].regressed);
        let rendered = render_diff(&diff);
        assert!(rendered.contains("METRIC DRIFT"), "{rendered}");
        assert!(rendered.contains("strict metrics"), "{rendered}");

        // So does a vanished metric, even with identical shared values.
        let mut fewer = report(vec![cell("fig6/a", 2.0, 0.5, 1000)]);
        fewer.cells[0].metrics.clear();
        let diff = diff_reports_opts(&old, &fewer, 100.0, true);
        assert!(!diff.passes(), "metric sets must match in strict mode");

        // Without strict mode the same drift only reports.
        assert!(diff_reports(&old, &drifted, 100.0).passes());
    }

    #[test]
    fn zero_flow_cells_never_gate_on_speed() {
        let old = report(vec![cell("fig6/lp", 2.0, 0.1, 0)]);
        let new = report(vec![cell("fig6/lp", 2.0, 50.0, 0)]);
        assert!(diff_reports(&old, &new, 30.0).passes());
        // Gaining throughput where there was none is not a regression.
        let gained = report(vec![cell("fig6/lp", 2.0, 0.1, 10)]);
        assert!(diff_reports(&old, &gained, 30.0).passes());
    }

    #[test]
    fn throughput_collapse_to_zero_is_a_regression() {
        let old = report(vec![cell("fig6/a", 2.0, 0.5, 1000)]);
        let new = report(vec![cell("fig6/a", 2.0, 0.5, 0)]);
        let diff = diff_reports(&old, &new, 30.0);
        assert!(!diff.passes(), "lost throughput must gate");
        assert!(diff.cells[0].regressed);
        assert_eq!(diff.cells[0].speed_change_pct, -100.0);
    }
}
