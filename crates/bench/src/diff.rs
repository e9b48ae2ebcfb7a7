//! Regression gating over persisted `BENCH_*.json` artifacts.
//!
//! CI uploads one [`BenchReport`] per experiment per build;
//! [`diff_artifacts`] compares two of them cell by cell. Every metric's
//! delta is reported. A cell regresses when it disappeared or when it
//! differs from the old cell on any field but timing (`wall_s` and
//! `telemetry`, see [`cells_eq_modulo_timing`]): its params, metrics,
//! flow count and engine mode are seed-deterministic, so any drift there
//! is a behaviour change, while wall-clock time is machine noise. The
//! CLI (`flowsched bench --diff OLD.json NEW.json`) exits nonzero when
//! any regression is found, which is all a CI gate needs.

use std::path::Path;

use fss_sim::report::{bench_report_from_json, cells_eq_modulo_timing, BenchCell, BenchReport};

/// One compared cell.
#[derive(Debug, Clone)]
pub struct CellDelta {
    /// The cell id (present in both reports).
    pub cell_id: String,
    /// Per-metric `(name, old, new)` for metrics present in both cells.
    pub metrics: Vec<(String, f64, f64)>,
    /// Does the new cell differ from the old one beyond timing?
    pub regressed: bool,
}

/// The full comparison of two reports.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Experiment id of the old report.
    pub experiment: String,
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

/// Compare two in-memory reports.
pub(crate) fn diff_reports(old: &BenchReport, new: &BenchReport) -> DiffReport {
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
        cells.push(CellDelta {
            cell_id: oc.cell_id.clone(),
            metrics,
            regressed: !cells_eq_modulo_timing(oc, nc),
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
        cells,
        missing,
        added,
    }
}

/// Load, schema-validate, and compare two `BENCH_*.json` artifacts.
/// Errors on unreadable/invalid files or mismatched experiment ids.
pub fn diff_artifacts(old_path: &Path, new_path: &Path) -> Result<DiffReport, String> {
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
    Ok(diff_reports(&old, &new))
}

/// Render a diff as an aligned table plus a verdict line.
pub fn render_diff(diff: &DiffReport) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "{} — {} cell(s) compared\n",
        diff.experiment,
        diff.cells.len()
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
        if c.regressed {
            let _ = write!(out, "  [REGRESSED: differs beyond timing]");
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
        let diff = diff_reports(&r, &r);
        assert!(diff.passes());
        assert_eq!(diff.cells.len(), 2);
        assert!(render_diff(&diff).contains("PASS: 0 regression(s)"));
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
        let diff = diff_reports(&old, &new);
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
        let diff = diff_reports(&old, &new);
        assert!(diff.passes(), "new coverage is not a regression");
        assert_eq!(diff.added.len(), 2);
        let rendered = render_diff(&diff);
        assert!(rendered.contains("2 cell(s) added"), "{rendered}");
        let self_diff = diff_reports(&new, &new);
        assert!(render_diff(&self_diff).contains("0 cell(s) added"));
    }

    #[test]
    fn value_drift_regresses_timing_never_does() {
        let old = report(vec![cell("fig6/a", 2.0, 0.5, 1000)]);
        // Same values, wildly different timing (wall clock, telemetry).
        let mut slow = report(vec![cell("fig6/a", 2.0, 50.0, 1000)]);
        slow.cells[0].telemetry = Some(Default::default());
        assert!(diff_reports(&old, &slow).passes(), "timing must not gate");

        // A drifted metric value gates and is shown.
        let drifted = report(vec![cell("fig6/a", 2.0001, 0.5, 1000)]);
        let diff = diff_reports(&old, &drifted);
        assert!(!diff.passes());
        assert!(diff.cells[0].regressed);
        let rendered = render_diff(&diff);
        assert!(rendered.contains("2.0000->2.0001"), "{rendered}");
        assert!(rendered.contains("REGRESSED"), "{rendered}");

        // So does a vanished metric, even with identical shared values.
        let mut fewer = report(vec![cell("fig6/a", 2.0, 0.5, 1000)]);
        fewer.cells[0].metrics.clear();
        assert!(!diff_reports(&old, &fewer).passes());
    }

    #[test]
    fn drift_outside_the_metrics_regresses() {
        let old = report(vec![cell("fig6/a", 2.0, 0.5, 1000)]);
        let flows = report(vec![cell("fig6/a", 2.0, 0.5, 999)]);
        assert!(!diff_reports(&old, &flows).passes(), "flows");
        let mut mode = report(vec![cell("fig6/a", 2.0, 0.5, 1000)]);
        mode.cells[0].engine_mode = "offline".into();
        assert!(!diff_reports(&old, &mode).passes(), "engine_mode");
        let params = report(vec![BenchCell::new(
            "fig6/a",
            vec![("m".into(), "4".into())],
            vec![("avg_response".into(), 2.0)],
            0.5,
            1000,
            "engine",
        )]);
        assert!(!diff_reports(&old, &params).passes(), "params");
    }

    #[test]
    fn zero_flow_cells_never_gate_on_speed() {
        let old = report(vec![cell("fig6/lp", 2.0, 0.1, 0)]);
        let new = report(vec![cell("fig6/lp", 2.0, 50.0, 0)]);
        assert!(diff_reports(&old, &new).passes());
    }
}
