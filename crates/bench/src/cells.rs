//! The cell-execution core of the orchestrator
//! ([`crate::orchestrator::run_bench`], the only executor of a bench
//! run), as one pipeline:
//!
//! 1. [`select_experiments`] resolves the filter / trace options into
//!    registry entries;
//! 2. [`flatten`] expands them into one flat [`FlatCell`] list, stamping
//!    each cell with its stable [`fss_sim::report::cell_fingerprint`];
//! 3. [`execute_cell`] runs one cell and produces its [`BenchCell`];
//! 4. [`assemble_reports`] + [`write_reports`] fold executed cells back
//!    into schema-validated `BENCH_<experiment>.json` artifacts in
//!    registry declaration order.
//!
//! Because every step after selection is deterministic in the cell list
//! (runners derive their RNG streams from cell values, never from run
//! order or thread identity), *where* a cell executes — which thread,
//! this invocation or the one a `--resume` replays — cannot change the
//! merged artifact except for wall-clock fields. `tests/bench_resume.rs`
//! (workspace root) pins that invariant down.

use std::path::Path;
use std::time::Instant;

use fss_sim::report::{
    bench_artifact_name, bench_report_to_json, cell_fingerprint, validate_bench_report, BenchCell,
    BenchReport, BENCH_SCHEMA_VERSION,
};

use crate::orchestrator::BenchOptions;
use crate::registry::{select, Experiment, Scale};

/// One schedulable cell of the flattened selection: its experiment and
/// declaration position (for report assembly) plus its fingerprint (the
/// checkpoint key).
pub(crate) struct FlatCell {
    /// Index into the selected experiment list.
    pub(crate) exp: usize,
    /// Declaration index of the cell within its experiment.
    pub(crate) idx: usize,
    /// Stable identity hash — see [`fss_sim::report::cell_fingerprint`].
    pub(crate) fingerprint: String,
    /// The cell itself.
    pub(crate) spec: crate::registry::CellSpec,
}

/// The [`Scale`] a set of bench options requests.
pub(crate) fn scale_of(opts: &BenchOptions) -> Scale {
    Scale {
        paper: opts.paper,
        trials: opts.trials,
        telemetry: opts.progress,
    }
}

/// Resolve the experiment selection for a run: `--trace` without a
/// filter runs the trace replay alone; with a filter the replay joins
/// the selected registry experiments; an unmatched filter is an error
/// listing the known ids.
pub(crate) fn select_experiments(opts: &BenchOptions) -> Result<Vec<Experiment>, String> {
    let mut selected = match (&opts.filter, &opts.trace) {
        (None, Some(_)) => Vec::new(),
        (filter, _) => select(filter.as_deref()),
    };
    if selected.is_empty() && (opts.filter.is_some() || opts.trace.is_none()) {
        return Err(format!(
            "no experiment matches filter {:?}; known ids: {}",
            opts.filter.as_deref().unwrap_or("<all>"),
            crate::registry::registry()
                .iter()
                .map(|e| e.id)
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    if let Some(path) = &opts.trace {
        selected.push(crate::experiments::trace_replay::trace_replay(path)?);
    }
    Ok(selected)
}

/// Expand the selected experiments into the flat cell list the
/// orchestrator balances over, stamping fingerprints and rejecting
/// collisions (two cells whose id+params hash identically could
/// silently swap results under checkpoint/resume).
pub(crate) fn flatten(selected: &[Experiment], scale: &Scale) -> Result<Vec<FlatCell>, String> {
    let mut flat: Vec<FlatCell> = Vec::new();
    for (exp, e) in selected.iter().enumerate() {
        for (idx, spec) in (e.build)(scale).into_iter().enumerate() {
            let fingerprint = cell_fingerprint(&spec.id, &spec.params);
            flat.push(FlatCell {
                exp,
                idx,
                fingerprint,
                spec,
            });
        }
    }
    if flat.is_empty() {
        return Err("selected experiments expanded to zero cells".into());
    }
    let mut fps: Vec<&str> = flat.iter().map(|f| f.fingerprint.as_str()).collect();
    fps.sort_unstable();
    let n = fps.len();
    fps.dedup();
    if fps.len() != n {
        return Err("duplicate cell fingerprint in the flattened selection".into());
    }
    Ok(flat)
}

/// Execute one flattened cell: run its closure, time it, and package
/// the outcome as the schema's [`BenchCell`].
pub(crate) fn execute_cell(fc: &FlatCell) -> BenchCell {
    let t0 = Instant::now();
    let outcome = (fc.spec.run)();
    BenchCell {
        cell_id: fc.spec.id.clone(),
        fingerprint: fc.fingerprint.clone(),
        params: fc.spec.params.clone(),
        metrics: outcome.metrics,
        wall_s: t0.elapsed().as_secs_f64(),
        flows: outcome.flows,
        engine_mode: outcome.engine_mode.to_string(),
        telemetry: outcome.telemetry,
    }
}

/// Fold executed cells — tagged with their `(experiment, declaration)`
/// positions — into one validated [`BenchReport`] per selected
/// experiment, in declaration order.
pub(crate) fn assemble_reports(
    selected: &[Experiment],
    smoke: bool,
    jobs: u64,
    total_wall_s: f64,
    mut executed: Vec<(usize, usize, BenchCell)>,
) -> Result<Vec<BenchReport>, String> {
    executed.sort_by_key(|&(exp, idx, _)| (exp, idx));
    let mut reports = Vec::with_capacity(selected.len());
    for (exp, e) in selected.iter().enumerate() {
        let cells: Vec<BenchCell> = executed
            .iter()
            .filter(|&&(x, _, _)| x == exp)
            .map(|(_, _, c)| c.clone())
            .collect();
        let report = BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            experiment: e.id.to_string(),
            description: e.description.to_string(),
            smoke,
            jobs,
            total_wall_s,
            cells,
        };
        validate_bench_report(&report)?;
        reports.push(report);
    }
    Ok(reports)
}

/// Persist each report to `<out_dir>/BENCH_<experiment>.json`.
pub(crate) fn write_reports(reports: &[BenchReport], out_dir: &Path) -> Result<(), String> {
    for report in reports {
        let path = out_dir.join(bench_artifact_name(&report.experiment));
        std::fs::write(&path, bench_report_to_json(report))
            .map_err(|err| format!("write {}: {err}", path.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaps_opts() -> BenchOptions {
        BenchOptions {
            filter: Some("table_gaps".into()),
            ..BenchOptions::default()
        }
    }

    #[test]
    fn flatten_stamps_unique_fingerprints_matching_cell_identity() {
        let opts = gaps_opts();
        let selected = select_experiments(&opts).unwrap();
        let flat = flatten(&selected, &scale_of(&opts)).unwrap();
        assert_eq!(flat.len(), 3);
        for fc in &flat {
            assert_eq!(
                fc.fingerprint,
                cell_fingerprint(&fc.spec.id, &fc.spec.params)
            );
        }
    }

    #[test]
    fn smoke_and_paper_tiers_never_share_fingerprints() {
        // Resume correctness depends on this: a checkpoint from one tier
        // must not satisfy a cell of another. Cell ids often coincide
        // across tiers, so the distinguishing knobs (trials, ports,
        // horizon) must be in the params.
        let selected = select(None);
        let tier = |paper: bool| {
            flatten(
                &selected,
                &Scale {
                    paper,
                    ..Scale::default()
                },
            )
            .unwrap()
        };
        let (smoke, paper) = (tier(false), tier(true));
        // A fingerprint shared across tiers must mean *the same
        // workload*: identical cell id and identical params (so every
        // tier-dependent knob — trials, ports, horizon — is visible to
        // the hash). This is what makes resuming into a different tier
        // safe: a checkpointed cell is only reused where it genuinely
        // describes the requested work.
        let mut by_fp: std::collections::HashMap<&str, &FlatCell> =
            std::collections::HashMap::new();
        for fc in smoke.iter().chain(paper.iter()) {
            match by_fp.entry(fc.fingerprint.as_str()) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(fc);
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    let seen = *e.get();
                    assert_eq!(
                        seen.spec.id, fc.spec.id,
                        "fingerprint collision across cell ids"
                    );
                    assert_eq!(
                        seen.spec.params, fc.spec.params,
                        "cell {} shares a fingerprint across tiers with different params",
                        fc.spec.id
                    );
                }
            }
        }
        // And the tiers must actually differ where it matters: every
        // scale-sensitive cell of the paper tier is distinct from every
        // smoke-tier cell.
        let smoke_fps: std::collections::HashSet<&str> =
            smoke.iter().map(|f| f.fingerprint.as_str()).collect();
        for fc in paper.iter() {
            if !fc.spec.id.starts_with("table_gaps/") {
                assert!(
                    !smoke_fps.contains(fc.fingerprint.as_str()),
                    "paper-tier cell {} is indistinguishable from its smoke-tier twin",
                    fc.spec.id
                );
            }
        }
    }

    #[test]
    fn execute_then_assemble_round_trips_one_experiment() {
        let opts = gaps_opts();
        let selected = select_experiments(&opts).unwrap();
        let flat = flatten(&selected, &scale_of(&opts)).unwrap();
        let executed: Vec<(usize, usize, BenchCell)> = flat
            .iter()
            .map(|fc| (fc.exp, fc.idx, execute_cell(fc)))
            .collect();
        let reports = assemble_reports(&selected, true, 1, 0.5, executed).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].cells.len(), 3);
        // Declaration order survives shuffled completion order.
        let mut shuffled: Vec<(usize, usize, BenchCell)> = flat
            .iter()
            .rev()
            .map(|fc| (fc.exp, fc.idx, execute_cell(fc)))
            .collect();
        shuffled.swap(0, 1);
        let again = assemble_reports(&selected, true, 1, 0.5, shuffled).unwrap();
        assert_eq!(
            reports[0]
                .cells
                .iter()
                .map(|c| &c.cell_id)
                .collect::<Vec<_>>(),
            again[0]
                .cells
                .iter()
                .map(|c| &c.cell_id)
                .collect::<Vec<_>>()
        );
    }
}
