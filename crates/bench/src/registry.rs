//! The declarative experiment registry.
//!
//! Every figure, table, and sweep the paper's evaluation section needs is
//! registered here as an [`Experiment`]: an id, a description, and a
//! builder that expands the experiment into self-contained [`CellSpec`]s
//! at the requested [`Scale`]. The orchestrator
//! ([`crate::orchestrator::run_bench`]) flattens the selected experiments
//! into one cell list and executes it on the work-stealing scheduler, so
//! a single heavy cell (an `M = 4m` grid point, an LP solve) no longer
//! serializes a whole run.
//!
//! Cell runners are **pure by construction**: every cell derives its RNG
//! streams from fixed seeds, so registry output is deterministic and the
//! differential tests can compare it against direct library calls.
//! Every heuristic cell (`fig6`, `fig7`, `saturation`, the two replays)
//! sits on one substrate: a `FlowSource` streamed through
//! `fss_engine::run`, statistics read off its `StreamStats`, the round
//! loop recorded into an `engine_telemetry` handle.

use crate::experiments;

/// Grid sizing for one run. There are two tiers: CI-sized smoke grids
/// (the default) and the paper's.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scale {
    /// Paper-exact grids and trial counts: the 150x150 heuristic figure
    /// grids, 10 trials per cell across the tables, and the
    /// long-horizon saturation sweep. Sized for multi-hour budgets —
    /// run it as a `bench --resume` restart loop so a killed process
    /// costs only the cells in flight. Off, the run uses the CI-sized
    /// smoke grids.
    pub paper: bool,
    /// Override trials per cell (`bench --trials N`).
    pub trials: Option<u64>,
    /// Record round-loop telemetry while cells execute (`bench
    /// --progress`). Purely observational: cell metrics are bit-identical
    /// either way, instrumented cells just carry a
    /// [`fss_telemetry::TelemetrySnapshot`] in the artifact.
    pub telemetry: bool,
}

impl Scale {
    /// Trials for this run: the override, else the tier's default.
    pub(crate) fn trials(&self, smoke: u64, paper: u64) -> u64 {
        self.trials
            .unwrap_or(if self.paper { paper } else { smoke })
            .max(1)
    }

    /// Human name of the selected tier.
    pub(crate) fn tier_name(&self) -> &'static str {
        if self.paper {
            "paper"
        } else {
            "smoke"
        }
    }
}

/// The handle an engine-backed cell records its round loop into:
/// recording under [`Scale::telemetry`], the measured-zero no-op
/// otherwise.
pub(crate) fn engine_telemetry(instrument: bool) -> fss_engine::EngineTelemetry {
    if instrument {
        fss_engine::EngineTelemetry::enabled()
    } else {
        fss_engine::EngineTelemetry::disabled()
    }
}

/// What one executed cell measured.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Named objective values, in display order.
    pub metrics: Vec<(String, f64)>,
    /// Work units processed (flows scheduled, instances solved); `0`
    /// when throughput is not meaningful.
    pub flows: u64,
    /// Execution substrate (`engine`, `lp`, `offline`, `exact`, ...).
    pub engine_mode: &'static str,
    /// Round-loop telemetry captured while the cell ran; `None` when the
    /// run was uninstrumented or the substrate has no engine loop.
    pub telemetry: Option<fss_telemetry::TelemetrySnapshot>,
}

/// A cell's runner: a deterministic closure from nothing to metrics.
pub(crate) type CellRunner = Box<dyn Fn() -> CellOutcome + Send + Sync>;

/// One schedulable unit of an experiment grid.
pub struct CellSpec {
    /// Unique id, `<experiment>/<coordinates...>`.
    pub id: String,
    /// Grid coordinates as ordered key/value strings.
    pub params: Vec<(String, String)>,
    /// The work itself.
    pub run: CellRunner,
}

impl CellSpec {
    /// Build a cell from its id pieces, parameters, and runner.
    pub(crate) fn new(
        id: impl Into<String>,
        params: Vec<(&str, String)>,
        run: impl Fn() -> CellOutcome + Send + Sync + 'static,
    ) -> CellSpec {
        CellSpec {
            id: id.into(),
            params: params
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            run: Box::new(run),
        }
    }
}

/// An experiment's cell expansion: a closure so experiments can be built
/// at runtime from external inputs (a loaded arrival trace, a scenario
/// file) as well as from the static registry.
pub(crate) type ExperimentBuilder = Box<dyn Fn(&Scale) -> Vec<CellSpec> + Send + Sync>;

/// A registered experiment: everything the orchestrator needs to expand
/// and execute it.
pub struct Experiment {
    /// Registry id (also the artifact name stem, `BENCH_<id>.json`).
    pub id: &'static str,
    /// One-line description of what the experiment reproduces.
    pub description: &'static str,
    /// Expand into cells at the given scale.
    pub build: ExperimentBuilder,
}

impl Experiment {
    /// Build an experiment from its id, description, and cell builder.
    pub(crate) fn new(
        id: &'static str,
        description: &'static str,
        build: impl Fn(&Scale) -> Vec<CellSpec> + Send + Sync + 'static,
    ) -> Experiment {
        Experiment {
            id,
            description,
            build: Box::new(build),
        }
    }
}

/// Every registered experiment, in canonical order.
pub(crate) fn registry() -> Vec<Experiment> {
    vec![
        experiments::figures::fig6(),
        experiments::figures::fig7(),
        experiments::saturation::saturation(),
        experiments::tables::table_art(),
        experiments::tables::table_mrt(),
        experiments::tables::table_amrt(),
        experiments::tables::table_gaps(),
        experiments::tables::table_coflow(),
        experiments::coflow_replay::coflow_replay(),
    ]
}

/// Select experiments by filter: an exact id match wins; otherwise every
/// experiment whose id contains `filter` as a substring. `None` selects
/// the whole registry.
pub fn select(filter: Option<&str>) -> Vec<Experiment> {
    let all = registry();
    match filter {
        None => all,
        Some(f) => {
            let exact: Vec<Experiment> = registry().into_iter().filter(|e| e.id == f).collect();
            if !exact.is_empty() {
                exact
            } else {
                all.into_iter().filter(|e| e.id.contains(f)).collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_nonempty() {
        let all = registry();
        let ids: Vec<&str> = all.iter().map(|e| e.id).collect();
        assert_eq!(
            ids,
            [
                "fig6",
                "fig7",
                "saturation",
                "table_art",
                "table_mrt",
                "table_amrt",
                "table_gaps",
                "table_coflow",
                "coflow_replay",
            ],
            "every artifact in the crate table is registered, once, in canonical order"
        );
        for e in &all {
            assert!(!e.description.is_empty());
        }
    }

    #[test]
    fn every_experiment_expands_to_cells_at_smoke_scale() {
        let scale = Scale {
            trials: Some(1),
            ..Scale::default()
        };
        for e in registry() {
            let cells = (e.build)(&scale);
            assert!(!cells.is_empty(), "{} has no cells", e.id);
            let mut ids: Vec<&String> = cells.iter().map(|c| &c.id).collect();
            ids.sort_unstable();
            let n = ids.len();
            ids.dedup();
            assert_eq!(ids.len(), n, "{} has duplicate cell ids", e.id);
            for c in &cells {
                assert!(
                    c.id.starts_with(&format!("{}/", e.id)),
                    "cell id {} must be prefixed with its experiment id",
                    c.id
                );
            }
        }
    }

    #[test]
    fn select_prefers_exact_match_then_substring() {
        assert_eq!(select(None).len(), registry().len());
        let exact = select(Some("fig6"));
        assert_eq!(exact.len(), 1);
        assert_eq!(exact[0].id, "fig6");
        let sub = select(Some("table"));
        assert_eq!(sub.len(), 5, "all five tables match the substring");
        assert!(select(Some("no-such-experiment")).is_empty());
    }

    #[test]
    fn trials_override_and_defaults() {
        let smoke = Scale::default();
        assert_eq!(smoke.trials(2, 10), 2);
        let paper = Scale {
            paper: true,
            ..Scale::default()
        };
        assert_eq!(paper.trials(2, 10), 10);
        let overridden = Scale {
            trials: Some(7),
            ..paper
        };
        assert_eq!(overridden.trials(2, 10), 7);
    }
}
