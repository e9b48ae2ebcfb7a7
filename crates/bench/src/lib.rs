//! # fss-bench — the experiment registry and benchmark orchestrator
//!
//! Every evaluation artifact of the paper is a registered
//! [`registry::Experiment`]; the orchestrator ([`orchestrator::run_bench`])
//! expands the selected experiments into a flat cell list, executes it on
//! the rayon shim's work-stealing scheduler, checkpoints per-cell results
//! as JSONL (a killed run restarts with `--resume`), and persists one
//! schema-validated `BENCH_<experiment>.json` artifact per experiment
//! (see [`fss_sim::report`] for the schema).
//!
//! Entry point: `flowsched bench [--filter ID] [--paper] [--jobs N]
//! [--out DIR] [--resume]` — the CLI front end (see the `flow-switch`
//! crate). A run uses the CI-sized smoke grids unless `--paper` asks
//! for the paper's (see [`registry::Scale`]).
//!
//! | experiment | artifact reproduced |
//! |---|---|
//! | `fig6` | Figure 6 — average response time, heuristics vs LP (1)–(4) |
//! | `fig7` | Figure 7 — maximum response time, heuristics vs LP (19)–(21) |
//! | `saturation` | intensity sweep across the stability boundary |
//! | `table_art` | Theorem 1 validation table |
//! | `table_mrt` | Theorem 3 validation table |
//! | `table_amrt` | Lemma 5.3 validation table |
//! | `table_gaps` | Theorem 2 / Lemma 5.2 gap table |
//! | `table_coflow` | co-flow extension table |
//! | `coflow_replay` | the heuristics over the checked-in co-flow trace sample |

use std::path::PathBuf;

mod cells;
pub mod diff;
pub mod experiments;
pub mod orchestrator;
pub mod registry;

pub use diff::{diff_artifacts, diff_reports, render_diff, CellDelta, DiffReport};
pub use orchestrator::{
    flows_per_sec, registry_cell_counts, run_bench, BenchOptions, BenchRun, CELLS_STREAM_NAME,
};
pub use registry::{registry, select, CellOutcome, CellSpec, Experiment, ExperimentBuilder, Scale};

/// Print each report's cell table and artifact path.
pub fn print_reports(reports: &[fss_sim::BenchReport], out_dir: &std::path::Path) {
    for r in reports {
        print!("{}", fss_sim::report::bench_table(r));
        println!("wrote {}", out_dir.join(r.artifact_name()).display());
    }
}

/// `target/experiments/`, created on demand.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_dir_exists_after_call() {
        let d = out_dir();
        assert!(d.exists());
    }
}
