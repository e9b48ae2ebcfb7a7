//! The parallel benchmark orchestrator.
//!
//! [`run_bench`] expands the selected experiments into one flat cell
//! list, executes it through the rayon shim's dynamic work-stealing
//! scheduler (so a handful of heavy `M = 4m` or LP cells can't serialize
//! behind one worker's chunk), appends every finished cell to the
//! `BENCH_cells.jsonl` checkpoint as a JSONL line, and writes one
//! aggregated, schema-validated `BENCH_<experiment>.json` artifact per
//! experiment via [`fss_sim::report`].
//!
//! The checkpoint is what makes a run restartable: a run that dies
//! (`kill -9`, OOM, abort) is run again with [`BenchOptions::resume`],
//! which replays the stream, executes only the fingerprints it is
//! missing and folds both into the same artifacts. Every runner derives
//! its RNG streams from the cell's own values, so the artifact of a
//! resumed run equals an uninterrupted one except for wall-clock fields.

use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use fss_flight::{export_chrome, FlightRecorder, SpanKind, TraceSink, DEFAULT_SPOOL_MAX_EVENTS};
use fss_sim::report::{bench_cell_to_jsonl, read_cells_jsonl, BenchCell, BenchReport};
use rayon::prelude::*;

use crate::cells::{
    assemble_reports, execute_cell, flatten, scale_of, select_experiments, write_reports, FlatCell,
};
use crate::registry::Scale;

/// File the orchestrator appends per-cell results to, in completion
/// order (one compact JSON object per line): the run's checkpoint.
pub const CELLS_STREAM_NAME: &str = "BENCH_cells.jsonl";

/// Options for one orchestrator run (the `flowsched bench` flags).
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Select experiments: exact id, else substring (`None` = all).
    pub filter: Option<String>,
    /// Paper-scale grids (150x150 heuristics); off, the CI-sized smoke
    /// grids.
    pub paper: bool,
    /// Thread cap for every fan-out in the run — cells in flight, and a
    /// cell's independent trials inside it (`0` = machine default /
    /// `RAYON_NUM_THREADS`). Never changes results, only wall time.
    pub jobs: usize,
    /// Directory artifacts are written into (created on demand).
    pub out_dir: PathBuf,
    /// Override trials per cell.
    pub trials: Option<u64>,
    /// Replay this arrival-trace file as the `trace_replay` experiment.
    /// Without `filter`, the run is the trace replay alone; with one, the
    /// replay joins the selected registry experiments.
    pub trace: Option<PathBuf>,
    /// Record round-loop telemetry per cell and print a live progress
    /// line (cells done/total, aggregate flows/s, slowest stage) to
    /// stderr as cells complete (`flowsched bench --progress`).
    pub progress: bool,
    /// Write a Chrome Trace Format JSON of the run here (`flowsched
    /// bench --flight-trace OUT.json`): one round-tagged `Cell` span
    /// per executed cell (round = flat-list position), spooled next to
    /// the output as `OUT.json.spool.jsonl`. Tracing observes, never
    /// steers: cells are bit-identical with or without it.
    pub flight_trace: Option<PathBuf>,
    /// Replay an existing `BENCH_cells.jsonl` checkpoint in `out_dir`
    /// and execute only the cells it is missing (`flowsched bench
    /// --resume`). Without a checkpoint this is a fresh run; without
    /// `resume` a stale checkpoint is truncated.
    pub resume: bool,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            filter: None,
            paper: false,
            jobs: 0,
            out_dir: crate::out_dir(),
            trials: None,
            trace: None,
            progress: false,
            flight_trace: None,
            resume: false,
        }
    }
}

/// What one [`run_bench`] invocation produced.
#[derive(Debug)]
pub struct BenchRun {
    /// The validated reports in registry order (also persisted as
    /// artifacts).
    pub reports: Vec<BenchReport>,
    /// Cells taken from the replayed checkpoint instead of executed
    /// (always 0 without [`BenchOptions::resume`]).
    pub from_checkpoint: usize,
}

/// Progress state the orchestrator folds completed cells into:
/// completion counters plus the run-level telemetry merge behind one
/// line of status output.
pub(crate) struct ProgressLine {
    total: usize,
    done: u64,
    flows: u64,
    merged: fss_telemetry::TelemetrySnapshot,
    started: Instant,
}

impl ProgressLine {
    /// Start tracking a run of `total` cells.
    fn new(total: usize) -> ProgressLine {
        ProgressLine {
            total,
            done: 0,
            flows: 0,
            merged: fss_telemetry::TelemetrySnapshot::new(),
            started: Instant::now(),
        }
    }

    /// Fold one completed cell in and return the refreshed status line.
    fn record(&mut self, cell: &BenchCell) -> String {
        self.done += 1;
        self.flows += cell.flows;
        if let Some(snap) = &cell.telemetry {
            self.merged.merge(snap);
        }
        self.line()
    }

    /// Render the status line: `cells 3/24 · 1234.5 flows/s · slowest
    /// stage match_repair`. Stage detail appears once any instrumented
    /// cell has been folded in.
    fn line(&self) -> String {
        self.line_at(self.started.elapsed().as_secs_f64())
    }

    /// [`ProgressLine::line`] at an explicit elapsed time (seconds) —
    /// split out so the sub-timer-resolution path is testable.
    fn line_at(&self, elapsed_s: f64) -> String {
        let mut line = format!(
            "cells {}/{} · {:.1} flows/s",
            self.done,
            self.total,
            flows_per_sec(self.flows, elapsed_s)
        );
        if let Some(stage) = self.merged.slowest_stage() {
            line.push_str(&format!(" · slowest stage {}", stage.stage));
        }
        line
    }
}

/// A displayable flow rate: `flows / elapsed` with the denominator
/// clamped to the timer resolution (1 ms). Cells that finish under the
/// clock's resolution used to divide by a ~1e-9 epsilon and print a
/// garbage ~1e9x rate (or `inf` for a literal zero); now they cap at
/// the honest "at least this fast over one millisecond" bound, and a
/// zero-flow line is exactly `0.0`.
pub(crate) fn flows_per_sec(flows: u64, elapsed_s: f64) -> f64 {
    if flows == 0 {
        return 0.0;
    }
    let clamped = if elapsed_s.is_finite() {
        elapsed_s.max(1e-3)
    } else {
        1e-3
    };
    flows as f64 / clamped
}

/// Replay the checkpoint stream at `path`: return the cells of `flat`
/// it already holds, keyed by fingerprint, and rewrite the stream with
/// only its valid lines so a torn crash tail can never corrupt the
/// lines appended after it. A duplicate fingerprint keeps its first
/// line; a cell that is not in `flat` (another selection or tier) stays
/// in the stream and is ignored for this run.
fn replay_checkpoint(path: &Path, flat: &[FlatCell]) -> Result<HashMap<String, BenchCell>, String> {
    let universe: HashSet<&str> = flat.iter().map(|fc| fc.fingerprint.as_str()).collect();
    let replay = read_cells_jsonl(path)?;
    if let Some(warning) = &replay.truncated_tail {
        eprintln!("bench --resume: {}: {warning}", path.display());
    }
    let mut done: HashMap<String, BenchCell> = HashMap::new();
    let mut preserved = String::new();
    let mut foreign = 0usize;
    for cell in replay.cells {
        let in_universe = universe.contains(cell.fingerprint.as_str());
        if in_universe && done.contains_key(&cell.fingerprint) {
            continue;
        }
        preserved.push_str(&bench_cell_to_jsonl(&cell));
        preserved.push('\n');
        if in_universe {
            done.insert(cell.fingerprint.clone(), cell);
        } else {
            foreign += 1;
        }
    }
    if foreign > 0 {
        eprintln!(
            "bench --resume: {foreign} checkpointed cell(s) in {} do not belong to this \
             selection/scale; kept in the stream, ignored for this run",
            path.display()
        );
    }
    // Atomic rewrite (temp file + rename): the checkpoint is the only
    // thing standing between a crash and hours of redone work, so a
    // crash *during this rewrite* must not destroy it.
    let tmp_path = path.with_extension("jsonl.rewrite");
    std::fs::write(&tmp_path, preserved)
        .map_err(|e| format!("write {}: {e}", tmp_path.display()))?;
    std::fs::rename(&tmp_path, path).map_err(|e| format!("replace {}: {e}", path.display()))?;
    Ok(done)
}

/// Run the selected experiments and persist their artifacts.
///
/// Every report has been written to
/// `<out_dir>/BENCH_<experiment>.json`, and every executed cell appended
/// to `<out_dir>/BENCH_cells.jsonl` — on disk before the next cell's
/// result is accepted — so a run that dies is restarted with
/// [`BenchOptions::resume`] and loses at most the cells in flight.
pub fn run_bench(opts: &BenchOptions) -> Result<BenchRun, String> {
    let selected = select_experiments(opts)?;
    // Always install the cap: `0` restores the shim's automatic default
    // (RAYON_NUM_THREADS / available parallelism), so a jobs=0 run after
    // a capped one isn't stuck on the previous cap.
    rayon::ThreadPoolBuilder::new()
        .num_threads(opts.jobs)
        .build_global()
        .map_err(|e| e.to_string())?;
    let jobs = rayon::current_num_threads() as u64;
    let flat = flatten(&selected, &scale_of(opts))?;

    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create {}: {e}", opts.out_dir.display()))?;
    let stream_path = opts.out_dir.join(CELLS_STREAM_NAME);
    let (mut done, stream) = if opts.resume && stream_path.exists() {
        let done = replay_checkpoint(&stream_path, &flat)?;
        let stream = std::fs::OpenOptions::new()
            .append(true)
            .open(&stream_path)
            .map_err(|e| format!("open {}: {e}", stream_path.display()))?;
        (done, stream)
    } else {
        let stream = std::fs::File::create(&stream_path)
            .map_err(|e| format!("create {}: {e}", stream_path.display()))?;
        (HashMap::new(), stream)
    };
    let from_checkpoint = done.len();
    // The open stream, or the first append that failed. Resume trusts
    // this file, so a failed append fails the run (once the fan-out has
    // drained), and nothing more is appended behind a possibly torn
    // line or executed for a run that can no longer succeed.
    let checkpoint: Mutex<Result<std::fs::File, String>> = Mutex::new(Ok(stream));

    // Flight tracing: one round-tagged Cell span per executed cell.
    // The handle sits behind a mutex (cells are seconds-coarse, so the
    // lock is cold) and the sink drains after every cell, so even an
    // interrupted run leaves a readable spool.
    let flight = match &opts.flight_trace {
        None => None,
        Some(out) => {
            let mut spool = out.as_os_str().to_os_string();
            spool.push(".spool.jsonl");
            let spool = PathBuf::from(spool);
            let recorder = FlightRecorder::new();
            let sink = TraceSink::create(&recorder, &spool, DEFAULT_SPOOL_MAX_EVENTS)
                .map_err(|e| format!("create flight spool {}: {e}", spool.display()))?;
            let handle = recorder.handle("cells");
            Some((sink, Mutex::new(handle), out.clone()))
        }
    };

    // Execute every cell the checkpoint is missing through the
    // work-stealing scheduler, appending each as it finishes
    // (completion order).
    let started = Instant::now();
    let pending: Vec<(u64, &FlatCell)> = flat
        .iter()
        .enumerate()
        .filter(|(_, fc)| !done.contains_key(&fc.fingerprint))
        .map(|(pos, fc)| (pos as u64, fc))
        .collect();
    let progress = opts
        .progress
        .then(|| Mutex::new(ProgressLine::new(pending.len())));
    let executed: Vec<Option<BenchCell>> = pending
        .par_iter()
        .map(|&(pos, fc)| {
            if checkpoint.lock().expect("checkpoint stream").is_err() {
                return None;
            }
            let cell_t0 = Instant::now();
            let cell = execute_cell(fc);
            if let Some((sink, handle, _)) = &flight {
                {
                    let mut h = handle.lock().expect("flight handle");
                    h.round_tag(pos);
                    h.record(SpanKind::Cell, cell_t0, Instant::now());
                }
                sink.drain();
            }
            let mut line = bench_cell_to_jsonl(&cell);
            line.push('\n');
            {
                let mut stream = checkpoint.lock().expect("checkpoint stream");
                if let Ok(file) = stream.as_mut() {
                    let appended = file.write_all(line.as_bytes()).and_then(|()| file.flush());
                    if let Err(e) = appended {
                        *stream = Err(format!("append {}: {e}", stream_path.display()));
                    }
                }
            }
            if let Some(p) = &progress {
                let status = p.lock().expect("progress line").record(&cell);
                eprintln!("[fss-bench] {status} · {}", cell.cell_id);
            }
            Some(cell)
        })
        .collect();
    let total_wall_s = started.elapsed().as_secs_f64();
    checkpoint.into_inner().expect("checkpoint stream")?;

    if let Some((sink, _, out)) = &flight {
        let s = sink.finish();
        export_chrome(&s.path, out)?;
        eprintln!(
            "[fss-bench] flight trace: {} ({} span(s), {} dropped; spool {})",
            out.display(),
            s.events,
            s.dropped,
            s.path.display()
        );
    }

    // Fold checkpointed and executed cells by fingerprint; `flat`
    // restores (experiment, declaration) order for the reports.
    done.extend(
        executed
            .into_iter()
            .flatten()
            .map(|cell| (cell.fingerprint.clone(), cell)),
    );
    let folded = flat
        .iter()
        .map(|fc| {
            let cell = done
                .remove(&fc.fingerprint)
                .expect("every cell was checkpointed or executed");
            (fc.exp, fc.idx, cell)
        })
        .collect();
    let reports = assemble_reports(&selected, !opts.paper, jobs, total_wall_s, folded)?;
    write_reports(&reports, &opts.out_dir)?;
    Ok(BenchRun {
        reports,
        from_checkpoint,
    })
}

/// Per-experiment cell counts at both registry tiers (`flowsched bench
/// --list`): `(id, description, [smoke, paper])`.
pub fn registry_cell_counts() -> Vec<(&'static str, &'static str, [usize; 2])> {
    crate::registry::registry()
        .iter()
        .map(|e| {
            let count = |paper: bool| {
                (e.build)(&Scale {
                    paper,
                    ..Scale::default()
                })
                .len()
            };
            (e.id, e.description, [count(false), count(true)])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fss_sim::report::BenchCell;

    fn cell_with_flows(flows: u64) -> BenchCell {
        BenchCell::new(
            "exp/cell",
            vec![("m".into(), "4".into())],
            Vec::new(),
            0.0, // finished under the timer resolution
            flows,
            "exact",
        )
    }

    #[test]
    fn flows_per_sec_is_finite_and_bounded_at_zero_elapsed() {
        // The zero-elapsed path: no inf, no NaN, no ~1e9x garbage.
        assert_eq!(flows_per_sec(0, 0.0), 0.0);
        let r = flows_per_sec(1_000, 0.0);
        assert!(r.is_finite());
        assert_eq!(r, 1_000.0 / 1e-3, "clamped to the 1 ms resolution");
        // Sub-resolution elapsed clamps the same way.
        assert_eq!(flows_per_sec(1_000, 1e-9), 1_000.0 / 1e-3);
        // A hostile elapsed (NaN from a broken clock diff) still renders.
        assert!(flows_per_sec(5, f64::NAN).is_finite());
        // Normal path is untouched.
        assert_eq!(flows_per_sec(500, 2.0), 250.0);
    }

    #[test]
    fn progress_line_renders_sanely_for_an_instant_cell() {
        let mut p = ProgressLine::new(2);
        let line = p.record(&cell_with_flows(10_000));
        assert!(line.starts_with("cells 1/2"), "{line}");
        // Re-render at an explicit zero elapsed: the displayed rate is
        // the clamped bound, not inf/garbage.
        let line = p.line_at(0.0);
        assert!(line.contains("10000000.0 flows/s"), "{line}");
        assert!(!line.contains("inf") && !line.contains("NaN"), "{line}");
        let line = p.line_at(10.0);
        assert!(line.contains("1000.0 flows/s"), "{line}");
    }
}
