//! `bench --resume`: the checkpoint contract of the orchestrator.
//!
//! `BENCH_cells.jsonl` is the only state a bench run leaves behind, so a
//! run that died is run again with `resume`: the stream is replayed
//! (torn tail skipped, duplicates dropped, foreign cells kept), exactly
//! the missing fingerprints execute, and the artifact equals an
//! uninterrupted run's modulo timing. All but the last test drive
//! `run_bench` in-process; the last one kills a real `flowsched`.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use fss_bench::{run_bench, BenchOptions, CELLS_STREAM_NAME};
use fss_sim::report::{
    bench_report_from_json, read_cells_jsonl, reports_eq_modulo_timing, BenchCell, BenchReport,
};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("fss-bench-resume").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The workload under test: smoke-scale fig6 at one trial — 33 cells
/// mixing engine heuristics and LP bounds, all sub-second.
fn bench_opts(out_dir: &Path) -> BenchOptions {
    BenchOptions {
        filter: Some("fig6".into()),
        trials: Some(1),
        jobs: 1,
        out_dir: out_dir.to_path_buf(),
        ..BenchOptions::default()
    }
}

fn resume_opts(out_dir: &Path, jobs: usize) -> BenchOptions {
    BenchOptions {
        resume: true,
        jobs,
        ..bench_opts(out_dir)
    }
}

/// An uninterrupted `--jobs 1` run in a fresh directory.
fn reference(name: &str) -> (PathBuf, BenchReport) {
    let dir = tmp_dir(name);
    let mut run = run_bench(&bench_opts(&dir)).expect("uninterrupted run");
    assert_eq!(run.from_checkpoint, 0);
    (dir, run.reports.remove(0))
}

fn stream_path(dir: &Path) -> PathBuf {
    dir.join(CELLS_STREAM_NAME)
}

fn stream_lines(dir: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(stream_path(dir)).expect("stream exists");
    text.lines().map(str::to_string).collect()
}

/// The stream's cells; panics if any line, the last included, is torn.
fn stream_cells(dir: &Path) -> Vec<BenchCell> {
    let replay = read_cells_jsonl(&stream_path(dir)).expect("readable stream");
    assert!(replay.truncated_tail.is_none(), "stream ends mid-line");
    replay.cells
}

fn fingerprints(cells: &[BenchCell]) -> HashSet<String> {
    cells.iter().map(|c| c.fingerprint.clone()).collect()
}

fn artifact(dir: &Path) -> BenchReport {
    let text = std::fs::read_to_string(dir.join("BENCH_fig6.json")).expect("artifact");
    bench_report_from_json(&text).expect("schema-valid artifact")
}

/// What a crash mid-append leaves: the first `keep` lines and half of
/// the next, no artifact.
fn crash_after(dir: &Path, keep: usize) {
    let lines = stream_lines(dir);
    let torn = &lines[keep][..lines[keep].len() / 2];
    let text = format!("{}\n{torn}", lines[..keep].join("\n"));
    std::fs::write(stream_path(dir), text).unwrap();
    std::fs::remove_file(dir.join("BENCH_fig6.json")).unwrap();
}

#[test]
fn resume_after_crash_executes_only_missing_cells() {
    let (_, reference) = reference("crash-ref");
    let universe = fingerprints(&reference.cells);
    for jobs in [1, 2] {
        let dir = tmp_dir(&format!("crash-jobs{jobs}"));
        run_bench(&bench_opts(&dir)).expect("the run that will have died");
        let keep = 5;
        crash_after(&dir, keep);
        let kept = stream_lines(&dir)[..keep].to_vec();

        let run = run_bench(&resume_opts(&dir, jobs)).expect("resumed run completes");
        assert_eq!(run.from_checkpoint, keep, "--jobs {jobs}");

        // The torn tail was rewritten away: every line parses, so the
        // appends behind it are not mid-file garbage for the next
        // resume. The kept lines were reused byte for byte, and exactly
        // the missing fingerprints were appended, each once.
        let cells = stream_cells(&dir);
        assert_eq!(stream_lines(&dir)[..keep], kept[..]);
        assert_eq!(cells.len(), universe.len(), "--jobs {jobs}");
        let appended = fingerprints(&cells[keep..]);
        let missing: HashSet<String> = universe
            .difference(&fingerprints(&cells[..keep]))
            .cloned()
            .collect();
        assert_eq!(appended.len(), cells.len() - keep, "no cell ran twice");
        assert_eq!(appended, missing, "--jobs {jobs}");

        // The artifact equals an uninterrupted run's, in memory and on
        // disk, and carries the checkpointed cells themselves.
        assert!(reports_eq_modulo_timing(&reference, &run.reports[0]));
        let persisted = artifact(&dir);
        assert_eq!(persisted, run.reports[0]);
        for cell in &cells[..keep] {
            assert!(
                persisted.cells.contains(cell),
                "{} recomputed",
                cell.cell_id
            );
        }
    }
}

#[test]
fn a_complete_checkpoint_executes_nothing_and_still_rewrites_the_artifacts() {
    let dir = tmp_dir("complete");
    let first = run_bench(&bench_opts(&dir)).expect("initial run");
    let stream = std::fs::read(stream_path(&dir)).unwrap();
    std::fs::remove_file(dir.join("BENCH_fig6.json")).unwrap();

    let run = run_bench(&resume_opts(&dir, 2)).expect("no-op resume");
    assert_eq!(run.from_checkpoint, first.reports[0].cells.len());
    assert_eq!(std::fs::read(stream_path(&dir)).unwrap(), stream);
    // Every cell, wall-clock fields included, is the first run's.
    assert_eq!(artifact(&dir).cells, first.reports[0].cells);
}

#[test]
fn foreign_and_duplicate_cells_are_kept_or_ignored() {
    let (_, reference) = reference("foreign-ref");
    let dir = tmp_dir("foreign");
    run_bench(&bench_opts(&dir)).expect("initial run");
    let keep = 4;
    let lines = stream_lines(&dir);
    // A cell of another selection, and a second line for the first
    // cell that differs in a timing field.
    let foreign_dir = tmp_dir("foreign-gaps");
    let gaps = BenchOptions {
        filter: Some("table_gaps".into()),
        ..bench_opts(&foreign_dir)
    };
    run_bench(&gaps).expect("table_gaps run");
    let foreign = stream_lines(&foreign_dir).remove(0);
    let mut duplicate: BenchCell = serde_json::from_str(&lines[0]).unwrap();
    duplicate.wall_s += 1.0;
    let duplicate = fss_sim::report::bench_cell_to_jsonl(&duplicate);
    let text = format!("{}\n{foreign}\n{duplicate}\n", lines[..keep].join("\n"));
    std::fs::write(stream_path(&dir), text).unwrap();

    let run = run_bench(&resume_opts(&dir, 1)).expect("resumed run completes");
    assert_eq!(run.from_checkpoint, keep, "neither extra line counts");
    assert!(reports_eq_modulo_timing(&reference, &run.reports[0]));

    // The foreign cell stays in the stream for the run it belongs to;
    // the duplicate is gone and the first line won.
    let after = stream_lines(&dir);
    assert_eq!(after.len(), reference.cells.len() + 1);
    assert_eq!(after[..keep], lines[..keep]);
    assert_eq!(after[keep], foreign);
    assert!(!after.contains(&duplicate));
    let first: BenchCell = serde_json::from_str(&lines[0]).unwrap();
    assert!(artifact(&dir).cells.contains(&first));
}

#[test]
fn fresh_run_without_resume_truncates_a_stale_checkpoint() {
    let dir = tmp_dir("fresh");
    run_bench(&bench_opts(&dir)).expect("first run");
    let first = stream_cells(&dir).len();
    let run = run_bench(&bench_opts(&dir)).expect("second run, no resume");
    assert_eq!(run.from_checkpoint, 0);
    assert_eq!(
        stream_cells(&dir).len(),
        first,
        "a non-resume run starts its checkpoint from scratch"
    );
}

#[test]
fn resume_without_a_checkpoint_is_a_fresh_run() {
    let (_, reference) = reference("nocheckpoint-ref");
    let dir = tmp_dir("nocheckpoint");
    let run = run_bench(&resume_opts(&dir, 2)).expect("resume into an empty directory");
    assert_eq!(run.from_checkpoint, 0);
    assert_eq!(stream_cells(&dir).len(), reference.cells.len());
    assert!(reports_eq_modulo_timing(&reference, &artifact(&dir)));
}

/// In-process `flight_trace` covers the cells this invocation executed:
/// a resumed run traces the missing cells and none of the replayed ones.
#[test]
fn flighted_resume_traces_exactly_the_cells_it_executed() {
    let (_, reference) = reference("flight-ref");
    let dir = tmp_dir("flight");
    run_bench(&bench_opts(&dir)).expect("the run that will have died");
    let keep = 7;
    crash_after(&dir, keep);
    let trace = dir.join("trace.json");
    let opts = BenchOptions {
        flight_trace: Some(trace.clone()),
        ..resume_opts(&dir, 2)
    };
    let run = run_bench(&opts).expect("flighted resume");
    assert!(reports_eq_modulo_timing(&reference, &run.reports[0]));
    let json = std::fs::read_to_string(&trace).expect("trace artifact");
    let check = fss_flight::check_chrome(&json).expect("valid Chrome JSON");
    assert_eq!(
        check.names.get("cell"),
        Some(&(reference.cells.len() - keep))
    );
}

/// A checkpoint that cannot be written fails the run and names the
/// file: resume trusts the stream, so a lost append is not a warning.
#[test]
#[cfg(target_os = "linux")]
fn a_failed_checkpoint_append_fails_the_run_and_names_the_path() {
    let dir = tmp_dir("full-disk");
    std::fs::create_dir_all(&dir).unwrap();
    // Opens and truncates fine, then every write is ENOSPC.
    std::os::unix::fs::symlink("/dev/full", stream_path(&dir)).unwrap();
    let err = run_bench(&bench_opts(&dir)).expect_err("appends cannot succeed");
    assert!(err.starts_with("append "), "{err}");
    assert!(err.contains(CELLS_STREAM_NAME), "{err}");
    assert!(
        !dir.join("BENCH_fig6.json").exists(),
        "no artifact of a failed run"
    );
}

fn flowsched(args: &[&str]) -> std::process::Command {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_flowsched"));
    cmd.args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped());
    cmd
}

/// The crash-survival recipe, end to end on the real binary: `kill -9`
/// mid-run, run it again with `--resume`, strict-diff against an
/// uninterrupted run.
#[test]
fn killed_process_resumes_to_a_strict_diff_clean_artifact() {
    let (ref_dir, reference) = reference("kill-ref");
    let dir = tmp_dir("kill");
    let out = dir.to_str().unwrap();
    let selection = ["--filter", "fig6", "--trials", "1", "--out", out];

    let mut args = vec!["bench", "--jobs", "1"];
    args.extend(selection);
    let mut child = flowsched(&args).spawn().expect("binary spawns");
    // Spin, not sleep: the whole run is tens of milliseconds.
    let finished_first = loop {
        if child.try_wait().expect("child status").is_some() {
            break true;
        }
        let lines = std::fs::read(stream_path(&dir))
            .map_or(0, |bytes| bytes.iter().filter(|&&c| c == b'\n').count());
        if lines >= 2 {
            child.kill().expect("kill -9");
            child.wait().expect("reap");
            break false;
        }
    };
    if finished_first {
        eprintln!("killed_process_resumes: the child finished before the kill; resuming a complete checkpoint");
    }
    // What survived: every complete line (a torn tail does not parse).
    let survived = read_cells_jsonl(&stream_path(&dir))
        .expect("a killed run leaves a replayable stream")
        .cells
        .len();

    let mut args = vec!["bench", "--resume", "--jobs", "2"];
    args.extend(selection);
    let resumed = flowsched(&args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(resumed.status.success(), "resume failed: {stderr}");
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    let want = format!(
        "resume: {survived} from checkpoint + {} executed",
        reference.cells.len() - survived
    );
    assert!(stdout.contains(&want), "want {want:?} in: {stdout}");
    assert_eq!(stream_cells(&dir).len(), reference.cells.len());

    let diff = flowsched(&[
        "bench",
        "--diff",
        ref_dir.join("BENCH_fig6.json").to_str().unwrap(),
        dir.join("BENCH_fig6.json").to_str().unwrap(),
    ])
    .output()
    .expect("binary runs");
    assert!(
        diff.status.success(),
        "{}",
        String::from_utf8_lossy(&diff.stderr)
    );
}
