//! End-to-end orchestrator tests: artifacts on disk, JSONL stream,
//! schema round-trip, and filter errors.

use fss_bench::{run_bench, BenchOptions, CELLS_STREAM_NAME};
use fss_sim::report::{bench_artifact_name, bench_report_from_json, BenchCell};

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("fss-bench-tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn run_bench_writes_valid_artifacts_and_stream() {
    let out = tmp_dir("gaps");
    let opts = BenchOptions {
        filter: Some("table_gaps".into()),
        out_dir: out.clone(),
        ..BenchOptions::default()
    };
    let reports = run_bench(&opts).expect("orchestrator runs").reports;
    assert_eq!(reports.len(), 1);
    let report = &reports[0];
    assert_eq!(report.experiment, "table_gaps");
    assert_eq!(report.cells.len(), 3);
    assert!(report.jobs >= 1);

    // The persisted artifact round-trips to exactly the in-memory report.
    let path = out.join(bench_artifact_name("table_gaps"));
    let text = std::fs::read_to_string(&path).expect("artifact written");
    let parsed = bench_report_from_json(&text).expect("artifact schema-valid");
    assert_eq!(&parsed, report);

    // The JSONL stream has one parseable line per cell.
    let stream = std::fs::read_to_string(out.join(CELLS_STREAM_NAME)).expect("stream written");
    let lines: Vec<&str> = stream.lines().collect();
    assert_eq!(lines.len(), report.cells.len());
    for line in lines {
        let cell: BenchCell = serde_json::from_str(line).expect("line parses");
        assert!(report.cells.iter().any(|c| c == &cell), "cell in report");
    }
}

#[test]
fn unknown_filter_is_an_error_listing_known_ids() {
    let opts = BenchOptions {
        filter: Some("no-such-experiment".into()),
        out_dir: tmp_dir("unknown"),
        ..BenchOptions::default()
    };
    let err = run_bench(&opts).expect_err("unknown filter must fail");
    assert!(err.contains("no experiment matches"), "{err}");
    assert!(err.contains("fig6"), "error lists known ids: {err}");
}

#[test]
fn substring_filter_selects_multiple_experiments() {
    let out = tmp_dir("multi");
    let opts = BenchOptions {
        // "gaps" and "coflow" are cheap; "table" would also pull in the
        // LP-heavy tables, so use an exact cheap pair via two runs.
        filter: Some("table_gaps".into()),
        out_dir: out.clone(),
        trials: Some(1),
        ..BenchOptions::default()
    };
    run_bench(&opts).unwrap();
    let opts = BenchOptions {
        filter: Some("table_coflow".into()),
        out_dir: out.clone(),
        trials: Some(1),
        ..BenchOptions::default()
    };
    run_bench(&opts).unwrap();
    assert!(out.join(bench_artifact_name("table_gaps")).exists());
    assert!(out.join(bench_artifact_name("table_coflow")).exists());
}
