//! Integration tests for the runtime-built trace-replay experiment and
//! the artifact diff gate.

use std::path::PathBuf;

use fss_sim::report::bench_report_from_json;
use fss_sim::ScenarioSpec;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("fss-bench-trace-tests")
        .join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_sample_trace(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("trace.jsonl");
    let spec = ScenarioSpec::poisson(6, 4.0, 10, 77);
    spec.dump_trace().unwrap().save(&path).unwrap();
    path
}

#[test]
fn bench_trace_produces_schema_valid_artifact_and_self_diff_passes() {
    let dir = tmp_dir("artifact");
    let trace_path = write_sample_trace(&dir);

    let opts = fss_bench::BenchOptions {
        trace: Some(trace_path),
        out_dir: dir.clone(),
        ..Default::default()
    };
    let reports = fss_bench::run_bench(&opts)
        .expect("trace bench runs")
        .reports;
    assert_eq!(reports.len(), 1, "--trace alone runs only the replay");
    let report = &reports[0];
    assert_eq!(report.experiment, "trace_replay");
    assert_eq!(report.cells.len(), 4, "one cell per policy");
    for cell in &report.cells {
        assert_eq!(cell.engine_mode, "stream");
        assert!(cell.flows > 0);
        assert!(cell.metric("mean_response").unwrap() >= 1.0);
    }

    // The artifact on disk parses and schema-validates.
    let artifact = dir.join("BENCH_trace_replay.json");
    let text = std::fs::read_to_string(&artifact).expect("artifact written");
    let parsed = bench_report_from_json(&text).expect("artifact is schema-valid");
    assert_eq!(&parsed, report);

    // Self-comparison must pass the regression gate.
    let diff = fss_bench::diff_artifacts(&artifact, &artifact).expect("self diff");
    assert!(diff.passes());
    assert_eq!(diff.cells.len(), 4);
}

#[test]
fn trace_replay_metrics_match_direct_scenario_runs() {
    let dir = tmp_dir("differential");
    let trace_path = write_sample_trace(&dir);

    let opts = fss_bench::BenchOptions {
        trace: Some(trace_path.clone()),
        out_dir: dir,
        ..Default::default()
    };
    let report = fss_bench::run_bench(&opts).unwrap().reports.remove(0);

    let spec = ScenarioSpec::trace(trace_path.to_string_lossy());
    for policy in [
        fss_sim::PolicyKind::MaxCard,
        fss_sim::PolicyKind::MinRTime,
        fss_sim::PolicyKind::MaxWeight,
        fss_sim::PolicyKind::FifoGreedy,
    ] {
        let stats = spec.run(policy).unwrap();
        let cell = report
            .cells
            .iter()
            .find(|c| c.param("policy") == Some(policy.name()))
            .expect("cell per policy");
        assert_eq!(cell.metric("mean_response"), Some(stats.mean_response()));
        assert_eq!(
            cell.metric("max_response"),
            Some(stats.max_response as f64),
            "{}",
            policy.name()
        );
        assert_eq!(cell.flows, stats.dispatched);
    }
}

#[test]
fn bad_trace_file_is_a_clean_error() {
    let dir = tmp_dir("bad");
    let path = dir.join("bad.jsonl");
    std::fs::write(
        &path,
        "{\"ports\":2}\n{\"release\":0,\"src\":5,\"dst\":0}\n",
    )
    .unwrap();
    let opts = fss_bench::BenchOptions {
        trace: Some(path),
        out_dir: dir,
        ..Default::default()
    };
    let err = fss_bench::run_bench(&opts).unwrap_err();
    assert!(err.contains("port 5 out of range"), "{err}");
}

#[test]
fn trace_joins_filtered_registry_experiments() {
    let dir = tmp_dir("joined");
    let trace_path = write_sample_trace(&dir);
    let opts = fss_bench::BenchOptions {
        filter: Some("saturation".into()),
        trace: Some(trace_path),
        trials: Some(1),
        out_dir: dir,
        ..Default::default()
    };
    let reports = fss_bench::run_bench(&opts).unwrap().reports;
    let ids: Vec<&str> = reports.iter().map(|r| r.experiment.as_str()).collect();
    assert_eq!(ids, vec!["saturation", "trace_replay"]);
}
