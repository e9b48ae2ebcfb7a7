//! End-to-end tests of the `flowsched` CLI binary.

use std::process::Command;

fn flowsched(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_flowsched"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Run the binary with bytes piped to stdin (for `serve` sessions).
fn flowsched_with_stdin(args: &[&str], input: &[u8]) -> std::process::Output {
    use std::io::Write;
    let mut child = Command::new(env!("CARGO_BIN_EXE_flowsched"))
        .args(args)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input)
        .expect("stdin accepts the trace");
    child.wait_with_output().expect("binary runs")
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("flowsched-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn gen_solve_validate_round_trip() {
    let inst = tmp("inst.json");
    let sched = tmp("sched.json");

    let out = flowsched(&[
        "gen", "--m", "4", "--flows", "10", "--seed", "9", "-o", &inst,
    ]);
    assert!(
        out.status.success(),
        "gen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = flowsched(&["solve", "-i", &inst, "--objective", "mrt", "-o", &sched]);
    assert!(
        out.status.success(),
        "solve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(log.contains("rho*"), "missing rho* report: {log}");

    // The MRT schedule may need augmentation up to 2*dmax-1 = 1.
    let out = flowsched(&["validate", "-i", &inst, "-s", &sched, "--augment", "1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn online_policies_and_stats() {
    let inst = tmp("inst2.json");
    let sched = tmp("sched2.json");
    flowsched(&[
        "gen", "--m", "3", "--flows", "8", "--seed", "4", "-o", &inst,
    ]);
    for policy in ["maxcard", "minrtime", "maxweight", "fifo"] {
        let out = flowsched(&["online", "-i", &inst, "--policy", policy, "-o", &sched]);
        assert!(out.status.success(), "policy {policy} failed");
        let out = flowsched(&["validate", "-i", &inst, "-s", &sched]);
        assert!(out.status.success(), "policy {policy} schedule invalid");
    }
    let out = flowsched(&["stats", "-i", &inst, "-s", &sched]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("mean response"));
    assert!(text.contains("p50 / p95 / p99"));
}

#[test]
fn art_solver_reports_capacity_factor() {
    let inst = tmp("inst3.json");
    let sched = tmp("sched3.json");
    flowsched(&[
        "gen", "--m", "3", "--flows", "6", "--seed", "5", "-o", &inst,
    ]);
    let out = flowsched(&[
        "solve",
        "-i",
        &inst,
        "--objective",
        "art",
        "--c",
        "2",
        "-o",
        &sched,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("3x capacity"));
}

#[test]
fn bad_inputs_fail_cleanly() {
    // Unknown subcommand.
    let out = flowsched(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // The removed process fabric: its hidden subcommand is unknown like
    // any other, and the usage text names neither it nor its flag.
    let out = flowsched(&["bench-worker"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("unknown subcommand 'bench-worker'"), "{err}");
    let usage = err.split_once("usage:").expect("usage follows the error").1;
    assert!(!usage.contains("bench-worker") && !usage.contains("--workers"));

    // Missing required flag.
    let out = flowsched(&["validate"]);
    assert!(!out.status.success());

    // Unknown policy.
    let inst = tmp("inst4.json");
    flowsched(&["gen", "--m", "2", "--flows", "2", "-o", &inst]);
    let out = flowsched(&["online", "-i", &inst, "--policy", "psychic"]);
    assert!(!out.status.success());
}

/// A runtime error is its one line on stderr; only a usage error (an
/// unknown subcommand or flag, a flag without its value, a missing
/// argument) is followed by the usage text.
#[test]
fn runtime_errors_print_one_line_without_the_usage() {
    let missing = tmp("no-such-artifact.json");
    let csv = tmp("no-such-coflows.csv");
    let out_path = tmp("never-written.jsonl");
    for args in [
        vec!["bench", "--diff", &missing, &missing],
        vec!["trace", "convert", &csv, "-o", &out_path],
        vec!["trace", "stats", &missing],
    ] {
        let out = flowsched(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(err.contains("No such file"), "{args:?}: {err}");
        assert!(!err.contains("usage:"), "{args:?}: {err}");
    }
    for args in [
        vec!["trace", "stats"],
        vec!["bench", "--jobs"],
        vec!["stream", "--frob", "1"],
    ] {
        let out = flowsched(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
}

/// An instance file is checked like a built instance before any
/// subcommand uses it: an out-of-range port, a zero capacity and (for
/// `online`) a non-unit capacity are exit-1 errors naming the problem,
/// never a panic or a hang.
#[test]
fn instance_files_are_checked_on_read() {
    let oor = tmp("inst-port-out-of-range.json");
    std::fs::write(
        &oor,
        r#"{"switch":{"in_caps":[1],"out_caps":[1]},"flows":[{"src":5,"dst":0,"demand":1,"release":0}]}"#,
    )
    .unwrap();
    let zero = tmp("inst-zero-capacity.json");
    std::fs::write(
        &zero,
        r#"{"switch":{"in_caps":[0],"out_caps":[1]},"flows":[{"src":0,"dst":0,"demand":1,"release":0}]}"#,
    )
    .unwrap();
    let cap2 = tmp("inst-capacity-2.json");
    let out = flowsched(&["gen", "--cap", "2", "--max-demand", "2", "-o", &cap2]);
    assert!(out.status.success());
    for (args, want) in [
        (
            vec!["online", "-i", &oor, "--policy", "maxcard"],
            "input port 5 out of range",
        ),
        (
            vec!["solve", "-i", &oor, "--objective", "art"],
            "input port 5 out of range",
        ),
        (
            vec!["solve", "-i", &zero, "--objective", "mrt"],
            "port 0: zero capacity",
        ),
        (
            vec!["online", "-i", &cap2, "--policy", "maxcard"],
            "require unit capacities",
        ),
    ] {
        let out = flowsched(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(want), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

/// A zero count where the model needs at least one is an exit-1 error
/// naming the flag.
#[test]
fn zero_counts_are_errors_naming_the_flag() {
    let inst = tmp("inst-zero-counts.json");
    let out = flowsched(&["gen", "--m", "2", "--flows", "3", "-o", &inst]);
    assert!(out.status.success());
    let bench_out = tmp("bench-zero-trials");
    for (args, flag) in [
        (vec!["gen", "--max-demand", "0"], "--max-demand"),
        (vec!["gen", "--m", "0", "--flows", "5"], "--m"),
        (vec!["gen", "--cap", "0"], "--cap"),
        (
            vec!["solve", "-i", &inst, "--objective", "art", "--c", "0"],
            "--c",
        ),
        (
            vec!["bench", "--trials", "0", "--out", &bench_out],
            "--trials",
        ),
    ] {
        let out = flowsched(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(
            err.contains(&format!("{flag} must be at least 1")),
            "{args:?}: {err}"
        );
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }

    // A zero quantum would write one unit flow per byte, a zero round
    // length would divide by zero, and zero ports fold onto nothing. Each
    // fails before the output file exists. One small row, so a
    // regression writes a few thousand lines, not gigabytes.
    let csv = tmp("convert-zero.csv");
    std::fs::write(
        &csv,
        "coflow,release_ms,mappers,reducers,bytes\n1,0,3,4,4096\n",
    )
    .unwrap();
    for flag in ["--quantum-bytes", "--ms-per-round", "--ports"] {
        let trace = tmp(&format!("convert-zero{flag}.jsonl"));
        let _ = std::fs::remove_file(&trace);
        let out = flowsched(&["trace", "convert", &csv, flag, "0", "-o", &trace]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {err}");
        assert!(err.contains(&format!("{flag} must be at least 1")), "{err}");
        assert!(!std::path::Path::new(&trace).exists(), "{flag}: {trace}");
    }
}

/// A flag the subcommand does not read is an exit-1 error naming the
/// flag — a typo never runs with the default, and the removed
/// `--cores` (all three subcommands that had it), `bench --workers` and
/// `bench --smoke` (smoke is the default tier) fail loudly.
#[test]
fn unknown_flags_are_errors_under_every_subcommand() {
    for case in [
        "gen --flwos",
        "validate --agument",
        "solve --objektive",
        "online --polcy",
        "stats --inst",
        "stream --moed",
        "trace --sede",
        "bench --fliter",
        "serve --core",
        "trace convert x.csv --port",
        "trace split x.jsonl --shard",
        "telemetry dump --in",
        "flight stats x.jsonl --tpo",
        "serve --cores",
        "bench --cores",
        "stream --cores",
        "bench --workers",
        "bench --smoke",
    ] {
        let args: Vec<&str> = case.split(' ').chain(["2"]).collect();
        let out = flowsched(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{case}: {err}");
        let want = format!("unknown flag {} for", args[args.len() - 2]);
        assert!(err.contains(&want), "{case}: {err}");
    }
}

/// A flag given twice is an exit-1 error naming it, not a run with the
/// first value. Only `trace morph`'s transforms repeat, applied in flag
/// order (`trace_tools_gen_convert_morph_stats_pipeline` folds twice).
#[test]
fn a_repeated_flag_is_an_error() {
    for (case, flag) in [
        ("stream --m 4 --m 9 --rounds 1", "--m"),
        (
            "serve --reference --m 4 --rate 2 --rounds 3 --rounds 4",
            "--rounds",
        ),
        ("stream --m 4 --rounds 1 --metrics --metrics", "--metrics"),
        ("trace morph x.jsonl --fold 4 -o a.jsonl -o b.jsonl", "--o"),
    ] {
        let out = flowsched(&case.split(' ').collect::<Vec<_>>());
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{case}: {err}");
        assert!(out.stdout.is_empty(), "{case} ran");
        assert!(
            err.contains(&format!("flag {flag} given more than once")),
            "{case}: {err}"
        );
    }
}

/// `online --policy`, `stream --mode` and `serve --policy` read one
/// spelling table (`BuiltinPolicy::parse`): each accepts every name the
/// others do, and refuses anything else in the same words.
#[test]
fn policy_names_parse_alike_under_every_subcommand() {
    let inst = tmp("policy-names.json");
    flowsched(&[
        "gen", "--m", "3", "--flows", "8", "--seed", "4", "-o", &inst,
    ]);
    let small = "--m 4 --rate 2 --rounds 5";
    for subcommand in [
        format!("online -i {inst} --policy"),
        format!("stream {small} --mode"),
        format!("serve --reference {small} --policy"),
    ] {
        let run = |name: &str| {
            let args: Vec<&str> = subcommand.split(' ').chain([name]).collect();
            flowsched(&args)
        };
        for name in ["maxcard", "minrtime", "maxweight", "fifo", "fifogreedy"] {
            let out = run(name);
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{subcommand} {name}: {err}");
        }
        let out = run("nope");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{subcommand} nope: {err}");
        assert!(err.contains("unknown policy 'nope'"), "{subcommand}: {err}");
    }
}

#[test]
fn mismatched_schedule_rejected() {
    let inst = tmp("inst5.json");
    let other = tmp("inst6.json");
    let sched = tmp("sched5.json");
    flowsched(&[
        "gen", "--m", "3", "--flows", "6", "--seed", "1", "-o", &inst,
    ]);
    flowsched(&[
        "gen", "--m", "3", "--flows", "9", "--seed", "2", "-o", &other,
    ]);
    flowsched(&["online", "-i", &inst, "--policy", "fifo", "-o", &sched]);
    // Validate against the wrong instance: length mismatch.
    let out = flowsched(&["validate", "-i", &other, "-s", &sched]);
    assert!(!out.status.success());
}

#[test]
fn stream_reports_statistics() {
    let out = flowsched(&[
        "stream",
        "--m",
        "20",
        "--rate",
        "60",
        "--rounds",
        "30",
        "--seed",
        "7",
        "--mode",
        "incremental",
    ]);
    assert!(
        out.status.success(),
        "stream failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let log = String::from_utf8_lossy(&out.stdout);
    assert!(log.contains("mode             : incremental"), "{log}");
    assert!(log.contains("flows"), "{log}");
    assert!(log.contains("mean response"), "{log}");

    // Exact engine mode works through the same subcommand.
    let out = flowsched(&[
        "stream", "--m", "20", "--rate", "60", "--rounds", "30", "--mode", "maxcard",
    ]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("exact/MaxCard"));

    // Unknown modes are rejected.
    let out = flowsched(&["stream", "--mode", "psychic"]);
    assert!(!out.status.success());
}

#[test]
fn stream_metrics_appends_prometheus_telemetry() {
    let base = &[
        "stream", "--m", "20", "--rate", "60", "--rounds", "30", "--seed", "7", "--mode", "maxcard",
    ];
    let plain = flowsched(base);
    assert!(plain.status.success());
    let plain_log = String::from_utf8_lossy(&plain.stdout).into_owned();
    assert!(!plain_log.contains("fss_rounds_total"), "{plain_log}");

    let mut with_metrics = base.to_vec();
    with_metrics.push("--metrics");
    let out = flowsched(&with_metrics);
    assert!(
        out.status.success(),
        "stream --metrics failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let log = String::from_utf8_lossy(&out.stdout);
    assert!(log.contains("fss_rounds_total{source=\"stream\"}"), "{log}");
    assert!(
        log.contains("fss_stage_ns_total{source=\"stream\",stage=\"match_repair\"}"),
        "{log}"
    );
    assert!(log.contains("fss_decision_latency_ns_count"), "{log}");
    // Telemetry observes, never steers: the statistics block is
    // line-for-line identical to the uninstrumented run (modulo the
    // machine-sensitive wall-time line).
    let stats_of = |s: &str| -> Vec<String> {
        s.lines()
            .take_while(|l| !l.is_empty())
            .filter(|l| !l.starts_with("wall time"))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(stats_of(&plain_log), stats_of(&log));
}

#[test]
fn bench_progress_telemetry_dump_round_trip() {
    let dir = std::env::temp_dir()
        .join("flowsched-cli-tests")
        .join("telemetry");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_string_lossy().into_owned();
    let out = flowsched(&[
        "bench",
        "--filter",
        "fig6",
        "--trials",
        "1",
        "--progress",
        "--out",
        &dir_s,
    ]);
    assert!(
        out.status.success(),
        "bench --progress failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The live progress line streams to stderr as cells complete.
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("[fss-bench] cells "), "{err}");

    // The artifact carries per-cell snapshots; `telemetry dump` merges
    // them back out as Prometheus text.
    let artifact = dir.join("BENCH_fig6.json");
    let out = flowsched(&["telemetry", "dump", "-i", artifact.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "telemetry dump failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let log = String::from_utf8_lossy(&out.stdout);
    assert!(log.contains("fss_rounds_total{"), "{log}");
    assert!(log.contains("stage=\"match_repair\""), "{log}");
    assert!(log.contains("fss_decision_latency_ns_bucket{"), "{log}");

    // Unknown sub-subcommands and missing telemetry are clean errors
    // with the conventional failure exit code, not panics.
    let out = flowsched(&["telemetry", "frobnicate"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown telemetry subcommand"), "{err}");
    let out = flowsched(&["telemetry", "dump", "-i", "/no/such/file.json"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("read /no/such/file.json"), "{err}");
}

#[test]
fn bench_list_prints_registry() {
    let out = flowsched(&["bench", "--list"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for id in ["fig6", "fig7", "saturation", "table_mrt", "coflow_replay"] {
        assert!(text.contains(id), "--list must mention {id}: {text}");
    }
    // Two tiers, two count columns: smoke (the default) and paper.
    let words = |prefix: &str| -> Vec<String> {
        let line = text
            .lines()
            .find(|l| l.trim_start().starts_with(prefix))
            .unwrap_or_else(|| panic!("no {prefix} row: {text}"));
        line.split_whitespace().map(str::to_string).collect()
    };
    assert_eq!(words("id "), ["id", "smoke", "paper", "description"]);
    assert_eq!(words("total "), ["total", "133", "394"]);
}

/// A `--paper` run labels its artifacts as not smoke. `table_gaps`'s
/// three cells are the same at both tiers, so the run is instant.
#[test]
fn bench_paper_run_is_labelled_paper() {
    let dir = std::env::temp_dir()
        .join("flowsched-cli-tests")
        .join("paper-label");
    let _ = std::fs::remove_dir_all(&dir);
    let out = flowsched(&[
        "bench",
        "--paper",
        "--filter",
        "table_gaps",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "bench --paper failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join("BENCH_table_gaps.json")).unwrap();
    let report = fss_sim::bench_report_from_json(&text).expect("artifact schema-valid");
    assert_eq!(report.cells.len(), 3);
    assert!(!report.smoke, "a paper-tier artifact says \"smoke\": false");
}

#[test]
fn bench_smoke_fig6_writes_schema_valid_artifact() {
    let dir = std::env::temp_dir()
        .join("flowsched-cli-tests")
        .join("bench");
    let _ = std::fs::remove_dir_all(&dir);
    let out = flowsched(&[
        "bench",
        "--filter",
        "fig6",
        "--trials",
        "1",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "bench failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Non-empty, schema-valid BENCH_fig6.json artifact.
    let artifact = dir.join("BENCH_fig6.json");
    let text = std::fs::read_to_string(&artifact).expect("artifact exists");
    assert!(!text.is_empty());
    let report = fss_sim::bench_report_from_json(&text).expect("artifact schema-valid");
    assert_eq!(report.experiment, "fig6");
    assert!(report.smoke);
    assert!(!report.cells.is_empty());
    assert!(
        report.cells.iter().any(|c| c.engine_mode == "engine"),
        "heuristic cells present"
    );
    assert!(
        report.cells.iter().any(|c| c.engine_mode == "lp"),
        "LP bound cells present"
    );

    // The JSONL stream covers the same cells.
    let stream = std::fs::read_to_string(dir.join("BENCH_cells.jsonl")).expect("stream exists");
    assert_eq!(stream.lines().count(), report.cells.len());

    // Unknown filters fail with a helpful error.
    let out = flowsched(&[
        "bench",
        "--filter",
        "psychic",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no experiment matches"));
}

#[test]
fn trace_generate_stream_and_bench_replay() {
    let dir = std::env::temp_dir()
        .join("flowsched-cli-tests")
        .join("trace");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.jsonl");

    // Freeze a Poisson workload into a trace file.
    let out = flowsched(&[
        "trace",
        "--m",
        "6",
        "--rate",
        "4",
        "--rounds",
        "10",
        "--seed",
        "3",
        "-o",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "trace failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(text.starts_with("{\"ports\":6}"), "{text}");

    // `trace gen` is the same command: equal flags, equal bytes.
    let gen = dir.join("gen.jsonl");
    let out = flowsched(&[
        "trace",
        "gen",
        "--m",
        "6",
        "--rate",
        "4",
        "--rounds",
        "10",
        "--seed",
        "3",
        "-o",
        gen.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "trace gen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(std::fs::read_to_string(&gen).unwrap(), text);

    // Replay it through `stream --scenario`.
    let spec = dir.join("spec.json");
    std::fs::write(
        &spec,
        format!(
            "{{\"ports\": 0, \"arrivals\": {{\"trace\": {{\"path\": {:?}}}}}}}",
            trace.to_str().unwrap()
        ),
    )
    .unwrap();
    let out = flowsched(&[
        "stream",
        "--scenario",
        spec.to_str().unwrap(),
        "--mode",
        "maxcard",
    ]);
    assert!(
        out.status.success(),
        "stream --scenario failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let log = String::from_utf8_lossy(&out.stdout);
    assert!(log.contains("trace replay"), "{log}");

    // Replay it through the bench registry and self-diff the artifact.
    let out = flowsched(&[
        "bench",
        "--trace",
        trace.to_str().unwrap(),
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "bench --trace failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let artifact = dir.join("BENCH_trace_replay.json");
    let report =
        fss_sim::bench_report_from_json(&std::fs::read_to_string(&artifact).unwrap()).unwrap();
    assert_eq!(report.experiment, "trace_replay");
    assert_eq!(report.cells.len(), 4);

    let out = flowsched(&[
        "bench",
        "--diff",
        artifact.to_str().unwrap(),
        artifact.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "self-diff must pass: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("PASS: 0 regression(s)"));
}

#[test]
fn bench_diff_flags_regressions_and_bad_input() {
    let dir = std::env::temp_dir()
        .join("flowsched-cli-tests")
        .join("diff");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // One-cell artifacts; `extra` appends fields (a telemetry snapshot).
    let fingerprint = fss_sim::cell_fingerprint("x/a", &[]);
    let write = |name: &str, wall: f64, flows: u64, extra: &str| {
        let path = dir.join(name);
        let report = format!(
            "{{\"schema_version\": {}, \"experiment\": \"x\", \"description\": \"d\", \
             \"smoke\": true, \"jobs\": 1, \"total_wall_s\": 1.0, \"cells\": [\
             {{\"cell_id\": \"x/a\", \"fingerprint\": \"{fingerprint}\", \"params\": [], \
             \"metrics\": [[\"m\", 1.0]], \"wall_s\": {wall}, \"flows\": {flows}, \
             \"engine_mode\": \"engine\"{extra}}}]}}",
            fss_sim::BENCH_SCHEMA_VERSION,
        );
        std::fs::write(&path, report).unwrap();
        path.to_str().unwrap().to_string()
    };
    let old = write("old.json", 0.1, 1000, "");
    let diff = |new: &str, extra: &[&str]| {
        let mut args = vec!["bench", "--diff", old.as_str(), new];
        args.extend_from_slice(extra);
        flowsched(&args)
    };

    // A flows-only change is a behaviour change: exit 1.
    let flows = write("flows.json", 0.1, 999, "");
    let out = diff(&flows, &[]);
    assert_eq!(out.status.code(), Some(1), "a flows drift must fail");
    assert!(String::from_utf8_lossy(&out.stdout).contains("REGRESSED"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("1 regression(s)"));

    // Timing never gates: 10x the wall clock, or a telemetry snapshot.
    let slow = write("slow.json", 1.0, 1000, "");
    let telemetry = write(
        "telemetry.json",
        0.1,
        1000,
        ", \"telemetry\": {\"counters\": [[\"c\", 1]], \"gauges\": [], \"stages\": [], \"histos\": []}",
    );
    for new in [&slow, &telemetry] {
        let out = diff(new, &[]);
        assert!(
            out.status.success(),
            "{new}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stdout).contains("PASS: 0 regression(s)"));
    }

    // Wrong arity and unreadable files error cleanly with exit code 1.
    let out = flowsched(&["bench", "--diff", &old]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("exactly two"));
    let out = flowsched(&["bench", "--diff", "nope.json", "also-nope.json"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("read nope.json"));

    // The diff has no knobs: the old gate's flags are unknown.
    for flag in ["--tolerance", "--tol"] {
        let out = diff(&slow, &[flag, "5"]);
        assert_eq!(out.status.code(), Some(1), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown bench --diff flag '{flag}'")),
            "{flag}: {err}"
        );
    }
}

/// A schema-valid artifact whose cells carry no telemetry snapshots
/// (the bench ran without `--progress`) dumps a clean exit-1 error
/// telling the user how to get one, not an empty exposition.
#[test]
fn telemetry_dump_without_snapshots_is_a_clean_error() {
    let fingerprint = fss_sim::cell_fingerprint("x/a", &[]);
    let report = format!(
        "{{\"schema_version\": {}, \"experiment\": \"x\", \"description\": \"d\", \
         \"smoke\": true, \"jobs\": 1, \"total_wall_s\": 1.0, \"cells\": [\
         {{\"cell_id\": \"x/a\", \"fingerprint\": \"{fingerprint}\", \"params\": [], \
         \"metrics\": [[\"m\", 1.0]], \"wall_s\": 0.5, \"flows\": 1000, \
         \"engine_mode\": \"engine\"}}]}}",
        fss_sim::BENCH_SCHEMA_VERSION,
    );
    let path = tmp("no-telemetry.json");
    std::fs::write(&path, report).unwrap();
    let out = flowsched(&["telemetry", "dump", "-i", &path]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no telemetry"), "{err}");
    assert!(err.contains("--progress"), "must point at the fix: {err}");
}

#[test]
fn stream_scenario_with_failures_requires_policy_mode() {
    let dir = std::env::temp_dir()
        .join("flowsched-cli-tests")
        .join("scenario");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("failures.json");
    std::fs::write(
        &spec,
        r#"{"ports": 8, "horizon": 40, "arrivals": {"poisson": {"rate": 5.0}},
            "failures": {"outages": [{"side": "Input", "port": 1, "from": 0, "to": 10}]},
            "seed": 2}"#,
    )
    .unwrap();

    // Default (incremental) mode cannot honor a failure plan, and a trace
    // that cannot be read fails the run too. Either refusal comes before
    // any output file is made: no spool is left.
    let missing = dir.join("missing-trace.json");
    std::fs::write(
        &missing,
        r#"{"ports": 0, "arrivals": {"trace": {"path": "/no/such/trace.jsonl"}}}"#,
    )
    .unwrap();
    let trace = dir.join("refused.json");
    let spool = dir.join("refused.json.spool.jsonl");
    for (refused, why) in [
        (&spec, "scenario has a failure plan; pick a policy mode"),
        (&missing, "/no/such/trace.jsonl"),
    ] {
        let _ = std::fs::remove_file(&spool);
        let out = flowsched(&[
            "stream",
            "--scenario",
            refused.to_str().unwrap(),
            "--flight-trace",
            trace.to_str().unwrap(),
        ]);
        assert!(!out.status.success());
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(why), "{err}");
        assert!(!spool.exists(), "a refused run left {}", spool.display());
    }

    // A policy mode runs it through the failure drive.
    let out = flowsched(&[
        "stream",
        "--scenario",
        spec.to_str().unwrap(),
        "--mode",
        "minrtime",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("failures/MinRTime"));
}

/// `flowsched serve` on stdio, fed the checked-in sample trace, emits a
/// dispatch stream bit-identical to `serve --reference` on the same
/// workload; bad serve flags are clean exit-1 errors.
#[test]
fn serve_stdio_replay_matches_reference_and_rejects_bad_flags() {
    let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/sample_trace.jsonl");
    let spec = tmp("serve-spec.json");
    std::fs::write(
        &spec,
        format!(r#"{{"ports": 0, "arrivals": {{"trace": {{"path": "{trace}"}}}}}}"#),
    )
    .unwrap();

    let reference = flowsched(&["serve", "--reference", "--scenario", &spec]);
    assert!(
        reference.status.success(),
        "{}",
        String::from_utf8_lossy(&reference.stderr)
    );
    let reference = String::from_utf8_lossy(&reference.stdout).into_owned();
    assert!(reference.contains("\"kind\":\"Dispatch\""), "{reference}");

    // The live session fed the same trace over stdin must produce the
    // exact same dispatch stream (parity by construction).
    let trace_bytes = std::fs::read(trace).unwrap();
    let out = flowsched_with_stdin(&["serve", "--scenario", &spec], &trace_bytes);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let served: String = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.contains("\"kind\":\"Dispatch\""))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(served, reference, "live serve must match the reference");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("0 dropped"), "pause mode is lossless: {err}");

    // Bad serve flags fail fast with the conventional exit code.
    let out = flowsched_with_stdin(&["serve", "--admission", "yolo"], b"");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown admission mode"));
    let out = flowsched_with_stdin(&["serve", "--queue-cap", "0"], b"");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--queue-cap must be at least 1"));
}

/// The `trace` sub-subcommands chain: gen → stats, convert → morph →
/// stats, with the declared switch size tracking the morphs (a
/// transform may repeat: 32 folds to 16, then to 8).
#[test]
fn trace_tools_gen_convert_morph_stats_pipeline() {
    let gen = tmp("tools-gen.jsonl");
    let out = flowsched(&[
        "trace", "gen", "--m", "6", "--rate", "4", "--rounds", "30", "--seed", "11", "-o", &gen,
    ]);
    assert!(
        out.status.success(),
        "trace gen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("6x6 switch"));

    let out = flowsched(&["trace", "stats", &gen]);
    assert!(
        out.status.success(),
        "trace stats failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("switch           : 6x6"), "{text}");
    assert!(text.contains("round burst"), "{text}");
    assert!(text.contains("busiest src"), "{text}");

    let csv = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/sample_coflow.csv");
    let converted = tmp("tools-conv.jsonl");
    let out = flowsched(&["trace", "convert", csv, "--ports", "32", "-o", &converted]);
    assert!(
        out.status.success(),
        "trace convert failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("32x32 switch"));

    let morphed = tmp("tools-morph.jsonl");
    let out = flowsched(&[
        "trace",
        "morph",
        &converted,
        "--fold",
        "16",
        "--skew",
        "zipf:1.2:9",
        "--fold",
        "8",
        "--truncate",
        "100",
        "-o",
        &morphed,
    ]);
    assert!(
        out.status.success(),
        "trace morph failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = flowsched(&["trace", "stats", &morphed]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("switch           : 8x8"), "{text}");
    assert!(text.contains("flows            : 100"), "{text}");
}

/// `trace split` shards a trace round-robin by port: the sub-traces
/// are valid traces on the same switch, their flow counts sum to the
/// input's, and each holds only its shard's source ports.
#[test]
fn trace_split_shards_round_robin_by_port() {
    let input = tmp("split-in.jsonl");
    let out = flowsched(&[
        "trace", "gen", "--m", "6", "--rate", "5", "--rounds", "40", "--seed", "3", "-o", &input,
    ]);
    assert!(out.status.success());

    let prefix = tmp("split-out");
    let out = flowsched(&["trace", "split", &input, "--shards", "3", "-o", &prefix]);
    assert!(
        out.status.success(),
        "trace split failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("into 3 shards"), "{err}");

    let input_flows: u64 = {
        let stats = flowsched(&["trace", "stats", &input]);
        assert!(stats.status.success());
        flows_of(&String::from_utf8_lossy(&stats.stdout))
    };
    let mut total = 0u64;
    for k in 0..3usize {
        let shard = format!("{prefix}.{k}.jsonl");
        // Every sub-trace must load cleanly and keep the 6x6 switch.
        let stats = flowsched(&["trace", "stats", &shard]);
        assert!(
            stats.status.success(),
            "shard {k} invalid: {}",
            String::from_utf8_lossy(&stats.stderr)
        );
        let text = String::from_utf8_lossy(&stats.stdout).into_owned();
        assert!(text.contains("switch           : 6x6"), "{text}");
        total += flows_of(&text);
        // Round-robin by port: shard k holds only src ports ≡ k (mod 3).
        for line in std::fs::read_to_string(&shard).unwrap().lines().skip(1) {
            let src: u64 = line
                .split("\"src\":")
                .nth(1)
                .and_then(|t| t.split(',').next())
                .and_then(|t| t.trim().parse().ok())
                .unwrap_or_else(|| panic!("unparsable arrival line: {line}"));
            assert_eq!(src as usize % 3, k, "arrival on the wrong shard: {line}");
        }
    }
    assert_eq!(total, input_flows, "split must be a partition");

    // Zero shards is a usage error naming the flag, not a parse error
    // blamed on the (valid) input trace.
    let out = flowsched(&["trace", "split", &input, "--shards", "0", "-o", &prefix]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("--shards must be at least 1"), "{err}");
    assert!(
        !err.contains(&input) && !err.contains("parse error"),
        "{err}"
    );
}

/// A two-line trace whose header asks for 36 TB of engine state.
fn hostile_ports_trace(name: &str) -> String {
    let path = tmp(name);
    std::fs::write(
        &path,
        "{\"ports\":3000000}\n{\"release\":0,\"src\":1,\"dst\":2}\n",
    )
    .unwrap();
    path
}

/// The run must fail with a one-line error naming the line and the
/// limit — an exit code, not an allocation abort (SIGABRT has no code)
/// and not a panic.
fn assert_rejects_hostile_ports(out: &std::process::Output) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    let first = err.lines().next().unwrap_or_default();
    assert!(
        first.contains("line 1")
            && first.contains("3000000 ports")
            && first.contains("limit is 2048"),
        "{err}"
    );
    assert!(
        !err.contains("panicked") && !err.contains("allocation"),
        "{err}"
    );
}

#[test]
fn hostile_ports_header_fails_bench_trace_stream_cleanly() {
    let trace = hostile_ports_trace("hostile-bench.jsonl");
    let out = flowsched(&["bench", "--trace", &trace]);
    assert_rejects_hostile_ports(&out);
}

#[test]
fn hostile_ports_header_fails_stream_scenario_cleanly() {
    let trace = hostile_ports_trace("hostile-stream.jsonl");
    let spec = tmp("hostile-spec.json");
    std::fs::write(
        &spec,
        format!("{{\"ports\": 0, \"arrivals\": {{\"trace\": {{\"path\": \"{trace}\"}}}}}}"),
    )
    .unwrap();
    let out = flowsched(&["stream", "--scenario", &spec]);
    assert_rejects_hostile_ports(&out);
}

/// A release of `u64::MAX` would wrap the round clock (`makespan : 1`
/// for two such flows); the run must stop at line 2 naming the bound.
#[test]
fn a_release_past_the_bound_fails_stream_scenario_cleanly() {
    let late = format!("{{\"release\":{},\"src\":0,\"dst\":1}}\n", u64::MAX);
    let trace = tmp("late-release.jsonl");
    std::fs::write(&trace, format!("{{\"ports\":2}}\n{late}{late}")).unwrap();
    let spec = tmp("late-release-spec.json");
    std::fs::write(
        &spec,
        format!("{{\"ports\": 0, \"arrivals\": {{\"trace\": {{\"path\": \"{trace}\"}}}}}}"),
    )
    .unwrap();
    let out = flowsched(&["stream", "--scenario", &spec]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    let first = err.lines().next().unwrap_or_default();
    assert!(
        first.contains("line 2") && first.contains(&fss_sim::MAX_RELEASE.to_string()),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
}

/// A release far past the last one (but below `MAX_RELEASE`) after the
/// switch went idle: MinRTime's clock jumps across the idle stretch, and
/// both `serve` and `stream --scenario` dispatch every flow instead of
/// panicking on the aging offset.
#[test]
fn minrtime_survives_a_far_release_after_an_idle_stretch() {
    let far = 1u64 << 62;
    let arrivals = format!(
        "{{\"release\":0,\"src\":0,\"dst\":1}}\n\
         {{\"release\":0,\"src\":0,\"dst\":1}}\n\
         {{\"release\":{far},\"src\":1,\"dst\":2}}\n"
    );
    let out = flowsched_with_stdin(
        &["serve", "--ports", "4", "--policy", "minrtime"],
        arrivals.as_bytes(),
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "serve: {err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!("\"round\":{far}")) && stdout.contains("\"dispatched\":3"),
        "serve: {stdout}"
    );

    let trace = tmp("far-release.jsonl");
    std::fs::write(&trace, format!("{{\"ports\":4}}\n{arrivals}")).unwrap();
    let spec = tmp("far-release-spec.json");
    std::fs::write(
        &spec,
        format!("{{\"ports\": 0, \"arrivals\": {{\"trace\": {{\"path\": \"{trace}\"}}}}}}"),
    )
    .unwrap();
    let out = flowsched(&["stream", "--scenario", &spec, "--mode", "minrtime"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stream: {err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("flows            : 3"), "stream: {stdout}");
    assert!(
        stdout.contains(&format!("makespan         : {}", far + 1)),
        "stream: {stdout}"
    );
}

/// `serve --ports` past the bound a header, `stream --m` and a scenario
/// are held to: the session ends with an `Error` line naming the limit,
/// not a panicked engine thread.
#[test]
fn serve_rejects_a_port_count_past_the_bound() {
    let arrival = b"{\"release\":0,\"src\":0,\"dst\":1}\n";
    for policy in ["maxcard", "minrtime"] {
        let out = flowsched_with_stdin(
            &["serve", "--ports", "3000000", "--policy", policy],
            arrival,
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{policy}: {err}");
        assert!(!err.contains("panicked"), "{policy}: {err}");
        let last = String::from_utf8_lossy(&out.stdout)
            .lines()
            .last()
            .unwrap_or_default()
            .to_string();
        assert!(
            last.contains("\"Error\"") && last.contains("3000000 ports; the limit is 2048"),
            "{policy}: {last}"
        );
    }
}

/// A finite Poisson rate the chunked sampler would never get through
/// (`rate / 30` draws before the first arrival of the first round) is a
/// one-line spec error naming the limit, not a process to be killed.
fn assert_rejects_hostile_rate(out: &std::process::Output) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    let first = err.lines().next().unwrap_or_default();
    assert!(
        first.contains("poisson rate 1000000000000000000") && first.contains("limit is 1000000"),
        "{err}"
    );
}

#[test]
fn hostile_poisson_rate_flag_fails_stream_cleanly() {
    let out = flowsched(&["stream", "--m", "4", "--rate", "1e18", "--rounds", "1"]);
    assert_rejects_hostile_rate(&out);
}

#[test]
fn hostile_poisson_rate_in_a_spec_file_fails_stream_and_trace_cleanly() {
    let spec = tmp("hostile-rate-spec.json");
    std::fs::write(
        &spec,
        r#"{"ports": 4, "horizon": 1, "arrivals": {"poisson": {"rate": 1e18}}}"#,
    )
    .unwrap();
    assert_rejects_hostile_rate(&flowsched(&["stream", "--scenario", &spec]));
    let out = tmp("hostile-rate-trace.jsonl");
    assert_rejects_hostile_rate(&flowsched(&["trace", "--scenario", &spec, "-o", &out]));
}

/// Pull the `flows` count out of a `trace stats` dump.
fn flows_of(stats_text: &str) -> u64 {
    stats_text
        .lines()
        .find_map(|l| l.strip_prefix("flows            : "))
        .and_then(|v| v.trim().parse().ok())
        .expect("stats output has a flows line")
}

/// `trace stats` (and friends) fail loudly: nonzero exit and a
/// diagnostic on stderr citing the path or the offending line.
#[test]
fn trace_tools_fail_cleanly() {
    // Missing file: exit code + path in the message.
    let out = flowsched(&["trace", "stats", "/no/such/trace.jsonl"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("/no/such/trace.jsonl"));

    // Malformed trace: the 1-based line is cited.
    let bad = tmp("tools-bad.jsonl");
    std::fs::write(&bad, "{\"ports\":2}\n{\"release\":0,\"src\":9,\"dst\":0}\n").unwrap();
    let out = flowsched(&["trace", "stats", &bad]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("line 2") && err.contains("out of range"),
        "{err}"
    );

    // Extra positional argument.
    let out = flowsched(&["trace", "stats", &bad, "extra"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("exactly one trace path"));

    // Morph without transforms.
    let out = flowsched(&["trace", "morph", &bad, "-o", &tmp("tools-noop.jsonl")]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("at least one transform"));

    // Bad skew syntax.
    let out = flowsched(&[
        "trace",
        "morph",
        &bad,
        "--skew",
        "pareto:2",
        "-o",
        &tmp("tools-noop.jsonl"),
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("zipf:THETA"));

    // `serve --replay` reads the header before it connects: a file that
    // is not a trace fails on its own first line, not on the address.
    let not_a_trace = tmp("tools-not-a-trace.jsonl");
    std::fs::write(&not_a_trace, "{\"kind\":\"Finish\"}\n").unwrap();
    let out = flowsched(&[
        "serve",
        "--replay",
        &not_a_trace,
        "--connect",
        "127.0.0.1:1",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 1: bad header"), "{err}");
}

/// The deterministic result lines of a `stream` run (everything the
/// engine computes, nothing wall-clock dependent).
fn stream_results(stdout: &str) -> String {
    stdout
        .lines()
        .filter(|l| {
            [
                "flows ",
                "active rounds",
                "makespan",
                "mean response",
                "max response",
                "peak queue",
            ]
            .iter()
            .any(|p| l.starts_with(p))
        })
        .map(|l| format!("{l}\n"))
        .collect()
}

/// `stream --flight-trace`: tracing is pure observation (the traced run
/// reproduces the untraced results exactly), and the exported Chrome
/// trace carries round-tagged spans for all four round-loop stages. The
/// `flight` subcommands round-trip the artifacts.
#[test]
fn stream_flight_trace_covers_all_stages_without_steering() {
    let trace = tmp("flight-stream.json");
    let spool = format!("{trace}.spool.jsonl");
    let args = [
        "stream", "--m", "24", "--rate", "30", "--rounds", "120", "--seed", "11", "--mode",
        "maxcard",
    ];
    let base = flowsched(&args);
    assert!(
        base.status.success(),
        "{}",
        String::from_utf8_lossy(&base.stderr)
    );

    let mut traced_args: Vec<&str> = args.to_vec();
    traced_args.extend(["--flight-trace", &trace]);
    let traced = flowsched(&traced_args);
    assert!(
        traced.status.success(),
        "{}",
        String::from_utf8_lossy(&traced.stderr)
    );

    // Bit-identical results: tracing observes, never steers.
    let base_out = String::from_utf8_lossy(&base.stdout);
    let traced_out = String::from_utf8_lossy(&traced.stdout);
    assert_eq!(
        stream_results(&base_out),
        stream_results(&traced_out),
        "flight tracing changed the stream results"
    );
    assert!(traced_out.contains("flight trace     : "), "{traced_out}");

    // The exported trace is structurally valid Chrome JSON with all
    // four stages and round tags.
    let json = std::fs::read_to_string(&trace).unwrap();
    let check = flow_switch::flight::check_chrome(&json).expect("trace validates");
    for stage in ["ingest", "queue_update", "match_repair", "dispatch"] {
        assert!(
            check.names.get(stage).copied().unwrap_or(0) > 0,
            "no {stage} spans in {:?}",
            check.names
        );
    }
    assert!(check.round_tagged > 0, "no round-tagged spans");

    // `flight check` agrees, `flight stats` reads the spool, and
    // `flight export` regenerates an equally valid trace from it.
    let out = flowsched(&["flight", "check", &trace]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));

    let out = flowsched(&["flight", "stats", &spool, "--top", "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stats = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stats.contains("match_repair"), "{stats}");
    assert!(stats.contains("0 watchdog dump(s)"), "{stats}");

    let reexport = tmp("flight-stream-reexport.json");
    let out = flowsched(&["flight", "export", &spool, "-o", &reexport]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json2 = std::fs::read_to_string(&reexport).unwrap();
    let check2 = flow_switch::flight::check_chrome(&json2).expect("re-export validates");
    assert_eq!(check2.spans, check.spans, "export lost spans");
}

/// `FSS_FLIGHT_FAIL_STALL=<round>:<millis>` freezes the driver at that
/// round; with a small `--stall-budget-ms` the watchdog must fire,
/// dump a post-mortem into the spool, and `flight stats` must read it
/// back — the crashed-process debugging path, end to end.
#[test]
fn flight_watchdog_detects_injected_stall() {
    let trace = tmp("flight-stall.json");
    let spool = format!("{trace}.spool.jsonl");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_flowsched"))
        .args([
            "stream",
            "--m",
            "12",
            "--rate",
            "15",
            "--rounds",
            "150",
            "--seed",
            "5",
            "--mode",
            "minrtime",
            "--flight-trace",
            &trace,
            "--stall-budget-ms",
            "60",
        ])
        .env("FSS_FLIGHT_FAIL_STALL", "40:300")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("watchdog: round counter stalled"), "{err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 stall(s)"), "{stdout}");

    let out = flowsched(&["flight", "stats", &spool]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stats = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stats.contains("1 watchdog dump(s)"), "{stats}");

    // The injection env is rejected loudly when malformed.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_flowsched"))
        .args([
            "stream",
            "--m",
            "4",
            "--rounds",
            "5",
            "--flight-trace",
            &tmp("flight-bad.json"),
        ])
        .env("FSS_FLIGHT_FAIL_STALL", "garbage")
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("FSS_FLIGHT_FAIL_STALL"));
}

/// `serve --flight-trace`: the live session spools spans and the CLI
/// exports the Chrome trace after the session ends — with the dispatch
/// stream byte-identical to an untraced session fed the same trace.
#[test]
fn serve_flight_trace_exports_after_session() {
    let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/sample_trace.jsonl");
    let spec = tmp("serve-flight-spec.json");
    std::fs::write(
        &spec,
        format!(r#"{{"ports": 0, "arrivals": {{"trace": {{"path": "{trace}"}}}}}}"#),
    )
    .unwrap();
    let trace_bytes = std::fs::read(trace).unwrap();

    let untraced = flowsched_with_stdin(&["serve", "--scenario", &spec], &trace_bytes);
    assert!(
        untraced.status.success(),
        "{}",
        String::from_utf8_lossy(&untraced.stderr)
    );

    let flight = tmp("serve-flight.json");
    let traced = flowsched_with_stdin(
        &["serve", "--scenario", &spec, "--flight-trace", &flight],
        &trace_bytes,
    );
    assert!(
        traced.status.success(),
        "{}",
        String::from_utf8_lossy(&traced.stderr)
    );

    let dispatches = |out: &[u8]| -> String {
        String::from_utf8_lossy(out)
            .lines()
            .filter(|l| l.contains("\"kind\":\"Dispatch\""))
            .map(|l| format!("{l}\n"))
            .collect()
    };
    assert_eq!(
        dispatches(&traced.stdout),
        dispatches(&untraced.stdout),
        "flight tracing changed the live dispatch stream"
    );

    let json = std::fs::read_to_string(&flight).unwrap();
    let check = flow_switch::flight::check_chrome(&json).expect("serve trace validates");
    assert!(check.spans > 0, "empty serve trace");
    assert!(
        check.names.contains_key("session"),
        "no session span: {:?}",
        check.names
    );
    assert!(
        String::from_utf8_lossy(&traced.stderr).contains("flight trace"),
        "no export note"
    );

    // --stall-budget-ms is a flight knob; alone it is an error, under
    // `stream` as under `serve`.
    for cmd in ["serve", "stream"] {
        let out = flowsched_with_stdin(&[cmd, "--stall-budget-ms", "50"], b"");
        assert_eq!(out.status.code(), Some(1), "{cmd}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("requires --flight-trace"));
    }
}

/// The `flight` subcommands fail loudly on bad input: missing
/// subcommand, unknown subcommand, missing file operand, a spool path
/// that does not exist, and a non-JSON "trace".
#[test]
fn flight_subcommands_fail_cleanly() {
    let out = flowsched(&["flight"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing flight subcommand"));

    let out = flowsched(&["flight", "frobnicate", "x.jsonl"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flight subcommand"));

    let out = flowsched(&["flight", "stats"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs a file argument"));

    let out = flowsched(&["flight", "stats", "/no/such/spool.jsonl"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("/no/such/spool.jsonl"));

    let bad = tmp("flight-not-json.json");
    std::fs::write(&bad, "this is not a trace\n").unwrap();
    let out = flowsched(&["flight", "check", &bad]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("not JSON"));
}
