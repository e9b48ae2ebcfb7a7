//! Trace replay holds O(1) memory in the trace length, end to end.
//!
//! Two sizes of the same claim. The everyday one replays a ~10 MB trace
//! through a plain `ScenarioSpec::trace(..)` and asserts the process's
//! peak RSS grew by less than half the file. The giant one — a ≥10⁷-flow
//! trace generated straight to disk, replayed through `bench --trace`,
//! peak RSS asserted far below the on-disk size — is ignored by default
//! (it writes ~500 MB and replays ~40M flow dispatches); run it in
//! release mode, on its own so the two high-water marks do not mix:
//!
//! ```sh
//! cargo test --release --test giant_trace -- --ignored
//! ```

/// Peak resident set (VmHWM) of this process in bytes, from
/// `/proc/self/status`. `None` off Linux — the replay still runs, only
/// the memory ceiling goes unasserted.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[test]
fn scenario_replay_memory_does_not_grow_with_the_trace() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("giant-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("everyday.jsonl");

    // Poisson(12) on a 16x16 switch for 25k rounds ≈ 300k flows, ≈ 10 MB.
    let summary =
        fss_trace::write_poisson_trace(&trace, 16, 12.0, 25_000, 4242).expect("trace generates");
    assert!(summary.flows >= 290_000, "got {} flows", summary.flows);
    let file_bytes = std::fs::metadata(&trace).unwrap().len();

    // Whatever the process peaked at so far (the generator's buffers,
    // the test harness) is not the replay's doing.
    let before = peak_rss_bytes();
    let stats = fss_sim::ScenarioSpec::trace(trace.to_string_lossy())
        .run(fss_sim::PolicyKind::FifoGreedy)
        .expect("trace replays");
    assert_eq!(stats.dispatched, summary.flows);

    // A loader that read the file into a string, or kept one 24-byte
    // `Arrival` per line, grows the peak by about the file size.
    if let (Some(before), Some(after)) = (before, peak_rss_bytes()) {
        let grew = after - before;
        assert!(
            grew < file_bytes / 2,
            "replay grew peak RSS by {} KiB; the trace is {} KiB on disk",
            grew >> 10,
            file_bytes >> 10
        );
    }

    std::fs::remove_file(&trace).ok();
}

#[test]
#[ignore = "paper-scale: ~500 MB trace file and minutes of replay; run with --ignored in release"]
fn ten_million_flow_trace_replays_at_constant_memory() {
    // CARGO_TARGET_TMPDIR lives under target/ — real disk, never a
    // RAM-backed /tmp, so the trace file cannot hide in page cache
    // accounting as anonymous memory.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("giant-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("giant.jsonl");

    // Poisson(48) on a 64x64 switch for 220k rounds ≈ 10.6M flows,
    // streamed to disk without ever materializing the workload.
    let summary =
        fss_trace::write_poisson_trace(&trace, 64, 48.0, 220_000, 4242).expect("trace generates");
    assert!(
        summary.flows >= 10_000_000,
        "trace must reach paper scale, got {} flows",
        summary.flows
    );
    let file_bytes = std::fs::metadata(&trace).unwrap().len();
    assert!(
        file_bytes > 300 << 20,
        "a 10M-line trace should dwarf any sane memory ceiling, got {file_bytes} bytes"
    );

    // Replay through the real bench path (`bench --trace FILE`): all
    // four policies over the full trace.
    let reports = fss_bench::run_bench(&fss_bench::BenchOptions {
        trace: Some(trace.clone()),
        out_dir: dir.clone(),
        ..fss_bench::BenchOptions::default()
    })
    .expect("bench replay succeeds")
    .reports;
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].experiment, "trace_replay");
    assert_eq!(reports[0].cells.len(), 4, "one cell per §5 policy");
    for cell in &reports[0].cells {
        assert_eq!(
            cell.flows, summary.flows,
            "{}: every arrival must be dispatched",
            cell.cell_id
        );
    }

    // The O(1)-memory claim: peak RSS stays far below the trace size.
    // The ceiling is generous (engine state, bench bookkeeping, and the
    // allocator's high-water mark all count), but a loader that slurped
    // the 500 MB file — let alone materialized 10M arrivals — blows it.
    if let Some(peak) = peak_rss_bytes() {
        let ceiling = 256 << 20;
        assert!(
            peak < ceiling,
            "peak RSS {} MiB exceeds the {} MiB ceiling (trace is {} MiB on disk)",
            peak >> 20,
            ceiling >> 20,
            file_bytes >> 20
        );
    }

    std::fs::remove_file(&trace).ok();
}
