//! Per-layer attribution from outside: each layer's public functions
//! called in a loop on the workloads' own inputs, one `layer.<metric>`
//! span each. The suite needs several workloads' inputs at once and its
//! cost does not depend on `--seconds`, so it runs once, in the ledger's
//! traced pass; the README says which end-to-end number each should move.
//!
//! Inputs: the heavy and light arrival lists with their incremental
//! dispatch logs, the light list's trace file, the heavy MaxCard dispatch
//! log (for waiting-graph snapshots), and the serve workload's lines.

use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crate::report::Metric;
use crate::socket;
use crate::spans::Spans;
use crate::stats::{percentile, summarize, Summary};
use crate::surface::{
    max_cardinality_matching_into, parse_ingest, parse_trace_event, scan, serve_reader,
    BipartiteGraph, EngineTelemetry, FlowSource, HungarianScratch, ServeMetrics, ServeMsg,
    ShardedQueues, Sink, StreamingTraceSource, TelemetrySnapshot,
};
use crate::workloads::{run_engine, write_trace, Feed, Prepared};

/// The workloads whose prepared inputs the suite reads.
const INPUTS: [&str; 4] = [
    "poisson-heavy-incremental",
    "trace-replay",
    "poisson-heavy-maxcard",
    "serve-socket",
];

/// Repetitions of each microbenchmark.
const REPS: usize = 3;
const HK_SNAPSHOTS: u64 = 32;
const HUNGARIAN_SNAPSHOTS: u64 = 8;

/// Call each of `fs` [`REPS`] times, interleaved so host drift hits them
/// alike, under one `layer.<name>` span; each returns the seconds it
/// measured.
fn timed_each<const N: usize>(
    spans: &mut Spans,
    name: &str,
    mut fs: [&mut dyn FnMut() -> Result<f64, String>; N],
) -> Result<[Summary; N], String> {
    let s = spans.begin(&format!("layer.{name}"));
    let mut secs = [(); N].map(|()| Vec::with_capacity(REPS));
    for _ in 0..REPS {
        for (f, v) in fs.iter_mut().zip(&mut secs) {
            v.push(f()?);
        }
    }
    spans.end(s);
    Ok(secs.map(summarize))
}

fn timed(
    spans: &mut Spans,
    name: &str,
    mut f: impl FnMut() -> Result<f64, String>,
) -> Result<Summary, String> {
    timed_each(spans, name, [&mut f]).map(|[s]| s)
}

fn per(name: &'static str, unit: &'static str, s: &Summary, scale: f64) -> Metric {
    Metric::of(name, unit, s, s.q1, |secs| secs * scale)
}

/// Replay an arrival list and its dispatch log through the queues alone.
fn queue_replay(p: &Prepared) -> f64 {
    let cells: Vec<(u32, u32)> = p
        .reference
        .iter()
        .map(|d| {
            let a = &p.arrivals[d.id as usize];
            (a.src, a.dst)
        })
        .collect();
    let mut queues = ShardedQueues::new(p.spec.m, p.spec.m);
    let mut next = p.arrivals.iter().peekable();
    let t = Instant::now();
    for (d, &(src, dst)) in p.reference.iter().zip(&cells) {
        while let Some(a) = next.next_if(|a| a.release <= d.round) {
            queues.push(a.src, a.dst, a.id, a.release);
        }
        black_box(queues.pop_oldest(src, dst));
    }
    t.elapsed().as_secs_f64()
}

/// Oldest waiting release per cell at the start of round `t`, from a
/// dispatch log (`u64::MAX` = empty cell).
fn waiting_heads(p: &Prepared, sent_in: &[u64], t: u64) -> Vec<u64> {
    let m = p.spec.m;
    let mut heads = vec![u64::MAX; m * m];
    for a in p.arrivals.iter().take_while(|a| a.release <= t) {
        if sent_in[a.id as usize] >= t {
            let cell = a.src as usize * m + a.dst as usize;
            heads[cell] = heads[cell].min(a.release);
        }
    }
    heads
}

/// `count` rounds spread evenly over the run of `p`.
fn snapshot_rounds(p: &Prepared, count: u64) -> impl Iterator<Item = u64> {
    let makespan = p.ref_stats.makespan;
    (1..=count).map(move |i| i * makespan / (count + 1))
}

/// The run of one engine feed, seconds (Q1 basis: wall of the call).
fn engine_wall(p: &Prepared, feed: Feed, cores: usize) -> Result<f64, String> {
    let rep = run_engine(p, feed, cores, &mut EngineTelemetry::disabled(), None)?;
    if rep.stats != p.ref_stats || rep.trace_error.is_some() {
        return Err(format!(
            "{}: layer run diverged from the reference",
            p.spec.name
        ));
    }
    Ok(rep.wall_s)
}

/// Run the whole suite over the ledger's prepared workloads.
pub fn run_suite(
    prepared: &[Prepared],
    out_dir: &Path,
    spans: &mut Spans,
) -> Result<Vec<Metric>, String> {
    let [heavy, light, maxcard, serve] = INPUTS.map(|name| {
        prepared
            .iter()
            .find(|p| p.spec.name == name)
            .expect("the ledger prepares every workload")
    });
    let mut out = Vec::new();

    // --- trace: parse, drain, scan, write ---------------------------------
    let path = light.trace.as_ref().ok_or("trace-replay has no file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read trace: {e}"))?;
    let lines: Vec<&str> = text.lines().collect();
    let flows = light.arrivals.len() as f64;
    let s = timed(spans, "trace.parse_ns_per_line", || {
        let t = Instant::now();
        for line in &lines {
            black_box(parse_trace_event(line).map_err(|e| e.to_string())?);
        }
        Ok(t.elapsed().as_secs_f64())
    })?;
    out.push(per(
        "trace.parse_ns_per_line",
        "ns",
        &s,
        1e9 / lines.len() as f64,
    ));

    let s = timed(spans, "trace.source_drain_ns_per_flow", || {
        let t = Instant::now();
        let mut source = StreamingTraceSource::open(path).map_err(|e| e.to_string())?;
        let mut n = 0u64;
        while let Some(a) = source.next_arrival() {
            black_box(a);
            n += 1;
        }
        if n != light.arrivals.len() as u64 {
            return Err(format!("trace drain saw {n} flows"));
        }
        Ok(t.elapsed().as_secs_f64())
    })?;
    out.push(per("trace.source_drain_ns_per_flow", "ns", &s, 1e9 / flows));

    let s = timed(spans, "trace.scan_flows_per_s", || {
        let t = Instant::now();
        black_box(scan(path).map_err(|e| e.to_string())?);
        Ok(t.elapsed().as_secs_f64())
    })?;
    out.push(Metric::of(
        "trace.scan_flows_per_s",
        "1/s",
        &s,
        s.q1,
        |secs| flows / secs,
    ));

    let copy = out_dir.join(format!("layer-write-{}.jsonl", std::process::id()));
    let mut bytes = 0;
    let s = timed(spans, "trace.write_ns_per_flow", || {
        let t = Instant::now();
        bytes = write_trace(&copy, light.spec.m, &light.arrivals)?;
        Ok(t.elapsed().as_secs_f64())
    });
    let _ = std::fs::remove_file(&copy);
    out.push(per("trace.write_ns_per_flow", "ns", &s?, 1e9 / flows));
    out.push(Metric::exact(
        "trace.bytes_per_flow",
        "B",
        bytes as f64 / flows,
    ));

    // --- engine fed from memory, from the file, and with ingest on its own
    // thread: the same arrivals, the same schedule, three feeds -------------
    let [from_memory, from_file, pipelined] = timed_each(
        spans,
        "trace.replay_overhead_share",
        [
            &mut || engine_wall(light, Feed::Memory, 1),
            &mut || engine_wall(light, Feed::TraceFile, 1),
            &mut || engine_wall(light, Feed::TraceFile, 2),
        ],
    )?;
    out.push(Metric::exact(
        "trace.replay_overhead_share",
        "ratio",
        1.0 - from_memory.q1 / from_file.q1,
    ));
    out.push(Metric::exact(
        "pipeline.speedup_cores2",
        "ratio",
        from_file.q1 / pipelined.q1,
    ));
    let [heavy_seq, heavy_two] = timed_each(
        spans,
        "pipeline.heavy_incremental_cores2_ratio",
        [&mut || engine_wall(heavy, Feed::Memory, 1), &mut || {
            engine_wall(heavy, Feed::Memory, 2)
        }],
    )?;
    out.push(Metric::exact(
        "pipeline.heavy_incremental_cores2_ratio",
        "ratio",
        heavy_seq.q1 / heavy_two.q1,
    ));

    // --- queues alone -----------------------------------------------------
    for (name, p) in [
        ("queue.push_pop_ns_deep", heavy),
        ("queue.push_pop_ns_shallow", light),
    ] {
        let s = timed(spans, name, || Ok(queue_replay(p)))?;
        out.push(per(name, "ns", &s, 1e9 / p.arrivals.len() as f64));
    }

    // --- matching kernels on snapshots of a real run ------------------------
    let m = maxcard.spec.m;
    let mut sent_in = vec![0u64; maxcard.arrivals.len()];
    for d in &maxcard.reference {
        sent_in[d.id as usize] = d.round;
    }
    let graphs: Vec<BipartiteGraph> = snapshot_rounds(maxcard, HK_SNAPSHOTS)
        .map(|t| {
            let mut g = BipartiteGraph::new(m, m);
            for (cell, &head) in waiting_heads(maxcard, &sent_in, t).iter().enumerate() {
                if head != u64::MAX {
                    g.add_edge((cell / m) as u32, (cell % m) as u32);
                }
            }
            g
        })
        .collect();
    let mut matching = Vec::new();
    let s = timed(spans, "hk.snapshot_us", || {
        let t = Instant::now();
        for g in &graphs {
            max_cardinality_matching_into(g, &mut matching);
            black_box(matching.len());
        }
        Ok(t.elapsed().as_secs_f64())
    })?;
    out.push(per("hk.snapshot_us", "us", &s, 1e6 / graphs.len() as f64));

    // MinRTime's weights: age * (m + 1) + 1 on each cell's oldest flow.
    let weights: Vec<(u64, Vec<u64>)> = snapshot_rounds(maxcard, HUNGARIAN_SNAPSHOTS)
        .map(|t| (t, waiting_heads(maxcard, &sent_in, t)))
        .collect();
    let s = timed(spans, "hungarian.snapshot_us", || {
        let mut secs = 0.0;
        for (t, heads) in &weights {
            let mut h = HungarianScratch::new(m, m);
            for (cell, &head) in heads.iter().enumerate() {
                if head != u64::MAX {
                    let w = (t - head) as i64 * (m as i64 + 1) + 1;
                    h.set_weight((cell / m) as u32, (cell % m) as u32, w);
                }
            }
            let start = Instant::now();
            h.solve();
            secs += start.elapsed().as_secs_f64();
            black_box(h.total_weight());
        }
        Ok(secs)
    })?;
    out.push(per(
        "hungarian.snapshot_us",
        "us",
        &s,
        1e6 / weights.len() as f64,
    ));

    // --- serve: codec, in-memory session, socket session ------------------
    let input = serve
        .socket
        .as_ref()
        .ok_or("serve-socket has no wire input")?;
    let request = std::str::from_utf8(&input.blast.request).map_err(|e| e.to_string())?;
    let request_lines: Vec<&str> = request.lines().collect();
    let s = timed(spans, "serve.parse_ingest_ns_per_line", || {
        let t = Instant::now();
        for line in &request_lines {
            black_box(parse_ingest(line)?);
        }
        Ok(t.elapsed().as_secs_f64())
    })?;
    out.push(per(
        "serve.parse_ingest_ns_per_line",
        "ns",
        &s,
        1e9 / request_lines.len() as f64,
    ));
    let s = timed(spans, "serve.to_line_ns", || {
        let t = Instant::now();
        for d in &serve.reference {
            black_box(ServeMsg::dispatch(d.id, d.release, d.round).to_line());
        }
        Ok(t.elapsed().as_secs_f64())
    })?;
    let serve_flows = serve.reference.len() as f64;
    out.push(per("serve.to_line_ns", "ns", &s, 1e9 / serve_flows));

    let in_memory = timed(spans, "serve.inmem_flows_per_s", || {
        Ok(serve_in_memory(serve)?.0)
    })?;
    out.push(Metric::of(
        "serve.inmem_flows_per_s",
        "1/s",
        &in_memory,
        in_memory.q1,
        |secs| serve_flows / secs,
    ));

    let s = spans.begin("layer.serve.transport_share");
    let reps: Result<Vec<socket::SocketRep>, String> =
        (0..REPS).map(|_| socket::run(input, spans)).collect();
    spans.end(s);
    let reps = reps?;
    if let Some(bad) = reps.iter().find(|r| r.verdict.failed > 0) {
        return Err(format!(
            "serve layer run failed: {:?}",
            bad.verdict.problems
        ));
    }
    let blast = summarize(reps.iter().map(|r| r.blast_wall_s));
    let boot = summarize(reps.iter().map(|r| r.boot_s));
    let mut late: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.late_us.iter().copied())
        .collect();
    out.push(Metric::exact(
        "serve.transport_share",
        "ratio",
        1.0 - in_memory.q1 / blast.q1,
    ));
    out.push(Metric::exact(
        "serve.bytes_out_per_flow",
        "B",
        reps[0].bytes_out as f64 / serve_flows,
    ));
    out.push(Metric::exact(
        "serve.pauses",
        "count",
        reps[0].pauses as f64,
    ));
    out.push(per("serve.boot_ms", "ms", &boot, 1e3));
    out.push(Metric::exact(
        "harness.paced_late_p99_us",
        "us",
        percentile(&mut late, 0.99),
    ));
    Ok(out)
}

/// One whole session through `serve_reader` over byte buffers: the serve
/// path minus the socket. Returns its wall (seconds) and the engine
/// thread's final telemetry snapshot.
pub fn serve_in_memory(serve: &Prepared) -> Result<(f64, TelemetrySnapshot), String> {
    let input = serve
        .socket
        .as_ref()
        .ok_or("serve-socket has no wire input")?;
    let (sink, captured) = Sink::capture();
    let metrics = Arc::new(ServeMetrics::new());
    let t = Instant::now();
    let stats = serve_reader(
        socket::options(serve.spec.m),
        Cursor::new(&input.blast.request[..]),
        sink,
        Arc::clone(&metrics),
    )?;
    let wall = t.elapsed().as_secs_f64();
    black_box(captured.lock().map(|b| b.len()).unwrap_or(0));
    if stats.dispatched != input.blast.flows() || stats.dropped != 0 {
        return Err(format!(
            "in-memory serve dispatched {} of {} flows, dropped {}",
            stats.dispatched,
            input.blast.flows(),
            stats.dropped
        ));
    }
    let snapshot = metrics
        .engine
        .lock()
        .map_err(|_| "engine snapshot slot poisoned")?
        .clone();
    Ok((wall, snapshot))
}
