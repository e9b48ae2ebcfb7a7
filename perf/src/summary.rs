//! From repetitions to reported metrics: the drift correction, the
//! estimator per kind of timing, and the end-to-end and per-workload
//! per-layer lists.

use crate::alloc;
use crate::report::Metric;
use crate::stats::{percentile, summarize, Summary};
use crate::surface::TelemetrySnapshot;
use crate::workloads::{Feed, Prepared};

/// What "reference speed" means: the reference kernel's time on the box
/// the ledger was seeded on, in a calm period. Compute-bound timings are
/// reported as `measured x REF_NOMINAL_S / (reference-kernel time next to
/// the measurement)`, which takes out most of the host's drift.
pub const REF_NOMINAL_S: f64 = 0.010;

/// The end-to-end metrics `BENCHMARK.json` gates: the ones defined on
/// every workload. A one-workload run reports exactly these; the ledger
/// adds the latency percentiles, under the name that applies.
pub const GATED: [&str; 3] = ["setup_s", "flows_per_s", "peak_heap_mb"];

/// One repetition, as the summaries need it.
pub struct Rep {
    /// Wall of the repetition (blast phase on `serve-socket`), seconds.
    pub wall_s: f64,
    /// `(p50, p99, count)` of the repetition's latency samples, µs: the
    /// round gaps (`round_*`) on an engine workload, the paced phase's
    /// per-flow dispatch latencies (`dispatch_*`) on `serve-socket`.
    pub latency_us: (f64, f64, usize),
    /// What the repetition allocated.
    pub alloc: alloc::Window,
    /// Mean of the reference-kernel timings on either side, seconds
    /// (0 until the pass brackets the repetition).
    pub ref_s: f64,
    /// Traced repetitions: the engine's snapshot and the wall it covers.
    pub engine: Option<(TelemetrySnapshot, f64)>,
}

/// `(p50, p99, count)` of one repetition's per-round samples.
pub fn p50_p99(mut v: Vec<f64>) -> (f64, f64, usize) {
    if v.is_empty() {
        return (0.0, 0.0, 0);
    }
    (percentile(&mut v, 0.5), percentile(&mut v, 0.99), v.len())
}

/// Is `p`'s repetition time compute on this thread, which the reference
/// kernel tracks? The socket workload's is syscalls, wake-ups and the
/// loopback stack, which it does not: measured A/A, correcting those by
/// the kernel doubles their spread instead of halving it.
fn tracks_reference(p: &Prepared) -> bool {
    p.spec.feed != Feed::Socket
}

/// One timing per repetition, drift-corrected where the workload tracks
/// the reference, and the estimate to report. Corrected timings scatter
/// both ways (the reference sample next to them is noisy too): the median.
/// Raw ones are only ever slowed down: the fast-side quartile.
fn timing(p: &Prepared, reps: &[&Rep], f: impl Fn(&Rep) -> f64) -> (Summary, f64) {
    if tracks_reference(p) {
        let s = summarize(reps.iter().map(|r| f(r) * REF_NOMINAL_S / r.ref_s));
        (s, s.median)
    } else {
        let s = summarize(reps.iter().map(|r| f(r)));
        (s, s.q1)
    }
}

/// A within-repetition percentile: `samples` counts rounds (or flows),
/// not repetitions.
fn percentile_metric(
    name: &'static str,
    p: &Prepared,
    reps: &[&Rep],
    f: impl Fn(&Rep) -> f64,
) -> Metric {
    let (s, pick) = timing(p, reps, f);
    Metric {
        samples: reps.iter().map(|r| r.latency_us.2).min().unwrap_or(0) as u64,
        ..Metric::of(name, "us", &s, pick, |x| x)
    }
}

/// The end-to-end metrics of one workload, from its untraced repetitions.
pub fn end_to_end(p: &Prepared, setup: &Summary, reps: &[Rep]) -> Vec<Metric> {
    let flows = p.reference.len() as f64;
    let reps: Vec<&Rep> = reps.iter().collect();
    let (wall, wall_pick) = timing(p, &reps, |r| r.wall_s);
    // The same number every repetition where the engine runs on one
    // thread; where threads race (`serve-socket`, `cores = 2`) the median,
    // which unlike the maximum does not grow with the repetition count.
    let peak = summarize(reps.iter().map(|r| r.alloc.peak_bytes as f64));
    let (p50, p99) = match p.spec.feed {
        Feed::Socket => ("dispatch_p50_us", "dispatch_p99_us"),
        Feed::Memory | Feed::TraceFile => ("round_p50_us", "round_p99_us"),
    };
    vec![
        Metric::of("setup_s", "s", setup, setup.median, |x| x),
        Metric::of("flows_per_s", "flows/s", &wall, wall_pick, |secs| {
            flows / secs
        }),
        percentile_metric(p50, p, &reps, |r| r.latency_us.0),
        percentile_metric(p99, p, &reps, |r| r.latency_us.1),
        Metric::of("peak_heap_mb", "MiB", &peak, peak.median, |bytes| {
            bytes / (1 << 20) as f64
        }),
    ]
}

/// The per-layer metrics that belong to one workload, from its traced
/// pass: the engine's own stage split, allocation counts, and what
/// tracing cost.
pub fn workload_layers(
    p: &Prepared,
    timed: &[Rep],
    pairs: &[(Rep, Rep)],
    failed_share: f64,
) -> Vec<Metric> {
    let flows = p.reference.len() as f64;
    let traced: Vec<&Rep> = pairs.iter().map(|(_, t)| t).collect();
    // Raw flows/s could not hold a bound in the A/A check on this host
    // (see the README): printed beside the corrected, gated one. From the
    // timed pass when this run has one (the ledger), else from the traced
    // pass's untraced repetitions.
    let plain: Vec<&Rep> = if timed.is_empty() {
        pairs.iter().map(|(p, _)| p).collect()
    } else {
        timed.iter().collect()
    };
    let raw_wall = summarize(plain.iter().map(|r| r.wall_s));
    let engine: Vec<&(TelemetrySnapshot, f64)> =
        traced.iter().filter_map(|r| r.engine.as_ref()).collect();
    let last = &engine.last().expect("a traced pass has repetitions").0;
    let counter = |name: &str| last.counter(name).unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let rounds = counter("rounds");
    let stage = |name: &'static str| {
        summarize(
            engine
                .iter()
                .map(|(s, _)| s.stage_ns(name).unwrap_or(0) as f64),
        )
    };
    let stages = ["ingest", "queue_update", "match_repair", "dispatch"].map(stage);
    let staged: f64 = stages.iter().map(|s| s.q1).sum();
    // Σ stages + unattributed = wall by construction: the share is what
    // the stage timers do not cover (calendar, callback, loop, and for
    // serve-socket the session around the engine).
    let covered = summarize(engine.iter().map(|(s, wall)| {
        let sum: u64 = s.stages.iter().map(|st| st.total_ns).sum();
        1.0 - sum as f64 / (wall * 1e9)
    }));
    // The histogram's quantiles are log2 bucket bounds — the same number
    // run after run — so only its exact mean is reported; percentiles of
    // the same latency are `round_*`, measured from outside.
    let decision_mean = summarize(engine.iter().map(|(s, _)| {
        s.histo("decision_latency_ns")
            .map_or(0.0, |h| ratio(h.sum_ns as f64, h.count as f64))
    }));
    let overhead = summarize(
        pairs
            .iter()
            .map(|(plain, traced)| traced.wall_s / plain.wall_s - 1.0),
    );
    let allocs = summarize(traced.iter().map(|r| r.alloc.count as f64));
    let bytes = summarize(traced.iter().map(|r| r.alloc.bytes as f64));
    let walls = summarize(traced.iter().map(|r| r.wall_s));
    vec![
        Metric::of(
            "engine.ingest_ns_per_flow",
            "ns",
            &stages[0],
            stages[0].q1,
            |ns| ns / flows,
        ),
        Metric::exact(
            "engine.queue_update_share",
            "ratio",
            ratio(stages[1].q1, staged),
        ),
        Metric::of(
            "engine.match_repair_ns_per_round",
            "ns",
            &stages[2],
            stages[2].q1,
            |ns| ratio(ns, rounds),
        ),
        Metric::of(
            "engine.dispatch_ns_per_flow",
            "ns",
            &stages[3],
            stages[3].q1,
            |ns| ns / flows,
        ),
        Metric::exact(
            "engine.match_repair_share",
            "ratio",
            ratio(stages[2].q1, staged),
        ),
        Metric::of(
            "engine.unattributed_share",
            "ratio",
            &covered,
            covered.median,
            |x| x,
        ),
        Metric::of(
            "engine.decision_mean_us",
            "us",
            &decision_mean,
            decision_mean.q1,
            |ns| ns / 1e3,
        ),
        Metric::exact("engine.active_rounds", "count", counter("active_rounds")),
        Metric::exact(
            "engine.peak_queue",
            "count",
            last.gauge("peak_queue_depth").unwrap_or(0) as f64,
        ),
        Metric::exact(
            "matcher.searches_per_round",
            "count",
            ratio(counter("match_searches"), rounds),
        ),
        Metric::exact(
            "matcher.augment_hit_ratio",
            "ratio",
            ratio(counter("match_augmentations"), counter("match_searches")),
        ),
        Metric::exact(
            "wmatcher.cells_touched_per_round",
            "count",
            ratio(counter("wmatch_cells_touched"), counter("wmatch_selects")),
        ),
        Metric::of(
            "alloc.count_per_kflow",
            "count",
            &allocs,
            allocs.median,
            |n| n * 1e3 / flows,
        ),
        Metric::of("alloc.bytes_per_flow", "B", &bytes, bytes.median, |b| {
            b / flows
        }),
        Metric::of(
            "telemetry.overhead_share",
            "ratio",
            &overhead,
            overhead.median,
            |x| x,
        ),
        Metric::of(
            "harness.raw_flows_per_s",
            "flows/s",
            &raw_wall,
            raw_wall.q1,
            |secs| flows / secs,
        ),
        Metric::exact("harness.rep_iqr_share", "ratio", walls.iqr_share),
        Metric::exact("check.failed_share", "ratio", failed_share),
    ]
}
