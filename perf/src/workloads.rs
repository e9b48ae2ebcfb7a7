//! The eight workloads: what each one feeds the program, how its inputs
//! are made from the seed, and how one repetition of an engine workload
//! is driven and timed from outside. (`serve-socket`'s repetition lives in
//! [`crate::socket`].)
//!
//! Arrivals are materialised once in setup from `PoissonSource(seed)` and
//! replayed each repetition through a harness-owned in-memory
//! [`FlowSource`], so RNG time is never inside a measurement.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::alloc;
use crate::check::Dispatch;
use crate::socket;
use crate::spans::Spans;
use crate::surface::{
    run_stream_cores, run_stream_telemetry, run_stream_with, Arrival, BuiltinPolicy, EngineMode,
    EngineTelemetry, FlowSource, PoissonSource, StreamStats, StreamingTraceSource, TraceWriter,
};

/// How a workload's arrivals reach the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// In-memory replay through a harness-owned [`FlowSource`].
    Memory,
    /// A JSONL trace file through `StreamingTraceSource::open`.
    TraceFile,
    /// A live server over loopback TCP (see [`crate::socket`]).
    Socket,
}

/// One workload of the benchmark. Names are final: later issues cite
/// them verbatim.
#[derive(Debug)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists, in one line.
    pub why: &'static str,
    /// Switch size (`m x m`, unit capacities).
    pub m: usize,
    /// Mean Poisson arrivals per round.
    pub rate: f64,
    /// Rounds with arrivals.
    pub rounds: u64,
    /// How the arrivals are fed.
    pub feed: Feed,
    /// The engine mode that decides the schedule.
    pub mode: EngineMode,
    /// Engine threads: 1 = sequential drive, 2 = ingest on its own thread.
    pub cores: usize,
}

const HEAVY: f64 = 600.0; // M = 4m, the paper's heaviest cell
// M = 0.85m. Not 0.9m: there the peak queue (970-1080 flows, by seed)
// straddles a 1024-entry capacity doubling in the program, and
// `peak_heap_mb` flips by 6.8 % from one seed to the next. Here it is
// 680-720 on every seed, clear of 512 and 1024.
const LIGHT: f64 = 127.5;

const fn heavy(name: &'static str, why: &'static str, rounds: u64, mode: EngineMode) -> Spec {
    Spec {
        name,
        why,
        m: 150,
        rate: HEAVY,
        rounds,
        feed: Feed::Memory,
        mode,
        cores: 1,
    }
}

const fn light(name: &'static str, why: &'static str, feed: Feed, cores: usize) -> Spec {
    Spec {
        name,
        why,
        m: 150,
        rate: LIGHT,
        rounds: 2500,
        feed,
        mode: EngineMode::Incremental,
        cores,
    }
}

/// The workloads, in the order they run within a cycle.
pub static SPECS: [Spec; 8] = [
    heavy(
        "poisson-heavy-incremental",
        "paper's heaviest cell (M=4m) in the flagship mode: queues reach ~450k, so queue and dispatch cost show",
        1000,
        EngineMode::Incremental,
    ),
    light(
        "poisson-light-incremental",
        "same matcher at M=0.85m: sparse support graph, real augmenting-path work every round",
        Feed::Memory,
        1,
    ),
    heavy(
        "poisson-heavy-maxcard",
        "exact core with dedup Hopcroft-Karp: the only workload a change to the HK kernel moves",
        250,
        EngineMode::Exact(BuiltinPolicy::MaxCard),
    ),
    heavy(
        "poisson-heavy-minrtime",
        "incremental weighted matcher over HungarianScratch with age weights: ~97% match repair",
        250,
        EngineMode::Exact(BuiltinPolicy::MinRTime),
    ),
    heavy(
        "poisson-heavy-maxweight",
        "same Hungarian layer, queue-total weights dirty whole rows and columns: a MinRTime-only shortcut shows here",
        250,
        EngineMode::Exact(BuiltinPolicy::MaxWeight),
    ),
    light(
        "trace-replay",
        "poisson-light-incremental's arrivals read back from a JSONL file: the difference is parse + IO exactly",
        Feed::TraceFile,
        1,
    ),
    light(
        "trace-replay-pipelined",
        "same file with ingest on its own thread: the only place the stage pipeline is on the measured path",
        Feed::TraceFile,
        2,
    ),
    Spec {
        name: "serve-socket",
        why: "tiny switch over loopback TCP: parse, admission, channel, per-line write+flush dominate, not matching",
        m: 20,
        rate: 18.0,
        rounds: 3000,
        feed: Feed::Socket,
        mode: EngineMode::Exact(BuiltinPolicy::MaxCard),
        cores: 1,
    },
];

/// Harness-owned in-memory source: hands out a materialised arrival list.
pub struct Replay<'a> {
    m: usize,
    arrivals: &'a [Arrival],
    next: usize,
}

impl<'a> Replay<'a> {
    /// Replay `arrivals` on an `m x m` switch.
    pub fn new(m: usize, arrivals: &'a [Arrival]) -> Replay<'a> {
        Replay {
            m,
            arrivals,
            next: 0,
        }
    }
}

impl FlowSource for Replay<'_> {
    fn m_in(&self) -> usize {
        self.m
    }

    fn m_out(&self) -> usize {
        self.m
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        let a = self.arrivals.get(self.next).copied();
        self.next += 1;
        a
    }
}

/// Draw `spec`'s arrivals from the seed.
pub fn generate(spec: &Spec, seed: u64) -> Vec<Arrival> {
    let mut source = PoissonSource::new(spec.m, spec.rate, Some(spec.rounds), seed);
    std::iter::from_fn(|| source.next_arrival()).collect()
}

/// Run `mode` over in-memory arrivals and keep the whole dispatch log.
pub fn reference_run(
    m: usize,
    arrivals: &[Arrival],
    mode: EngineMode,
) -> (Vec<Dispatch>, StreamStats) {
    let mut log = Vec::with_capacity(arrivals.len());
    let stats = run_stream_with(Replay::new(m, arrivals), mode, |id, release, round| {
        log.push(Dispatch { id, release, round })
    });
    (log, stats)
}

/// Write `arrivals` as a JSONL trace; returns the file's size in bytes.
pub fn write_trace(path: &Path, m: usize, arrivals: &[Arrival]) -> Result<u64, String> {
    let mut w = TraceWriter::create(path, m).map_err(|e| e.to_string())?;
    for a in arrivals {
        w.write_arrival(a.release, a.src, a.dst)
            .map_err(|e| e.to_string())?;
    }
    w.finish().map_err(|e| e.to_string())?;
    std::fs::metadata(path)
        .map(|meta| meta.len())
        .map_err(|e| format!("stat {}: {e}", path.display()))
}

/// A workload with its inputs and reference output in place.
pub struct Prepared {
    /// The workload.
    pub spec: &'static Spec,
    /// Its arrivals, in source order (id = index).
    pub arrivals: Vec<Arrival>,
    /// The reference dispatch log: the first run of this seed.
    pub reference: Vec<Dispatch>,
    /// The reference run's aggregate statistics.
    pub ref_stats: StreamStats,
    /// The trace file of a [`Feed::TraceFile`] workload.
    pub trace: Option<PathBuf>,
    /// The wire input of the [`Feed::Socket`] workload.
    pub socket: Option<socket::Input>,
}

/// Everything before the first repetition: generate the arrivals, compute
/// the reference output in process, and write what the drive reads.
pub fn prepare(
    spec: &'static Spec,
    seed: u64,
    out_dir: &Path,
    spans: &mut Spans,
) -> Result<Prepared, String> {
    let s = spans.begin("setup.generate");
    let arrivals = generate(spec, seed);
    spans.end(s);
    if arrivals.is_empty() {
        return Err(format!("{}: seed {seed} drew no arrivals", spec.name));
    }

    let s = spans.begin("setup.reference");
    let (reference, ref_stats) = reference_run(spec.m, &arrivals, spec.mode);
    spans.end(s);

    let mut trace = None;
    let mut socket = None;
    match spec.feed {
        Feed::Memory => {}
        Feed::TraceFile => {
            let s = spans.begin("setup.write_trace");
            // The program copies the path inside the allocation window:
            // pad the pid, or `alloc.*` moves with its digit count.
            let pid = std::process::id();
            let path = out_dir.join(format!("{}-{seed}-{pid:010}.jsonl", spec.name));
            write_trace(&path, spec.m, &arrivals)?;
            spans.end(s);
            trace = Some(path);
        }
        Feed::Socket => {
            let s = spans.begin("setup.render_lines");
            socket = Some(socket::Input::new(spec.m, &arrivals, &reference));
            spans.end(s);
        }
    }
    Ok(Prepared {
        spec,
        arrivals,
        reference,
        ref_stats,
        trace,
        socket,
    })
}

impl Drop for Prepared {
    fn drop(&mut self) {
        if let Some(path) = &self.trace {
            // Best effort: a leftover trace only wastes disk in `out/`.
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One repetition of an engine workload.
pub struct EngineRep {
    /// Wall of the whole call, source construction included, seconds.
    pub wall_s: f64,
    /// The run's aggregate statistics.
    pub stats: StreamStats,
    /// Wall between consecutive round boundaries as the dispatch callback
    /// sees them, µs (`round_*`).
    pub gaps_us: Vec<f64>,
    /// What the call allocated (the harness's own buffers are sized
    /// before the window opens).
    pub alloc: alloc::Window,
    /// What a trace source's `TraceErrorHandle` held at the end, if
    /// anything: the replay stopped short.
    pub trace_error: Option<String>,
}

/// Drive one repetition of `p`'s arrivals through its engine mode, fed by
/// `feed` on `cores` threads (a workload passes its own; the layer suite
/// crosses them). One `Instant::now()` per round, not per flow. With
/// `log`, also keep every dispatch (the verification pass).
pub fn run_engine(
    p: &Prepared,
    feed: Feed,
    cores: usize,
    tele: &mut EngineTelemetry,
    mut log: Option<&mut Vec<Dispatch>>,
) -> Result<EngineRep, String> {
    let mut gaps_us = Vec::with_capacity(p.ref_stats.active_rounds as usize);
    let window = alloc::mark();
    let base = Instant::now();
    let (mut last_round, mut boundary) = (u64::MAX, base);
    let on_dispatch = |id: u64, release: u64, round: u64| {
        if round != last_round {
            let now = Instant::now();
            if last_round != u64::MAX {
                gaps_us.push((now - boundary).as_secs_f64() * 1e6);
            }
            (last_round, boundary) = (round, now);
        }
        if let Some(log) = log.as_deref_mut() {
            log.push(Dispatch { id, release, round });
        }
    };
    let mode = p.spec.mode;
    let mut trace_error = None;
    let stats = match feed {
        Feed::Memory => drive(
            Replay::new(p.spec.m, &p.arrivals),
            mode,
            cores,
            tele,
            on_dispatch,
        ),
        Feed::TraceFile => {
            let path = p.trace.as_ref().ok_or("no trace file was prepared")?;
            let source = StreamingTraceSource::open(path).map_err(|e| e.to_string())?;
            let errors = source.error_handle();
            let stats = drive(source, mode, cores, tele, on_dispatch);
            trace_error = errors.get().map(|e| e.to_string());
            stats
        }
        Feed::Socket => return Err("serve-socket repetitions run in socket::run".into()),
    };
    Ok(EngineRep {
        wall_s: base.elapsed().as_secs_f64(),
        stats,
        gaps_us,
        alloc: alloc::since(&window),
        trace_error,
    })
}

fn drive<S: FlowSource + Send>(
    source: S,
    mode: EngineMode,
    cores: usize,
    tele: &mut EngineTelemetry,
    on_dispatch: impl FnMut(u64, u64, u64) + Send,
) -> StreamStats {
    if cores == 1 {
        run_stream_telemetry(source, mode, tele, on_dispatch)
    } else {
        run_stream_cores(source, mode, cores, tele, on_dispatch)
    }
}
