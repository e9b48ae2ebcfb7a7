//! `perf` — the repo's benchmark. One command generates every input from
//! `--seed`, runs the workloads, checks every output, and prints every
//! metric by name with its unit. It links the layers' public functions
//! ([`surface`]) and times the calls from outside. See `perf/README.md`.
//!
//! Two ways to run it:
//!
//! * no `--workload`: the **ledger** — all eight workloads, one repetition
//!   of each per cycle (round-robin, so a slow minute on the host hits all
//!   alike), an untraced pass for the end-to-end metrics and a traced pass
//!   for the per-layer ones; writes `out/BENCH_perf.json`, `out/trace.json`.
//! * `--workload NAME --seconds S --trace 0|1`: one workload, one pass —
//!   the form `BENCHMARK.json`'s driver calls. The last line of stdout is
//!   one JSON object with the pass's metrics.

mod alloc;
mod check;
mod layers;
mod refkernel;
mod report;
mod socket;
mod spans;
mod stats;
mod summary;
mod surface;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;

use check::{check_equal, check_schedule, Verdict};
use refkernel::RefKernel;
use report::{driver_line, print_metrics, Fingerprint, Ledger, Metric, WorkloadReport};
use spans::Spans;
use stats::summarize;
use summary::{end_to_end, p50_p99, workload_layers, Rep, GATED, REF_NOMINAL_S};
use surface::EngineTelemetry;
use workloads::{prepare, run_engine, Feed, Prepared, Spec, SPECS};

// Tests drive the allocator's bookkeeping directly and need it quiet.
#[cfg(not(test))]
#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Timed cycles of the ledger after one warm-up cycle.
const LEDGER_CYCLES: usize = 18;
/// Cycles a pass never goes below, whatever `--seconds` says.
const MIN_CYCLES: usize = 5;
/// Traced cycles of the ledger (each an untraced and a traced repetition).
const TRACED_CYCLES: usize = 3;
/// Times a single-workload run sets up, to report the median.
const SETUPS: usize = 5;

struct Args {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
}

const USAGE: &str =
    "usage: perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        traced: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                let spec = SPECS.iter().find(|s| s.name == value);
                args.workload = Some(spec.ok_or_else(|| bad("a workload"))?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// What the checks of one workload have seen: the flows offered in every
/// checked repetition (timed, traced, verification) and what failed.
#[derive(Default)]
struct Checked {
    attempted: u64,
    verdict: Verdict,
}

/// Run one repetition of `p` and check its output against the reference:
/// a repetition that differs counts as failed flows, it does not stop the
/// run.
fn one_rep(
    p: &Prepared,
    traced: bool,
    spans: &mut Spans,
    checked: &mut Checked,
) -> Result<Rep, String> {
    spans.next_rep();
    let span = spans.begin("rep.run");
    let rep = if let Some(input) = &p.socket {
        let r = socket::run(input, spans)?;
        checked.attempted += r.attempted;
        checked.verdict.absorb(r.verdict);
        Rep {
            wall_s: r.blast_wall_s,
            latency_us: p50_p99(r.latency_us),
            alloc: r.alloc,
            ref_s: 0.0,
            engine: None,
        }
    } else {
        let mut tele = if traced {
            EngineTelemetry::enabled()
        } else {
            EngineTelemetry::disabled()
        };
        let r = run_engine(p, p.spec.feed, p.spec.cores, &mut tele, None)?;
        // Only the aggregate is compared here, so a repetition that
        // differs cannot say which of its flows went wrong: all count.
        let flows = p.arrivals.len() as u64;
        checked.attempted += flows;
        if r.stats != p.ref_stats || r.trace_error.is_some() {
            checked.verdict.fail_many(flows, || {
                format!(
                    "a repetition's statistics {:?} differ from the reference's {:?} \
                     (trace error: {:?})",
                    r.stats, p.ref_stats, r.trace_error
                )
            });
        }
        Rep {
            wall_s: r.wall_s,
            latency_us: p50_p99(r.gaps_us),
            alloc: r.alloc,
            ref_s: 0.0,
            engine: traced.then(|| (tele.snapshot(), r.wall_s)),
        }
    };
    spans.end(span);
    Ok(rep)
}

/// The serve engine's telemetry is always on and lives behind the server;
/// a traced `serve-socket` repetition reads it from an in-memory session.
fn with_serve_engine(p: &Prepared, mut rep: Rep, spans: &mut Spans) -> Result<Rep, String> {
    if p.spec.feed == Feed::Socket {
        let span = spans.begin("serve.in_memory");
        let (wall, snapshot) = layers::serve_in_memory(p)?;
        spans.end(span);
        rep.engine = Some((snapshot, wall));
    }
    Ok(rep)
}

/// Reference-kernel timings, one per call, all kept.
struct RefClock {
    kernel: RefKernel,
    secs: Vec<f64>,
}

impl RefClock {
    fn tick(&mut self, spans: &mut Spans) -> f64 {
        let span = spans.begin("ref.kernel");
        let t = Instant::now();
        std::hint::black_box(self.kernel.run());
        let s = t.elapsed().as_secs_f64();
        spans.end(span);
        self.secs.push(s);
        s
    }
}

/// How long a pass goes on.
struct Budget {
    min: usize,
    max: usize,
    seconds: f64,
}

impl Budget {
    /// Exactly `n` cycles.
    fn cycles(n: usize) -> Budget {
        Budget {
            min: n,
            max: n,
            seconds: 0.0,
        }
    }

    /// At least `min` cycles, then until `seconds` have passed.
    fn seconds(min: usize, seconds: f64) -> Budget {
        Budget {
            min,
            max: usize::MAX,
            seconds,
        }
    }

    fn go_on(&self, cycles: usize, started: Instant) -> bool {
        cycles < self.min || (cycles < self.max && started.elapsed().as_secs_f64() < self.seconds)
    }
}

/// The untraced pass: one warm-up cycle, then timed cycles. Returns the
/// timed repetitions per workload.
fn timed_pass(
    prepared: &[Prepared],
    budget: &Budget,
    clock: &mut RefClock,
    spans: &mut Spans,
    checked: &mut [Checked],
) -> Result<Vec<Vec<Rep>>, String> {
    let started = Instant::now();
    let mut reps: Vec<Vec<Rep>> = prepared.iter().map(|_| Vec::new()).collect();
    let mut cycles = 0;
    let mut warm = false;
    while !warm || budget.go_on(cycles, started) {
        let mut before = clock.tick(spans);
        for (i, (p, reps)) in prepared.iter().zip(&mut reps).enumerate() {
            let mut rep = one_rep(p, false, spans, &mut checked[i])?;
            let after = clock.tick(spans);
            rep.ref_s = (before + after) / 2.0;
            before = after;
            if warm {
                reps.push(rep);
            }
        }
        if warm {
            cycles += 1;
        }
        warm = true;
    }
    Ok(reps)
}

/// The traced pass: per cycle and workload an untraced and a traced
/// repetition back to back, so their ratio is the tracing overhead.
/// Returns `(untraced, traced)` per workload.
fn traced_pass(
    prepared: &[Prepared],
    budget: &Budget,
    clock: &mut RefClock,
    spans: &mut Spans,
    checked: &mut [Checked],
) -> Result<Vec<Vec<(Rep, Rep)>>, String> {
    let started = Instant::now();
    let mut pairs: Vec<Vec<(Rep, Rep)>> = prepared.iter().map(|_| Vec::new()).collect();
    let mut cycles = 0;
    while budget.go_on(cycles, started) {
        for (i, (p, pairs)) in prepared.iter().zip(&mut pairs).enumerate() {
            let before = clock.tick(spans);
            let mut plain = one_rep(p, false, spans, &mut checked[i])?;
            let after = clock.tick(spans);
            plain.ref_s = (before + after) / 2.0;
            let traced = one_rep(p, true, spans, &mut checked[i])?;
            pairs.push((plain, with_serve_engine(p, traced, spans)?));
        }
        cycles += 1;
    }
    Ok(pairs)
}

/// One untimed repetition: every flow exactly once, never early, no port
/// twice in a round, and the same schedule as the reference run of the
/// same seed.
fn verify(p: &Prepared, spans: &mut Spans, checked: &mut Checked) -> Result<(), String> {
    let span = spans.begin("check.verify");
    if let Some(input) = &p.socket {
        let r = socket::run(input, spans)?;
        checked.attempted += r.attempted;
        checked.verdict.absorb(r.verdict);
    } else {
        let mut log = Vec::with_capacity(p.arrivals.len());
        let mut tele = EngineTelemetry::disabled();
        let r = run_engine(p, p.spec.feed, p.spec.cores, &mut tele, Some(&mut log))?;
        let mut v = check_schedule(p.spec.m, &p.arrivals, &log);
        v.absorb(check_equal("dispatch log", &log, &p.reference));
        let offered = p.arrivals.len() as u64;
        if r.stats.arrived != offered || r.stats.dispatched != offered {
            v.fail(|| {
                format!(
                    "{offered} offered, {} arrived, {} dispatched",
                    r.stats.arrived, r.stats.dispatched
                )
            });
        }
        if let Some(e) = r.trace_error {
            v.fail(|| format!("trace replay failed: {e}"));
        }
        checked.attempted += offered;
        checked.verdict.absorb(v);
    }
    spans.end(span);
    Ok(())
}

/// `(run, wait)` ns of the calling thread so far, from the scheduler.
fn schedstat() -> (f64, f64) {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut fields = text.split_whitespace().map(|f| f.parse().unwrap_or(0.0));
    (fields.next().unwrap_or(0.0), fields.next().unwrap_or(0.0))
}

/// How far to trust this run: the reference kernel's speed and spread,
/// how long this thread waited for a CPU, and what a clock read costs.
fn harness_metrics(clock: &RefClock, sched_start: (f64, f64)) -> Vec<Metric> {
    let kernel = summarize(clock.secs.iter().copied());
    let (run, wait) = schedstat();
    let (run, wait) = (run - sched_start.0, wait - sched_start.1);
    const READS: u32 = 100_000;
    let t = Instant::now();
    for _ in 0..READS {
        std::hint::black_box(Instant::now());
    }
    let timer_ns = t.elapsed().as_nanos() as f64 / f64::from(READS);
    vec![
        Metric::of("harness.ref_kernel_ms", "ms", &kernel, kernel.q1, |s| {
            s * 1e3
        }),
        Metric::exact("harness.ref_kernel_iqr_share", "ratio", kernel.iqr_share),
        Metric::exact(
            "harness.runq_wait_share",
            "ratio",
            if run > 0.0 { wait / run } else { 0.0 },
        ),
        Metric::exact("harness.timer_ns", "ns", timer_ns),
    ]
}

fn run(args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let sched_start = schedstat();
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let fingerprint = Fingerprint::read();
    let ledger = args.workload.is_none();
    let (timed, traced) = (ledger || !args.traced, ledger || args.traced);
    let mut spans = Spans::new(traced);
    println!(
        "perf: seed {} on {} hw threads ({}), {}, {} build, commit {}",
        args.seed,
        fingerprint.hw_threads,
        fingerprint.cpu_model,
        fingerprint.rustc,
        fingerprint.profile,
        fingerprint.git_commit
    );

    // Setup: everything before the first warm-up repetition.
    let specs: Vec<&'static Spec> = match args.workload {
        Some(spec) => vec![spec],
        None => SPECS.iter().collect(),
    };
    let mut clock = RefClock {
        kernel: RefKernel::new(),
        secs: Vec::new(),
    };
    // `setup_s` is an end-to-end metric: only the pass that reports it
    // pays for the repeats.
    let setups = if ledger || args.traced { 1 } else { SETUPS };
    let mut prepared = Vec::new();
    let mut setup_s = Vec::new();
    for &spec in &specs {
        let mut secs = Vec::new();
        let mut last = None;
        let mut before = clock.tick(&mut spans);
        for _ in 0..setups {
            drop(last.take()); // removes its trace file before the next writes it
            let t = Instant::now();
            last = Some(prepare(spec, args.seed, &args.out, &mut spans)?);
            let s = t.elapsed().as_secs_f64();
            // Setup is compute on this thread whatever the workload:
            // always at reference speed.
            let after = clock.tick(&mut spans);
            secs.push(s * REF_NOMINAL_S / ((before + after) / 2.0));
            before = after;
        }
        prepared.extend(last);
        setup_s.push(summarize(secs));
    }

    let mut checked: Vec<Checked> = prepared.iter().map(|_| Checked::default()).collect();
    // The untraced repetitions are the same code in every kind of run:
    // no spans are recorded around them.
    spans.record(false);
    let reps = if timed {
        let budget = match ledger {
            true => Budget::cycles(LEDGER_CYCLES),
            false => Budget::seconds(MIN_CYCLES, args.seconds),
        };
        timed_pass(&prepared, &budget, &mut clock, &mut spans, &mut checked)?
    } else {
        Vec::new()
    };
    spans.record(traced);

    for (p, checked) in prepared.iter().zip(&mut checked) {
        verify(p, &mut spans, checked)?;
    }

    let pairs = if traced {
        let budget = match ledger {
            true => Budget::cycles(TRACED_CYCLES),
            false => Budget::seconds(TRACED_CYCLES, args.seconds),
        };
        traced_pass(&prepared, &budget, &mut clock, &mut spans, &mut checked)?
    } else {
        Vec::new()
    };
    let suite = if ledger {
        layers::run_suite(&prepared, &args.out, &mut spans)?
    } else {
        Vec::new()
    };
    let harness = harness_metrics(&clock, sched_start);

    // Report.
    let mut reports = Vec::new();
    for (i, p) in prepared.iter().enumerate() {
        let attempted = checked[i].attempted;
        // One flow can fail two checks; it is still one flow.
        let failed = checked[i].verdict.failed.min(attempted);
        let failed_share = failed as f64 / attempted as f64;
        reports.push(WorkloadReport {
            name: p.spec.name,
            why: p.spec.why,
            flows: p.reference.len() as u64,
            attempted,
            failed,
            failed_share,
            end_to_end: match reps.get(i) {
                Some(reps) => end_to_end(p, &setup_s[i], reps),
                None => Vec::new(),
            },
            per_layer: match pairs.get(i) {
                Some(pairs) => {
                    let timed = reps.get(i).map_or(&[][..], Vec::as_slice);
                    workload_layers(p, timed, pairs, failed_share)
                }
                None => Vec::new(),
            },
        });
    }
    for r in &reports {
        println!(
            "\n{} — {} flows, failed_share {} ({} of {})",
            r.name, r.flows, r.failed_share, r.failed, r.attempted
        );
        if !r.end_to_end.is_empty() {
            print_metrics("end to end (untraced pass)", &r.end_to_end);
        }
        if !r.per_layer.is_empty() {
            print_metrics("per layer (traced pass)", &r.per_layer);
        }
    }
    if !suite.is_empty() {
        println!("\nlayer suite (traced pass)");
        print_metrics("per layer", &suite);
    }
    println!();
    print_metrics("harness (how far to trust this run)", &harness);
    for (p, checked) in prepared.iter().zip(&checked) {
        for problem in &checked.verdict.problems {
            eprintln!("FAILED {}: {problem}", p.spec.name);
        }
    }
    let correct = checked.iter().all(|c| c.verdict.failed == 0);

    if traced {
        let path = args.out.join("trace.json");
        std::fs::write(&path, spans.chrome_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("\n{} spans -> {}", spans.len(), path.display());
    }
    if ledger {
        let book = Ledger {
            schema: 1,
            fingerprint,
            seed: args.seed,
            repetitions: LEDGER_CYCLES as u64,
            wall_s: started.elapsed().as_secs_f64(),
            workloads: reports,
            layers: suite,
            harness,
        };
        let path = args.out.join("BENCH_perf.json");
        let json = serde_json::to_string_pretty(&book).map_err(|e| e.to_string())?;
        std::fs::write(&path, json + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("ledger -> {} ({:.1} s)", path.display(), book.wall_s);
    } else {
        // The driver's line: this pass's metrics for the one workload,
        // exactly the ones `BENCHMARK.json` lists.
        let r = &reports[0];
        let mut metrics = r.per_layer.clone();
        if traced {
            metrics.extend(harness);
        } else {
            metrics = r.end_to_end.clone();
            metrics.retain(|m| GATED.contains(&m.name));
        }
        if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
            return Err(format!("{} is not a finite number", m.name));
        }
        println!("{}", driver_line(correct, r.attempted, r.failed, &metrics));
    }
    Ok(correct)
}

fn main() {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("perf: a check failed");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("perf: {e}");
            std::process::exit(2);
        }
    }
}
