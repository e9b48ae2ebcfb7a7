//! `flowsched` — command-line front end for the flow-switch toolkit.
//!
//! Subcommands:
//!
//! ```text
//! flowsched gen      --m 8 --flows 40 --max-release 10 --seed 7 -o inst.json
//! flowsched validate -i inst.json -s sched.json [--augment D]
//! flowsched solve    -i inst.json --objective art --c 2      -o sched.json
//! flowsched solve    -i inst.json --objective mrt            -o sched.json
//! flowsched online   -i inst.json --policy maxweight         -o sched.json
//! flowsched stats    -i inst.json -s sched.json
//! flowsched stream   --m 150 --rate 600 --rounds 100 --mode incremental
//! flowsched stream   --scenario spec.json --mode maxcard --metrics
//! flowsched trace    --m 8 --rate 6 --rounds 12 --seed 7 -o trace.jsonl
//! flowsched trace    gen --m 64 --rate 48 --rounds 100000 -o giant.jsonl
//! flowsched trace    convert examples/sample_coflow.csv --ports 32 -o coflow.jsonl
//! flowsched trace    morph coflow.jsonl --scale-rate 2.0 --skew zipf:1.2 -o hot.jsonl
//! flowsched trace    stats hot.jsonl
//! flowsched trace    split giant.jsonl --shards 4 -o giant
//! flowsched bench    --filter fig6 --jobs 4 --out target/experiments
//! flowsched bench    --trace examples/sample_trace.jsonl
//! flowsched bench    --paper --filter fig7 --resume --progress
//! flowsched bench    --diff OLD.json NEW.json
//! flowsched telemetry dump -i target/experiments/BENCH_fig6.json
//! flowsched serve    --listen 127.0.0.1:7070 --metrics-listen 127.0.0.1:9090
//! flowsched serve    --soak --m 64 --rate 260 --rounds 4000
//! ```
//!
//! Instances and schedules are the serde JSON forms of
//! [`fss_core::Instance`] and [`fss_core::Schedule`]; scenarios are
//! [`fss_sim::ScenarioSpec`] files and traces the JSONL arrival-trace
//! format of [`fss_trace`], which every subcommand reads through
//! [`fss_trace::StreamingTraceSource`] and writes through
//! [`fss_trace::TraceWriter`].

use std::process::ExitCode;

use flow_switch::engine::{BuiltinPolicy, EngineMode};
use flow_switch::offline::art::solve_art;
use flow_switch::offline::mrt::solve_mrt;

use flow_switch::prelude::*;
use rand::{rngs::SmallRng, SeedableRng};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(msg)) => {
            eprintln!("flowsched: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        Err(Failure::Run(msg)) => {
            eprintln!("flowsched: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Why a run failed. A usage error (an unknown subcommand or flag, a
/// missing value or argument) is followed by the usage text; any other
/// error is its one line.
enum Failure {
    Usage(String),
    Run(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Failure {
        Failure::Run(msg)
    }
}

const USAGE: &str = "usage:
  flowsched gen      --m M [--flows N] [--max-release R] [--seed S] [--cap C] [--max-demand D] -o FILE
  flowsched validate -i INSTANCE -s SCHEDULE [--augment D]
  flowsched solve    -i INSTANCE --objective art|mrt [--c C] [-o FILE]
  flowsched online   -i INSTANCE --policy maxcard|minrtime|maxweight|fifo [-o FILE]
  flowsched stats    -i INSTANCE -s SCHEDULE
  flowsched stream   [--m M] [--rate R] [--rounds T] [--seed S] [--scenario SPEC.json]
                     [--mode incremental|maxcard|minrtime|maxweight|fifo] [--metrics]
                     [--flight-trace OUT.json [--stall-budget-ms MS]]
  flowsched trace    [gen] (--scenario SPEC.json | [--m M] [--rate R] [--rounds T] [--seed S]) -o FILE
  flowsched trace    convert CSV [--ports N] [--quantum-bytes B] [--ms-per-round MS] -o FILE.jsonl
  flowsched trace    morph IN.jsonl [--scale-rate F] [--dilate F] [--skew zipf:THETA[:SEED]]
                     [--fold M] [--window FROM:TO] [--truncate N] -o OUT.jsonl
  flowsched trace    stats FILE.jsonl
  flowsched trace    split IN.jsonl [--shards N] -o PREFIX
  flowsched bench    [--filter ID] [--trace FILE.jsonl] [--paper]
                     [--jobs N] [--out DIR] [--trials N] [--list]
                     [--resume] [--progress] [--flight-trace OUT.json]
  flowsched bench    --diff OLD.json NEW.json
  flowsched telemetry dump -i ARTIFACT.json|BENCH_cells.jsonl [-o FILE]
  flowsched flight   export SPOOL.jsonl -o OUT.json
  flowsched flight   stats SPOOL.jsonl [--top K]
  flowsched flight   check TRACE.json
  flowsched serve    [--ports M] [--policy maxcard|minrtime|maxweight|fifo]
                     [--queue-cap N] [--admission pause|drop] [--scenario SPEC.json]
                     [--listen ADDR [--metrics-listen ADDR]]
                     [--flight-trace OUT.json [--stall-budget-ms MS]]
  flowsched serve    --soak [--disconnect-after N] [--queue-cap N]
                     (--scenario SPEC.json | [--m M] [--rate R] [--rounds T] [--seed S])
  flowsched serve    --replay TRACE.jsonl --connect ADDR [--skip N] [--take N] [--finish]
  flowsched serve    --reference (--scenario SPEC.json | [--m M] [--rate R] [--rounds T])

stream drives a workload through the event-driven engine without
materializing an instance and reports aggregate response statistics.
The workload is a Poisson stream (R mean arrivals/round on an MxM unit
switch for T rounds) or, with --scenario, any ScenarioSpec JSON file
(Poisson or trace-replay arrivals, optional failure plan).

trace (or, the same thing, trace gen) freezes a workload into an
arrival-trace JSONL file for exact replay: either the given scenario
file or a Poisson workload described by --m/--rate/--rounds/--seed,
streamed straight to disk. Every trace tool is one reader->writer pass
at O(1) memory in the trace length, so they compose on traces far
larger than RAM: `trace convert` turns a coflow CSV
(coflow_id,release_ms,mappers,reducers,bytes with `|`-separated port
lists) into an arrival trace by folding ports onto an N-port switch
and quantizing bytes into unit flows; `trace morph`
rewrites a trace through transforms applied in flag order (time
compression/dilation, seeded zipf port skew, port folding, round
windows, truncation); `trace stats` prints a one-pass summary (flows,
horizon, per-round burstiness, hotspot ports); `trace split` fans one
giant trace out into N release-sorted sub-traces PREFIX.<k>.jsonl,
round-robin by input port (src % N).

stream runs its one scenario on the calling thread: a round is one
matching over the whole switch, so there is nothing to fan out. (Under
every subcommand, a flag it does not read is an error, not a default.)

bench runs the experiment registry through the parallel orchestrator:
cells execute on a work-stealing thread pool and a cell's independent
trials fan out through the same scheduler (--jobs caps every fan-out,
cells and trials alike), per-cell results stream to
<out>/BENCH_cells.jsonl, and each experiment writes an aggregated
BENCH_<id>.json artifact. --filter selects by exact
id or substring; --trace FILE replays an arrival trace through every
policy as the trace_replay experiment (alone unless --filter is also
given; cells stream the file at O(1) memory, so giant traces fit);
the registry runs CI-sized smoke grids unless --paper asks for the
paper-exact grids and trial counts; --list prints the registry with
per-tier cell counts and exits. --diff compares two BENCH artifacts of
the same experiment and exits nonzero when a cell vanished or differs
on any field but wall_s and telemetry (params, metrics, flows and
engine mode are seed-deterministic, timing is not).

<out>/BENCH_cells.jsonl is the run's checkpoint: every finished cell is
appended and on disk before the next is accepted. --resume replays an
existing checkpoint first (a torn final line is skipped) and executes
only the missing cells, so a run that died (kill -9, OOM) is simply run
again: `until flowsched bench --paper --resume; do sleep 1; done`.
Without --resume the stream is truncated and every cell runs.

Observability: stream --metrics records round-loop telemetry (per-stage
wall time, decision-latency quantiles, match/augmentation counters) and
appends it in Prometheus text format; bench --progress records the same
per cell into the BENCH artifacts (schema v3 `telemetry` field) and
prints a live progress line. Telemetry observes, never steers: schedules
and metrics are bit-identical with or without it. telemetry dump merges
the per-cell snapshots back out of an artifact (or a cells.jsonl
stream) as Prometheus text for scraping or ad-hoc inspection.

serve runs the live scheduler: JSONL arrival events (the arrival-trace
line schema, so `flowsched trace` output pipes straight in) stream in
over stdin or a TCP socket (--listen), dispatch decisions stream back
as JSONL, and a Prometheus /metrics endpoint (--metrics-listen) exposes
flows/s, queue depth, decision-latency p50/p99, and admission counters.
The ingest queue is bounded (--queue-cap): when it fills, --admission
pause blocks the producer losslessly (Paused/Resumed lines) and
--admission drop sheds with explicit Dropped lines — never silently.
--scenario supplies the port count and an injected failure plan (its
arrivals are ignored; arrivals come over the wire). A client that
disconnects mid-session can reconnect: buffered lines flush in order.
serve --soak runs the built-in soak harness (a real socket server, one
mid-run disconnect/reconnect, a metrics scrape, and a strict diff of
the live schedule against the single-process reference); serve --replay
plays a trace file against a running server as a client; serve
--reference prints the single-process reference dispatch stream for the
same workload (for external diffing).";

fn run(args: &[String]) -> Result<(), Failure> {
    let cmd = args
        .first()
        .ok_or_else(|| Failure::Usage("missing subcommand".into()))?;
    // `bench --diff OLD NEW` takes two positional paths; route it before
    // the flag parser (which expects key/value pairs only).
    if cmd == "bench" && args.iter().any(|a| a == "--diff") {
        return bench_diff(&args[1..]);
    }
    // `telemetry dump ...` has a positional sub-subcommand; route it
    // before the key/value flag parser too.
    if cmd == "telemetry" {
        return telemetry_cmd(&args[1..]);
    }
    // `flight export|stats|check ...` likewise take positionals.
    if cmd == "flight" {
        return flight_cmd(&args[1..]);
    }
    // `trace convert|morph|stats|split ...` likewise take positionals;
    // `trace gen ...` is `trace ...`, which routes through the flag
    // parser below.
    let mut rest = &args[1..];
    if cmd == "trace" {
        match args.get(1).map(String::as_str) {
            Some("convert") => return trace_convert(&args[2..]),
            Some("morph") => return trace_morph(&args[2..]),
            Some("stats") => return trace_stats(&args[2..]),
            Some("split") => return trace_split(&args[2..]),
            Some("gen") => rest = &args[2..],
            _ => {}
        }
    }
    let flags = |table: &FlagTable| parse_flags(cmd, table, "", rest);
    let ran = match cmd.as_str() {
        "gen" => gen(&flags(&GEN_FLAGS)?),
        "validate" => validate_cmd(&flags(&VALIDATE_FLAGS)?),
        "solve" => solve(&flags(&SOLVE_FLAGS)?),
        "online" => online(&flags(&ONLINE_FLAGS)?),
        "stats" => stats(&flags(&STATS_FLAGS)?),
        "stream" => stream(&flags(&STREAM_FLAGS)?),
        "trace" => trace(&flags(&TRACE_FLAGS)?),
        "bench" => bench(&flags(&BENCH_FLAGS)?),
        "serve" => serve_cmd(&flags(&SERVE_FLAGS)?),
        other => return Err(Failure::Usage(format!("unknown subcommand '{other}'"))),
    };
    Ok(ran?)
}

struct Flags(Vec<(String, String)>);

impl Flags {
    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn optional<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| v.parse().map_err(|_| format!("bad value for --{key}: {v}")))
            .transpose()
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.optional(key)?.unwrap_or(default))
    }

    /// [`Flags::optional`] for a count that must be at least 1.
    fn optional_positive<T: std::str::FromStr + Default + PartialEq>(
        &self,
        key: &str,
    ) -> Result<Option<T>, String> {
        let v = self.optional(key)?;
        if v == Some(T::default()) {
            return Err(format!("--{key} must be at least 1"));
        }
        Ok(v)
    }

    /// [`Flags::parsed`] for a count that must be at least 1.
    fn positive<T: std::str::FromStr + Default + PartialEq>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, String> {
        Ok(self.optional_positive(key)?.unwrap_or(default))
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }
}

/// Every flag one subcommand reads, as space-separated names: first the
/// `--name VALUE` flags, then the `--name` switches (present = "true").
/// Each subcommand keeps its table next to its function; a flag in
/// neither list is an error, so a typo (or a removed flag) fails loudly
/// instead of running with the default.
struct FlagTable(&'static str, &'static str);

/// Parse `args` for subcommand `cmd` against its `table`, keeping order.
/// A flag given twice is an error, since [`Flags::get`] would read only
/// the first; the names in `repeatable` may repeat (`trace morph` applies
/// its transforms in flag order).
fn parse_flags(
    cmd: &str,
    table: &FlagTable,
    repeatable: &str,
    args: &[String],
) -> Result<Flags, Failure> {
    let listed = |names: &str, key: &str| names.split_whitespace().any(|name| name == key);
    let mut flags: Vec<(String, String)> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .or_else(|| a.strip_prefix('-'))
            .ok_or_else(|| Failure::Usage(format!("expected a flag, found '{a}'")))?;
        if flags.iter().any(|(k, _)| k == key) && !listed(repeatable, key) {
            return Err(Failure::Usage(format!(
                "flag --{key} given more than once for '{cmd}'"
            )));
        }
        if listed(table.1, key) {
            flags.push((key.to_string(), "true".to_string()));
        } else if listed(table.0, key) {
            let val = it
                .next()
                .ok_or_else(|| Failure::Usage(format!("flag --{key} needs a value")))?;
            flags.push((key.to_string(), val.clone()));
        } else {
            return Err(Failure::Usage(format!("unknown flag --{key} for '{cmd}'")));
        }
    }
    Ok(Flags(flags))
}

fn read_instance(flags: &Flags) -> Result<Instance, String> {
    let path = flags.required("i")?;
    let data = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let inst: Instance = serde_json::from_str(&data).map_err(|e| format!("parse {path}: {e}"))?;
    inst.check().map_err(|e| format!("{path}: {e}"))?;
    Ok(inst)
}

fn read_schedule(flags: &Flags) -> Result<Schedule, String> {
    let path = flags.required("s")?;
    let data = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&data).map_err(|e| format!("parse {path}: {e}"))
}

fn write_json<T: serde::Serialize>(flags: &Flags, value: &T) -> Result<(), String> {
    let json = serde_json::to_string_pretty(value).map_err(|e| format!("serialize: {e}"))?;
    match flags.get("o") {
        Some(path) => {
            std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

const GEN_FLAGS: FlagTable = FlagTable("m flows max-release seed cap max-demand o", "");

fn gen(flags: &Flags) -> Result<(), String> {
    let m: usize = flags.positive("m", 8)?;
    let n: usize = flags.parsed("flows", 4 * m)?;
    let max_release: u64 = flags.parsed("max-release", 10)?;
    let seed: u64 = flags.parsed("seed", 42)?;
    let cap: u32 = flags.positive("cap", 1)?;
    let max_demand: u32 = flags.positive("max-demand", 1)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let inst = fss_core::gen::random_instance(
        &mut rng,
        &fss_core::gen::GenParams {
            m,
            m_out: m,
            cap,
            n,
            max_demand,
            max_release,
        },
    );
    write_json(flags, &inst)
}

const VALIDATE_FLAGS: FlagTable = FlagTable("i s augment", "");

fn validate_cmd(flags: &Flags) -> Result<(), String> {
    let inst = read_instance(flags)?;
    let sched = read_schedule(flags)?;
    let delta: u32 = flags.parsed("augment", 0)?;
    let caps = inst.switch.augmented(delta);
    match validate::check(&inst, &sched, &caps) {
        Ok(()) => {
            println!("valid (augmentation +{delta})");
            Ok(())
        }
        Err(e) => Err(format!("invalid schedule: {e}")),
    }
}

const SOLVE_FLAGS: FlagTable = FlagTable("i objective c o", "");

fn solve(flags: &Flags) -> Result<(), String> {
    let inst = read_instance(flags)?;
    match flags.required("objective")? {
        "art" => {
            let c: u32 = flags.positive("c", 1)?;
            if !inst.is_unit_demand() {
                return Err("FS-ART (Theorem 1) requires unit demands".into());
            }
            let res = solve_art(&inst, c);
            eprintln!(
                "FS-ART: total response {} (avg {:.2}) on a {}x capacity switch, window h = {}",
                res.metrics.total_response,
                res.metrics.mean_response,
                res.capacity_factor,
                res.window
            );
            write_json(flags, &res.schedule)
        }
        "mrt" => {
            let res = solve_mrt(&inst, None).map_err(|e| e.to_string())?;
            eprintln!(
                "FS-MRT: rho* = {} with +{} port capacity (2*dmax-1 = {})",
                res.rho_star,
                res.augmentation,
                2 * inst.dmax().max(1) - 1
            );
            write_json(flags, &res.schedule)
        }
        other => Err(format!("unknown objective '{other}' (use art|mrt)")),
    }
}

/// The policy a `--policy` / `--mode` value names. `online`, `stream`
/// and `serve` all read theirs here, so the three accept the spellings
/// of `BuiltinPolicy::parse` and refuse anything else in the same words.
fn parse_policy(name: &str) -> Result<BuiltinPolicy, String> {
    BuiltinPolicy::parse(name).ok_or_else(|| format!("unknown policy '{name}'"))
}

const ONLINE_FLAGS: FlagTable = FlagTable("i policy o", "");

fn online(flags: &Flags) -> Result<(), String> {
    let inst = read_instance(flags)?;
    if !inst.switch.is_unit_capacity() || !inst.is_unit_demand() {
        return Err("online policies (§5.2) require unit capacities and unit demands".into());
    }
    // Routed through the event-driven engine; schedules are
    // round-for-round identical to the reference loop's.
    let policy = parse_policy(flags.required("policy")?)?;
    let sched = flow_switch::engine::run_instance(
        &inst,
        policy.into(),
        None,
        &mut flow_switch::engine::EngineTelemetry::disabled(),
    );
    let m = metrics::evaluate(&inst, &sched);
    eprintln!(
        "online: total {} (avg {:.2}), max {}",
        m.total_response, m.mean_response, m.max_response
    );
    write_json(flags, &sched)
}

const STATS_FLAGS: FlagTable = FlagTable("i s", "");

fn stats(flags: &Flags) -> Result<(), String> {
    let inst = read_instance(flags)?;
    let sched = read_schedule(flags)?;
    if inst.n() != sched.len() {
        return Err(format!(
            "schedule covers {} flows, instance has {}",
            sched.len(),
            inst.n()
        ));
    }
    let m = metrics::evaluate(&inst, &sched);
    let p = fss_sim::response_percentiles(&inst, &sched);
    println!("flows            : {}", m.n);
    println!("makespan         : {}", m.makespan);
    println!("total response   : {}", m.total_response);
    println!("mean response    : {:.3}", m.mean_response);
    println!("p50 / p95 / p99  : {} / {} / {}", p.p50, p.p95, p.p99);
    println!("max response     : {}", m.max_response);
    let needed = validate::required_augmentation(&inst, &sched).map_err(|e| format!("{e}"))?;
    println!("needed augment   : +{needed}");
    Ok(())
}

/// `bench --diff OLD NEW`: compare two BENCH artifacts and fail (exit
/// nonzero) on regressions.
fn bench_diff(args: &[String]) -> Result<(), Failure> {
    let mut paths: Vec<&str> = Vec::new();
    for a in args {
        match a.as_str() {
            "--diff" => {}
            path if !path.starts_with('-') => paths.push(path),
            other => {
                return Err(Failure::Usage(format!(
                    "unknown bench --diff flag '{other}'"
                )))
            }
        }
    }
    let [old, new] = paths.as_slice() else {
        return Err(Failure::Usage(
            "bench --diff needs exactly two artifact paths (OLD.json NEW.json)".into(),
        ));
    };
    let diff = fss_bench::diff_artifacts(std::path::Path::new(old), std::path::Path::new(new))?;
    print!("{}", fss_bench::render_diff(&diff));
    if diff.passes() {
        Ok(())
    } else {
        Err(format!("{} regression(s) against {old}", diff.regressions()).into())
    }
}

const BENCH_FLAGS: FlagTable = FlagTable(
    "filter trace jobs out trials flight-trace",
    "paper list resume progress",
);

fn bench(flags: &Flags) -> Result<(), String> {
    if flags.get("list").is_some() {
        println!("registered experiments (cells per tier):");
        println!("  {:<24} {:>6} {:>6}  description", "id", "smoke", "paper");
        let counts = fss_bench::registry_cell_counts();
        for &(id, description, [smoke, paper]) in &counts {
            println!("  {id:<24} {smoke:>6} {paper:>6}  {description}");
        }
        let total = |i: usize| counts.iter().map(|&(_, _, c)| c[i]).sum::<usize>();
        println!("  {:<24} {:>6} {:>6}", "total", total(0), total(1));
        return Ok(());
    }
    let opts = fss_bench::BenchOptions {
        filter: flags.get("filter").map(str::to_string),
        paper: flags.get("paper").is_some(),
        jobs: flags.parsed("jobs", 0usize)?,
        out_dir: flags
            .get("out")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(fss_bench::out_dir),
        trials: flags.optional_positive("trials")?,
        trace: flags.get("trace").map(std::path::PathBuf::from),
        progress: flags.get("progress").is_some(),
        flight_trace: flags.get("flight-trace").map(std::path::PathBuf::from),
        resume: flags.get("resume").is_some(),
    };
    let started = std::time::Instant::now();
    let run = fss_bench::run_bench(&opts)?;
    let reports = &run.reports;
    fss_bench::print_reports(reports, &opts.out_dir);
    let cells: usize = reports.iter().map(|r| r.cells.len()).sum();
    let flows: u64 = reports.iter().map(|r| r.total_flows()).sum();
    println!(
        "bench: {} experiment(s), {cells} cells, {flows} work units in {:.2}s on {} worker(s)",
        reports.len(),
        started.elapsed().as_secs_f64(),
        reports.first().map_or(0, |r| r.jobs),
    );
    if opts.resume {
        println!(
            "resume: {} from checkpoint + {} executed",
            run.from_checkpoint,
            cells - run.from_checkpoint
        );
    }
    println!(
        "cell stream: {}",
        opts.out_dir.join(fss_bench::CELLS_STREAM_NAME).display()
    );
    Ok(())
}

/// Build the Poisson `ScenarioSpec` described by `--m/--rate/--rounds/
/// --seed` (the defaults mirror the pre-scenario `stream` flags).
fn poisson_spec_from_flags(flags: &Flags) -> Result<fss_sim::ScenarioSpec, String> {
    let m: usize = flags.parsed("m", 150)?;
    let rate: f64 = flags.parsed("rate", m as f64)?;
    let rounds: u64 = flags.parsed("rounds", 100)?;
    let seed: u64 = flags.parsed("seed", 42)?;
    let spec = fss_sim::ScenarioSpec::poisson(m, rate, rounds, seed);
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

/// Load `--scenario FILE` if given, else the Poisson spec from the flags.
fn spec_from_flags(flags: &Flags) -> Result<fss_sim::ScenarioSpec, String> {
    match flags.get("scenario") {
        Some(path) => fss_sim::ScenarioSpec::load(path).map_err(|e| e.to_string()),
        None => poisson_spec_from_flags(flags),
    }
}

const TRACE_FLAGS: FlagTable = FlagTable("scenario m rate rounds seed o", "");

/// `trace [gen] -o FILE (--scenario SPEC.json | [--m M] [--rate R]
/// [--rounds T] [--seed S])`: stream the workload's arrivals straight
/// to disk (no in-memory trace, so paper-scale and larger files are
/// fine).
fn trace(flags: &Flags) -> Result<(), String> {
    let spec = spec_from_flags(flags)?;
    let out = flags.required("o")?;
    if !spec.is_bounded() {
        return Err(fss_sim::ScenarioError::Unbounded.to_string());
    }
    let mut source = spec.source().map_err(|e| e.to_string())?;
    let s = fss_trace::write_trace(out, source.as_mut()).map_err(|e| e.to_string())?;
    trace_summary_line(out, &s);
    Ok(())
}

/// Split one leading positional path off `args`.
fn positional<'a>(args: &'a [String], what: &str) -> Result<(&'a str, &'a [String]), Failure> {
    match args.first() {
        Some(p) if !p.starts_with('-') => Ok((p.as_str(), &args[1..])),
        _ => Err(Failure::Usage(format!("missing {what}"))),
    }
}

fn trace_summary_line(out: &str, s: &fss_trace::TraceSummary) {
    eprintln!(
        "wrote {out}: {} arrivals on a {}x{} switch over {} rounds",
        s.flows, s.ports, s.ports, s.horizon
    );
}

/// Cite `path` in a trace error — except I/O errors, which carry their
/// own path (the morph/convert output file may be the one that failed),
/// and option errors, which are not the file's.
fn trace_err(path: &str, e: fss_trace::TraceFileError) -> String {
    match e {
        e @ (fss_trace::TraceFileError::Io { .. }
        | fss_trace::TraceFileError::ZeroOption { .. }) => e.to_string(),
        e => format!("{path}: {e}"),
    }
}

const TRACE_CONVERT_FLAGS: FlagTable = FlagTable("o ports quantum-bytes ms-per-round", "");

/// `trace convert CSV -o FILE.jsonl [--ports N] [--quantum-bytes B]
/// [--ms-per-round MS]`: coflow CSV → arrival-trace JSONL.
fn trace_convert(args: &[String]) -> Result<(), Failure> {
    let (csv, rest) = positional(args, "CSV path (trace convert FILE.csv -o FILE.jsonl)")?;
    let flags = parse_flags("trace convert", &TRACE_CONVERT_FLAGS, "", rest)?;
    let out = flags.required("o")?;
    let d = fss_trace::ConvertOptions::default();
    let opts = fss_trace::ConvertOptions {
        ports: flags.positive("ports", d.ports)?,
        quantum_bytes: flags.positive("quantum-bytes", d.quantum_bytes)?,
        ms_per_round: flags.positive("ms-per-round", d.ms_per_round)?,
    };
    let s = fss_trace::convert_file(csv, out, opts).map_err(|e| trace_err(csv, e))?;
    trace_summary_line(out, &s);
    Ok(())
}

const TRACE_MORPH_FLAGS: FlagTable = FlagTable("o scale-rate dilate skew fold window truncate", "");
/// The transforms, which may each be given more than once.
const MORPH_TRANSFORMS: &str = "scale-rate dilate skew fold window truncate";

/// `trace morph IN.jsonl -o OUT.jsonl --<transform> ...`: apply the
/// transforms **in flag order** (`--fold 32 --skew zipf:1.2` skews over
/// the folded port range; the reverse order, over the original).
fn trace_morph(args: &[String]) -> Result<(), Failure> {
    let (input, rest) = positional(args, "trace path (trace morph IN.jsonl -o OUT.jsonl ...)")?;
    let flags = parse_flags("trace morph", &TRACE_MORPH_FLAGS, MORPH_TRANSFORMS, rest)?;
    let out = flags.required("o")?;
    let specs = morph_specs(&flags)?;
    if specs.is_empty() {
        return Err(Failure::Usage(
            "trace morph needs at least one transform \
             (--scale-rate, --dilate, --skew, --fold, --window, --truncate)"
                .into(),
        ));
    }
    let s = fss_trace::morph_file(input, out, &specs).map_err(|e| trace_err(input, e))?;
    trace_summary_line(out, &s);
    Ok(())
}

/// Parse the morph transforms out of the flag list, preserving order.
fn morph_specs(flags: &Flags) -> Result<Vec<fss_trace::MorphSpec>, String> {
    use fss_trace::MorphSpec;
    let mut specs = Vec::new();
    for (key, val) in &flags.0 {
        let bad = || format!("bad value for --{key}: {val}");
        let spec = match key.as_str() {
            "o" => continue,
            "scale-rate" => MorphSpec::ScaleRate(val.parse().map_err(|_| bad())?),
            "dilate" => MorphSpec::Dilate(val.parse().map_err(|_| bad())?),
            "fold" => MorphSpec::Fold(val.parse().map_err(|_| bad())?),
            "truncate" => MorphSpec::Truncate(val.parse().map_err(|_| bad())?),
            "skew" => {
                let spec = val
                    .strip_prefix("zipf:")
                    .ok_or_else(|| format!("--skew takes zipf:THETA[:SEED], got '{val}'"))?;
                let (theta, seed) = match spec.split_once(':') {
                    None => (spec.parse().map_err(|_| bad())?, 42),
                    Some((t, s)) => (t.parse().map_err(|_| bad())?, s.parse().map_err(|_| bad())?),
                };
                MorphSpec::Skew { theta, seed }
            }
            "window" => {
                let (from, to) = val
                    .split_once(':')
                    .ok_or_else(|| format!("--window takes FROM:TO (rounds), got '{val}'"))?;
                MorphSpec::Window {
                    from: from.parse().map_err(|_| bad())?,
                    to: to.parse().map_err(|_| bad())?,
                }
            }
            other => unreachable!("--{other} is not in TRACE_MORPH_FLAGS"),
        };
        specs.push(spec);
    }
    Ok(specs)
}

const TRACE_SPLIT_FLAGS: FlagTable = FlagTable("o shards", "");

/// `trace split IN.jsonl --shards N -o PREFIX`: fan one giant trace out
/// into `N` release-sorted sub-traces `PREFIX.<k>.jsonl`, round-robin
/// by input port (`src % N`).
/// One streaming pass, O(shards) memory.
fn trace_split(args: &[String]) -> Result<(), Failure> {
    let (input, rest) = positional(
        args,
        "trace path (trace split IN.jsonl --shards N -o PREFIX)",
    )?;
    let flags = parse_flags("trace split", &TRACE_SPLIT_FLAGS, "", rest)?;
    let prefix = flags.required("o")?;
    let shards: usize = flags.positive("shards", 2)?;
    let parts = fss_trace::split_file(input, prefix, shards).map_err(|e| trace_err(input, e))?;
    for (path, s) in &parts {
        trace_summary_line(&path.display().to_string(), s);
    }
    let total: u64 = parts.iter().map(|(_, s)| s.flows).sum();
    eprintln!("split {input} into {shards} shards ({total} arrivals total)");
    Ok(())
}

/// `trace stats FILE.jsonl`: one streaming pass, O(ports) memory.
fn trace_stats(args: &[String]) -> Result<(), Failure> {
    let (path, rest) = positional(args, "trace path (trace stats FILE.jsonl)")?;
    if let Some(extra) = rest.first() {
        return Err(Failure::Usage(format!(
            "trace stats takes exactly one trace path (unexpected '{extra}')"
        )));
    }
    let st = fss_trace::scan_stats(path).map_err(|e| trace_err(path, e))?;
    let s = &st.summary;
    println!("trace            : {path}");
    println!("switch           : {}x{}", s.ports, s.ports);
    println!("flows            : {}", s.flows);
    println!("horizon          : {} rounds", s.horizon);
    println!("active rounds    : {}", st.active_rounds);
    println!("mean rate        : {:.3} arrivals/round", st.mean_rate());
    println!(
        "round burst      : p50 {} / p90 {} / p99 {} / max {}",
        st.per_round.p50(),
        st.per_round.p90(),
        st.per_round.p99(),
        st.per_round.max()
    );
    match (st.busiest_src(), st.busiest_dst()) {
        (Some((sp, sn)), Some((dp, dn))) => {
            println!("busiest src      : port {sp} ({sn} arrivals)");
            println!("busiest dst      : port {dp} ({dn} arrivals)");
        }
        _ => println!("busiest ports    : (no arrivals)"),
    }
    Ok(())
}

const STREAM_FLAGS: FlagTable = FlagTable(
    "m rate rounds seed scenario mode flight-trace stall-budget-ms",
    "metrics",
);

fn stream(flags: &Flags) -> Result<(), String> {
    let spec = spec_from_flags(flags)?;
    if !spec.is_bounded() {
        return Err("scenario is unbounded; give poisson arrivals a horizon".into());
    }
    let mode = match flags.get("mode").unwrap_or("incremental") {
        "incremental" => EngineMode::Incremental,
        name => EngineMode::Exact(parse_policy(name)?),
    };
    // Every refusal (a bad (failures, mode) pair, an unreadable trace, a
    // bad flight flag) comes before the spool file is created.
    let mode_name =
        match (&spec.failures, mode) {
            (Some(_), EngineMode::Incremental) => return Err(
                "scenario has a failure plan; pick a policy mode (maxcard|minrtime|maxweight|fifo)"
                    .into(),
            ),
            (Some(_), EngineMode::Exact(b)) => format!("failures/{}", b.name()),
            (None, EngineMode::Incremental) => "incremental".to_string(),
            (None, EngineMode::Exact(b)) => format!("exact/{}", b.name()),
        };
    let start = std::time::Instant::now();
    let source = spec.source().map_err(|e| e.to_string())?;
    let metrics = flags.get("metrics").is_some();
    let mut tele = if metrics {
        flow_switch::engine::EngineTelemetry::enabled()
    } else {
        flow_switch::engine::EngineTelemetry::disabled()
    };
    // --flight-trace OUT.json: record round and stage spans into
    // OUT.json.spool.jsonl while the engine runs, arm the stall
    // watchdog, and export the Chrome trace when the run finishes.
    // Tracing observes the run; it never steers it.
    let flight_out = flags.get("flight-trace").map(std::path::PathBuf::from);
    let flight = match &flight_out {
        None if flags.get("stall-budget-ms").is_some() => {
            return Err("--stall-budget-ms requires --flight-trace".into());
        }
        None => None,
        Some(out) => {
            let mut spool = out.as_os_str().to_os_string();
            spool.push(".spool.jsonl");
            let spool = std::path::PathBuf::from(spool);
            let inject = fss_flight::stall_inject_from_env()?;
            let budget_ms: u64 = flags.parsed(
                "stall-budget-ms",
                fss_flight::DEFAULT_STALL_BUDGET.as_millis() as u64,
            )?;
            let recorder = fss_flight::FlightRecorder::new();
            let sink = fss_flight::TraceSink::create(
                &recorder,
                &spool,
                fss_flight::DEFAULT_SPOOL_MAX_EVENTS,
            )
            .map_err(|e| format!("create flight spool {}: {e}", spool.display()))?;
            let mut handle = recorder.handle("driver");
            if let Some(inject) = inject {
                handle.set_stall_inject(inject);
            }
            let watchdog = fss_flight::StallWatchdog::spawn(
                &recorder,
                &sink,
                std::time::Duration::from_millis(budget_ms),
                |round| {
                    eprintln!(
                        "[fss-flight] watchdog: round counter stalled at round {round}; \
                         post-mortem spans dumped to the spool"
                    )
                },
            );
            tele = tele.with_flight(handle);
            Some((sink, watchdog))
        }
    };
    let stats = flow_switch::engine::run(
        source,
        mode.into(),
        spec.failures.as_ref(),
        &mut tele,
        |_, _, _| {},
    );
    let elapsed = start.elapsed();
    println!("mode             : {mode_name}");
    match &spec.arrivals {
        fss_sim::ArrivalSpec::Poisson { rate } => {
            let (m, rounds, seed) = (spec.ports, spec.horizon.unwrap_or(0), spec.seed);
            println!("switch           : {m}x{m}, Poisson({rate}) x {rounds} rounds, seed {seed}");
        }
        fss_sim::ArrivalSpec::Trace { path } => {
            println!("workload         : trace replay of {path}")
        }
    }
    println!("flows            : {}", stats.dispatched);
    println!("active rounds    : {}", stats.active_rounds);
    println!("makespan         : {}", stats.makespan);
    println!("mean response    : {:.3}", stats.mean_response());
    println!("max response     : {}", stats.max_response);
    println!("peak queue       : {}", stats.peak_queue);
    println!(
        "wall time        : {:.3} s ({:.0} flows/s)",
        elapsed.as_secs_f64(),
        stats.dispatched as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    if let Some((sink, watchdog)) = flight {
        let stalls = watchdog.finish();
        let summary = sink.finish();
        let out = flight_out.as_ref().expect("flight implies --flight-trace");
        fss_flight::export_chrome(&summary.path, out)?;
        println!(
            "flight trace     : {} ({} span(s), {} dropped, {} stall(s); spool {})",
            out.display(),
            summary.events,
            summary.dropped,
            stalls,
            summary.path.display()
        );
    }
    if metrics {
        let snap = tele.snapshot();
        println!();
        println!("# round-loop telemetry (Prometheus text format)");
        print!(
            "{}",
            flow_switch::telemetry::to_prometheus(&snap, &[("source", "stream")])
        );
    }
    Ok(())
}

const TELEMETRY_DUMP_FLAGS: FlagTable = FlagTable("i o", "");

/// `telemetry dump -i ARTIFACT [-o FILE]`: merge the per-cell telemetry
/// snapshots out of a BENCH artifact (or the snapshot of every cell in
/// a `BENCH_cells.jsonl` stream) and emit the run-level merge in
/// Prometheus text format.
fn telemetry_cmd(args: &[String]) -> Result<(), Failure> {
    let sub = args.first().map(String::as_str);
    if sub != Some("dump") {
        return Err(Failure::Usage(format!(
            "unknown telemetry subcommand {:?} (use: telemetry dump -i ARTIFACT)",
            sub.unwrap_or("<none>")
        )));
    }
    let flags = parse_flags("telemetry dump", &TELEMETRY_DUMP_FLAGS, "", &args[1..])?;
    let path = flags.required("i")?;
    let cells: Vec<fss_sim::report::BenchCell> = if path.ends_with(".jsonl") {
        fss_sim::report::read_cells_jsonl(std::path::Path::new(path))
            .map_err(|e| format!("read {path}: {e}"))?
            .cells
    } else {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        fss_sim::report::bench_report_from_json(&text)
            .map_err(|e| format!("parse {path}: {e}"))?
            .cells
    };
    let total = cells.len();
    let mut merged = flow_switch::telemetry::TelemetrySnapshot::new();
    let mut instrumented = 0usize;
    for cell in &cells {
        if let Some(t) = &cell.telemetry {
            merged.merge(t);
            instrumented += 1;
        }
    }
    if merged.is_empty() {
        return Err(format!(
            "{path}: no telemetry in any of the {total} cell(s) — rerun the bench with --progress"
        )
        .into());
    }
    let text = flow_switch::telemetry::to_prometheus(&merged, &[("artifact", path)]);
    eprintln!("{path}: merged telemetry from {instrumented}/{total} instrumented cell(s)");
    match flags.get("o") {
        Some(out) => {
            std::fs::write(out, text).map_err(|e| format!("write {out}: {e}"))?;
            eprintln!("wrote {out}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// Dispatch the `flight` sub-subcommands over `fss-flight` artifacts:
///
/// * `flight export SPOOL.jsonl -o OUT.json` — convert a raw spool
///   (e.g. a crashed worker's post-mortem) into a Chrome trace;
/// * `flight stats SPOOL.jsonl [--top K]` — slowest spans per kind and
///   slowest rounds, straight from the spool, no Perfetto needed;
/// * `flight check TRACE.json` — structurally validate an exported
///   trace (CI uses this so it needs no JSON tooling of its own).
fn flight_cmd(args: &[String]) -> Result<(), Failure> {
    let usage = "use: flight export SPOOL -o OUT.json | flight stats SPOOL [--top K] | \
                 flight check TRACE.json";
    let (sub, rest) = match args.split_first() {
        Some((sub, rest)) => (sub.as_str(), rest),
        None => {
            return Err(Failure::Usage(format!(
                "missing flight subcommand ({usage})"
            )))
        }
    };
    let (path, rest) = match rest.split_first() {
        Some((path, rest)) if !path.starts_with('-') => (path.as_str(), rest),
        _ => {
            return Err(Failure::Usage(format!(
                "flight {sub} needs a file argument ({usage})"
            )))
        }
    };
    let flags = |values| parse_flags(&format!("flight {sub}"), &FlagTable(values, ""), "", rest);
    match sub {
        "export" => {
            let flags = flags("o")?;
            let out = flags.required("o")?;
            let spool = fss_flight::export_chrome(path, out)?;
            eprintln!(
                "wrote {out}: {} span(s) on {} thread(s), {} watchdog dump(s), {} dropped",
                spool.events.len(),
                spool.threads.len(),
                spool.watchdogs.len(),
                spool.dropped + spool.truncated
            );
            Ok(())
        }
        "stats" => {
            let top: usize = flags("top")?.parsed("top", 5usize)?;
            let spool = fss_flight::read_spool(std::path::Path::new(path))?;
            let report = fss_flight::stats(&spool, top);
            print!("{}", fss_flight::render_stats(&spool, &report));
            Ok(())
        }
        "check" => {
            flags("")?;
            let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            let check = fss_flight::check_chrome(&json)?;
            println!(
                "{path}: OK — {} span(s) ({} duration events) on {} track(s), {} round-tagged",
                check.spans, check.duration_events, check.tracks, check.round_tagged
            );
            let mut names: Vec<_> = check.names.iter().collect();
            names.sort_by_key(|(_, n)| std::cmp::Reverse(**n));
            for (name, n) in names {
                println!("  {name:<14} {n}");
            }
            Ok(())
        }
        other => Err(Failure::Usage(format!(
            "unknown flight subcommand '{other}' ({usage})"
        ))),
    }
}

fn serve_policy(flags: &Flags) -> Result<fss_sim::PolicyKind, String> {
    let policy = parse_policy(flags.get("policy").unwrap_or("maxcard"))?;
    Ok(fss_sim::PolicyKind::from_engine(policy))
}

/// Session options for `serve`: the port count and failure plan come
/// from `--scenario` when given (its arrivals are ignored — arrivals
/// come over the wire), overridable/settable via `--ports`.
fn serve_session_options(flags: &Flags) -> Result<flow_switch::serve::ServeOptions, String> {
    let mut opts = flow_switch::serve::ServeOptions {
        policy: serve_policy(flags)?,
        queue_cap: flags.positive("queue-cap", 1024usize)?,
        admission: flow_switch::serve::AdmissionMode::parse(
            flags.get("admission").unwrap_or("pause"),
        )?,
        ..flow_switch::serve::ServeOptions::default()
    };
    if let Some(path) = flags.get("scenario") {
        let spec = fss_sim::ScenarioSpec::load(path).map_err(|e| e.to_string())?;
        opts.ports = spec.ports;
        opts.failures = spec.failures;
    }
    opts.ports = flags.parsed("ports", opts.ports)?;
    // `--flight-trace OUT.json` spools live spans next to the trace and
    // exports the Chrome JSON when the session ends (serve_cmd does the
    // export); `--stall-budget-ms` tunes the watchdog.
    if let Some(out) = flags.get("flight-trace") {
        let mut spool = std::ffi::OsString::from(out);
        spool.push(".spool.jsonl");
        opts.flight_spool = Some(std::path::PathBuf::from(spool));
        opts.stall_budget = flags
            .optional("stall-budget-ms")?
            .map(std::time::Duration::from_millis);
    } else if flags.get("stall-budget-ms").is_some() {
        return Err("--stall-budget-ms requires --flight-trace".into());
    }
    Ok(opts)
}

const SERVE_FLAGS: FlagTable = FlagTable(
    "ports policy queue-cap admission scenario listen metrics-listen flight-trace \
     stall-budget-ms disconnect-after m rate rounds seed replay connect skip take",
    "soak reference finish",
);

fn serve_cmd(flags: &Flags) -> Result<(), String> {
    if flags.get("soak").is_some() {
        return serve_soak(flags);
    }
    if flags.get("reference").is_some() {
        return serve_reference(flags);
    }
    if let Some(path) = flags.get("replay") {
        return serve_replay(flags, path);
    }
    let opts = serve_session_options(flags)?;
    let stats = match flags.get("listen") {
        None => flow_switch::serve::serve_stdio(opts)?,
        Some(addr) => {
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
            eprintln!(
                "serve: ingest on {}",
                listener.local_addr().map_err(|e| e.to_string())?
            );
            let metrics_listener = match flags.get("metrics-listen") {
                None => None,
                Some(maddr) => {
                    let l = std::net::TcpListener::bind(maddr)
                        .map_err(|e| format!("bind {maddr}: {e}"))?;
                    eprintln!(
                        "serve: metrics on http://{}/metrics",
                        l.local_addr().map_err(|e| e.to_string())?
                    );
                    Some(l)
                }
            };
            flow_switch::serve::run_server_on(listener, metrics_listener, opts)?
        }
    };
    eprintln!(
        "serve: {} arrived, {} admitted, {} dropped, {} dispatched ({} pauses), makespan {}",
        stats.arrived,
        stats.admitted,
        stats.dropped,
        stats.dispatched,
        stats.pauses,
        stats.makespan
    );
    // The session spooled spans while it ran (and finalized the spool on
    // finish); export the Chrome trace now that the engine is down.
    if let Some(out) = flags.get("flight-trace") {
        let mut spool = std::ffi::OsString::from(out);
        spool.push(".spool.jsonl");
        let spool = std::path::PathBuf::from(spool);
        if spool.exists() {
            let parsed = fss_flight::export_chrome(&spool, out)?;
            eprintln!(
                "serve: flight trace {out} ({} span(s), {} watchdog dump(s); spool {})",
                parsed.events.len(),
                parsed.watchdogs.len(),
                spool.display()
            );
        } else {
            eprintln!(
                "serve: no spans recorded (no arrival started the engine); {out} not written"
            );
        }
    }
    Ok(())
}

/// `serve --soak`: the built-in soak harness (see `fss_serve::run_soak`).
fn serve_soak(flags: &Flags) -> Result<(), String> {
    let spec = spec_from_flags(flags)?;
    let opts = flow_switch::serve::SoakOptions {
        policy: serve_policy(flags)?,
        queue_cap: flags.positive("queue-cap", 1024usize)?,
        disconnect_after: flags.optional("disconnect-after")?,
        ..flow_switch::serve::SoakOptions::new(spec)
    };
    let started = std::time::Instant::now();
    let report = flow_switch::serve::run_soak(&opts)?;
    let elapsed = started.elapsed().as_secs_f64();
    println!(
        "soak: {} flows through the live server in {:.2}s ({:.0} flows/s)",
        report.flows,
        elapsed,
        report.flows as f64 / elapsed.max(1e-9)
    );
    println!(
        "soak: parity OK ({} dispatch lines strict-equal to the reference), zero silent loss \
         (arrived {} = dispatched {} + dropped {})",
        report.dispatch_lines, report.stats.arrived, report.stats.dispatched, report.stats.dropped
    );
    if opts.disconnect_after.is_some() {
        println!(
            "soak: mid-run disconnect/reconnect exercised (detached marker seen: {})",
            report.detached_seen
        );
    }
    let fss_lines = report
        .scrape
        .lines()
        .filter(|l| l.starts_with("fss_"))
        .count();
    println!("soak: /metrics scrape returned {fss_lines} fss_ series");
    Ok(())
}

/// `serve --reference`: print the single-process reference dispatch
/// stream for the workload, for external strict-diffing against a live
/// serve session fed the same trace.
fn serve_reference(flags: &Flags) -> Result<(), String> {
    let spec = spec_from_flags(flags)?;
    let policy = serve_policy(flags)?;
    let trace = spec.dump_trace().map_err(|e| e.to_string())?;
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    let mut failed = false;
    fss_sim::run_source(
        Box::new(fss_sim::TraceSource::new(std::sync::Arc::new(trace))),
        policy,
        spec.failures.as_ref(),
        &mut flow_switch::engine::EngineTelemetry::disabled(),
        |id, release, round| {
            failed |= writeln!(
                out,
                "{}",
                flow_switch::serve::ServeMsg::dispatch(id, release, round).to_line()
            )
            .is_err();
        },
    );
    out.flush().map_err(|e| format!("flush stdout: {e}"))?;
    if failed {
        return Err("write reference stream to stdout".into());
    }
    Ok(())
}

/// `serve --replay FILE --connect ADDR`: play a trace file against a
/// running server, printing every response line to stdout. `--skip N`
/// skips the first N arrivals (reconnect continuation), `--take N`
/// sends at most N, `--finish` ends the session cleanly; without it
/// the client half-closes and drains to the server's Detached marker.
///
/// The trace streams straight from disk — replay memory is O(1) in
/// the trace length, so `trace gen` output far larger than RAM pipes
/// through — and is sent in canonical form, whatever its spelling on
/// disk.
fn serve_replay(flags: &Flags, path: &str) -> Result<(), String> {
    use flow_switch::engine::FlowSource;
    let addr = flags.required("connect")?;
    let skip: usize = flags.parsed("skip", 0usize)?;
    let take: usize = flags.parsed("take", usize::MAX)?;
    let finish = flags.get("finish").is_some();

    // Opening reads the header, so a non-trace file fails fast,
    // without opening a session.
    let mut trace = fss_trace::StreamingTraceSource::open(path).map_err(|e| trace_err(path, e))?;
    let trace_errors = trace.error_handle();

    let conn = std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let reader_conn = conn.try_clone().map_err(|e| e.to_string())?;
    let reader = std::thread::spawn(move || {
        let mut n = 0u64;
        let read = flow_switch::serve::read_responses(reader_conn, |line| {
            println!("{line}");
            n += 1;
        });
        (n, read)
    });
    {
        use std::io::Write;
        let mut w = std::io::BufWriter::new(&conn);
        // The header only opens a session; a reconnect continuation
        // (--skip > 0) must not resend it.
        if skip == 0 {
            writeln!(w, "{}", fss_trace::header_line(trace.ports()))
                .map_err(|e| format!("send header: {e}"))?;
        }
        let arrivals = std::iter::from_fn(|| trace.next_arrival());
        for a in arrivals.skip(skip).take(take) {
            let line = fss_trace::arrival_line(a.release, a.src, a.dst);
            writeln!(w, "{line}").map_err(|e| format!("send arrival: {e}"))?;
        }
        // A malformed line ends the source early; say so instead of
        // finishing a short session as if it were the whole trace.
        if let Some(e) = trace_errors.get() {
            return Err(trace_err(path, e));
        }
        if finish {
            writeln!(w, "{}", flow_switch::serve::ServeMsg::finish().to_line())
                .map_err(|e| format!("send finish: {e}"))?;
        }
        w.flush().map_err(|e| format!("flush: {e}"))?;
    }
    if !finish {
        conn.shutdown(std::net::Shutdown::Write)
            .map_err(|e| format!("half-close: {e}"))?;
    }
    let (received, read) = reader.join().map_err(|_| "reader thread panicked")?;
    eprintln!("replay: {received} response line(s) received");
    read
}
