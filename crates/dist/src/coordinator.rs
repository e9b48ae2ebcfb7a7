//! The coordinator: shards the flat cell list across worker processes,
//! merges their result streams into the checkpoint log and the final
//! artifacts, and survives both worker death (reassignment) and its own
//! death (`--resume` replays the checkpoint and re-executes only what
//! is missing).
//!
//! Fault model:
//!
//! * **Worker dies** (crash, OOM-kill, `kill -9`): its stdout pipe hits
//!   EOF. Cells it completed are already checkpointed (results stream
//!   per cell); its unfinished cells are re-dealt round-robin onto the
//!   surviving workers. When no worker survives, the run fails with the
//!   checkpoint intact and a `--resume` hint.
//! * **Coordinator dies**: the append-only `BENCH_cells.jsonl` stream
//!   is the checkpoint. `--resume` replays it (tolerating a truncated
//!   final line from the crash), keeps every cell whose fingerprint is
//!   in the current universe, and schedules only the rest.
//! * **Version/registry skew**: workers echo their universe size in the
//!   `Ready` handshake; a mismatch aborts the run before any cell is
//!   wasted, and an unknown assigned fingerprint aborts the worker.
//!
//! There are no timeouts: liveness is pipe-EOF (process death closes
//! the pipe), and heartbeats are logged context, not a failure
//! detector — a deliberate choice that keeps the protocol free of
//! false-positive kills on machines where a paper-tier LP cell can
//! legitimately run for an hour. A slow-but-heartbeating worker keeps
//! its cells; nothing is re-dealt until its pipe actually closes.
//! Heartbeat *payloads* (sequence number + cumulative worker snapshot)
//! feed the live `--progress` line only; the run-level telemetry in
//! [`DistSummary`] is folded from the checkpointed cells, which cannot
//! double-count.

use std::collections::{HashMap, HashSet};
use std::io::{BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::Instant;

use fss_bench::{
    assemble_reports, flatten, scale_of, select_experiments, write_reports, BenchOptions, FlatCell,
    ProgressLine, CELLS_STREAM_NAME,
};
use fss_sim::report::{bench_cell_to_jsonl, read_cells_jsonl, BenchCell, BenchReport};
use fss_telemetry::TelemetrySnapshot;

use fss_flight::{read_spool, to_chrome_merged, Spool, TraceSource};

use crate::framing;
use crate::partition::round_robin;
use crate::proto::{MsgKind, RunConfig, WireMsg, PROTO_VERSION};

/// Options for one coordinated run.
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// The underlying bench selection/scale/output options.
    pub bench: BenchOptions,
    /// Worker processes to spawn (>= 1; capped at the pending cell
    /// count).
    pub workers: usize,
    /// Replay an existing `BENCH_cells.jsonl` checkpoint and execute
    /// only the cells it is missing.
    pub resume: bool,
    /// Worker command line (program + args), e.g.
    /// `["/path/to/flowsched", "bench-worker"]`.
    pub worker_cmd: Vec<String>,
    /// Fault injection for tests/CI: `(worker_index, fail_after)` makes
    /// that worker crash without goodbye after that many results.
    pub fail_worker: Option<(usize, u64)>,
    /// Override the worker heartbeat interval in milliseconds (`None` =
    /// the worker default). Mostly for tests that need many beats per
    /// cell.
    pub heartbeat_ms: Option<u64>,
    /// Fault injection for tests/CI: `(worker_index, sleep_ms)` makes
    /// that worker sleep before each cell — slow but alive, still
    /// heartbeating. Exercises the no-timeout fault model: a stalled
    /// worker must not get its cells re-dealt.
    pub slow_worker: Option<(usize, u64)>,
    /// Write a merged Chrome Trace Format JSON here (`--flight-trace`):
    /// workers spool span traces locally under `<out_dir>/flight/`,
    /// ship the spool path in their `Done` goodbye, and the coordinator
    /// merges every spool — including those of crashed workers, read
    /// from the conventional path — with `w<id>/` track prefixes.
    pub flight_trace: Option<std::path::PathBuf>,
}

/// What a coordinated run did.
#[derive(Debug)]
pub struct DistSummary {
    /// The merged, validated reports (also persisted as artifacts).
    pub reports: Vec<BenchReport>,
    /// Cells in the selected universe.
    pub total_cells: usize,
    /// Cells satisfied from the replayed checkpoint (resume).
    pub skipped: usize,
    /// Cells executed by workers this run.
    pub executed: usize,
    /// Cells re-dealt from dead workers onto survivors.
    pub reassigned: usize,
    /// Worker processes spawned.
    pub workers_spawned: usize,
    /// Worker processes that died before finishing.
    pub workers_lost: usize,
    /// Heartbeats received (liveness context, not a gate).
    pub heartbeats: u64,
    /// Highest heartbeat sequence number seen from any worker.
    pub max_heartbeat_seq: u64,
    /// Run-level telemetry: the merge of every completed cell's
    /// snapshot (empty unless the run was instrumented via
    /// `BenchOptions::progress`). Authoritative — folded from the
    /// checkpointed cells, not from heartbeat payloads.
    pub telemetry: TelemetrySnapshot,
    /// Where the merged flight trace was written (`--flight-trace`).
    pub flight_trace: Option<std::path::PathBuf>,
    /// Span events across every merged worker spool.
    pub flight_spans: u64,
    /// Span events lost across every merged worker spool (ring laps +
    /// spool truncation).
    pub flight_dropped: u64,
}

enum Event {
    Msg(usize, Box<WireMsg>),
    /// The worker wrote something unparseable; treat it as dead.
    Corrupt(usize, String),
    Eof(usize),
}

struct WorkerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    outstanding: HashSet<String>,
    alive: bool,
    /// Highest heartbeat sequence number received from this worker.
    last_seq: u64,
    /// The latest cumulative snapshot this worker heartbeat. Replaced,
    /// never added: the payload is cumulative, so adding would double-
    /// count. Display-only — the run-level merge comes from the
    /// checkpointed cells.
    snapshot: Option<TelemetrySnapshot>,
}

impl WorkerProc {
    /// Send a message; on failure the worker is marked dead (the
    /// caller requeues its outstanding work via the EOF path or
    /// directly).
    fn send(&mut self, msg: &WireMsg) -> bool {
        let Some(stdin) = self.stdin.as_mut() else {
            return false;
        };
        let ok = writeln!(stdin, "{}", msg.to_line())
            .and_then(|()| stdin.flush())
            .is_ok();
        if !ok {
            self.alive = false;
        }
        ok
    }
}

/// Kill every still-running child on every exit path.
struct WorkerSet {
    workers: Vec<WorkerProc>,
}

impl Drop for WorkerSet {
    fn drop(&mut self) {
        for w in &mut self.workers {
            drop(w.stdin.take()); // EOF lets clean workers exit on their own
            let _ = w.child.kill();
            let _ = w.child.wait();
        }
    }
}

/// Run the distributed bench: shard, execute, checkpoint, merge.
pub fn run_dist(opts: &DistOptions) -> Result<DistSummary, String> {
    if opts.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    if opts.worker_cmd.is_empty() {
        return Err("no worker command configured".into());
    }
    let started = Instant::now();
    let selected = select_experiments(&opts.bench)?;
    let universe = flatten(&selected, &scale_of(&opts.bench))?;
    let by_fp: HashMap<&str, usize> = universe
        .iter()
        .enumerate()
        .map(|(pos, fc)| (fc.fingerprint.as_str(), pos))
        .collect();

    std::fs::create_dir_all(&opts.bench.out_dir)
        .map_err(|e| format!("create {}: {e}", opts.bench.out_dir.display()))?;
    let stream_path = opts.bench.out_dir.join(CELLS_STREAM_NAME);

    // Checkpoint replay: cells already in the stream (and still in the
    // universe) are done; everything else runs. The stream is rewritten
    // with only its valid lines so a truncated crash tail can never
    // corrupt the lines appended after it.
    let mut done: HashMap<String, BenchCell> = HashMap::new();
    if opts.resume && stream_path.exists() {
        let replay = read_cells_jsonl(&stream_path)?;
        if let Some(warning) = &replay.truncated_tail {
            eprintln!("bench --resume: {}: {warning}", stream_path.display());
        }
        let mut preserved = String::new();
        let mut foreign = 0usize;
        for cell in replay.cells {
            let in_universe = by_fp.contains_key(cell.fingerprint.as_str());
            let duplicate = in_universe && done.contains_key(&cell.fingerprint);
            if duplicate {
                continue;
            }
            preserved.push_str(&bench_cell_to_jsonl(&cell));
            preserved.push('\n');
            if in_universe {
                done.insert(cell.fingerprint.clone(), cell);
            } else {
                foreign += 1;
            }
        }
        if foreign > 0 {
            eprintln!(
                "bench --resume: {foreign} checkpointed cell(s) in {} do not belong to this \
                 selection/scale; kept in the stream, ignored for this run",
                stream_path.display()
            );
        }
        // Atomic rewrite (temp file + rename): the checkpoint is the
        // only thing standing between a crash and hours of redone
        // work, so a crash *during this rewrite* must not destroy it.
        let tmp_path = stream_path.with_extension("jsonl.rewrite");
        std::fs::write(&tmp_path, preserved)
            .map_err(|e| format!("write {}: {e}", tmp_path.display()))?;
        std::fs::rename(&tmp_path, &stream_path)
            .map_err(|e| format!("replace {}: {e}", stream_path.display()))?;
    } else {
        std::fs::write(&stream_path, "")
            .map_err(|e| format!("create {}: {e}", stream_path.display()))?;
    }
    let mut stream = std::fs::OpenOptions::new()
        .append(true)
        .open(&stream_path)
        .map_err(|e| format!("open {}: {e}", stream_path.display()))?;

    let pending: Vec<usize> = (0..universe.len())
        .filter(|&pos| !done.contains_key(universe[pos].fingerprint.as_str()))
        .collect();
    let skipped = done.len();
    let mut summary = DistSummary {
        reports: Vec::new(),
        total_cells: universe.len(),
        skipped,
        executed: 0,
        reassigned: 0,
        workers_spawned: 0,
        workers_lost: 0,
        heartbeats: 0,
        max_heartbeat_seq: 0,
        telemetry: TelemetrySnapshot::new(),
        flight_trace: None,
        flight_spans: 0,
        flight_dropped: 0,
    };
    if pending.is_empty() {
        summary.reports = finish(&selected, opts, &universe, &done, started)?;
        summary.telemetry = merged_telemetry(&summary.reports);
        return Ok(summary);
    }

    // Spawn the workers and wire their stdout into one event channel.
    let n_workers = opts.workers.min(pending.len());
    summary.workers_spawned = n_workers;
    let mut config = RunConfig::from_bench(&opts.bench)?;
    config.heartbeat_ms = opts.heartbeat_ms;
    // Flight tracing: workers spool locally under <out_dir>/flight/;
    // only the spool path + accounting come back over the pipe.
    let flight_dir = match &opts.flight_trace {
        None => None,
        Some(_) => {
            let dir = opts.bench.out_dir.join("flight");
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("create flight dir {}: {e}", dir.display()))?;
            config.flight_dir = Some(
                dir.to_str()
                    .ok_or_else(|| format!("non-UTF-8 flight dir {}", dir.display()))?
                    .to_string(),
            );
            Some(dir)
        }
    };
    let mut progress = opts
        .bench
        .progress
        .then(|| ProgressLine::new(pending.len()));
    let mut set = WorkerSet {
        workers: Vec::with_capacity(n_workers),
    };
    let (tx, rx) = mpsc::channel::<Event>();
    for i in 0..n_workers {
        let mut cmd = Command::new(&opts.worker_cmd[0]);
        cmd.args(&opts.worker_cmd[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped());
        // Workers run one cell at a time, but cell closures may fan out
        // internally (the experiment grids use rayon), and the rayon
        // shim defaults each *process* to the machine's full
        // parallelism. Forward --jobs as the per-worker thread cap so
        // `--workers 8 --jobs 2` means 8 processes x 2 threads, not
        // 8 x available_parallelism of oversubscription.
        if opts.bench.jobs > 0 {
            cmd.env("RAYON_NUM_THREADS", opts.bench.jobs.to_string());
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn worker {i} ({}): {e}", opts.worker_cmd.join(" ")))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout was piped");
        let tx = tx.clone();
        std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            loop {
                match framing::read_msg(&mut reader) {
                    Ok(Some(msg)) => {
                        if tx.send(Event::Msg(i, Box::new(msg))).is_err() {
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        let _ = tx.send(Event::Corrupt(i, e));
                        break;
                    }
                }
            }
            let _ = tx.send(Event::Eof(i));
        });
        set.workers.push(WorkerProc {
            child,
            stdin,
            outstanding: HashSet::new(),
            alive: true,
            last_seq: 0,
            snapshot: None,
        });
    }
    drop(tx); // the readers hold the only senders now

    // Handshake + initial deal. A worker that dies this early is
    // handled like any other death: its share is requeued.
    let mut initial_queue: Vec<String> = Vec::new();
    let shards = round_robin(pending.len(), n_workers);
    for (i, shard) in shards.iter().enumerate() {
        let fps: Vec<String> = shard
            .iter()
            .map(|&k| universe[pending[k]].fingerprint.clone())
            .collect();
        let fail_after = match opts.fail_worker {
            Some((w, n)) if w == i => Some(n),
            _ => None,
        };
        let slow_ms = match opts.slow_worker {
            Some((w, ms)) if w == i => Some(ms),
            _ => None,
        };
        let hello = WireMsg::hello(i as u64, config.clone(), fail_after).with_slow_ms(slow_ms);
        let w = &mut set.workers[i];
        if w.send(&hello) && w.send(&WireMsg::assign(fps.clone())) {
            w.outstanding.extend(fps);
        } else {
            summary.workers_lost += 1;
            initial_queue.extend(fps);
        }
    }
    if !initial_queue.is_empty() {
        summary.reassigned += initial_queue.len();
        redistribute(&mut set.workers, initial_queue, &mut summary)
            .map_err(|e| no_survivors_msg(&e, &stream_path, pending.len()))?;
    }

    // Merge loop: every event is a worker message, a corrupt line, or a
    // pipe EOF. Results are checkpointed the moment they arrive.
    let mut remaining = pending.len();
    while remaining > 0 {
        let event = rx
            .recv()
            .map_err(|_| "event channel closed with cells still pending".to_string())?;
        match event {
            Event::Msg(i, msg) => match msg.kind {
                MsgKind::Ready => {
                    if msg.proto != Some(PROTO_VERSION) {
                        return Err(format!(
                            "worker {i} speaks protocol {:?}, coordinator speaks {PROTO_VERSION}",
                            msg.proto
                        ));
                    }
                    if msg.cells != Some(universe.len() as u64) {
                        return Err(format!(
                            "worker {i} expanded {:?} cells, coordinator expanded {} — \
                             worker binary or registry has diverged",
                            msg.cells,
                            universe.len()
                        ));
                    }
                }
                MsgKind::Result => {
                    let cell = msg
                        .cell
                        .ok_or_else(|| format!("worker {i} sent a Result without a cell"))?;
                    if !by_fp.contains_key(cell.fingerprint.as_str()) {
                        return Err(format!(
                            "worker {i} returned cell {} with unknown fingerprint {}",
                            cell.cell_id, cell.fingerprint
                        ));
                    }
                    set.workers[i].outstanding.remove(&cell.fingerprint);
                    if done.contains_key(&cell.fingerprint) {
                        continue; // late duplicate after a reassignment race
                    }
                    writeln!(stream, "{}", bench_cell_to_jsonl(&cell))
                        .map_err(|e| format!("append {}: {e}", stream_path.display()))?;
                    if let Some(p) = &mut progress {
                        let status = p.record(&cell);
                        eprintln!("[fss-dist] {status} · {} (w{i})", cell.cell_id);
                    }
                    done.insert(cell.fingerprint.clone(), cell);
                    summary.executed += 1;
                    remaining -= 1;
                }
                MsgKind::Heartbeat => {
                    summary.heartbeats += 1;
                    let w = &mut set.workers[i];
                    if let Some(seq) = msg.seq {
                        // The payload is cumulative, so only a *newer*
                        // beat replaces the stored snapshot; a stale or
                        // reordered one is dropped.
                        if seq > w.last_seq {
                            w.last_seq = seq;
                            w.snapshot = msg.snapshot;
                            summary.max_heartbeat_seq = summary.max_heartbeat_seq.max(seq);
                        }
                    }
                    if let Some(p) = &progress {
                        let at_worker = set.workers[i]
                            .snapshot
                            .as_ref()
                            .and_then(|s| s.counter("worker_cells_done"))
                            .unwrap_or(0);
                        eprintln!(
                            "[fss-dist] {} · hb w{i} #{} ({at_worker} done at worker)",
                            p.line(),
                            set.workers[i].last_seq
                        );
                    }
                }
                MsgKind::Error => {
                    eprintln!(
                        "bench worker {i}: {}",
                        msg.error.as_deref().unwrap_or("unknown error")
                    );
                    // The worker exits after reporting; EOF follows and
                    // triggers the reassignment below.
                }
                MsgKind::Done => {} // goodbye after Shutdown
                other => {
                    return Err(format!("worker {i} sent unexpected {other:?}"));
                }
            },
            Event::Corrupt(i, e) => {
                eprintln!("bench worker {i}: unparseable output ({e}); treating it as dead");
                bury(&mut set.workers, i, &mut summary, &stream_path, remaining)?;
            }
            Event::Eof(i) => {
                if set.workers[i].alive || !set.workers[i].outstanding.is_empty() {
                    bury(&mut set.workers, i, &mut summary, &stream_path, remaining)?;
                }
            }
        }
    }

    // All cells merged: ask the survivors to exit cleanly, then reap
    // them (WorkerSet::drop also closes stdin, so even a worker that
    // missed the Shutdown message exits on EOF).
    for w in set.workers.iter_mut().filter(|w| w.alive) {
        w.send(&WireMsg::shutdown());
    }

    // Flighted runs wait for the goodbyes: `Done` carries each
    // worker's spool path and accounting, and arrives only after the
    // worker finalized its spool. Liveness is still pipe-EOF — a
    // worker that dies instead of saying goodbye just closes its pipe,
    // and its spool is read from the conventional path below.
    let mut goodbyes: Vec<Option<(String, u64, u64)>> = vec![None; n_workers];
    if flight_dir.is_some() {
        let mut awaiting: HashSet<usize> =
            (0..n_workers).filter(|&k| set.workers[k].alive).collect();
        while !awaiting.is_empty() {
            let Ok(event) = rx.recv() else { break };
            match event {
                Event::Msg(i, msg) if msg.kind == MsgKind::Done => {
                    if let Some(spool) = msg.flight_spool {
                        goodbyes[i] = Some((
                            spool,
                            msg.flight_spans.unwrap_or(0),
                            msg.flight_dropped.unwrap_or(0),
                        ));
                    }
                    awaiting.remove(&i);
                }
                Event::Msg(..) => {} // late heartbeats
                Event::Eof(i) | Event::Corrupt(i, _) => {
                    awaiting.remove(&i);
                }
            }
        }
    }
    drop(set);
    drop(stream);

    if let (Some(dir), Some(out)) = (&flight_dir, &opts.flight_trace) {
        let mut parsed: Vec<(usize, Spool)> = Vec::new();
        for (i, goodbye) in goodbyes.iter().enumerate() {
            let path = match goodbye {
                Some((p, _, _)) => std::path::PathBuf::from(p),
                // No goodbye (crashed or pre-v3 worker): the per-cell
                // drains still left a readable spool at the
                // conventional path, if tracing got far enough.
                None => dir.join(format!("w{i}.spool.jsonl")),
            };
            if !path.exists() {
                continue;
            }
            match read_spool(&path) {
                Ok(s) => parsed.push((i, s)),
                Err(e) => eprintln!(
                    "bench --flight-trace: skipping unreadable spool {}: {e}",
                    path.display()
                ),
            }
        }
        for (_, s) in &parsed {
            summary.flight_spans += s.events.len() as u64;
            summary.flight_dropped += s.dropped + s.truncated;
        }
        let sources: Vec<TraceSource<'_>> = parsed
            .iter()
            .map(|(i, s)| TraceSource {
                pid: *i as u32 + 1,
                prefix: format!("w{i}/"),
                spool: s,
            })
            .collect();
        std::fs::write(out, to_chrome_merged(&sources))
            .map_err(|e| format!("write {}: {e}", out.display()))?;
        summary.flight_trace = Some(out.clone());
    }

    summary.reports = finish(&selected, opts, &universe, &done, started)?;
    summary.telemetry = merged_telemetry(&summary.reports);
    Ok(summary)
}

/// The authoritative run-level telemetry merge: fold every completed
/// cell's snapshot from the assembled reports. Heartbeat payloads are
/// deliberately *not* part of this — they are cumulative per-worker
/// views for live display, and mixing them in would double-count.
fn merged_telemetry(reports: &[BenchReport]) -> TelemetrySnapshot {
    let mut merged = TelemetrySnapshot::new();
    for report in reports {
        for cell in &report.cells {
            if let Some(t) = &cell.telemetry {
                merged.merge(t);
            }
        }
    }
    merged
}

/// Mark worker `i` dead and redistribute its unfinished cells.
fn bury(
    workers: &mut [WorkerProc],
    i: usize,
    summary: &mut DistSummary,
    stream_path: &std::path::Path,
    remaining: usize,
) -> Result<(), String> {
    let w = &mut workers[i];
    if w.alive {
        w.alive = false;
        summary.workers_lost += 1;
    }
    drop(w.stdin.take());
    let _ = w.child.kill();
    let _ = w.child.wait();
    let orphans: Vec<String> = w.outstanding.drain().collect();
    if orphans.is_empty() {
        return Ok(());
    }
    eprintln!(
        "bench worker {i} died with {} cell(s) unfinished; redistributing to survivors",
        orphans.len()
    );
    summary.reassigned += orphans.len();
    redistribute(workers, orphans, summary)
        .map_err(|e| no_survivors_msg(&e, stream_path, remaining))
}

/// Deal `queue` round-robin across the live workers, retrying until the
/// queue is empty or nobody is left.
fn redistribute(
    workers: &mut [WorkerProc],
    mut queue: Vec<String>,
    summary: &mut DistSummary,
) -> Result<(), String> {
    while !queue.is_empty() {
        let alive: Vec<usize> = (0..workers.len()).filter(|&k| workers[k].alive).collect();
        if alive.is_empty() {
            return Err(format!("{} cell(s) could not be reassigned", queue.len()));
        }
        let shards = round_robin(queue.len(), alive.len());
        let mut requeue: Vec<String> = Vec::new();
        for (slot, shard) in shards.iter().enumerate() {
            if shard.is_empty() {
                continue;
            }
            let fps: Vec<String> = shard.iter().map(|&k| queue[k].clone()).collect();
            let w = &mut workers[alive[slot]];
            if w.send(&WireMsg::assign(fps.clone())) {
                w.outstanding.extend(fps);
            } else {
                // This worker is dying too; its own EOF event will
                // handle anything it already held.
                summary.workers_lost += 1;
                requeue.extend(fps);
            }
        }
        queue = requeue;
    }
    Ok(())
}

fn no_survivors_msg(inner: &str, stream_path: &std::path::Path, remaining: usize) -> String {
    format!(
        "all workers died with {remaining} cell(s) still pending ({inner}); completed cells \
         are checkpointed in {} — rerun with --resume to pick up where this run stopped",
        stream_path.display()
    )
}

/// Assemble the merged reports from the done-map and persist them.
fn finish(
    selected: &[fss_bench::Experiment],
    opts: &DistOptions,
    universe: &[FlatCell],
    done: &HashMap<String, BenchCell>,
    started: Instant,
) -> Result<Vec<BenchReport>, String> {
    let mut executed: Vec<(usize, usize, BenchCell)> = Vec::with_capacity(universe.len());
    for fc in universe {
        let cell = done
            .get(fc.fingerprint.as_str())
            .ok_or_else(|| format!("cell {} finished nowhere", fc.spec.id))?;
        executed.push((fc.exp, fc.idx, cell.clone()));
    }
    let reports = assemble_reports(
        selected,
        opts.bench.smoke,
        opts.workers as u64,
        started.elapsed().as_secs_f64(),
        executed,
    )?;
    write_reports(&reports, &opts.bench.out_dir)?;
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(workers: usize) -> DistOptions {
        DistOptions {
            bench: BenchOptions::default(),
            workers,
            resume: false,
            worker_cmd: vec!["true".into()],
            fail_worker: None,
            heartbeat_ms: None,
            slow_worker: None,
            flight_trace: None,
        }
    }

    #[test]
    fn zero_workers_and_empty_command_are_rejected() {
        let err = run_dist(&opts(0)).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
        let mut o = opts(2);
        o.worker_cmd.clear();
        let err = run_dist(&o).unwrap_err();
        assert!(err.contains("worker command"), "{err}");
    }

    #[test]
    fn unknown_filter_fails_before_spawning_anything() {
        let mut o = opts(2);
        o.bench.filter = Some("no-such-experiment".into());
        let err = run_dist(&o).unwrap_err();
        assert!(err.contains("no experiment matches"), "{err}");
    }

    #[test]
    fn workers_that_speak_no_protocol_fail_the_run_with_resume_hint() {
        // `true` exits immediately: every worker EOFs with its whole
        // shard outstanding and nobody survives.
        let mut o = opts(2);
        o.bench.filter = Some("table_gaps".into());
        o.bench.smoke = true;
        o.bench.out_dir = std::env::temp_dir().join("fss-dist-test-noproto");
        let _ = std::fs::remove_dir_all(&o.bench.out_dir);
        let err = run_dist(&o).unwrap_err();
        assert!(err.contains("--resume"), "{err}");
        assert!(err.contains("all workers died"), "{err}");
    }
}
