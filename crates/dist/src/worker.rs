//! The worker side of the protocol: `flowsched bench-worker`.
//!
//! A worker is a dumb executor. It reads `Hello`, expands the *same*
//! flat cell list the coordinator did (same binary, same registry, same
//! fingerprints), answers `Ready` with the universe size so version
//! skew is caught at handshake time, then executes `Assign`ed
//! fingerprints one at a time, streaming each `Result` back as soon as
//! the cell finishes. A background thread heartbeats so the coordinator
//! can tell "long LP cell" from "hung worker" in its logs; each
//! heartbeat carries a strictly increasing sequence number and the
//! worker's *cumulative* telemetry snapshot (completed-cell telemetry
//! plus a `worker_cells_done` counter), so the coordinator can show
//! live progress without waiting on the result stream. Workers
//! never write results to the filesystem — checkpointing is the
//! coordinator's job. The one local artifact is the v3 flight spool:
//! when the run config carries a `flight_dir`, the worker records one
//! `Cell` span per executed cell (round-tagged with the execution
//! index) into `<flight_dir>/w<id>.spool.jsonl`, drained after every
//! cell so a crashed worker still leaves a readable post-mortem, and
//! ships only the spool path + accounting in its `Done` goodbye.
//!
//! The loop is generic over its transport (`BufRead` in, `Write` out),
//! so tests drive it in-process over byte buffers; production wires it
//! to stdin/stdout via [`worker_main`].

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fss_bench::{execute_cell, flatten, scale_of, select_experiments, FlatCell};
use fss_flight::{FlightHandle, FlightRecorder, SpanKind, TraceSink, DEFAULT_SPOOL_MAX_EVENTS};
use fss_telemetry::TelemetrySnapshot;

use crate::framing::{read_msg, send_msg as send};
use crate::proto::{MsgKind, WireMsg, PROTO_VERSION};

/// How often the background thread emits `Heartbeat` messages, unless
/// the run config overrides it (`RunConfig::heartbeat_ms`).
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(500);

/// Error marker for injected crashes (`fail_after` in `Hello`): the
/// worker dies *without* a protocol goodbye, like a `kill -9`, so the
/// coordinator's EOF/reassignment path — not the polite `Error` path —
/// is what gets exercised.
pub const INJECTED_CRASH: &str = "injected worker crash (fail_after reached)";

/// Run the worker protocol over the given transport until `Shutdown`,
/// EOF, or a fatal error. On error (other than an injected crash) a
/// best-effort `Error` message is sent before returning.
pub fn run_worker<R: BufRead, W: Write + Send + 'static>(
    mut input: R,
    output: W,
) -> Result<(), String> {
    let output = Arc::new(Mutex::new(output));

    // Handshake: Hello carries the config; Ready answers with the
    // universe size.
    let hello = match read_msg(&mut input)? {
        Some(m) if m.kind == MsgKind::Hello => m,
        Some(m) => return Err(format!("expected Hello, got {:?}", m.kind)),
        None => return Err("EOF before Hello".into()),
    };
    if hello.proto != Some(PROTO_VERSION) {
        let err = format!(
            "protocol version mismatch: coordinator speaks {:?}, worker speaks {PROTO_VERSION}",
            hello.proto
        );
        let _ = send(&output, &WireMsg::error(&err));
        return Err(err);
    }
    let config = hello.config.ok_or("Hello carried no run config")?;
    let worker_id = hello.worker.unwrap_or(0);
    let fail_after = hello.fail_after;
    let slow_ms = hello.slow_ms;
    let interval = config
        .heartbeat_ms
        .map(Duration::from_millis)
        .unwrap_or(HEARTBEAT_INTERVAL);

    // Flight tracing (proto v3): spool Cell spans locally, drained
    // after every cell so even a crashed worker leaves a readable
    // post-mortem. Only the path + accounting travel on the wire.
    let mut flight: Option<(TraceSink, FlightHandle)> = match &config.flight_dir {
        None => None,
        Some(dir) => {
            let setup = (|| -> Result<(TraceSink, FlightHandle), String> {
                let dir = std::path::Path::new(dir);
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("create flight dir {}: {e}", dir.display()))?;
                let spool = dir.join(format!("w{worker_id}.spool.jsonl"));
                let recorder = FlightRecorder::new();
                let sink = TraceSink::create(&recorder, &spool, DEFAULT_SPOOL_MAX_EVENTS)
                    .map_err(|e| format!("create flight spool {}: {e}", spool.display()))?;
                let handle = recorder.handle("cells");
                Ok((sink, handle))
            })();
            match setup {
                Ok(f) => Some(f),
                Err(e) => {
                    let _ = send(&output, &WireMsg::error(&e));
                    return Err(e);
                }
            }
        }
    };

    let universe = (|| -> Result<Vec<FlatCell>, String> {
        let opts = config.to_bench();
        let selected = select_experiments(&opts)?;
        flatten(&selected, &scale_of(&opts))
    })();
    let universe = match universe {
        Ok(u) => u,
        Err(e) => {
            let err = format!("worker could not expand the cell universe: {e}");
            let _ = send(&output, &WireMsg::error(&err));
            return Err(err);
        }
    };
    let index: HashMap<&str, &FlatCell> = universe
        .iter()
        .map(|fc| (fc.fingerprint.as_str(), fc))
        .collect();
    send(&output, &WireMsg::ready(universe.len() as u64))?;

    // Heartbeats: cells can run for minutes (paper-tier LP solves), so
    // liveness comes from a background thread, not the result stream.
    // Each beat snapshots the shared accumulator (completed-cell
    // telemetry + `worker_cells_done`) under a fresh sequence number.
    let stop = Arc::new(AtomicBool::new(false));
    let accum = Arc::new(Mutex::new(TelemetrySnapshot::new()));
    let seq = Arc::new(AtomicU64::new(0));
    let beat = {
        let output = Arc::clone(&output);
        let stop = Arc::clone(&stop);
        let accum = Arc::clone(&accum);
        let seq = Arc::clone(&seq);
        std::thread::spawn(move || {
            let slice = Duration::from_millis(interval.as_millis().clamp(1, 50) as u64);
            let slices = (interval.as_millis() / slice.as_millis()).max(1) as u32;
            'outer: loop {
                for _ in 0..slices {
                    if stop.load(Ordering::Relaxed) {
                        break 'outer;
                    }
                    std::thread::sleep(slice);
                }
                let snapshot = match accum.lock() {
                    Ok(a) => a.clone(),
                    Err(_) => break,
                };
                let n = seq.fetch_add(1, Ordering::Relaxed) + 1;
                if send(&output, &WireMsg::heartbeat(n, snapshot)).is_err() {
                    break; // coordinator is gone; the main loop will see it too
                }
            }
        })
    };

    let result = (|| -> Result<(), String> {
        let mut executed = 0u64;
        while let Some(msg) = read_msg(&mut input)? {
            match msg.kind {
                MsgKind::Assign => {
                    for fp in msg.assign.unwrap_or_default() {
                        let fc = index.get(fp.as_str()).ok_or_else(|| {
                            format!("assigned unknown fingerprint {fp} (registry skew?)")
                        })?;
                        if let Some(ms) = slow_ms {
                            // Fault injection: a slow-but-alive worker,
                            // for exercising the heartbeats-are-not-a-
                            // failure-detector invariant in tests.
                            std::thread::sleep(Duration::from_millis(ms));
                        }
                        let cell_t0 = Instant::now();
                        let cell = execute_cell(fc);
                        if let Some((sink, h)) = flight.as_mut() {
                            // Round-tag with the execution index so the
                            // merged trace orders cells per worker.
                            h.round_tag(executed);
                            h.record(SpanKind::Cell, cell_t0, Instant::now());
                            sink.drain();
                        }
                        {
                            let mut a = accum.lock().map_err(|_| "telemetry mutex poisoned")?;
                            if let Some(t) = &cell.telemetry {
                                a.merge(t);
                            }
                            a.add_counter("worker_cells_done", 1);
                        }
                        send(&output, &WireMsg::result(cell))?;
                        executed += 1;
                        if Some(executed) == fail_after {
                            return Err(INJECTED_CRASH.into());
                        }
                    }
                }
                MsgKind::Shutdown => {
                    let goodbye = match flight.as_ref() {
                        None => WireMsg::done(),
                        Some((sink, _)) => {
                            let s = sink.finish();
                            WireMsg::done().with_flight(
                                s.path.display().to_string(),
                                s.events,
                                s.dropped,
                            )
                        }
                    };
                    send(&output, &goodbye)?;
                    return Ok(());
                }
                other => return Err(format!("unexpected {other:?} from coordinator")),
            }
        }
        Ok(()) // EOF: coordinator exited; nothing left to do
    })();

    stop.store(true, Ordering::Relaxed);
    let _ = beat.join();
    // EOF/crash exits skipped the Shutdown goodbye: drain whatever the
    // rings still hold so the on-disk spool is a complete post-mortem.
    // (No finalize — the Shutdown path already finalized, and doing it
    // twice would double-write the accounting metas.)
    if let Some((sink, _)) = &flight {
        sink.drain();
    }
    if let Err(e) = &result {
        if e != INJECTED_CRASH {
            let _ = send(&output, &WireMsg::error(e));
        }
    }
    result
}

/// Entry point for the hidden `flowsched bench-worker` subcommand:
/// run the protocol over stdin/stdout.
pub fn worker_main() -> Result<(), String> {
    run_worker(std::io::stdin().lock(), std::io::stdout())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::RunConfig;
    use fss_sim::report::{cells_eq_modulo_timing, BenchCell};
    use std::io::Cursor;

    /// A `Write` handle tests can inspect after the worker returns.
    #[derive(Clone)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn gaps_config() -> RunConfig {
        RunConfig {
            filter: Some("table_gaps".into()),
            smoke: true,
            paper: false,
            trials: Some(1),
            trace: None,
            progress: false,
            heartbeat_ms: None,
            flight_dir: None,
        }
    }

    fn gaps_universe() -> Vec<FlatCell> {
        let opts = gaps_config().to_bench();
        let selected = select_experiments(&opts).unwrap();
        flatten(&selected, &scale_of(&opts)).unwrap()
    }

    fn script(msgs: &[WireMsg]) -> Cursor<Vec<u8>> {
        let mut text = String::new();
        for m in msgs {
            text.push_str(&m.to_line());
            text.push('\n');
        }
        Cursor::new(text.into_bytes())
    }

    fn drive(msgs: &[WireMsg]) -> (Result<(), String>, Vec<WireMsg>) {
        let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        let result = run_worker(script(msgs), buf.clone());
        let bytes = buf.0.lock().unwrap().clone();
        let out = String::from_utf8(bytes).unwrap();
        let parsed = out
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| WireMsg::parse(l).expect("worker emits valid protocol lines"))
            .collect();
        (result, parsed)
    }

    #[test]
    fn scripted_session_executes_assignments_and_says_goodbye() {
        let universe = gaps_universe();
        let fps: Vec<String> = universe.iter().map(|f| f.fingerprint.clone()).collect();
        let (result, out) = drive(&[
            WireMsg::hello(0, gaps_config(), None),
            WireMsg::assign(fps.clone()),
            WireMsg::shutdown(),
        ]);
        result.expect("clean session");
        // Ignore heartbeats (timing-dependent); the rest is fully
        // deterministic: Ready, one Result per assigned cell, Done.
        let solid: Vec<&WireMsg> = out
            .iter()
            .filter(|m| m.kind != MsgKind::Heartbeat)
            .collect();
        assert_eq!(solid[0].kind, MsgKind::Ready);
        assert_eq!(solid[0].cells, Some(universe.len() as u64));
        assert_eq!(solid.last().unwrap().kind, MsgKind::Done);
        let results: Vec<&BenchCell> = solid
            .iter()
            .filter(|m| m.kind == MsgKind::Result)
            .map(|m| m.cell.as_ref().expect("results carry a cell"))
            .collect();
        assert_eq!(results.len(), fps.len());
        for (fp, cell) in fps.iter().zip(&results) {
            assert_eq!(
                &cell.fingerprint, fp,
                "results come back in assignment order"
            );
        }
        // The cells match a direct in-process execution modulo timing.
        for (fc, got) in universe.iter().zip(&results) {
            let want = execute_cell(fc);
            assert!(cells_eq_modulo_timing(&want, got));
        }
    }

    #[test]
    fn heartbeats_carry_sequenced_cumulative_snapshots() {
        let mut cfg = gaps_config();
        cfg.heartbeat_ms = Some(1);
        let fps: Vec<String> = gaps_universe()
            .iter()
            .map(|f| f.fingerprint.clone())
            .collect();
        // slow_ms stretches each cell so the 1ms beat loop observably
        // outpaces the result stream.
        let (result, out) = drive(&[
            WireMsg::hello(0, cfg, None).with_slow_ms(Some(10)),
            WireMsg::assign(fps),
            WireMsg::shutdown(),
        ]);
        result.expect("clean session");
        let beats: Vec<&WireMsg> = out
            .iter()
            .filter(|m| m.kind == MsgKind::Heartbeat)
            .collect();
        assert!(
            !beats.is_empty(),
            "30ms of injected work at a 1ms interval must produce beats"
        );
        let seqs: Vec<u64> = beats
            .iter()
            .map(|m| m.seq.expect("v2 heartbeats carry a sequence number"))
            .collect();
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "heartbeat sequence numbers are strictly increasing: {seqs:?}"
        );
        // The payload is the cumulative snapshot: once a cell finishes,
        // later beats report it via the worker_cells_done counter.
        let max_done = beats
            .iter()
            .filter_map(|m| m.snapshot.as_ref())
            .filter_map(|s| s.counter("worker_cells_done"))
            .max()
            .unwrap_or(0);
        assert!(
            (1..=3).contains(&max_done),
            "beats after the first completed cell carry its count, got {max_done}"
        );
    }

    #[test]
    fn a_flighted_worker_spools_cell_spans_and_ships_the_accounting() {
        let dir = std::env::temp_dir().join("fss-dist-test-worker-flight");
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = gaps_config();
        cfg.flight_dir = Some(dir.to_str().unwrap().to_string());
        let universe = gaps_universe();
        let fps: Vec<String> = universe.iter().map(|f| f.fingerprint.clone()).collect();
        let (result, out) = drive(&[
            WireMsg::hello(5, cfg, None),
            WireMsg::assign(fps.clone()),
            WireMsg::shutdown(),
        ]);
        result.expect("clean session");

        // The goodbye carries the spool path and accounting...
        let done = out
            .iter()
            .find(|m| m.kind == MsgKind::Done)
            .expect("worker says goodbye");
        let spool_path = done
            .flight_spool
            .as_deref()
            .expect("flighted goodbye names the spool");
        assert!(
            spool_path.ends_with("w5.spool.jsonl"),
            "spool is named after the worker id from Hello: {spool_path}"
        );
        assert_eq!(
            done.flight_spans,
            Some(fps.len() as u64),
            "one Cell span per cell"
        );
        assert_eq!(done.flight_dropped, Some(0));

        // ...and the spool itself holds one round-tagged Cell span per
        // executed cell, in execution order.
        let spool = fss_flight::read_spool(std::path::Path::new(spool_path)).unwrap();
        let cells: Vec<_> = spool
            .events
            .iter()
            .filter(|e| e.kind == SpanKind::Cell)
            .collect();
        assert_eq!(cells.len(), fps.len());
        let rounds: Vec<u64> = cells.iter().map(|e| e.round).collect();
        let want: Vec<u64> = (0..fps.len() as u64).collect();
        assert_eq!(rounds, want, "rounds are the execution indices");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn split_assignments_and_eof_without_shutdown_are_fine() {
        let fps: Vec<String> = gaps_universe()
            .iter()
            .map(|f| f.fingerprint.clone())
            .collect();
        let (first, rest) = fps.split_at(1);
        let (result, out) = drive(&[
            WireMsg::hello(1, gaps_config(), None),
            WireMsg::assign(first.to_vec()),
            WireMsg::assign(rest.to_vec()),
            // no Shutdown: the script just ends (coordinator vanished)
        ]);
        result.expect("EOF is a clean exit");
        let results = out.iter().filter(|m| m.kind == MsgKind::Result).count();
        assert_eq!(results, fps.len());
        assert!(!out.iter().any(|m| m.kind == MsgKind::Done));
    }

    #[test]
    fn fail_after_crashes_without_goodbye() {
        let fps: Vec<String> = gaps_universe()
            .iter()
            .map(|f| f.fingerprint.clone())
            .collect();
        let (result, out) = drive(&[
            WireMsg::hello(0, gaps_config(), Some(2)),
            WireMsg::assign(fps.clone()),
            WireMsg::shutdown(),
        ]);
        assert_eq!(result.unwrap_err(), INJECTED_CRASH);
        let results = out.iter().filter(|m| m.kind == MsgKind::Result).count();
        assert_eq!(results, 2, "crashed after exactly fail_after results");
        // Like a kill -9: no Done, no Error message.
        assert!(!out
            .iter()
            .any(|m| m.kind == MsgKind::Done || m.kind == MsgKind::Error));
    }

    #[test]
    fn protocol_violations_are_reported() {
        // Wrong version.
        let mut bad = WireMsg::hello(0, gaps_config(), None);
        bad.proto = Some(PROTO_VERSION + 1);
        let (result, out) = drive(&[bad]);
        assert!(result.unwrap_err().contains("version mismatch"));
        assert!(out.iter().any(|m| m.kind == MsgKind::Error));

        // Unknown fingerprint.
        let (result, out) = drive(&[
            WireMsg::hello(0, gaps_config(), None),
            WireMsg::assign(vec!["deadbeefdeadbeef".into()]),
        ]);
        assert!(result.unwrap_err().contains("unknown fingerprint"));
        assert!(out.iter().any(|m| m.kind == MsgKind::Error));

        // Unmatched filter: reported before Ready.
        let mut cfg = gaps_config();
        cfg.filter = Some("no-such-experiment".into());
        let (result, out) = drive(&[WireMsg::hello(0, cfg, None)]);
        assert!(result.unwrap_err().contains("no experiment matches"));
        assert!(out.iter().any(|m| m.kind == MsgKind::Error));
        assert!(!out.iter().any(|m| m.kind == MsgKind::Ready));
    }
}
