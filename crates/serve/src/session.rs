//! The transport-free serve session: sink + admission gate + engine
//! thread.
//!
//! A [`ServeSession`] is the whole serve process minus I/O: feed it
//! ingest lines one at a time ([`ServeSession::ingest_line`]) and it
//! writes response lines to a [`Sink`]. The TCP server, the stdio mode,
//! and the in-process test harnesses are all thin loops around the same
//! session, each reading its input through [`fss_sim::Lines`] (capped
//! by `framing`) — tests drive byte buffers through [`serve_reader`]
//! and read the responses back out of a [`Sink::capture`] buffer, so
//! the differential and admission suites exercise the identical code
//! path the socket server runs.
//!
//! A session admits arrivals by the trace rule: one
//! [`fss_sim::ArrivalCheck`], built when the first arrival starts the
//! engine, holds them to the session's port count, nondecreasing
//! releases and the release bound, and cites the ingest line number of
//! a violation, as a trace reader cites the file's. A violation ends
//! the session with an `Error` line. The admission gate behind it only
//! queues, sheds or blocks, and refuses an id past the engine's bound.
//!
//! The engine runs on its own thread, consuming admitted arrivals from
//! a blocking [`ChannelSource`] through [`fss_sim::run_source`]
//! — the same dispatch core as every batch run, which is what makes the
//! live schedule bit-identical to trace replay (see the crate docs).
//! Dispatch decisions reach the sink from that thread; ingest reports
//! (`Paused`/`Resumed`/`Dropped`) from the caller's thread. The sink
//! serializes the interleaving.
//!
//! ## When bytes reach the writer
//!
//! The nine rare message kinds are written and flushed as they happen,
//! one `write` each. `Dispatch` lines — one per flow, nearly all of the
//! stream — are rendered into a buffer on the engine thread and handed to
//! the sink whole, under one lock with one write and one flush, at
//! exactly three moments:
//!
//! * **idle** — the engine asks for the next arrival and the ingest queue
//!   is empty, so it is about to sleep for as long as the producer likes;
//! * **16 KiB** — the buffer passes [`FLUSH_BYTES`], so a producer that
//!   never lets the queue run dry still gets its replies in bounded
//!   pieces and the buffer never grows;
//! * **drain** — the engine returns (after `Finish`, EOF, or a fatal
//!   error closed the gate), before `Stats` is written.
//!
//! So nothing is ever left unwritten while the engine waits: a client
//! that sends a round and waits for its dispatches before sending more
//! gets them. (The engine decides round `t` once an arrival with a later
//! release — or `Finish` — proves round `t` complete; that wait is the
//! protocol's, not the buffer's.) There is no timer and nothing to tune.

use crate::admission::{Admission, AdmissionGate, AdmissionMode};
use crate::framing::frames;
use crate::metrics::ServeMetrics;
use crate::proto::{parse_ingest, IngestLine, ServeKind, ServeMsg, ServeStats};
use fss_engine::{ChannelSource, EngineTelemetry, StreamStats};
use fss_flight::{
    stall_inject_from_env, FlightHandle, FlightRecorder, SpanKind, StallWatchdog, TraceSink,
    DEFAULT_SPOOL_MAX_EVENTS, DEFAULT_STALL_BUDGET,
};
use fss_sim::{ArrivalCheck, FailurePlan, PolicyKind, MAX_PORTS};
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where response lines go. Cloneable handle over a shared state so the
/// ingest thread, the engine thread, and the server's accept loop all
/// write through one ordered stream.
///
/// While no writer is attached (startup, or after a client disconnect)
/// lines accumulate in an in-memory backlog; `Sink::attach` flushes
/// the backlog in order before going live, so a reconnecting client
/// sees every line exactly once, in order. A write error detaches the
/// sink, and every line not fully written by then is preserved at the
/// head of the backlog — also when the failed write carried many lines.
#[derive(Clone)]
pub struct Sink(Arc<Mutex<SinkState>>);

struct SinkState {
    target: Option<Box<dyn Write + Send>>,
    /// Whole lines, newline included, waiting for a writer. Empty
    /// whenever `target` is set.
    backlog: Vec<u8>,
}

/// `Dispatch` lines buffered on the engine thread go to the sink once
/// they pass this many bytes (see the module docs for the other two
/// moments). A constant: large enough that a write is a few hundred
/// lines, small enough to be noise next to the engine's queues.
pub(crate) const FLUSH_BYTES: usize = 16 * 1024;

/// The engine thread publishes its telemetry snapshot to the metrics
/// registry every this many rounds, and once more at drain.
const PUBLISH_EVERY_ROUNDS: u64 = 64;

/// Write `lines` (whole lines, newline included) to `w` and flush.
/// `Err(n)`: the writer failed, and `lines[n..]` is every line not known
/// to be out in full — what a later writer must send for the far side to
/// see each line exactly once (a torn line ends the failed stream).
///
/// This is `write_all` keeping count, because the count is what says
/// where to resume. A failed flush says nothing about how much got out,
/// so all of `lines` is to be sent again.
fn write_lines_to(w: &mut dyn Write, lines: &[u8]) -> Result<(), usize> {
    let mut written = 0;
    while written < lines.len() {
        match w.write(&lines[written..]) {
            Ok(0) => break,
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    if written == lines.len() {
        return w.flush().map_err(|_| 0);
    }
    let last_whole = lines[..written].iter().rposition(|&b| b == b'\n');
    Err(last_whole.map_or(0, |newline| newline + 1))
}

impl Sink {
    /// A sink with no writer: lines buffer until [`Sink::attach`].
    pub(crate) fn detached() -> Sink {
        Sink(Arc::new(Mutex::new(SinkState {
            target: None,
            backlog: Vec::new(),
        })))
    }

    /// A sink writing to `w` from the start.
    pub(crate) fn to_writer(w: impl Write + Send + 'static) -> Sink {
        let sink = Sink::detached();
        sink.attach(Box::new(w));
        sink
    }

    /// A sink capturing into a shared byte buffer (test harnesses).
    pub fn capture() -> (Sink, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let writer = CaptureWriter(Arc::clone(&buf));
        (Sink::to_writer(writer), buf)
    }

    /// Write one message as a JSONL line (buffered if detached): line
    /// and newline in one write, then a flush.
    pub(crate) fn send(&self, msg: &ServeMsg) {
        self.write_lines(&msg.to_frame());
    }

    /// Write whole lines (newline included) under one lock, as one write
    /// and one flush; buffered if detached.
    fn write_lines(&self, lines: &[u8]) {
        let mut s = self.0.lock().expect("sink mutex poisoned");
        let unsent = match &mut s.target {
            Some(w) => match write_lines_to(w.as_mut(), lines) {
                Ok(()) => return,
                Err(unsent) => unsent,
            },
            None => 0,
        };
        s.target = None;
        s.backlog.extend_from_slice(&lines[unsent..]);
    }

    /// Attach a writer, flushing the backlog in order first. If the
    /// backlog flush fails the sink stays detached and the unwritten
    /// tail is preserved.
    pub(crate) fn attach(&self, mut w: Box<dyn Write + Send>) {
        let mut s = self.0.lock().expect("sink mutex poisoned");
        match write_lines_to(w.as_mut(), &s.backlog) {
            Ok(()) => {
                s.backlog = Vec::new();
                s.target = Some(w);
            }
            Err(unsent) => drop(s.backlog.drain(..unsent)),
        }
    }

    /// Detach the current writer (client went away), writing a
    /// `Detached` marker to it best-effort so the departing stream is
    /// terminated cleanly. Later lines buffer until the next attach.
    pub(crate) fn detach(&self) {
        let mut s = self.0.lock().expect("sink mutex poisoned");
        if let Some(mut w) = s.target.take() {
            let _ = write_lines_to(w.as_mut(), &ServeMsg::detached().to_frame());
        }
    }
}

/// The engine thread's `Dispatch` lines between two trips to the sink
/// (see the module docs). Shared by the dispatch callback, which fills
/// it, and the source's idle hook, which empties it; on one engine
/// thread the mutex is never contended.
struct DispatchBatch {
    lines: Mutex<Vec<u8>>,
    sink: Sink,
}

impl DispatchBatch {
    fn new(sink: Sink) -> DispatchBatch {
        DispatchBatch {
            // One line is at most 106 bytes, so the buffer never regrows.
            lines: Mutex::new(Vec::with_capacity(FLUSH_BYTES + 128)),
            sink,
        }
    }

    fn push(&self, id: u64, release: u64, round: u64) {
        let mut lines = self.lines.lock().expect("dispatch batch poisoned");
        ServeMsg::push_dispatch_line(&mut lines, id, release, round);
        lines.push(b'\n');
        if lines.len() >= FLUSH_BYTES {
            self.sink.write_lines(&lines);
            lines.clear();
        }
    }

    fn flush(&self) {
        let mut lines = self.lines.lock().expect("dispatch batch poisoned");
        if !lines.is_empty() {
            self.sink.write_lines(&lines);
            lines.clear();
        }
    }
}

struct CaptureWriter(Arc<Mutex<Vec<u8>>>);

impl Write for CaptureWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("capture mutex poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Session configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Switch port count; `0` adopts the count from the ingest header.
    pub ports: usize,
    /// Scheduling policy driving dispatch.
    pub policy: PolicyKind,
    /// Optional injected port outages (the §6 failure model), applied
    /// by the same failure-aware drive batch runs use.
    pub failures: Option<FailurePlan>,
    /// Ingest queue capacity (admission bound).
    pub queue_cap: usize,
    /// What to do when the ingest queue is full.
    pub admission: AdmissionMode,
    /// Record a span trace into this spool file (`flowsched serve
    /// --flight-trace OUT.json` spools to `OUT.json.spool.jsonl` and
    /// exports at finish). Tracing never changes schedules.
    pub flight_spool: Option<PathBuf>,
    /// Stall-watchdog budget (`--stall-budget-ms`); `None` uses
    /// [`DEFAULT_STALL_BUDGET`]. Only meaningful with a spool.
    pub stall_budget: Option<Duration>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            ports: 0,
            policy: PolicyKind::MaxCard,
            failures: None,
            queue_cap: 1024,
            admission: AdmissionMode::Pause,
            flight_spool: None,
            stall_budget: None,
        }
    }
}

/// What [`ServeSession::ingest_line`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ingested {
    /// Keep reading.
    Continue,
    /// A `Finish` control line arrived; call [`ServeSession::finish`].
    Finish,
}

struct Running {
    check: ArrivalCheck,
    gate: AdmissionGate,
    engine: JoinHandle<StreamStats>,
    flight: Option<FlightRun>,
}

/// The tracing side of a running session: the sink (shared with the
/// metrics `/trace` slot) and the stall watchdog over the engine's
/// round-progress cell.
struct FlightRun {
    sink: TraceSink,
    watchdog: StallWatchdog,
}

/// One live serve session (see the module docs).
pub(crate) struct ServeSession {
    opts: ServeOptions,
    ports: usize,
    sink: Sink,
    metrics: Arc<ServeMetrics>,
    running: Option<Running>,
}

impl ServeSession {
    /// Create a session writing responses to `sink`.
    pub(crate) fn new(opts: ServeOptions, sink: Sink, metrics: Arc<ServeMetrics>) -> ServeSession {
        let ports = opts.ports;
        ServeSession {
            opts,
            ports,
            sink,
            metrics,
            running: None,
        }
    }

    /// The `Started` banner describing this session's configuration.
    pub(crate) fn banner(&self) -> ServeMsg {
        ServeMsg::started(
            self.ports,
            self.opts.policy,
            self.opts.queue_cap,
            self.opts.admission.name(),
        )
    }

    fn ensure_started(&mut self) -> Result<(), String> {
        if self.running.is_some() {
            return Ok(());
        }
        if self.ports == 0 {
            return Err(
                "no port count: send a {\"ports\":N} header or configure --ports".to_string(),
            );
        }
        // A header is bounded by its parser; `--ports` is checked here.
        if self.ports > MAX_PORTS {
            return Err(format!(
                "session declares {} ports; the limit is {MAX_PORTS}",
                self.ports
            ));
        }
        let (mut gate, rx) = AdmissionGate::with_depth(
            self.opts.queue_cap,
            self.opts.admission,
            Arc::clone(&self.metrics.queue_depth),
        );
        let batch = Arc::new(DispatchBatch::new(self.sink.clone()));
        let source = gate.resume_at_half(
            ChannelSource::with_depth(self.ports, rx, Arc::clone(&self.metrics.queue_depth))
                .on_idle({
                    let batch = Arc::clone(&batch);
                    move || batch.flush()
                }),
        );
        let policy = self.opts.policy;
        let failures = self.opts.failures.clone();
        let metrics = Arc::clone(&self.metrics);

        // Span tracing: one recorder + spool per session, the engine
        // thread's handle rides inside its telemetry, and a watchdog
        // monitors the round-progress cell (a stall bumps the
        // `serve_stalls` counter and dumps a post-mortem).
        let mut flight = None;
        let mut flight_handle = FlightHandle::disabled();
        let mut session_span = 0u64;
        if let Some(spool) = &self.opts.flight_spool {
            let recorder = FlightRecorder::new();
            let trace_sink = TraceSink::create(&recorder, spool, DEFAULT_SPOOL_MAX_EVENTS)
                .map_err(|e| format!("create flight spool {}: {e}", spool.display()))?;
            let mut h = recorder.handle("engine");
            if let Some(inject) = stall_inject_from_env()? {
                h.set_stall_inject(inject);
            }
            session_span = recorder.alloc_span_id();
            h.set_session(session_span);
            flight_handle = h;
            let budget = self.opts.stall_budget.unwrap_or(DEFAULT_STALL_BUDGET);
            let stalls = Arc::clone(&self.metrics.stalls);
            let watchdog = StallWatchdog::spawn(&recorder, &trace_sink, budget, move |_| {
                stalls.inc();
            });
            if let Ok(mut slot) = self.metrics.flight.lock() {
                *slot = Some(trace_sink.clone());
            }
            flight = Some(FlightRun {
                sink: trace_sink,
                watchdog,
            });
        }

        let engine = std::thread::spawn(move || {
            let mut tele = EngineTelemetry::enabled().with_flight(flight_handle);
            tele.publish_every(PUBLISH_EVERY_ROUNDS, Arc::clone(&metrics.engine));
            let session_started = Instant::now();
            let stats = fss_sim::run_source(
                Box::new(source),
                policy,
                failures.as_ref(),
                &mut tele,
                |id, release, round| {
                    metrics.dispatched.inc();
                    batch.push(id, release, round);
                },
            );
            batch.flush();
            // One umbrella span covering the whole drive (the id round
            // spans were parented under), then the final publish so a
            // post-drain scrape sees the full run.
            tele.flight().record_with(
                SpanKind::Session,
                session_span,
                0,
                session_started,
                Instant::now(),
            );
            if let Ok(mut slot) = metrics.engine.lock() {
                *slot = tele.snapshot();
            }
            stats
        });
        self.running = Some(Running {
            check: ArrivalCheck::new(self.ports),
            gate,
            engine,
            flight,
        });
        Ok(())
    }

    /// Feed ingest line `line_no` (1-based, what an error cites). `Err`
    /// is a fatal protocol error (already reported to the sink as an
    /// `Error` line).
    pub(crate) fn ingest_line(&mut self, line_no: usize, line: &str) -> Result<Ingested, String> {
        let result = self.ingest_inner(line_no, line);
        if let Err(e) = &result {
            self.sink.send(&ServeMsg::error(e.clone()));
        }
        result
    }

    fn ingest_inner(&mut self, line_no: usize, line: &str) -> Result<Ingested, String> {
        match parse_ingest(line)? {
            IngestLine::Header { ports } => {
                if self.running.is_some() {
                    return Err("unexpected header after arrivals started".to_string());
                }
                if ports == 0 {
                    return Err("a switch needs at least one port".to_string());
                }
                if self.opts.ports != 0 && self.opts.ports != ports {
                    return Err(format!(
                        "header says {ports} ports but the session is pinned to {}",
                        self.opts.ports
                    ));
                }
                self.ports = ports;
                Ok(Ingested::Continue)
            }
            IngestLine::Arrival { release, src, dst } => {
                self.ensure_started()?;
                self.metrics.ingested.inc();
                // Clone the handles up front: the pause callback runs
                // while the gate (inside `running`) is borrowed mutably.
                let sink = self.sink.clone();
                let metrics = Arc::clone(&self.metrics);
                let running = self.running.as_mut().expect("started above");
                running
                    .check
                    .admit(line_no, release, src, dst)
                    .map_err(|e| e.to_string())?;
                let outcome = running.gate.offer(release, src, dst, |queued| {
                    metrics.pauses.inc();
                    sink.send(&ServeMsg::paused(queued));
                })?;
                match outcome {
                    Admission::Admitted { .. } => self.metrics.admitted.inc(),
                    Admission::Resumed { id, queued } => {
                        self.metrics.admitted.inc();
                        self.sink.send(&ServeMsg::resumed(id, queued));
                    }
                    Admission::Dropped { queued } => {
                        self.metrics.dropped.inc();
                        self.sink
                            .send(&ServeMsg::dropped(release, src, dst, queued));
                    }
                }
                Ok(Ingested::Continue)
            }
            IngestLine::Control(msg) => match msg.kind {
                ServeKind::Finish => Ok(Ingested::Finish),
                ServeKind::Metrics => {
                    self.sink.send(&ServeMsg::metrics(self.metrics.render()));
                    Ok(Ingested::Continue)
                }
                other => Err(format!("unexpected control line {other:?}")),
            },
        }
    }

    /// End the session: close the gate, let the engine drain, write the
    /// `Stats` line, and return the final accounting.
    pub(crate) fn finish(mut self) -> Result<ServeStats, String> {
        let stats = match self.running.take() {
            // No arrival ever started the engine: everything is zero.
            None => ServeStats::default(),
            Some(Running {
                mut gate,
                engine,
                flight,
                ..
            }) => {
                gate.close();
                let stream = engine
                    .join()
                    .map_err(|_| "engine thread panicked".to_string())?;
                if let Some(f) = flight {
                    f.watchdog.finish();
                    f.sink.finish();
                }
                ServeStats {
                    arrived: gate.arrived,
                    admitted: gate.admitted,
                    dropped: gate.dropped,
                    dispatched: stream.dispatched,
                    pauses: gate.pauses,
                    makespan: stream.makespan,
                    total_response: u64::try_from(stream.total_response).unwrap_or(u64::MAX),
                    max_response: stream.max_response,
                    peak_queue: stream.peak_queue as u64,
                }
            }
        };
        self.sink.send(&ServeMsg::stats(&stats));
        Ok(stats)
    }
}

/// Drive a whole session from a line-oriented reader: banner, ingest
/// loop (EOF counts as `Finish`), final stats. This is `flowsched
/// serve`'s stdio mode and the harness entry point for byte-buffer
/// tests; the TCP server runs the same session across connections.
pub fn serve_reader<R: BufRead>(
    opts: ServeOptions,
    input: R,
    sink: Sink,
    metrics: Arc<ServeMetrics>,
) -> Result<ServeStats, String> {
    let mut session = ServeSession::new(opts, sink.clone(), metrics);
    sink.send(&session.banner());
    let mut lines = frames(input, "ingest");
    while let Some((line_no, line)) = lines.next_line().map_err(|e| e.to_string())? {
        if session.ingest_line(line_no, line.trim())? == Ingested::Finish {
            break;
        }
    }
    session.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    impl Sink {
        /// Lines currently buffered (waiting for a writer).
        fn backlog_len(&self) -> usize {
            let s = self.0.lock().expect("sink mutex poisoned");
            s.backlog.iter().filter(|&&b| b == b'\n').count()
        }
    }

    fn lines(buf: &Arc<Mutex<Vec<u8>>>) -> Vec<ServeMsg> {
        String::from_utf8(buf.lock().unwrap().clone())
            .unwrap()
            .lines()
            .map(|l| ServeMsg::parse(l).expect("response lines parse"))
            .collect()
    }

    #[test]
    fn sink_buffers_while_detached_and_flushes_in_order_on_attach() {
        let sink = Sink::detached();
        sink.send(&ServeMsg::dispatch(0, 0, 1));
        sink.send(&ServeMsg::dispatch(1, 0, 2));
        assert_eq!(sink.backlog_len(), 2);
        let (attached, buf) = Sink::capture();
        drop(attached); // only needed the writer pattern; reuse below
        let buf2 = Arc::new(Mutex::new(Vec::new()));
        sink.attach(Box::new(CaptureWriter(Arc::clone(&buf2))));
        sink.send(&ServeMsg::dispatch(2, 1, 3));
        let got: Vec<u64> = String::from_utf8(buf2.lock().unwrap().clone())
            .unwrap()
            .lines()
            .map(|l| ServeMsg::parse(l).unwrap().id.unwrap())
            .collect();
        assert_eq!(got, vec![0, 1, 2], "backlog first, then live, in order");
        assert_eq!(sink.backlog_len(), 0);
        assert!(buf.lock().unwrap().is_empty());
    }

    /// A writer that takes `budget` bytes in all, then fails — a
    /// connection that dies part-way through a write.
    struct FailAfter {
        budget: usize,
        got: Arc<Mutex<Vec<u8>>>,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::ErrorKind::BrokenPipe.into());
            }
            let n = buf.len().min(self.budget);
            self.budget -= n;
            self.got.lock().unwrap().extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The ids of the whole `Dispatch` lines in `bytes` (a torn tail, as
    /// the far side of a dead connection would, is ignored).
    fn whole_line_ids(bytes: &[u8]) -> Vec<u64> {
        std::str::from_utf8(bytes)
            .unwrap()
            .split_inclusive('\n')
            .filter(|l| l.ends_with('\n'))
            .map(|l| ServeMsg::parse(l.trim_end()).expect("whole lines parse"))
            .map(|m| m.id.unwrap())
            .collect()
    }

    #[test]
    fn a_batch_write_that_fails_part_way_resumes_at_the_first_unwritten_line() {
        let mut batch = Vec::new();
        for id in 0..5u64 {
            ServeMsg::push_dispatch_line(&mut batch, id, id * 1000, id * 1_000_000);
            batch.push(b'\n');
        }
        // The writer dies after every possible byte count, as the live
        // target of a batch write and as the target of a backlog flush.
        for cut in 0..batch.len() {
            for dies_in_attach in [false, true] {
                let first = Arc::new(Mutex::new(Vec::new()));
                let dying = Box::new(FailAfter {
                    budget: cut,
                    got: Arc::clone(&first),
                });
                let sink = Sink::detached();
                if dies_in_attach {
                    sink.write_lines(&batch);
                    sink.attach(dying);
                } else {
                    sink.attach(dying);
                    sink.write_lines(&batch);
                }
                let whole = whole_line_ids(&first.lock().unwrap());
                assert_eq!(sink.backlog_len(), 5 - whole.len(), "cut {cut}: detached");
                sink.send(&ServeMsg::dispatch(5, 0, 0)); // buffered behind the rest
                let second = Arc::new(Mutex::new(Vec::new()));
                sink.attach(Box::new(CaptureWriter(Arc::clone(&second))));
                assert_eq!(sink.backlog_len(), 0);
                let second = second.lock().unwrap();
                assert!(second.ends_with(b"\n"), "cut {cut}: no torn line");
                let mut all = whole;
                all.extend(whole_line_ids(&second));
                assert_eq!(all, [0, 1, 2, 3, 4, 5], "cut {cut}: once each, in order");
            }
        }
    }

    #[test]
    fn detach_writes_a_detached_marker_and_rebuffers() {
        let (sink, buf) = Sink::capture();
        sink.send(&ServeMsg::dispatch(0, 0, 1));
        sink.detach();
        sink.send(&ServeMsg::dispatch(1, 0, 2)); // buffered
        let got = lines(&buf);
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].kind, ServeKind::Detached, "stream ends with marker");
        assert_eq!(sink.backlog_len(), 1);
    }

    #[test]
    fn a_full_session_over_byte_buffers_dispatches_every_flow() {
        let input = concat!(
            "{\"ports\":4}\n",
            "{\"release\":0,\"src\":0,\"dst\":1}\n",
            "{\"release\":0,\"src\":1,\"dst\":0}\n",
            "{\"release\":2,\"src\":2,\"dst\":3}\n",
            "{\"kind\":\"Metrics\"}\n",
            "{\"kind\":\"Finish\"}\n",
        );
        let (sink, buf) = Sink::capture();
        let metrics = Arc::new(ServeMetrics::new());
        let stats = serve_reader(
            ServeOptions::default(),
            Cursor::new(input),
            sink,
            Arc::clone(&metrics),
        )
        .expect("session runs");
        assert_eq!(stats.arrived, 3);
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.dispatched, 3);
        let msgs = lines(&buf);
        assert_eq!(msgs[0].kind, ServeKind::Started);
        assert_eq!(msgs[0].proto, Some(crate::proto::SERVE_PROTO_VERSION));
        let dispatched: Vec<_> = msgs
            .iter()
            .filter(|m| m.kind == ServeKind::Dispatch)
            .collect();
        assert_eq!(dispatched.len(), 3);
        let metrics_reply = msgs
            .iter()
            .find(|m| m.kind == ServeKind::Metrics)
            .expect("metrics control line answered");
        assert!(metrics_reply
            .text
            .as_deref()
            .unwrap()
            .contains("fss_serve_flows_ingested_total"));
        assert_eq!(msgs.last().unwrap().kind, ServeKind::Stats);
        assert_eq!(msgs.last().unwrap().dispatched, Some(3));
        assert_eq!(metrics.dispatched.get(), 3);
    }

    #[test]
    fn a_traced_session_spools_spans_and_renders_chrome_json() {
        let dir = std::env::temp_dir().join(format!("fss_serve_flight_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spool = dir.join("session.spool.jsonl");
        let input = concat!(
            "{\"ports\":4}\n",
            "{\"release\":0,\"src\":0,\"dst\":1}\n",
            "{\"release\":1,\"src\":1,\"dst\":2}\n",
            "{\"release\":2,\"src\":2,\"dst\":3}\n",
            "{\"kind\":\"Finish\"}\n",
        );
        let opts = ServeOptions {
            flight_spool: Some(spool.clone()),
            ..ServeOptions::default()
        };
        let (sink, _buf) = Sink::capture();
        let metrics = Arc::new(ServeMetrics::new());
        let stats = serve_reader(opts, Cursor::new(input), sink, Arc::clone(&metrics)).unwrap();
        assert_eq!(stats.dispatched, 3);
        assert!(spool.exists(), "spool written at {}", spool.display());
        let json = metrics
            .trace_json()
            .expect("tracing was on")
            .expect("spool exports");
        let check = fss_flight::check_chrome(&json).expect("valid chrome trace");
        assert!(check.spans > 0, "traced session recorded spans");
        assert!(
            json.contains("match_repair") && json.contains("round"),
            "stage + round spans present; saw {:?}",
            check.names
        );
        assert_eq!(metrics.stalls.get(), 0, "healthy run never stalls");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eof_without_finish_still_drains_and_reports_stats() {
        let input = "{\"ports\":2}\n{\"release\":0,\"src\":0,\"dst\":1}\n";
        let (sink, buf) = Sink::capture();
        let stats = serve_reader(
            ServeOptions::default(),
            Cursor::new(input),
            sink,
            Arc::new(ServeMetrics::new()),
        )
        .unwrap();
        assert_eq!(stats.dispatched, 1);
        assert_eq!(lines(&buf).last().unwrap().kind, ServeKind::Stats);
    }

    #[test]
    fn conservation_holds_under_drop_mode_with_a_tiny_queue() {
        // With capacity 1 and a burst of same-release arrivals some may
        // be shed (how many depends on engine timing); the invariant
        // that cannot depend on timing is conservation: every offered
        // arrival is either dispatched or explicitly reported dropped.
        let mut input = String::from("{\"ports\":4}\n");
        for i in 0..64 {
            input.push_str(&format!(
                "{{\"release\":{},\"src\":{},\"dst\":{}}}\n",
                i / 8,
                i % 4,
                (i + 1) % 4
            ));
        }
        input.push_str("{\"kind\":\"Finish\"}\n");
        let opts = ServeOptions {
            queue_cap: 1,
            admission: AdmissionMode::Drop,
            ..ServeOptions::default()
        };
        let (sink, buf) = Sink::capture();
        let stats = serve_reader(
            opts,
            Cursor::new(input),
            sink,
            Arc::new(ServeMetrics::new()),
        )
        .unwrap();
        assert_eq!(stats.arrived, 64);
        assert_eq!(stats.arrived, stats.admitted + stats.dropped);
        assert_eq!(stats.admitted, stats.dispatched, "engine drained fully");
        let msgs = lines(&buf);
        let dropped_lines = msgs.iter().filter(|m| m.kind == ServeKind::Dropped).count();
        assert_eq!(dropped_lines as u64, stats.dropped, "no silent loss");
        let dispatch_lines = msgs
            .iter()
            .filter(|m| m.kind == ServeKind::Dispatch)
            .count();
        assert_eq!(dispatch_lines as u64, stats.dispatched);
    }

    #[test]
    fn protocol_errors_are_reported_and_fatal() {
        let input = "{\"ports\":2}\n{\"release\":0,\"src\":5,\"dst\":1}\n";
        let (sink, buf) = Sink::capture();
        let err = serve_reader(
            ServeOptions::default(),
            Cursor::new(input),
            sink,
            Arc::new(ServeMetrics::new()),
        )
        .unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let msgs = lines(&buf);
        assert_eq!(msgs.last().unwrap().kind, ServeKind::Error);
    }

    #[test]
    fn a_release_past_the_bound_ends_the_session_before_any_dispatch() {
        let late = format!("{{\"release\":{},\"src\":0,\"dst\":1}}\n", u64::MAX);
        let input = format!("{{\"ports\":2}}\n{late}{late}");
        let (sink, buf) = Sink::capture();
        let err = serve_reader(
            ServeOptions::default(),
            Cursor::new(input),
            sink,
            Arc::new(ServeMetrics::new()),
        )
        .unwrap_err();
        assert!(err.contains(&fss_sim::MAX_RELEASE.to_string()), "{err}");
        let msgs = lines(&buf);
        assert!(msgs.iter().all(|m| m.kind != ServeKind::Dispatch));
        assert_eq!(msgs.last().unwrap().kind, ServeKind::Error);
    }

    /// A release far past the last one, with the switch idle in between,
    /// is admitted (it is below `MAX_RELEASE`) and dispatched: the
    /// weighted rule's clock jump must not overflow its aging offset.
    #[test]
    fn minrtime_dispatches_a_release_after_a_far_idle_jump() {
        let input = concat!(
            "{\"release\":0,\"src\":0,\"dst\":1}\n",
            "{\"release\":0,\"src\":0,\"dst\":1}\n",
            "{\"release\":4611686018427387904,\"src\":1,\"dst\":2}\n",
        );
        let opts = ServeOptions {
            ports: 4,
            policy: PolicyKind::MinRTime,
            ..ServeOptions::default()
        };
        let (sink, buf) = Sink::capture();
        let stats = serve_reader(
            opts,
            Cursor::new(input),
            sink,
            Arc::new(ServeMetrics::new()),
        )
        .expect("session runs");
        assert_eq!(stats.dispatched, 3);
        let rounds: Vec<u64> = lines(&buf).iter().filter_map(|m| m.round).collect();
        assert_eq!(rounds, [0, 1, 4611686018427387904]);
    }

    #[test]
    fn arrivals_without_any_port_count_are_rejected() {
        let input = "{\"release\":0,\"src\":0,\"dst\":1}\n";
        let (sink, _buf) = Sink::capture();
        let err = serve_reader(
            ServeOptions::default(),
            Cursor::new(input),
            sink,
            Arc::new(ServeMetrics::new()),
        )
        .unwrap_err();
        assert!(err.contains("no port count"), "{err}");
    }

    /// Each break of the arrival rule — a port past the session's count
    /// at either end, a release before the last one, a release past the
    /// bound — ends the session with an `Error` line that cites the
    /// ingest line, and the engine never sees the refused arrival.
    #[test]
    fn protocol_violations_are_fatal() {
        let arrival = |release: u64, src, dst| {
            format!("{{\"release\":{release},\"src\":{src},\"dst\":{dst}}}")
        };
        let past = fss_sim::MAX_RELEASE + 1;
        let cases = [
            (arrival(5, 4, 0), "line 3: port 4 out of range".to_string()),
            (arrival(5, 0, 9), "line 3: port 9 out of range".to_string()),
            (arrival(4, 0, 1), "line 3: release 4 after 5".to_string()),
            (
                arrival(past, 0, 1),
                format!("line 3: release {past} is past"),
            ),
        ];
        for (bad, cites) in cases {
            let (sink, buf) = Sink::capture();
            let metrics = Arc::new(ServeMetrics::new());
            let mut session = ServeSession::new(ServeOptions::default(), sink, metrics);
            assert_eq!(
                session.ingest_line(1, "{\"ports\":4}"),
                Ok(Ingested::Continue)
            );
            assert_eq!(
                session.ingest_line(2, &arrival(5, 0, 1)),
                Ok(Ingested::Continue)
            );
            let err = session.ingest_line(3, &bad).unwrap_err();
            assert!(err.starts_with(&cites), "{bad}: {err}");
            let last = lines(&buf).pop().unwrap();
            assert_eq!((last.kind, last.error), (ServeKind::Error, Some(err)));
            let stats = session.finish().unwrap();
            assert_eq!((stats.arrived, stats.dispatched), (1, 1), "{bad}");
        }
    }

    /// The arrival that would get the first id past `u32::MAX` ends the
    /// session with an `Error` line naming the bound (the engine would
    /// panic on it), whatever the rule.
    #[test]
    fn an_id_past_the_engine_bound_ends_the_session() {
        let line = "{\"release\":0,\"src\":0,\"dst\":1}";
        let cases = [
            (PolicyKind::MaxCard, None),
            (PolicyKind::FifoGreedy, None),
            (PolicyKind::MinRTime, Some(FailurePlan::default())),
            (PolicyKind::MinRTime, None),
            (PolicyKind::MaxWeight, None),
        ];
        for (policy, failures) in cases {
            let opts = ServeOptions {
                ports: 2,
                policy,
                failures,
                ..ServeOptions::default()
            };
            let (sink, buf) = Sink::capture();
            let mut session = ServeSession::new(opts, sink, Arc::new(ServeMetrics::new()));
            session.ensure_started().unwrap();
            let gate = &mut session.running.as_mut().unwrap().gate;
            gate.start_ids_at(u64::from(u32::MAX));
            assert_eq!(session.ingest_line(1, line), Ok(Ingested::Continue));
            let err = session.ingest_line(2, line).unwrap_err();
            assert!(
                err.contains("flow id 4294967296 is past 4294967295"),
                "{policy:?}: {err}"
            );
            assert_eq!(lines(&buf).last().unwrap().kind, ServeKind::Error);
            // The engine never saw the refused arrival: it drains the
            // admitted one and ends cleanly.
            assert_eq!(session.finish().unwrap().dispatched, 1, "{policy:?}");
            let ids: Vec<u64> = lines(&buf).iter().filter_map(|m| m.id).collect();
            assert_eq!(ids, [u64::from(u32::MAX)], "{policy:?}");
        }
    }

    /// `--ports` past the bound every other way in is held to ends the
    /// session with an `Error` line: no engine is sized from it.
    #[test]
    fn a_port_count_past_the_bound_ends_the_session() {
        for policy in [PolicyKind::MaxCard, PolicyKind::MinRTime] {
            let opts = ServeOptions {
                ports: MAX_PORTS + 1,
                policy,
                ..ServeOptions::default()
            };
            let (sink, buf) = Sink::capture();
            let input = "{\"release\":0,\"src\":0,\"dst\":1}\n";
            let err = serve_reader(
                opts,
                Cursor::new(input),
                sink,
                Arc::new(ServeMetrics::new()),
            )
            .unwrap_err();
            assert!(err.contains("2049 ports; the limit is 2048"), "{err}");
            let msgs = lines(&buf);
            assert!(msgs.iter().all(|m| m.kind != ServeKind::Dispatch));
            assert_eq!(msgs.last().unwrap().kind, ServeKind::Error);
        }
    }
}
