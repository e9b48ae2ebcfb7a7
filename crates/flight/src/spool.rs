//! The bounded on-disk spool: a JSONL file the [`TraceSink`] drains
//! rings into, readable after a crash (every line is self-contained
//! and the writer flushes on every drain).
//!
//! Line shapes:
//!
//! ```text
//! {"fss_flight_spool":1}                                   header
//! {"meta":"thread","tid":0,"name":"match"}                 track label
//! {"sid":7,"par":0,"k":"ingest","r":3,"ts":120,"dur":45,"tid":0}
//! {"meta":"watchdog","at_ns":..,"progress":..}
//! {"meta":"dropped","tid":0,"count":12}                    ring losses
//! {"meta":"truncated","lost":9}                            spool bound
//! ```
//!
//! `ts`/`dur` are nanoseconds on the recorder clock. Spools written
//! while the engine had a staged pipe also carry `chan_send` /
//! `chan_recv` spans and a `depths` array on the watchdog line; the
//! reader still decodes the former and skips the latter. The spool is
//! bounded by a maximum event count: once full, further events are
//! counted (`truncated`) but not written, so a runaway run can't fill
//! the disk.

use crate::event::{SpanEvent, SpanKind};
use crate::recorder::FlightRecorder;
use std::collections::HashSet;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Default bound on spooled events (~100 bytes/line → ~200 MB worst
/// case; far above any CI run, far below a full disk).
pub const DEFAULT_SPOOL_MAX_EVENTS: u64 = 2_000_000;

/// The append side of the spool. One per sink, shared behind a mutex
/// between the thread that drains and the watchdog.
pub struct SpoolWriter {
    out: BufWriter<File>,
    path: PathBuf,
    max_events: u64,
    written: u64,
    lost: u64,
    announced: HashSet<u32>,
    scratch: Vec<SpanEvent>,
}

impl SpoolWriter {
    fn create(path: &Path, max_events: u64) -> std::io::Result<SpoolWriter> {
        let file = File::create(path)?;
        let mut w = SpoolWriter {
            out: BufWriter::new(file),
            path: path.to_path_buf(),
            max_events,
            written: 0,
            lost: 0,
            announced: HashSet::new(),
            scratch: Vec::new(),
        };
        writeln!(w.out, "{{\"fss_flight_spool\":1}}")?;
        Ok(w)
    }

    /// Where the spool lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn write_event(&mut self, ev: &SpanEvent) {
        if self.written >= self.max_events {
            self.lost += 1;
            return;
        }
        self.written += 1;
        let _ = writeln!(
            self.out,
            "{{\"sid\":{},\"par\":{},\"k\":\"{}\",\"r\":{},\"ts\":{},\"dur\":{},\"tid\":{}}}",
            ev.span_id,
            ev.parent,
            ev.kind.name(),
            ev.round,
            ev.t_start_ns,
            ev.t_end_ns - ev.t_start_ns,
            ev.thread,
        );
    }

    /// Drain every ring registered on `recorder` into the spool,
    /// announcing new threads, then flush so the file is crash-readable.
    pub(crate) fn drain_from(&mut self, recorder: &FlightRecorder) {
        let rings = recorder.shared.rings.lock().unwrap();
        for r in rings.iter() {
            if self.announced.insert(r.thread) {
                let _ = writeln!(
                    self.out,
                    "{{\"meta\":\"thread\",\"tid\":{},\"name\":{}}}",
                    r.thread,
                    json_str(&r.name),
                );
            }
            self.scratch.clear();
            r.ring.drain(&mut self.scratch);
            // Move events out of the borrow of scratch before writing.
            let events = std::mem::take(&mut self.scratch);
            for ev in &events {
                self.write_event(ev);
            }
            self.scratch = events;
        }
        drop(rings);
        let _ = self.out.flush();
    }

    /// Append a watchdog post-mortem marker: the stalled progress
    /// value and when it was noticed.
    pub(crate) fn note_watchdog(&mut self, at_ns: u64, progress: u64) {
        let _ = writeln!(
            self.out,
            "{{\"meta\":\"watchdog\",\"at_ns\":{at_ns},\"progress\":{progress}}}",
        );
        let _ = self.out.flush();
    }

    /// Write the closing accounting (ring drops, spool truncation) and
    /// flush.
    pub(crate) fn finalize(&mut self, recorder: &FlightRecorder) {
        let rings = recorder.shared.rings.lock().unwrap();
        for r in rings.iter() {
            let c = r.ring.dropped();
            if c > 0 {
                let _ = writeln!(
                    self.out,
                    "{{\"meta\":\"dropped\",\"tid\":{},\"count\":{c}}}",
                    r.thread
                );
            }
        }
        drop(rings);
        if self.lost > 0 {
            let _ = writeln!(
                self.out,
                "{{\"meta\":\"truncated\",\"lost\":{}}}",
                self.lost
            );
        }
        let _ = self.out.flush();
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The sink: owns the spool writer, drains on demand. Cloning shares
/// the same writer and recorder.
#[derive(Clone)]
pub struct TraceSink {
    recorder: FlightRecorder,
    writer: Arc<Mutex<SpoolWriter>>,
}

/// Final spool accounting returned by [`TraceSink::finish`].
#[derive(Debug, Clone)]
pub struct SpoolSummary {
    /// Spool file path.
    pub path: PathBuf,
    /// Events written to the spool.
    pub events: u64,
    /// Events lost: lapped in rings + truncated at the spool bound.
    pub dropped: u64,
}

impl TraceSink {
    /// Create a spool at `path` bounded to `max_events`.
    pub fn create(
        recorder: &FlightRecorder,
        path: &Path,
        max_events: u64,
    ) -> std::io::Result<TraceSink> {
        Ok(TraceSink {
            recorder: recorder.clone(),
            writer: Arc::new(Mutex::new(SpoolWriter::create(path, max_events)?)),
        })
    }

    /// The shared writer (the watchdog locks it to dump post-mortems).
    pub fn writer(&self) -> Arc<Mutex<SpoolWriter>> {
        Arc::clone(&self.writer)
    }

    /// Drain all rings into the spool now.
    pub fn drain(&self) {
        self.writer.lock().unwrap().drain_from(&self.recorder);
    }

    /// Final drain + closing accounting; returns where the spool lives
    /// and what it holds.
    pub fn finish(&self) -> SpoolSummary {
        let mut w = self.writer.lock().unwrap();
        w.drain_from(&self.recorder);
        w.finalize(&self.recorder);
        let (_, ring_dropped) = self.recorder.totals();
        SpoolSummary {
            path: w.path.clone(),
            events: w.written,
            dropped: ring_dropped + w.lost,
        }
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TraceSink")
    }
}

// ---------------------------------------------------------------------------
// Reading a spool back.

/// A watchdog marker read back from a spool.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogNote {
    /// Recorder-clock time of the dump.
    pub at_ns: u64,
    /// The round-progress value that stopped advancing.
    pub progress: u64,
}

/// A fully parsed spool.
#[derive(Debug, Clone, Default)]
pub struct Spool {
    /// Track labels: `(tid, name)`.
    pub threads: Vec<(u32, String)>,
    /// Every spooled span, file order.
    pub events: Vec<SpanEvent>,
    /// Watchdog post-mortem markers.
    pub watchdogs: Vec<WatchdogNote>,
    /// Events lost in rings (sum of `dropped` metas).
    pub dropped: u64,
    /// Events lost at the spool bound.
    pub truncated: u64,
}

impl Spool {
    /// Label for a tid (falls back to `thread<N>`).
    pub(crate) fn thread_name(&self, tid: u32) -> String {
        self.threads
            .iter()
            .find(|(t, _)| *t == tid)
            .map(|(_, n)| n.clone())
            .unwrap_or_else(|| format!("thread{tid}"))
    }
}

/// Parse a spool file. Unknown lines and unknown meta kinds are
/// skipped, so newer spools load under older readers.
pub fn read_spool(path: &Path) -> Result<Spool, String> {
    let file = File::open(path).map_err(|e| format!("open spool {}: {e}", path.display()))?;
    let mut lines = BufReader::new(file).lines();
    let header = match lines.next() {
        Some(Ok(l)) => l,
        _ => return Err(format!("{}: empty spool", path.display())),
    };
    let hc = parse_line(&header).ok_or_else(|| format!("{}: bad header", path.display()))?;
    if get_u64(&hc, "fss_flight_spool").is_none() {
        return Err(format!("{}: not a flight spool", path.display()));
    }
    let mut spool = Spool::default();
    // A spool is hostile input: its totals saturate, they do not wrap.
    let add = |total: &mut u64, n: Option<u64>| *total = total.saturating_add(n.unwrap_or(0));
    for line in lines {
        let line = match line {
            Ok(l) => l,
            Err(e) => return Err(format!("{}: read: {e}", path.display())),
        };
        if line.trim().is_empty() {
            continue;
        }
        let c = match parse_line(&line) {
            Some(c) => c,
            None => continue, // torn tail line after a crash: skip
        };
        if let Some(meta) = get_str(&c, "meta") {
            match meta.as_str() {
                "thread" => {
                    if let (Some(tid), Some(name)) = (get_u64(&c, "tid"), get_str(&c, "name")) {
                        spool.threads.push((tid as u32, name));
                    }
                }
                "dropped" => add(&mut spool.dropped, get_u64(&c, "count")),
                "truncated" => add(&mut spool.truncated, get_u64(&c, "lost")),
                "watchdog" => spool.watchdogs.push(WatchdogNote {
                    at_ns: get_u64(&c, "at_ns").unwrap_or(0),
                    progress: get_u64(&c, "progress").unwrap_or(0),
                }),
                _ => {}
            }
            continue;
        }
        let kind = match get_str(&c, "k").and_then(|k| SpanKind::from_name(&k)) {
            Some(k) => k,
            None => continue,
        };
        let ts = get_u64(&c, "ts").unwrap_or(0);
        spool.events.push(SpanEvent {
            span_id: get_u64(&c, "sid").unwrap_or(0),
            parent: get_u64(&c, "par").unwrap_or(0),
            kind,
            round: get_u64(&c, "r").unwrap_or(0),
            t_start_ns: ts,
            t_end_ns: ts.saturating_add(get_u64(&c, "dur").unwrap_or(1).max(1)),
            thread: get_u64(&c, "tid").unwrap_or(0) as u32,
        });
    }
    Ok(spool)
}

/// Wrapper that deserializes to the raw [`serde::Content`] tree (the
/// shim's `Content` has no blanket `Deserialize` impl).
pub(crate) struct RawJson(pub(crate) serde::Content);

impl serde::Deserialize for RawJson {
    fn from_content(c: &serde::Content) -> Result<Self, serde::DeError> {
        Ok(RawJson(c.clone()))
    }
}

fn parse_line(line: &str) -> Option<serde::Content> {
    serde_json::from_str::<RawJson>(line.trim())
        .ok()
        .map(|r| r.0)
}

fn get<'a>(c: &'a serde::Content, key: &str) -> Option<&'a serde::Content> {
    match c {
        serde::Content::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn content_u64(c: &serde::Content) -> Option<u64> {
    match c {
        serde::Content::U64(v) => Some(*v),
        serde::Content::I64(v) if *v >= 0 => Some(*v as u64),
        serde::Content::F64(v) if *v >= 0.0 => Some(*v as u64),
        _ => None,
    }
}

fn get_u64(c: &serde::Content, key: &str) -> Option<u64> {
    get(c, key).and_then(content_u64)
}

fn get_str(c: &serde::Content, key: &str) -> Option<String> {
    match get(c, key) {
        Some(serde::Content::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::FlightRecorder;
    use std::time::Instant;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fss-flight-spool-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("spool.jsonl")
    }

    #[test]
    fn spool_round_trips_events_threads_and_watchdog_notes() {
        let rec = FlightRecorder::new();
        let mut main = rec.handle("match");
        let mut side = main.sibling("shard \"0\"\n"); // hostile name
        main.round_start(1);
        let t0 = Instant::now();
        main.record(SpanKind::MatchRepair, t0, Instant::now());
        side.record(SpanKind::QueueUpdate, t0, Instant::now());
        main.round_finish();

        let path = tmp("roundtrip");
        let sink = TraceSink::create(&rec, &path, 1000).unwrap();
        sink.drain();
        sink.writer().lock().unwrap().note_watchdog(123, 7);
        let summary = sink.finish();
        assert_eq!(summary.dropped, 0);
        assert!(summary.events >= 3);

        let spool = read_spool(&path).unwrap();
        assert_eq!(spool.threads.len(), 2);
        assert_eq!(spool.thread_name(0), "match");
        assert!(spool.thread_name(1).contains("shard"));
        assert_eq!(spool.events.len() as u64, summary.events);
        assert!(spool
            .events
            .iter()
            .any(|e| e.kind == SpanKind::Round && e.round == 1));
        assert_eq!(spool.watchdogs.len(), 1);
        assert_eq!(spool.watchdogs[0].progress, 7);
        assert_eq!(spool.dropped + spool.truncated, 0);
    }

    #[test]
    fn a_spool_written_by_the_staged_pipe_still_reads() {
        // Lines as a traced run on the staged pipe wrote them.
        let path = tmp("staged-pipe");
        std::fs::write(
            &path,
            concat!(
                "{\"fss_flight_spool\":1}\n",
                "{\"meta\":\"thread\",\"tid\":2,\"name\":\"arrivals\"}\n",
                "{\"sid\":9,\"par\":0,\"k\":\"chan_recv\",\"r\":3,\"ts\":100,\"dur\":40,\"tid\":2}\n",
                "{\"meta\":\"watchdog\",\"at_ns\":103595010,\"progress\":41,",
                "\"depths\":[[\"arrivals\",8,3]]}\n",
            ),
        )
        .unwrap();
        let spool = read_spool(&path).unwrap();
        assert_eq!(spool.events.len(), 1);
        assert_eq!(spool.events[0].kind, SpanKind::ChanRecv);
        assert_eq!(spool.thread_name(spool.events[0].thread), "arrivals");
        let note = WatchdogNote {
            at_ns: 103_595_010,
            progress: 41,
        };
        assert_eq!(spool.watchdogs, vec![note]);
    }

    #[test]
    fn the_spool_bound_truncates_and_reports_losses() {
        let rec = FlightRecorder::new();
        let mut h = rec.handle("m");
        let now = Instant::now();
        for _ in 0..50 {
            h.record(SpanKind::Dispatch, now, now);
        }
        let path = tmp("bound");
        let sink = TraceSink::create(&rec, &path, 10).unwrap();
        let summary = sink.finish();
        assert_eq!(summary.events, 10);
        assert_eq!(summary.dropped, 40);
        let spool = read_spool(&path).unwrap();
        assert_eq!(spool.events.len(), 10);
        assert_eq!(spool.truncated, 40);
    }

    #[test]
    fn a_torn_tail_line_is_skipped_not_fatal() {
        let rec = FlightRecorder::new();
        let mut h = rec.handle("m");
        let now = Instant::now();
        h.record(SpanKind::Ingest, now, now);
        let path = tmp("torn");
        let sink = TraceSink::create(&rec, &path, 100).unwrap();
        sink.finish();
        // Simulate a crash mid-write.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        write!(f, "{{\"sid\":9,\"par\":0,\"k\":\"inge").unwrap();
        let spool = read_spool(&path).unwrap();
        assert_eq!(spool.events.len(), 1);
    }
}
