//! Chrome Trace Format export (loadable in `chrome://tracing` and
//! Perfetto), a structural validator for CI, and the `flight stats`
//! top-k report. [`export_chrome`] is the one spool-to-file export:
//! `stream`, `bench` and `serve` end a traced run with it, and `flight
//! export` is it alone.
//!
//! Spans export as balanced `B`/`E` duration-event pairs on
//! `pid`/`tid` tracks with `args.round` carrying the round stamp.

use crate::event::{SpanEvent, SpanKind};
use crate::spool::{read_spool, Spool};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Chrome `pid` every track of an export sits under (one spool is one
/// process).
const PID: u32 = 1;

/// Read the spool file at `spool` and write its Chrome Trace JSON to
/// `out`; the spool read, for the caller's summary line.
pub fn export_chrome(spool: impl AsRef<Path>, out: impl AsRef<Path>) -> Result<Spool, String> {
    let (spool, out) = (spool.as_ref(), out.as_ref());
    let parsed = read_spool(spool)?;
    std::fs::write(out, to_chrome(&parsed)).map_err(|e| format!("write {}: {e}", out.display()))?;
    Ok(parsed)
}

/// Render one spool as Chrome Trace JSON.
pub fn to_chrome(spool: &Spool) -> String {
    // (ts_ns, phase_rank, tie, line): sort by timestamp; at equal ts
    // close inner spans before opening siblings (E before B), open
    // outer-before-inner and close inner-before-outer via `tie`.
    let mut events: Vec<(u64, u8, i64, String)> = Vec::new();
    for (tid, name) in &spool.threads {
        let line = format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
            json_str(name),
        );
        events.push((0, 0, i64::MIN, line));
    }
    // Nesting index: spans sorted by (start asc, end desc) open in
    // outer-first order.
    let mut order: Vec<&SpanEvent> = spool.events.iter().collect();
    order.sort_by(|a, b| {
        a.t_start_ns
            .cmp(&b.t_start_ns)
            .then(b.t_end_ns.cmp(&a.t_end_ns))
            .then(a.span_id.cmp(&b.span_id))
    });
    for (i, ev) in order.iter().enumerate() {
        let idx = i as i64;
        let b = format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"B\",\"ts\":{},\"pid\":{PID},\"tid\":{},\"args\":{{\"round\":{},\"sid\":{},\"parent\":{}}}}}",
            ev.kind.name(),
            ev.kind.category(),
            us(ev.t_start_ns),
            ev.thread,
            ev.round,
            ev.span_id,
            ev.parent,
        );
        let e = format!(
            "{{\"ph\":\"E\",\"ts\":{},\"pid\":{PID},\"tid\":{}}}",
            us(ev.t_end_ns),
            ev.thread,
        );
        events.push((ev.t_start_ns, 1, idx, b));
        events.push((ev.t_end_ns, 0, -idx, e));
    }
    events.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, (_, _, _, line)) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(line);
    }
    out.push_str("\n]}\n");
    out
}

/// ns → µs with 3 fractional digits (Chrome `ts` unit is µs).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// Validation (the CI `flight check` gate).

/// Counts from a validated trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChromeCheck {
    /// Total duration events (`B`+`E`).
    pub duration_events: usize,
    /// Complete spans (balanced pairs).
    pub spans: usize,
    /// Distinct `(pid, tid)` tracks carrying spans.
    pub tracks: usize,
    /// Spans with a nonzero `args.round` tag.
    pub round_tagged: usize,
    /// Span names seen, with counts.
    pub names: BTreeMap<String, usize>,
}

/// Structurally validate a Chrome Trace JSON export: required keys on
/// every event, globally monotonic `ts`, and balanced `B`/`E` pairs
/// per track. Returns counts for further assertions.
pub fn check_chrome(json: &str) -> Result<ChromeCheck, String> {
    let c: serde::Content = serde_json::from_str::<crate::spool::RawJson>(json)
        .map_err(|e| format!("trace is not JSON: {e:?}"))?
        .0;
    let events = match &c {
        serde::Content::Map(m) => match m.iter().find(|(k, _)| k == "traceEvents") {
            Some((_, serde::Content::Seq(s))) => s,
            _ => return Err("missing traceEvents array".into()),
        },
        serde::Content::Seq(_) => match &c {
            serde::Content::Seq(s) => s,
            _ => unreachable!(),
        },
        _ => return Err("trace must be an object or array".into()),
    };
    let mut check = ChromeCheck::default();
    let mut last_ts = f64::MIN;
    // (pid, tid) -> stack of open span names.
    let mut open: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let m = match ev {
            serde::Content::Map(m) => m,
            _ => return Err(format!("event {i}: not an object")),
        };
        let field = |k: &str| m.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let ph = match field("ph") {
            Some(serde::Content::Str(s)) => s.clone(),
            _ => return Err(format!("event {i}: missing ph")),
        };
        let pid = num(field("pid")).ok_or_else(|| format!("event {i}: missing pid"))? as u64;
        let tid = num(field("tid")).ok_or_else(|| format!("event {i}: missing tid"))? as u64;
        match ph.as_str() {
            "M" => continue,
            "B" | "E" => {}
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
        check.duration_events += 1;
        let ts = num(field("ts")).ok_or_else(|| format!("event {i}: missing ts"))?;
        if ts < last_ts {
            return Err(format!(
                "event {i}: ts {ts} < previous {last_ts} (not monotonic)"
            ));
        }
        last_ts = ts;
        let stack = open.entry((pid, tid)).or_default();
        if ph == "B" {
            let name = match field("name") {
                Some(serde::Content::Str(s)) => s.clone(),
                _ => return Err(format!("event {i}: B without name")),
            };
            if let Some(serde::Content::Map(args)) = field("args") {
                if args.iter().any(|(k, _)| k == "round") {
                    check.round_tagged += 1;
                }
            }
            *check.names.entry(name.clone()).or_default() += 1;
            stack.push(name);
        } else {
            if stack.pop().is_none() {
                return Err(format!(
                    "event {i}: E without matching B on pid={pid} tid={tid}"
                ));
            }
            check.spans += 1;
        }
    }
    for ((pid, tid), stack) in &open {
        if !stack.is_empty() {
            return Err(format!(
                "unbalanced: {} spans left open on pid={pid} tid={tid} ({})",
                stack.len(),
                stack.join(", ")
            ));
        }
    }
    check.tracks = open.len();
    Ok(check)
}

fn num(c: Option<&serde::Content>) -> Option<f64> {
    match c {
        Some(serde::Content::U64(v)) => Some(*v as f64),
        Some(serde::Content::I64(v)) => Some(*v as f64),
        Some(serde::Content::F64(v)) => Some(*v),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// `flight stats`: top-k slowest spans per kind and per round.

/// The `flight stats` report.
#[derive(Debug, Clone)]
pub struct StatsReport {
    /// Per kind: `(kind, count, total_ns, top spans)`.
    pub kinds: Vec<(SpanKind, u64, u64, Vec<SpanEvent>)>,
    /// Slowest rounds: `(round, total ns across Round spans)`.
    pub slow_rounds: Vec<(u64, u64)>,
    /// Watchdog markers found.
    pub watchdogs: usize,
    /// Total events and drops.
    pub events: usize,
    /// Events lost (ring laps + spool truncation).
    pub dropped: u64,
}

/// Compute top-`k` slowest spans per kind and the `k` slowest rounds.
pub fn stats(spool: &Spool, k: usize) -> StatsReport {
    let mut kinds = Vec::new();
    for kind in SpanKind::ALL {
        let mut spans: Vec<SpanEvent> = spool
            .events
            .iter()
            .filter(|e| e.kind == kind)
            .copied()
            .collect();
        if spans.is_empty() {
            continue;
        }
        let count = spans.len() as u64;
        // A spool is hostile input: its totals saturate, they do not wrap.
        let total = spans.iter().fold(0u64, |total, e| {
            total.saturating_add(e.t_end_ns - e.t_start_ns)
        });
        spans.sort_by_key(|e| std::cmp::Reverse(e.t_end_ns - e.t_start_ns));
        spans.truncate(k);
        kinds.push((kind, count, total, spans));
    }
    let mut per_round: BTreeMap<u64, u64> = BTreeMap::new();
    for e in spool.events.iter().filter(|e| e.kind == SpanKind::Round) {
        let ns = per_round.entry(e.round).or_default();
        *ns = ns.saturating_add(e.t_end_ns - e.t_start_ns);
    }
    let mut slow_rounds: Vec<(u64, u64)> = per_round.into_iter().collect();
    slow_rounds.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
    slow_rounds.truncate(k);
    StatsReport {
        kinds,
        slow_rounds,
        watchdogs: spool.watchdogs.len(),
        events: spool.events.len(),
        dropped: spool.dropped.saturating_add(spool.truncated),
    }
}

/// Render a [`StatsReport`] as the `flight stats` text output.
pub fn render_stats(spool: &Spool, report: &StatsReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} events, {} threads, {} watchdog dump(s), {} dropped",
        report.events,
        spool.threads.len(),
        report.watchdogs,
        report.dropped
    );
    for (kind, count, total, top) in &report.kinds {
        let _ = writeln!(
            out,
            "{:<12} n={:<8} total={:>12}ns mean={:>9}ns",
            kind.name(),
            count,
            total,
            total / count.max(&1)
        );
        for ev in top {
            let _ = writeln!(
                out,
                "    {:>10}ns  round={:<8} thread={} ({})",
                ev.t_end_ns - ev.t_start_ns,
                ev.round,
                ev.thread,
                spool.thread_name(ev.thread)
            );
        }
    }
    if !report.slow_rounds.is_empty() {
        let _ = writeln!(out, "slowest rounds:");
        for (round, ns) in &report.slow_rounds {
            let _ = writeln!(out, "    round {round:<10} {ns}ns");
        }
    }
    for w in &spool.watchdogs {
        let _ = writeln!(
            out,
            "watchdog: stalled at progress={} (t={}ns)",
            w.progress, w.at_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::FlightRecorder;
    use crate::spool::{read_spool, TraceSink};
    use std::time::Instant;

    fn sample_spool(name: &str) -> Spool {
        let rec = FlightRecorder::new();
        let mut main = rec.handle("match");
        let mut side = main.sibling("shard0");
        for t in 1..=3u64 {
            main.round_start(t);
            let t0 = Instant::now();
            main.record(SpanKind::MatchRepair, t0, Instant::now());
            side.round_tag(t);
            side.record(SpanKind::QueueUpdate, t0, Instant::now());
        }
        main.round_finish();
        let dir = std::env::temp_dir().join(format!("fss-flight-chrome-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.spool.jsonl"));
        let sink = TraceSink::create(&rec, &path, 10_000).unwrap();
        sink.finish();
        read_spool(&path).unwrap()
    }

    #[test]
    fn export_validates_and_counts_round_tagged_spans_on_two_tracks() {
        let spool = sample_spool("validate");
        let json = to_chrome(&spool);
        let check = check_chrome(&json).expect("valid chrome trace");
        assert_eq!(check.duration_events, check.spans * 2, "balanced B/E");
        assert_eq!(check.spans, spool.events.len());
        assert!(check.tracks >= 2, "spans on >= 2 thread tracks");
        assert_eq!(
            check.round_tagged, check.spans,
            "every B carries args.round"
        );
        assert!(check.names.contains_key("match_repair"));
        assert!(check.names.contains_key("queue_update"));
        assert!(check.names.contains_key("round"));
    }

    #[test]
    fn check_rejects_unbalanced_and_nonmonotonic_traces() {
        let unbalanced = r#"{"traceEvents":[
            {"name":"a","cat":"x","ph":"B","ts":1,"pid":1,"tid":1,"args":{"round":0}}
        ]}"#;
        assert!(check_chrome(unbalanced).unwrap_err().contains("unbalanced"));
        let nonmono = r#"{"traceEvents":[
            {"name":"a","cat":"x","ph":"B","ts":5,"pid":1,"tid":1},
            {"ph":"E","ts":4,"pid":1,"tid":1}
        ]}"#;
        assert!(check_chrome(nonmono).unwrap_err().contains("monotonic"));
        let stray_end = r#"{"traceEvents":[{"ph":"E","ts":4,"pid":1,"tid":1}]}"#;
        assert!(check_chrome(stray_end)
            .unwrap_err()
            .contains("E without matching B"));
    }

    #[test]
    fn stats_reports_top_k_and_slow_rounds() {
        let spool = sample_spool("stats");
        let report = stats(&spool, 2);
        assert!(report
            .kinds
            .iter()
            .any(|(k, ..)| *k == SpanKind::MatchRepair));
        for (_, count, _, top) in &report.kinds {
            assert!(top.len() as u64 <= 2.min(*count));
            // Top spans are sorted slowest-first.
            assert!(top
                .windows(2)
                .all(|w| w[0].t_end_ns - w[0].t_start_ns >= w[1].t_end_ns - w[1].t_start_ns));
        }
        assert_eq!(report.slow_rounds.len(), 2.min(report.slow_rounds.len()));
        let text = render_stats(&spool, &report);
        assert!(text.contains("match_repair"));
        assert!(text.contains("slowest rounds"));
    }
}
