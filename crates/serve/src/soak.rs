//! The soak harness: stream a full scenario through a *real* socket
//! server and strict-diff the live dispatch stream against the
//! single-process reference.
//!
//! One [`run_soak`] call:
//!
//! 1. materializes the scenario's arrival trace in memory
//!    ([`ScenarioSpec::dump_trace`]) and computes the **reference**
//!    dispatch stream by replaying it through
//!    [`fss_sim::run_source`] in-process;
//! 2. boots [`run_server_on`] on an ephemeral localhost port (with the
//!    scenario's failure plan injected and a `/metrics` listener);
//! 3. plays the trace as a client: optionally disconnecting after
//!    `disconnect_after` arrivals (write half-close, drain the response
//!    stream to its `Detached` marker), scraping `/metrics` over raw
//!    HTTP (during the disconnect window, or before `Finish` on one
//!    connection), then reconnecting and sending the rest plus
//!    `Finish`;
//! 4. concatenates the `Dispatch` lines received across connections and
//!    compares them **string-for-string** against the reference — the
//!    strictest possible parity check — and verifies conservation
//!    (every arrival admitted and dispatched, nothing silently lost).
//!
//! Admission runs in `Pause` mode so the check is deterministic: the
//! gate blocks rather than sheds when the client outruns the engine,
//! which is exactly the regime a multi-million-flow soak spends most of
//! its time in. Each connection gets a dedicated reader thread so the
//! client never deadlocks against a full TCP write buffer while the
//! server streams responses; it reads through [`read_responses`], as
//! `flowsched serve --replay` does.

use crate::framing::read_responses;
use crate::proto::{ServeKind, ServeMsg, ServeStats};
use crate::server::run_server_on;
use crate::session::ServeOptions;
use fss_engine::EngineTelemetry;
use fss_sim::{run_source, PolicyKind, ScenarioSpec, TraceSource};
use std::io::{BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;

/// Soak configuration.
#[derive(Debug, Clone)]
pub struct SoakOptions {
    /// The workload (ports, arrivals, optional failure plan, seed).
    /// Must be bounded — the trace is materialized up front.
    pub spec: ScenarioSpec,
    /// Scheduling policy under test.
    pub policy: PolicyKind,
    /// Ingest queue capacity for the live server.
    pub queue_cap: usize,
    /// Disconnect the client after this many arrivals and reconnect
    /// (`None` = a single connection end to end).
    pub disconnect_after: Option<u64>,
}

impl SoakOptions {
    /// A soak over `spec` with the default knobs (MaxCard, queue 1024,
    /// one connection end to end).
    pub fn new(spec: ScenarioSpec) -> SoakOptions {
        SoakOptions {
            spec,
            policy: PolicyKind::MaxCard,
            queue_cap: 1024,
            disconnect_after: None,
        }
    }
}

/// What a soak run observed. [`run_soak`] already *fails* on parity or
/// conservation violations; the report carries the evidence.
#[derive(Debug)]
pub struct SoakReport {
    /// Arrivals in the materialized trace (== flows streamed).
    pub flows: u64,
    /// The live server's final accounting.
    pub stats: ServeStats,
    /// Dispatch lines received (== `flows` after the parity check).
    pub dispatch_lines: u64,
    /// Whether the first connection's stream ended with the `Detached`
    /// marker (always true when `disconnect_after` is set).
    pub detached_seen: bool,
    /// The mid-run `/metrics` scrape.
    pub scrape: String,
}

/// Read response lines until EOF on a dedicated thread (so the writer
/// side can never deadlock against a full TCP buffer).
fn spawn_reader(stream: TcpStream) -> thread::JoinHandle<Result<Vec<String>, String>> {
    thread::spawn(move || {
        let mut lines = Vec::new();
        read_responses(stream, |line| lines.push(line.to_string()))?;
        Ok(lines)
    })
}

/// Wait for a reader thread's lines.
fn join_reader(
    reader: thread::JoinHandle<Result<Vec<String>, String>>,
) -> Result<Vec<String>, String> {
    reader.join().map_err(|_| "reader panicked".to_string())?
}

fn scrape_http(addr: std::net::SocketAddr) -> Result<String, String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect metrics: {e}"))?;
    write!(conn, "GET /metrics HTTP/1.1\r\nHost: soak\r\n\r\n")
        .map_err(|e| format!("send scrape: {e}"))?;
    conn.shutdown(Shutdown::Write).ok();
    let mut reply = String::new();
    conn.read_to_string(&mut reply)
        .map_err(|e| format!("read scrape: {e}"))?;
    let body = reply
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed scrape reply: {reply:?}"))?
        .1
        .to_string();
    if !reply.starts_with("HTTP/1.1 200") {
        return Err(format!("scrape returned non-200: {reply:?}"));
    }
    Ok(body)
}

/// Run one soak (see the module docs). `Err` on any I/O failure, parity
/// mismatch, or conservation violation.
pub fn run_soak(opts: &SoakOptions) -> Result<SoakReport, String> {
    let trace = opts
        .spec
        .dump_trace()
        .map_err(|e| format!("materialize trace: {e}"))?;
    let flows = trace.arrivals.len() as u64;

    // Reference dispatch stream: same trace, same policy, same failure
    // plan, through the same dispatch core — in one process.
    let mut reference = Vec::with_capacity(trace.arrivals.len());
    run_source(
        Box::new(TraceSource::new(Arc::new(trace.clone()))),
        opts.policy,
        opts.spec.failures.as_ref(),
        &mut EngineTelemetry::disabled(),
        |id, release, round| reference.push(ServeMsg::dispatch(id, release, round).to_line()),
    );

    // Live server on ephemeral localhost ports.
    let ingest_listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind ingest: {e}"))?;
    let ingest_addr = ingest_listener.local_addr().map_err(|e| e.to_string())?;
    let metrics_listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind metrics: {e}"))?;
    let metrics_addr = metrics_listener.local_addr().map_err(|e| e.to_string())?;
    let serve_opts = ServeOptions {
        ports: trace.ports,
        policy: opts.policy,
        failures: opts.spec.failures.clone(),
        queue_cap: opts.queue_cap,
        ..ServeOptions::default()
    };
    let server =
        thread::spawn(move || run_server_on(ingest_listener, Some(metrics_listener), serve_opts));

    // Client: connection 1 (header + first chunk). What goes over the
    // wire is the trace's own file form: the header line, then one line
    // per arrival.
    let jsonl = trace.to_jsonl();
    let mut wire = jsonl.lines();
    let cut = opts
        .disconnect_after
        .map(|n| (n as usize).min(trace.arrivals.len()))
        .unwrap_or(trace.arrivals.len());
    let conn1 = TcpStream::connect(ingest_addr).map_err(|e| format!("connect 1: {e}"))?;
    let reader1 = spawn_reader(conn1.try_clone().map_err(|e| e.to_string())?);
    {
        let mut w = BufWriter::new(&conn1);
        for line in wire.by_ref().take(1 + cut) {
            writeln!(w, "{line}").map_err(|e| format!("send trace line: {e}"))?;
        }
        w.flush().map_err(|e| format!("flush conn 1: {e}"))?;
    }
    let mut detached_seen = false;
    let scrape;
    let mut lines = if opts.disconnect_after.is_some() {
        // Half-close: the server sees EOF, detaches (terminating our
        // stream with a marker), and waits for the reconnect.
        conn1
            .shutdown(Shutdown::Write)
            .map_err(|e| format!("half-close: {e}"))?;
        let lines1 = join_reader(reader1)?;
        detached_seen = lines1
            .last()
            .and_then(|l| ServeMsg::parse(l).ok())
            .is_some_and(|m| m.kind == ServeKind::Detached);
        scrape = scrape_http(metrics_addr)?;

        // Connection 2: the rest of the trace + Finish.
        let conn2 = TcpStream::connect(ingest_addr).map_err(|e| format!("connect 2: {e}"))?;
        let reader2 = spawn_reader(conn2.try_clone().map_err(|e| e.to_string())?);
        {
            let mut w = BufWriter::new(&conn2);
            for line in wire {
                writeln!(w, "{line}").map_err(|e| format!("send trace line: {e}"))?;
            }
            writeln!(w, "{}", ServeMsg::finish().to_line())
                .map_err(|e| format!("send finish: {e}"))?;
            w.flush().map_err(|e| format!("flush conn 2: {e}"))?;
        }
        let mut lines = lines1;
        lines.extend(join_reader(reader2)?);
        lines
    } else {
        // Scrape while the session is provably alive (before Finish —
        // the metrics listener stops when the session ends).
        scrape = scrape_http(metrics_addr)?;
        let mut w = BufWriter::new(&conn1);
        writeln!(w, "{}", ServeMsg::finish().to_line()).map_err(|e| format!("send finish: {e}"))?;
        w.flush().map_err(|e| format!("flush finish: {e}"))?;
        drop(w);
        join_reader(reader1)?
    };

    let stats = server
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("server failed: {e}"))?;

    // Conservation: every offered arrival admitted (Pause mode is
    // lossless) and dispatched; nothing silently lost.
    if stats.arrived != flows || stats.dropped != 0 || stats.dispatched != flows {
        return Err(format!(
            "conservation violated: {flows} flows sent, arrived={} dropped={} dispatched={}",
            stats.arrived, stats.dropped, stats.dispatched
        ));
    }

    // Strict parity: the concatenated Dispatch lines must equal the
    // reference stream string-for-string.
    lines.retain(|l| l.contains("\"kind\":\"Dispatch\""));
    if lines.len() != reference.len() {
        return Err(format!(
            "parity violated: served {} dispatch lines, reference has {}",
            lines.len(),
            reference.len()
        ));
    }
    for (i, (got, want)) in lines.iter().zip(reference.iter()).enumerate() {
        if got != want {
            return Err(format!(
                "parity violated at dispatch {i}: served {got} but reference says {want}"
            ));
        }
    }

    Ok(SoakReport {
        flows,
        stats,
        dispatch_lines: lines.len() as u64,
        detached_seen,
        scrape,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fss_sim::ArrivalSpec;

    fn poisson_spec(ports: usize, rate: f64, rounds: u64) -> ScenarioSpec {
        ScenarioSpec {
            ports,
            horizon: Some(rounds),
            arrivals: ArrivalSpec::Poisson { rate },
            failures: None,
            seed: 7,
        }
    }

    #[test]
    fn a_small_soak_holds_parity_without_a_disconnect() {
        let opts = SoakOptions {
            disconnect_after: None,
            ..SoakOptions::new(poisson_spec(8, 4.0, 40))
        };
        let report = run_soak(&opts).expect("soak passes");
        assert!(report.flows > 0);
        assert_eq!(report.dispatch_lines, report.flows);
        assert!(!report.detached_seen);
        assert!(report.scrape.contains("fss_serve_flows_ingested_total"));
    }

    #[test]
    fn a_soak_with_disconnect_and_outage_holds_parity() {
        use fss_sim::{FailurePlan, Outage};
        let mut spec = poisson_spec(8, 4.0, 60);
        spec.failures = Some(FailurePlan {
            outages: vec![Outage {
                side: fss_core::PortSide::Input,
                port: 2,
                from: 5,
                to: 15,
            }],
        });
        let opts = SoakOptions {
            disconnect_after: Some(50),
            queue_cap: 16,
            ..SoakOptions::new(spec)
        };
        let report = run_soak(&opts).expect("soak passes");
        assert!(report.flows > 50, "cut point falls mid-trace");
        assert!(report.detached_seen, "first stream ended with the marker");
        assert_eq!(report.dispatch_lines, report.flows);
        assert_eq!(report.stats.dropped, 0);
    }
}
