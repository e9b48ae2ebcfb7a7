//! One repetition of `serve-socket`: a fresh `run_server_on` per phase on
//! an ephemeral **loopback TCP** port (not a real link), one connection,
//! two client threads (writer = the caller, reader), so the load generator
//! never uses more threads than this 2-hw-thread box has.
//!
//! * **Blast phase** — closed loop: every line as fast as backpressure
//!   (Pause admission, TCP window) admits, timed from the first arrival
//!   byte to the receipt of the `Stats` line. Shows throughput.
//! * **Paced phase** — open loop: the first [`PACED_ROUNDS`] rounds, one
//!   round's lines per [`TICK`] (about 30 % of the blast rate), then
//!   `Finish`. Each dispatch is timed from the **due** time of the tick
//!   whose line closed its round (the first later non-empty round, or
//!   `Finish`) to the receipt of its `Dispatch` line — so pacing
//!   granularity and schedule wait are excluded and generator stalls are
//!   charged. Shows latency.
//!
//! Batching in the server's sink would help one phase and could hurt the
//! other; that is why both are here.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::check::{check_equal, Dispatch, Verdict};
use crate::spans::Spans;
use crate::surface::{
    run_server_on, Arrival, BuiltinPolicy, EngineMode, PolicyKind, ServeMsg, ServeOptions,
};
use crate::workloads::reference_run;

/// Paced phase: one round per tick.
pub const TICK: Duration = Duration::from_micros(250);
/// Paced phase: rounds sent before `Finish`.
pub const PACED_ROUNDS: u64 = 1200;
/// Ingest queue capacity of the server under test (the default).
pub const QUEUE_CAP: usize = 1024;

/// The server under test: MaxCard, Pause admission, no failures, one
/// engine thread.
pub fn options(m: usize) -> ServeOptions {
    ServeOptions {
        ports: m,
        policy: PolicyKind::MaxCard,
        queue_cap: QUEUE_CAP,
        ..ServeOptions::default()
    }
}

/// The wire form of one phase: what the client sends, what it must get.
pub struct Phase {
    /// `{"ports":m}` header, then one arrival line per flow.
    pub request: Vec<u8>,
    /// Length of the header line within `request`.
    header_len: usize,
    /// `round_end[r]`: end offset in `request` of the lines released by
    /// round `r`.
    round_end: Vec<usize>,
    /// The in-process reference's `Dispatch` lines, in order.
    pub reference: Vec<String>,
}

impl Phase {
    fn new(m: usize, arrivals: &[Arrival], log: &[Dispatch]) -> Phase {
        let mut request = format!("{{\"ports\":{m}}}\n").into_bytes();
        let header_len = request.len();
        let rounds = arrivals.last().map_or(0, |a| a.release + 1);
        let mut round_end = Vec::with_capacity(rounds as usize);
        let mut next = arrivals.iter().peekable();
        for r in 0..rounds {
            while let Some(a) = next.next_if(|a| a.release == r) {
                writeln!(
                    request,
                    "{{\"release\":{},\"src\":{},\"dst\":{}}}",
                    a.release, a.src, a.dst
                )
                .expect("writing to a Vec cannot fail");
            }
            round_end.push(request.len());
        }
        let reference = log
            .iter()
            .map(|d| ServeMsg::dispatch(d.id, d.release, d.round).to_line())
            .collect();
        Phase {
            request,
            header_len,
            round_end,
            reference,
        }
    }

    /// Flows this phase offers.
    pub fn flows(&self) -> u64 {
        self.reference.len() as u64
    }

    /// `closing[r]`: the tick whose line told the server that round `r`
    /// was complete — the next round with arrivals, or `Finish` (tick
    /// `rounds`).
    fn closing_ticks(&self) -> Vec<usize> {
        let rounds = self.round_end.len();
        let mut closing = vec![rounds; rounds];
        for r in (0..rounds.saturating_sub(1)).rev() {
            closing[r] = if self.round_lines(r + 1).is_empty() {
                closing[r + 1]
            } else {
                r + 1
            };
        }
        closing
    }

    /// The arrival lines of round `r`.
    fn round_lines(&self, r: usize) -> &[u8] {
        let start = if r == 0 {
            self.header_len
        } else {
            self.round_end[r - 1]
        };
        &self.request[start..self.round_end[r]]
    }
}

/// Both phases' wire input.
pub struct Input {
    m: usize,
    /// All rounds.
    pub blast: Phase,
    /// The first [`PACED_ROUNDS`] rounds.
    pub paced: Phase,
}

impl Input {
    /// Render the arrival lines and the reference `Dispatch` lines.
    /// `log` is the in-process MaxCard run of all `arrivals`; the paced
    /// prefix needs a run of its own (its backlog drains without the
    /// later arrivals).
    pub fn new(m: usize, arrivals: &[Arrival], log: &[Dispatch]) -> Input {
        let cut = arrivals.partition_point(|a| a.release < PACED_ROUNDS);
        let prefix = &arrivals[..cut];
        let mode = EngineMode::Exact(BuiltinPolicy::MaxCard);
        Input {
            m,
            blast: Phase::new(m, arrivals, log),
            paced: Phase::new(m, prefix, &reference_run(m, prefix, mode).0),
        }
    }
}

/// What one session saw.
struct Session {
    /// Every byte the server sent after the banner.
    bytes: Vec<u8>,
    /// `(bytes received so far, ns since the session's base)` per read.
    marks: Vec<(usize, u64)>,
    /// What the session allocated — the server's side: the client's
    /// buffers are sized before the window opens.
    alloc: alloc::Window,
    /// When the first arrival byte was written, ns since base.
    start_ns: u64,
    /// Bind to banner, seconds.
    boot_s: f64,
    /// How late each tick was sent, µs (paced only).
    late_us: Vec<f64>,
    pauses: u64,
    dropped: u64,
}

fn ns(base: Instant) -> u64 {
    base.elapsed().as_nanos() as u64
}

/// Boot a server, play `phase` (paced when `tick` is set), drain.
fn session(
    m: usize,
    phase: &Phase,
    tick: Option<Duration>,
    spans: &mut Spans,
) -> Result<Session, String> {
    let io = |what: &str, e: std::io::Error| format!("serve-socket: {what}: {e}");
    // The client's buffers, sized for the whole reply up front so that
    // the allocation window below sees the server, not the client.
    let reply: usize = phase.reference.iter().map(|l| l.len() + 1).sum();
    let mut bytes = Vec::with_capacity(reply + (1 << 16));
    let mut marks = Vec::with_capacity(phase.reference.len() + 64);
    let mut buf = vec![0u8; 1 << 16];
    let mut late_us = Vec::with_capacity(phase.round_end.len() + 1);
    let finish = format!("{}\n", ServeMsg::finish().to_line());
    // Where `serve.boot`, `serve.blast` or `serve.paced`, and `serve.drain`
    // start (and the last one ends) on the span log's clock: read inside
    // the allocation window, logged after it, because logging allocates.
    let mut edges = [0u64; 4];
    let window = alloc::mark();

    edges[0] = spans.now_ns();
    let base = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| io("bind", e))?;
    let addr = listener.local_addr().map_err(|e| io("local addr", e))?;
    let server = thread::spawn(move || run_server_on(listener, None, options(m)));
    let mut conn = TcpStream::connect(addr).map_err(|e| io("connect", e))?;
    conn.set_nodelay(true).map_err(|e| io("nodelay", e))?;
    // The `Started` banner, byte by byte: it is one short line, and a
    // buffered reader would swallow what follows it.
    let mut byte = [0u8; 1];
    while byte[0] != b'\n' {
        conn.read_exact(&mut byte).map_err(|e| io("banner", e))?;
    }
    let boot_s = base.elapsed().as_secs_f64();
    edges[1] = spans.now_ns();

    let mut from_server = conn.try_clone().map_err(|e| io("clone", e))?;
    let reader = thread::spawn(move || {
        // A read error ends the stream like EOF does; the line check
        // below then reports what is missing.
        while let Ok(n @ 1..) = from_server.read(&mut buf) {
            bytes.extend_from_slice(&buf[..n]);
            marks.push((bytes.len(), ns(base)));
        }
        (bytes, marks)
    });

    conn.write_all(&phase.request[..phase.header_len])
        .map_err(|e| io("send header", e))?;
    let start_ns = ns(base);
    match tick {
        None => {
            conn.write_all(&phase.request[phase.header_len..])
                .and_then(|()| conn.write_all(finish.as_bytes()))
                .map_err(|e| io("blast", e))?;
        }
        Some(tick) => {
            let rounds = phase.round_end.len();
            for k in 0..=rounds {
                let due = start_ns + k as u64 * tick.as_nanos() as u64;
                // Spin, but let the server's threads have the core
                // whenever they are runnable: this box has two.
                let mut now = ns(base);
                while now < due {
                    thread::yield_now();
                    now = ns(base);
                }
                late_us.push((now - due) as f64 / 1e3);
                let lines = if k < rounds {
                    phase.round_lines(k)
                } else {
                    finish.as_bytes()
                };
                conn.write_all(lines).map_err(|e| io("paced send", e))?;
            }
        }
    }

    edges[2] = spans.now_ns();
    let (bytes, marks) = reader.join().map_err(|_| "serve-socket: reader panicked")?;
    let stats = server
        .join()
        .map_err(|_| "serve-socket: server panicked")?
        .map_err(|e| format!("serve-socket: server failed: {e}"))?;
    edges[3] = spans.now_ns();
    let alloc = alloc::since(&window);
    let sending = if tick.is_some() {
        "serve.paced"
    } else {
        "serve.blast"
    };
    for (name, at) in ["serve.boot", sending, "serve.drain"]
        .iter()
        .zip(edges.windows(2))
    {
        spans.closed(name, at[0], at[1]);
    }
    Ok(Session {
        bytes,
        marks,
        alloc,
        start_ns,
        boot_s,
        late_us,
        pauses: stats.pauses,
        dropped: stats.dropped,
    })
}

impl Session {
    /// The `Dispatch` lines received, each with the time (ns since base)
    /// of the read that completed it.
    fn dispatch_lines(&self) -> Vec<(&str, u64)> {
        let text = std::str::from_utf8(&self.bytes).unwrap_or("");
        let (mut out, mut offset, mut mark) = (Vec::new(), 0, 0);
        for line in text.split_inclusive('\n') {
            offset += line.len();
            if !line.ends_with('\n') {
                break; // torn tail: the stream ended mid-line
            }
            while self.marks[mark].0 < offset {
                mark += 1;
            }
            if line.contains("\"kind\":\"Dispatch\"") {
                out.push((line.trim_end(), self.marks[mark].1));
            }
        }
        out
    }

    /// Lines that differ from the reference, plus drops.
    fn verdict(&self, phase: &Phase, lines: &[(&str, u64)]) -> Verdict {
        let got: Vec<&str> = lines.iter().map(|&(l, _)| l).collect();
        let want: Vec<&str> = phase.reference.iter().map(String::as_str).collect();
        let mut v = check_equal("serve-socket dispatch line", &got, &want);
        if self.dropped > 0 {
            v.fail_many(self.dropped, || {
                format!("serve-socket: {} arrivals dropped", self.dropped)
            });
        }
        v
    }
}

/// The `round` field of a `Dispatch` line.
fn round_of(line: &str) -> Option<u64> {
    let digits = line.split_once("\"round\":")?.1;
    let end = digits.find(|c: char| !c.is_ascii_digit())?;
    digits[..end].parse().ok()
}

/// One repetition: both phases.
pub struct SocketRep {
    /// Blast: first arrival byte to the last byte received, seconds.
    pub blast_wall_s: f64,
    /// Paced: per-flow dispatch latency from the closing tick's due
    /// time, µs.
    pub latency_us: Vec<f64>,
    /// Paced: how late each tick was sent, µs.
    pub late_us: Vec<f64>,
    /// Bind to banner, seconds (mean of the two sessions).
    pub boot_s: f64,
    /// Times Pause admission blocked the blast.
    pub pauses: u64,
    /// Bytes the server sent in the blast.
    pub bytes_out: u64,
    /// What the two sessions allocated (peak: the larger; counts: both).
    pub alloc: alloc::Window,
    /// Flows offered across both phases.
    pub attempted: u64,
    /// Lines that differ from the in-process reference, plus drops.
    pub verdict: Verdict,
}

/// Run one repetition against fresh servers.
pub fn run(input: &Input, spans: &mut Spans) -> Result<SocketRep, String> {
    let blast = session(input.m, &input.blast, None, spans)?;
    let blast_lines = blast.dispatch_lines();
    let mut verdict = blast.verdict(&input.blast, &blast_lines);
    let last_ns = blast.marks.last().map_or(blast.start_ns, |m| m.1);

    let paced = session(input.m, &input.paced, Some(TICK), spans)?;
    let lines = paced.dispatch_lines();
    verdict.absorb(paced.verdict(&input.paced, &lines));

    let closing = input.paced.closing_ticks();
    let rounds = closing.len();
    let tick_ns = TICK.as_nanos() as u64;
    let mut latency_us = Vec::with_capacity(lines.len());
    for &(line, at) in &lines {
        let Some(round) = round_of(line) else {
            continue;
        };
        let tick = closing.get(round as usize).copied().unwrap_or(rounds);
        let due = paced.start_ns + tick as u64 * tick_ns;
        latency_us.push(at.saturating_sub(due) as f64 / 1e3);
    }
    Ok(SocketRep {
        blast_wall_s: (last_ns - blast.start_ns) as f64 / 1e9,
        latency_us,
        late_us: paced.late_us,
        boot_s: (blast.boot_s + paced.boot_s) / 2.0,
        pauses: blast.pauses,
        bytes_out: blast.bytes.len() as u64,
        alloc: alloc::Window {
            peak_bytes: blast.alloc.peak_bytes.max(paced.alloc.peak_bytes),
            count: blast.alloc.count + paced.alloc.count,
            bytes: blast.alloc.bytes + paced.alloc.bytes,
        },
        attempted: input.blast.flows() + input.paced.flows(),
        verdict,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrival(id: u64, release: u64) -> Arrival {
        Arrival {
            id,
            src: 0,
            dst: 1,
            release,
        }
    }

    #[test]
    fn a_phase_slices_its_lines_by_round_and_knows_what_closes_each() {
        // Rounds 0 and 3 have arrivals, 1 and 2 are empty.
        let arrivals = [arrival(0, 0), arrival(1, 0), arrival(2, 3)];
        let log = [Dispatch {
            id: 0,
            release: 0,
            round: 0,
        }];
        let phase = Phase::new(4, &arrivals, &log);
        let lines = |r| {
            std::str::from_utf8(phase.round_lines(r))
                .unwrap()
                .lines()
                .count()
        };
        assert_eq!([lines(0), lines(1), lines(2), lines(3)], [2, 0, 0, 1]);
        assert!(phase.request.starts_with(b"{\"ports\":4}\n"));
        // Round 0 is closed by round 3's line, round 3 by `Finish` (tick 4).
        assert_eq!(phase.closing_ticks(), [3, 3, 3, 4]);
        assert_eq!(round_of(&phase.reference[0]), Some(0));
    }

    #[test]
    fn round_of_reads_the_round_field() {
        let line = ServeMsg::dispatch(7, 3, 1234).to_line();
        assert_eq!(round_of(&line), Some(1234));
        assert_eq!(round_of("{\"kind\":\"Stats\"}"), None);
    }
}
