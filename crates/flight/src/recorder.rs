//! The recorder: a registry of per-thread rings on one monotonic
//! clock, plus the cheap per-thread [`FlightHandle`] the hot paths
//! hold.
//!
//! The contract mirrors `fss_telemetry::EngineTelemetry`: a *disabled*
//! handle costs exactly one branch per instrumentation point and never
//! observes the clock, so schedules are bit-identical traced vs not
//! (pinned by the engine differential suites). Every untraced run holds
//! a disabled handle, so the benchmark's untraced numbers include its
//! cost.

use crate::event::{SpanEvent, SpanKind};
use crate::ring::{SpanRing, DEFAULT_RING_CAPACITY};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub(crate) struct RegisteredRing {
    pub(crate) name: String,
    pub(crate) thread: u32,
    pub(crate) ring: Arc<SpanRing>,
}

pub(crate) struct RecorderShared {
    pub(crate) epoch: Instant,
    pub(crate) rings: Mutex<Vec<RegisteredRing>>,
    next_span: AtomicU64,
    next_thread: AtomicU32,
    /// Bumped every completed round by every handle; the watchdog
    /// watches this cell for forward progress.
    pub(crate) round_progress: AtomicU64,
    ring_capacity: usize,
}

/// The shared recorder. Clone freely; all clones see the same rings
/// and clock.
#[derive(Clone)]
pub struct FlightRecorder {
    pub(crate) shared: Arc<RecorderShared>,
}

impl FlightRecorder {
    /// A recorder whose epoch is *now*, with the default per-thread
    /// ring capacity.
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_ring_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A recorder with an explicit per-thread ring capacity (rounded up
    /// to a power of two; tests use tiny rings to exercise lapping).
    pub(crate) fn with_ring_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            shared: Arc::new(RecorderShared {
                epoch: Instant::now(),
                rings: Mutex::new(Vec::new()),
                next_span: AtomicU64::new(1),
                next_thread: AtomicU32::new(0),
                round_progress: AtomicU64::new(0),
                ring_capacity: capacity,
            }),
        }
    }

    /// Register a new per-thread ring and hand back its producing
    /// handle. `name` becomes the thread track label in exports.
    pub fn handle(&self, name: &str) -> FlightHandle {
        let ring = Arc::new(SpanRing::new(self.shared.ring_capacity));
        let thread = self.shared.next_thread.fetch_add(1, Ordering::Relaxed);
        self.shared.rings.lock().unwrap().push(RegisteredRing {
            name: name.to_string(),
            thread,
            ring: Arc::clone(&ring),
        });
        FlightHandle {
            inner: Some(Box::new(HandleInner {
                shared: Arc::clone(&self.shared),
                ring,
                thread,
                cur_round: NO_ROUND,
                last_round_mark: None,
                session: 0,
                stall: None,
            })),
        }
    }

    /// Allocate a span id without recording anything (for long-lived
    /// spans such as serve sessions, recorded when they close).
    pub fn alloc_span_id(&self) -> u64 {
        self.shared.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// Nanoseconds since the recorder epoch.
    pub(crate) fn now_ns(&self) -> u64 {
        self.shared.epoch.elapsed().as_nanos() as u64
    }

    /// The round-progress cell value (total rounds completed across all
    /// handles) — what the stall watchdog polls.
    pub(crate) fn round_progress(&self) -> u64 {
        self.shared.round_progress.load(Ordering::Relaxed)
    }

    /// Total events pushed and dropped across all rings.
    pub fn totals(&self) -> (u64, u64) {
        let rings = self.shared.rings.lock().unwrap();
        let mut pushed = 0;
        let mut dropped = 0;
        for r in rings.iter() {
            pushed += r.ring.pushed();
            dropped += r.ring.dropped();
        }
        (pushed, dropped)
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (pushed, dropped) = self.totals();
        f.debug_struct("FlightRecorder")
            .field("threads", &self.shared.rings.lock().unwrap().len())
            .field("pushed", &pushed)
            .field("dropped", &dropped)
            .finish()
    }
}

/// Sentinel: no round observed yet on this handle.
const NO_ROUND: u64 = u64::MAX;

/// A deliberate stall injected into the match stage (CI watchdog e2e;
/// parsed from `FSS_FLIGHT_FAIL_STALL=<round>:<millis>`).
#[derive(Debug, Clone, Copy)]
pub struct StallInject {
    /// Stall once the handle's round tag reaches this round.
    pub round: u64,
    /// How long to sleep.
    pub millis: u64,
}

impl StallInject {
    /// Parse `"<round>:<millis>"` (the `FSS_FLIGHT_FAIL_STALL` value).
    pub(crate) fn parse(s: &str) -> Result<StallInject, String> {
        let (r, ms) = s
            .split_once(':')
            .ok_or_else(|| format!("expected <round>:<millis>, got {s:?}"))?;
        Ok(StallInject {
            round: r
                .trim()
                .parse()
                .map_err(|e| format!("bad stall round {r:?}: {e}"))?,
            millis: ms
                .trim()
                .parse()
                .map_err(|e| format!("bad stall millis {ms:?}: {e}"))?,
        })
    }
}

struct HandleInner {
    shared: Arc<RecorderShared>,
    ring: Arc<SpanRing>,
    thread: u32,
    /// Current round tag for spans recorded on this thread.
    cur_round: u64,
    /// ns mark of the previous round boundary (round-span start).
    last_round_mark: Option<u64>,
    /// Parent span id for round spans (serve session), 0 = none.
    session: u64,
    stall: Option<StallState>,
}

struct StallState {
    inject: StallInject,
    fired: bool,
}

/// The per-thread producing handle. Disabled handles (the default) are
/// a `None` and every method is a single branch.
pub struct FlightHandle {
    inner: Option<Box<HandleInner>>,
}

impl FlightHandle {
    /// The zero-cost disabled handle.
    pub fn disabled() -> FlightHandle {
        FlightHandle { inner: None }
    }

    /// Is recording live?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A new handle on the same recorder with its own ring — for worker
    /// threads (`name` labels the track). Disabled handles beget
    /// disabled siblings.
    pub fn sibling(&self, name: &str) -> FlightHandle {
        match &self.inner {
            None => FlightHandle::disabled(),
            Some(h) => FlightRecorder {
                shared: Arc::clone(&h.shared),
            }
            .handle(name),
        }
    }

    /// Record a closed span of `kind` over `[start, end]`, tagged with
    /// the handle's current round. Returns the span id (0 if disabled).
    #[inline]
    pub fn record(&mut self, kind: SpanKind, start: Instant, end: Instant) -> u64 {
        match &mut self.inner {
            None => 0,
            Some(h) => {
                let round = if h.cur_round == NO_ROUND {
                    0
                } else {
                    h.cur_round
                };
                h.record_at(kind, 0, round, start, end)
            }
        }
    }

    /// Record a closed span with explicit parent and round (serve
    /// sessions, bench cells). Returns the span id (0 if disabled).
    pub fn record_with(
        &mut self,
        kind: SpanKind,
        parent: u64,
        round: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        match &mut self.inner {
            None => 0,
            Some(h) => h.record_at(kind, parent, round, start, end),
        }
    }

    /// Mark the start of round `t` on this thread: closes the previous
    /// round's span (tagged with *its* round number), sets the tag for
    /// subsequent stage spans, and bumps the watchdog progress cell.
    #[inline]
    pub fn round_start(&mut self, t: u64) {
        if let Some(h) = &mut self.inner {
            let now = h.now_ns();
            if let (Some(mark), prev) = (h.last_round_mark, h.cur_round) {
                if prev != NO_ROUND {
                    h.record_ns(SpanKind::Round, h.session, prev, mark, now);
                }
            }
            h.cur_round = t;
            h.last_round_mark = Some(now);
            h.shared.round_progress.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Set the round tag only (for threads that learn a position
    /// second-hand — a bench cell's flat-list position — and drive neither
    /// progress nor round spans).
    #[inline]
    pub fn round_tag(&mut self, t: u64) {
        if let Some(h) = &mut self.inner {
            h.cur_round = t;
        }
    }

    /// Close the final round span (call once when a drive finishes).
    pub fn round_finish(&mut self) {
        if let Some(h) = &mut self.inner {
            if let (Some(mark), prev) = (h.last_round_mark, h.cur_round) {
                if prev != NO_ROUND {
                    let now = h.now_ns();
                    h.record_ns(SpanKind::Round, h.session, prev, mark, now);
                }
            }
            h.last_round_mark = None;
            h.cur_round = NO_ROUND;
        }
    }

    /// Parent future round spans under `span_id` (a serve session).
    pub fn set_session(&mut self, span_id: u64) {
        if let Some(h) = &mut self.inner {
            h.session = span_id;
        }
    }

    /// Arm the deliberate match-stage stall (CI watchdog e2e).
    pub fn set_stall_inject(&mut self, inject: StallInject) {
        if let Some(h) = &mut self.inner {
            h.stall = Some(StallState {
                inject,
                fired: false,
            });
        }
    }

    /// Called by the match stage: sleeps once when the armed stall's
    /// round is reached. A no-op unless a stall was armed.
    #[inline]
    pub fn maybe_stall(&mut self) {
        if let Some(h) = &mut self.inner {
            if let Some(s) = &mut h.stall {
                if !s.fired && h.cur_round != NO_ROUND && h.cur_round >= s.inject.round {
                    s.fired = true;
                    std::thread::sleep(Duration::from_millis(s.inject.millis));
                }
            }
        }
    }
}

impl HandleInner {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.shared.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    fn record_at(
        &mut self,
        kind: SpanKind,
        parent: u64,
        round: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let t0 = start
            .saturating_duration_since(self.shared.epoch)
            .as_nanos() as u64;
        let t1 = end.saturating_duration_since(self.shared.epoch).as_nanos() as u64;
        self.record_ns(kind, parent, round, t0, t1)
    }

    fn record_ns(&self, kind: SpanKind, parent: u64, round: u64, t0: u64, t1: u64) -> u64 {
        let span_id = self.shared.next_span.fetch_add(1, Ordering::Relaxed);
        self.ring.push(&SpanEvent {
            span_id,
            parent,
            kind,
            round,
            // Zero-duration spans would emit an E that sorts before its
            // own B; give every span at least 1 ns.
            t_start_ns: t0,
            t_end_ns: t1.max(t0 + 1),
            thread: self.thread,
        });
        span_id
    }
}

impl std::fmt::Debug for FlightHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("FlightHandle(disabled)"),
            Some(h) => write!(f, "FlightHandle(thread={})", h.thread),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(rec: &FlightRecorder) -> Vec<SpanEvent> {
        let mut out = Vec::new();
        for r in rec.shared.rings.lock().unwrap().iter() {
            r.ring.drain(&mut out);
        }
        out
    }

    #[test]
    fn a_disabled_handle_records_nothing_and_returns_values() {
        let mut h = FlightHandle::disabled();
        assert!(!h.is_enabled());
        assert_eq!(
            h.record(SpanKind::Ingest, Instant::now(), Instant::now()),
            0
        );
        h.round_start(3);
        h.round_finish();
        h.maybe_stall();
        assert!(!h.sibling("s").is_enabled());
    }

    #[test]
    fn round_start_closes_the_previous_round_span_with_its_own_tag() {
        let rec = FlightRecorder::new();
        let mut h = rec.handle("main");
        h.round_start(5);
        let t0 = Instant::now();
        h.record(SpanKind::MatchRepair, t0, Instant::now());
        h.round_start(6);
        h.round_finish();
        let evs = drain_all(&rec);
        let rounds: Vec<&SpanEvent> = evs.iter().filter(|e| e.kind == SpanKind::Round).collect();
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds[0].round, 5);
        assert_eq!(rounds[1].round, 6);
        let stage = evs
            .iter()
            .find(|e| e.kind == SpanKind::MatchRepair)
            .unwrap();
        assert_eq!(stage.round, 5, "stage spans carry the open round tag");
        assert_eq!(rec.round_progress(), 2);
    }

    #[test]
    fn siblings_get_distinct_threads() {
        let rec = FlightRecorder::new();
        let mut a = rec.handle("a");
        let mut b = a.sibling("b");
        let now = Instant::now();
        b.record(SpanKind::Dispatch, now, now);
        a.record(SpanKind::Ingest, now, now);
        let evs = drain_all(&rec);
        let threads: std::collections::BTreeSet<u32> = evs.iter().map(|e| e.thread).collect();
        assert_eq!(threads.len(), 2);
    }

    #[test]
    fn stall_inject_parses_and_fires_once() {
        let s = StallInject::parse("12:1").unwrap();
        assert_eq!((s.round, s.millis), (12, 1));
        assert!(StallInject::parse("12").is_err());
        assert!(StallInject::parse("x:1").is_err());

        let rec = FlightRecorder::new();
        let mut h = rec.handle("m");
        h.set_stall_inject(s);
        h.round_start(11);
        let t = Instant::now();
        h.maybe_stall(); // below target round: no sleep
        assert!(t.elapsed() < Duration::from_millis(1));
        h.round_start(12);
        let t = Instant::now();
        h.maybe_stall();
        assert!(t.elapsed() >= Duration::from_millis(1));
        let t = Instant::now();
        h.maybe_stall(); // fires once
        assert!(t.elapsed() < Duration::from_millis(1));
    }

    #[test]
    fn every_span_has_nonzero_duration_and_unique_id() {
        let rec = FlightRecorder::new();
        let mut h = rec.handle("m");
        let now = Instant::now();
        for _ in 0..10 {
            h.record(SpanKind::Dispatch, now, now); // zero-duration input
        }
        let evs = drain_all(&rec);
        assert_eq!(evs.len(), 10);
        let mut ids: Vec<u64> = evs.iter().map(|e| e.span_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10);
        assert!(evs.iter().all(|e| e.t_end_ns > e.t_start_ns));
    }
}
