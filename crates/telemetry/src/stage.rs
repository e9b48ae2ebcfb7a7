//! The round-loop stage taxonomy and the `&mut`-handle stage timer the
//! engine threads through its drive loops.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::histo::LatencyHisto;
use crate::snapshot::TelemetrySnapshot;
use fss_flight::{FlightHandle, SpanKind};

/// The four stages of one engine round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Pulling arrivals from the source and enqueueing flows.
    Ingest,
    /// Queue maintenance: peak tracking, emptied-port cleanup.
    QueueUpdate,
    /// Matching repair / selection — the per-round scheduling decision.
    MatchRepair,
    /// Releasing matched flows and recording response times.
    Dispatch,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 4;

    /// All stages, in round order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Ingest,
        Stage::QueueUpdate,
        Stage::MatchRepair,
        Stage::Dispatch,
    ];

    /// Stable snake_case name (used in snapshots and Prometheus
    /// exports).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Ingest => "ingest",
            Stage::QueueUpdate => "queue_update",
            Stage::MatchRepair => "match_repair",
            Stage::Dispatch => "dispatch",
        }
    }

    /// Dense index into per-stage arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Stage::Ingest => 0,
            Stage::QueueUpdate => 1,
            Stage::MatchRepair => 2,
            Stage::Dispatch => 3,
        }
    }

    /// The fss-flight span kind for this stage (same discriminant
    /// order; pinned by tests in both crates).
    #[inline]
    pub fn span_kind(self) -> SpanKind {
        match self {
            Stage::Ingest => SpanKind::Ingest,
            Stage::QueueUpdate => SpanKind::QueueUpdate,
            Stage::MatchRepair => SpanKind::MatchRepair,
            Stage::Dispatch => SpanKind::Dispatch,
        }
    }
}

/// The hot-path telemetry handle the engine's drive loops carry.
///
/// All state is inline (`[u64; 4]` stage totals plus one
/// [`LatencyHisto`]): recording allocates nothing. A handle built with
/// [`EngineTelemetry::disabled`] skips every `Instant::now()` call —
/// each instrumentation point costs one predictable branch — so
/// uninstrumented runs are measured-zero overhead and produce
/// bit-identical schedules (the engine's differential tests pin this
/// down).
#[derive(Debug)]
pub struct EngineTelemetry {
    on: bool,
    stage_ns: [u64; Stage::COUNT],
    rounds: u64,
    decision: LatencyHisto,
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, u64)>,
    publish: Option<(u64, Arc<Mutex<TelemetrySnapshot>>)>,
    /// Span recording (fss-flight). Disabled by default: one branch
    /// per instrumentation point, no clock reads, no ring.
    flight: FlightHandle,
}

impl EngineTelemetry {
    /// A recording handle.
    pub fn enabled() -> Self {
        EngineTelemetry {
            on: true,
            stage_ns: [0; Stage::COUNT],
            rounds: 0,
            decision: LatencyHisto::new(),
            counters: Vec::new(),
            gauges: Vec::new(),
            publish: None,
            flight: FlightHandle::disabled(),
        }
    }

    /// A no-op handle: every instrumentation point reduces to one
    /// branch, and [`EngineTelemetry::snapshot`] stays empty.
    pub fn disabled() -> Self {
        EngineTelemetry {
            on: false,
            ..EngineTelemetry::enabled()
        }
    }

    /// Time `f` under `stage` (no-op timing when disabled). With a
    /// live flight handle the activation is also recorded as a span
    /// tagged with the current round.
    #[inline]
    pub fn stage<R>(&mut self, stage: Stage, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.timed(stage, f).0
    }

    /// Time `f` as the round's scheduling decision: accrues under
    /// [`Stage::MatchRepair`] *and* records one sample in the
    /// decision-latency histogram.
    #[inline]
    pub fn decision<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let (r, ns) = self.timed(Stage::MatchRepair, f);
        self.decision.record(ns);
        r
    }

    /// The one timing body behind [`EngineTelemetry::stage`] and
    /// [`EngineTelemetry::decision`] on an enabled handle: two clock
    /// reads around `f`, accrued under `stage` and recorded as a span.
    /// The flight calls are no-ops on a disabled flight handle. Returns
    /// `f`'s value and the elapsed ns.
    #[inline]
    fn timed<R>(&mut self, stage: Stage, f: impl FnOnce() -> R) -> (R, u64) {
        if stage == Stage::MatchRepair {
            // CI fault injection: the armed FSS_FLIGHT_FAIL_STALL sleep
            // lives in the match stage.
            self.flight.maybe_stall();
        }
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        let ns = t1.duration_since(t0).as_nanos() as u64;
        self.stage_ns[stage.index()] += ns;
        self.flight.record(stage.span_kind(), t0, t1);
        (r, ns)
    }

    /// Publish a [`TelemetrySnapshot`] into `slot` every `every`
    /// completed rounds, so long-running drives (the `flowsched serve`
    /// engine thread) expose live progress without a channel in the hot
    /// path. Publishing is observation only — it never changes what the
    /// handle records — and costs one modulo per round plus a snapshot
    /// on the cadence. No-op on a disabled handle or `every == 0`.
    pub fn publish_every(&mut self, every: u64, slot: Arc<Mutex<TelemetrySnapshot>>) {
        if self.on && every > 0 {
            self.publish = Some((every, slot));
        }
    }

    /// Count one completed round.
    #[inline]
    pub fn round(&mut self) {
        if !self.on {
            return;
        }
        self.rounds += 1;
        if let Some((every, slot)) = &self.publish {
            if self.rounds.is_multiple_of(*every) {
                if let Ok(mut s) = slot.lock() {
                    *s = self.snapshot();
                }
            }
        }
    }

    /// Add `v` to the named counter (cold path: called at loop exit,
    /// not per round).
    pub fn counter_add(&mut self, name: &'static str, v: u64) {
        if !self.on {
            return;
        }
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, cur)) => *cur += v,
            None => self.counters.push((name, v)),
        }
    }

    /// Raise the named gauge to at least `v` (cold path).
    pub fn gauge_max(&mut self, name: &'static str, v: u64) {
        if !self.on {
            return;
        }
        match self.gauges.iter_mut().find(|(n, _)| *n == name) {
            Some((_, cur)) => *cur = (*cur).max(v),
            None => self.gauges.push((name, v)),
        }
    }

    /// Rounds counted so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total ns accrued under `stage`.
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.stage_ns[stage.index()]
    }

    /// Fold another handle's totals into this one.
    pub fn merge(&mut self, other: &EngineTelemetry) {
        if !self.on {
            return;
        }
        for (a, b) in self.stage_ns.iter_mut().zip(&other.stage_ns) {
            *a += b;
        }
        self.rounds += other.rounds;
        self.decision.merge(&other.decision);
        for (n, v) in &other.counters {
            self.counter_add(n, *v);
        }
        for (n, v) in &other.gauges {
            self.gauge_max(n, *v);
        }
    }

    /// Attach a span-recording flight handle. Tracing rides on an
    /// enabled handle (stage spans are recorded inside the timed
    /// path), so attaching a live handle forces `on`; attaching a
    /// disabled one changes nothing.
    pub fn with_flight(mut self, flight: FlightHandle) -> Self {
        if flight.is_enabled() {
            self.on = true;
        }
        self.flight = flight;
        self
    }

    /// The flight handle (disabled by default).
    pub fn flight(&mut self) -> &mut FlightHandle {
        &mut self.flight
    }

    /// A fork of this handle for a worker thread: same enabled-ness,
    /// fresh totals, and (when tracing) its own span ring labelled
    /// `name`. Merge the fork back with [`EngineTelemetry::merge`] at
    /// join.
    pub fn sibling(&self, name: &str) -> EngineTelemetry {
        let mut t = if self.on {
            EngineTelemetry::enabled()
        } else {
            EngineTelemetry::disabled()
        };
        t.flight = self.flight.sibling(name);
        t
    }

    /// Mark the start of engine round `t` (the round loop's clock):
    /// closes the previous round's span and tags subsequent spans on
    /// this thread with `t`. One branch when tracing is off.
    #[inline]
    pub fn flight_round(&mut self, t: u64) {
        self.flight.round_start(t);
    }

    /// Close the final round span when a drive finishes.
    pub fn flight_round_finish(&mut self) {
        self.flight.round_finish();
    }

    /// Freeze into the serializable snapshot form. A disabled handle
    /// snapshots empty.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot::new();
        if !self.on {
            return s;
        }
        s.add_counter("rounds", self.rounds);
        for (n, v) in &self.counters {
            s.add_counter(n, *v);
        }
        for (n, v) in &self.gauges {
            s.max_gauge(n, *v);
        }
        for st in Stage::ALL {
            s.add_stage_ns(st.name(), self.stage_ns[st.index()]);
        }
        if self.decision.count() > 0 {
            s.merge_histo("decision_latency_ns", &self.decision.snapshot());
        }
        s
    }
}

/// Time a block under a [`Stage`] through an [`EngineTelemetry`] handle:
///
/// ```
/// use fss_telemetry::{span, EngineTelemetry, Stage};
/// let mut tele = EngineTelemetry::enabled();
/// let sum = span!(tele, Stage::Ingest, { 1 + 1 });
/// assert_eq!(sum, 2);
/// ```
#[macro_export]
macro_rules! span {
    ($tele:expr, $stage:expr, $body:expr) => {
        $tele.stage($stage, || $body)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_snapshots_empty() {
        let mut t = EngineTelemetry::disabled();
        let v = t.stage(Stage::Ingest, || 41) + 1;
        assert_eq!(v, 42);
        t.decision(|| ());
        t.round();
        t.counter_add("flows_dispatched", 9);
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn enabled_handle_accrues() {
        let mut t = EngineTelemetry::enabled();
        t.stage(Stage::Dispatch, || {
            std::thread::sleep(std::time::Duration::from_micros(50))
        });
        t.decision(|| std::thread::sleep(std::time::Duration::from_micros(50)));
        t.round();
        t.counter_add("flows_dispatched", 3);
        t.gauge_max("peak_queue_depth", 7);
        let s = t.snapshot();
        assert_eq!(s.counter("rounds"), Some(1));
        assert_eq!(s.counter("flows_dispatched"), Some(3));
        assert_eq!(s.gauge("peak_queue_depth"), Some(7));
        assert!(s.stage_ns("dispatch").unwrap() > 0);
        assert!(s.stage_ns("match_repair").unwrap() > 0);
        assert_eq!(s.histo("decision_latency_ns").unwrap().count, 1);
    }

    #[test]
    fn span_macro_forwards_value() {
        let mut t = EngineTelemetry::enabled();
        let mut acc = 0u64;
        let out = span!(t, Stage::QueueUpdate, {
            acc += 5;
            acc
        });
        assert_eq!(out, 5);
        t.round();
        assert_eq!(t.snapshot().counter("rounds"), Some(1));
    }

    #[test]
    fn publish_every_updates_the_shared_slot_on_cadence() {
        let slot = Arc::new(Mutex::new(TelemetrySnapshot::new()));
        let mut t = EngineTelemetry::enabled();
        t.publish_every(2, Arc::clone(&slot));
        t.round();
        assert!(slot.lock().unwrap().is_empty(), "off-cadence round");
        t.round();
        assert_eq!(slot.lock().unwrap().counter("rounds"), Some(2));
        t.counter_add("flows_dispatched", 5);
        t.round();
        t.round();
        let s = slot.lock().unwrap().clone();
        assert_eq!(
            s.counter("rounds"),
            Some(4),
            "slot holds the latest snapshot"
        );
        assert_eq!(s.counter("flows_dispatched"), Some(5));
    }

    #[test]
    fn disabled_handle_never_publishes() {
        let slot = Arc::new(Mutex::new(TelemetrySnapshot::new()));
        let mut t = EngineTelemetry::disabled();
        t.publish_every(1, Arc::clone(&slot));
        t.round();
        assert!(slot.lock().unwrap().is_empty());
    }

    #[test]
    fn merge_adds_rounds_and_stages() {
        let mut a = EngineTelemetry::enabled();
        let mut b = EngineTelemetry::enabled();
        a.round();
        b.round();
        b.round();
        b.counter_add("flows_dispatched", 2);
        a.merge(&b);
        assert_eq!(a.rounds(), 3);
        assert_eq!(a.snapshot().counter("flows_dispatched"), Some(2));
    }
}
