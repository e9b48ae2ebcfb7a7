//! Bounded-queue admission control for the ingest path.
//!
//! The serve process must never buffer unboundedly when arrivals
//! outpace the engine, and must never lose a flow *silently*. The
//! [`AdmissionGate`] wraps a bounded `sync_channel` to the engine
//! thread and makes the overflow behaviour an explicit, reported
//! decision:
//!
//! * [`AdmissionMode::Pause`] — backpressure: block the producer until
//!   the engine drains a slot, reporting `Paused`/`Resumed` around the
//!   stall. Lossless, so the admitted id sequence equals the offered
//!   sequence — this is what makes live runs schedule-identical to
//!   trace replay. A session's gate waits longer, until the engine has
//!   drained the queue to half its capacity
//!   ([`AdmissionGate::resume_at_half`]): resuming at the first free
//!   slot refills the queue at once, so a producer that outpaces the
//!   engine stalls again after a few arrivals, and every stall costs a
//!   wake-up and a `Paused`/`Resumed` pair on the wire.
//! * [`AdmissionMode::Drop`] — load shedding: reject the arrival and
//!   report it (`Dropped` with the arrival's coordinates and the queue
//!   depth). The conservation law `arrived == admitted + dropped` is
//!   property-tested in `tests/admission.rs`.
//!
//! The gate checks nothing about an arrival's coordinates: the session
//! in front of it admits each one through the trace rule
//! (`fss_sim::ArrivalCheck`) first. Its one check of its own is the id
//! bound, because ids are the gate's to hand out.
//!
//! The gate is single-producer by construction (one client connection
//! at a time feeds a session), which keeps the accept/drop decision
//! sequence deterministic for a fixed offered sequence and capacity:
//! whether `try_send` succeeds depends only on the queue depth, which
//! depends only on how many arrivals the engine has pulled — and the
//! engine pulls exactly one ahead of its round loop.

use fss_engine::{Arrival, FlowSource, MAX_FLOW_ID};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// What admission control does when the ingest queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionMode {
    /// Block the producer until the queue drains (lossless backpressure).
    Pause,
    /// Reject the arrival with an explicit `Dropped` report.
    Drop,
}

impl AdmissionMode {
    /// Wire/CLI name of the mode.
    pub(crate) fn name(self) -> &'static str {
        match self {
            AdmissionMode::Pause => "pause",
            AdmissionMode::Drop => "drop",
        }
    }

    /// Parse a wire/CLI name.
    pub fn parse(s: &str) -> Result<AdmissionMode, String> {
        match s {
            "pause" => Ok(AdmissionMode::Pause),
            "drop" => Ok(AdmissionMode::Drop),
            other => Err(format!("unknown admission mode '{other}' (pause|drop)")),
        }
    }
}

/// The admission decision for one offered arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admitted without blocking; the flow got this dense id.
    Admitted {
        /// The admitted flow's id (position in the admitted sequence).
        id: u64,
    },
    /// Admitted after a `Pause`-mode stall (the `on_pause` callback
    /// fired before blocking).
    Resumed {
        /// The admitted flow's id.
        id: u64,
        /// Queue depth after the slot freed (for the `Resumed` report).
        queued: u64,
    },
    /// Rejected by `Drop`-mode admission; no id was assigned.
    Dropped {
        /// Queue depth at the moment of rejection.
        queued: u64,
    },
}

/// Bounded, accounted ingest gate in front of the engine's
/// [`fss_engine::ChannelSource`].
pub struct AdmissionGate {
    tx: Option<SyncSender<Arrival>>,
    mode: AdmissionMode,
    depth: Arc<AtomicU64>,
    capacity: u64,
    /// Where a stalled producer sleeps until the queue is down to half,
    /// once [`AdmissionGate::resume_at_half`] has set it.
    drain: Option<Arc<Drain>>,
    next_id: u64,
    /// Arrivals offered via [`AdmissionGate::offer`].
    pub arrived: u64,
    /// Arrivals admitted into the queue.
    pub admitted: u64,
    /// Arrivals rejected (`Drop` mode only).
    pub dropped: u64,
    /// Times the producer blocked (`Pause` mode only).
    pub pauses: u64,
}

impl AdmissionGate {
    /// Create a gate with the given queue capacity, returning the
    /// engine-side receiver and the shared depth counter (also exported
    /// as the `serve_queue_depth` gauge).
    pub fn new(
        capacity: usize,
        mode: AdmissionMode,
    ) -> (AdmissionGate, Receiver<Arrival>, Arc<AtomicU64>) {
        let depth = Arc::new(AtomicU64::new(0));
        let (gate, rx) = AdmissionGate::with_depth(capacity, mode, Arc::clone(&depth));
        (gate, rx, depth)
    }

    /// Like [`AdmissionGate::new`] with a caller-owned depth counter
    /// (so a metrics registry created before the gate can export it).
    pub(crate) fn with_depth(
        capacity: usize,
        mode: AdmissionMode,
        depth: Arc<AtomicU64>,
    ) -> (AdmissionGate, Receiver<Arrival>) {
        assert!(capacity > 0, "a zero-capacity gate admits nothing");
        let (tx, rx) = sync_channel(capacity);
        let gate = AdmissionGate {
            tx: Some(tx),
            mode,
            depth,
            capacity: capacity as u64,
            drain: None,
            next_id: 0,
            arrived: 0,
            admitted: 0,
            dropped: 0,
            pauses: 0,
        };
        (gate, rx)
    }

    /// Make a stalled producer wait until the engine has drained the queue
    /// to half its capacity, not just one slot. `source` must be the
    /// engine's source over this gate's receiver, decrementing this gate's
    /// depth counter per arrival ([`fss_engine::ChannelSource::with_depth`]);
    /// the wrapper returned in its place wakes the producer.
    pub(crate) fn resume_at_half<S: FlowSource>(&mut self, source: S) -> Draining<S> {
        let drain = Arc::new(Drain::default());
        self.drain = Some(Arc::clone(&drain));
        Draining {
            source,
            depth: Arc::clone(&self.depth),
            wake_at: self.wake_at(),
            drain,
        }
    }

    /// The depth count at which a stalled producer resumes: half the
    /// queue, plus the arrival the producer holds.
    fn wake_at(&self) -> u64 {
        self.capacity / 2 + 1
    }

    /// Give the next admitted arrival id `id`, as if `id` had been
    /// admitted before it.
    #[cfg(test)]
    pub(crate) fn start_ids_at(&mut self, id: u64) {
        self.next_id = id;
    }

    /// Current ingest queue depth.
    pub(crate) fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// Offer one arrival, already checked against the trace rule by the
    /// caller. `Err` (fatal to the session) if no id at or below
    /// [`fss_engine::MAX_FLOW_ID`] is left for it; otherwise admits,
    /// blocks, or drops per the mode. In `Pause` mode
    /// `on_pause(depth)` fires once before blocking so the caller can
    /// emit the `Paused` report while the producer is still listening.
    pub fn offer(
        &mut self,
        release: u64,
        src: u32,
        dst: u32,
        mut on_pause: impl FnMut(u64),
    ) -> Result<Admission, String> {
        if self.next_id > MAX_FLOW_ID {
            return Err(format!(
                "flow id {} is past {MAX_FLOW_ID}, the largest id the engine addresses",
                self.next_id
            ));
        }
        self.arrived += 1;
        // The id is stamped into the arrival before the send (the
        // engine sees it), but only *committed* on admission — dropped
        // arrivals never consume an id, so admitted ids stay dense and
        // equal to trace sequence numbers in lossless runs.
        let arrival = Arrival {
            id: self.next_id,
            src,
            dst,
            release,
        };
        let tx = self.tx.as_ref().expect("offer after close");
        // Count the slot before sending so the consumer can never
        // observe depth 0 while holding an unseen arrival; undo on
        // rejection (fetch_sub, not store — the engine may have
        // decremented concurrently).
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        match tx.try_send(arrival) {
            Ok(()) => {
                let id = self.next_id;
                self.next_id += 1;
                self.admitted += 1;
                Ok(Admission::Admitted { id })
            }
            Err(TrySendError::Full(arrival)) => match self.mode {
                AdmissionMode::Drop => {
                    self.depth.fetch_sub(1, Ordering::Relaxed);
                    self.dropped += 1;
                    Ok(Admission::Dropped { queued: depth - 1 })
                }
                AdmissionMode::Pause => {
                    self.pauses += 1;
                    on_pause(depth - 1);
                    if let Some(drain) = &self.drain {
                        let wake_at = self.wake_at();
                        drain.wait(|| self.depth.load(Ordering::Relaxed) <= wake_at);
                    }
                    tx.send(arrival)
                        .map_err(|_| "engine stopped while ingest was paused".to_string())?;
                    let id = self.next_id;
                    self.next_id += 1;
                    self.admitted += 1;
                    Ok(Admission::Resumed {
                        id,
                        queued: self.depth(),
                    })
                }
            },
            Err(TrySendError::Disconnected(_)) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                Err("engine stopped accepting arrivals".to_string())
            }
        }
    }

    /// Close the ingest side: drops the sender, which ends the engine's
    /// `ChannelSource` once the queue drains. Idempotent.
    pub(crate) fn close(&mut self) {
        self.tx = None;
    }
}

/// Where a stalled producer sleeps until the engine has drained the
/// queue to the gate's resume level, or has stopped.
#[derive(Default)]
pub(crate) struct Drain {
    /// Set once the engine's source is gone: nothing drains after that.
    stopped: Mutex<bool>,
    woken: Condvar,
}

impl Drain {
    fn wait(&self, drained: impl Fn() -> bool) {
        let mut stopped = self.stopped.lock().unwrap_or_else(PoisonError::into_inner);
        while !*stopped && !drained() {
            stopped = self
                .woken
                .wait(stopped)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn wake(&self) {
        // Taken so the wake cannot fall between the producer's check and
        // its wait.
        let _held = self.stopped.lock().unwrap_or_else(PoisonError::into_inner);
        self.woken.notify_one();
    }

    fn stop(&self) {
        *self.stopped.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.woken.notify_one();
    }
}

/// The engine's source behind a gate set by
/// [`AdmissionGate::resume_at_half`]: wakes a stalled producer once the
/// queue is down to the resume level, and for good when dropped (an
/// engine that ended or panicked), so the producer's send then fails
/// instead of waiting forever.
pub(crate) struct Draining<S> {
    source: S,
    depth: Arc<AtomicU64>,
    wake_at: u64,
    drain: Arc<Drain>,
}

impl<S: FlowSource> FlowSource for Draining<S> {
    fn m_in(&self) -> usize {
        self.source.m_in()
    }

    fn m_out(&self) -> usize {
        self.source.m_out()
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        let next = self.source.next_arrival();
        // While a producer waits, only this thread moves the counter, one
        // step down per arrival, so the step that reaches `wake_at` is the
        // value read here. Outside a stall a wake finds no one waiting.
        if self.depth.load(Ordering::Relaxed) == self.wake_at {
            self.drain.wake();
        }
        next
    }
}

impl<S> Drop for Draining<S> {
    fn drop(&mut self) {
        self.drain.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_round_trip() {
        for mode in [AdmissionMode::Pause, AdmissionMode::Drop] {
            assert_eq!(AdmissionMode::parse(mode.name()), Ok(mode));
        }
        assert!(AdmissionMode::parse("yolo").is_err());
    }

    #[test]
    fn drop_mode_sheds_exactly_the_overflow_and_accounts_for_it() {
        let (mut gate, rx, depth) = AdmissionGate::new(2, AdmissionMode::Drop);
        let mut outcomes = Vec::new();
        for i in 0..5 {
            outcomes.push(gate.offer(i, 0, 1, |_| panic!("drop mode never pauses")));
        }
        assert_eq!(outcomes[0], Ok(Admission::Admitted { id: 0 }));
        assert_eq!(outcomes[1], Ok(Admission::Admitted { id: 1 }));
        for outcome in &outcomes[2..] {
            assert!(matches!(outcome, Ok(Admission::Dropped { queued: 2 })));
        }
        assert_eq!((gate.arrived, gate.admitted, gate.dropped), (5, 2, 3));
        assert_eq!(gate.arrived, gate.admitted + gate.dropped, "conservation");
        assert_eq!(depth.load(Ordering::Relaxed), 2, "undone on rejection");
        // After a consumer drains one slot, admission resumes with the
        // next dense id (2 — dropped arrivals never consumed an id).
        rx.recv().unwrap();
        depth.fetch_sub(1, Ordering::Relaxed);
        assert_eq!(
            gate.offer(9, 3, 2, |_| ()),
            Ok(Admission::Admitted { id: 2 })
        );
    }

    #[test]
    fn pause_mode_blocks_until_the_consumer_drains() {
        let (mut gate, rx, depth) = AdmissionGate::new(1, AdmissionMode::Pause);
        assert_eq!(
            gate.offer(0, 0, 1, |_| ()),
            Ok(Admission::Admitted { id: 0 })
        );
        // The queue is full; drain it from a delayed consumer thread so
        // the blocking send can complete.
        let consumer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            let got = rx.recv().unwrap();
            depth.fetch_sub(1, Ordering::Relaxed);
            (got, rx)
        });
        let mut paused_at = None;
        let outcome = gate.offer(1, 1, 0, |queued| paused_at = Some(queued));
        assert!(matches!(outcome, Ok(Admission::Resumed { id: 1, .. })));
        assert_eq!(paused_at, Some(1), "pause reported at full depth");
        assert_eq!(gate.pauses, 1);
        assert_eq!((gate.arrived, gate.admitted, gate.dropped), (2, 2, 0));
        let (first, _rx) = consumer.join().unwrap();
        assert_eq!(first.release, 0);
    }

    #[test]
    fn a_session_gate_resumes_once_half_the_queue_has_drained() {
        let (mut gate, rx, depth) = AdmissionGate::new(4, AdmissionMode::Pause);
        let mut source = gate.resume_at_half(fss_engine::ChannelSource::with_depth(2, rx, depth));
        for i in 0..4 {
            gate.offer(i, 0, 1, |_| panic!("room left")).unwrap();
        }
        // One arrival a few ms, so a producer resumed at the first free
        // slot would find three still queued.
        let consumer = std::thread::spawn(move || {
            let mut releases = Vec::new();
            while let Some(a) = source.next_arrival() {
                releases.push(a.release);
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            releases
        });
        let outcome = gate.offer(4, 1, 0, |queued| assert_eq!(queued, 4));
        // Two left in the queue plus the one just sent, at most.
        assert!(
            matches!(outcome, Ok(Admission::Resumed { id: 4, queued }) if queued <= 3),
            "{outcome:?}"
        );
        assert_eq!(gate.pauses, 1);
        gate.close();
        assert_eq!(consumer.join().unwrap(), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn a_stalled_producer_fails_once_the_engine_stops() {
        let (mut gate, rx, depth) = AdmissionGate::new(2, AdmissionMode::Pause);
        let source = gate.resume_at_half(fss_engine::ChannelSource::with_depth(2, rx, depth));
        gate.offer(0, 0, 1, |_| ()).unwrap();
        gate.offer(0, 1, 0, |_| ()).unwrap();
        // The engine ends without draining anything.
        let engine = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(source);
        });
        let outcome = gate.offer(1, 0, 1, |_| ());
        assert_eq!(
            outcome,
            Err("engine stopped while ingest was paused".to_string())
        );
        engine.join().unwrap();
    }

    #[test]
    fn close_ends_the_stream_after_the_queue_drains() {
        let (mut gate, rx, _d) = AdmissionGate::new(4, AdmissionMode::Pause);
        gate.offer(0, 0, 1, |_| ()).unwrap();
        gate.offer(1, 1, 0, |_| ()).unwrap();
        gate.close();
        gate.close(); // idempotent
        assert_eq!(rx.recv().unwrap().release, 0);
        assert_eq!(rx.recv().unwrap().release, 1);
        assert!(rx.recv().is_err(), "channel closed once drained");
    }
}
