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
//!   trace replay.
//! * [`AdmissionMode::Drop`] — load shedding: reject the arrival and
//!   report it (`Dropped` with the arrival's coordinates and the queue
//!   depth). The conservation law `arrived == admitted + dropped` is
//!   property-tested in `tests/admission.rs`.
//!
//! The gate is single-producer by construction (one client connection
//! at a time feeds a session), which keeps the accept/drop decision
//! sequence deterministic for a fixed offered sequence and capacity:
//! whether `try_send` succeeds depends only on the queue depth, which
//! depends only on how many arrivals the engine has pulled — and the
//! engine pulls exactly one ahead of its round loop.

use fss_engine::{Arrival, MAX_FLOW_ID};
use fss_sim::MAX_RELEASE;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;

/// What admission control does when the ingest queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionMode {
    /// Block the producer until a slot frees (lossless backpressure).
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
    ports: usize,
    next_id: u64,
    last_release: u64,
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
        ports: usize,
        capacity: usize,
        mode: AdmissionMode,
    ) -> (AdmissionGate, Receiver<Arrival>, Arc<AtomicU64>) {
        let depth = Arc::new(AtomicU64::new(0));
        let (gate, rx) = AdmissionGate::with_depth(ports, capacity, mode, Arc::clone(&depth));
        (gate, rx, depth)
    }

    /// Like [`AdmissionGate::new`] with a caller-owned depth counter
    /// (so a metrics registry created before the gate can export it).
    pub(crate) fn with_depth(
        ports: usize,
        capacity: usize,
        mode: AdmissionMode,
        depth: Arc<AtomicU64>,
    ) -> (AdmissionGate, Receiver<Arrival>) {
        assert!(ports > 0, "a switch needs at least one port");
        assert!(capacity > 0, "a zero-capacity gate admits nothing");
        let (tx, rx) = sync_channel(capacity);
        let gate = AdmissionGate {
            tx: Some(tx),
            mode,
            depth,
            ports,
            next_id: 0,
            last_release: 0,
            arrived: 0,
            admitted: 0,
            dropped: 0,
            pauses: 0,
        };
        (gate, rx)
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

    /// Offer one arrival. Validates the protocol invariants (ports in
    /// range, release nondecreasing and at most [`fss_sim::MAX_RELEASE`],
    /// an id left at or below [`fss_engine::MAX_FLOW_ID`] — `Err` is
    /// fatal to the session),
    /// then admits, blocks, or drops per the mode. In `Pause` mode
    /// `on_pause(depth)` fires once before blocking so the caller can
    /// emit the `Paused` report while the producer is still listening.
    pub fn offer(
        &mut self,
        release: u64,
        src: u32,
        dst: u32,
        mut on_pause: impl FnMut(u64),
    ) -> Result<Admission, String> {
        let ports = self.ports as u32;
        if src >= ports || dst >= ports {
            return Err(format!(
                "arrival ({src},{dst}) out of range for a {ports}-port switch"
            ));
        }
        if release < self.last_release {
            return Err(format!(
                "time ran backwards: release {release} after {}",
                self.last_release
            ));
        }
        if release > MAX_RELEASE {
            return Err(format!(
                "release {release} is past {MAX_RELEASE}, the largest release a session may carry"
            ));
        }
        if self.next_id > MAX_FLOW_ID {
            return Err(format!(
                "flow id {} is past {MAX_FLOW_ID}, the largest id the engine addresses",
                self.next_id
            ));
        }
        self.last_release = release;
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
        let (mut gate, rx, depth) = AdmissionGate::new(4, 2, AdmissionMode::Drop);
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
        let (mut gate, rx, depth) = AdmissionGate::new(2, 1, AdmissionMode::Pause);
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
    fn protocol_violations_are_fatal() {
        let (mut gate, _rx, _d) = AdmissionGate::new(4, 8, AdmissionMode::Pause);
        assert!(gate.offer(0, 4, 0, |_| ()).is_err(), "src out of range");
        assert!(gate.offer(0, 0, 9, |_| ()).is_err(), "dst out of range");
        gate.offer(5, 0, 1, |_| ()).unwrap();
        assert!(gate.offer(4, 0, 1, |_| ()).is_err(), "time ran backwards");
        gate.offer(MAX_RELEASE, 0, 1, |_| ()).unwrap();
        assert!(
            gate.offer(MAX_RELEASE + 1, 0, 1, |_| ()).is_err(),
            "past the release bound"
        );
        assert_eq!(gate.arrived, 2, "a rejected offer is not counted");
    }

    #[test]
    fn close_ends_the_stream_after_the_queue_drains() {
        let (mut gate, rx, _d) = AdmissionGate::new(2, 4, AdmissionMode::Pause);
        gate.offer(0, 0, 1, |_| ()).unwrap();
        gate.offer(1, 1, 0, |_| ()).unwrap();
        gate.close();
        gate.close(); // idempotent
        assert_eq!(rx.recv().unwrap().release, 0);
        assert_eq!(rx.recv().unwrap().release, 1);
        assert!(rx.recv().is_err(), "channel closed once drained");
    }
}
