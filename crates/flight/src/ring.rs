//! The per-thread lock-free span ring.
//!
//! Single producer (the owning thread), single logical consumer (the
//! [`crate::spool`] drain, serialized by the spool writer lock). The
//! ring keeps the **last `capacity` events** — flight-recorder
//! semantics: when the producer laps an undrained consumer the oldest
//! events are overwritten and counted as dropped, never blocking the
//! hot path.
//!
//! Slots are six relaxed `AtomicU64` words, published by a
//! release-increment of `head`. A consumer that observes `head` move
//! past `slot + capacity` while copying discards the (possibly torn)
//! copy — so every event it returns was fully written, without any
//! producer-side synchronization beyond the head increment.

use crate::event::{SpanEvent, SpanKind};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default ring capacity per thread (events). Power of two.
pub(crate) const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// One slot: `[span_id, parent, kind<<32|thread, round, t_start, t_end]`.
struct Slot {
    words: [AtomicU64; 6],
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            words: [0u64; 6].map(AtomicU64::new),
        }
    }
}

/// The ring itself. Shared as `Arc<SpanRing>` between the producing
/// handle, the recorder registry, and the drain.
pub(crate) struct SpanRing {
    slots: Vec<Slot>,
    mask: u64,
    /// Total events ever pushed (next write goes to `head & mask`).
    head: AtomicU64,
    /// Consumer cursor: events `< drained` have been spooled. Advanced
    /// only under the spool writer lock.
    drained: AtomicU64,
    /// Events lost to lapping (old) or torn reads, counted by the drain.
    dropped: AtomicU64,
}

impl SpanRing {
    /// A ring holding the last `capacity` events (rounded up to a power
    /// of two, minimum 8).
    pub(crate) fn new(capacity: usize) -> SpanRing {
        let cap = capacity.max(8).next_power_of_two();
        SpanRing {
            slots: (0..cap).map(|_| Slot::empty()).collect(),
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Ring capacity in events.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever pushed.
    pub(crate) fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events lost (lapped before the drain reached them).
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Producer side: record one closed span. Only the owning handle
    /// may call this (single producer by construction).
    pub(crate) fn push(&self, ev: &SpanEvent) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head & self.mask) as usize];
        let w2 = ((ev.kind as u8 as u64) << 32) | ev.thread as u64;
        slot.words[0].store(ev.span_id, Ordering::Relaxed);
        slot.words[1].store(ev.parent, Ordering::Relaxed);
        slot.words[2].store(w2, Ordering::Relaxed);
        slot.words[3].store(ev.round, Ordering::Relaxed);
        slot.words[4].store(ev.t_start_ns, Ordering::Relaxed);
        slot.words[5].store(ev.t_end_ns, Ordering::Relaxed);
        self.head.store(head + 1, Ordering::Release);
    }

    /// Consumer side: copy out every undrained event, oldest first,
    /// advancing the cursor. Events lost to lapping (or torn because
    /// the producer lapped mid-copy) are added to `dropped` instead.
    /// Must be called by one logical consumer at a time (the spool
    /// writer lock serializes callers).
    pub(crate) fn drain(&self, out: &mut Vec<SpanEvent>) {
        let head = self.head.load(Ordering::Acquire);
        let cursor = self.drained.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        // Anything the producer already lapped is gone.
        let start = cursor.max(head.saturating_sub(cap));
        if start > cursor {
            self.dropped.fetch_add(start - cursor, Ordering::Relaxed);
        }
        for idx in start..head {
            let slot = &self.slots[(idx & self.mask) as usize];
            let w0 = slot.words[0].load(Ordering::Relaxed);
            let w1 = slot.words[1].load(Ordering::Relaxed);
            let w2 = slot.words[2].load(Ordering::Relaxed);
            let w3 = slot.words[3].load(Ordering::Relaxed);
            let w4 = slot.words[4].load(Ordering::Relaxed);
            let w5 = slot.words[5].load(Ordering::Relaxed);
            // If the producer lapped this slot while we copied, the
            // words may be torn: discard.
            let head_now = self.head.load(Ordering::Acquire);
            if head_now.saturating_sub(idx) > cap {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let kind = match SpanKind::from_u8((w2 >> 32) as u8) {
                Some(k) => k,
                None => {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            };
            out.push(SpanEvent {
                span_id: w0,
                parent: w1,
                kind,
                round: w3,
                t_start_ns: w4,
                t_end_ns: w5,
                thread: (w2 & 0xffff_ffff) as u32,
            });
        }
        self.drained.store(head, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for SpanRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRing")
            .field("capacity", &self.capacity())
            .field("pushed", &self.pushed())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> SpanEvent {
        SpanEvent {
            span_id: i,
            parent: 0,
            kind: SpanKind::Round,
            round: i,
            t_start_ns: i * 10,
            t_end_ns: i * 10 + 5,
            thread: 7,
        }
    }

    #[test]
    fn push_then_drain_round_trips_events_in_order() {
        let ring = SpanRing::new(8);
        for i in 0..5 {
            ring.push(&ev(i));
        }
        let mut out = Vec::new();
        ring.drain(&mut out);
        assert_eq!(out.len(), 5);
        for (i, e) in out.iter().enumerate() {
            assert_eq!(*e, ev(i as u64));
        }
        assert_eq!(ring.dropped(), 0);
        // Second drain sees nothing new.
        out.clear();
        ring.drain(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn lapping_an_undrained_ring_keeps_the_newest_and_counts_drops() {
        let ring = SpanRing::new(8);
        for i in 0..20 {
            ring.push(&ev(i));
        }
        let mut out = Vec::new();
        ring.drain(&mut out);
        // Capacity 8: only the last 8 survive, 12 dropped.
        assert_eq!(out.len(), 8);
        assert_eq!(out[0].span_id, 12);
        assert_eq!(out[7].span_id, 19);
        assert_eq!(ring.dropped(), 12);
    }

    #[test]
    fn drain_interleaved_with_pushes_never_duplicates_or_reorders() {
        let ring = SpanRing::new(16);
        let mut seen = Vec::new();
        let mut next = 0u64;
        for chunk in [3usize, 10, 1, 16, 5] {
            for _ in 0..chunk {
                ring.push(&ev(next));
                next += 1;
            }
            ring.drain(&mut seen);
        }
        let ids: Vec<u64> = seen.iter().map(|e| e.span_id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids.len(), sorted.len(), "no duplicates");
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "in order");
        assert_eq!(ids.len() as u64 + ring.dropped(), next);
    }

    #[test]
    fn a_concurrent_producer_and_drain_lose_nothing_when_capacity_suffices() {
        use std::sync::Arc;
        let ring = Arc::new(SpanRing::new(1 << 12));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..3000u64 {
                    ring.push(&ev(i));
                }
            })
        };
        let mut out = Vec::new();
        loop {
            ring.drain(&mut out);
            if out.len() == 3000 {
                break;
            }
            std::thread::yield_now();
            if producer.is_finished() && ring.pushed() == 3000 {
                ring.drain(&mut out);
                break;
            }
        }
        producer.join().unwrap();
        ring.drain(&mut out);
        assert_eq!(out.len(), 3000);
        assert_eq!(ring.dropped(), 0);
        assert!(out.windows(2).all(|w| w[0].span_id < w[1].span_id));
    }
}
