//! Per-port sharded queue state for the incremental engine.
//!
//! Waiting flows are threaded into one FIFO list per `(input, output)`
//! cell. The cell arrays are laid out row-major by input port — all cells
//! of one input port are contiguous — so a burst hammering one port
//! touches one cache region ("sharded by port"). State is
//! `O(m_in * m_out)` words plus the slab.
//!
//! The slab holds the flows. A waiting flow costs 16 bytes: its `u32`
//! id (the engine's one id width, [`crate::MAX_FLOW_ID`]), its release as
//! two `u32` halves, and the slot of the next-oldest flow of its cell, so
//! four slots fill a 64-byte line and none straddles two. Slots come in
//! chunks of 1024; a chunk is allocated only when every slot handed out
//! so far is in use, so the slab is the peak queue rounded up to one
//! chunk (16 KiB), and growing it never copies a flow. A dequeued slot
//! goes on a free list threaded through the same `next` field and is the
//! first one reused (LIFO), so memory stays `O(peak queue)` even on
//! endless streams.

use crate::engine_id;

/// Sentinel for "no slot".
pub const NIL: u32 = u32::MAX;

/// Slots per slab chunk.
const CHUNK: usize = 1024;

/// Cells [`ShardedQueues::pop_heads`] reads before it unlinks any.
const GROUP: usize = 32;

/// A queued flow in the slab: 16 bytes, 4-aligned.
#[derive(Debug, Clone, Copy)]
pub struct QueuedFlow {
    /// Stream id (source-assigned).
    id: u32,
    /// Release round (for response-time accounting), low half first.
    release: [u32; 2],
    /// Next-oldest flow in the same cell while queued, next free slot
    /// while on the free list (intrusive lists).
    next: u32,
}

// Four slots to a cache line, and every chunk a whole number of lines.
const _: () = assert!(std::mem::size_of::<QueuedFlow>() == 16);
const _: () = assert!((CHUNK * std::mem::size_of::<QueuedFlow>()).is_multiple_of(64));

/// `v` as `[low, high]` halves.
#[inline]
fn halves(v: u64) -> [u32; 2] {
    [v as u32, (v >> 32) as u32]
}

/// The `u64` whose halves are `[lo, hi]`.
#[inline]
fn join([lo, hi]: [u32; 2]) -> u64 {
    u64::from(lo) | u64::from(hi) << 32
}

impl QueuedFlow {
    const EMPTY: QueuedFlow = QueuedFlow {
        id: 0,
        release: [0; 2],
        next: NIL,
    };

    /// Stream id (source-assigned).
    #[inline]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Release round (for response-time accounting).
    #[inline]
    pub fn release(&self) -> u64 {
        join(self.release)
    }
}

/// Sharded per-cell FIFO queues over an `m_in x m_out` port grid.
#[derive(Debug)]
pub struct ShardedQueues {
    m_out: usize,
    /// Oldest and newest slot per cell (row-major by input port; `NIL`
    /// while the cell is empty).
    head: Vec<u32>,
    tail: Vec<u32>,
    /// Per-input-port totals (queue length seen by that shard).
    in_totals: Vec<u32>,
    /// Per-output-port totals.
    out_totals: Vec<u32>,
    /// Slot `s` is `slab[s / CHUNK][s % CHUNK]`.
    slab: Vec<Box<[QueuedFlow; CHUNK]>>,
    /// Slots handed out so far (the slab's high-water mark).
    slots: u32,
    /// Head of the free list (`NIL` when empty).
    free: u32,
    len: usize,
}

impl ShardedQueues {
    /// Empty state for an `m_in x m_out` switch.
    pub fn new(m_in: usize, m_out: usize) -> ShardedQueues {
        let cells = m_in * m_out;
        ShardedQueues {
            m_out,
            head: vec![NIL; cells],
            tail: vec![NIL; cells],
            in_totals: vec![0; m_in],
            out_totals: vec![0; m_out],
            slab: Vec::new(),
            slots: 0,
            free: NIL,
            len: 0,
        }
    }

    /// Cell index of `(src, dst)`.
    #[inline]
    pub fn cell(&self, src: u32, dst: u32) -> usize {
        src as usize * self.m_out + dst as usize
    }

    /// True when no flow waits in `cell`.
    #[inline]
    pub fn cell_is_empty(&self, cell: usize) -> bool {
        self.head[cell] == NIL
    }

    /// Total waiting flows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no flow is waiting.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queue length at input port `p`.
    #[inline]
    pub fn in_total(&self, p: u32) -> u32 {
        self.in_totals[p as usize]
    }

    /// Queue length at output port `q`.
    #[inline]
    pub fn out_total(&self, q: u32) -> u32 {
        self.out_totals[q as usize]
    }

    /// Slots handed out so far: the largest number of flows that ever
    /// waited at once.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.slots as usize
    }

    /// Bytes the slab's chunks hold.
    pub(crate) fn slab_bytes(&self) -> u64 {
        (self.slab.len() * std::mem::size_of::<[QueuedFlow; CHUNK]>()) as u64
    }

    #[inline]
    fn at(&self, slot: u32) -> &QueuedFlow {
        &self.slab[slot as usize / CHUNK][slot as usize % CHUNK]
    }

    #[inline]
    fn at_mut(&mut self, slot: u32) -> &mut QueuedFlow {
        &mut self.slab[slot as usize / CHUNK][slot as usize % CHUNK]
    }

    /// A slot to write a new flow into: the last one freed, else the
    /// next unused one (opening a chunk when the last is full).
    #[inline]
    fn take_slot(&mut self) -> u32 {
        if self.free != NIL {
            let slot = self.free;
            self.free = self.at(slot).next;
            return slot;
        }
        let slot = self.slots;
        assert!(slot != NIL, "more than {NIL} flows waiting at once");
        if slot as usize == self.slab.len() * CHUNK {
            self.slab.push(Box::new([QueuedFlow::EMPTY; CHUNK]));
        }
        self.slots += 1;
        slot
    }

    /// Enqueue a flow; returns `true` when the cell was previously empty
    /// (i.e. a new support edge appeared). Panics on an id past
    /// [`crate::MAX_FLOW_ID`].
    pub fn push(&mut self, src: u32, dst: u32, id: u64, release: u64) -> bool {
        let cell = self.cell(src, dst);
        let slot = self.take_slot();
        *self.at_mut(slot) = QueuedFlow {
            id: engine_id(id),
            release: halves(release),
            next: NIL,
        };
        let was_empty = self.head[cell] == NIL;
        if was_empty {
            self.head[cell] = slot;
        } else {
            let t = self.tail[cell];
            self.at_mut(t).next = slot;
        }
        self.tail[cell] = slot;
        self.in_totals[src as usize] += 1;
        self.out_totals[dst as usize] += 1;
        self.len += 1;
        was_empty
    }

    /// The oldest waiting flow of `(src, dst)` without dequeuing it —
    /// what [`ShardedQueues::pop_oldest`] would return. The cell-FIFO
    /// order makes this the flow with the smallest `(release, id)`, i.e.
    /// the representative edge the weighted policies dispatch.
    #[inline]
    pub fn peek_oldest(&self, src: u32, dst: u32) -> Option<&QueuedFlow> {
        let head = self.head[self.cell(src, dst)];
        (head != NIL).then(|| self.at(head))
    }

    /// Dequeue the oldest flow of `(src, dst)`; returns it plus `true`
    /// when the cell is now empty (support edge vanished). Panics on an
    /// empty cell — callers dispatch only matched (hence occupied) cells.
    pub fn pop_oldest(&mut self, src: u32, dst: u32) -> (QueuedFlow, bool) {
        let (slot, rec) = self.head_of(src, dst);
        (rec, self.unlink(src, dst, slot, rec.next))
    }

    /// Dequeue the oldest flow of each of `cells`, in order, calling
    /// `each(src, dst, flow, now_empty)` once per cell, as
    /// [`ShardedQueues::pop_oldest`] would return it. The cells must be
    /// distinct and occupied, as a round's matching is (it panics on an
    /// empty one, or on one given twice within a group). The head slots
    /// and flows of up to [`GROUP`] cells are read before any of them is
    /// unlinked, so a round's cold slab reads overlap instead of each
    /// waiting on the one before.
    pub fn pop_heads(
        &mut self,
        cells: impl IntoIterator<Item = (u32, u32)>,
        mut each: impl FnMut(u32, u32, QueuedFlow, bool),
    ) {
        let mut cells = cells.into_iter();
        let mut group = [(0, 0, NIL, QueuedFlow::EMPTY); GROUP];
        loop {
            let mut n = 0;
            for (src, dst) in cells.by_ref().take(GROUP) {
                let (slot, rec) = self.head_of(src, dst);
                group[n] = (src, dst, slot, rec);
                n += 1;
            }
            for &(src, dst, slot, rec) in &group[..n] {
                let now_empty = self.unlink(src, dst, slot, rec.next);
                each(src, dst, rec, now_empty);
            }
            if n < GROUP {
                return;
            }
        }
    }

    /// The head slot of `(src, dst)` and the flow in it. Panics on an
    /// empty cell.
    #[inline]
    fn head_of(&self, src: u32, dst: u32) -> (u32, QueuedFlow) {
        let slot = self.head[self.cell(src, dst)];
        assert!(slot != NIL, "pop from empty cell ({src}, {dst})");
        (slot, *self.at(slot))
    }

    /// Unlink `slot`, the head of `(src, dst)` whose successor is `next`,
    /// onto the free list; returns `true` when the cell is now empty.
    #[inline]
    fn unlink(&mut self, src: u32, dst: u32, slot: u32, next: u32) -> bool {
        let cell = self.cell(src, dst);
        assert_eq!(self.head[cell], slot, "cell ({src}, {dst}) popped twice");
        self.at_mut(slot).next = self.free;
        self.free = slot;
        self.head[cell] = next;
        let now_empty = next == NIL;
        if now_empty {
            self.tail[cell] = NIL;
        }
        self.in_totals[src as usize] -= 1;
        self.out_totals[dst as usize] -= 1;
        self.len -= 1;
        now_empty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, seq::SliceRandom, Rng, SeedableRng};
    use std::collections::VecDeque;

    #[test]
    fn fifo_order_within_a_cell() {
        let mut q = ShardedQueues::new(2, 2);
        assert!(q.push(1, 0, 10, 0));
        assert!(!q.push(1, 0, 11, 1));
        assert!(!q.push(1, 0, 12, 2));
        assert_eq!(q.len(), 3);
        assert_eq!(q.in_total(1), 3);
        assert_eq!(q.out_total(0), 3);
        let (a, empty) = q.pop_oldest(1, 0);
        assert_eq!((a.id(), empty), (10, false));
        let (b, _) = q.pop_oldest(1, 0);
        assert_eq!(b.id(), 11);
        let (c, empty) = q.pop_oldest(1, 0);
        assert_eq!((c.id(), empty), (12, true));
        assert!(q.is_empty());
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut q = ShardedQueues::new(1, 1);
        for round in 0..100u64 {
            q.push(0, 0, round, round);
            let (rec, _) = q.pop_oldest(0, 0);
            assert_eq!(u64::from(rec.id()), round);
        }
        // One live flow at a time => slab never grew past 1 slot.
        assert_eq!(q.slots, 1);
    }

    #[test]
    fn totals_track_ports_independently() {
        let mut q = ShardedQueues::new(3, 3);
        q.push(0, 1, 1, 0);
        q.push(0, 2, 2, 0);
        q.push(1, 1, 3, 0);
        assert_eq!(q.in_total(0), 2);
        assert_eq!(q.in_total(1), 1);
        assert_eq!(q.out_total(1), 2);
        assert_eq!(cell_len(&q, q.cell(0, 1)), 1);
        assert!(q.cell_is_empty(q.cell(2, 2)));
    }

    #[test]
    #[should_panic(expected = "empty cell")]
    fn popping_an_empty_cell_is_a_bug() {
        let mut q = ShardedQueues::new(1, 1);
        let _ = q.pop_oldest(0, 0);
    }

    #[test]
    #[should_panic(expected = "popped twice")]
    fn a_cell_given_twice_in_one_group_is_a_bug() {
        let mut q = ShardedQueues::new(2, 2);
        for id in 0..3 {
            q.push(0, 1, id, 0);
        }
        q.push(1, 1, 3, 0);
        q.pop_heads([(0, 1), (1, 1), (0, 1)], |_, _, _, _| {});
    }

    #[test]
    #[should_panic(expected = "flows waiting at once")]
    fn the_last_slot_index_is_never_nil() {
        let mut q = ShardedQueues::new(1, 1);
        q.slots = NIL;
        q.push(0, 0, 0, 0);
    }

    /// Flows threaded on `cell`'s list, walked from its head.
    fn cell_len(q: &ShardedQueues, cell: usize) -> usize {
        let mut slot = q.head[cell];
        let mut len = 0;
        while slot != NIL {
            len += 1;
            slot = q.at(slot).next;
        }
        len
    }

    /// Everything the queues answer, against the model.
    fn check(q: &ShardedQueues, model: &[VecDeque<(u32, u64)>], m_in: usize, m_out: usize) {
        assert_eq!(q.len(), model.iter().map(VecDeque::len).sum::<usize>());
        for p in 0..m_in as u32 {
            let row = &model[p as usize * m_out..][..m_out];
            assert_eq!(q.in_total(p) as usize, row.iter().map(VecDeque::len).sum());
        }
        for c in 0..m_out as u32 {
            let col = model.iter().skip(c as usize).step_by(m_out);
            assert_eq!(q.out_total(c) as usize, col.map(VecDeque::len).sum());
        }
        for (cell, fifo) in model.iter().enumerate() {
            let (p, c) = ((cell / m_out) as u32, (cell % m_out) as u32);
            assert_eq!(cell_len(q, q.cell(p, c)), fifo.len());
            assert_eq!(q.cell_is_empty(q.cell(p, c)), fifo.is_empty());
            let head = q.peek_oldest(p, c).map(|f| (f.id(), f.release()));
            assert_eq!(head, fifo.front().copied(), "cell ({p}, {c})");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random pushes and pops on rectangular grids, checked after
        /// every step against one `VecDeque` per cell. Each case fills
        /// past two chunks, drains to empty and refills (`fills`), so
        /// freed slots must be reused: the slab never holds more slots
        /// than the most flows that ever waited at once. Ids span all of
        /// `u32` and releases are full 64-bit values, so a swapped
        /// release half shows. One pop in 64 is a `pop_heads` over a
        /// random run of distinct occupied cells, often more than a
        /// group of them.
        #[test]
        fn queues_match_a_fifo_model(
            m_in in 1usize..10,
            m_out in 1usize..10,
            seed in 0u64..u64::MAX,
            pop_pct in 0u32..30,
            fills in proptest::collection::vec(0usize..3100, 1..3),
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut q = ShardedQueues::new(m_in, m_out);
            let mut model = vec![VecDeque::new(); m_in * m_out];
            let (mut live, mut peak) = (0usize, 0usize);
            for target in [2 * CHUNK + 1 + rng.gen_range(0..CHUNK)].into_iter().chain(fills) {
                // Fill to `target` with pops mixed in, then drain.
                for goal in [target, 0] {
                    while live != goal {
                        let pop = live > goal || (live > 0 && rng.gen_range(0..100) < pop_pct);
                        let mut cell = rng.gen_range(0..model.len());
                        while pop && model[cell].is_empty() {
                            cell = (cell + 1) % model.len();
                        }
                        let (p, c) = ((cell / m_out) as u32, (cell % m_out) as u32);
                        if pop && rng.gen_range(0..64) == 0 {
                            let mut cells: Vec<usize> =
                                (0..model.len()).filter(|&c| !model[c].is_empty()).collect();
                            cells.shuffle(&mut rng);
                            cells.truncate(rng.gen_range(1..=cells.len()));
                            let mut want = cells.iter();
                            let at = |cell: &usize| ((cell / m_out) as u32, (cell % m_out) as u32);
                            q.pop_heads(cells.iter().map(at), |p, c, rec, now_empty| {
                                let cell = *want.next().expect("popped a cell it was not given");
                                assert_eq!((p, c), at(&cell), "cells out of order");
                                let head = model[cell].pop_front();
                                assert_eq!(Some((rec.id(), rec.release())), head);
                                assert_eq!(now_empty, model[cell].is_empty());
                            });
                            prop_assert!(want.next().is_none(), "a cell was not popped");
                            live -= cells.len();
                        } else if pop {
                            let (rec, now_empty) = q.pop_oldest(p, c);
                            let want = model[cell].pop_front();
                            prop_assert_eq!(Some((rec.id(), rec.release())), want);
                            prop_assert_eq!(now_empty, model[cell].is_empty());
                            live -= 1;
                        } else {
                            let (id, release) = (rng.gen::<u32>(), rng.gen::<u64>());
                            let pushed = q.push(p, c, u64::from(id), release);
                            prop_assert_eq!(pushed, model[cell].is_empty());
                            model[cell].push_back((id, release));
                            live += 1;
                            peak = peak.max(live);
                        }
                        check(&q, &model, m_in, m_out);
                        prop_assert_eq!(q.slots(), peak);
                        prop_assert_eq!(q.slab.len(), peak.div_ceil(CHUNK));
                    }
                }
            }
        }
    }
}
