//! Per-port sharded queue state for the incremental engine.
//!
//! Waiting flows are threaded into one FIFO list per `(input, output)`
//! cell. The cell arrays are laid out row-major by input port — all cells
//! of one input port are contiguous — so a burst hammering one port
//! touches one cache region ("sharded by port"). State is
//! `O(m_in * m_out)` words plus the slab.
//!
//! The slab holds the flows. A waiting flow costs 20 bytes: its id and
//! release as two `u32` halves each, and the slot of the next-oldest flow
//! of its cell. Slots come in chunks of 1024; a chunk is allocated
//! only when every slot handed out so far is in use, so the slab is the
//! peak queue rounded up to one chunk (20 KiB), and growing it never
//! copies a flow. A dequeued slot goes on a free list threaded through
//! the same `next` field and is the first one reused (LIFO), so memory
//! stays `O(peak queue)` even on endless streams.

/// Sentinel for "no slot".
pub const NIL: u32 = u32::MAX;

/// Slots per slab chunk.
const CHUNK: usize = 1024;

/// A queued flow in the slab: 20 bytes, 4-aligned.
#[derive(Debug, Clone, Copy)]
pub struct QueuedFlow {
    /// Stream id (source-assigned), low half first.
    id: [u32; 2],
    /// Release round (for response-time accounting), low half first.
    release: [u32; 2],
    /// Next-oldest flow in the same cell while queued, next free slot
    /// while on the free list (intrusive lists).
    next: u32,
}

const _: () = assert!(std::mem::size_of::<QueuedFlow>() == 20);

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
        id: [0; 2],
        release: [0; 2],
        next: NIL,
    };

    /// Stream id (source-assigned).
    #[inline]
    pub fn id(&self) -> u64 {
        join(self.id)
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
    /// Waiting flows per cell (row-major by input port).
    count: Vec<u32>,
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
            count: vec![0; cells],
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

    /// Flows waiting in `cell`.
    #[inline]
    pub fn count(&self, cell: usize) -> u32 {
        self.count[cell]
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
    /// (i.e. a new support edge appeared).
    pub fn push(&mut self, src: u32, dst: u32, id: u64, release: u64) -> bool {
        let cell = self.cell(src, dst);
        let slot = self.take_slot();
        *self.at_mut(slot) = QueuedFlow {
            id: halves(id),
            release: halves(release),
            next: NIL,
        };
        let was_empty = self.count[cell] == 0;
        if was_empty {
            self.head[cell] = slot;
        } else {
            let t = self.tail[cell];
            self.at_mut(t).next = slot;
        }
        self.tail[cell] = slot;
        self.count[cell] += 1;
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
        let cell = self.cell(src, dst);
        assert!(self.count[cell] > 0, "pop from empty cell ({src}, {dst})");
        let slot = self.head[cell];
        let free = self.free;
        let entry = self.at_mut(slot);
        let rec = *entry;
        entry.next = free;
        self.free = slot;
        self.head[cell] = rec.next;
        if rec.next == NIL {
            self.tail[cell] = NIL;
        }
        self.count[cell] -= 1;
        self.in_totals[src as usize] -= 1;
        self.out_totals[dst as usize] -= 1;
        self.len -= 1;
        (rec, self.count[cell] == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
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
            assert_eq!(rec.id(), round);
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
        assert_eq!(q.count(q.cell(0, 1)), 1);
    }

    #[test]
    #[should_panic(expected = "empty cell")]
    fn popping_an_empty_cell_is_a_bug() {
        let mut q = ShardedQueues::new(1, 1);
        let _ = q.pop_oldest(0, 0);
    }

    #[test]
    #[should_panic(expected = "flows waiting at once")]
    fn the_last_slot_index_is_never_nil() {
        let mut q = ShardedQueues::new(1, 1);
        q.slots = NIL;
        q.push(0, 0, 0, 0);
    }

    /// Everything the queues answer, against the model.
    fn check(q: &ShardedQueues, model: &[VecDeque<(u64, u64)>], m_in: usize, m_out: usize) {
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
            assert_eq!(q.count(q.cell(p, c)) as usize, fifo.len());
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
        /// than the most flows that ever waited at once. Ids and
        /// releases are full 64-bit values, so a swapped half shows.
        #[test]
        fn queues_match_a_fifo_model(
            m_in in 1usize..6,
            m_out in 1usize..6,
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
                        if pop {
                            let (rec, now_empty) = q.pop_oldest(p, c);
                            let want = model[cell].pop_front();
                            prop_assert_eq!(Some((rec.id(), rec.release())), want);
                            prop_assert_eq!(now_empty, model[cell].is_empty());
                            live -= 1;
                        } else {
                            let (id, release) = (rng.gen::<u64>(), rng.gen::<u64>());
                            prop_assert_eq!(q.push(p, c, id, release), model[cell].is_empty());
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
