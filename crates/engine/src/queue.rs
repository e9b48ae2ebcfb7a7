//! Per-port sharded queue state for the incremental engine.
//!
//! Waiting flows live in a slab (freelist-recycled, so memory stays
//! `O(peak queue)` even on endless streams) and are threaded into one FIFO
//! list per `(input, output)` cell. The cell arrays are laid out row-major
//! by input port — all cells of one input port are contiguous — so a burst
//! hammering one port touches one cache region ("sharded by port"). Sized
//! comfortably for the paper's `m = 150`, `M = 4m` stress cell and beyond:
//! state is `O(m_in * m_out)` words plus `O(queue)` slab entries.

/// Sentinel for "no slot".
pub const NIL: u32 = u32::MAX;

/// A queued flow in the slab.
#[derive(Debug, Clone, Copy)]
pub struct QueuedFlow {
    /// Stream id (source-assigned).
    pub id: u64,
    /// Release round (for response-time accounting).
    pub release: u64,
    /// Next-oldest flow in the same cell (intrusive list).
    next: u32,
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
    slab: Vec<QueuedFlow>,
    free: Vec<u32>,
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
            free: Vec::new(),
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

    /// Enqueue a flow; returns `true` when the cell was previously empty
    /// (i.e. a new support edge appeared).
    pub fn push(&mut self, src: u32, dst: u32, id: u64, release: u64) -> bool {
        let cell = self.cell(src, dst);
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = QueuedFlow {
                    id,
                    release,
                    next: NIL,
                };
                s
            }
            None => {
                self.slab.push(QueuedFlow {
                    id,
                    release,
                    next: NIL,
                });
                (self.slab.len() - 1) as u32
            }
        };
        let was_empty = self.count[cell] == 0;
        if was_empty {
            self.head[cell] = slot;
        } else {
            let t = self.tail[cell] as usize;
            self.slab[t].next = slot;
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
        (head != NIL).then(|| &self.slab[head as usize])
    }

    /// Dequeue the oldest flow of `(src, dst)`; returns it plus `true`
    /// when the cell is now empty (support edge vanished). Panics on an
    /// empty cell — callers dispatch only matched (hence occupied) cells.
    pub fn pop_oldest(&mut self, src: u32, dst: u32) -> (QueuedFlow, bool) {
        let cell = self.cell(src, dst);
        assert!(self.count[cell] > 0, "pop from empty cell ({src}, {dst})");
        let slot = self.head[cell];
        let rec = self.slab[slot as usize];
        self.head[cell] = rec.next;
        if rec.next == NIL {
            self.tail[cell] = NIL;
        }
        self.free.push(slot);
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
        assert_eq!((a.id, empty), (10, false));
        let (b, _) = q.pop_oldest(1, 0);
        assert_eq!(b.id, 11);
        let (c, empty) = q.pop_oldest(1, 0);
        assert_eq!((c.id, empty), (12, true));
        assert!(q.is_empty());
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut q = ShardedQueues::new(1, 1);
        for round in 0..100u64 {
            q.push(0, 0, round, round);
            let (rec, _) = q.pop_oldest(0, 0);
            assert_eq!(rec.id, round);
        }
        // One live flow at a time => slab never grew past 1 slot.
        assert_eq!(q.slab.len(), 1);
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
}
