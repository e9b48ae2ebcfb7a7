//! Exact MaxCard: the deduped waiting graph Hopcroft–Karp runs on, and
//! the round core that carries it from one round to the next.
//!
//! ## Why a deduped graph selects the same flows
//!
//! The reference MaxCard runs HK over the full waiting multigraph (one edge
//! per waiting flow). HK's BFS/DFS both ignore a parallel edge whose
//! `(port, port)` pair was already reachable/tried — a failed DFS attempt
//! mutates nothing, so a later parallel copy fails identically, and the
//! first occurrence is always the one that succeeds. Running the *same
//! traversal* over the first-occurrence-deduped adjacency (at most
//! `m_in * m_out` edges instead of one per queued flow) therefore yields
//! the same matched pairs *and* the same representative edge ids.
//! `Support` is that adjacency: per cell its first waiting index
//! (`head`), the position at which the multigraph's adjacency list first
//! mentions it, and per input row its nonempty cells as a bitset.
//!
//! ## Why it is carried across rounds
//!
//! Rebuilding the support by scanning every waiting flow was 85 % of a
//! round at `M = 4m` (m = 150, mean backlog 51 701: scan 191–241 µs, HK
//! 32–40 µs), yet a round changes at most `arrivals + 2 * dispatches` of
//! its entries. `MaxCardRound` threads the flows of a cell on an
//! intrusive list through the waiting vector, in ascending waiting index,
//! so the head leads its list. An arrival holds the largest index and
//! appends at the tail; a dispatched head's successor is the cell's new
//! head. The `swap_remove` that follows moves the last flow, its cell's
//! tail, onto the dispatched head's index `k`, and it goes back in by a
//! walk from its cell's head over the flows below `k`. Those are flows
//! older than a head just dispatched, so they are few: on the m = 150,
//! M = 4m cell the walk passes 4 443 nodes for 150 181 departures, and at
//! m = 20, λ = 1.1 it passes 0.69 a departure at 20 000 rounds and 1.01
//! at 40 000, while an unordered list walked the whole dispatched cell
//! (255 525 nodes, and 21.5M at 20 000 overload rounds). The waiting
//! vector keeps the reference discipline position for position (append
//! in `(release, id)` order, descending-index `swap_remove`), so
//! `head[cell]` is the index the scan would have found and schedules stay
//! bit-identical to [`crate::exact`]'s scan-driven MaxCard, which remains
//! the path under a `FailurePlan` and the reference the differential
//! tests hold this core to.
//!
//! The graph is carried every round, however short the backlog. A
//! departure costs ~10 ns and an arrival ~12 ns, and a rescan below a
//! backlog of 16 per port (which this core did while a departure cost
//! ~210 ns) was slower or no faster on every `stream --mode maxcard`
//! cell measured, from 4 × 4 to 2048 × 2048 and from λ = 0.0005 to
//! overload: e.g. m = 20, λ = 0.9 (backlog ~120) 1.145 → 0.924 s for
//! 300 000 rounds, m = 150, λ = 0.007 0.798 → 0.534 s, and m = 2048,
//! λ = 0.0005 0.666 → 0.386 s (seed 1, 2-thread Xeon VM, medians of
//! six alternated pairs).
//!
//! ## Why the BFS goes a word at a time
//!
//! Each Hopcroft–Karp phase labels every row with its alternating
//! distance from a free row. Edge at a time, a BFS reads every entry of
//! every row it reaches, and on the saturated m = 150 cell nearly all of
//! them name a column an earlier row already reached: 94 reads per
//! labelled row. `Support` therefore keeps each row's nonempty cells as a
//! bitset (`fss_matching::bitset::BitRows`, the layout the incremental
//! matcher and the weighted solver use too), and the BFS expands a whole
//! layer at once: the OR of the frontier rows' words, minus the columns
//! already seen, is the layer's new columns, and each new matched column
//! labels its row for the next layer. A row's distance is its layer,
//! whatever order the layer is expanded in, so the labels — and whether a
//! free column was reached — are exactly the queue BFS's.
//!
//! ## Why the DFS needs no sorted rows
//!
//! The DFS is the one place order matters: it picks the edge a row is
//! matched through. The reference walks row `u`'s cells in ascending
//! `head` and takes the first column `v` that is free, or whose row has
//! `dist[u] + 1` and a successful descent. Keeping rows in that order
//! cost a search and a rotation per departure, most of a round.
//! Instead the BFS records, per layer, the matched columns it labelled
//! (`layer_cols[d]`: the columns whose row has `dist` d), and `free`
//! holds the columns no row is matched to. Then
//! `adj[u] & (free | layer_cols[d + 1])` is exactly the set of columns
//! that qualify for a frame at row `u` with `dist` d, and the frame tries
//! its lowest-`head` member, again and again. Between two tries only a
//! failed descent happens, through the column `v` just tried into its row
//! `w` at `dist` d + 1. It sets `dist` to `INF` on `w`, taking `v` out of
//! `layer_cols[d + 1]`, and on rows deeper than d + 1, whose columns no
//! mask of this frame holds; and no column leaves `free` without a
//! success. So the next try's mask is the last one minus `v`: the frame
//! tries the columns the reference tries, in the reference's order, and
//! matches the same pairs through the same waiting indices. A success
//! moves the column to `layer_cols[d]` (out of `layer_cols[d + 1]` or out
//! of `free`) and a failure takes `u`'s column out of `layer_cols[d]`, so
//! the masks stay exact, and one mask row is all the scratch the
//! recursion needs.
//!
//! The first phase needs no masks at all: no column is matched, so every
//! frame is a free row taking the lowest-`head` free column of its row.
//! On the m = 150, M = 4m cell that phase makes 164 250 of the 172 069
//! tries, and a walk of the row's free set bits reads ~54 scattered heads
//! a try. So `first_phase` counts a row's free set bits first: a row with
//! one in `DENSE_ROW` columns or more takes its pick from one branch-free
//! pass over its heads (`NIL` marks an empty cell and a taken column), and
//! a sparser row, the usual one at light load or on a wide switch, walks
//! its bits as `dfs` does. The pass alone would read `m_in * m_out` heads
//! every round however few flows wait: 4.2M on a 2048-port switch holding
//! one flow.

use crate::engine_id;
use crate::source::Arrival;
use crate::stream::RoundCore;
use fss_matching::bitset::{self, ones, BitRows};
use fss_telemetry::EngineTelemetry;

const NIL: u32 = u32::MAX;
const INF: u32 = u32::MAX;

/// A first-phase row reads its whole row of heads once at least one
/// column in `DENSE_ROW` is live, and walks its live columns below that.
/// On the seed-1 m = 150 cells 2 and 4 ran alike and 8 ran the M = 4m
/// cell ~4 % slower; at light load a row has a live column or two.
const DENSE_ROW: usize = 4;

/// `k` as a waiting index `Support` stores. `NIL` marks an empty cell, so
/// an index at or past it would be truncated or read as one: a run that
/// holds that many flows at once ends naming the bound.
pub(crate) fn waiting_index(k: usize) -> u32 {
    match u32::try_from(k) {
        Ok(k) if k != NIL => k,
        _ => panic!("waiting index {k}: exact MaxCard holds at most {NIL} flows at once"),
    }
}

/// What Hopcroft–Karp did over a run: deterministic counts, reported by
/// the core that owns the [`Support`].
#[derive(Default, Clone, Copy)]
struct Work {
    /// BFS runs, the last one of each round (which finds no free
    /// column) included.
    hk_phases: u64,
    /// Rows whose adjacency a BFS read.
    bfs_rows: u64,
    /// Adjacency words a BFS ORed.
    bfs_words: u64,
    /// Columns the DFS tried: taken from a frame's mask, each one free or
    /// the way into a descent.
    dfs_tries: u64,
}

/// The first-occurrence-deduped waiting graph plus the Hopcroft–Karp
/// scratch that matches it. A cell is `input * m_out + output`.
pub(crate) struct Support {
    m_in: usize,
    m_out: usize,
    /// Per cell the smallest waiting index, `NIL` when no flow waits.
    head: Vec<u32>,
    /// Bit `v` of row `u` is set while cell `(u, v)` is nonempty.
    adj: BitRows,
    match_l: Vec<u32>,
    match_r: Vec<u32>,
    dist: Vec<u32>,
    // --- BFS scratch ---
    /// Columns reached by the current BFS.
    seen: Vec<u64>,
    /// OR of the current layer's rows.
    reach: Vec<u64>,
    /// Rows of the layer being expanded, and of the next one.
    frontier: Vec<u32>,
    next: Vec<u32>,
    // --- DFS scratch ---
    /// The columns with `match_r == NIL`.
    free: Vec<u64>,
    /// Row `d`: the matched columns whose row has `dist` d. Rows at and
    /// past `layers` are empty.
    layer_cols: BitRows,
    /// Rows of `layer_cols` the current phase may have written.
    layers: usize,
    /// The columns a DFS try chooses from: its frame's mask, rebuilt
    /// before each try (a descent overwrites it).
    cand: Vec<u64>,
    /// The first phase's `free`, one word per column: 0 while the column
    /// is free, `NIL` once a row took it.
    taken: Vec<u32>,
    work: Work,
}

impl Support {
    pub(crate) fn new(m_in: usize, m_out: usize) -> Support {
        let cells = m_in
            .checked_mul(m_out)
            .filter(|&cells| u32::try_from(cells).is_ok())
            .expect("exact MaxCard indexes cells as u32");
        Support {
            m_in,
            m_out,
            head: vec![NIL; cells],
            adj: BitRows::new(m_in, m_out),
            match_l: vec![NIL; m_in],
            match_r: vec![NIL; m_out],
            dist: vec![INF; m_in],
            seen: vec![0; bitset::words(m_out)],
            reach: vec![0; bitset::words(m_out)],
            frontier: Vec::with_capacity(m_in),
            next: Vec::with_capacity(m_in),
            free: vec![0; bitset::words(m_out)],
            // A frame at `dist` d reads layer d + 1, and d < m_in.
            layer_cols: BitRows::new(m_in + 1, m_out),
            layers: 0,
            cand: vec![0; bitset::words(m_out)],
            taken: vec![0; m_out],
            work: Work::default(),
        }
    }

    /// Report the lifetime [`Work`] counts.
    pub(crate) fn finish(&self, tele: &mut EngineTelemetry) {
        let Work {
            hk_phases,
            bfs_rows,
            bfs_words,
            dfs_tries,
        } = self.work;
        tele.counter_add("maxcard_hk_phases", hk_phases);
        tele.counter_add("maxcard_bfs_rows", bfs_rows);
        tele.counter_add("maxcard_bfs_words", bfs_words);
        tele.counter_add("maxcard_dfs_tries", dfs_tries);
    }

    /// `cell`'s input and output port. Cells fit `u32` (checked in
    /// `new`), and a 32-bit division has half the latency of a 64-bit one.
    #[inline]
    fn ports(&self, cell: usize) -> (usize, usize) {
        let (cell, m_out) = (cell as u32, self.m_out as u32);
        ((cell / m_out) as usize, (cell % m_out) as usize)
    }

    /// Forget every cell, in time proportional to the cells set plus
    /// the bitset's words.
    pub(crate) fn clear(&mut self) {
        for u in 0..self.m_in {
            for v in ones(self.adj.row(u).iter().copied()) {
                self.head[u * self.m_out + v] = NIL;
            }
        }
        self.adj.clear();
    }

    /// Scan step: waiting index `k` sits in `cell`. Indices must arrive
    /// ascending, so a cell's first mention is its head. True when `k`
    /// became the head.
    #[inline]
    pub(crate) fn first_occurrence(&mut self, cell: usize, k: u32) -> bool {
        let first = self.head[cell] == NIL;
        if first {
            self.head[cell] = k;
            let (u, v) = self.ports(cell);
            self.adj.insert(u, v);
        }
        first
    }

    /// A maximum matching of the support as the sorted waiting indices of
    /// its cells' heads: Hopcroft–Karp, mirroring
    /// `fss_matching::max_cardinality_matching`'s labels and DFS order.
    // Out of line on purpose: inlined into the round loop beside the
    // other rules' arms the HK loops compile ~10 % slower (measured on
    // the m = 150, M = 4m cell and again at m = 20), and one call a round
    // costs nothing.
    #[inline(never)]
    pub(crate) fn select_into(&mut self, selection: &mut Vec<usize>) {
        self.match_l.fill(NIL);
        self.match_r.fill(NIL);
        bitset::fill(&mut self.free, self.m_out);
        let mut first = true;
        while self.bfs() {
            if std::mem::take(&mut first) {
                self.first_phase();
            } else {
                for u in 0..self.m_in {
                    if self.match_l[u] == NIL {
                        self.dfs(u);
                    }
                }
            }
            #[cfg(debug_assertions)]
            self.check_layers();
        }
        // König's certificate, over the adjacency the DFS drew from.
        #[cfg(debug_assertions)]
        bitset::check_cover(&self.adj, &self.match_l, &self.match_r);
        selection.clear();
        for (u, &v) in self.match_l.iter().enumerate() {
            if v != NIL {
                selection.push(self.head[u * self.m_out + v as usize] as usize);
            }
        }
        // The reference runner sorts + dedups the policy's return value.
        selection.sort_unstable();
    }

    /// One BFS, a layer at a time: `dist` becomes every row's alternating
    /// distance from a free row (`INF` if none), `seen` the columns
    /// reached and `layer_cols` the matched ones by their row's `dist`;
    /// true when one of them is free. Like the reference it does not stop
    /// at the first free column: the DFS reads every label.
    fn bfs(&mut self) -> bool {
        self.frontier.clear();
        for (u, &v) in self.match_l.iter().enumerate() {
            if v == NIL {
                self.dist[u] = 0;
                self.frontier.push(u as u32);
            } else {
                self.dist[u] = INF;
            }
        }
        self.seen.fill(0);
        // Only the DFS writes layer 0; each layer reached below is
        // overwritten whole.
        self.layer_cols.row_mut(0).fill(0);
        self.work.hk_phases += 1;
        let mut found = false;
        let mut layer = 0;
        while !self.frontier.is_empty() {
            layer += 1;
            self.work.bfs_rows += self.frontier.len() as u64;
            self.work.bfs_words += (self.frontier.len() * self.reach.len()) as u64;
            self.reach.fill(0);
            for &u in &self.frontier {
                for (r, &a) in self.reach.iter_mut().zip(self.adj.row(u as usize)) {
                    *r |= a;
                }
            }
            // The layer's new columns: a free one ends the search, the
            // matched ones are the layer and label their rows.
            let cols = self.layer_cols.row_mut(layer);
            let new = self.seen.iter_mut().zip(&self.reach).zip(&self.free);
            for (col, ((seen, &reach), &free)) in cols.iter_mut().zip(new) {
                let new = reach & !*seen;
                *seen |= new;
                found |= new & free != 0;
                *col = new & !free;
            }
            self.next.clear();
            for v in ones(self.layer_cols.row(layer).iter().copied()) {
                let w = self.match_r[v];
                self.dist[w as usize] = layer as u32;
                self.next.push(w);
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
        }
        // The last layer labelled no row, so rows are at `dist` below it;
        // empty the deeper layers the last phase left.
        for d in layer..self.layers {
            self.layer_cols.row_mut(d).fill(0);
        }
        self.layers = layer;
        found
    }

    /// The first phase's DFS, a row at a time and without the masks. No
    /// column is matched yet, so every row is free at `dist` 0,
    /// `layer_cols[1]` is empty, and a frame at row `u` takes the
    /// lowest-`head` column of `adj[u] & free` and succeeds, or fails
    /// without a try when that set is empty. A row with few such columns
    /// walks them, as `dfs` would; a dense one reads its whole row of
    /// heads in one branch-free pass instead. `head` is `NIL` exactly where
    /// `adj` is clear and a row's heads are distinct waiting indices, so
    /// the least `head | taken` of the row is the walk's column's head:
    /// the same columns and the same tries either way, and a round costs
    /// what its set cells cost, not `m_in * m_out`.
    fn first_phase(&mut self) {
        self.taken.fill(0);
        for u in 0..self.m_in {
            let mut live = 0;
            let row = self.adj.row(u).iter().zip(&self.free);
            for (c, (&a, &f)) in self.cand.iter_mut().zip(row) {
                *c = a & f;
                live += c.count_ones() as usize;
            }
            if live == 0 {
                self.dist[u] = INF;
                continue;
            }
            let heads = &self.head[u * self.m_out..][..self.m_out];
            let v = if live * DENSE_ROW < self.m_out {
                ones(self.cand.iter().copied())
                    .min_by_key(|&v| heads[v])
                    .expect("the row has a live column")
            } else {
                let least = heads
                    .iter()
                    .zip(&self.taken)
                    .fold(NIL, |least, (&h, &t)| least.min(h | t));
                heads
                    .iter()
                    .position(|&h| h == least)
                    .expect("the least head is in the row")
            };
            self.work.dfs_tries += 1;
            self.taken[v] = NIL;
            bitset::remove(&mut self.free, v);
            self.layer_cols.insert(0, v);
            self.match_l[u] = v as u32;
            self.match_r[v] = u as u32;
        }
    }

    /// Layered-DFS augmentation from row `u`, trying the columns of
    /// `fss_matching::hopcroft_karp::dfs`'s walk in its order (see the
    /// module docs): the columns that qualify, lowest `head` first.
    fn dfs(&mut self, u: usize) -> bool {
        let d = self.dist[u] as usize;
        let base = u * self.m_out;
        loop {
            let heads = &self.head[base..base + self.m_out];
            let qualify = self.free.iter().zip(self.layer_cols.row(d + 1));
            let row = self.adj.row(u).iter().zip(qualify);
            for (c, (&a, (&f, &l))) in self.cand.iter_mut().zip(row) {
                *c = a & (f | l);
            }
            let Some(v) = ones(self.cand.iter().copied()).min_by_key(|&v| heads[v]) else {
                break;
            };
            self.work.dfs_tries += 1;
            let w = self.match_r[v];
            if w == NIL || self.dfs(w as usize) {
                if w == NIL {
                    bitset::remove(&mut self.free, v);
                } else {
                    self.layer_cols.remove(d + 1, v);
                }
                self.layer_cols.insert(d, v);
                self.match_l[u] = v as u32;
                self.match_r[v] = u as u32;
                return true;
            }
            debug_assert!(
                !self.layer_cols.contains(d + 1, v),
                "row {w}'s failure left its column in layer {}",
                d + 1
            );
        }
        let v = self.match_l[u];
        if v != NIL {
            self.layer_cols.remove(d, v as usize);
        }
        self.dist[u] = INF;
        false
    }

    /// Panic unless the DFS's masks describe the matching: `free` is the
    /// unmatched columns, and each matched column is in `layer_cols` at
    /// its row's finite `dist` and in no other layer.
    #[cfg(debug_assertions)]
    fn check_layers(&self) {
        let unmatched = (0..self.m_out).filter(|&v| self.match_r[v] == NIL);
        assert!(
            ones(self.free.iter().copied()).eq(unmatched),
            "free is not the unmatched columns"
        );
        let mut listed = 0;
        for d in 0..=self.m_in {
            for v in ones(self.layer_cols.row(d).iter().copied()) {
                let w = self.match_r[v];
                assert!(
                    w != NIL && self.dist[w as usize] as usize == d,
                    "column {v} is in layer {d}, not its row's"
                );
                listed += 1;
            }
        }
        let labelled = (0..self.m_in)
            .filter(|&u| self.match_l[u] != NIL && self.dist[u] != INF)
            .count();
        assert_eq!(listed, labelled, "a labelled row's column is in no layer");
    }

    /// Drop `cell`, whose last flow just left.
    fn remove(&mut self, cell: usize) {
        self.head[cell] = NIL;
        let (u, v) = self.ports(cell);
        self.adj.remove(u, v);
    }
}

/// One waiting flow: 24 bytes, as `fss_online::WaitingFlow` — the links
/// take the place of its padding and of the ports folded into `cell`, so
/// a run's peak heap (3.0 of 3.1 MiB is this vector at m = 150, M = 4m)
/// does not pay for them.
#[derive(Clone, Copy)]
struct Waiting {
    release: u64,
    id: u32,
    cell: u32,
    /// Neighbours on the cell's list, which ascends by waiting index.
    /// The tail's `next` is `NIL` and the head's `prev` is the tail, so
    /// an arrival appends without a walk.
    prev: u32,
    next: u32,
}

const _: () = assert!(std::mem::size_of::<Waiting>() == 24);

/// Exact MaxCard without a failure plan, as the round loop drives it.
pub(crate) struct MaxCardRound {
    /// Reference-ordered waiting vector (the parity-critical structure).
    waiting: Vec<Waiting>,
    support: Support,
    /// This round's selection (sorted waiting indices).
    selection: Vec<usize>,
    /// List nodes `relocate_last` passed after the head to find where
    /// the moved flow goes.
    walk_nodes: u64,
}

impl MaxCardRound {
    pub(crate) fn new(m_in: usize, m_out: usize) -> MaxCardRound {
        MaxCardRound {
            waiting: Vec::new(),
            support: Support::new(m_in, m_out),
            selection: Vec::new(),
            walk_nodes: 0,
        }
    }

    /// Thread `waiting[k]` onto its cell's list. `k` exceeds every index
    /// already threaded, so it goes at the tail, which the head's `prev`
    /// names.
    fn link(&mut self, k: u32) {
        let cell = self.waiting[k as usize].cell as usize;
        let tail = if self.support.first_occurrence(cell, k) {
            k
        } else {
            let head = self.support.head[cell];
            let tail = std::mem::replace(&mut self.waiting[head as usize].prev, k);
            self.waiting[tail as usize].next = k;
            tail
        };
        let w = &mut self.waiting[k as usize];
        (w.prev, w.next) = (tail, NIL);
    }

    /// Take the dispatched head `k` off its cell: its successor, the
    /// next smallest index, is the new head and takes over the tail.
    fn unlink_head(&mut self, k: u32) {
        let Waiting {
            cell, prev, next, ..
        } = self.waiting[k as usize];
        let cell = cell as usize;
        debug_assert_eq!(self.support.head[cell], k);
        if next == NIL {
            self.support.remove(cell);
            return;
        }
        self.waiting[next as usize].prev = prev;
        self.support.head[cell] = next;
    }

    /// `swap_remove(k)` for an already unlinked `k`, where `k` was the
    /// head of the cell just dispatched. The last flow held the largest
    /// index, so it was its cell's tail: it leaves the tail and goes back
    /// in at `k`'s place in the order, before the head or behind the
    /// last of its cell's flows below `k`, which a walk from the head
    /// finds. Flows below a head that was just dispatched are few, so the
    /// walk is short.
    fn relocate_last(&mut self, k: u32) {
        let last = self.waiting.len() as u32 - 1;
        if k == last {
            self.waiting.pop();
            return;
        }
        let Waiting {
            cell, prev, next, ..
        } = self.waiting[last as usize];
        debug_assert_eq!(next, NIL, "flow {last} is not its cell's tail");
        let cell = cell as usize;
        let head = self.support.head[cell];
        self.waiting.swap_remove(k as usize);
        if head == last {
            // It was the cell's only flow.
            self.support.head[cell] = k;
            let w = &mut self.waiting[k as usize];
            (w.prev, w.next) = (k, NIL);
            return;
        }
        // `prev` is the tail now.
        self.waiting[prev as usize].next = NIL;
        self.waiting[head as usize].prev = prev;
        let (prev, next) = if k < head {
            self.support.head[cell] = k;
            self.waiting[head as usize].prev = k;
            (prev, head)
        } else {
            let mut j = head;
            loop {
                let next = self.waiting[j as usize].next;
                if next == NIL || next > k {
                    break;
                }
                self.walk_nodes += 1;
                j = next;
            }
            let next = std::mem::replace(&mut self.waiting[j as usize].next, k);
            let after = if next == NIL { head } else { next };
            self.waiting[after as usize].prev = k;
            (j, next)
        };
        let w = &mut self.waiting[k as usize];
        (w.prev, w.next) = (prev, next);
    }

    /// Panic unless the maintained structure describes the waiting
    /// vector: every nonempty cell's `head` is the minimum of its list,
    /// each list ascends, `prev`/`next` agree and the head's `prev` is the
    /// tail, every waiting index is on exactly one list,
    /// and each row's bitset holds exactly its nonempty cells.
    #[cfg(any(test, debug_assertions))]
    fn verify(&self) {
        let Support {
            m_in,
            m_out,
            head,
            adj,
            ..
        } = &self.support;
        let mut want = vec![NIL; head.len()];
        for (k, w) in self.waiting.iter().enumerate().rev() {
            want[w.cell as usize] = k as u32;
        }
        assert_eq!(head, &want, "head is not each cell's smallest index");
        let mut on_a_list = vec![false; self.waiting.len()];
        for (cell, &first) in head.iter().enumerate() {
            let (mut prev, mut k) = (NIL, first);
            while k != NIL {
                let w = &self.waiting[k as usize];
                assert_eq!(w.cell as usize, cell, "flow {k} is on another cell's list");
                if prev != NIL {
                    assert!(prev < k, "cell {cell}'s list has {k} after {prev}");
                    assert_eq!(w.prev, prev, "prev of {k} disagrees with next of {prev}");
                }
                assert!(!on_a_list[k as usize], "flow {k} is on two lists");
                on_a_list[k as usize] = true;
                (prev, k) = (k, w.next);
            }
            if first != NIL {
                let tail = self.waiting[first as usize].prev;
                assert_eq!(tail, prev, "cell {cell}'s head does not name its tail");
            }
        }
        assert!(
            on_a_list.iter().all(|&on| on),
            "a waiting flow is on no list"
        );
        for u in 0..*m_in {
            let heads = &head[u * m_out..][..*m_out];
            let nonempty = (0..*m_out).filter(|&v| heads[v] != NIL);
            let bits = ones(adj.row(u).iter().copied());
            assert!(bits.eq(nonempty), "row {u}'s bitset is not its cells");
        }
    }
}

impl RoundCore for MaxCardRound {
    fn push(&mut self, a: Arrival) {
        let (m_in, m_out) = (self.support.m_in, self.support.m_out);
        assert!(
            (a.src as usize) < m_in && (a.dst as usize) < m_out,
            "flow {} is on port ({}, {}) of a {m_in} x {m_out} switch",
            a.id,
            a.src,
            a.dst
        );
        let k = waiting_index(self.waiting.len());
        self.waiting.push(Waiting {
            release: a.release,
            id: engine_id(a.id),
            cell: a.src * m_out as u32 + a.dst,
            prev: NIL,
            next: NIL,
        });
        self.link(k);
    }

    fn backlog(&self) -> usize {
        self.waiting.len()
    }

    fn select(&mut self, _t: u64) {
        self.support.select_into(&mut self.selection);
    }

    fn dispatch(&mut self, mut emit: impl FnMut(u64, u64)) -> usize {
        for &k in &self.selection {
            let w = &self.waiting[k];
            emit(u64::from(w.id), w.release);
        }
        self.selection.len()
    }

    /// The reference runner's descending-index `swap_remove`, plus the
    /// repairs each one calls for, finished before the next index. A
    /// debug build checks the structure each time the backlog drains.
    fn retire(&mut self) {
        for i in (0..self.selection.len()).rev() {
            let k = self.selection[i] as u32;
            self.unlink_head(k);
            self.relocate_last(k);
        }
        #[cfg(debug_assertions)]
        if self.waiting.is_empty() {
            self.verify();
        }
    }

    fn finish(&self, tele: &mut EngineTelemetry) {
        tele.counter_add("maxcard_walk_nodes", self.walk_nodes);
        self.support.finish(tele);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{ExactRound, Selector};
    use crate::source::FlowSource;
    use crate::stream::{drive, StreamStats};
    use fss_core::FailurePlan;
    use fss_matching::{max_cardinality_matching, BipartiteGraph};
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// The core under test with its structure checked at both ends of
    /// every round: once the arrivals are in, and once the dispatched
    /// flows are out.
    struct Checked(MaxCardRound);

    impl RoundCore for Checked {
        fn push(&mut self, a: Arrival) {
            self.0.push(a);
        }
        fn backlog(&self) -> usize {
            self.0.backlog()
        }
        fn select(&mut self, t: u64) {
            self.0.verify();
            self.0.select(t);
        }
        fn dispatch(&mut self, emit: impl FnMut(u64, u64)) -> usize {
            self.0.dispatch(emit)
        }
        fn retire(&mut self) {
            self.0.retire();
            self.0.verify();
        }
    }

    struct List {
        m_in: usize,
        m_out: usize,
        arrivals: std::vec::IntoIter<Arrival>,
    }

    impl FlowSource for List {
        fn m_in(&self) -> usize {
            self.m_in
        }
        fn m_out(&self) -> usize {
            self.m_out
        }
        fn next_arrival(&mut self) -> Option<Arrival> {
            self.arrivals.next()
        }
    }

    /// Which cells arrivals land on.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        Uniform,
        OneHotCell,
        /// Cell of rank `r` (row-major) drawn with weight `1 / (r + 1)`.
        Zipf,
    }

    /// `phases` of `(rounds, arrivals per round)`, back to back.
    fn arrivals(
        (m_in, m_out): (usize, usize),
        shape: Shape,
        phases: &[(u64, u32)],
        seed: u64,
    ) -> Vec<Arrival> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cells = m_in * m_out;
        let cumulative: Vec<f64> = (0..cells)
            .scan(0.0, |sum, r| {
                *sum += 1.0 / (r + 1) as f64;
                Some(*sum)
            })
            .collect();
        let hot = rng.gen_range(0..cells);
        let mut out = Vec::new();
        let mut release = 0;
        for &(rounds, per_round) in phases {
            for _ in 0..rounds {
                for _ in 0..per_round {
                    let cell = match shape {
                        Shape::Uniform => rng.gen_range(0..cells),
                        Shape::OneHotCell => hot,
                        Shape::Zipf => {
                            let x = rng.gen_range(0.0..cumulative[cells - 1]);
                            cumulative.partition_point(|&c| c <= x).min(cells - 1)
                        }
                    };
                    out.push(Arrival {
                        id: out.len() as u64,
                        src: (cell / m_out) as u32,
                        dst: (cell % m_out) as u32,
                        release,
                    });
                }
                release += 1;
            }
        }
        out
    }

    type Dispatches = Vec<(u64, u64, u64)>;

    fn drain<C: RoundCore>(
        (m_in, m_out): (usize, usize),
        arrivals: Vec<Arrival>,
        core: C,
    ) -> (Dispatches, StreamStats) {
        let source = List {
            m_in,
            m_out,
            arrivals: arrivals.into_iter(),
        };
        let mut out = Vec::new();
        let tele = &mut EngineTelemetry::disabled();
        let stats = drive(source, core, tele, |id, release, round| {
            out.push((id, release, round));
        });
        (out, stats)
    }

    /// Run the carried graph, verified every round, against the masked
    /// scan core under an empty plan.
    fn check_against_the_scan(
        (m_in, m_out): (usize, usize),
        shape: Shape,
        phases: &[(u64, u32)],
        seed: u64,
    ) {
        let flows = arrivals((m_in, m_out), shape, phases, seed);
        let checked = Checked(MaxCardRound::new(m_in, m_out));
        let plan = FailurePlan::default();
        let scan = ExactRound::new(m_in, m_out, Selector::MaxCard, Some(&plan), false);
        let got = drain((m_in, m_out), flows.clone(), checked);
        let want = drain((m_in, m_out), flows, scan);
        assert_eq!(got.1, want.1, "{m_in} x {m_out} {shape:?}: stats differ");
        assert!(
            got.0 == want.0,
            "{m_in} x {m_out} {shape:?}: dispatch sequences differ"
        );
        assert_eq!(got.1.dispatched, got.1.arrived);
    }

    /// Output counts for the carried graph's check: small switches, and
    /// rows one bit short of a word, one word exactly, and spilling into
    /// a second and a third word.
    const CARRIED_WIDTHS: [usize; 8] = [1, 2, 3, 4, 63, 64, 65, 129];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Bursts that pile flows up and lulls that drain them, on small
        /// rectangular switches and on outputs either side of a bitset
        /// word boundary, where a row spans several words: same
        /// dispatches as a fresh scan per round, structure intact every
        /// round.
        #[test]
        fn carried_graph_equals_a_fresh_scan_every_round(
            m_in in 1usize..=4,
            m_out in 0usize..CARRIED_WIDTHS.len(),
            kind in 0usize..3,
            seed in 0u64..1 << 32,
            phases in proptest::collection::vec(
                prop_oneof![(1u64..=6, 20u32..=90), (5u64..=150, 0u32..=1)],
                1..8,
            ),
        ) {
            let kind = [Shape::Uniform, Shape::OneHotCell, Shape::Zipf][kind];
            check_against_the_scan((m_in, CARRIED_WIDTHS[m_out]), kind, &phases, seed);
        }
    }

    /// Output counts on both sides of each bitset word boundary, up to
    /// the widest switch `serve` admits (`fss_trace::MAX_PORTS`).
    const WIDTHS: [usize; 10] = [1, 63, 64, 65, 127, 128, 129, 150, 2047, 2048];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The word-at-a-time BFS against the reference Hopcroft–Karp
        /// over the multigraph itself, which `MaxCardRound` and
        /// `ExactCore` cannot give each other (they share `Support`).
        /// Each graph puts `flows` flows, in random order, on `cells`
        /// random cells, so parallel edges abound; one `Support` matches
        /// the case's graphs one after another, so `clear` must forget
        /// each.
        #[test]
        fn support_matches_the_reference_hopcroft_karp_across_word_boundaries(
            m_in in 1usize..=70,
            width in 0usize..WIDTHS.len(),
            graphs in proptest::collection::vec(
                (0u64..1 << 32, 1usize..=300, 0usize..=900),
                1..=4,
            ),
        ) {
            let m_out = WIDTHS[width];
            let mut support = Support::new(m_in, m_out);
            let mut got = Vec::new();
            for (seed, cells, flows) in graphs {
                let mut rng = SmallRng::seed_from_u64(seed);
                let cells: Vec<(u32, u32)> = (0..cells)
                    .map(|_| (rng.gen_range(0..m_in as u32), rng.gen_range(0..m_out as u32)))
                    .collect();
                let mut g = BipartiteGraph::new(m_in, m_out);
                support.clear();
                for k in 0..flows {
                    let (u, v) = cells[rng.gen_range(0..cells.len())];
                    g.add_edge(u, v);
                    support.first_occurrence(u as usize * m_out + v as usize, k as u32);
                }
                support.select_into(&mut got);
                let mut want = max_cardinality_matching(&g);
                want.sort_unstable();
                prop_assert_eq!(&got, &want, "{} x {}, {} flows", m_in, m_out, flows);
            }
        }
    }

    #[test]
    #[should_panic(expected = "past 4294967295, the largest id the engine addresses")]
    fn an_id_past_u32_ends_the_run() {
        let mut core = MaxCardRound::new(2, 2);
        core.push(Arrival {
            id: 1 << 32,
            src: 0,
            dst: 1,
            release: 0,
        });
    }

    /// A core over a 2 x 2 switch holding one flow per entry of `cells`,
    /// in order; flow `j` is waiting index `j`.
    fn holding(cells: &[u32]) -> MaxCardRound {
        let mut core = MaxCardRound::new(2, 2);
        for (id, &cell) in cells.iter().enumerate() {
            core.push(Arrival {
                id: id as u64,
                src: cell / 2,
                dst: cell % 2,
                release: 0,
            });
        }
        core.verify();
        core
    }

    /// Dispatch `cells[k]`'s head `k` and retire it, then check the
    /// structure, the nodes the relocation walked, and the list of the
    /// last flow's cell, which the relocation put on index `k`.
    fn retire_head(cells: &[u32], k: u32, walked: u64, list: &[u32]) {
        let mut core = holding(cells);
        let last = core.waiting.len() - 1;
        let cell = cells[last] as usize;
        core.unlink_head(k);
        core.relocate_last(k);
        core.verify();
        assert_eq!(core.walk_nodes, walked, "nodes walked");
        assert_eq!(
            core.waiting[k as usize].id as usize, last,
            "flow on index {k}"
        );
        let mut got = Vec::new();
        let mut j = core.support.head[cell];
        while j != NIL {
            got.push(j);
            j = core.waiting[j as usize].next;
        }
        assert_eq!(got, list, "cell {cell}'s list");
    }

    #[test]
    fn a_relocated_flow_alone_in_its_cell_is_its_head() {
        retire_head(&[0, 1], 0, 0, &[0]);
    }

    #[test]
    fn a_relocated_flow_below_its_cells_head_becomes_the_head() {
        retire_head(&[0, 1, 1], 0, 0, &[0, 1]);
    }

    #[test]
    fn a_relocated_flow_lands_mid_list_past_the_flows_below_it() {
        retire_head(&[1, 1, 0, 1, 1], 2, 1, &[0, 1, 2, 3]);
    }

    #[test]
    fn a_relocated_flow_above_its_cells_flows_is_the_tail() {
        retire_head(&[1, 1, 0, 1], 2, 1, &[0, 1, 2]);
    }

    #[test]
    fn a_relocated_flow_of_the_dispatched_cell_leads_it() {
        retire_head(&[1, 0, 0, 0], 1, 0, &[1, 2]);
    }

    #[test]
    fn waiting_indices_stop_below_nil() {
        assert_eq!(waiting_index(0), 0);
        assert_eq!(waiting_index(NIL as usize - 1), NIL - 1);
    }

    #[test]
    #[should_panic(expected = "waiting index 4294967295: exact MaxCard holds at most 4294967295")]
    fn the_nil_index_is_refused() {
        waiting_index(NIL as usize);
    }

    #[test]
    #[should_panic(expected = "waiting index 4294967296: exact MaxCard holds at most 4294967295")]
    fn an_index_past_u32_is_refused_not_truncated() {
        waiting_index(NIL as usize + 1);
    }

    /// The core, counting from outside what `maxcard_walk_nodes` should
    /// read: when the last flow moves onto a retired index `k`, its
    /// cell's other flows below `k` past the first (the ones
    /// `relocate_last` passes after the head), replaying the descending
    /// `swap_remove`s on a copy of the cells.
    struct Departures<'a> {
        core: MaxCardRound,
        walked: &'a mut u64,
    }

    impl RoundCore for Departures<'_> {
        fn push(&mut self, a: Arrival) {
            self.core.push(a);
        }
        fn backlog(&self) -> usize {
            self.core.backlog()
        }
        fn select(&mut self, t: u64) {
            self.core.select(t);
        }
        fn dispatch(&mut self, emit: impl FnMut(u64, u64)) -> usize {
            self.core.dispatch(emit)
        }
        fn retire(&mut self) {
            let mut cells: Vec<u32> = self.core.waiting.iter().map(|w| w.cell).collect();
            for &k in self.core.selection.iter().rev() {
                let last = cells.pop().expect("a retired flow waits");
                if k < cells.len() {
                    let below = cells[..k].iter().filter(|&&c| c == last).count();
                    *self.walked += below.saturating_sub(1) as u64;
                    cells[k] = last;
                }
            }
            self.core.retire();
        }
        fn finish(&self, tele: &mut EngineTelemetry) {
            self.core.finish(tele);
        }
    }

    #[test]
    fn finish_reports_the_nodes_the_relocations_walk() {
        let flows = arrivals((2, 2), Shape::Uniform, &[(2, 100), (5, 0)], 3);
        let source = List {
            m_in: 2,
            m_out: 2,
            arrivals: flows.into_iter(),
        };
        let mut tele = EngineTelemetry::enabled();
        let mut counted = 0;
        let core = Departures {
            core: MaxCardRound::new(2, 2),
            walked: &mut counted,
        };
        drive(source, core, &mut tele, |_, _, _| {});
        let walked = tele.snapshot().counter("maxcard_walk_nodes");
        assert_eq!(walked, Some(counted));
        assert!(counted > 0);
    }

    /// Both owners of a `Support` report its work, and on the same
    /// graphs (an empty plan masks nothing) they report the same counts.
    #[test]
    fn the_carried_graph_and_the_scan_count_the_same_hk_work() {
        fn hk_work<C: RoundCore>(flows: Vec<Arrival>, core: C) -> [u64; 4] {
            let source = List {
                m_in: 5,
                m_out: 70,
                arrivals: flows.into_iter(),
            };
            let mut tele = EngineTelemetry::enabled();
            drive(source, core, &mut tele, |_, _, _| {});
            let snap = tele.snapshot();
            ["hk_phases", "bfs_rows", "bfs_words", "dfs_tries"]
                .map(|name| snap.counter(&format!("maxcard_{name}")).unwrap_or(0))
        }
        let flows = arrivals((5, 70), Shape::Zipf, &[(3, 400), (40, 2)], 5);
        let plan = FailurePlan::default();
        let carried = hk_work(flows.clone(), MaxCardRound::new(5, 70));
        let scanned = hk_work(
            flows,
            ExactRound::new(5, 70, Selector::MaxCard, Some(&plan), false),
        );
        assert_eq!(carried, scanned);
        let [phases, rows, words, tries] = carried;
        assert!(phases > 0 && rows > 0 && tries > 0);
        assert_eq!(words, 2 * rows, "70 outputs are two words a row");
    }
}
