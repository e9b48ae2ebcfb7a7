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
//! intrusive list through the waiting vector, so an arrival, a dispatched
//! head's removal and the `swap_remove` relocation of the last flow each
//! repair `head` and one bit in O(1) plus one walk of the dispatched
//! cell. The waiting vector keeps the reference discipline position for
//! position (append in `(release, id)` order, descending-index
//! `swap_remove`), so `head[cell]` is the index the scan would have found
//! and schedules stay bit-identical to [`crate::exact`]'s scan-driven
//! MaxCard, which remains the path under a `FailurePlan` and the
//! reference the differential tests hold this core to.
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
//! cost a search and a rotation per departure, most of a linked round.
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

use crate::engine_id;
use crate::source::Arrival;
use crate::stream::RoundCore;
use fss_matching::bitset::{self, ones, BitRows};
use fss_telemetry::EngineTelemetry;

const NIL: u32 = u32::MAX;
const INF: u32 = u32::MAX;

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
        while self.bfs() {
            for u in 0..self.m_in {
                if self.match_l[u] == NIL {
                    self.dfs(u);
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

/// Backlog per port up to which a round rebuilds the support by a scan
/// instead of maintaining it. Maintenance is paid per flow moved, the
/// scan per flow waiting. First measured at m = 150, M = 4m (backlog
/// ~52 000, the waiting vector past L2): ~40 ns per arrival and ~210 ns
/// per departure against ~3.3 ns per scanned flow; at m = 20 (all of it
/// in L1/L2): ~38 ns over a flow's life against ~0.3 ns. The two broke
/// even at a backlog of ~750 on a 20 x 20 switch and ~5 000 on 150 x 150,
/// 16–19 per port on both. Far under the line (m = 20, rate 18, backlog
/// ~120) maintaining every round ran the engine 25 % slower than
/// scanning every round (0.976 vs 0.782 s for 5.4M flows). Since a
/// departure only resets its cell's head (no row is kept sorted), the
/// m = 150 cell reads ~42 ns per departure (~245 ns with sorted rows, in
/// the same pass) and ~21 ns per arrival (traced retire and ingest
/// stages, seed 1, 2-thread Xeon VM). That puts the m = 150 break-even near ~1 300
/// waiting flows, ~4 per port; the m = 20 side is not re-measured, so
/// the line stays where both sides agreed.
const SCAN_BACKLOG_PER_PORT: usize = 16;

/// One waiting flow: 24 bytes, as `fss_online::WaitingFlow` — the links
/// take the place of its padding and of the ports folded into `cell`, so
/// a run's peak heap (3.0 of 3.1 MiB is this vector at m = 150, M = 4m)
/// does not pay for them.
#[derive(Clone, Copy)]
struct Waiting {
    release: u64,
    id: u32,
    cell: u32,
    /// Neighbours on the cell's list; meaningful only while
    /// [`MaxCardRound::linked`]. The head leads its list; behind it the
    /// list is unordered.
    prev: u32,
    next: u32,
}

const _: () = assert!(std::mem::size_of::<Waiting>() == 24);

/// Exact MaxCard without a failure plan, as the round loop drives it.
pub(crate) struct MaxCardRound {
    /// Reference-ordered waiting vector (the parity-critical structure).
    waiting: Vec<Waiting>,
    support: Support,
    /// Whether `support` and the links are current. While false a round
    /// rebuilds the support by scanning and nothing repairs it.
    linked: bool,
    /// This round's selection (sorted waiting indices).
    selection: Vec<usize>,
    rounds_linked: u64,
    rounds_scanned: u64,
    /// Flows retired while linked, each one list repair.
    departures_linked: u64,
    /// List nodes `unlink_head` read past a dispatched head's successor
    /// to find the cell's new head.
    walk_nodes: u64,
}

impl MaxCardRound {
    pub(crate) fn new(m_in: usize, m_out: usize) -> MaxCardRound {
        MaxCardRound {
            waiting: Vec::new(),
            support: Support::new(m_in, m_out),
            linked: false,
            selection: Vec::new(),
            rounds_linked: 0,
            rounds_scanned: 0,
            departures_linked: 0,
            walk_nodes: 0,
        }
    }

    /// Thread `waiting[k]` onto its cell's list. `k` exceeds every index
    /// already threaded, so it never becomes the head of a nonempty
    /// cell.
    fn link(&mut self, k: u32) {
        let cell = self.waiting[k as usize].cell as usize;
        let (prev, next) = if self.support.first_occurrence(cell, k) {
            (NIL, NIL)
        } else {
            let head = self.support.head[cell];
            let next = std::mem::replace(&mut self.waiting[head as usize].next, k);
            if next != NIL {
                self.waiting[next as usize].prev = k;
            }
            (head, next)
        };
        let w = &mut self.waiting[k as usize];
        (w.prev, w.next) = (prev, next);
    }

    /// Rebuild the support from the waiting vector, and the links too
    /// when the round is going to maintain them.
    fn rescan(&mut self, link: bool) {
        self.support.clear();
        if link {
            for k in 0..self.waiting.len() as u32 {
                self.link(k);
            }
        } else {
            for (k, w) in self.waiting.iter().enumerate() {
                self.support.first_occurrence(w.cell as usize, k as u32);
            }
        }
    }

    /// Take `k`, not the first of its list, out of it and put it in front
    /// of `first`, the current first.
    fn move_to_front(&mut self, k: u32, first: u32) {
        let Waiting { prev, next, .. } = self.waiting[k as usize];
        self.waiting[prev as usize].next = next;
        if next != NIL {
            self.waiting[next as usize].prev = prev;
        }
        self.waiting[first as usize].prev = k;
        let w = &mut self.waiting[k as usize];
        (w.prev, w.next) = (NIL, first);
    }

    /// Take the dispatched head `k` off its cell and settle the cell's
    /// new head: the smallest index left on the list, found by the one
    /// walk a dispatched cell costs (cells of a matching are distinct, so
    /// a round walks at most the backlog).
    fn unlink_head(&mut self, k: u32) {
        let Waiting { cell, next, .. } = self.waiting[k as usize];
        let cell = cell as usize;
        debug_assert_eq!(self.support.head[cell], k);
        if next == NIL {
            self.support.remove(cell);
            return;
        }
        let mut min = next;
        let mut j = self.waiting[next as usize].next;
        while j != NIL {
            self.walk_nodes += 1;
            min = min.min(j);
            j = self.waiting[j as usize].next;
        }
        self.waiting[next as usize].prev = NIL;
        if min != next {
            self.move_to_front(min, next);
        }
        self.support.head[cell] = min;
    }

    /// `swap_remove(k)` for an already unlinked `k`: the last flow lands
    /// on `k`, its neighbours follow it, and if `k` is now below its
    /// cell's head it becomes the head.
    fn relocate_last(&mut self, k: u32) {
        self.waiting.swap_remove(k as usize);
        let Some(&Waiting {
            cell, prev, next, ..
        }) = self.waiting.get(k as usize)
        else {
            return;
        };
        let cell = cell as usize;
        if next != NIL {
            self.waiting[next as usize].prev = k;
        }
        if prev != NIL {
            self.waiting[prev as usize].next = k;
            let head = self.support.head[cell];
            if head < k {
                return;
            }
            self.move_to_front(k, head);
        }
        self.support.head[cell] = k;
    }

    /// Panic unless the maintained structure describes the waiting
    /// vector: every nonempty cell's `head` is the minimum of its list,
    /// `prev`/`next` agree, every waiting index is on exactly one list,
    /// and each row's bitset holds exactly its nonempty cells. Nothing to
    /// check while rounds scan.
    #[cfg(any(test, debug_assertions))]
    fn verify(&self) {
        if !self.linked {
            return;
        }
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
                assert_eq!(w.prev, prev, "prev of {k} disagrees with next of {prev}");
                assert!(!on_a_list[k as usize], "flow {k} is on two lists");
                on_a_list[k as usize] = true;
                (prev, k) = (k, w.next);
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
        let k = self.waiting.len() as u32;
        self.waiting.push(Waiting {
            release: a.release,
            id: engine_id(a.id),
            cell: a.src * m_out as u32 + a.dst,
            prev: NIL,
            next: NIL,
        });
        if self.linked {
            self.link(k);
        }
    }

    fn backlog(&self) -> usize {
        self.waiting.len()
    }

    fn select(&mut self, _t: u64) {
        let ports = self.support.m_in + self.support.m_out;
        let link = self.waiting.len() > SCAN_BACKLOG_PER_PORT * ports;
        if !self.linked {
            self.rescan(link);
        }
        // Dropping under the line is free: this round still reads the
        // maintained support, and `retire` stops repairing it. A debug
        // build checks the structure once per linked stretch, here.
        #[cfg(debug_assertions)]
        if !link {
            self.verify();
        }
        self.linked = link;
        if link {
            self.rounds_linked += 1;
        } else {
            self.rounds_scanned += 1;
        }
        self.support.select_into(&mut self.selection);
    }

    fn dispatch(&mut self, mut emit: impl FnMut(u64, u64)) -> usize {
        for &k in &self.selection {
            let w = &self.waiting[k];
            emit(u64::from(w.id), w.release);
        }
        self.selection.len()
    }

    /// The reference runner's descending-index `swap_remove`, plus —
    /// while linked — the repairs each one calls for, finished before
    /// the next index.
    fn retire(&mut self) {
        for i in (0..self.selection.len()).rev() {
            let k = self.selection[i];
            if self.linked {
                self.departures_linked += 1;
                self.unlink_head(k as u32);
                self.relocate_last(k as u32);
            } else {
                self.waiting.swap_remove(k);
            }
        }
    }

    fn finish(&self, tele: &mut EngineTelemetry) {
        tele.counter_add("maxcard_rounds_linked", self.rounds_linked);
        tele.counter_add("maxcard_rounds_scanned", self.rounds_scanned);
        tele.counter_add("maxcard_departures_linked", self.departures_linked);
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
    /// every round, counting the times it went `[scanned, linked]`.
    struct Checked<'a> {
        core: MaxCardRound,
        crossings: &'a mut [u32; 2],
    }

    impl RoundCore for Checked<'_> {
        fn push(&mut self, a: Arrival) {
            self.core.push(a);
        }
        fn backlog(&self) -> usize {
            self.core.backlog()
        }
        fn select(&mut self, t: u64) {
            self.core.verify();
            let was = self.core.linked;
            self.core.select(t);
            self.core.verify();
            if was != self.core.linked {
                self.crossings[usize::from(self.core.linked)] += 1;
            }
        }
        fn dispatch(&mut self, emit: impl FnMut(u64, u64)) -> usize {
            self.core.dispatch(emit)
        }
        fn retire(&mut self) {
            self.core.retire();
            self.core.verify();
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
    /// scan core under an empty plan; returns the `[down, up]` crossings.
    fn check_against_the_scan(
        (m_in, m_out): (usize, usize),
        shape: Shape,
        phases: &[(u64, u32)],
        seed: u64,
    ) -> [u32; 2] {
        let flows = arrivals((m_in, m_out), shape, phases, seed);
        let mut crossings = [0; 2];
        let checked = Checked {
            core: MaxCardRound::new(m_in, m_out),
            crossings: &mut crossings,
        };
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
        crossings
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Bursts that lift the backlog over the scan line and lulls
        /// that drain it, on small rectangular switches: same dispatches
        /// as a fresh scan per round, structure intact every round.
        #[test]
        fn carried_graph_equals_a_fresh_scan_every_round(
            shape in (1usize..=4, 1usize..=4),
            kind in 0usize..3,
            seed in 0u64..1 << 32,
            phases in proptest::collection::vec(
                prop_oneof![(1u64..=6, 20u32..=90), (5u64..=150, 0u32..=1)],
                1..8,
            ),
        ) {
            let kind = [Shape::Uniform, Shape::OneHotCell, Shape::Zipf][kind];
            check_against_the_scan(shape, kind, &phases, seed);
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
    fn the_backlog_crosses_the_line_both_ways_several_times() {
        // 3 x 2 puts the line at 80 flows; each burst lands 240, a
        // trickle keeps arrivals coming while linked, and the silence
        // after it is long enough to drain one cell one flow a round.
        let phases: Vec<(u64, u32)> = (0..4).flat_map(|_| [(4, 60), (100, 1), (350, 0)]).collect();
        for shape in [Shape::Uniform, Shape::OneHotCell, Shape::Zipf] {
            let [down, up] = check_against_the_scan((3, 2), shape, &phases, 7);
            assert!(up >= 3 && down >= 3, "{shape:?}: {up} up, {down} down");
        }
        // 1 x 1: one cell, one list, the line at 32.
        let [down, up] = check_against_the_scan((1, 1), Shape::Uniform, &phases, 7);
        assert!(up >= 3 && down >= 3, "1 x 1: {up} up, {down} down");
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

    /// The core, counting from outside what its departure counters
    /// should read: `[retired, walked]`, each flow retired while linked,
    /// and the flows of its cell past the head and the head's successor
    /// (the ones `unlink_head` walks).
    struct Departures<'a> {
        core: MaxCardRound,
        counts: &'a mut [u64; 2],
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
            if self.core.linked {
                for &k in &self.core.selection {
                    let cell = self.core.waiting[k].cell;
                    let flows = self.core.waiting.iter().filter(|w| w.cell == cell).count();
                    self.counts[0] += 1;
                    self.counts[1] += flows.saturating_sub(2) as u64;
                }
            }
            self.core.retire();
        }
        fn finish(&self, tele: &mut EngineTelemetry) {
            self.core.finish(tele);
        }
    }

    #[test]
    fn finish_reports_the_rounds_on_each_side() {
        let flows = arrivals((2, 2), Shape::Uniform, &[(2, 100), (5, 0)], 3);
        let source = List {
            m_in: 2,
            m_out: 2,
            arrivals: flows.into_iter(),
        };
        let mut tele = EngineTelemetry::enabled();
        let mut counts = [0; 2];
        let counted = Departures {
            core: MaxCardRound::new(2, 2),
            counts: &mut counts,
        };
        let stats = drive(source, counted, &mut tele, |_, _, _| {});
        let snap = tele.snapshot();
        let [linked, scanned, departures, walked] = [
            "rounds_linked",
            "rounds_scanned",
            "departures_linked",
            "walk_nodes",
        ]
        .map(|name| snap.counter(&format!("maxcard_{name}")).unwrap_or(0));
        assert!(
            linked > 0 && scanned > 0,
            "{linked} linked, {scanned} scanned"
        );
        assert_eq!(linked + scanned, stats.active_rounds);
        assert_eq!([departures, walked], counts);
        assert!(
            departures > 0 && departures < stats.dispatched,
            "{departures} of {} retired while linked",
            stats.dispatched
        );
        assert!(walked > 0);
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
