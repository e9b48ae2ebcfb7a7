//! Incremental maximum matching over the *support graph*.
//!
//! The waiting multigraph `G_t` can hold tens of thousands of parallel
//! edges at `M = 4m`, but its *support* — the set of `(input, output)`
//! cells with at least one waiting flow — is at most `m_in * m_out` and
//! changes sparsely: a round adds support edges only for cells that were
//! empty and removes only cells that drained to zero. [`IncrementalMatcher`]
//! keeps a maximum matching of the support graph across rounds and repairs
//! it with augmenting-path searches rooted at the exposed (dirtied) ports
//! only, instead of re-running Hopcroft–Karp from a cold start each round.
//!
//! Correctness leans on two classical facts: (1) by Berge's lemma a
//! matching is maximum iff no augmenting path exists, so repairing any
//! inherited matching to path-freeness restores maximality regardless of
//! history; and (2) within one repair pass, a free vertex with no
//! augmenting path now cannot gain one after other augmentations (the
//! standard Kuhn's-algorithm lemma), so a single pass over exposed ports
//! suffices. A support change can alter the matching size by at most one
//! edge's worth per insertion/deletion, which is why the repair work
//! tracks the *churn*, not the queue size.
//!
//! ## Representation and search order
//!
//! The support is one bitset row per input port (`ceil(m_out / 64)`
//! words), with one more bitset for the free columns and one for the
//! columns a repair pass has visited, so a support change is a bit flip
//! and a search step is a few word operations: `adj[row] & free` first
//! (a free neighbour ends the search), `adj[row] & !visited` to descend.
//! Nothing is allocated after [`IncrementalMatcher::new`], bar the stamp
//! renumbering below.
//!
//! Any maximum matching is a valid round, but which one decides who
//! waits. Every support edge carries the stamp of the moment its cell
//! became occupied, and among the candidate columns of a step the
//! **oldest stamp** goes first: an exposed port is matched through the
//! cell of its row that has been occupied longest. Taking the lowest
//! column index instead is no faster and starves old cells
//! (`tests/incremental_quality.rs` holds the line). Stamps are `u32`s
//! from one counter; when it runs out the live edges are renumbered
//! `1..` in stamp order, so an endless stream never aliases an old stamp
//! with a new one.

/// Sentinel for "unmatched".
const NIL: u32 = u32::MAX;

/// The column with the smallest stamp among the set bits of `words`
/// (`stamps` is the row's slice of the stamp grid; stamps are unique).
#[inline]
fn oldest(stamps: &[u32], words: impl Iterator<Item = u64>) -> Option<u32> {
    // Live stamps stay below `u32::MAX` (see `add_support_edge`).
    let (mut best, mut col) = (u32::MAX, NIL);
    for (wi, mut word) in words.enumerate() {
        while word != 0 {
            let q = wi * 64 + word.trailing_zeros() as usize;
            word &= word - 1;
            if stamps[q] < best {
                (best, col) = (stamps[q], q as u32);
            }
        }
    }
    (col != NIL).then_some(col)
}

/// The valid bits of a row's last word (partial unless 64 divides
/// `m_out`).
#[inline]
fn tail_mask(m_out: usize) -> u64 {
    !0 >> ((64 - m_out % 64) % 64)
}

/// Dynamic maximum bipartite matching with incremental repair.
#[derive(Debug)]
pub struct IncrementalMatcher {
    m_in: usize,
    m_out: usize,
    /// Words per bitset: `ceil(m_out / 64)`.
    nw: usize,
    /// Support adjacency, `nw` words a row: bit `q` of row `p` is set
    /// while cell `(p, q)` holds a waiting flow.
    adj: Vec<u64>,
    /// Set bits per row of `adj`.
    deg: Vec<u32>,
    /// Arrival stamp per cell, read only while the cell's bit is set: a
    /// search tries the columns of a row oldest support edge first.
    stamp: Vec<u32>,
    /// The next stamp to hand out; `u32::MAX` is never handed out.
    next_stamp: u32,
    match_l: Vec<u32>,
    match_r: Vec<u32>,
    /// Columns with `match_r == NIL`.
    free: Vec<u64>,
    size: usize,
    /// Support changed since the last [`IncrementalMatcher::repair`]?
    dirty: bool,
    // --- search scratch (reused across searches; no allocation) ---
    /// Matched columns entered since the matching last changed: none of
    /// them leads to a free column.
    visited: Vec<u64>,
    /// The `(row, column)` steps of the alternating path being tried.
    stack: Vec<(u32, u32)>,
    /// Augmenting-path searches launched (telemetry).
    searches: u64,
    /// Searches that found a path and grew the matching (telemetry).
    augmentations: u64,
}

impl IncrementalMatcher {
    /// Empty matcher over an `m_in x m_out` port grid.
    pub fn new(m_in: usize, m_out: usize) -> IncrementalMatcher {
        let nw = m_out.div_ceil(64);
        let mut free = vec![!0; nw];
        if let Some(last) = free.last_mut() {
            *last = tail_mask(m_out);
        }
        IncrementalMatcher {
            m_in,
            m_out,
            nw,
            adj: vec![0; m_in * nw],
            deg: vec![0; m_in],
            stamp: vec![0; m_in * m_out],
            next_stamp: 1,
            match_l: vec![NIL; m_in],
            match_r: vec![NIL; m_out],
            free,
            size: 0,
            dirty: false,
            visited: vec![0; nw],
            // A path enters each matched column at most once.
            stack: Vec::with_capacity(m_in.min(m_out)),
            searches: 0,
            augmentations: 0,
        }
    }

    /// Lifetime work counters: `(searches, augmentations)` — DFS
    /// launches and the subset that grew the matching. Cheap enough to
    /// maintain unconditionally; surfaced through engine telemetry.
    pub fn work(&self) -> (u64, u64) {
        (self.searches, self.augmentations)
    }

    /// Current matching size.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Matched output port of input `p`, if any.
    #[inline]
    pub fn matched_output(&self, p: u32) -> Option<u32> {
        let q = self.match_l[p as usize];
        (q != NIL).then_some(q)
    }

    /// Is `(p, q)` a support edge?
    #[inline]
    fn has_edge(&self, p: u32, q: u32) -> bool {
        (self.adj[p as usize * self.nw + q as usize / 64] >> (q % 64)) & 1 == 1
    }

    /// A support edge `(p, q)` appeared (its cell went 0 → 1 flows).
    pub fn add_support_edge(&mut self, p: u32, q: u32) {
        debug_assert!(!self.has_edge(p, q), "edge added twice");
        let (pu, qu) = (p as usize, q as usize);
        let (word, bit) = (pu * self.nw + qu / 64, 1u64 << (qu % 64));
        if self.next_stamp == u32::MAX {
            self.renumber_stamps();
        }
        self.adj[word] |= bit;
        self.deg[pu] += 1;
        self.stamp[pu * self.m_out + qu] = self.next_stamp;
        self.next_stamp += 1;
        self.dirty = true;
    }

    /// The stamp counter ran out (an endless stream, once per 4 billion
    /// support edges): renumber the live edges `1..` in stamp order, so
    /// that old and new stamps never alias. The one allocation after
    /// [`IncrementalMatcher::new`].
    #[cold]
    fn renumber_stamps(&mut self) {
        let mut live: Vec<usize> = (0..self.m_in * self.m_out)
            .filter(|cell| self.has_edge((cell / self.m_out) as u32, (cell % self.m_out) as u32))
            .collect();
        live.sort_unstable_by_key(|&cell| self.stamp[cell]);
        self.next_stamp = 1;
        for cell in live {
            self.stamp[cell] = self.next_stamp;
            self.next_stamp += 1;
        }
    }

    /// A support edge `(p, q)` vanished (its cell drained to 0 flows).
    /// If it carried the matching, the endpoints become exposed and the
    /// next [`IncrementalMatcher::repair`] re-augments from them.
    pub fn remove_support_edge(&mut self, p: u32, q: u32) {
        debug_assert!(self.has_edge(p, q), "removing an absent edge");
        let (pu, qu) = (p as usize, q as usize);
        let (word, bit) = (pu * self.nw + qu / 64, 1u64 << (qu % 64));
        self.adj[word] &= !bit;
        self.deg[pu] -= 1;
        if self.match_l[pu] == q {
            self.match_l[pu] = NIL;
            self.match_r[qu] = NIL;
            self.free[qu / 64] |= bit;
            self.size -= 1;
            // Only losing a *matched* edge can make the matching
            // non-maximum; deleting an unmatched edge never creates an
            // augmenting path, so it does not dirty the matching.
            self.dirty = true;
        }
    }

    /// Restore maximality after a batch of support changes: one Kuhn's
    /// pass of augmenting-path DFS from each exposed input port. No-op
    /// when the support is unchanged since the last repair (the common
    /// steady-state round).
    pub fn repair(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        self.augment_exposed();
        #[cfg(debug_assertions)]
        self.check_cover();
    }

    /// The repair pass proper.
    fn augment_exposed(&mut self) {
        if self.size == self.m_in.min(self.m_out) {
            return; // perfect on the smaller side; nothing to gain
        }
        self.visited.fill(0);
        for p in 0..self.m_in {
            if self.match_l[p] == NIL && self.deg[p] != 0 {
                self.searches += 1;
                if self.try_augment(p) {
                    // A column that led nowhere still leads nowhere until
                    // the matching changes: `visited` outlives a failed
                    // search, not a successful one.
                    self.visited.fill(0);
                    self.augmentations += 1;
                    self.size += 1;
                    if self.size == self.m_in.min(self.m_out) {
                        return;
                    }
                }
            }
        }
    }

    /// DFS for an augmenting path from exposed input `p` (iterative, with
    /// an explicit stack; `m` can be large). A free neighbour of the
    /// current row ends the search at once; otherwise it descends through
    /// the row's unvisited columns. Either way the oldest support edge of
    /// the row goes first, so the cell that has waited longest is the one
    /// an exposed port gets matched through.
    fn try_augment(&mut self, p: usize) -> bool {
        let (nw, m_out) = (self.nw, self.m_out);
        let Self {
            adj,
            stamp,
            match_l,
            match_r,
            free,
            visited,
            stack,
            ..
        } = self;
        stack.clear();
        let mut row = p;
        loop {
            let bits = &adj[row * nw..][..nw];
            let stamps = &stamp[row * m_out..][..m_out];
            if let Some(q) = oldest(stamps, bits.iter().zip(free.iter()).map(|(a, f)| a & f)) {
                // Flip the path: `row` takes `q`, each row below takes the
                // column it was left through.
                free[q as usize / 64] &= !(1 << (q % 64));
                let (mut row, mut col) = (row as u32, q);
                loop {
                    match_l[row as usize] = col;
                    match_r[col as usize] = row;
                    match stack.pop() {
                        Some(step) => (row, col) = step,
                        None => return true,
                    }
                }
            }
            let unvisited = bits.iter().zip(visited.iter()).map(|(a, v)| a & !v);
            if let Some(q) = oldest(stamps, unvisited) {
                visited[q as usize / 64] |= 1 << (q % 64);
                stack.push((row as u32, q));
                row = match_r[q as usize] as usize;
            } else if let Some((back, _)) = stack.pop() {
                row = back as usize;
            } else {
                return false;
            }
        }
    }

    /// König's certificate that the repaired matching is maximum: the
    /// rows an alternating path from a free row reaches, and the columns
    /// it reaches, give a vertex cover — the unreached rows plus the
    /// reached columns — of the matching's size.
    #[cfg(debug_assertions)]
    fn check_cover(&self) {
        let nw = self.nw;
        let matched = self.match_l.iter().enumerate().filter(|&(_, &q)| q != NIL);
        for (p, &q) in matched.clone() {
            assert_eq!(self.match_r[q as usize], p as u32, "column {q}");
            assert!(
                self.has_edge(p as u32, q),
                "row {p} is matched off the support"
            );
        }
        assert_eq!(matched.count(), self.size, "the matching's size is stale");
        // Alternating BFS from every free row: a row's support edges lead
        // to columns, a matched column back to its row.
        let mut row_seen: Vec<bool> = self.match_l.iter().map(|&q| q == NIL).collect();
        let mut reached_rows: Vec<usize> = (0..self.m_in).filter(|&p| row_seen[p]).collect();
        let mut col_seen = vec![0u64; nw];
        let mut next = 0;
        while let Some(&p) = reached_rows.get(next) {
            next += 1;
            for (w, (&a, seen)) in self.adj[p * nw..][..nw]
                .iter()
                .zip(&mut col_seen)
                .enumerate()
            {
                let mut new = a & !*seen;
                *seen |= a;
                while new != 0 {
                    let q = w * 64 + new.trailing_zeros() as usize;
                    new &= new - 1;
                    let r = self.match_r[q];
                    assert_ne!(r, NIL, "reached column {q} is free");
                    if !std::mem::replace(&mut row_seen[r as usize], true) {
                        reached_rows.push(r as usize);
                    }
                }
            }
        }
        for &p in &reached_rows {
            let row = &self.adj[p * nw..][..nw];
            assert!(
                row.iter().zip(&col_seen).all(|(a, seen)| a & !seen == 0),
                "reached row {p} has an unreached column"
            );
        }
        let reached_cols: u32 = col_seen.iter().map(|w| w.count_ones()).sum();
        assert_eq!(
            self.m_in - reached_rows.len() + reached_cols as usize,
            self.size,
            "the cover is larger than the matching"
        );
    }

    /// Debug-check: the stored matching is consistent and lies in the
    /// support, and the bitsets say what the arrays say.
    #[cfg(test)]
    fn check_invariants(&self) {
        let mut size = 0;
        for p in 0..self.m_in {
            let q = self.match_l[p];
            if q != NIL {
                assert_eq!(self.match_r[q as usize], p as u32);
                assert!(self.has_edge(p as u32, q), "matched off the support");
                size += 1;
            }
            let row = &self.adj[p * self.nw..][..self.nw];
            let ones: u32 = row.iter().map(|w| w.count_ones()).sum();
            assert_eq!(self.deg[p], ones, "degree of row {p} is stale");
        }
        assert_eq!(size, self.size);
        for q in 0..self.m_out {
            assert_eq!(
                (self.free[q / 64] >> (q % 64)) & 1 == 1,
                self.match_r[q] == NIL,
                "free bit {q} is stale"
            );
        }
        let pad = !tail_mask(self.m_out);
        let rows = self.adj.chunks(self.nw);
        assert!(
            rows.chain([&self.free[..], &self.visited[..]])
                .all(|row| row[self.nw - 1] & pad == 0),
            "a bitset has bits past column {}",
            self.m_out
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fss_matching::{max_cardinality_matching, BipartiteGraph};
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// The support edges, row by row.
    fn support(m: &IncrementalMatcher) -> Vec<(u32, u32)> {
        let cells = (0..m.m_in as u32).flat_map(|p| (0..m.m_out as u32).map(move |q| (p, q)));
        cells.filter(|&(p, q)| m.has_edge(p, q)).collect()
    }

    /// Brute-force maximum matching over the current support.
    fn brute_max(m: &IncrementalMatcher) -> usize {
        fn rec(edges: &[(u32, u32)], i: usize, ul: u64, ur: u64) -> usize {
            if i == edges.len() {
                return 0;
            }
            let (p, q) = edges[i];
            let skip = rec(edges, i + 1, ul, ur);
            if ul & (1 << p) == 0 && ur & (1 << q) == 0 {
                skip.max(1 + rec(edges, i + 1, ul | (1 << p), ur | (1 << q)))
            } else {
                skip
            }
        }
        rec(&support(m), 0, 0, 0)
    }

    #[test]
    fn grows_with_insertions() {
        let mut m = IncrementalMatcher::new(3, 3);
        m.add_support_edge(0, 0);
        m.repair();
        assert_eq!(m.size(), 1);
        m.add_support_edge(1, 0);
        m.add_support_edge(1, 1);
        m.repair();
        assert_eq!(m.size(), 2);
        m.check_invariants();
    }

    #[test]
    fn insertion_triggers_augmenting_path() {
        // 0-0 matched, 1 wants 0: adding (0,1) must free port 0 for 1.
        let mut m = IncrementalMatcher::new(2, 2);
        m.add_support_edge(0, 0);
        m.add_support_edge(1, 0);
        m.repair();
        assert_eq!(m.size(), 1);
        m.add_support_edge(0, 1);
        m.repair();
        assert_eq!(m.size(), 2);
        m.check_invariants();
    }

    #[test]
    fn removal_of_matched_edge_repairs() {
        let mut m = IncrementalMatcher::new(2, 2);
        m.add_support_edge(0, 0);
        m.add_support_edge(0, 1);
        m.add_support_edge(1, 0);
        m.repair();
        assert_eq!(m.size(), 2);
        // Remove whichever edge matches input 0; the matcher must recover
        // a size-2 matching via the remaining edges... unless impossible.
        let q = m.matched_output(0).unwrap();
        m.remove_support_edge(0, q);
        m.repair();
        assert_eq!(m.size(), brute_max(&m));
        m.check_invariants();
    }

    #[test]
    fn randomized_against_brute_force() {
        let mut rng = SmallRng::seed_from_u64(77);
        for trial in 0..300 {
            let m_in = rng.gen_range(1..6usize);
            let m_out = rng.gen_range(1..6usize);
            let mut m = IncrementalMatcher::new(m_in, m_out);
            let mut present: Vec<(u32, u32)> = Vec::new();
            for _step in 0..40 {
                let insert = present.is_empty() || rng.gen_bool(0.6);
                if insert {
                    let p = rng.gen_range(0..m_in as u32);
                    let q = rng.gen_range(0..m_out as u32);
                    if !present.contains(&(p, q)) {
                        present.push((p, q));
                        m.add_support_edge(p, q);
                    }
                } else {
                    let i = rng.gen_range(0..present.len());
                    let (p, q) = present.swap_remove(i);
                    m.remove_support_edge(p, q);
                }
                m.repair();
                assert_eq!(
                    m.size(),
                    brute_max(&m),
                    "trial {trial}: not maximum on support {present:?}"
                );
                m.check_invariants();
            }
        }
    }

    #[test]
    fn repair_is_noop_when_clean() {
        let mut m = IncrementalMatcher::new(2, 2);
        m.add_support_edge(0, 1);
        m.repair();
        let before = m.size();
        m.repair(); // clean: must not scan or change anything
        assert_eq!(m.size(), before);
    }

    #[test]
    fn an_exposed_row_takes_its_oldest_cell() {
        // Row 0 can take column 2 or column 0; (0, 2) has waited longer.
        let mut m = IncrementalMatcher::new(2, 3);
        m.add_support_edge(0, 2);
        m.add_support_edge(0, 0);
        m.repair();
        assert_eq!(m.matched_output(0), Some(2));
        // Row 1's only cell is on a taken column, so it must push row 0
        // off column 2; row 0 falls back to its other cell.
        m.add_support_edge(1, 2);
        m.repair();
        assert_eq!(m.matched_output(1), Some(2));
        assert_eq!(m.matched_output(0), Some(0));
        m.check_invariants();
    }

    /// Size of a maximum matching of the support, by Hopcroft–Karp.
    fn oracle_max(m: &IncrementalMatcher) -> usize {
        let mut g = BipartiteGraph::new(m.m_in, m.m_out);
        for (p, q) in support(m) {
            g.add_edge(p, q);
        }
        max_cardinality_matching(&g).len()
    }

    #[test]
    fn stamps_renumber_in_order_across_the_wrap() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut m = IncrementalMatcher::new(7, 70);
        for q in [69, 3, 64, 10] {
            m.add_support_edge(2, q);
        }
        m.add_support_edge(4, 64);
        m.repair();
        m.next_stamp = u32::MAX - 2;
        // Every later edge is younger than every edge alive now, and the
        // edges alive now keep their order, whatever the counter does.
        let mut by_age = support(&m);
        by_age.sort_by_key(|&(p, q)| m.stamp[p as usize * m.m_out + q as usize]);
        let mut wrapped = false;
        for step in 0..400 {
            let (p, q) = (rng.gen_range(0..7), rng.gen_range(0..70));
            if m.has_edge(p, q) {
                m.remove_support_edge(p, q);
                by_age.retain(|&cell| cell != (p, q));
            } else {
                let before = m.next_stamp;
                m.add_support_edge(p, q);
                wrapped |= m.next_stamp < before;
                by_age.push((p, q));
            }
            m.repair();
            m.check_invariants();
            assert_eq!(m.size(), oracle_max(&m), "step {step}");
            let stamps = by_age
                .iter()
                .map(|&(p, q)| m.stamp[p as usize * m.m_out + q as usize]);
            assert!(
                stamps.clone().zip(stamps.skip(1)).all(|(a, b)| a < b),
                "step {step}: stamps left arrival order"
            );
        }
        assert!(wrapped, "the counter never reached the wrap");
    }

    /// Shapes of the differential test: `m_out` on every side of a word
    /// boundary of the bitsets, square and rectangular both ways.
    const SHAPES: [(usize, usize); 12] = [
        (1, 1),
        (3, 5),
        (63, 63),
        (64, 64),
        (65, 65),
        (64, 20),
        (20, 65),
        (130, 130),
        (2, 130),
        (150, 150),
        (150, 7),
        (40, 150),
    ];

    /// Share of cells in the support before the first batch.
    const FILL_PCTS: [u32; 4] = [0, 5, 50, 100];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// After every `repair` of a random add / remove history the
        /// matching is as large as Hopcroft–Karp's on the same support,
        /// and the bitsets agree with the arrays.
        #[test]
        fn repair_is_maximum_on_every_word_boundary(
            shape in 0..SHAPES.len(),
            fill in 0..FILL_PCTS.len(),
            seed in 0u64..u64::MAX,
            batches in proptest::collection::vec(
                proptest::collection::vec((0u32..4, 0u32..1 << 16, 0u32..1 << 16), 1..24),
                1..16,
            ),
        ) {
            let (m_in, m_out) = SHAPES[shape];
            let mut m = IncrementalMatcher::new(m_in, m_out);
            let mut rng = SmallRng::seed_from_u64(seed);
            for p in 0..m_in as u32 {
                for q in 0..m_out as u32 {
                    if rng.gen_range(0..100u32) < FILL_PCTS[fill] {
                        m.add_support_edge(p, q);
                    }
                }
            }
            for (step, batch) in std::iter::once(&Vec::new()).chain(&batches).enumerate() {
                for &(kind, p, q) in batch {
                    let (p, q) = (p % m_in as u32, q % m_out as u32);
                    match kind {
                        // A dispatch: the matched cell of a row drains.
                        0 => {
                            if let Some(q) = m.matched_output(p) {
                                m.remove_support_edge(p, q);
                            }
                        }
                        1 => m.repair(),
                        _ if m.has_edge(p, q) => m.remove_support_edge(p, q),
                        _ => m.add_support_edge(p, q),
                    }
                }
                m.repair();
                m.check_invariants();
                prop_assert_eq!(m.size(), oracle_max(&m), "after batch {}", step);
            }
        }
    }
}
