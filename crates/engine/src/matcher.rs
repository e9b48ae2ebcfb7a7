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
//! Correctness leans on three facts: (1) by Berge's lemma a matching is
//! maximum iff no augmenting path exists, so repairing any inherited
//! matching to path-freeness restores maximality regardless of history;
//! (2) within one repair pass, a free vertex with no augmenting path now
//! cannot gain one after other augmentations (the standard
//! Kuhn's-algorithm lemma), so a single pass over exposed ports
//! suffices; and (3) within one pass, the columns a failed search
//! visited stay dead (no alternating path from them reaches a free
//! column) after later augmentations, so no later search of the pass
//! enters them. Proof of (3): they form a set closed under "the
//! neighbours of the matched row" with no free column in it; an
//! augmenting path flips only columns that reach its free end, so none
//! of them, and the flip leaves the set's rows, their cells and their
//! columns as they were, while the free columns only shrink. Pruning
//! dead columns leaves the order in which a search enters the live ones
//! unchanged, so the matching found is the same. A support change can
//! alter the matching size by at most one edge's worth per
//! insertion/deletion, which is why the repair work tracks the *churn*,
//! not the queue size.
//!
//! ## Representation and search order
//!
//! The support is one bitset row per input port over the outputs
//! (`fss_matching::bitset`'s layout, shared with exact MaxCard and the
//! weighted solver), with one more row for the free columns, one for
//! the columns a repair pass has visited and one for those (3) proved
//! dead, so a support change is a bit flip and a search step is a few
//! word operations: `adj[row] & free` first (a free neighbour ends the
//! search), `adj[row] & !visited` to descend.
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

use fss_matching::bitset::{self, ones, BitRows};

/// Sentinel for "unmatched".
const NIL: u32 = u32::MAX;

/// The candidate column with the oldest stamp, each stamp read counted.
/// The count stays in a local until the pick is made: a `+= 1` through
/// `reads` per column ran the m = 150 light cell ~2.5 % slower.
#[inline]
fn oldest(cols: impl IntoIterator<Item = u64>, stamps: &[u32], reads: &mut u64) -> Option<usize> {
    let mut n = 0;
    let oldest = ones(cols).inspect(|_| n += 1).min_by_key(|&q| stamps[q]);
    *reads += n;
    oldest
}

/// Dynamic maximum bipartite matching with incremental repair.
#[derive(Debug)]
pub(crate) struct IncrementalMatcher {
    m_in: usize,
    m_out: usize,
    /// Support adjacency: bit `q` of row `p` is set while cell `(p, q)`
    /// holds a waiting flow.
    adj: BitRows,
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
    /// The dead columns and those entered since the pass last
    /// augmented: all but the current path's lead nowhere.
    visited: Vec<u64>,
    /// Columns a failed search of this pass visited: none of them leads
    /// to a free column, however the pass augments after.
    dead: Vec<u64>,
    /// The `(row, column)` steps of the alternating path being tried.
    stack: Vec<(u32, u32)>,
    work: SearchWork,
}

/// What the repair passes did over a run: deterministic counts, cheap
/// enough to keep unconditionally and surfaced through engine telemetry.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SearchWork {
    /// Augmenting-path searches launched.
    pub(crate) searches: u64,
    /// Searches that found a path and grew the matching.
    pub(crate) augmentations: u64,
    /// Search-loop steps: rows entered by a descent or returned to by a
    /// backtrack.
    pub(crate) steps: u64,
    /// Stamps read to pick a step's oldest column: one per candidate
    /// column, free columns on entry and unvisited ones to descend.
    pub(crate) stamp_reads: u64,
}

impl IncrementalMatcher {
    /// Empty matcher over an `m_in x m_out` port grid.
    pub(crate) fn new(m_in: usize, m_out: usize) -> IncrementalMatcher {
        let mut free = vec![0; bitset::words(m_out)];
        (0..m_out).for_each(|q| bitset::insert(&mut free, q));
        IncrementalMatcher {
            m_in,
            m_out,
            adj: BitRows::new(m_in, m_out),
            stamp: vec![0; m_in * m_out],
            next_stamp: 1,
            match_l: vec![NIL; m_in],
            match_r: vec![NIL; m_out],
            free,
            size: 0,
            dirty: false,
            visited: vec![0; bitset::words(m_out)],
            dead: vec![0; bitset::words(m_out)],
            // A path enters each matched column at most once.
            stack: Vec::with_capacity(m_in.min(m_out)),
            work: SearchWork::default(),
        }
    }

    /// Lifetime work counters.
    pub(crate) fn work(&self) -> SearchWork {
        self.work
    }

    /// Current matching size.
    #[inline]
    pub(crate) fn size(&self) -> usize {
        self.size
    }

    /// Matched output port of input `p`, if any.
    #[inline]
    pub(crate) fn matched_output(&self, p: u32) -> Option<u32> {
        let q = self.match_l[p as usize];
        (q != NIL).then_some(q)
    }

    /// A support edge `(p, q)` appeared (its cell went 0 → 1 flows).
    pub(crate) fn add_support_edge(&mut self, p: u32, q: u32) {
        let (pu, qu) = (p as usize, q as usize);
        debug_assert!(!self.adj.contains(pu, qu), "edge added twice");
        if self.next_stamp == u32::MAX {
            self.renumber_stamps();
        }
        self.adj.insert(pu, qu);
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
            .filter(|cell| self.adj.contains(cell / self.m_out, cell % self.m_out))
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
    pub(crate) fn remove_support_edge(&mut self, p: u32, q: u32) {
        let (pu, qu) = (p as usize, q as usize);
        debug_assert!(self.adj.contains(pu, qu), "removing an absent edge");
        self.adj.remove(pu, qu);
        if self.match_l[pu] == q {
            self.match_l[pu] = NIL;
            self.match_r[qu] = NIL;
            bitset::insert(&mut self.free, qu);
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
    pub(crate) fn repair(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        self.augment_exposed();
        #[cfg(debug_assertions)]
        assert_eq!(
            bitset::check_cover(&self.adj, &self.match_l, &self.match_r),
            self.size,
            "the matching's size is stale"
        );
    }

    /// The repair pass proper.
    fn augment_exposed(&mut self) {
        if self.size == self.m_in.min(self.m_out) {
            return; // perfect on the smaller side; nothing to gain
        }
        self.visited.fill(0);
        self.dead.fill(0);
        for p in 0..self.m_in {
            if self.match_l[p] == NIL && self.adj.row(p).iter().any(|&w| w != 0) {
                self.work.searches += 1;
                if self.try_augment(p) {
                    // The path's columns led somewhere, so a search may
                    // enter them again; a failed search's columns still
                    // lead nowhere (fact 3 of the module docs).
                    self.visited.copy_from_slice(&self.dead);
                    self.work.augmentations += 1;
                    self.size += 1;
                    if self.size == self.m_in.min(self.m_out) {
                        return;
                    }
                } else {
                    self.dead.copy_from_slice(&self.visited);
                }
            }
        }
    }

    /// DFS for an augmenting path from exposed input `p` (iterative, with
    /// an explicit stack; `m` can be large). A free neighbour of the
    /// current row ends the search at once; otherwise it descends through
    /// the row's unvisited columns. Either way the oldest support edge of
    /// the row goes first, so the cell that has waited longest is the one
    /// an exposed port gets matched through. A row the search backtracks
    /// to had no free neighbour when it was entered, and `free` changes
    /// only when a search succeeds, so it looks for one only on entry.
    fn try_augment(&mut self, p: usize) -> bool {
        let m_out = self.m_out;
        let Self {
            adj,
            stamp,
            match_l,
            match_r,
            free,
            visited,
            stack,
            work,
            ..
        } = self;
        stack.clear();
        let (mut row, mut entered) = (p, true);
        loop {
            work.steps += 1;
            let bits = adj.row(row);
            let stamps = &stamp[row * m_out..][..m_out];
            let free_cols = bits.iter().zip(free.iter()).map(|(a, f)| a & f);
            let to_free = if entered {
                oldest(free_cols, stamps, &mut work.stamp_reads)
            } else {
                None
            };
            if let Some(q) = to_free {
                // Flip the path: `row` takes `q`, each row below takes the
                // column it was left through.
                bitset::remove(free, q);
                let (mut row, mut col) = (row as u32, q as u32);
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
            if let Some(q) = oldest(unvisited, stamps, &mut work.stamp_reads) {
                bitset::insert(visited, q);
                stack.push((row as u32, q as u32));
                (row, entered) = (match_r[q] as usize, true);
            } else if let Some((back, _)) = stack.pop() {
                (row, entered) = (back as usize, false);
            } else {
                return false;
            }
        }
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
                assert!(self.adj.contains(p, q as usize), "matched off the support");
                size += 1;
            }
        }
        assert_eq!(size, self.size);
        for q in 0..self.m_out {
            assert_eq!(
                bitset::contains(&self.free, q),
                self.match_r[q] == NIL,
                "free bit {q} is stale"
            );
        }
        assert!(
            self.adj.tails_clear()
                && [&self.free, &self.visited, &self.dead]
                    .iter()
                    .all(|row| ones(row.iter().copied()).all(|q| q < self.m_out)),
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
        cells
            .filter(|&(p, q)| m.adj.contains(p as usize, q as usize))
            .collect()
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

    #[test]
    fn a_failed_search_leaves_its_columns_dead_for_the_pass() {
        // Row 0 holds column 0 and has no other cell; row 4 holds
        // column 2 and can move to column 3.
        let mut m = IncrementalMatcher::new(5, 4);
        m.add_support_edge(0, 0);
        m.add_support_edge(4, 2);
        m.repair();
        // One pass over the exposed rows 1, 2 and 3. Row 1's search
        // enters column 0 and fails, so column 0 is dead. Row 2 then
        // takes the free column 1. Row 3 tries its oldest cell (3, 0)
        // first, but column 0 is still dead: it goes straight through
        // column 2 and pushes row 4 onto column 3.
        for (p, q) in [(1, 0), (2, 1), (3, 0), (3, 2), (4, 3)] {
            m.add_support_edge(p, q);
        }
        let before = m.work();
        m.repair();
        let matched = (0..5).map(|p| m.matched_output(p)).collect::<Vec<_>>();
        assert_eq!(matched, [Some(0), None, Some(1), Some(2), Some(3)]);
        // Row 1: enter it, descend into row 0, back to row 1 (3 steps);
        // row 2: 1; row 3: itself and row 4 (2). A pass that forgot the
        // dead columns at each augmentation (commit 8149f10) took 8: row
        // 3 re-entered column 0's dead subtree, one descent into row 0
        // and one backtrack out of it.
        let after = m.work();
        assert_eq!(after.steps - before.steps, 6);
        // Stamps read: row 1's descent into column 0 (its free set and
        // row 0's sets are empty), row 2's free column 1, and row 3's one
        // live column 2 and row 4's free column 3.
        assert_eq!(after.stamp_reads - before.stamp_reads, 4);
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
            if m.adj.contains(p as usize, q as usize) {
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
                        _ if m.adj.contains(p as usize, q as usize) => m.remove_support_edge(p, q),
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
