//! The scalar twin of [`super::HungarianScratch`], frozen as a test oracle.
//!
//! This is the solver as it stood before the tight-set walk: unpadded
//! `m_in x m_out` weights behind a branching `cost()`, a separate reprice
//! pass per dirty row, and an `augment` that relaxes a full row of
//! `minv[]` on every Dijkstra step and decrements it on every positive
//! one. `set_weight`, the two offsets, `solve` and `augment` are kept
//! **verbatim** so the differential test in `super::tests` can hold the
//! production kernel to identical `(match_l, u, v)` after every `solve`.
//! Nothing outside `#[cfg(test)]` may name this type.

use super::NIL;

/// The frozen solver (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct ScalarScratch {
    m_in: usize,
    m_out: usize,
    /// Square dimension: `max(m_in, m_out)`.
    k: usize,
    /// Row-major `m_in x m_out` weights; cells outside are permanent 0.
    w: Vec<i64>,
    /// Nonzero cells per row / per column (offset no-op detection).
    row_nnz: Vec<u32>,
    col_nnz: Vec<u32>,
    /// Dual potentials (min-form over `cost = -w`), length `k`.
    u: Vec<i64>,
    v: Vec<i64>,
    /// Perfect assignment over the square: row -> col and col -> row.
    match_l: Vec<u32>,
    match_r: Vec<u32>,
    /// Rows awaiting re-augmentation, deduped via `row_dirty`.
    dirty: Vec<u32>,
    row_dirty: Vec<bool>,
    // --- augmentation scratch (reused across solves; no allocation) ---
    minv: Vec<i64>,
    way: Vec<u32>,
    used: Vec<bool>,
}

impl ScalarScratch {
    /// All-zero matrix with the identity assignment (trivially optimal).
    pub(crate) fn new(m_in: usize, m_out: usize) -> ScalarScratch {
        let k = m_in.max(m_out);
        ScalarScratch {
            m_in,
            m_out,
            k,
            w: vec![0; m_in * m_out],
            row_nnz: vec![0; m_in],
            col_nnz: vec![0; m_out],
            u: vec![0; k],
            v: vec![0; k],
            match_l: (0..k as u32).collect(),
            match_r: (0..k as u32).collect(),
            dirty: Vec::new(),
            row_dirty: vec![false; k],
            minv: vec![0; k],
            way: vec![0; k],
            used: vec![false; k],
        }
    }

    /// Cost of pair `(i, j)` in the padded square (`-w`, or 0 outside the
    /// real matrix).
    #[inline]
    fn cost(&self, i: usize, j: usize) -> i64 {
        if i < self.m_in && j < self.m_out {
            -self.w[i * self.m_out + j]
        } else {
            0
        }
    }

    #[inline]
    fn mark_dirty(&mut self, i: usize) {
        let j = self.match_l[i];
        if j != NIL {
            self.match_r[j as usize] = NIL;
            self.match_l[i] = NIL;
        }
        if !self.row_dirty[i] {
            self.row_dirty[i] = true;
            self.dirty.push(i as u32);
        }
    }

    /// Set cell `(i, j)` to `weight` (`0` removes the edge). Classifies
    /// the change and dirties row `i` only when the update breaks dual
    /// feasibility or the tightness of the assigned pair.
    pub(crate) fn set_weight(&mut self, i: u32, j: u32, weight: i64) {
        assert!(weight >= 0, "weights must be nonnegative");
        assert!(
            (i as usize) < self.m_in && (j as usize) < self.m_out,
            "cell ({i}, {j}) out of range"
        );
        let (iu, ju) = (i as usize, j as usize);
        let cell = iu * self.m_out + ju;
        let old = self.w[cell];
        if old == weight {
            return;
        }
        self.w[cell] = weight;
        if (old == 0) != (weight == 0) {
            let d = if weight == 0 { -1i32 } else { 1 };
            self.row_nnz[iu] = self.row_nnz[iu].wrapping_add_signed(d);
            self.col_nnz[ju] = self.col_nnz[ju].wrapping_add_signed(d);
        }
        if self.match_l[iu] == j {
            // Any change to the assigned cell breaks tightness.
            self.mark_dirty(iu);
        } else if weight > old && self.u[iu] + self.v[ju] > -weight {
            // Weight increase past the dual bound: feasibility violated.
            // (Decreases only grow the cost and stay feasible.)
            self.mark_dirty(iu);
        }
    }

    /// Add `delta` to every **nonzero** weight in row `i` (no-op when the
    /// row has none). Positive deltas are absorbed into the row potential
    /// in `O(row)` with no repair; the assigned pair only goes slack when
    /// it sits on a zero/padding cell. Negative deltas never break
    /// feasibility, so only the row's own assignment can need repair.
    ///
    /// The caller must keep every nonzero weight positive under the
    /// offset (drain a cell with `set_weight(i, j, 0)` instead).
    pub(crate) fn add_row_offset(&mut self, i: u32, delta: i64) {
        let iu = i as usize;
        assert!(iu < self.m_in, "row {i} out of range");
        if delta == 0 || self.row_nnz[iu] == 0 {
            return;
        }
        let base = iu * self.m_out;
        for j in 0..self.m_out {
            let w = &mut self.w[base + j];
            if *w != 0 {
                *w += delta;
                debug_assert!(*w > 0, "offset drove cell ({i}, {j}) to {w}");
            }
        }
        let assigned = self.match_l[iu];
        if delta > 0 {
            // Absorb: nonzero cells keep their reduced costs; zero cells
            // only get slacker. A zero-cell assignment goes slack.
            self.u[iu] -= delta;
            if assigned != NIL {
                let j = assigned as usize;
                if j >= self.m_out || self.w[base + j] == 0 {
                    self.mark_dirty(iu);
                }
            }
        } else if assigned != NIL && (assigned as usize) < self.m_out {
            // Weight decrease: feasible everywhere, but a nonzero assigned
            // cell just lost tightness.
            if self.w[base + assigned as usize] != 0 {
                self.mark_dirty(iu);
            }
        }
    }

    /// Column analog of [`ScalarScratch::add_row_offset`].
    pub(crate) fn add_col_offset(&mut self, j: u32, delta: i64) {
        let ju = j as usize;
        assert!(ju < self.m_out, "column {j} out of range");
        if delta == 0 || self.col_nnz[ju] == 0 {
            return;
        }
        for i in 0..self.m_in {
            let w = &mut self.w[i * self.m_out + ju];
            if *w != 0 {
                *w += delta;
                debug_assert!(*w > 0, "offset drove cell ({i}, {j}) to {w}");
            }
        }
        let row = self.match_r[ju];
        if delta > 0 {
            self.v[ju] -= delta;
            if row != NIL {
                let i = row as usize;
                if i >= self.m_in || self.w[i * self.m_out + ju] == 0 {
                    self.mark_dirty(i);
                }
            }
        } else if row != NIL
            && (row as usize) < self.m_in
            && self.w[row as usize * self.m_out + ju] != 0
        {
            self.mark_dirty(row as usize);
        }
    }

    /// Repair the assignment after a batch of updates: re-insert every
    /// dirty row (ascending, so repair is deterministic per batch) with a
    /// shortest augmenting path from the persistent duals. Afterwards the
    /// assignment is a maximum-weight matching of the current matrix.
    pub(crate) fn solve(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        self.dirty.sort_unstable();
        let mut di = 0;
        while di < self.dirty.len() {
            let i = self.dirty[di] as usize;
            di += 1;
            self.row_dirty[i] = false;
            // Reprice: u[i] = min_j (cost - v[j]) restores feasibility on
            // every pair of row i and guarantees a tight edge to start
            // from (keeps the augmentation's deltas nonnegative).
            let mut best = i64::MAX;
            for j in 0..self.k {
                best = best.min(self.cost(i, j) - self.v[j]);
            }
            self.u[i] = best;
            self.augment(i);
        }
        self.dirty.clear();
    }

    /// JV single-row insertion: Dijkstra over reduced costs with deferred
    /// dual updates, terminating at a free column. Ties prefer free
    /// columns (ending the path at equal distance is always optimal) and
    /// zero-delta rounds skip the dual pass entirely — both matter on the
    /// tie-heavy matrices the scheduling policies produce.
    fn augment(&mut self, p0: usize) {
        let k = self.k;
        for j in 0..k {
            self.minv[j] = i64::MAX;
            self.used[j] = false;
        }
        let mut i0 = p0;
        let mut j_prev = NIL;
        let j_free;
        loop {
            let mut delta = i64::MAX;
            let mut j1 = usize::MAX;
            let mut j1_free = false;
            for j in 0..k {
                if self.used[j] {
                    continue;
                }
                let cur = self.cost(i0, j) - self.u[i0] - self.v[j];
                if cur < self.minv[j] {
                    self.minv[j] = cur;
                    self.way[j] = j_prev;
                }
                let free = self.match_r[j] == NIL;
                if self.minv[j] < delta || (self.minv[j] == delta && free && !j1_free) {
                    delta = self.minv[j];
                    j1 = j;
                    j1_free = free;
                }
            }
            debug_assert!(j1 != usize::MAX, "square matrix always augments");
            if delta > 0 {
                for j in 0..k {
                    if self.used[j] {
                        self.u[self.match_r[j] as usize] += delta;
                        self.v[j] -= delta;
                    } else if self.minv[j] != i64::MAX {
                        self.minv[j] -= delta;
                    }
                }
                self.u[p0] += delta;
            }
            self.used[j1] = true;
            if self.match_r[j1] == NIL {
                j_free = j1;
                break;
            }
            i0 = self.match_r[j1] as usize;
            j_prev = j1 as u32;
        }
        // Flip the alternating path back to the root.
        let mut j = j_free;
        loop {
            let prev = self.way[j];
            if prev == NIL {
                self.match_r[j] = p0 as u32;
                self.match_l[p0] = j as u32;
                break;
            }
            let r = self.match_r[prev as usize];
            self.match_r[j] = r;
            self.match_l[r as usize] = j as u32;
            j = prev as usize;
        }
    }

    /// `(match_l, u, v)` — what the differential test compares.
    pub(crate) fn state(&self) -> (&[u32], &[i64], &[i64]) {
        (&self.match_l, &self.u, &self.v)
    }
}
