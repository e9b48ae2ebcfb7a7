//! Warm-startable dense maximum-weight assignment with persistent dual
//! potentials and per-row repair.
//!
//! [`HungarianScratch`] maintains a maximum-weight matching of a dense
//! `m_in x m_out` integer weight matrix across a *sequence* of sparse
//! weight updates, instead of re-solving from a cold start after every
//! change. It is the substrate of the incremental weighted matchers behind
//! the **MinRTime** / **MaxWeight** heuristics (paper §5.2): each
//! scheduling round changes only the cells dirtied by arrivals, dispatches,
//! and outage windows, and only the rows carrying those cells are
//! re-augmented.
//!
//! ## Model
//!
//! Weights are nonnegative `i64`s; weight `0` means "no edge" (matching
//! that pair is allowed but worthless — it represents leaving both ports
//! idle). Internally the matrix is padded to a `k x k` square
//! (`k = max(m_in, m_out)`) of zero cells and the solver maintains a
//! **perfect** assignment of the square at all times, in the classic
//! Jonker–Volgenant shortest-augmenting-path formulation over
//! `cost = -weight`:
//!
//! * dual potentials `u` (rows) and `v` (columns) with
//!   `u[i] + v[j] <= cost[i][j]` for every pair (*feasibility*), and
//! * a perfect assignment supported on *tight* pairs
//!   (`u[i] + v[j] = cost[i][j]`).
//!
//! For the equality-constrained (perfect, square) assignment LP this pair
//! of conditions is a complete optimality certificate — no sign
//! constraints on the duals are needed, which is exactly why the matrix is
//! kept square: a rectangular or partially-assigned formulation would
//! additionally require zero potentials on exposed rows/columns, a
//! property that incremental *deletions* (a queue cell draining to zero)
//! silently destroy. Keeping every row and column matched at all times —
//! zero-weight padding cells stand in for "unmatched" — makes every
//! update a pure *cost change*, and cost changes have a local repair:
//!
//! * a change that breaks **feasibility** (a weight increase past the
//!   dual bound) or **tightness of an assigned pair** (any change to a
//!   cell carrying the assignment) unassigns that row and marks it dirty;
//! * [`HungarianScratch::solve`] re-inserts the dirty rows (ascending row
//!   order, so repair is deterministic for a given update batch) with the
//!   standard JV single-row augmentation, which preserves feasibility and
//!   tightness and re-completes the assignment.
//!
//! The end state is again perfect + tight + feasible, hence optimal —
//! regardless of the history of warm starts. This is the exact-parity
//! argument: `solve` returns a matching whose total weight equals the
//! batch [`crate::max_weight_matching`] on the same matrix (the
//! differential tests below and in `fss-engine` check precisely that).
//!
//! ## Cost
//!
//! One insertion is a Dijkstra search over reduced costs from the dirty
//! row to a free column. On the scheduling policies' matrices almost all
//! of its steps have length zero (age weights tie; on the m = 150
//! MinRTime cell 98 % of the steps move no dual), so the search is split
//! by step length, with `W = bitset::words(k)` words per bitset (the
//! [`crate::bitset`] layout):
//!
//! * the **root pass** starts the search from the root's tight set. When
//!   the root is known to be feasible (not flagged, see *Tight sets*)
//!   and its set is non-empty, the minimum reduced cost is 0: the price
//!   stands, the set is exactly what a sweep would build, and the pass is
//!   a copy of it, `O(W)` plus a fill of `minv[]`; the root is relaxed at
//!   the first positive step like any scanned row. Otherwise — 21 % of
//!   the insertions on the m = 150 MinRTime cell — one **sweep** of the
//!   root's row reprices it (`u = min_j cost - v[j]`), fills `minv[]`
//!   and builds its tight set: `O(k)`;
//! * a **zero-length step** never reads the weight matrix: it takes the
//!   lowest set bit of the *frontier* (the columns reached but not yet
//!   settled; a free column first), settles it and ORs in the tight set
//!   of the row matched there, `O(W)` plus one `way[]` write per newly
//!   reached column. No step changes the free columns, so only the
//!   columns a step adds are tested against them, in the same word pass
//!   that ORs them in; the whole frontier is tested where it is built
//!   (the root pass and each positive step);
//! * a **positive step** — only when every reached column is settled —
//!   relaxes the rows scanned since the previous positive step into
//!   `minv[]` (`O(k)` each), moves the duals of the settled columns and
//!   their rows, and repairs the tight sets a word at a time: it saves
//!   the scanned rows' words (at most `k · W`), clears the settled
//!   columns from every row with one AND-NOT pass and copies the saved
//!   words back, `O(k · W)`; then each scanned row tests its cells on
//!   the new frontier columns (those whose `minv` reads the new
//!   distance, found by one comparison pass over `minv[]`), reading the
//!   row's weights in order and ORing a word of results at a time.
//!
//! A repair of `d` dirty rows, `s` of them swept, therefore costs
//! `O(s · k + steps · W + relaxed rows · k)` plus `d` copies and the
//! tight tests, against `O(d · k · p)` for the textbook loop that relaxes
//! a full row on each of the `p` steps of a path, and `O(k^3)` for a cold
//! solve. [`HungarianScratch::work`] counts the terms ([`SolverWork`]).
//! On the m = 150 MinRTime cell (seed 1; 12 894 positive steps, 4 607 754
//! tight tests) timers around the parts of a positive step put the fold
//! at about 38 % of the solver's time, the new-tight tests at about 10 %,
//! `equal_mask` at about 2 % and the trim at about 5 %; a row or a column
//! at a time, the tests with `equal_mask` took about 14 % and the trim
//! about 8 %. The offsets ([`HungarianScratch::add_row_offset`],
//! [`HungarianScratch::add_col_offset`]) are branch-free sweeps of one
//! padded row or column; `SolverWork::aged_cells` counts the row
//! sweeps' cells.
//!
//! ## Tight sets
//!
//! Per row the solver keeps a bitset of its *tight* columns
//! (`u[i] + v[j] == cost(i, j)`), a bitset `nz` of its nonzero cells, and
//! one bitset of *free* columns. The tight set of every row is exact at
//! all times — dirty rows awaiting re-insertion included, which is what
//! lets their root pass start from it — except on rows flagged
//! *infeasible*; `verify_certificate` checks it. Exactness is kept by a
//! local rule at each mutation, writing `rc(i, j) = cost(i, j) - u[i] -
//! v[j]` for the reduced cost, and each rule relies on `rc >= 0`:
//!
//! * `set_weight(i, j, _)` changes one cost: bit `(i, j)` is recomputed.
//!   A weight raised past the dual bound (`u[i] + v[j] > -weight`) makes
//!   `rc(i, j)` negative, the one mutation that can: the rules below only
//!   grow an unscanned row's reduced costs. On such a row they no longer
//!   keep the set exact (an offset can lift a negative `rc` to 0), so the
//!   row is flagged and dirtied, and its insertion sweeps it. The flag
//!   is cleared by that insertion and by `reset`.
//! * `add_row_offset(i, delta > 0)` lowers `u[i]` and the cost of the
//!   row's nonzero cells by `delta`: `rc` is unchanged on nonzero cells
//!   and grows on zero cells, so `tight[i] &= nz[i]`. With `delta < 0`
//!   only the nonzero cells' costs grow: `tight[i] &= !nz[i]`.
//! * `add_col_offset(j, delta)` is the same statement per row of column
//!   `j`: bit `j` is cleared on the rows whose cell is zero (`delta > 0`)
//!   or nonzero (`delta < 0`).
//! * a positive step of length `delta` raises `u` on the scanned rows
//!   and lowers `v` on the settled columns. `rc` is unchanged on
//!   scanned x settled and unscanned x unsettled pairs; it grows on
//!   unscanned x settled pairs, so those rows — the dirty rows still to
//!   be inserted among them — drop the settled columns;
//!   it shrinks by `delta` on scanned x unsettled pairs, none of which
//!   was tight (a tight one would have been reached), so the new tight
//!   pairs are among the columns whose `minv` equals the new distance,
//!   and each is tested against each scanned row.
//! * the path flip changes the assignment, not the duals.
//!
//! **Lazy relaxation.** Let `d` be the distance of the search so far.
//! For a scanned row `i` and an unsettled column `j`, every positive
//! step adds `delta` to `d` and to `u[i]` and leaves `v[j]` alone, so
//! `d + rc(i, j)` is constant from the moment `i` is scanned. `minv[j]`
//! holds the minimum of that constant over the relaxed rows — shifted by
//! the running distance instead of being decremented on every step — so
//! a row relaxed later, under later duals, contributes exactly the value
//! it would have contributed when it was scanned. Rows are relaxed in
//! scan order with a strict `<`, so `way[j]` names the earliest scanned
//! row attaining the minimum, and a tight column keeps the `way` of the
//! first row that reached it. With the selection rule unchanged (minimum
//! `minv`, a free column first, then the lowest index) the search visits
//! the same columns in the same order as the eager loop and ends in the
//! same `(u, v, match_l)`; the frozen eager solver in `scratch/oracle.rs`
//! is the test oracle for that.
//!
//! ## Bounds
//!
//! [`HungarianScratch::set_weight`] rejects weights outside
//! `0 ..=` [`MAX_WEIGHT`] `= i64::MAX / 4`, and an offset may not drive a
//! nonzero weight to zero or below (a cell is emptied by an explicit
//! `set_weight` to `0`) or past `MAX_WEIGHT` (debug-asserted). Dual
//! potentials, and with them `minv[]` and the running distance, drift by
//! at most the total applied offset magnitude plus the largest weight,
//! so `i64` headroom is ample for horizons far beyond the paper's
//! workloads.

use crate::bitset::{self, lowest, ones, BitRows};

#[cfg(test)]
mod oracle;

/// Sentinel for "unassigned" (only ever transient between updates).
const NIL: u32 = u32::MAX;

/// Largest weight a cell may hold (see the module docs, *Bounds*).
pub(crate) const MAX_WEIGHT: i64 = i64::MAX / 4;

/// `minv[]` of a settled column: below every reachable distance, so a
/// relaxation can never rewrite the column's `way[]`.
const SETTLED: i64 = i64::MIN;

/// Bit `b` set iff `chunk[b] == value` (at most 64 entries), shifted in
/// from the top entry down.
#[inline]
fn equal_mask(chunk: &[i64], value: i64) -> u64 {
    chunk
        .iter()
        .rev()
        .fold(0, |word, &m| word << 1 | u64::from(m == value))
}

/// `minv[j] = cost(i, j) - v[j]` for row `i` — the row's reduced costs
/// shifted by a potential that makes it feasible — and the minimum.
#[inline]
fn sweep_row(minv: &mut [i64], row: &[i64], v: &[i64]) -> i64 {
    let mut best = i64::MAX;
    for ((m, &wt), &vj) in minv.iter_mut().zip(row).zip(v) {
        *m = -wt - vj;
        best = best.min(*m);
    }
    best
}

/// Lifetime work counters of a [`HungarianScratch`] (see
/// [`HungarianScratch::work`]); [`HungarianScratch::reset`] leaves them
/// running.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverWork {
    /// Dirty rows re-inserted.
    pub insertions: u64,
    /// Insertions that swept the root's row to reprice it: the rest
    /// started from the root's exact tight set.
    pub root_sweeps: u64,
    /// Rows relaxed into `minv[]` beyond the roots. Many per insertion
    /// mean long tight walks that still needed a positive step.
    pub rows_relaxed: u64,
    /// Dijkstra steps that moved a dual.
    pub positive_steps: u64,
    /// Cells a positive step tested for tightness: each scanned row
    /// against each column the step brought to the frontier.
    pub tight_tests: u64,
    /// Cells [`HungarianScratch::add_row_offset`] rewrote: the whole
    /// padded row on every call that is not a no-op.
    pub aged_cells: u64,
}

/// Warm-startable dense maximum-weight assignment (see the module docs).
#[derive(Debug, Clone)]
pub struct HungarianScratch {
    m_in: usize,
    m_out: usize,
    /// Square dimension: `max(m_in, m_out)`.
    k: usize,
    /// Row-major `k x k` weights; cells outside `m_in x m_out` are
    /// permanent 0.
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
    /// Rows a weight increase may have left with a negative reduced
    /// cost; cleared when the row is re-inserted.
    infeasible: Vec<bool>,
    /// Per-row bitsets: the tight columns (exact on every row not
    /// flagged `infeasible`) and the nonzero cells.
    tight: BitRows,
    nz: BitRows,
    /// Columns with `match_r == NIL`.
    free: Vec<u64>,
    // --- augmentation scratch (reused across solves; no allocation) ---
    /// `distance + reduced cost` per unsettled column, [`SETTLED`] once
    /// the column is settled.
    minv: Vec<i64>,
    way: Vec<u32>,
    /// Reached columns, split into those still to settle and the rest.
    frontier: Vec<u64>,
    settled: Vec<u64>,
    /// Rows scanned by the running search, in scan order.
    scan: Vec<u32>,
    /// The scanned rows' tight words, kept across a positive step's trim
    /// (at most `k` rows).
    saved: Vec<u64>,
    work: SolverWork,
}

impl HungarianScratch {
    /// All-zero matrix with the identity assignment (trivially optimal).
    pub fn new(m_in: usize, m_out: usize) -> HungarianScratch {
        let k = m_in.max(m_out);
        let nw = bitset::words(k);
        let mut s = HungarianScratch {
            m_in,
            m_out,
            k,
            w: vec![0; k * k],
            row_nnz: vec![0; m_in],
            col_nnz: vec![0; m_out],
            u: vec![0; k],
            v: vec![0; k],
            match_l: vec![0; k],
            match_r: vec![0; k],
            dirty: Vec::new(),
            row_dirty: vec![false; k],
            infeasible: vec![false; k],
            tight: BitRows::new(k, k),
            nz: BitRows::new(k, k),
            free: vec![0; nw],
            minv: vec![0; k],
            way: vec![0; k],
            frontier: vec![0; nw],
            settled: vec![0; nw],
            scan: Vec::with_capacity(k),
            saved: Vec::with_capacity(k * nw),
            work: SolverWork::default(),
        };
        s.reset();
        s
    }

    /// Current weight of cell `(i, j)`.
    #[inline]
    pub fn weight(&self, i: u32, j: u32) -> i64 {
        self.w[i as usize * self.k + j as usize]
    }

    /// Lifetime work counters (module docs, *Cost*).
    #[inline]
    pub fn work(&self) -> SolverWork {
        self.work
    }

    #[inline]
    fn mark_dirty(&mut self, i: usize) {
        let j = self.match_l[i];
        if j != NIL {
            self.match_r[j as usize] = NIL;
            self.match_l[i] = NIL;
            bitset::insert(&mut self.free, j as usize);
        }
        if !self.row_dirty[i] {
            self.row_dirty[i] = true;
            self.dirty.push(i as u32);
        }
    }

    /// Set cell `(i, j)` to `weight` (`0` removes the edge). Classifies
    /// the change and dirties row `i` only when the update breaks dual
    /// feasibility or the tightness of the assigned pair. Panics on a
    /// weight outside `0 ..= MAX_WEIGHT`.
    pub fn set_weight(&mut self, i: u32, j: u32, weight: i64) {
        assert!(
            (0..=MAX_WEIGHT).contains(&weight),
            "weight {weight} outside 0 ..= i64::MAX / 4"
        );
        assert!(
            (i as usize) < self.m_in && (j as usize) < self.m_out,
            "cell ({i}, {j}) out of range"
        );
        let (iu, ju) = (i as usize, j as usize);
        let cell = iu * self.k + ju;
        let old = self.w[cell];
        if old == weight {
            return;
        }
        self.w[cell] = weight;
        if (old == 0) != (weight == 0) {
            let d = if weight == 0 { -1i32 } else { 1 };
            self.row_nnz[iu] = self.row_nnz[iu].wrapping_add_signed(d);
            self.col_nnz[ju] = self.col_nnz[ju].wrapping_add_signed(d);
            self.nz.set(iu, ju, weight != 0);
        }
        let sum = self.u[iu] + self.v[ju];
        self.tight.set(iu, ju, sum == -weight);
        if sum > -weight {
            // Weight increase past the dual bound: feasibility violated.
            // (Decreases only grow the cost; a row already infeasible is
            // already flagged and dirty.)
            self.infeasible[iu] = true;
            self.mark_dirty(iu);
        } else if self.match_l[iu] == j {
            // Any change to the assigned cell breaks tightness.
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
    pub fn add_row_offset(&mut self, i: u32, delta: i64) {
        let iu = i as usize;
        assert!(iu < self.m_in, "row {i} out of range");
        if delta == 0 || self.row_nnz[iu] == 0 {
            return;
        }
        let row = &mut self.w[iu * self.k..][..self.k];
        for w in row.iter_mut() {
            *w += delta & -i64::from(*w != 0);
        }
        self.work.aged_cells += self.k as u64;
        debug_assert!(
            row.iter().filter(|&&w| w != 0).count() == self.row_nnz[iu] as usize
                && row.iter().all(|w| (0..=MAX_WEIGHT).contains(w)),
            "offset {delta} drove a cell of row {i} out of 1 ..= MAX_WEIGHT"
        );
        let tight = self.tight.row_mut(iu);
        let nz = self.nz.row(iu);
        let assigned = self.match_l[iu];
        let on_nonzero = assigned != NIL && self.w[iu * self.k + assigned as usize] != 0;
        if delta > 0 {
            // Absorb: nonzero cells keep their reduced costs; zero cells
            // only get slacker. A zero-cell assignment goes slack.
            self.u[iu] -= delta;
            for (t, &n) in tight.iter_mut().zip(nz) {
                *t &= n;
            }
            if assigned != NIL && !on_nonzero {
                self.mark_dirty(iu);
            }
        } else {
            // Weight decrease: feasible everywhere, but the nonzero
            // cells — the assigned one among them — just lost tightness.
            for (t, &n) in tight.iter_mut().zip(nz) {
                *t &= !n;
            }
            if on_nonzero {
                self.mark_dirty(iu);
            }
        }
    }

    /// Column analog of [`HungarianScratch::add_row_offset`].
    pub fn add_col_offset(&mut self, j: u32, delta: i64) {
        let ju = j as usize;
        assert!(ju < self.m_out, "column {j} out of range");
        if delta == 0 || self.col_nnz[ju] == 0 {
            return;
        }
        // Bit `j` survives on the rows whose cell is nonzero (positive
        // offset, absorbed into `v[j]`) or zero (negative offset).
        let keep_zero = delta < 0;
        for i in 0..self.k {
            let w = &mut self.w[i * self.k + ju];
            *w += delta & -i64::from(*w != 0);
            debug_assert!(
                (0..=MAX_WEIGHT).contains(w),
                "offset {delta} drove cell ({i}, {j}) to {w}"
            );
            let keep = self.tight.contains(i, ju) & (self.nz.contains(i, ju) != keep_zero);
            self.tight.set(i, ju, keep);
        }
        let row = self.match_r[ju];
        let on_nonzero = row != NIL && self.w[row as usize * self.k + ju] != 0;
        if delta > 0 {
            self.v[ju] -= delta;
            if row != NIL && !on_nonzero {
                self.mark_dirty(row as usize);
            }
        } else if on_nonzero {
            self.mark_dirty(row as usize);
        }
    }

    /// Repair the assignment after a batch of updates: re-insert every
    /// dirty row (ascending, so repair is deterministic per batch) with a
    /// shortest augmenting path from the persistent duals. Afterwards the
    /// assignment is a maximum-weight matching of the current matrix.
    pub fn solve(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        self.dirty.sort_unstable();
        for di in 0..self.dirty.len() {
            let i = self.dirty[di] as usize;
            self.row_dirty[i] = false;
            self.augment(i);
        }
        self.dirty.clear();
    }

    /// The column matched to row `i` through a *positive-weight* cell
    /// (padding and zero-cell assignments read as unmatched).
    #[inline]
    pub fn matched_col(&self, i: u32) -> Option<u32> {
        let j = self.match_l[i as usize];
        if j != NIL && (j as usize) < self.m_out && self.weight(i, j) > 0 {
            Some(j)
        } else {
            None
        }
    }

    /// Total weight of the current matching (positive cells only), in
    /// `i128`: `k` cells at `MAX_WEIGHT` overflow an `i64` from `k = 5`.
    pub fn total_weight(&self) -> i128 {
        (0..self.m_in as u32)
            .filter_map(|i| self.matched_col(i).map(|j| i128::from(self.weight(i, j))))
            .sum()
    }

    /// Forget everything: all-zero matrix, identity assignment, zero
    /// duals — every pair tight, no cell nonzero, no column free.
    pub fn reset(&mut self) {
        self.w.fill(0);
        self.row_nnz.fill(0);
        self.col_nnz.fill(0);
        self.u.fill(0);
        self.v.fill(0);
        for (i, m) in self.match_l.iter_mut().enumerate() {
            *m = i as u32;
        }
        for (j, m) in self.match_r.iter_mut().enumerate() {
            *m = j as u32;
        }
        self.dirty.clear();
        self.row_dirty.fill(false);
        self.infeasible.fill(false);
        for i in 0..self.k {
            (0..self.k).for_each(|j| self.tight.insert(i, j));
        }
        self.nz.clear();
        self.free.fill(0);
    }

    /// JV single-row insertion of the unassigned row `p0`: Dijkstra over
    /// reduced costs from `p0` to a free column, then the path flip.
    /// Ties prefer free columns (ending the path at equal distance is
    /// always optimal), then the lowest index. Zero-length steps walk
    /// the tight bitsets; rows are relaxed into `minv[]` only when a
    /// positive step is needed (module docs, *Tight sets*).
    fn augment(&mut self, p0: usize) {
        let k = self.k;
        let Self {
            w,
            u,
            v,
            match_l,
            match_r,
            infeasible,
            tight,
            free,
            minv,
            way,
            frontier,
            settled,
            scan,
            saved,
            work,
            ..
        } = self;
        work.insertions += 1;

        // The search starts at distance `u[p0]`, once the root is priced
        // so that its row is feasible with a tight edge. Its relaxation is
        // `minv[j] = u[p0] + rc(p0, j) = cost(p0, j) - v[j]`.
        let root_row = &w[p0 * k..][..k];
        let root_tight = tight.row_mut(p0);
        let known = !std::mem::take(&mut infeasible[p0]) && root_tight.iter().any(|&t| t != 0);
        // `scan[..relaxed]` is folded into `minv`.
        let mut relaxed = if known {
            // Feasible with an exact, non-empty tight set: the minimum
            // reduced cost is 0, so the price stands and the tight set is
            // what the sweep would build. The root is folded into `minv`
            // at the first positive step, like every other scanned row.
            #[cfg(debug_assertions)]
            {
                let best = sweep_row(minv, root_row, v);
                assert_eq!(best, u[p0], "row {p0}: a feasible tight row mispriced");
                for (chunk, &t) in minv.chunks(64).zip(root_tight.iter()) {
                    assert_eq!(equal_mask(chunk, best), t, "row {p0}: stale tight set");
                }
            }
            frontier.copy_from_slice(root_tight);
            minv.fill(i64::MAX);
            0
        } else {
            // Root sweep: reprice, relax and read the tight set off `minv`.
            work.root_sweeps += 1;
            let best = sweep_row(minv, root_row, v);
            u[p0] = best;
            for ((t, f), chunk) in root_tight
                .iter_mut()
                .zip(frontier.iter_mut())
                .zip(minv.chunks(64))
            {
                *t = equal_mask(chunk, best);
                *f = *t;
            }
            1
        };
        settled.fill(0);
        way.fill(NIL);
        scan.clear();
        scan.push(p0 as u32);
        // `dist` is the distance of the search (offset by the root's
        // potential, see above).
        let mut dist = u[p0];
        // `free` cannot change inside a search, so the whole frontier is
        // tested against it only where it is built (here and at each
        // positive step); a zero-length step tests the columns it adds.
        let lowest_free =
            |frontier: &[u64]| lowest(frontier.iter().zip(free.iter()).map(|(f, x)| f & x));
        let mut found = lowest_free(frontier);

        let j_free = loop {
            if let Some(j) = found {
                break j;
            }
            if let Some(j1) = lowest(frontier.iter().copied()) {
                // Zero-length step: settle `j1`, scan the row matched
                // there by ORing in its tight columns.
                bitset::remove(frontier, j1);
                bitset::insert(settled, j1);
                minv[j1] = SETTLED;
                let i0 = match_r[j1] as usize;
                scan.push(i0 as u32);
                let mut hit = 0;
                let reached = tight
                    .row(i0)
                    .iter()
                    .zip(frontier.iter_mut())
                    .zip(settled.iter().zip(free.iter()));
                let new = reached.map(|((&t, f), (&s, &x))| {
                    let new = t & !(*f | s);
                    *f |= new;
                    hit |= new & x;
                    new
                });
                for j in ones(new) {
                    way[j] = j1 as u32;
                }
                if hit != 0 {
                    // The rest of the frontier was tested before.
                    found = lowest_free(frontier);
                }
                continue;
            }

            // Positive step. Fold the rows scanned since the last one
            // into `minv` (scan order, strict `<`: `way` ties resolve to
            // the earliest row); `match_l` still holds the column each
            // was entered through.
            for &i in &scan[relaxed..] {
                let i = i as usize;
                let (jp, base) = (match_l[i], dist - u[i]);
                let row = &w[i * k..][..k];
                for (((m, wy), &wt), &vj) in
                    minv.iter_mut().zip(way.iter_mut()).zip(row).zip(v.iter())
                {
                    let cur = base - wt - vj;
                    if cur < *m {
                        *m = cur;
                        *wy = jp;
                    }
                }
            }
            // Rows beyond the root (`scan[0]`, folded here or swept).
            work.rows_relaxed += (scan.len() - relaxed.max(1)) as u64;
            work.positive_steps += 1;
            relaxed = scan.len();
            let next = minv
                .iter()
                .fold(i64::MAX, |d, &m| if m != SETTLED && m < d { m } else { d });
            let delta = next - dist;
            debug_assert!(delta > 0, "an unsettled tight column was not reached");
            dist = next;
            // Duals move on the settled columns and the scanned rows.
            for j in ones(settled.iter().copied()) {
                u[match_r[j] as usize] += delta;
                v[j] -= delta;
            }
            u[p0] += delta;
            // Unscanned rows (unassigned, or matched to unsettled
            // columns) lose the settled columns: every row does, then the
            // scanned rows get their words back ...
            saved.clear();
            for &i in scan.iter() {
                saved.extend_from_slice(tight.row(i as usize));
            }
            tight.remove_cols(settled);
            for (&i, words) in scan.iter().zip(saved.chunks_exact(settled.len())) {
                tight.row_mut(i as usize).copy_from_slice(words);
            }
            // ... and the columns now at distance zero are the new
            // frontier, tight to whichever scanned rows attain it.
            for (chunk, f) in minv.chunks(64).zip(frontier.iter_mut()) {
                *f = equal_mask(chunk, next);
            }
            for &i in scan.iter() {
                let i = i as usize;
                let (ui, row) = (u[i], &w[i * k..][..k]);
                bitset::insert_where(tight.row_mut(i), frontier, |j| ui + v[j] == -row[j]);
            }
            let reached: u64 = frontier.iter().map(|f| u64::from(f.count_ones())).sum();
            work.tight_tests += reached * scan.len() as u64;
            found = lowest_free(frontier);
        };

        // Flip the alternating path back to the root.
        bitset::remove(free, j_free);
        let mut j = j_free;
        loop {
            let prev = way[j];
            if prev == NIL {
                match_r[j] = p0 as u32;
                match_l[p0] = j as u32;
                break;
            }
            let r = match_r[prev as usize];
            match_r[j] = r;
            match_l[r as usize] = j as u32;
            j = prev as usize;
        }
    }

    /// Check the optimality certificate — the assignment is perfect,
    /// every assigned pair is tight, the duals are feasible on every
    /// pair and within `±MAX_WEIGHT` (with the weights in that range
    /// too, the search's four-term sums cannot overflow) — and the
    /// solver's bitsets: `tight(i, j)` iff `u[i] + v[j] == cost(i, j)`,
    /// `nz(i, j)` iff the cell is nonzero, `free(j)` iff `match_r[j]` is
    /// unassigned (so no column), and no row is flagged infeasible.
    /// Panics (with context) on the first violation. Debug/test aid —
    /// `O(k^2)`.
    pub fn verify_certificate(&self) {
        assert!(self.dirty.is_empty(), "verify called with pending repairs");
        for i in 0..self.k {
            let j = self.match_l[i];
            assert_ne!(j, NIL, "row {i} unassigned");
            assert!(!self.infeasible[i], "row {i} still flagged infeasible");
            assert_eq!(self.match_r[j as usize] as usize, i, "match maps differ");
            assert!(
                self.tight.contains(i, j as usize),
                "assigned pair ({i}, {j}) not tight"
            );
            assert!(
                self.u[i].abs() <= MAX_WEIGHT && self.v[i].abs() <= MAX_WEIGHT,
                "duals of index {i} left the range the search's sums are safe in"
            );
            for j in 0..self.k {
                let rc = -self.w[i * self.k + j] - self.u[i] - self.v[j];
                assert!(rc >= 0, "duals infeasible at ({i}, {j})");
                assert_eq!(
                    self.tight.contains(i, j),
                    rc == 0,
                    "tight bit ({i}, {j}) is stale"
                );
                assert_eq!(
                    self.nz.contains(i, j),
                    self.w[i * self.k + j] != 0,
                    "nonzero bit ({i}, {j}) is stale"
                );
            }
        }
        for j in 0..self.k {
            assert_eq!(
                bitset::contains(&self.free, j),
                self.match_r[j] == NIL,
                "free bit {j} is stale"
            );
        }
        assert!(
            self.tight.tails_clear()
                && self.nz.tails_clear()
                && ones(self.free.iter().copied()).all(|j| j < self.k),
            "a bitset has bits past column {}",
            self.k
        );
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::ScalarScratch;
    use super::*;
    use crate::{max_weight_matching, total_weight, BipartiteGraph};
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// Batch oracle over the same dense matrix.
    fn oracle_weight(s: &HungarianScratch) -> i128 {
        let mut g = BipartiteGraph::new(s.m_in, s.m_out);
        let mut weights = Vec::new();
        for i in 0..s.m_in as u32 {
            for j in 0..s.m_out as u32 {
                if s.weight(i, j) > 0 {
                    g.add_edge(i, j);
                    weights.push(s.weight(i, j) as f64);
                }
            }
        }
        total_weight(&max_weight_matching(&g, &weights), &weights) as i128
    }

    #[test]
    fn empty_matrix_is_trivially_optimal() {
        let mut s = HungarianScratch::new(3, 5);
        s.solve();
        s.verify_certificate();
        assert_eq!(s.total_weight(), 0);
        assert_eq!(s.matched_col(0), None);
        for (m_in, m_out) in [(0, 0), (0, 3), (3, 0)] {
            let mut s = HungarianScratch::new(m_in, m_out);
            s.solve();
            s.verify_certificate();
            assert_eq!(s.total_weight(), 0);
        }
    }

    #[test]
    fn single_updates_track_the_oracle() {
        let mut s = HungarianScratch::new(3, 3);
        s.set_weight(0, 0, 5);
        s.solve();
        assert_eq!(s.total_weight(), 5);
        assert_eq!(s.matched_col(0), Some(0));
        // A conflicting heavier edge steals the column.
        s.set_weight(1, 0, 9);
        s.solve();
        s.verify_certificate();
        assert_eq!(s.total_weight(), 9);
        assert_eq!(s.total_weight(), oracle_weight(&s));
        // Removing the winner hands the column back.
        s.set_weight(1, 0, 0);
        s.solve();
        s.verify_certificate();
        assert_eq!(s.total_weight(), 5);
        assert_eq!(s.matched_col(0), Some(0));
    }

    #[test]
    fn deletion_reopens_a_column_for_a_parked_row() {
        // The stale-dual trap: row 1 parks on a zero cell while row 0
        // holds the only valuable column; when row 0's cell drains, row 1
        // must win the column back even though none of ITS cells changed.
        let mut s = HungarianScratch::new(2, 2);
        s.set_weight(0, 0, 5);
        s.set_weight(1, 0, 3);
        s.solve();
        s.verify_certificate();
        assert_eq!(s.total_weight(), 5);
        s.set_weight(0, 0, 0);
        s.solve();
        s.verify_certificate();
        assert_eq!(s.total_weight(), 3);
        assert_eq!(s.matched_col(1), Some(0));
    }

    #[test]
    fn takes_two_light_over_one_heavy() {
        let mut s = HungarianScratch::new(2, 2);
        s.set_weight(0, 0, 3);
        s.set_weight(0, 1, 2);
        s.set_weight(1, 0, 2);
        s.solve();
        s.verify_certificate();
        assert_eq!(s.total_weight(), 4);
    }

    #[test]
    fn positive_row_offset_is_absorbed_without_repair() {
        let mut s = HungarianScratch::new(2, 3);
        s.set_weight(0, 1, 4);
        s.set_weight(1, 1, 6);
        s.solve();
        assert_eq!(s.total_weight(), 6);
        s.add_row_offset(0, 10);
        // Row 0's only cell is now heavier than row 1's.
        assert!(s.weight(0, 1) == 14);
        s.solve();
        s.verify_certificate();
        assert_eq!(s.total_weight(), oracle_weight(&s));
        assert_eq!(s.total_weight(), 14);
    }

    #[test]
    fn negative_col_offset_dirties_only_the_assigned_row() {
        let mut s = HungarianScratch::new(2, 2);
        s.set_weight(0, 0, 10);
        s.set_weight(1, 0, 8);
        s.set_weight(1, 1, 3);
        s.solve();
        assert_eq!(s.total_weight(), 13);
        s.add_col_offset(0, -6);
        s.solve();
        s.verify_certificate();
        assert_eq!(s.total_weight(), oracle_weight(&s));
    }

    #[test]
    fn rectangular_matrices_pad_correctly() {
        for (m_in, m_out) in [(1, 4), (4, 1), (2, 5), (5, 2)] {
            let mut s = HungarianScratch::new(m_in, m_out);
            for i in 0..m_in as u32 {
                for j in 0..m_out as u32 {
                    s.set_weight(i, j, i64::from(i + 2 * j + 1));
                }
            }
            s.solve();
            s.verify_certificate();
            assert_eq!(s.total_weight(), oracle_weight(&s), "{m_in}x{m_out}");
        }
    }

    #[test]
    #[should_panic(expected = "outside 0 ..= i64::MAX / 4")]
    fn set_weight_enforces_the_documented_bound() {
        HungarianScratch::new(2, 2).set_weight(0, 1, MAX_WEIGHT + 1);
    }

    #[test]
    fn the_largest_weights_solve_in_range() {
        let mut s = HungarianScratch::new(3, 3);
        for (i, j, w) in [
            (0, 0, MAX_WEIGHT),
            (1, 0, MAX_WEIGHT),
            (1, 1, MAX_WEIGHT - 1),
            (2, 2, 1),
        ] {
            s.set_weight(i, j, w);
        }
        s.solve();
        s.verify_certificate();
        // Rows 0 and 1 contend for column 0; row 1 yields to its second best.
        assert_eq!(s.total_weight(), 2 * i128::from(MAX_WEIGHT));
    }

    #[test]
    fn five_cells_at_the_bound_total_past_i64() {
        let mut s = HungarianScratch::new(5, 5);
        for i in 0..5 {
            s.set_weight(i, i, MAX_WEIGHT);
        }
        s.solve();
        s.verify_certificate();
        assert_eq!(s.total_weight(), 5 * i128::from(MAX_WEIGHT));
    }

    #[test]
    fn a_raised_weight_sweeps_a_row_that_still_has_a_tight_column() {
        let mut s = HungarianScratch::new(3, 3);
        for i in 0..3 {
            s.set_weight(i, i, 5 - i64::from(i));
        }
        s.solve();
        let before = s.work();
        // Row 0 keeps tight column 0, but (0, 1) now beats its price:
        // starting from the tight set would put it back on column 0
        // (total 12) instead of taking column 1 (10 + 3).
        s.set_weight(0, 1, 10);
        s.solve();
        s.verify_certificate();
        assert_eq!(s.matched_col(0), Some(1));
        assert_eq!(s.total_weight(), 13);
        assert_eq!(s.work().root_sweeps, before.root_sweeps + 1);
    }

    #[test]
    fn a_drained_cell_with_a_second_tight_column_skips_the_sweep() {
        let mut s = HungarianScratch::new(3, 3);
        s.set_weight(0, 0, 5);
        s.set_weight(0, 1, 5);
        s.solve();
        assert_eq!(s.matched_col(0), Some(0));
        let before = s.work();
        s.set_weight(0, 0, 0);
        s.solve();
        s.verify_certificate();
        assert_eq!(s.matched_col(0), Some(1));
        assert_eq!(s.work().insertions, before.insertions + 1);
        assert_eq!(s.work().root_sweeps, before.root_sweeps);
    }

    /// The tight columns of row `i`.
    fn tight_cols(s: &HungarianScratch, i: usize) -> Vec<usize> {
        ones(s.tight.row(i).iter().copied()).collect()
    }

    #[test]
    fn a_positive_step_trims_only_the_unscanned_rows() {
        // Rows 1 and 2 tie on column 0; row 1 holds it, row 2 sits on
        // column 2, column 1 is free.
        let mut s = HungarianScratch::new(3, 3);
        for (i, j) in [(1, 0), (2, 0), (2, 2)] {
            s.set_weight(i, j, 5);
        }
        s.solve();
        assert_eq!(tight_cols(&s, 2), [0, 2]);
        let before = s.work();
        // Row 0 reaches column 0 and scans row 1, whose only tight column
        // is 0: one positive step with column 0 settled, rows 0 and 1
        // scanned and row 2 not. It reaches columns 1 and 2 and ends on
        // the free one.
        s.set_weight(0, 0, 9);
        s.solve();
        let work = s.work();
        assert_eq!(work.positive_steps, before.positive_steps + 1);
        assert_eq!(work.tight_tests, before.tight_tests + 2 * 2);
        // The scanned rows keep their settled column (row 0 now holds
        // it); the unscanned row loses it.
        assert_eq!(tight_cols(&s, 0), [0]);
        assert_eq!(tight_cols(&s, 1), [0, 1, 2]);
        assert_eq!(tight_cols(&s, 2), [2]);
        assert_eq!(s.match_l, [0, 1, 2]);
        s.verify_certificate();
    }

    #[test]
    fn equal_mask_sets_the_bit_of_each_match() {
        for len in [1, 63, 64] {
            let mut chunk = vec![3; len];
            chunk[len - 1] = 7;
            chunk[0] = 7;
            let top = 1 << (len - 1);
            assert_eq!(equal_mask(&chunk, 7), 1 | top, "{len} entries");
            assert_eq!(
                equal_mask(&chunk, 3),
                !(1 | top) & (top | (top - 1)),
                "{len} entries"
            );
            assert_eq!(equal_mask(&chunk, 5), 0, "{len} entries");
        }
    }

    #[test]
    fn reset_returns_to_the_identity() {
        let mut s = HungarianScratch::new(3, 3);
        s.set_weight(2, 1, 7);
        s.add_row_offset(2, 3);
        s.solve();
        // Flag a row, then forget it: `verify_certificate` checks the flag.
        s.set_weight(1, 0, 9);
        assert!(s.infeasible[1]);
        s.reset();
        s.verify_certificate();
        assert_eq!(s.total_weight(), 0);
        assert!(s.dirty.is_empty());
        s.set_weight(0, 2, 4);
        s.solve();
        assert_eq!(s.total_weight(), 4);
    }

    #[test]
    fn randomized_update_sequences_match_the_oracle() {
        let mut rng = SmallRng::seed_from_u64(0x5c4a);
        for trial in 0..120 {
            let m_in = rng.gen_range(1..6usize);
            let m_out = rng.gen_range(1..6usize);
            let mut s = HungarianScratch::new(m_in, m_out);
            for step in 0..50 {
                // A batch of 1..=3 random updates, then solve + compare.
                for _ in 0..rng.gen_range(1..4u32) {
                    let i = rng.gen_range(0..m_in as u32);
                    let j = rng.gen_range(0..m_out as u32);
                    match rng.gen_range(0..10u32) {
                        0..=5 => s.set_weight(i, j, rng.gen_range(0..20)),
                        6 => s.set_weight(i, j, 0),
                        7 => s.add_row_offset(i, rng.gen_range(1..5)),
                        8 => s.add_col_offset(j, rng.gen_range(1..5)),
                        _ => {
                            // Negative offsets must keep nonzero weights
                            // positive: shrink by less than the minimum.
                            let mut min = i64::MAX;
                            for jj in 0..m_out as u32 {
                                let w = s.weight(i, jj);
                                if w > 0 {
                                    min = min.min(w);
                                }
                            }
                            if min != i64::MAX && min > 1 {
                                s.add_row_offset(i, -rng.gen_range(1..min));
                            }
                        }
                    }
                }
                s.solve();
                s.verify_certificate();
                assert_eq!(
                    s.total_weight(),
                    oracle_weight(&s),
                    "trial {trial} step {step} ({m_in}x{m_out})"
                );
            }
        }
    }

    #[test]
    fn warm_total_matches_cold_rebuild() {
        // After a long update history, a fresh scratch fed the same final
        // matrix must report the same optimum (history independence).
        let mut rng = SmallRng::seed_from_u64(99);
        let mut s = HungarianScratch::new(5, 4);
        for _ in 0..300 {
            s.set_weight(
                rng.gen_range(0..5),
                rng.gen_range(0..4),
                rng.gen_range(0..30),
            );
            if rng.gen_bool(0.2) {
                s.solve();
            }
        }
        s.solve();
        let mut cold = HungarianScratch::new(5, 4);
        for i in 0..5u32 {
            for j in 0..4u32 {
                cold.set_weight(i, j, s.weight(i, j));
            }
        }
        cold.solve();
        s.verify_certificate();
        cold.verify_certificate();
        assert_eq!(s.total_weight(), cold.total_weight());
    }
    /// Shapes of the differential test: every `k` on a word boundary of
    /// the bitsets, square and rectangular both ways.
    const SHAPES: [(usize, usize); 14] = [
        (1, 1),
        (3, 5),
        (5, 3),
        (7, 7),
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

    /// Exclusive weight bounds; `4` is the tie-heavy one.
    const WEIGHT_RANGES: [i64; 4] = [4, 20, 1000, 1 << 40];

    /// Share of cells nonzero before the first batch.
    const FILL_PCTS: [u32; 4] = [0, 5, 50, 100];

    /// Smallest nonzero weight among `cells`, if it leaves room for a
    /// negative offset that keeps every nonzero weight positive.
    fn shrinkable(cells: impl Iterator<Item = i64>) -> Option<i64> {
        cells.filter(|&w| w > 0).min().filter(|&min| min > 1)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The production kernel against its frozen scalar twin: after
        /// every `solve` of a random update history both hold the same
        /// assignment and the same duals (so every later decision agrees
        /// too), and the production bitsets are exact.
        #[test]
        fn tight_walk_equals_the_frozen_scalar_solver(
            shape in 0..SHAPES.len(),
            range in 0..WEIGHT_RANGES.len(),
            fill in 0..FILL_PCTS.len(),
            seed in 0u64..u64::MAX,
            batches in proptest::collection::vec(
                proptest::collection::vec((0u32..12, 0u32..1 << 16, 0u32..1 << 16, 0i64..1 << 40), 1..16),
                1..16,
            ),
        ) {
            let (m_in, m_out) = SHAPES[shape];
            let hi = WEIGHT_RANGES[range];
            let mut new = HungarianScratch::new(m_in, m_out);
            let mut old = ScalarScratch::new(m_in, m_out);
            macro_rules! both {
                ($($call:tt)*) => {{
                    new.$($call)*;
                    old.$($call)*;
                }};
            }
            let mut rng = SmallRng::seed_from_u64(seed);
            for i in 0..m_in as u32 {
                for j in 0..m_out as u32 {
                    if rng.gen_range(0..100u32) < FILL_PCTS[fill] {
                        let w = rng.gen_range(0..hi);
                        both!(set_weight(i, j, w));
                    }
                }
            }
            for (step, batch) in std::iter::once(&Vec::new()).chain(&batches).enumerate() {
                for &(kind, i, j, x) in batch {
                    let (i, j) = (i % m_in as u32, j % m_out as u32);
                    match kind {
                        0..=3 => both!(set_weight(i, j, x % hi)),
                        4 => both!(set_weight(i, j, 0)),
                        5 => both!(add_row_offset(i, 1 + x % hi)),
                        6 => both!(add_col_offset(j, 1 + x % hi)),
                        7 => {
                            let row = (0..m_out as u32).map(|jj| new.weight(i, jj));
                            if let Some(min) = shrinkable(row) {
                                both!(add_row_offset(i, -(1 + x % (min - 1))));
                            }
                        }
                        8 => {
                            let col = (0..m_in as u32).map(|ii| new.weight(ii, j));
                            if let Some(min) = shrinkable(col) {
                                both!(add_col_offset(j, -(1 + x % (min - 1))));
                            }
                        }
                        // One round of aging: every row, like `begin_round`.
                        9 => {
                            for ii in 0..m_in as u32 {
                                both!(add_row_offset(ii, 1 + x % hi));
                            }
                        }
                        // A dispatch: the assigned cell of a row drains.
                        10 => {
                            if let Some(jj) = new.matched_col(i) {
                                both!(set_weight(i, jj, 0));
                            }
                        }
                        _ => both!(solve()),
                    }
                }
                both!(solve());
                let (match_l, u, v) = old.state();
                prop_assert_eq!(&new.match_l[..], match_l, "match_l after batch {}", step);
                prop_assert_eq!(&new.u[..], u, "u after batch {}", step);
                prop_assert_eq!(&new.v[..], v, "v after batch {}", step);
                new.verify_certificate();
            }
        }
    }
}
