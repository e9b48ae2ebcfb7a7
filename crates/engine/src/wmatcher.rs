//! Incremental *weighted* matching across rounds — the MinRTime/MaxWeight
//! sibling of [`crate::matcher::IncrementalMatcher`].
//!
//! [`IncrementalWeightedMatcher`] maintains the maximum-weight matching
//! of the waiting cell graph across rounds: dual potentials and the
//! assignment carry over, and each round re-solves only the rows and
//! columns dirtied by arrivals, dispatches, and (through the failure
//! drive) outage windows. The heavy lifting lives in
//! [`fss_online::weighted::WeightedCore`] over
//! [`fss_matching::HungarianScratch`]; this type is the *event* driver:
//! the drive loop notifies it of every queue mutation and it batches the
//! changes into the canonical per-round update sequence (see the
//! `fss_online::weighted` module docs), which is exactly the sequence the
//! scan-driven policies apply — so the event-driven engine path and the
//! reference round loop walk through identical solver states and produce
//! identical schedules. The batch Hungarian
//! ([`fss_matching::max_weight_matching`]) stays untouched as the
//! differential-test oracle: every round's matched weight equals the
//! from-scratch optimum (randomized checks in this crate's tests).

use crate::queue::ShardedQueues;
use fss_matching::SolverWork;
use fss_online::{WeightModel, WeightedCore};

/// Event-driven incremental weighted matcher (see the module docs).
#[derive(Debug)]
pub struct IncrementalWeightedMatcher {
    core: WeightedCore,
    /// Cells touched since the last `select` (dedup via `cell_mark`).
    touched: Vec<u32>,
    cell_mark: Vec<bool>,
    /// Ports whose queue totals changed (only tracked when the model
    /// reads them).
    rows: Vec<u32>,
    row_mark: Vec<bool>,
    cols: Vec<u32>,
    col_mark: Vec<bool>,
    /// Rounds solved (telemetry).
    selects: u64,
    /// Dirty cells applied across all rounds (telemetry).
    cells_touched: u64,
}

impl IncrementalWeightedMatcher {
    /// Empty matcher over an `m_in x m_out` port grid.
    pub fn new(model: WeightModel, m_in: usize, m_out: usize) -> IncrementalWeightedMatcher {
        IncrementalWeightedMatcher {
            core: WeightedCore::new(model, m_in, m_out),
            touched: Vec::new(),
            cell_mark: vec![false; m_in * m_out],
            rows: Vec::new(),
            row_mark: vec![false; m_in],
            cols: Vec::new(),
            col_mark: vec![false; m_out],
            selects: 0,
            cells_touched: 0,
        }
    }

    /// Lifetime work counters: `(selects, cells_touched)` — rounds
    /// solved and the dirty cells re-applied across them — followed by
    /// the solver's counters ([`fss_matching::HungarianScratch::work`]).
    /// Surfaced through engine telemetry.
    pub fn work(&self) -> (u64, u64, SolverWork) {
        (self.selects, self.cells_touched, self.core.solver_work())
    }

    /// Note a queue mutation on cell `(p, q)` — an arrival landed or a
    /// dispatch popped the cell's head. Totals and the cell's oldest
    /// flow are read back from the queues at [`select`] time, so the
    /// order of notes within a round does not matter.
    ///
    /// [`select`]: IncrementalWeightedMatcher::select
    pub fn note(&mut self, p: u32, q: u32) {
        let cell = p as usize * self.core.m_out() + q as usize;
        if !self.cell_mark[cell] {
            self.cell_mark[cell] = true;
            self.touched.push(cell as u32);
        }
        if self.core.model().uses_queue_totals() {
            if !self.row_mark[p as usize] {
                self.row_mark[p as usize] = true;
                self.rows.push(p);
            }
            if !self.col_mark[q as usize] {
                self.col_mark[q as usize] = true;
                self.cols.push(q);
            }
        }
    }

    /// Apply the buffered changes for round `t` against the live queue
    /// state, repair the matching, and write the dispatch set (matched
    /// `(input, output)` pairs, ascending input) into `out`. A debug
    /// build checks the solver's optimality certificate every round.
    pub fn select(&mut self, t: u64, queues: &ShardedQueues, out: &mut Vec<(u32, u32)>) {
        let m_out = self.core.m_out();
        self.selects += 1;
        self.cells_touched += self.touched.len() as u64;
        self.core.begin_round(t);
        self.touched.sort_unstable();
        // Emptied cells first: their weights drop out before the queue
        // offsets, keeping every surviving weight positive.
        for &cell in &self.touched {
            let (p, q) = (
                (cell as usize / m_out) as u32,
                (cell as usize % m_out) as u32,
            );
            if queues.cell_is_empty(cell as usize) {
                self.core.clear_cell(p, q);
            }
        }
        if self.core.model().uses_queue_totals() {
            self.rows.sort_unstable();
            for &p in &self.rows {
                self.core.set_row_total(p, queues.in_total(p));
                self.row_mark[p as usize] = false;
            }
            self.cols.sort_unstable();
            for &q in &self.cols {
                self.core.set_col_total(q, queues.out_total(q));
                self.col_mark[q as usize] = false;
            }
            self.rows.clear();
            self.cols.clear();
        }
        for &cell in &self.touched {
            let (p, q) = (
                (cell as usize / m_out) as u32,
                (cell as usize % m_out) as u32,
            );
            if let Some(head) = queues.peek_oldest(p, q) {
                self.core.set_cell(p, q, head.release());
            }
            self.cell_mark[cell as usize] = false;
        }
        self.touched.clear();
        self.core.select_into(out);
        #[cfg(debug_assertions)]
        self.core.verify();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fss_matching::{max_weight_matching, total_weight, BipartiteGraph};
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// Batch-oracle weight of the optimal matching on the live queues.
    fn oracle_weight(model: WeightModel, t: u64, queues: &TestQueues) -> i64 {
        let (m_in, m_out) = (queues.m_in, queues.m_out);
        let scale = (m_in.min(m_out) + 1) as i64;
        let mut g = BipartiteGraph::new(m_in, m_out);
        let mut weights = Vec::new();
        for p in 0..m_in as u32 {
            for q in 0..m_out as u32 {
                if let Some(&rel) = queues.cells[p as usize * m_out + q as usize].first() {
                    g.add_edge(p, q);
                    let age = (t - rel) as i64;
                    let w = match model {
                        WeightModel::MinRTime => age * scale + 1,
                        WeightModel::MaxWeight => {
                            i64::from(queues.in_tot[p as usize] + queues.out_tot[q as usize])
                        }
                        WeightModel::AgedMaxWeight { gamma_q } => {
                            (i64::from(queues.in_tot[p as usize] + queues.out_tot[q as usize]) + 1)
                                * fss_online::weighted::GAMMA_DENOM
                                + gamma_q * age
                        }
                    };
                    weights.push(w as f64);
                }
            }
        }
        total_weight(&max_weight_matching(&g, &weights), &weights) as i64
    }

    /// A simple mirror of `ShardedQueues` that the test can inspect.
    struct TestQueues {
        m_in: usize,
        m_out: usize,
        cells: Vec<Vec<u64>>, // sorted releases per cell
        in_tot: Vec<u32>,
        out_tot: Vec<u32>,
        real: ShardedQueues,
    }

    impl TestQueues {
        fn new(m_in: usize, m_out: usize) -> TestQueues {
            TestQueues {
                m_in,
                m_out,
                cells: vec![Vec::new(); m_in * m_out],
                in_tot: vec![0; m_in],
                out_tot: vec![0; m_out],
                real: ShardedQueues::new(m_in, m_out),
            }
        }

        fn push(&mut self, p: u32, q: u32, id: u64, rel: u64) {
            self.cells[p as usize * self.m_out + q as usize].push(rel);
            self.in_tot[p as usize] += 1;
            self.out_tot[q as usize] += 1;
            self.real.push(p, q, id, rel);
        }

        fn pop(&mut self, p: u32, q: u32) {
            self.cells[p as usize * self.m_out + q as usize].remove(0);
            self.in_tot[p as usize] -= 1;
            self.out_tot[q as usize] -= 1;
            self.real.pop_oldest(p, q);
        }
    }

    #[test]
    fn randomized_dynamics_track_the_batch_oracle() {
        // Random arrival/dispatch churn with time jumps: every round's
        // matched weight must equal the from-scratch batch Hungarian's.
        let mut rng = SmallRng::seed_from_u64(0x000f_eed5);
        for model in [
            WeightModel::MinRTime,
            WeightModel::MaxWeight,
            WeightModel::AgedMaxWeight { gamma_q: 512 },
        ] {
            for trial in 0..20 {
                let m_in = rng.gen_range(1..5usize);
                let m_out = rng.gen_range(1..5usize);
                let mut q = TestQueues::new(m_in, m_out);
                let mut m = IncrementalWeightedMatcher::new(model, m_in, m_out);
                let mut t = 0u64;
                let mut next_id = 0u64;
                let mut sel = Vec::new();
                for _round in 0..60 {
                    for _ in 0..rng.gen_range(0..4u32) {
                        let (p, d) = (
                            rng.gen_range(0..m_in as u32),
                            rng.gen_range(0..m_out as u32),
                        );
                        q.push(p, d, next_id, t);
                        m.note(p, d);
                        next_id += 1;
                    }
                    if !q.real.is_empty() {
                        m.select(t, &q.real, &mut sel);
                        m.core.verify();
                        let got: i64 = sel.iter().map(|&(p, d)| m.core.cell_weight(p, d)).sum();
                        let want = oracle_weight(model, t, &q);
                        assert_eq!(got, want, "{model:?} trial {trial} round {t}");
                        // Dispatch the selection (like the drive loop).
                        for &(p, d) in &sel {
                            q.pop(p, d);
                            m.note(p, d);
                        }
                    }
                    t += rng.gen_range(1..3u64);
                }
            }
        }
    }

    #[test]
    fn empty_rounds_select_nothing() {
        let mut m = IncrementalWeightedMatcher::new(WeightModel::MinRTime, 2, 2);
        let q = ShardedQueues::new(2, 2);
        let mut sel = Vec::new();
        m.select(3, &q, &mut sel);
        assert!(sel.is_empty());
    }

    #[test]
    fn a_million_rounds_of_sparse_arrivals_stay_in_range() {
        // ROADMAP 5c's long horizon: T = 10^6, a small burst about every
        // 500 rounds, the clock jumping the idle rounds in between like
        // the drive loop does. Each burst contends for one output port,
        // so flows age while they wait. `verify` holds the duals to the
        // range in which the search's sums cannot overflow.
        let mut rng = SmallRng::seed_from_u64(0x10_0000);
        let (m_in, m_out) = (40, 40);
        for model in [
            WeightModel::MinRTime,
            WeightModel::AgedMaxWeight { gamma_q: 512 },
        ] {
            let mut queues = ShardedQueues::new(m_in, m_out);
            let mut m = IncrementalWeightedMatcher::new(model, m_in, m_out);
            let (mut t, mut next_id, mut dispatched) = (0u64, 0u64, 0u64);
            let mut sel = Vec::new();
            while t < 1_000_000 {
                let d = rng.gen_range(0..m_out as u32);
                for _ in 0..rng.gen_range(1..5u32) {
                    let p = rng.gen_range(0..m_in as u32);
                    queues.push(p, d, next_id, t);
                    m.note(p, d);
                    next_id += 1;
                }
                while !queues.is_empty() {
                    m.select(t, &queues, &mut sel);
                    m.core.verify();
                    assert!(!sel.is_empty(), "{model:?} round {t}");
                    for &(p, q) in &sel {
                        queues.pop_oldest(p, q);
                        m.note(p, q);
                        dispatched += 1;
                    }
                    t += 1;
                }
                t += rng.gen_range(1..1000u64);
            }
            assert_eq!(dispatched, next_id, "{model:?}");
        }
    }
}
