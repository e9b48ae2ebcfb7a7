//! Incremental weighted matching shared by the weighted heuristics.
//!
//! The paper's weighted policies (§5.2 **MinRTime** / **MaxWeight**, plus
//! the extension [`crate::AgedMaxWeight`]) each round extract a
//! maximum-weight matching of the waiting graph. Solving that from a cold
//! start every round made them an order of magnitude slower than MaxCard;
//! this module maintains the solution *across* rounds instead, on top of
//! [`fss_matching::HungarianScratch`] (persistent dual potentials,
//! per-row repair).
//!
//! Two drivers share the machinery:
//!
//! * [`WeightedCore`] — the policy-agnostic state machine: the dense
//!   integer weight matrix of the *cell* graph (one entry per port pair,
//!   collapsing parallel edges to the best representative), mirrors of
//!   the per-port queue totals, and the warm-startable solver.
//!   `fss-engine` drives it from queue *events* (arrivals, dispatches);
//!   the policies below drive it by scanning the [`QueueState`] they are
//!   handed.
//! * `WeightedSelector` — the scan driver: diffs the waiting slice
//!   against its mirror of each cell's oldest release and the core's
//!   totals, and feeds the changes through the same canonical update
//!   sequence the engine uses.
//!
//! ## The canonical round sequence
//!
//! Both drivers apply one round's changes in the same order, so for a
//! given stream of queue states the solver walks through *identical*
//! internal states — which is what makes the engine's event-driven path
//! and the reference runner's scan path produce identical schedules (the
//! differential tests in `fss-engine` and `fss-sim` assert this
//! round-for-round):
//!
//! 1. [`WeightedCore::begin_round`] — aging: uniform per-row weight
//!    offsets for the rounds elapsed since the last call (ascending row
//!    order, absorbed into the row potential without any repair);
//! 2. [`WeightedCore::clear_cell`] for every cell that drained to empty
//!    (ascending cell order);
//! 3. [`WeightedCore::set_row_total`] / [`WeightedCore::set_col_total`]
//!    for every port whose queue length changed (rows ascending, then
//!    columns ascending) — queue-size weight terms shift uniformly per
//!    port and are likewise absorbed into the potentials;
//! 4. [`WeightedCore::set_cell`] for every cell whose oldest flow
//!    changed (appeared, or lost its head to a dispatch), ascending;
//! 5. [`WeightedCore::select_into`] — repair (deterministic: dirty rows
//!    ascending) and read out the matching.
//!
//! ## Integer weights
//!
//! All policy weights are integral once the MinRTime aging scale is
//! fixed (see [`WeightModel`]): ages and queue sizes are integers, and
//! [`crate::AgedMaxWeight`]'s mixing coefficient is quantized to
//! `1/1024`ths. Integer arithmetic makes warm-started repair exact — no
//! drift across thousands of rounds of incremental updates.

use fss_matching::{HungarianScratch, SolverWork};

use crate::policy::QueueState;

/// Marks "cell empty" in the oldest-release mirror.
const EMPTY: i64 = -1;

/// Fixed-point denominator for [`WeightModel::AgedMaxWeight`]'s `gamma`.
pub const GAMMA_DENOM: i64 = 1024;

/// How a policy weighs a waiting cell `(p, q)` at round `t`.
///
/// `age` is the waiting time of the cell's **oldest** flow (the best
/// parallel edge under every model here), `in_q`/`out_q` the endpoint
/// queue lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightModel {
    /// `age * scale + 1` with `scale = min(m_in, m_out) + 1`: the
    /// MinRTime objective. The scale exceeds every possible matching
    /// cardinality, so maximizing total weight is the lexicographic
    /// (total age, cardinality) objective regardless of the exact scale
    /// — a `|waiting| + 1` scale would optimize the
    /// same thing with a needlessly large (and round-varying) factor.
    MinRTime,
    /// `in_q + out_q`: the MaxWeight objective (≥ 2 on any waiting
    /// cell, so nonempty cells always beat idle pairs).
    MaxWeight,
    /// `(in_q + out_q + 1) * 1024 + gamma_q * age`: AgedMaxWeight with
    /// `gamma` quantized to `gamma_q / 1024`.
    AgedMaxWeight {
        /// Aging coefficient in `1/1024`ths.
        gamma_q: i64,
    },
}

impl WeightModel {
    /// Per-round aging increment applied to every waiting cell.
    #[inline]
    fn age_coeff(self, scale: i64) -> i64 {
        match self {
            WeightModel::MinRTime => scale,
            WeightModel::MaxWeight => 0,
            WeightModel::AgedMaxWeight { gamma_q } => gamma_q,
        }
    }

    /// Weight contribution of one unit of endpoint queue length.
    #[inline]
    fn queue_coeff(self) -> i64 {
        match self {
            WeightModel::MinRTime => 0,
            WeightModel::MaxWeight => 1,
            WeightModel::AgedMaxWeight { .. } => GAMMA_DENOM,
        }
    }

    /// True when the model reads the endpoint queue lengths.
    #[inline]
    pub fn uses_queue_totals(self) -> bool {
        self.queue_coeff() != 0
    }

    /// Full weight of a nonempty cell. Panics when `age * scale` or
    /// `gamma_q * age` leaves `i64` (an age beyond ~2^63 / m rounds)
    /// instead of wrapping into a wrong schedule; the solver then holds
    /// the result to its `0 ..= i64::MAX / 4` bound.
    #[inline]
    fn weight(self, scale: i64, age: i64, in_q: u32, out_q: u32) -> i64 {
        let q = i64::from(in_q) + i64::from(out_q);
        let aged = |coeff: i64, base: i64| {
            coeff
                .checked_mul(age)
                .and_then(|w| w.checked_add(base))
                .expect("cell weight overflows i64: the flow's age is past the supported horizon")
        };
        match self {
            WeightModel::MinRTime => aged(scale, 1),
            WeightModel::MaxWeight => q,
            WeightModel::AgedMaxWeight { gamma_q } => aged(gamma_q, (q + 1) * GAMMA_DENOM),
        }
    }
}

/// Incremental weighted matching over the `m_in x m_out` cell graph (see
/// the module docs for the update protocol).
#[derive(Debug, Clone)]
pub struct WeightedCore {
    model: WeightModel,
    m_in: usize,
    m_out: usize,
    /// MinRTime aging scale: `min(m_in, m_out) + 1`.
    scale: i64,
    scratch: HungarianScratch,
    /// Mirrored queue lengths per input / output port.
    in_q: Vec<u32>,
    out_q: Vec<u32>,
    /// Round of the last `begin_round` (`None` before the first).
    round: Option<u64>,
}

impl WeightedCore {
    /// Empty core for an `m_in x m_out` switch.
    pub fn new(model: WeightModel, m_in: usize, m_out: usize) -> WeightedCore {
        WeightedCore {
            model,
            m_in,
            m_out,
            scale: (m_in.min(m_out) + 1) as i64,
            scratch: HungarianScratch::new(m_in, m_out),
            in_q: vec![0; m_in],
            out_q: vec![0; m_out],
            round: None,
        }
    }

    /// Input-port count.
    #[inline]
    pub(crate) fn m_in(&self) -> usize {
        self.m_in
    }

    /// Output-port count.
    #[inline]
    pub fn m_out(&self) -> usize {
        self.m_out
    }

    /// The model this core weighs cells with.
    #[inline]
    pub fn model(&self) -> WeightModel {
        self.model
    }

    /// Forget everything (new instance / time moved backwards).
    pub(crate) fn reset(&mut self) {
        self.scratch.reset();
        self.in_q.fill(0);
        self.out_q.fill(0);
        self.round = None;
    }

    /// Step 1: advance the clock to round `t`, aging every waiting cell.
    /// Panics if `t` moves backwards (callers reset instead).
    ///
    /// A jump whose aging offset leaves `i64` ages nothing. `fss-engine`
    /// steps its clock by one round while any flow waits, so such a jump
    /// crosses idle rounds only: the cells still weighted here drained
    /// before it and are cleared in step 2. A flow that did wait that
    /// long still overflows when [`WeightedCore::set_cell`] weighs it.
    pub fn begin_round(&mut self, t: u64) {
        let prev = self.round.replace(t);
        let delta = match prev {
            None => 0,
            Some(p) => {
                assert!(t >= p, "round moved backwards ({p} -> {t}); reset first");
                (t - p) as i64
            }
        };
        let age = self.model.age_coeff(self.scale);
        if delta > 0 && age != 0 {
            if let Some(offset) = age.checked_mul(delta) {
                for i in 0..self.m_in as u32 {
                    self.scratch.add_row_offset(i, offset);
                }
            }
        }
    }

    /// Step 2: cell `(p, q)` drained to empty. No-op on a cell that was
    /// already empty: every nonempty cell weighs at least 1, so weight 0
    /// is exactly "empty".
    pub fn clear_cell(&mut self, p: u32, q: u32) {
        self.scratch.set_weight(p, q, 0);
    }

    /// Step 3a: input port `p` now has `total` waiting flows.
    pub fn set_row_total(&mut self, p: u32, total: u32) {
        let old = std::mem::replace(&mut self.in_q[p as usize], total);
        let coeff = self.model.queue_coeff();
        if coeff != 0 && total != old {
            let delta = (i64::from(total) - i64::from(old)) * coeff;
            self.scratch.add_row_offset(p, delta);
        }
    }

    /// Step 3b: output port `q` now has `total` waiting flows.
    pub fn set_col_total(&mut self, q: u32, total: u32) {
        let old = std::mem::replace(&mut self.out_q[q as usize], total);
        let coeff = self.model.queue_coeff();
        if coeff != 0 && total != old {
            let delta = (i64::from(total) - i64::from(old)) * coeff;
            self.scratch.add_col_offset(q, delta);
        }
    }

    /// Step 4: cell `(p, q)`'s oldest waiting flow is now `release`.
    /// No-op when nothing changed, so drivers may call it on every
    /// nonempty cell.
    pub fn set_cell(&mut self, p: u32, q: u32, release: u64) {
        let t = self.round.expect("begin_round before set_cell");
        debug_assert!(release <= t, "release {release} after round {t}");
        let w = self.model.weight(
            self.scale,
            (t - release) as i64,
            self.in_q[p as usize],
            self.out_q[q as usize],
        );
        self.scratch.set_weight(p, q, w);
    }

    /// Step 5: repair and read out the matching as `(input, output)`
    /// pairs in ascending input order.
    pub fn select_into(&mut self, out: &mut Vec<(u32, u32)>) {
        self.scratch.solve();
        out.clear();
        out.extend(
            (0..self.m_in as u32).filter_map(|p| self.scratch.matched_col(p).map(|q| (p, q))),
        );
    }

    /// Current weight of cell `(p, q)` (0 when empty). Test/debug aid.
    pub fn cell_weight(&self, p: u32, q: u32) -> i64 {
        self.scratch.weight(p, q)
    }

    /// The solver's lifetime work counters ([`HungarianScratch::work`]).
    pub fn solver_work(&self) -> SolverWork {
        self.scratch.work()
    }

    /// Certificate check of the underlying solver (test/debug aid; see
    /// [`HungarianScratch::verify_certificate`]).
    pub fn verify(&self) {
        self.scratch.verify_certificate();
    }
}

/// Scan driver: runs a [`WeightedCore`] from the [`QueueState`] slices
/// the round loops hand to policies, diffing each round's waiting set
/// against the core's mirrors.
#[derive(Debug, Clone)]
pub(crate) struct WeightedSelector {
    core: WeightedCore,
    /// Oldest waiting release per cell as last fed to the core
    /// ([`EMPTY`] when no flow waited).
    oldest: Vec<i64>,
    /// Stamp per cell: "seen in the current scan".
    cell_stamp: Vec<u32>,
    stamp: u32,
    /// Per-cell scan results (valid where `cell_stamp == stamp`).
    new_oldest: Vec<u64>,
    rep: Vec<u32>,
    rep_id: Vec<u32>,
    /// Queue-length histograms (only filled for models that use them).
    in_hist: Vec<u32>,
    out_hist: Vec<u32>,
    /// Reusable selection buffer.
    pairs: Vec<(u32, u32)>,
}

impl WeightedSelector {
    /// Selector for an `m_in x m_out` switch.
    pub(crate) fn new(model: WeightModel, m_in: usize, m_out: usize) -> WeightedSelector {
        WeightedSelector {
            core: WeightedCore::new(model, m_in, m_out),
            oldest: vec![EMPTY; m_in * m_out],
            cell_stamp: vec![0; m_in * m_out],
            stamp: 0,
            new_oldest: vec![0; m_in * m_out],
            rep: vec![0; m_in * m_out],
            rep_id: vec![0; m_in * m_out],
            in_hist: vec![0; m_in],
            out_hist: vec![0; m_out],
            pairs: Vec::new(),
        }
    }

    /// Does this selector fit the given state's dimensions?
    pub(crate) fn fits(&self, state: &QueueState<'_>) -> bool {
        self.core.m_in() == state.m_in && self.core.m_out() == state.m_out
    }

    /// Select this round's matching into a caller-owned buffer (cleared
    /// first): indices into `state.waiting`. Within a cell the
    /// representative is the oldest flow, ties broken by the smallest flow
    /// id (the cell-FIFO order of the engine's queues). Allocation-free,
    /// for per-round use in the engine's hot loops.
    pub(crate) fn choose_into(&mut self, state: &QueueState<'_>, out: &mut Vec<usize>) {
        if self.core.round.is_some_and(|last| state.round <= last) {
            // Rounds strictly increase within one run, so a call at a
            // round we have already seen means the policy was reused on a
            // fresh instance. Start over.
            self.core.reset();
            self.oldest.fill(EMPTY);
        }
        let (m_in, m_out) = (self.core.m_in(), self.core.m_out());
        let model = self.core.model();
        // Scan the waiting slice: per-cell oldest + representative, and
        // queue-length histograms when the model reads them.
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.cell_stamp.fill(0);
            self.stamp = 1;
        }
        let totals = model.uses_queue_totals();
        if totals {
            self.in_hist.fill(0);
            self.out_hist.fill(0);
        }
        for (idx, wf) in state.waiting.iter().enumerate() {
            let cell = wf.src as usize * m_out + wf.dst as usize;
            if totals {
                self.in_hist[wf.src as usize] += 1;
                self.out_hist[wf.dst as usize] += 1;
            }
            if self.cell_stamp[cell] != self.stamp {
                self.cell_stamp[cell] = self.stamp;
                self.new_oldest[cell] = wf.release;
                self.rep[cell] = idx as u32;
                self.rep_id[cell] = wf.id.0;
            } else if (wf.release, wf.id.0) < (self.new_oldest[cell], self.rep_id[cell]) {
                self.new_oldest[cell] = wf.release;
                self.rep[cell] = idx as u32;
                self.rep_id[cell] = wf.id.0;
            }
        }
        // The canonical update sequence (see the module docs).
        self.core.begin_round(state.round);
        for cell in 0..m_in * m_out {
            if self.oldest[cell] != EMPTY && self.cell_stamp[cell] != self.stamp {
                self.oldest[cell] = EMPTY;
                self.core
                    .clear_cell((cell / m_out) as u32, (cell % m_out) as u32);
            }
        }
        if totals {
            for p in 0..m_in {
                self.core.set_row_total(p as u32, self.in_hist[p]);
            }
            for q in 0..m_out {
                self.core.set_col_total(q as u32, self.out_hist[q]);
            }
        }
        for cell in 0..m_in * m_out {
            if self.cell_stamp[cell] == self.stamp
                && self.oldest[cell] != self.new_oldest[cell] as i64
            {
                self.oldest[cell] = self.new_oldest[cell] as i64;
                self.core.set_cell(
                    (cell / m_out) as u32,
                    (cell % m_out) as u32,
                    self.new_oldest[cell],
                );
            }
        }
        let mut pairs = std::mem::take(&mut self.pairs);
        self.core.select_into(&mut pairs);
        out.clear();
        out.extend(
            pairs
                .iter()
                .map(|&(p, q)| self.rep[p as usize * m_out + q as usize] as usize),
        );
        self.pairs = pairs;
    }
}

/// Lazily (re)initialize a policy's selector for the state at hand and
/// run one round of selection — shared by the weighted policy impls.
pub(crate) fn choose_with(
    slot: &mut Option<WeightedSelector>,
    model: WeightModel,
    state: &QueueState<'_>,
) -> Vec<usize> {
    let mut out = Vec::new();
    choose_with_into(slot, model, state, &mut out);
    out
}

/// [`choose_with`] writing into a caller-owned buffer (cleared first).
pub(crate) fn choose_with_into(
    slot: &mut Option<WeightedSelector>,
    model: WeightModel,
    state: &QueueState<'_>,
    out: &mut Vec<usize>,
) {
    let rebuild = match slot {
        Some(sel) => !sel.fits(state) || sel.core.model() != model,
        None => true,
    };
    if rebuild {
        *slot = Some(WeightedSelector::new(model, state.m_in, state.m_out));
    }
    slot.as_mut()
        .expect("just initialized")
        .choose_into(state, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::WaitingFlow;
    use fss_core::FlowId;
    use fss_matching::{max_weight_matching, total_weight, BipartiteGraph};
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    impl WeightedSelector {
        /// [`WeightedSelector::choose_into`] into a fresh buffer.
        fn choose(&mut self, state: &QueueState<'_>) -> Vec<usize> {
            let mut out = Vec::new();
            self.choose_into(state, &mut out);
            out
        }
    }

    fn wf(id: u32, src: u32, dst: u32, release: u64) -> WaitingFlow {
        WaitingFlow {
            id: FlowId(id),
            src,
            dst,
            release,
        }
    }

    /// Batch oracle: total weight of the optimal matching under the same
    /// integer weights the selector uses.
    fn oracle_weight(model: WeightModel, state: &QueueState<'_>) -> i64 {
        let scale = (state.m_in.min(state.m_out) + 1) as i64;
        let mut in_q = vec![0u32; state.m_in];
        let mut out_q = vec![0u32; state.m_out];
        for w in state.waiting {
            in_q[w.src as usize] += 1;
            out_q[w.dst as usize] += 1;
        }
        let mut g = BipartiteGraph::new(state.m_in, state.m_out);
        let weights: Vec<f64> = state
            .waiting
            .iter()
            .map(|w| {
                g.add_edge(w.src, w.dst);
                model.weight(
                    scale,
                    (state.round - w.release) as i64,
                    in_q[w.src as usize],
                    out_q[w.dst as usize],
                ) as f64
            })
            .collect();
        total_weight(&max_weight_matching(&g, &weights), &weights) as i64
    }

    fn selection_weight(model: WeightModel, state: &QueueState<'_>, sel: &[usize]) -> i64 {
        let scale = (state.m_in.min(state.m_out) + 1) as i64;
        let mut in_q = vec![0u32; state.m_in];
        let mut out_q = vec![0u32; state.m_out];
        for w in state.waiting {
            in_q[w.src as usize] += 1;
            out_q[w.dst as usize] += 1;
        }
        sel.iter()
            .map(|&k| {
                let w = &state.waiting[k];
                model.weight(
                    scale,
                    (state.round - w.release) as i64,
                    in_q[w.src as usize],
                    out_q[w.dst as usize],
                )
            })
            .sum()
    }

    #[test]
    fn minrtime_model_prefers_older_flows() {
        let mut sel = WeightedSelector::new(WeightModel::MinRTime, 1, 1);
        let w = [wf(0, 0, 0, 5), wf(1, 0, 0, 1)];
        let state = QueueState {
            round: 6,
            waiting: &w,
            m_in: 1,
            m_out: 1,
        };
        assert_eq!(sel.choose(&state), vec![1]);
    }

    #[test]
    fn representative_breaks_release_ties_by_flow_id() {
        let mut sel = WeightedSelector::new(WeightModel::MinRTime, 1, 1);
        // Same release, ids out of scan order: the smaller id wins.
        let w = [wf(7, 0, 0, 2), wf(3, 0, 0, 2)];
        let state = QueueState {
            round: 4,
            waiting: &w,
            m_in: 1,
            m_out: 1,
        };
        assert_eq!(sel.choose(&state), vec![1]);
    }

    #[test]
    fn randomized_rounds_match_the_batch_oracle() {
        // Dynamic queue evolution: random arrivals/departures between
        // rounds, occasional time jumps; the incremental selection's
        // weight must equal the batch Hungarian's every round.
        let mut rng = SmallRng::seed_from_u64(0x5eed_1234);
        for model in [
            WeightModel::MinRTime,
            WeightModel::MaxWeight,
            WeightModel::AgedMaxWeight { gamma_q: 700 },
        ] {
            for trial in 0..25 {
                let m_in = rng.gen_range(1..6usize);
                let m_out = rng.gen_range(1..6usize);
                let mut sel = WeightedSelector::new(model, m_in, m_out);
                let mut waiting: Vec<WaitingFlow> = Vec::new();
                let mut next_id = 0u32;
                let mut t = 0u64;
                for _round in 0..40 {
                    for _ in 0..rng.gen_range(0..4u32) {
                        waiting.push(wf(
                            next_id,
                            rng.gen_range(0..m_in as u32),
                            rng.gen_range(0..m_out as u32),
                            t,
                        ));
                        next_id += 1;
                    }
                    if !waiting.is_empty() {
                        let state = QueueState {
                            round: t,
                            waiting: &waiting,
                            m_in,
                            m_out,
                        };
                        let picked = sel.choose(&state);
                        sel.core.verify();
                        let got = selection_weight(model, &state, &picked);
                        let want = oracle_weight(model, &state);
                        assert_eq!(
                            got, want,
                            "{model:?} trial {trial} round {t}: {got} != oracle {want}"
                        );
                        // Remove selected flows (descending index).
                        let mut picked = picked;
                        picked.sort_unstable();
                        for &k in picked.iter().rev() {
                            waiting.swap_remove(k);
                        }
                    }
                    t += rng.gen_range(1..4u64);
                }
            }
        }
    }

    #[test]
    fn reset_on_time_regression() {
        let mut sel = WeightedSelector::new(WeightModel::MinRTime, 2, 2);
        let w = [wf(0, 0, 0, 10)];
        let state = QueueState {
            round: 12,
            waiting: &w,
            m_in: 2,
            m_out: 2,
        };
        assert_eq!(sel.choose(&state), vec![0]);
        // A fresh instance restarts the clock at 0: must not panic.
        let w2 = [wf(0, 1, 1, 0)];
        let state2 = QueueState {
            round: 0,
            waiting: &w2,
            m_in: 2,
            m_out: 2,
        };
        assert_eq!(sel.choose(&state2), vec![0]);
    }

    #[test]
    fn reused_selector_matches_a_fresh_one() {
        // A time regression resets the solver in place (weights, duals,
        // assignment and its tight / nonzero / free bitsets): the second
        // run on the reused selector must pick what a fresh one picks.
        let mut rng = SmallRng::seed_from_u64(0xb175);
        for model in [
            WeightModel::MinRTime,
            WeightModel::MaxWeight,
            WeightModel::AgedMaxWeight { gamma_q: 512 },
        ] {
            let (m_in, m_out) = (5, 4);
            let mut reused = WeightedSelector::new(model, m_in, m_out);
            for _run in 0..3 {
                let mut fresh = WeightedSelector::new(model, m_in, m_out);
                let mut waiting: Vec<WaitingFlow> = Vec::new();
                let mut next_id = 0u32;
                for t in 0..30u64 {
                    for _ in 0..rng.gen_range(0..5u32) {
                        waiting.push(wf(
                            next_id,
                            rng.gen_range(0..m_in as u32),
                            rng.gen_range(0..m_out as u32),
                            t,
                        ));
                        next_id += 1;
                    }
                    if waiting.is_empty() {
                        continue;
                    }
                    let state = QueueState {
                        round: t,
                        waiting: &waiting,
                        m_in,
                        m_out,
                    };
                    let mut picked = reused.choose(&state);
                    assert_eq!(picked, fresh.choose(&state), "{model:?} round {t}");
                    reused.core.verify();
                    picked.sort_unstable();
                    for &k in picked.iter().rev() {
                        waiting.swap_remove(k);
                    }
                }
            }
        }
    }

    #[test]
    fn a_million_round_wait_stays_in_range() {
        // One flow waits while the clock jumps 10^6 rounds in a single
        // `begin_round`: the aging offset, the duals it is absorbed into
        // and the next repair all stay in range.
        for model in [
            WeightModel::MinRTime,
            WeightModel::AgedMaxWeight { gamma_q: 700 },
        ] {
            let mut core = WeightedCore::new(model, 150, 150);
            let mut sel = Vec::new();
            core.begin_round(0);
            core.set_row_total(3, 1);
            core.set_col_total(9, 1);
            core.set_cell(3, 9, 0);
            core.select_into(&mut sel);
            let t = 1_000_000u64;
            core.begin_round(t);
            core.set_row_total(4, 1);
            core.set_col_total(9, 2);
            core.set_cell(4, 9, t);
            core.select_into(&mut sel);
            core.verify();
            assert_eq!(sel, vec![(3, 9)], "{model:?}: the old flow wins the port");
            let want = model.weight(151, t as i64, 1, 2);
            assert_eq!(core.cell_weight(3, 9), want, "{model:?}");
        }
    }

    #[test]
    #[should_panic(expected = "past the supported horizon")]
    fn an_age_that_overflows_the_weight_panics() {
        WeightModel::MinRTime.weight(151, i64::MAX / 100, 0, 0);
    }
}
