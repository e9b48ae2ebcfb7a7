//! Exact-parity round core: reproduces the legacy
//! [`fss_online::run_policy`] loop decision-for-decision, so engine-driven
//! runs are differentially testable (round-for-round identical schedules)
//! while still cutting the per-round cost.
//!
//! Two ingredients make the parity claim hold:
//!
//! 1. **Queue discipline mirror.** The waiting vector is maintained with
//!    the same push order (sorted by `(release, id)` via the
//!    [`crate::FlowSource`] ordering contract) and the same
//!    descending-index `swap_remove` after each round, so at every round
//!    the engine's waiting vector is *identical as a sequence* to the
//!    legacy runner's. Policies that read `QueueState` therefore see the
//!    exact same input and return the exact same selection.
//!
//! 2. **Dedup-compressed Hopcroft–Karp for MaxCard.** The legacy MaxCard
//!    runs HK over the full waiting multigraph (one edge per waiting
//!    flow). HK's BFS/DFS both ignore a parallel edge whose `(port, port)`
//!    pair was already reachable/tried — a failed DFS attempt mutates
//!    nothing, so a later parallel copy fails identically, and the first
//!    occurrence is always the one that succeeds. Running the *same
//!    traversal* over the first-occurrence-deduped adjacency (at most
//!    `m_in * m_out` edges instead of one per queued flow) therefore
//!    yields the same matched pairs *and* the same representative edge
//!    ids. At `M = 4m` the queue holds thousands of parallel edges per
//!    cell; this is the asymptotic win on the hot path.
//!
//! ## Port outages
//!
//! Under a [`FailurePlan`] the core offers the selector only the flows
//! whose both ports are up this round (the *visible* subset, in waiting
//! order) and maps the selection back — decision-for-decision the legacy
//! batch failure runner (`fss_online::run_policy_under`):
//! same `(release, id)` ingest order, same visible-subset construction,
//! same descending-index `swap_remove`. When every waiting flow sits on
//! a dead port the round loop jumps the clock to the next outage end
//! (`RoundCore::blocked_until`). Without a plan none of this runs and
//! its scratch stays unallocated.

use crate::source::Arrival;
use crate::stream::RoundCore;
use fss_core::{FailurePlan, PortSide};
use fss_online::{OnlinePolicy, QueueState, WaitingFlow};
use fss_telemetry::{span, EngineTelemetry, Stage};
use std::collections::VecDeque;

const NIL: u32 = u32::MAX;
const INF: u32 = u32::MAX;

/// How a round's matching is chosen in exact mode.
pub enum Selector<'p> {
    /// Legacy-identical MaxCard via dedup-compressed Hopcroft–Karp.
    MaxCard,
    /// Any [`OnlinePolicy`] — invoked on the mirrored waiting state, so
    /// its decisions (and thus the schedule) match the legacy loop's.
    Policy(&'p mut dyn OnlinePolicy),
}

impl Selector<'_> {
    /// Display name (mirrors the policy names used in panics/reports).
    pub fn name(&self) -> &str {
        match self {
            Selector::MaxCard => "MaxCard",
            Selector::Policy(p) => p.name(),
        }
    }
}

/// Mirrored waiting state plus reusable matching scratch.
pub struct ExactCore {
    m_in: usize,
    m_out: usize,
    /// Legacy-ordered waiting vector (the parity-critical structure).
    pub waiting: Vec<WaitingFlow>,
    /// This round's selection (sorted waiting indices).
    selection: Vec<usize>,
    // --- outage-mask scratch (stays empty without a plan) ---
    /// Waiting indices whose both ports are up this round, ascending.
    usable: Vec<usize>,
    /// `waiting[usable[..]]`: what the selector sees under a plan.
    visible: Vec<WaitingFlow>,
    // --- MaxCard scratch (reused across rounds; no per-round allocs) ---
    /// First-occurrence deduped adjacency: per input port, `(dst, edge)`
    /// where `edge` indexes `waiting`.
    adj: Vec<Vec<(u32, u32)>>,
    touched: Vec<u32>,
    cell_stamp: Vec<u32>,
    stamp: u32,
    match_l: Vec<u32>,
    match_r: Vec<u32>,
    match_edge: Vec<u32>,
    dist: Vec<u32>,
    bfs: VecDeque<u32>,
    // --- validation scratch for the Policy path ---
    used_in: Vec<bool>,
    used_out: Vec<bool>,
}

impl ExactCore {
    /// Empty state for an `m_in x m_out` unit-capacity switch.
    pub fn new(m_in: usize, m_out: usize) -> ExactCore {
        ExactCore {
            m_in,
            m_out,
            waiting: Vec::new(),
            selection: Vec::new(),
            usable: Vec::new(),
            visible: Vec::new(),
            adj: vec![Vec::new(); m_in],
            touched: Vec::new(),
            cell_stamp: vec![0; m_in * m_out],
            stamp: 0,
            match_l: vec![NIL; m_in],
            match_r: vec![NIL; m_out],
            match_edge: vec![NIL; m_in],
            dist: vec![INF; m_in],
            bfs: VecDeque::new(),
            used_in: vec![false; m_in],
            used_out: vec![false; m_out],
        }
    }

    /// Append a released flow (callers feed arrivals in `(release, id)`
    /// order, matching the legacy ingest).
    pub fn push_waiting(&mut self, id: u32, src: u32, dst: u32, release: u64) {
        self.waiting.push(WaitingFlow {
            id: fss_core::FlowId(id),
            src,
            dst,
            release,
        });
    }

    /// Fill `usable` with the waiting flows whose both ports are up at
    /// `round`; true when there is at least one.
    pub fn mask(&mut self, plan: &FailurePlan, round: u64) -> bool {
        let waiting = &self.waiting;
        self.usable.clear();
        self.usable.extend((0..waiting.len()).filter(|&k| {
            let w = &waiting[k];
            plan.is_up(PortSide::Input, w.src, round) && plan.is_up(PortSide::Output, w.dst, round)
        }));
        !self.usable.is_empty()
    }

    /// Choose this round's matching; returns the sorted, deduped,
    /// validated selection (indices into `waiting`). With `masked`, the
    /// selector sees only the flows the last [`ExactCore::mask`] call
    /// found usable.
    pub fn select(&mut self, round: u64, selector: &mut Selector<'_>, masked: bool) -> &[usize] {
        // The selector reads the flow slice while the scratch it fills
        // is borrowed mutably: lend the slice out of `self` meanwhile.
        let flows = if masked {
            self.visible.clear();
            self.visible
                .extend(self.usable.iter().map(|&k| self.waiting[k]));
            std::mem::take(&mut self.visible)
        } else {
            std::mem::take(&mut self.waiting)
        };
        match selector {
            Selector::MaxCard => self.select_maxcard(&flows),
            Selector::Policy(p) => self.select_policy(round, &flows, *p),
        }
        if masked {
            // `usable` ascends, so the mapped selection stays sorted.
            for k in self.selection.iter_mut() {
                *k = self.usable[*k];
            }
            self.visible = flows;
        } else {
            self.waiting = flows;
        }
        &self.selection
    }

    /// Dispatch bookkeeping: remove the selection exactly like the legacy
    /// loop (descending-index `swap_remove`), preserving vector parity.
    pub fn remove_selection(&mut self) {
        for i in (0..self.selection.len()).rev() {
            let k = self.selection[i];
            self.waiting.swap_remove(k);
        }
    }

    fn select_policy(&mut self, round: u64, flows: &[WaitingFlow], policy: &mut dyn OnlinePolicy) {
        let state = QueueState {
            round,
            waiting: flows,
            m_in: self.m_in,
            m_out: self.m_out,
        };
        // Reuse the persistent selection buffer: policies write into it
        // via `choose_into`, so the hot loop stays allocation-free.
        let mut sel = std::mem::take(&mut self.selection);
        policy.choose_into(&state, &mut sel);
        sel.sort_unstable();
        sel.dedup();
        // Validate exactly like the legacy runner: panics on a
        // non-matching, because policies are trusted components.
        for p in self.used_in.iter_mut() {
            *p = false;
        }
        for q in self.used_out.iter_mut() {
            *q = false;
        }
        for &k in &sel {
            let w = &flows[k];
            assert!(
                !self.used_in[w.src as usize] && !self.used_out[w.dst as usize],
                "policy {} returned a non-matching at round {round}",
                policy.name()
            );
            self.used_in[w.src as usize] = true;
            self.used_out[w.dst as usize] = true;
        }
        self.selection = sel;
    }

    /// Hopcroft–Karp over the deduped support adjacency, mirroring
    /// `fss_matching::max_cardinality_matching`'s traversal order.
    // Out of line on purpose: merged into `select` beside the policy arm
    // the HK loops below compile ~10 % slower (measured on the m = 150,
    // M = 4m MaxCard cell), and one call a round costs nothing.
    #[inline(never)]
    fn select_maxcard(&mut self, flows: &[WaitingFlow]) {
        // Build first-occurrence adjacency from the mirrored vector.
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Stamp wrapped: reset the grid once.
            self.cell_stamp.fill(0);
            self.stamp = 1;
        }
        for p in self.touched.drain(..) {
            self.adj[p as usize].clear();
        }
        for (k, w) in flows.iter().enumerate() {
            let cell = w.src as usize * self.m_out + w.dst as usize;
            if self.cell_stamp[cell] != self.stamp {
                self.cell_stamp[cell] = self.stamp;
                if self.adj[w.src as usize].is_empty() {
                    self.touched.push(w.src);
                }
                self.adj[w.src as usize].push((w.dst, k as u32));
            }
        }
        // HK phases, structured exactly like the reference implementation.
        self.match_l.fill(NIL);
        self.match_r.fill(NIL);
        loop {
            self.bfs.clear();
            for u in 0..self.m_in {
                if self.match_l[u] == NIL {
                    self.dist[u] = 0;
                    self.bfs.push_back(u as u32);
                } else {
                    self.dist[u] = INF;
                }
            }
            let mut found = false;
            while let Some(u) = self.bfs.pop_front() {
                for &(v, _) in &self.adj[u as usize] {
                    let w = self.match_r[v as usize];
                    if w == NIL {
                        found = true;
                    } else if self.dist[w as usize] == INF {
                        self.dist[w as usize] = self.dist[u as usize] + 1;
                        self.bfs.push_back(w);
                    }
                }
            }
            if !found {
                break;
            }
            for u in 0..self.m_in as u32 {
                if self.match_l[u as usize] == NIL {
                    hk_dfs(
                        u,
                        &self.adj,
                        &mut self.match_l,
                        &mut self.match_r,
                        &mut self.match_edge,
                        &mut self.dist,
                    );
                }
            }
        }
        self.selection.clear();
        for u in 0..self.m_in {
            if self.match_l[u] != NIL {
                self.selection.push(self.match_edge[u] as usize);
            }
        }
        // The legacy runner sorts + dedups the policy's return value.
        self.selection.sort_unstable();
    }
}

/// Layered-DFS augmentation, identical in traversal order to the
/// reference `fss_matching::hopcroft_karp::dfs`.
fn hk_dfs(
    u: u32,
    adj: &[Vec<(u32, u32)>],
    match_l: &mut [u32],
    match_r: &mut [u32],
    match_edge: &mut [u32],
    dist: &mut [u32],
) -> bool {
    for idx in 0..adj[u as usize].len() {
        let (v, e) = adj[u as usize][idx];
        let w = match_r[v as usize];
        let ok = w == NIL
            || (dist[w as usize] == dist[u as usize] + 1
                && hk_dfs(w, adj, match_l, match_r, match_edge, dist));
        if ok {
            match_l[u as usize] = v;
            match_r[v as usize] = u;
            match_edge[u as usize] = e;
            return true;
        }
    }
    dist[u as usize] = INF;
    false
}

/// The exact rule as the round loop drives it: the mirrored core, the
/// selector choosing its rounds, and the outage plan masking them.
pub(crate) struct ExactRound<'a> {
    core: ExactCore,
    selector: Selector<'a>,
    plan: Option<&'a FailurePlan>,
    /// Emit a round's dispatches by ascending input port instead of by
    /// waiting index. Set for the scan-driven twin of a weighted rule:
    /// it is the order the queue-backed weighted matcher dispatches in,
    /// so a weighted run emits one sequence with or without a plan.
    by_port: bool,
}

impl<'a> ExactRound<'a> {
    pub(crate) fn new(
        m_in: usize,
        m_out: usize,
        selector: Selector<'a>,
        plan: Option<&'a FailurePlan>,
        by_port: bool,
    ) -> ExactRound<'a> {
        ExactRound {
            core: ExactCore::new(m_in, m_out),
            selector,
            plan,
            by_port,
        }
    }
}

impl RoundCore for ExactRound<'_> {
    fn push(&mut self, a: Arrival) {
        debug_assert!(
            u32::try_from(a.id).is_ok(),
            "exact mode addresses flows as u32 ids"
        );
        self.core.push_waiting(a.id as u32, a.src, a.dst, a.release);
    }

    fn backlog(&self) -> usize {
        self.core.waiting.len()
    }

    fn blocked_until(&mut self, t: u64, tele: &mut EngineTelemetry) -> Option<u64> {
        let plan = self.plan?;
        if span!(tele, Stage::QueueUpdate, self.core.mask(plan, t)) {
            return None;
        }
        let next_end = plan.outages.iter().map(|o| o.to).filter(|&to| to > t).min();
        Some(next_end.expect("a blocked port is covered by an outage ending after t"))
    }

    fn select(&mut self, t: u64) {
        self.core.select(t, &mut self.selector, self.plan.is_some());
    }

    fn dispatch(&mut self, mut emit: impl FnMut(u64, u64)) -> usize {
        let ExactCore {
            waiting, selection, ..
        } = &mut self.core;
        if self.by_port {
            // A matching uses each input once, so the key is unique.
            selection.sort_unstable_by_key(|&k| waiting[k].src);
        }
        for &k in selection.iter() {
            let w = &waiting[k];
            emit(u64::from(w.id.0), w.release);
        }
        selection.len()
    }

    fn retire(&mut self) {
        if self.by_port {
            // `remove_selection` needs ascending waiting indices back.
            self.core.selection.sort_unstable();
        }
        self.core.remove_selection();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fss_matching::{max_cardinality_matching, BipartiteGraph};
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// The parity claim, tested directly: dedup-HK over the waiting
    /// vector selects the same edge ids as reference HK over the full
    /// multigraph.
    #[test]
    fn dedup_hk_matches_reference_on_random_multigraphs() {
        let mut rng = SmallRng::seed_from_u64(1234);
        for _ in 0..500 {
            let m_in = rng.gen_range(1..7usize);
            let m_out = rng.gen_range(1..7usize);
            let edges = rng.gen_range(0..40usize);
            let mut core = ExactCore::new(m_in, m_out);
            let mut g = BipartiteGraph::new(m_in, m_out);
            for k in 0..edges {
                let (src, dst) = (
                    rng.gen_range(0..m_in as u32),
                    rng.gen_range(0..m_out as u32),
                );
                core.push_waiting(k as u32, src, dst, 0);
                g.add_edge(src, dst);
            }
            let mut sel = Selector::MaxCard;
            let got: Vec<usize> = core.select(0, &mut sel, false).to_vec();
            let mut want = max_cardinality_matching(&g);
            want.sort_unstable();
            assert_eq!(got, want, "m_in={m_in} m_out={m_out} edges={edges}");
        }
    }

    #[test]
    fn multiround_parity_with_swap_remove_discipline() {
        // Drive several rounds incl. removals; re-check parity each round.
        let mut rng = SmallRng::seed_from_u64(99);
        let (m_in, m_out) = (4usize, 4usize);
        let mut core = ExactCore::new(m_in, m_out);
        let mut mirror: Vec<(u32, u32)> = Vec::new(); // (src, dst)
        let mut next_id = 0u32;
        for round in 0u64..60 {
            for _ in 0..rng.gen_range(0..4u32) {
                let (s, d) = (rng.gen_range(0..4u32), rng.gen_range(0..4u32));
                core.push_waiting(next_id, s, d, round);
                mirror.push((s, d));
                next_id += 1;
            }
            if core.waiting.is_empty() {
                continue;
            }
            let mut g = BipartiteGraph::new(m_in, m_out);
            for &(s, d) in &mirror {
                g.add_edge(s, d);
            }
            let mut sel = Selector::MaxCard;
            let got: Vec<usize> = core.select(round, &mut sel, false).to_vec();
            let mut want = max_cardinality_matching(&g);
            want.sort_unstable();
            assert_eq!(got, want, "round {round}");
            core.remove_selection();
            for &k in got.iter().rev() {
                mirror.swap_remove(k);
            }
            assert_eq!(core.waiting.len(), mirror.len());
        }
    }

    #[test]
    #[should_panic(expected = "non-matching")]
    fn policy_selection_is_validated() {
        struct Bad;
        impl OnlinePolicy for Bad {
            fn name(&self) -> &'static str {
                "Bad"
            }
            fn choose(&mut self, state: &QueueState<'_>) -> Vec<usize> {
                (0..state.waiting.len()).collect()
            }
        }
        let mut core = ExactCore::new(2, 2);
        core.push_waiting(0, 0, 0, 0);
        core.push_waiting(1, 0, 0, 0);
        let mut bad = Bad;
        let mut sel = Selector::Policy(&mut bad);
        core.select(0, &mut sel, false);
    }
}
