//! Exact-parity round core: reproduces the reference
//! [`fss_online::run_policy`] loop decision-for-decision, so engine-driven
//! runs are differentially testable (round-for-round identical schedules).
//!
//! The parity claim rests on the **queue discipline mirror.** The waiting
//! vector is maintained with the same push order (sorted by
//! `(release, id)` via the [`crate::FlowSource`] ordering contract) and
//! the same descending-index `swap_remove` after each round, so at every
//! round the engine's waiting vector is *identical as a sequence* to the
//! reference runner's. Policies that read `QueueState` therefore see the
//! exact same input and return the exact same selection.
//!
//! ## MaxCard
//!
//! [`Selector::MaxCard`] scans the waiting flows it is shown into the
//! first-occurrence-deduped graph of [`crate::maxcard`] every round and
//! matches that with the module's Hopcroft–Karp (which also holds the
//! argument that dedup selects the same edge ids as the reference
//! multigraph run). Without a [`FailurePlan`] the round loop does not
//! come here for MaxCard: `maxcard::MaxCardRound` carries the same graph
//! across rounds instead of rescanning the backlog. The scan stays for
//! two reasons: an outage changes which flows are visible from one round
//! to the next, so under a plan there is no graph to carry; and being a
//! fresh scan per round it is the reference the differential tests hold
//! the carried graph to.
//!
//! ## Port outages
//!
//! Under a [`FailurePlan`] the core offers the selector only the flows
//! whose both ports are up this round (the *visible* subset, in waiting
//! order) and maps the selection back — decision-for-decision the
//! reference batch failure runner (`fss_online::run_policy_under`):
//! same `(release, id)` ingest order, same visible-subset construction,
//! same descending-index `swap_remove`. When every waiting flow sits on
//! a dead port the round loop jumps the clock to the next outage end
//! (`RoundCore::blocked_until`). Without a plan none of this runs and
//! its scratch stays unallocated.

use crate::engine_id;
use crate::maxcard::{waiting_index, Support};
use crate::source::Arrival;
use crate::stream::RoundCore;
use fss_core::{FailurePlan, PortSide};
use fss_online::{OnlinePolicy, QueueState, WaitingFlow};
use fss_telemetry::{span, EngineTelemetry, Stage};

/// How a round's matching is chosen in exact mode.
pub(crate) enum Selector<'p> {
    /// MaxCard identical to the reference runner's: Hopcroft–Karp over
    /// the deduped graph a scan of the offered flows builds
    /// ([`crate::maxcard`]).
    MaxCard,
    /// Any [`OnlinePolicy`] — invoked on the mirrored waiting state, so
    /// its decisions (and thus the schedule) match the reference loop's.
    Policy(&'p mut dyn OnlinePolicy),
}

/// Mirrored waiting state plus reusable matching scratch.
pub(crate) struct ExactCore {
    m_in: usize,
    m_out: usize,
    /// Reference-ordered waiting vector (the parity-critical structure).
    pub waiting: Vec<WaitingFlow>,
    /// This round's selection (sorted waiting indices).
    selection: Vec<usize>,
    // --- outage-mask scratch (stays empty without a plan) ---
    /// Waiting indices whose both ports are up this round, ascending.
    usable: Vec<usize>,
    /// `waiting[usable[..]]`: what the selector sees under a plan.
    visible: Vec<WaitingFlow>,
    /// MaxCard's deduped graph and matching scratch (reused across
    /// rounds; no per-round allocs).
    support: Support,
    // --- validation scratch for the Policy path ---
    used_in: Vec<bool>,
    used_out: Vec<bool>,
}

impl ExactCore {
    /// Empty state for an `m_in x m_out` unit-capacity switch.
    pub(crate) fn new(m_in: usize, m_out: usize) -> ExactCore {
        ExactCore {
            m_in,
            m_out,
            waiting: Vec::new(),
            selection: Vec::new(),
            usable: Vec::new(),
            visible: Vec::new(),
            support: Support::new(m_in, m_out),
            used_in: vec![false; m_in],
            used_out: vec![false; m_out],
        }
    }

    /// Append a released flow (callers feed arrivals in `(release, id)`
    /// order, matching the reference ingest).
    pub(crate) fn push_waiting(&mut self, id: u32, src: u32, dst: u32, release: u64) {
        self.waiting.push(WaitingFlow {
            id: fss_core::FlowId(id),
            src,
            dst,
            release,
        });
    }

    /// Fill `usable` with the waiting flows whose both ports are up at
    /// `round`; true when there is at least one.
    pub(crate) fn mask(&mut self, plan: &FailurePlan, round: u64) -> bool {
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
    pub(crate) fn select(
        &mut self,
        round: u64,
        selector: &mut Selector<'_>,
        masked: bool,
    ) -> &[usize] {
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

    /// Dispatch bookkeeping: remove the selection exactly like the
    /// reference loop (descending-index `swap_remove`), preserving vector parity.
    pub(crate) fn remove_selection(&mut self) {
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
        // Validate exactly like the reference runner: panics on a
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

    /// First-occurrence scan of `flows`, then the shared Hopcroft–Karp.
    fn select_maxcard(&mut self, flows: &[WaitingFlow]) {
        self.support.clear();
        for (k, w) in flows.iter().enumerate() {
            let cell = w.src as usize * self.m_out + w.dst as usize;
            self.support.first_occurrence(cell, waiting_index(k));
        }
        self.support.select_into(&mut self.selection);
    }
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
        self.core
            .push_waiting(engine_id(a.id), a.src, a.dst, a.release);
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

    fn finish(&self, tele: &mut EngineTelemetry) {
        if let Selector::MaxCard = self.selector {
            self.core.support.finish(tele);
        }
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
