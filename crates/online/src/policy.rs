//! Online policies: the paper's heuristics (§5.2) behind a common trait.
//!
//! The weighted heuristics (**MinRTime**, **MaxWeight**) run on the
//! incremental matching core of [`crate::weighted`]: they carry dual
//! potentials and the assignment across rounds and repair only what the
//! round's arrivals/dispatches dirtied, instead of re-solving a dense
//! Hungarian from scratch.

use fss_core::FlowId;
use fss_matching::{
    greedy_matching_into, max_cardinality_matching, max_cardinality_matching_into, BipartiteGraph,
};

use crate::weighted::{choose_with, choose_with_into, WeightModel, WeightedSelector};

/// A flow currently waiting in the open queue `E(G_t)`.
#[derive(Debug, Clone, Copy)]
pub struct WaitingFlow {
    /// Identity within the instance.
    pub id: FlowId,
    /// Input port.
    pub src: u32,
    /// Output port.
    pub dst: u32,
    /// Release round (for age-based weights).
    pub release: u64,
}

/// What a policy sees each round: the waiting graph `G_t` (paper §5.2.1).
#[derive(Debug)]
pub struct QueueState<'a> {
    /// Current round `t`.
    pub round: u64,
    /// All released, unscheduled flows.
    pub waiting: &'a [WaitingFlow],
    /// Number of input ports.
    pub m_in: usize,
    /// Number of output ports.
    pub m_out: usize,
}

impl QueueState<'_> {
    /// Build the bipartite waiting graph; edge `k` is `waiting[k]`.
    pub fn graph(&self) -> BipartiteGraph {
        let mut g = BipartiteGraph::default();
        self.graph_into(&mut g);
        g
    }

    /// Fill `g` with the waiting graph, reusing its edge storage (the
    /// allocation-free form of [`QueueState::graph`] for per-round use).
    pub fn graph_into(&self, g: &mut BipartiteGraph) {
        g.reset(self.m_in, self.m_out);
        for w in self.waiting {
            g.add_edge(w.src, w.dst);
        }
    }

    /// Queue length per input port (released-but-unscheduled flows).
    pub fn in_queue_sizes(&self) -> Vec<u32> {
        let mut q = vec![0; self.m_in];
        for w in self.waiting {
            q[w.src as usize] += 1;
        }
        q
    }

    /// Queue length per output port.
    pub fn out_queue_sizes(&self) -> Vec<u32> {
        let mut q = vec![0; self.m_out];
        for w in self.waiting {
            q[w.dst as usize] += 1;
        }
        q
    }
}

/// An online scheduling policy: each round, pick indices into
/// `state.waiting` that form a matching (unit capacities — the paper's
/// experimental setting). The runner validates the selection.
///
/// Policies may be stateful (the incremental ones are): the round loops
/// call `choose` with nondecreasing rounds over one instance's lifetime,
/// and a policy value should not be reused across instances unless its
/// implementation documents that it re-synchronizes (the weighted
/// policies here reset themselves when the clock moves backwards).
pub trait OnlinePolicy {
    /// Short display name (used in experiment tables).
    fn name(&self) -> &'static str;
    /// Select the flows to run this round.
    fn choose(&mut self, state: &QueueState<'_>) -> Vec<usize>;
    /// [`choose`](OnlinePolicy::choose) writing the selection into a
    /// caller-owned buffer (cleared first). The engine's round loops call
    /// this form so a persistent scratch buffer absorbs the per-round
    /// allocation; the default delegates to `choose`, and the built-in
    /// policies override it with allocation-free implementations.
    fn choose_into(&mut self, state: &QueueState<'_>, out: &mut Vec<usize>) {
        *out = self.choose(state);
    }
}

/// **MaxCard**: a maximum-cardinality matching of `G_t` — keeps the most
/// ports busy; the paper expects it to do well on average response time
/// but poorly on maximum response time.
#[derive(Debug, Default, Clone)]
pub struct MaxCard {
    g: BipartiteGraph,
}

impl OnlinePolicy for MaxCard {
    fn name(&self) -> &'static str {
        "MaxCard"
    }

    fn choose(&mut self, state: &QueueState<'_>) -> Vec<usize> {
        state.graph_into(&mut self.g);
        max_cardinality_matching(&self.g)
    }

    fn choose_into(&mut self, state: &QueueState<'_>, out: &mut Vec<usize>) {
        state.graph_into(&mut self.g);
        max_cardinality_matching_into(&self.g, out);
    }
}

/// **MinRTime**: maximum-weight matching with weight `t − r_e` (the time
/// the flow has waited) — prioritizes old flows, good for maximum response
/// time. Among equal-weight matchings, a uniform `+1` bonus per edge makes
/// the policy prefer higher cardinality (the paper leaves the tie-break
/// unspecified).
///
/// Incremental: maintains the weighted matching across rounds (see
/// [`crate::weighted`]).
#[derive(Debug, Default, Clone)]
pub struct MinRTime {
    sel: Option<WeightedSelector>,
}

impl OnlinePolicy for MinRTime {
    fn name(&self) -> &'static str {
        "MinRTime"
    }

    fn choose(&mut self, state: &QueueState<'_>) -> Vec<usize> {
        choose_with(&mut self.sel, WeightModel::MinRTime, state)
    }

    fn choose_into(&mut self, state: &QueueState<'_>, out: &mut Vec<usize>) {
        choose_with_into(&mut self.sel, WeightModel::MinRTime, state, out);
    }
}

/// **MaxWeight**: maximum-weight matching with weight = sum of queue sizes
/// at the edge's endpoints — drains the most congested ports; the paper's
/// compromise pick for keeping both objectives low.
///
/// Incremental: maintains the weighted matching across rounds (see
/// [`crate::weighted`]).
#[derive(Debug, Default, Clone)]
pub struct MaxWeight {
    sel: Option<WeightedSelector>,
}

impl OnlinePolicy for MaxWeight {
    fn name(&self) -> &'static str {
        "MaxWeight"
    }

    fn choose(&mut self, state: &QueueState<'_>) -> Vec<usize> {
        choose_with(&mut self.sel, WeightModel::MaxWeight, state)
    }

    fn choose_into(&mut self, state: &QueueState<'_>, out: &mut Vec<usize>) {
        choose_with_into(&mut self.sel, WeightModel::MaxWeight, state, out);
    }
}

/// FIFO-greedy baseline: scan waiting flows oldest first and take each one
/// whose ports are still free. Not one of the paper's trio; serves as a
/// cheap sanity floor in the experiments.
#[derive(Debug, Default, Clone)]
pub struct FifoGreedy {
    g: BipartiteGraph,
    order: Vec<usize>,
}

impl OnlinePolicy for FifoGreedy {
    fn name(&self) -> &'static str {
        "FifoGreedy"
    }

    fn choose(&mut self, state: &QueueState<'_>) -> Vec<usize> {
        let mut out = Vec::new();
        self.choose_into(state, &mut out);
        out
    }

    fn choose_into(&mut self, state: &QueueState<'_>, out: &mut Vec<usize>) {
        state.graph_into(&mut self.g);
        self.order.clear();
        self.order.extend(0..state.waiting.len());
        self.order
            .sort_by_key(|&k| (state.waiting[k].release, state.waiting[k].id));
        greedy_matching_into(&self.g, &self.order, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(waiting: &[WaitingFlow], round: u64) -> QueueState<'_> {
        QueueState {
            round,
            waiting,
            m_in: 3,
            m_out: 3,
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

    #[test]
    fn maxcard_takes_maximum_matching() {
        let w = [wf(0, 0, 0, 0), wf(1, 0, 1, 0), wf(2, 1, 0, 0)];
        let sel = MaxCard::default().choose(&state(&w, 0));
        assert_eq!(sel.len(), 2); // (0,1)+(1,0) or equivalent
    }

    #[test]
    fn minrtime_prefers_older_flows() {
        // Two conflicting flows; the older one must win.
        let w = [wf(0, 0, 0, 5), wf(1, 0, 0, 1)];
        assert_eq!(MinRTime::default().choose(&state(&w, 6)), vec![1]);
    }

    #[test]
    fn minrtime_cardinality_tiebreak() {
        // All flows same age: the +1 bonus must still produce a maximum
        // matching rather than an empty one (all weights zero otherwise).
        let w = [wf(0, 0, 0, 3), wf(1, 1, 1, 3), wf(2, 2, 2, 3)];
        assert_eq!(MinRTime::default().choose(&state(&w, 3)).len(), 3);
    }

    #[test]
    fn maxweight_targets_congested_ports() {
        // Input 0 has three queued flows; an edge touching it carries more
        // weight than the isolated pair (1,1).
        let w = [
            wf(0, 0, 0, 0),
            wf(1, 0, 1, 0),
            wf(2, 0, 2, 0),
            wf(3, 1, 1, 0),
        ];
        let sel = MaxWeight::default().choose(&state(&w, 0));
        // Some edge at input 0 must be selected.
        assert!(sel.iter().any(|&k| w[k].src == 0));
        // And the matching is maximal enough to include (1,1) too.
        assert!(sel.iter().any(|&k| w[k].src == 1));
    }

    #[test]
    fn fifo_scans_by_release() {
        let w = [wf(0, 0, 0, 4), wf(1, 0, 0, 2)];
        let sel = FifoGreedy::default().choose(&state(&w, 5));
        assert_eq!(sel, vec![1]);
    }

    #[test]
    fn queue_sizes_count_incident_flows() {
        let w = [wf(0, 0, 1, 0), wf(1, 0, 2, 0), wf(2, 1, 1, 0)];
        let s = state(&w, 0);
        assert_eq!(s.in_queue_sizes(), vec![2, 1, 0]);
        assert_eq!(s.out_queue_sizes(), vec![0, 2, 1]);
    }

    #[test]
    fn incremental_weighted_policies_reset_across_instances() {
        // Reusing a policy value on a fresh instance (round restarts at
        // 0) must not panic or leak state.
        let mut p = MinRTime::default();
        let w = [wf(0, 0, 0, 9)];
        assert_eq!(p.choose(&state(&w, 9)), vec![0]);
        let w2 = [wf(0, 1, 1, 0), wf(1, 2, 2, 0)];
        assert_eq!(p.choose(&state(&w2, 0)).len(), 2);
    }
}
