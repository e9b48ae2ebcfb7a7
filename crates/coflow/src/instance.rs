//! Co-flow instances: flows grouped into collective transfers.

use fss_core::prelude::*;
use serde::{Deserialize, Serialize};

/// Index of a co-flow within its [`CoflowInstance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CoflowId(pub u32);

impl CoflowId {
    /// The co-flow's index as a `usize`.
    #[inline]
    pub(crate) fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A flow-level instance plus a partition of its flows into co-flows.
///
/// Invariants (enforced by `CoflowInstance::new`):
/// * every flow belongs to exactly one co-flow;
/// * within a co-flow all members share the co-flow's release round (a
///   shuffle stage becomes known all at once — the standard co-flow
///   model; staggered member releases can be modeled as separate
///   co-flows).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoflowInstance {
    /// The underlying flow-level instance.
    pub inst: Instance,
    /// `membership[flow] = coflow id`.
    pub membership: Vec<CoflowId>,
    /// Number of co-flows.
    pub num_coflows: usize,
}

impl CoflowInstance {
    /// Build and validate. Panics on invariant violations (these indicate
    /// generator bugs, not recoverable conditions).
    pub(crate) fn new(inst: Instance, membership: Vec<CoflowId>) -> Self {
        assert_eq!(inst.n(), membership.len(), "one membership entry per flow");
        let num_coflows = membership.iter().map(|c| c.idx() + 1).max().unwrap_or(0);
        // Every co-flow id in range must be used at least once and all
        // members must share a release.
        let mut release: Vec<Option<u64>> = vec![None; num_coflows];
        for (f, c) in inst.flows.iter().zip(&membership) {
            match release[c.idx()] {
                None => release[c.idx()] = Some(f.release),
                Some(r) => assert_eq!(
                    r, f.release,
                    "co-flow {c:?}: member releases differ ({r} vs {})",
                    f.release
                ),
            }
        }
        assert!(
            release.iter().all(Option::is_some),
            "co-flow ids must be contiguous from 0"
        );
        CoflowInstance {
            inst,
            membership,
            num_coflows,
        }
    }

    /// Member flow indices of co-flow `c`.
    pub(crate) fn members(&self, c: CoflowId) -> Vec<usize> {
        self.membership
            .iter()
            .enumerate()
            .filter_map(|(i, &m)| (m == c).then_some(i))
            .collect()
    }

    /// Release round of co-flow `c` (shared by all members).
    pub(crate) fn release(&self, c: CoflowId) -> u64 {
        let i = self
            .membership
            .iter()
            .position(|&m| m == c)
            .expect("validated: every coflow has members");
        self.inst.flows[i].release
    }

    /// The *bottleneck* of co-flow `c`: the largest total demand its
    /// members place on any single port, divided by that port's capacity
    /// and rounded up — the minimum number of rounds the co-flow needs in
    /// isolation (Varys' Γ).
    pub(crate) fn bottleneck(&self, c: CoflowId) -> u64 {
        let mut in_load = vec![0u64; self.inst.switch.num_inputs()];
        let mut out_load = vec![0u64; self.inst.switch.num_outputs()];
        for &i in &self.members(c) {
            let f = &self.inst.flows[i];
            in_load[f.src as usize] += u64::from(f.demand);
            out_load[f.dst as usize] += u64::from(f.demand);
        }
        let mut worst = 0u64;
        for (p, &load) in in_load.iter().enumerate() {
            worst = worst.max(load.div_ceil(u64::from(self.inst.switch.in_cap(p as u32))));
        }
        for (q, &load) in out_load.iter().enumerate() {
            worst = worst.max(load.div_ceil(u64::from(self.inst.switch.out_cap(q as u32))));
        }
        worst
    }

    /// Iterator over all co-flow ids.
    pub(crate) fn coflow_ids(&self) -> impl Iterator<Item = CoflowId> {
        (0..self.num_coflows as u32).map(CoflowId)
    }
}

/// Builder for hand-constructing co-flow instances in tests and examples.
#[derive(Debug)]
pub struct CoflowBuilder {
    builder: InstanceBuilder,
    membership: Vec<CoflowId>,
    next_coflow: u32,
    current_release: Option<u64>,
}

impl CoflowBuilder {
    /// Start building on a switch.
    pub fn new(switch: Switch) -> Self {
        CoflowBuilder {
            builder: InstanceBuilder::new(switch),
            membership: Vec::new(),
            next_coflow: 0,
            current_release: None,
        }
    }

    /// Open a new co-flow released at round `release`; subsequent
    /// [`CoflowBuilder::flow`] calls join it.
    pub fn coflow(&mut self, release: u64) -> CoflowId {
        let id = CoflowId(self.next_coflow);
        self.next_coflow += 1;
        self.current_release = Some(release);
        id
    }

    /// Add a member flow to the currently open co-flow.
    pub fn flow(&mut self, src: u32, dst: u32, demand: u32) {
        let release = self
            .current_release
            .expect("open a coflow before adding flows");
        self.builder.flow(src, dst, demand, release);
        self.membership.push(CoflowId(self.next_coflow - 1));
    }

    /// Finish and validate.
    pub fn build(self) -> Result<CoflowInstance, fss_core::ModelError> {
        let inst = self.builder.build()?;
        Ok(CoflowInstance::new(inst, self.membership))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_coflows() -> CoflowInstance {
        let mut b = CoflowBuilder::new(Switch::uniform(2, 2, 1));
        b.coflow(0);
        b.flow(0, 0, 1);
        b.flow(0, 1, 1);
        b.coflow(2);
        b.flow(1, 0, 1);
        b.build().unwrap()
    }

    #[test]
    fn builder_groups_members() {
        let ci = two_coflows();
        assert_eq!(ci.num_coflows, 2);
        assert_eq!(ci.members(CoflowId(0)), vec![0, 1]);
        assert_eq!(ci.members(CoflowId(1)), vec![2]);
        assert_eq!(ci.release(CoflowId(0)), 0);
        assert_eq!(ci.release(CoflowId(1)), 2);
    }

    #[test]
    fn bottleneck_is_max_port_load() {
        let ci = two_coflows();
        // Co-flow 0: two flows from input 0 -> bottleneck 2.
        assert_eq!(ci.bottleneck(CoflowId(0)), 2);
        assert_eq!(ci.bottleneck(CoflowId(1)), 1);
    }

    #[test]
    fn bottleneck_respects_capacities() {
        let mut b = CoflowBuilder::new(Switch::new(vec![2], vec![2, 2]));
        b.coflow(0);
        b.flow(0, 0, 2);
        b.flow(0, 1, 2);
        let ci = b.build().unwrap();
        // 4 demand units through input 0 with capacity 2 -> 2 rounds.
        assert_eq!(ci.bottleneck(CoflowId(0)), 2);
    }

    #[test]
    #[should_panic(expected = "releases differ")]
    fn mixed_releases_rejected() {
        let mut ib = InstanceBuilder::new(Switch::uniform(1, 1, 1));
        ib.unit_flow(0, 0, 0);
        ib.unit_flow(0, 0, 1);
        let inst = ib.build().unwrap();
        let _ = CoflowInstance::new(inst, vec![CoflowId(0), CoflowId(0)]);
    }

    #[test]
    fn serde_round_trip() {
        let ci = two_coflows();
        let json = serde_json::to_string(&ci).unwrap();
        let back: CoflowInstance = serde_json::from_str(&json).unwrap();
        assert_eq!(ci, back);
    }
}
