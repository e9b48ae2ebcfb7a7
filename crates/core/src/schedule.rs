#![allow(clippy::needless_range_loop)] // parallel-array index loops are clearer here
//! Schedules and pseudo-schedules.
//!
//! The paper's integral schedules place each flow entirely in a single round
//! (`sigma_{e,t} = 1` for exactly one `t >= r_e`). A [`Schedule`] stores that
//! round per flow. A [`PseudoSchedule`] has the same shape but is *allowed*
//! to overload ports — it is the intermediate object produced by the
//! iterative rounding of §3 (Lemma 3.3), which bounds the overload of any
//! time window by `O(c_p log n)` before the final conversion to a valid
//! schedule.

use serde::{Deserialize, Serialize};

use crate::flow::FlowId;
use crate::instance::Instance;

/// A scheduling round (0-based).
pub type Round = u64;

/// An integral schedule: flow `i` runs (entirely) in round `rounds[i]`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    rounds: Vec<Round>,
}

impl Schedule {
    /// Build from a per-flow round vector.
    pub fn from_rounds(rounds: Vec<Round>) -> Self {
        Schedule { rounds }
    }

    /// The round flow `id` is scheduled in.
    #[inline]
    pub fn round_of(&self, id: FlowId) -> Round {
        self.rounds[id.idx()]
    }

    /// Number of scheduled flows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// True if the schedule covers no flows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// The per-flow rounds as a slice.
    pub fn rounds(&self) -> &[Round] {
        &self.rounds
    }

    /// Makespan: one past the last used round (0 for an empty schedule).
    pub fn makespan(&self) -> u64 {
        self.rounds.iter().map(|&t| t + 1).max().unwrap_or(0)
    }

    /// Shift every flow's round later by `delta`.
    pub fn shifted(&self, delta: u64) -> Schedule {
        Schedule {
            rounds: self.rounds.iter().map(|&t| t + delta).collect(),
        }
    }
}

/// A pseudo-schedule (Remark 3.4): same shape as a [`Schedule`] but ports
/// may be overloaded. Carries helper queries for the windowed-overload
/// guarantee of Lemma 3.3.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PseudoSchedule {
    rounds: Vec<Round>,
}

impl PseudoSchedule {
    /// Build from a per-flow round vector.
    pub fn from_rounds(rounds: Vec<Round>) -> Self {
        PseudoSchedule { rounds }
    }

    /// The round flow `id` is (tentatively) assigned to.
    #[inline]
    pub fn round_of(&self, id: FlowId) -> Round {
        self.rounds[id.idx()]
    }

    /// Number of assigned flows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// True if no flows are assigned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// The per-flow rounds as a slice.
    pub fn rounds(&self) -> &[Round] {
        &self.rounds
    }

    /// One past the last used round.
    pub fn makespan(&self) -> u64 {
        self.rounds.iter().map(|&t| t + 1).max().unwrap_or(0)
    }

    /// Total response time were this executed as-is (ignoring overload);
    /// this is the cost the iterative rounding bounds against the LP optimum.
    pub fn total_response(&self, inst: &Instance) -> u64 {
        self.rounds
            .iter()
            .zip(&inst.flows)
            .map(|(&t, f)| t + 1 - f.release)
            .sum()
    }

    /// The worst additive overload over all ports and all windows
    /// `[t1, t2]`: `max (volume - cap * window_len)`. Lemma 3.3 bounds this
    /// by `O(c_p log n)`. Runs in `O(ports * makespan^2)` — intended for
    /// tests and diagnostics, not hot paths.
    pub fn max_window_overload(&self, inst: &Instance) -> i64 {
        let horizon = self.makespan();
        let mut worst = i64::MIN;
        let mut per_round_in = vec![vec![0u64; horizon as usize]; inst.switch.num_inputs()];
        let mut per_round_out = vec![vec![0u64; horizon as usize]; inst.switch.num_outputs()];
        for (&t, f) in self.rounds.iter().zip(&inst.flows) {
            per_round_in[f.src as usize][t as usize] += u64::from(f.demand);
            per_round_out[f.dst as usize][t as usize] += u64::from(f.demand);
        }
        let mut scan = |loads: &[u64], cap: u64| {
            for t1 in 0..loads.len() {
                let mut vol = 0u64;
                for (w, &l) in loads[t1..].iter().enumerate() {
                    vol += l;
                    let window = (w + 1) as u64;
                    worst = worst.max(vol as i64 - (cap * window) as i64);
                }
            }
        };
        for p in 0..inst.switch.num_inputs() {
            scan(&per_round_in[p], u64::from(inst.switch.in_cap(p as u32)));
        }
        for q in 0..inst.switch.num_outputs() {
            scan(&per_round_out[q], u64::from(inst.switch.out_cap(q as u32)));
        }
        if worst == i64::MIN {
            0
        } else {
            worst
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::switch::Switch;

    fn inst3() -> Instance {
        let mut b = InstanceBuilder::new(Switch::uniform(2, 2, 1));
        b.unit_flow(0, 0, 0);
        b.unit_flow(0, 1, 0);
        b.unit_flow(1, 0, 1);
        b.build().unwrap()
    }

    #[test]
    fn schedule_accessors() {
        let s = Schedule::from_rounds(vec![0, 1, 2]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.round_of(FlowId(1)), 1);
        assert_eq!(s.makespan(), 3);
    }

    #[test]
    fn response_subtracts_release() {
        let inst = inst3();
        // Responses 1, 2 and 1: flow 2 is released at 1 and runs at 1.
        let m = crate::metrics::evaluate(&inst, &Schedule::from_rounds(vec![0, 1, 1]));
        assert_eq!((m.total_response, m.max_response), (4, 2));
    }

    #[test]
    fn shifted_moves_all_rounds() {
        let s = Schedule::from_rounds(vec![0, 2]).shifted(3);
        assert_eq!(s.rounds(), &[3, 5]);
    }

    #[test]
    fn pseudo_schedule_total_response() {
        let inst = inst3();
        let ps = PseudoSchedule::from_rounds(vec![0, 0, 1]);
        // rho = 1, 1, 1
        assert_eq!(ps.total_response(&inst), 3);
    }

    #[test]
    fn pseudo_schedule_port_volume_windows() {
        let inst = inst3();
        // Both input-0 flows rammed into round 0: overload 1 on a unit port.
        let ps = PseudoSchedule::from_rounds(vec![0, 0, 1]);
        assert_eq!(ps.max_window_overload(&inst), 1);
    }

    #[test]
    fn pseudo_schedule_no_overload_when_spread() {
        let inst = inst3();
        let ps = PseudoSchedule::from_rounds(vec![0, 1, 1]);
        assert_eq!(ps.max_window_overload(&inst), 0);
    }

    #[test]
    fn empty_schedule_makespan_zero() {
        assert_eq!(Schedule::from_rounds(vec![]).makespan(), 0);
        assert!(Schedule::from_rounds(vec![]).is_empty());
        assert_eq!(PseudoSchedule::from_rounds(vec![]).makespan(), 0);
    }
}
