//! An extension policy beyond the paper's trio.
//!
//! The paper (§6) calls for a more thorough investigation of online
//! algorithms. [`AgedMaxWeight`] is MaxWeight with an age term,
//! `weight = queue(src) + queue(dst) + γ·(t − r_e)`: it interpolates
//! between MaxWeight (γ = 0) and MinRTime-like aging (γ large), a knob for
//! the avg-vs-max trade-off the paper's conclusion discusses.

use crate::policy::{OnlinePolicy, QueueState};
use crate::weighted::{choose_with, choose_with_into, WeightModel, WeightedSelector, GAMMA_DENOM};

/// MaxWeight with linear aging: `weight = queues + gamma * age + 1`.
///
/// Incremental (see [`crate::weighted`]): the aging coefficient is
/// quantized to `1/1024`ths so the weights stay integral, which is what
/// lets the matching carry over from round to round exactly.
#[derive(Debug, Clone)]
pub struct AgedMaxWeight {
    gamma: f64,
    sel: Option<WeightedSelector>,
}

impl AgedMaxWeight {
    /// Create with an aging coefficient (quantized to `1/1024`ths).
    pub fn new(gamma: f64) -> Self {
        assert!(gamma >= 0.0, "aging coefficient must be nonnegative");
        AgedMaxWeight { gamma, sel: None }
    }

    fn gamma_q(&self) -> i64 {
        (self.gamma * GAMMA_DENOM as f64).round() as i64
    }
}

impl Default for AgedMaxWeight {
    fn default() -> Self {
        AgedMaxWeight::new(1.0)
    }
}

impl OnlinePolicy for AgedMaxWeight {
    fn name(&self) -> &'static str {
        "AgedMaxWeight"
    }

    fn choose(&mut self, state: &QueueState<'_>) -> Vec<usize> {
        let model = WeightModel::AgedMaxWeight {
            gamma_q: self.gamma_q(),
        };
        choose_with(&mut self.sel, model, state)
    }

    fn choose_into(&mut self, state: &QueueState<'_>, out: &mut Vec<usize>) {
        let model = WeightModel::AgedMaxWeight {
            gamma_q: self.gamma_q(),
        };
        choose_with_into(&mut self.sel, model, state, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::WaitingFlow;
    use crate::runner::run_policy;
    use fss_core::gen::{random_instance, GenParams};
    use fss_core::prelude::*;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn both_extensions_produce_feasible_schedules() {
        let mut rng = SmallRng::seed_from_u64(6);
        let inst = random_instance(&mut rng, &GenParams::unit(4, 25, 6));
        for sched in [
            run_policy(&inst, &mut AgedMaxWeight::default()),
            run_policy(&inst, &mut AgedMaxWeight::new(0.0)),
            run_policy(&inst, &mut AgedMaxWeight::new(100.0)),
        ] {
            validate::check(&inst, &sched, &inst.switch).unwrap();
        }
    }

    #[test]
    fn high_gamma_mimics_minrtime_priority() {
        // Old conflicting flow must win under strong aging.
        let w = [
            WaitingFlow {
                id: FlowId(0),
                src: 0,
                dst: 0,
                release: 9,
            },
            WaitingFlow {
                id: FlowId(1),
                src: 0,
                dst: 0,
                release: 1,
            },
        ];
        let state = QueueState {
            round: 10,
            waiting: &w,
            m_in: 1,
            m_out: 1,
        };
        let sel = AgedMaxWeight::new(1000.0).choose(&state);
        assert_eq!(sel, vec![1]);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_gamma_rejected() {
        let _ = AgedMaxWeight::new(-1.0);
    }
}
