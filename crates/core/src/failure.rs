//! Port-outage plans: declarative descriptions of switch failures.
//!
//! Datacenter ports fail and recover; a scheduler built on per-round
//! matchings adapts naturally by excluding dead ports from the waiting
//! graph. A [`FailurePlan`] is the serializable description of such an
//! outage pattern — it lives in `fss-core` so the streaming engine
//! (`fss-engine`), the simulator (`fss-sim`), and scenario files on disk
//! all share one type.

use serde::{Deserialize, Serialize};

use crate::switch::PortSide;

/// One port outage: the port is unusable during `[from, to)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Outage {
    /// Which side of the switch.
    pub side: PortSide,
    /// Port index.
    pub port: u32,
    /// First dead round.
    pub from: u64,
    /// First live round again.
    pub to: u64,
}

/// A set of outages.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailurePlan {
    /// The outages (may overlap).
    pub outages: Vec<Outage>,
}

impl FailurePlan {
    /// Is the given port usable at round `t`?
    pub fn is_up(&self, side: PortSide, port: u32, t: u64) -> bool {
        !self
            .outages
            .iter()
            .any(|o| o.side == side && o.port == port && t >= o.from && t < o.to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_outages_compose() {
        let plan = FailurePlan {
            outages: vec![
                Outage {
                    side: PortSide::Output,
                    port: 1,
                    from: 2,
                    to: 5,
                },
                Outage {
                    side: PortSide::Output,
                    port: 1,
                    from: 4,
                    to: 8,
                },
            ],
        };
        assert!(plan.is_up(PortSide::Output, 1, 1));
        assert!(!plan.is_up(PortSide::Output, 1, 4));
        assert!(!plan.is_up(PortSide::Output, 1, 7));
        assert!(plan.is_up(PortSide::Output, 1, 8));
        assert!(plan.is_up(PortSide::Input, 1, 4), "other side unaffected");
    }

    #[test]
    fn empty_plan_is_always_up() {
        let plan = FailurePlan::default();
        assert!(plan.is_up(PortSide::Input, 0, 0));
    }
}
