//! Flows: demands between an input and an output port, with release times.

use serde::{Deserialize, Serialize};

/// Index of a flow within its [`crate::Instance`] (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowId(pub u32);

impl FlowId {
    /// The flow's index as a `usize`, for slice indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A flow request `e = (p, q)` with demand `d_e` and release round `r_e`.
///
/// A flow may be scheduled in any round `t >= r_e`; in the paper's integral
/// schedules it is placed entirely in a single round, completing at
/// `C_e = t + 1`, for a response time `rho_e = C_e - r_e >= 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Flow {
    /// Source (input) port index, `0..m`.
    pub src: u32,
    /// Destination (output) port index, `0..m'`.
    pub dst: u32,
    /// Demand `d_e` (units of port capacity consumed in its round).
    pub demand: u32,
    /// Release round `r_e` (0-based; the flow may run at round `r_e` or later).
    pub release: u64,
}

impl Flow {
    /// A flow with explicit demand.
    pub(crate) fn new(src: u32, dst: u32, demand: u32, release: u64) -> Self {
        Flow {
            src,
            dst,
            demand,
            release,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_flow_has_demand_one() {
        let mut b = crate::InstanceBuilder::new(crate::Switch::uniform(4, 8, 1));
        b.unit_flow(3, 7, 11);
        let f = b.build().unwrap().flows[0];
        assert_eq!(f.demand, 1);
        assert_eq!((f.src, f.dst, f.release), (3, 7, 11));
    }

    #[test]
    fn flow_id_display_and_idx() {
        let id = FlowId(42);
        assert_eq!(id.idx(), 42);
        assert_eq!(id.to_string(), "f42");
    }

    #[test]
    fn flow_serde_round_trip() {
        let f = Flow::new(1, 2, 3, 4);
        let json = serde_json::to_string(&f).unwrap();
        let back: Flow = serde_json::from_str(&json).unwrap();
        assert_eq!(f, back);
    }
}
