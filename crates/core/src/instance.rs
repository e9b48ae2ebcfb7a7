//! Problem instances: a switch plus a set of flow requests.

use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::flow::{Flow, FlowId};
use crate::switch::{PortSide, Switch};

/// A complete FS-ART / FS-MRT problem instance (paper §2): a capacitated
/// switch and a sequence of flows, each with demand and release round.
///
/// Invariants, enforced by [`InstanceBuilder::build`] (and, for an
/// instance that did not come from the builder, by [`Instance::check`]):
/// * every port capacity is positive;
/// * every flow's ports are within range;
/// * every demand is positive and at most `kappa_e = min(c_src, c_dst)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Instance {
    /// The switch the flows are scheduled on.
    pub switch: Switch,
    /// The flow requests, indexed by [`FlowId`].
    pub flows: Vec<Flow>,
}

impl Instance {
    /// Number of flows `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.flows.len()
    }

    /// Largest demand `dmax` over all flows (0 for an empty instance).
    pub fn dmax(&self) -> u32 {
        self.flows.iter().map(|f| f.demand).max().unwrap_or(0)
    }

    /// Largest release round (0 for an empty instance).
    pub fn max_release(&self) -> u64 {
        self.flows.iter().map(|f| f.release).max().unwrap_or(0)
    }

    /// Sum of demands incident on input port `p`.
    pub fn in_port_load(&self, p: u32) -> u64 {
        self.flows
            .iter()
            .filter(|f| f.src == p)
            .map(|f| u64::from(f.demand))
            .sum()
    }

    /// Sum of demands incident on output port `q`.
    pub(crate) fn out_port_load(&self, q: u32) -> u64 {
        self.flows
            .iter()
            .filter(|f| f.dst == q)
            .map(|f| u64::from(f.demand))
            .sum()
    }

    /// A crude but always-sufficient scheduling horizon: every flow can be
    /// scheduled by `max_release + ceil(max port load / min cap) + 1`
    /// rounds simply by serializing the most loaded port. Used to bound LP
    /// time horizons; algorithms are free to use tighter bounds.
    pub fn trivial_horizon(&self) -> u64 {
        let mut worst = 0u64;
        for p in 0..self.switch.num_inputs() as u32 {
            let cap = u64::from(self.switch.in_cap(p));
            let load = self.in_port_load(p);
            worst = worst.max(load.div_ceil(cap.max(1)));
        }
        for q in 0..self.switch.num_outputs() as u32 {
            let cap = u64::from(self.switch.out_cap(q));
            let load = self.out_port_load(q);
            worst = worst.max(load.div_ceil(cap.max(1)));
        }
        // Serializing the two most loaded ports after the last release always
        // fits; doubling `worst` is a safe, simple over-approximation.
        self.max_release() + 2 * worst + 1
    }

    /// True when every flow has demand 1.
    pub fn is_unit_demand(&self) -> bool {
        self.flows.iter().all(|f| f.demand == 1)
    }

    /// Check the model invariants listed on [`Instance`]. The builder
    /// runs this; a deserialized instance never went through the builder,
    /// so whoever reads one from outside calls it before using it.
    pub fn check(&self) -> Result<(), ModelError> {
        let sides = [
            (PortSide::Input, self.switch.in_caps()),
            (PortSide::Output, self.switch.out_caps()),
        ];
        for (side, caps) in sides {
            if let Some(port) = caps.iter().position(|&c| c == 0) {
                return Err(ModelError::ZeroCapacity {
                    side,
                    port: port as u32,
                });
            }
        }
        let m = self.switch.num_inputs() as u32;
        let m_out = self.switch.num_outputs() as u32;
        for (i, f) in self.flows.iter().enumerate() {
            if f.src >= m {
                return Err(ModelError::BadInputPort {
                    flow: i,
                    port: f.src,
                    m,
                });
            }
            if f.dst >= m_out {
                return Err(ModelError::BadOutputPort {
                    flow: i,
                    port: f.dst,
                    m_out,
                });
            }
            if f.demand == 0 {
                return Err(ModelError::ZeroDemand { flow: i });
            }
            let kappa = self.switch.kappa(f.src, f.dst);
            if f.demand > kappa {
                return Err(ModelError::DemandExceedsKappa {
                    flow: i,
                    demand: f.demand,
                    kappa,
                });
            }
        }
        Ok(())
    }
}

/// Builder enforcing the model invariants of [`Instance`].
#[derive(Debug, Clone)]
pub struct InstanceBuilder {
    switch: Switch,
    flows: Vec<Flow>,
}

impl InstanceBuilder {
    /// Start building an instance on the given switch.
    pub fn new(switch: Switch) -> Self {
        InstanceBuilder {
            switch,
            flows: Vec::new(),
        }
    }

    /// Add a flow `src -> dst` with the given demand and release round.
    /// Returns the flow's id.
    pub fn flow(&mut self, src: u32, dst: u32, demand: u32, release: u64) -> FlowId {
        let id = FlowId(self.flows.len() as u32);
        self.flows.push(Flow::new(src, dst, demand, release));
        id
    }

    /// Add a unit-demand flow.
    pub fn unit_flow(&mut self, src: u32, dst: u32, release: u64) -> FlowId {
        self.flow(src, dst, 1, release)
    }

    /// Add an already-constructed [`Flow`].
    pub fn push(&mut self, f: Flow) -> FlowId {
        let id = FlowId(self.flows.len() as u32);
        self.flows.push(f);
        id
    }

    /// Validate all invariants and produce the instance.
    pub fn build(self) -> Result<Instance, ModelError> {
        let inst = Instance {
            switch: self.switch,
            flows: self.flows,
        };
        inst.check()?;
        Ok(inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Instance {
        let mut b = InstanceBuilder::new(Switch::uniform(2, 2, 1));
        b.unit_flow(0, 0, 0);
        b.unit_flow(0, 1, 2);
        b.unit_flow(1, 1, 1);
        b.build().unwrap()
    }

    #[test]
    fn builder_accepts_valid_flows() {
        let inst = tiny();
        assert_eq!(inst.n(), 3);
        assert_eq!(inst.dmax(), 1);
        assert_eq!(inst.max_release(), 2);
        assert!(inst.is_unit_demand());
    }

    #[test]
    fn builder_rejects_out_of_range_ports() {
        let mut b = InstanceBuilder::new(Switch::uniform(2, 2, 1));
        b.unit_flow(2, 0, 0);
        assert!(matches!(
            b.build(),
            Err(ModelError::BadInputPort { port: 2, .. })
        ));

        let mut b = InstanceBuilder::new(Switch::uniform(2, 2, 1));
        b.unit_flow(0, 5, 0);
        assert!(matches!(
            b.build(),
            Err(ModelError::BadOutputPort { port: 5, .. })
        ));
    }

    #[test]
    fn builder_rejects_demand_above_kappa() {
        let mut b = InstanceBuilder::new(Switch::new(vec![3], vec![2]));
        b.flow(0, 0, 3, 0); // kappa = min(3,2) = 2
        assert!(matches!(
            b.build(),
            Err(ModelError::DemandExceedsKappa {
                demand: 3,
                kappa: 2,
                ..
            })
        ));
    }

    #[test]
    fn builder_rejects_zero_demand() {
        let mut b = InstanceBuilder::new(Switch::uniform(1, 1, 1));
        b.flow(0, 0, 0, 0);
        assert!(matches!(b.build(), Err(ModelError::ZeroDemand { flow: 0 })));
    }

    #[test]
    fn port_loads_and_total_demand() {
        let mut b = InstanceBuilder::new(Switch::uniform(2, 2, 4));
        b.flow(0, 0, 2, 0);
        b.flow(0, 1, 3, 0);
        b.flow(1, 1, 4, 0);
        let inst = b.build().unwrap();
        assert_eq!(inst.in_port_load(0), 5);
        assert_eq!(inst.in_port_load(1), 4);
        assert_eq!(inst.out_port_load(1), 7);
        assert_eq!(inst.dmax(), 4);
        assert!(!inst.is_unit_demand());
    }

    #[test]
    fn trivial_horizon_is_generous_enough() {
        let inst = tiny();
        // Max port load is 2 (input 0 and output 1), max release 2.
        assert!(inst.trivial_horizon() >= inst.max_release() + 2);
    }

    #[test]
    fn instance_serde_round_trip() {
        let inst = tiny();
        let json = serde_json::to_string(&inst).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(inst, back);
    }
}
