//! The non-blocking switch: a bipartite set of capacitated ports.
//!
//! The paper models the datacenter network as one big `m x m'` non-blocking
//! switch: every input port connects to every output port, bandwidth limits
//! sit at the ports, and the fabric itself is unconstrained (Figure 1).

use serde::{Deserialize, Serialize};

/// Which side of the bipartition a port lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PortSide {
    /// Ingress port (left side of the bipartite graph).
    Input,
    /// Egress port (right side).
    Output,
}

/// An `m x m'` switch with per-port capacities.
///
/// Capacities are in units of demand per round. The paper's experiments use
/// unit capacities; the offline algorithms work with arbitrary positive
/// integer capacities.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Switch {
    in_caps: Vec<u32>,
    out_caps: Vec<u32>,
}

impl Switch {
    /// A switch with explicit capacity vectors. Panics if any capacity is 0.
    pub fn new(in_caps: Vec<u32>, out_caps: Vec<u32>) -> Self {
        assert!(
            in_caps.iter().chain(&out_caps).all(|&c| c > 0),
            "port capacities must be positive"
        );
        Switch { in_caps, out_caps }
    }

    /// An `m x m'` switch where every port has capacity `cap`.
    pub fn uniform(m: usize, m_out: usize, cap: u32) -> Self {
        Switch::new(vec![cap; m], vec![cap; m_out])
    }

    /// Number of input ports (`m`).
    #[inline]
    pub fn num_inputs(&self) -> usize {
        self.in_caps.len()
    }

    /// Number of output ports (`m'`).
    #[inline]
    pub fn num_outputs(&self) -> usize {
        self.out_caps.len()
    }

    /// Capacity of input port `p`.
    #[inline]
    pub fn in_cap(&self, p: u32) -> u32 {
        self.in_caps[p as usize]
    }

    /// Capacity of output port `q`.
    #[inline]
    pub fn out_cap(&self, q: u32) -> u32 {
        self.out_caps[q as usize]
    }

    /// `kappa_e = min(c_p, c_q)` for a flow from input `p` to output `q`.
    #[inline]
    pub fn kappa(&self, p: u32, q: u32) -> u32 {
        self.in_cap(p).min(self.out_cap(q))
    }

    /// Slice of all input capacities.
    pub(crate) fn in_caps(&self) -> &[u32] {
        &self.in_caps
    }

    /// Slice of all output capacities.
    pub(crate) fn out_caps(&self) -> &[u32] {
        &self.out_caps
    }

    /// True when every port has capacity 1.
    pub fn is_unit_capacity(&self) -> bool {
        self.in_caps.iter().chain(&self.out_caps).all(|&c| c == 1)
    }

    /// Multiplicative resource augmentation: every capacity scaled by
    /// `factor` (Theorem 1 uses `1 + c`).
    pub fn scaled(&self, factor: u32) -> Switch {
        assert!(factor > 0, "scale factor must be positive");
        Switch {
            in_caps: self.in_caps.iter().map(|&c| c * factor).collect(),
            out_caps: self.out_caps.iter().map(|&c| c * factor).collect(),
        }
    }

    /// Additive resource augmentation: every capacity increased by `delta`
    /// (Theorem 3 uses `2*dmax - 1`).
    pub fn augmented(&self, delta: u32) -> Switch {
        Switch {
            in_caps: self.in_caps.iter().map(|&c| c + delta).collect(),
            out_caps: self.out_caps.iter().map(|&c| c + delta).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Switch {
        /// Capacity of a port identified by side + index.
        fn cap(&self, side: PortSide, idx: u32) -> u32 {
            match side {
                PortSide::Input => self.in_cap(idx),
                PortSide::Output => self.out_cap(idx),
            }
        }
    }

    #[test]
    fn uniform_switch_dimensions() {
        let s = Switch::uniform(3, 5, 2);
        assert_eq!(s.num_inputs(), 3);
        assert_eq!(s.num_outputs(), 5);
        assert_eq!(s.in_cap(0), 2);
        assert_eq!(s.out_cap(4), 2);
        assert!(!s.is_unit_capacity());
    }

    #[test]
    fn kappa_is_min_of_endpoint_capacities() {
        let s = Switch::new(vec![3, 1], vec![2, 5]);
        assert_eq!(s.kappa(0, 0), 2);
        assert_eq!(s.kappa(0, 1), 3);
        assert_eq!(s.kappa(1, 1), 1);
    }

    #[test]
    fn scaling_and_augmenting() {
        let s = Switch::new(vec![1, 2], vec![3]);
        let x2 = s.scaled(2);
        assert_eq!(x2.in_caps(), &[2, 4]);
        assert_eq!(x2.out_caps(), &[6]);
        let plus3 = s.augmented(3);
        assert_eq!(plus3.in_caps(), &[4, 5]);
        assert_eq!(plus3.out_caps(), &[6]);
    }

    #[test]
    fn cap_by_side() {
        let s = Switch::new(vec![7], vec![9]);
        assert_eq!(s.cap(PortSide::Input, 0), 7);
        assert_eq!(s.cap(PortSide::Output, 0), 9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = Switch::new(vec![0], vec![1]);
    }
}
