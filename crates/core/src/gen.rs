//! Small random-instance generators shared by tests and benches.
//!
//! The paper's full experimental workload (Poisson arrivals on a 150x150
//! switch, §5.2.1) lives in `fss-sim::workload`; the helpers here produce
//! bounded random instances convenient for unit/property tests of the
//! offline algorithms.

use rand::Rng;

use crate::instance::{Instance, InstanceBuilder};
use crate::switch::Switch;

/// Parameters for [`random_instance`].
#[derive(Debug, Clone)]
pub struct GenParams {
    /// Input ports.
    pub m: usize,
    /// Output ports.
    pub m_out: usize,
    /// Uniform port capacity.
    pub cap: u32,
    /// Number of flows.
    pub n: usize,
    /// Demands drawn uniformly from `1..=max_demand` (clamped to `kappa`).
    pub max_demand: u32,
    /// Releases drawn uniformly from `0..=max_release`.
    pub max_release: u64,
}

impl GenParams {
    /// Unit-demand, unit-capacity defaults on an `m x m` switch.
    pub fn unit(m: usize, n: usize, max_release: u64) -> Self {
        GenParams {
            m,
            m_out: m,
            cap: 1,
            n,
            max_demand: 1,
            max_release,
        }
    }
}

/// Draw a random instance: uniformly random port pairs, demands, releases.
pub fn random_instance<R: Rng + ?Sized>(rng: &mut R, p: &GenParams) -> Instance {
    let switch = Switch::uniform(p.m, p.m_out, p.cap);
    let mut b = InstanceBuilder::new(switch);
    for _ in 0..p.n {
        let src = rng.gen_range(0..p.m as u32);
        let dst = rng.gen_range(0..p.m_out as u32);
        let kappa = p.cap; // uniform capacities
        let demand = rng.gen_range(1..=p.max_demand.min(kappa)).max(1);
        let release = rng.gen_range(0..=p.max_release);
        b.flow(src, dst, demand, release);
    }
    b.build()
        .expect("generator respects invariants by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn random_instance_respects_params() {
        let mut rng = SmallRng::seed_from_u64(7);
        let p = GenParams {
            m: 4,
            m_out: 3,
            cap: 5,
            n: 40,
            max_demand: 4,
            max_release: 9,
        };
        let inst = random_instance(&mut rng, &p);
        assert_eq!(inst.n(), 40);
        assert!(inst.dmax() <= 4);
        assert!(inst.max_release() <= 9);
        for f in &inst.flows {
            assert!(f.src < 4 && f.dst < 3);
            assert!(f.demand >= 1);
        }
    }

    #[test]
    fn random_instances_differ_across_seeds() {
        let p = GenParams::unit(5, 30, 10);
        let a = random_instance(&mut SmallRng::seed_from_u64(1), &p);
        let b = random_instance(&mut SmallRng::seed_from_u64(2), &p);
        assert_ne!(a.flows, b.flows);
    }

    #[test]
    fn all_pairs_has_m_times_mout_flows() {
        // One unit flow per input/output pair, all released at 0.
        let mut b = InstanceBuilder::new(Switch::uniform(3, 4, 1));
        for p in 0..3 {
            for q in 0..4 {
                b.unit_flow(p, q, 0);
            }
        }
        let inst = b.build().unwrap();
        assert_eq!(inst.n(), 12);
        assert!(inst.is_unit_demand());
        assert_eq!(inst.in_port_load(0), 4);
        assert_eq!(inst.out_port_load(0), 3);
    }
}
