//! Instance transformations.
//!
//! Instance reshapings that leave response-time metrics unchanged:
//! time-shifting and transposing the switch. The property tests
//! (`tests/proptest_model.rs`) hold the metrics to that.

use crate::flow::Flow;
use crate::instance::{Instance, InstanceBuilder};
use crate::switch::Switch;

/// Shift every release time later by `delta` rounds.
pub fn shift_releases(inst: &Instance, delta: u64) -> Instance {
    let mut b = InstanceBuilder::new(inst.switch.clone());
    for f in &inst.flows {
        b.push(Flow {
            release: f.release + delta,
            ..*f
        });
    }
    b.build().expect("shifting preserves validity")
}

/// Swap the roles of input and output ports (reverse every flow).
/// Response-time metrics are invariant under this symmetry — used by
/// property tests.
pub fn transpose(inst: &Instance) -> Instance {
    let switch = Switch::new(
        inst.switch.out_caps().to_vec(),
        inst.switch.in_caps().to_vec(),
    );
    let mut b = InstanceBuilder::new(switch);
    for f in &inst.flows {
        b.push(Flow {
            src: f.dst,
            dst: f.src,
            ..*f
        });
    }
    b.build().expect("transposition preserves validity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;

    fn base() -> Instance {
        let mut b = InstanceBuilder::new(Switch::uniform(2, 3, 1));
        b.unit_flow(0, 0, 0);
        b.unit_flow(1, 2, 3);
        b.build().unwrap()
    }

    #[test]
    fn shift_moves_all_releases() {
        let s = shift_releases(&base(), 5);
        assert_eq!(s.flows[0].release, 5);
        assert_eq!(s.flows[1].release, 8);
    }

    #[test]
    fn transpose_swaps_ports_and_caps() {
        let t = transpose(&base());
        assert_eq!(t.switch.num_inputs(), 3);
        assert_eq!(t.switch.num_outputs(), 2);
        assert_eq!(t.flows[0].src, 0);
        assert_eq!(t.flows[1].src, 2);
        assert_eq!(t.flows[1].dst, 1);
        // Involution.
        assert_eq!(transpose(&t), base());
    }
}
