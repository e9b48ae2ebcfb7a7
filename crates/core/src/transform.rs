//! Instance transformations.
//!
//! Utilities for composing and reshaping instances: time-shifting,
//! concatenating request sequences, and transposing the switch. Used by
//! the batching algorithms (AMRT slices instances by arrival window) and
//! by tests that build structured workloads from parts.

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

/// Concatenate two request sequences on the same switch: `b`'s flows are
/// appended with their releases shifted to start after `a`'s last release
/// plus `gap`. Panics if the switches differ.
pub fn concat(a: &Instance, b: &Instance, gap: u64) -> Instance {
    assert_eq!(a.switch, b.switch, "instances must share a switch");
    let offset = if a.n() == 0 { 0 } else { a.max_release() + gap };
    let mut out = InstanceBuilder::new(a.switch.clone());
    for f in &a.flows {
        out.push(*f);
    }
    for f in &b.flows {
        out.push(Flow {
            release: f.release + offset,
            ..*f
        });
    }
    out.build().expect("concatenation preserves validity")
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
    fn concat_offsets_second_sequence() {
        let a = base();
        let c = concat(&a, &a, 2);
        assert_eq!(c.n(), 4);
        // a.max_release = 3, gap = 2: offset = 5.
        assert_eq!(c.flows[2].release, 5);
        assert_eq!(c.flows[3].release, 8);
    }

    #[test]
    fn concat_with_empty_first() {
        let empty = InstanceBuilder::new(Switch::uniform(2, 3, 1))
            .build()
            .unwrap();
        let c = concat(&empty, &base(), 4);
        assert_eq!(c.flows[0].release, 0);
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

    #[test]
    #[should_panic(expected = "share a switch")]
    fn concat_rejects_mismatched_switches() {
        let a = base();
        let other = InstanceBuilder::new(Switch::uniform(1, 1, 1))
            .build()
            .unwrap();
        let _ = concat(&a, &other, 0);
    }
}
