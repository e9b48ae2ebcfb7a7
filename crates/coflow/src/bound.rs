//! Lower bounds on co-flow response times.

use crate::instance::CoflowInstance;

/// The bottleneck lower bound: co-flow `c` cannot respond faster than its
/// isolated bottleneck `Γ_c` (its heaviest port load over that port's
/// capacity), so
///
/// * total response `>= Σ_c Γ_c`, and
/// * max response `>= max_c Γ_c`.
///
/// This is the Varys-style Γ bound specialized to round-based switches; it
/// ignores inter-coflow contention and release staggering, so it is loose
/// under congestion — but it is cheap and schedule-independent, which makes
/// it the reference line in the co-flow example and benches.
pub fn bottleneck_lower_bound(ci: &CoflowInstance) -> (u64, u64) {
    let mut total = 0u64;
    let mut max = 0u64;
    for c in ci.coflow_ids() {
        let g = ci.bottleneck(c);
        total += g;
        max = max.max(g);
    }
    (total, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::CoflowBuilder;
    use fss_core::prelude::*;

    #[test]
    fn bounds_on_disjoint_coflows() {
        let mut b = CoflowBuilder::new(Switch::uniform(2, 2, 1));
        b.coflow(0);
        b.flow(0, 0, 1);
        b.flow(0, 1, 1); // bottleneck 2 at input 0
        b.coflow(0);
        b.flow(1, 0, 1); // bottleneck 1
        let ci = b.build().unwrap();
        let (total, max) = bottleneck_lower_bound(&ci);
        assert_eq!(total, 3);
        assert_eq!(max, 2);
    }

    #[test]
    fn empty_instance_bounds_are_zero() {
        let ci = CoflowBuilder::new(Switch::uniform(1, 1, 1))
            .build()
            .unwrap();
        assert_eq!(bottleneck_lower_bound(&ci), (0, 0));
    }
}
