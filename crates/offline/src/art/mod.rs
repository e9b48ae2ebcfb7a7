//! Average response time (FS-ART) — paper §3.
//!
//! Three stages, exactly as in the paper:
//!
//! 1. `lp_bound` — the Garg–Kumar-style LP (1)–(4), whose optimum lower
//!    bounds the total response time of *any* schedule (Lemma 3.1); used as
//!    the comparison baseline in experiments (Figure 6);
//! 2. `iterative` — the Bansal–Kulkarni iterative rounding cascade over
//!    the interval LPs (5)–(12): produces a *pseudo-schedule* assigning
//!    each unit flow to one round with cost at most the LP optimum and
//!    windowed port overload `O(c_p log n)` (Lemma 3.3);
//! 3. `realize` — the Theorem 1 conversion: chop time into windows,
//!    decompose each window's flow graph into b-matchings (König edge
//!    coloring after port replication), and execute the matchings under a
//!    `(1 + c)` capacity blow-up, yielding a valid schedule with average
//!    response time within `1 + O(log n)/c` of optimal.

mod iterative;
mod lp_bound;
mod realize;

pub use iterative::{iterative_rounding, IterativeStats, PseudoResult};
pub use lp_bound::{art_lp_lower_bound, art_lp_lower_bound_windowed, ArtLpError};
pub use realize::{realize_schedule, RealizedSchedule};

use fss_core::prelude::*;

/// End-to-end FS-ART result (Theorem 1 pipeline).
#[derive(Debug, Clone)]
pub struct ArtResult {
    /// The valid schedule on the `(1+c)`-scaled switch.
    pub schedule: Schedule,
    /// Capacity blow-up factor used (`1 + c`).
    pub capacity_factor: u32,
    /// Window length `h` chosen by the realization.
    pub window: u64,
    /// The intermediate pseudo-schedule and its rounding statistics.
    pub pseudo: PseudoResult,
    /// Metrics of the final schedule.
    pub metrics: ResponseMetrics,
}

/// Run the full Theorem 1 pipeline with augmentation parameter `c >= 1`.
/// Requires unit demands (the paper's Theorem 1 setting; general
/// capacities are fine).
pub fn solve_art(inst: &Instance, c: u32) -> ArtResult {
    assert!(c >= 1, "augmentation parameter c must be >= 1");
    assert!(inst.is_unit_demand(), "Theorem 1 requires unit demands");
    let pseudo = iterative_rounding(inst);
    let realized = realize_schedule(inst, &pseudo.pseudo, c);
    let metrics = fss_core::metrics::evaluate(inst, &realized.schedule);
    ArtResult {
        schedule: realized.schedule,
        capacity_factor: 1 + c,
        window: realized.window,
        pseudo,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fss_core::gen::{random_instance, GenParams};
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn pipeline_produces_valid_augmented_schedule() {
        let mut rng = SmallRng::seed_from_u64(2024);
        let p = GenParams::unit(4, 20, 5);
        let inst = random_instance(&mut rng, &p);
        for c in [1u32, 2, 4] {
            let res = solve_art(&inst, c);
            validate::check(&inst, &res.schedule, &inst.switch.scaled(1 + c)).unwrap();
            assert_eq!(res.capacity_factor, 1 + c);
            assert_eq!(res.metrics.n, inst.n());
        }
    }

    #[test]
    fn total_response_bounded_by_lp_plus_delay() {
        let mut rng = SmallRng::seed_from_u64(7);
        let p = GenParams::unit(3, 12, 4);
        let inst = random_instance(&mut rng, &p);
        let res = solve_art(&inst, 2);
        // rho_final <= rho_pseudo + 2h per flow, and pseudo cost is LP-
        // bounded; a generous end-to-end sanity bound:
        let bound = res.pseudo.pseudo.total_response(&inst) + 2 * res.window * inst.n() as u64;
        assert!(
            res.metrics.total_response <= bound,
            "total {} exceeds pseudo + 2hn = {bound}",
            res.metrics.total_response
        );
    }

    #[test]
    #[should_panic(expected = "unit demands")]
    fn non_unit_demand_rejected() {
        let mut b = InstanceBuilder::new(Switch::uniform(1, 1, 2));
        b.flow(0, 0, 2, 0);
        let inst = b.build().unwrap();
        let _ = solve_art(&inst, 1);
    }
}
