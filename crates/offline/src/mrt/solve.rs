//! FS-MRT driver: binary search over the response bound.
//!
//! Minimizes ρ such that the LP (19)–(21) with `R(e) = [r_e, r_e + ρ)` is
//! feasible. The LP value lower-bounds the integral optimum, so the
//! schedule produced at `ρ*` has maximum response time at most the optimal
//! one — at the price of `<= 2·dmax − 1` extra capacity per port
//! (Theorem 3). The search is seeded with an upper bound from the greedy
//! baseline (the paper seeds with its best online heuristic; pass a better
//! `hint` if one is available).

use fss_core::prelude::*;
use fss_lp::LpStatus;
use fss_rounding::RoundingError;

use super::time_constrained::{round_time_constrained, time_constrained_lp, TimeConstrained};

/// Failures of the FS-MRT solver.
#[derive(Debug, Clone, PartialEq)]
pub enum MrtError {
    /// LP solver failure (pivot budget).
    Solver(String),
}

impl std::fmt::Display for MrtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MrtError::Solver(m) => write!(f, "solver failure: {m}"),
        }
    }
}

impl std::error::Error for MrtError {}

/// Result of [`solve_mrt`].
#[derive(Debug, Clone)]
pub struct MrtResult {
    /// The minimum LP-feasible response bound ρ* (a lower bound on the
    /// integral optimum; the schedule achieves it with augmentation).
    pub rho_star: u64,
    /// Integral schedule with `max response <= rho_star`.
    pub schedule: Schedule,
    /// Measured additive augmentation (Theorem 3 promises `<= 2·dmax − 1`).
    pub augmentation: u32,
}

/// Is the LP (19)–(21) feasible for response bound `rho`?
pub fn lp_feasible(inst: &Instance, rho: u64) -> Result<bool, MrtError> {
    if inst.n() == 0 {
        return Ok(true);
    }
    let tc = TimeConstrained::from_response_bound(inst, rho);
    let (lp, _) = time_constrained_lp(&tc);
    let sol = lp.solve().map_err(|e| MrtError::Solver(e.to_string()))?;
    Ok(sol.status == LpStatus::Optimal)
}

/// Minimum ρ for which the LP relaxation is feasible. `hint` is any known
/// feasible upper bound (e.g. from a heuristic schedule); the greedy
/// baseline is used when `None`.
pub fn min_feasible_rho(inst: &Instance, hint: Option<u64>) -> Result<u64, MrtError> {
    if inst.n() == 0 {
        return Ok(0);
    }
    let hi_seed = hint.unwrap_or_else(|| {
        let g = crate::greedy::greedy_schedule(inst);
        fss_core::metrics::evaluate(inst, &g).max_response
    });
    debug_assert!(hi_seed >= 1);
    let mut hi = hi_seed;
    // The hint must itself be feasible; distrust and grow if not (a bad
    // hint must not make the solver wrong, only slower).
    while !lp_feasible(inst, hi)? {
        hi = hi.saturating_mul(2).max(1);
    }
    let mut lo = 1u64;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if lp_feasible(inst, mid)? {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(lo)
}

/// Full FS-MRT pipeline: binary search + rounding.
pub fn solve_mrt(inst: &Instance, hint: Option<u64>) -> Result<MrtResult, MrtError> {
    if inst.n() == 0 {
        return Ok(MrtResult {
            rho_star: 0,
            schedule: Schedule::from_rounds(vec![]),
            augmentation: 0,
        });
    }
    let rho_star = min_feasible_rho(inst, hint)?;
    let tc = TimeConstrained::from_response_bound(inst, rho_star);
    let res = round_time_constrained(&tc)
        .map_err(|e| match e {
            RoundingError::Infeasible => {
                MrtError::Solver("rounding claims infeasible at LP-feasible rho".into())
            }
            RoundingError::SolverFailure(m) => MrtError::Solver(m),
        })?
        .expect("LP feasible at rho_star by binary-search invariant");
    debug_assert!(fss_core::metrics::evaluate(inst, &res.schedule).max_response <= rho_star);
    Ok(MrtResult {
        rho_star,
        schedule: res.schedule,
        augmentation: res.augmentation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::min_max_response;
    use fss_core::gen::{random_instance, GenParams};
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn empty_instance() {
        let inst = InstanceBuilder::new(Switch::uniform(1, 1, 1))
            .build()
            .unwrap();
        let r = solve_mrt(&inst, None).unwrap();
        assert_eq!(r.rho_star, 0);
    }

    #[test]
    fn serialized_port_needs_rho_n() {
        let mut b = InstanceBuilder::new(Switch::uniform(1, 1, 1));
        for _ in 0..4 {
            b.unit_flow(0, 0, 0);
        }
        let inst = b.build().unwrap();
        let r = solve_mrt(&inst, None).unwrap();
        assert_eq!(r.rho_star, 4);
        let m = fss_core::metrics::evaluate(&inst, &r.schedule);
        assert!(m.max_response <= 4);
    }

    #[test]
    fn rho_star_lower_bounds_exact_optimum() {
        let mut rng = SmallRng::seed_from_u64(55);
        for _ in 0..8 {
            let p = GenParams::unit(3, 8, 3);
            let inst = random_instance(&mut rng, &p);
            let r = solve_mrt(&inst, None).unwrap();
            let (opt, _) = min_max_response(&inst);
            assert!(
                r.rho_star <= opt,
                "LP bound {} exceeds integral optimum {opt}",
                r.rho_star
            );
            // Theorem 3: schedule meets rho_star with small augmentation.
            let m = fss_core::metrics::evaluate(&inst, &r.schedule);
            assert!(m.max_response <= r.rho_star);
            assert!(r.augmentation <= 1, "2*dmax-1 = 1 for unit demands");
            validate::check(&inst, &r.schedule, &inst.switch.augmented(r.augmentation)).unwrap();
        }
    }

    #[test]
    fn bad_hint_is_corrected() {
        let mut b = InstanceBuilder::new(Switch::uniform(1, 1, 1));
        for _ in 0..3 {
            b.unit_flow(0, 0, 0);
        }
        let inst = b.build().unwrap();
        // Hint 1 is infeasible; solver must still find 3.
        let r = solve_mrt(&inst, Some(1)).unwrap();
        assert_eq!(r.rho_star, 3);
    }

    #[test]
    fn mixed_demands_respect_paper_bound() {
        let mut rng = SmallRng::seed_from_u64(77);
        for _ in 0..6 {
            let p = GenParams {
                m: 3,
                m_out: 3,
                cap: 4,
                n: 10,
                max_demand: 3,
                max_release: 4,
            };
            let inst = random_instance(&mut rng, &p);
            let dmax = inst.dmax();
            let r = solve_mrt(&inst, None).unwrap();
            assert!(
                r.augmentation < 2 * dmax,
                "augmentation {} exceeds 2*dmax-1 = {}",
                r.augmentation,
                2 * dmax - 1
            );
            validate::check(&inst, &r.schedule, &inst.switch.augmented(r.augmentation)).unwrap();
        }
    }
}
