//! The FS-ART lower-bound LP (1)–(4), after Garg–Kumar.
//!
//! Variables `b_{e,t}` give the amount of flow `e` served in round `t`;
//! the fractional response `Δ_e = Σ_t ((t - r_e)/d_e + 1/(2κ_e)) b_{e,t}`
//! satisfies `Σ_e Δ_e <= Σ_e ρ_e` for every schedule (Lemma 3.1), so the
//! LP optimum is the baseline the paper's Figure 6 compares heuristics
//! against.

use fss_core::prelude::*;
use fss_lp::{Cmp, LpBuilder, LpStatus};

/// Failures of the LP bound computation.
#[derive(Debug, Clone, PartialEq)]
pub enum ArtLpError {
    /// Simplex pivot budget exhausted.
    Solver(String),
    /// The (windowed) LP admits no fractional schedule — the window is too
    /// small; retry with a larger one.
    WindowInfeasible,
}

impl std::fmt::Display for ArtLpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtLpError::Solver(m) => write!(f, "LP solver failure: {m}"),
            ArtLpError::WindowInfeasible => write!(f, "window too small for a fractional schedule"),
        }
    }
}

impl std::error::Error for ArtLpError {}

/// A sufficient horizon: some optimal schedule uses makespan at most
/// `max_release + n` (idle rounds past the last release can be compacted
/// without increasing any response time), so restricting the LP to this
/// horizon preserves the lower-bound property.
pub(crate) fn default_horizon(inst: &Instance) -> u64 {
    inst.max_release() + inst.n() as u64 + 1
}

/// Optimal value of LP (1)–(4): a lower bound on the total response time
/// of any schedule of `inst`. `horizon` overrides `default_horizon`
/// (must be at least as large to keep the bound valid — callers shrinking
/// it get a *heuristic* bound, which the experiment runner never does).
pub fn art_lp_lower_bound(inst: &Instance, horizon: Option<u64>) -> Result<f64, ArtLpError> {
    art_lp_impl(inst, horizon, None)
}

/// Windowed variant: each flow's variables are restricted to
/// `[r_e, r_e + window)`. The optimum lower-bounds every schedule whose
/// maximum response time is at most `window` — the form used for the
/// larger Figure 6 cells, where the full LP (the paper spent >3 h of
/// Gurobi time per cell) is out of reach for a dense simplex. Callers pick
/// `window` comfortably above the best heuristic's maximum response and
/// report the choice (see EXPERIMENTS.md).
pub fn art_lp_lower_bound_windowed(inst: &Instance, window: u64) -> Result<f64, ArtLpError> {
    assert!(window >= 1, "window must allow at least one round");
    art_lp_impl(inst, None, Some(window))
}

fn art_lp_impl(
    inst: &Instance,
    horizon: Option<u64>,
    window: Option<u64>,
) -> Result<f64, ArtLpError> {
    if inst.n() == 0 {
        return Ok(0.0);
    }
    let h = horizon.unwrap_or_else(|| default_horizon(inst));
    let mut lp = LpBuilder::minimize();

    // Variables per flow and round, with the fractional-response objective.
    let mut vars: Vec<Vec<fss_lp::VarId>> = Vec::with_capacity(inst.n());
    for f in &inst.flows {
        let kappa = f64::from(inst.switch.kappa(f.src, f.dst));
        let de = f64::from(f.demand);
        let hi = match window {
            Some(w) => (f.release + w).min(h),
            None => h,
        };
        let mut row = Vec::new();
        for t in f.release..hi {
            let coef = (t - f.release) as f64 / de + 1.0 / (2.0 * kappa);
            row.push(lp.var(coef));
        }
        vars.push(row);
    }
    // (2): every flow completed across rounds.
    for (i, f) in inst.flows.iter().enumerate() {
        let terms: Vec<_> = vars[i].iter().map(|&v| (v, 1.0)).collect();
        lp.constraint(&terms, Cmp::Ge, f64::from(f.demand));
    }
    // (3): port capacity per round. Sparse accumulation.
    use std::collections::HashMap;
    let mut rows: HashMap<(bool, u32, u64), Vec<(fss_lp::VarId, f64)>> = HashMap::new();
    for (i, f) in inst.flows.iter().enumerate() {
        for (k, &v) in vars[i].iter().enumerate() {
            let t = f.release + k as u64;
            rows.entry((true, f.src, t)).or_default().push((v, 1.0));
            rows.entry((false, f.dst, t)).or_default().push((v, 1.0));
        }
    }
    let mut keys: Vec<_> = rows.keys().copied().collect();
    keys.sort_unstable();
    for key in keys {
        let (is_in, p, _) = key;
        let cap = if is_in {
            inst.switch.in_cap(p)
        } else {
            inst.switch.out_cap(p)
        };
        lp.constraint(&rows[&key], Cmp::Le, f64::from(cap));
    }

    let sol = lp.solve().map_err(|e| ArtLpError::Solver(e.to_string()))?;
    match sol.status {
        LpStatus::Optimal => Ok(sol.objective),
        // The LP is always feasible at the default horizon (greedy fits);
        // a caller-supplied horizon or window may be too small.
        LpStatus::Infeasible => Err(ArtLpError::WindowInfeasible),
        status => Err(ArtLpError::Solver(format!(
            "unexpected LP status {status:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::min_total_response;
    use fss_core::gen::{random_instance, GenParams};
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn empty_instance_zero_bound() {
        let inst = InstanceBuilder::new(Switch::uniform(1, 1, 1))
            .build()
            .unwrap();
        assert_eq!(art_lp_lower_bound(&inst, None).unwrap(), 0.0);
    }

    #[test]
    fn single_flow_bound_is_half() {
        // One unit flow, unit capacity: Delta = 0 + 1/2 = 0.5 <= rho = 1.
        let mut b = InstanceBuilder::new(Switch::uniform(1, 1, 1));
        b.unit_flow(0, 0, 0);
        let inst = b.build().unwrap();
        let bound = art_lp_lower_bound(&inst, None).unwrap();
        assert!((bound - 0.5).abs() < 1e-6);
    }

    #[test]
    fn lower_bounds_exact_optimum_on_random_instances() {
        let mut rng = SmallRng::seed_from_u64(101);
        for _ in 0..8 {
            let p = GenParams::unit(3, 7, 3);
            let inst = random_instance(&mut rng, &p);
            let bound = art_lp_lower_bound(&inst, None).unwrap();
            let (opt, _) = min_total_response(&inst);
            assert!(
                bound <= opt as f64 + 1e-6,
                "LP bound {bound} exceeds exact optimum {opt}"
            );
        }
    }

    #[test]
    fn bound_grows_with_congestion() {
        // k conflicting flows on one pair: LP must pay ~k^2/2; compare
        // against the exact serialized cost k(k+1)/2.
        for k in 1..=4u32 {
            let mut b = InstanceBuilder::new(Switch::uniform(1, 1, 1));
            for _ in 0..k {
                b.unit_flow(0, 0, 0);
            }
            let inst = b.build().unwrap();
            let bound = art_lp_lower_bound(&inst, None).unwrap();
            let exact = f64::from(k * (k + 1)) / 2.0;
            assert!(bound <= exact + 1e-6);
            // The LP's fractional optimum on a serialized port is exactly
            // sum_{j} (j - 1 + 1/2) = k^2 / 2.
            assert!((bound - f64::from(k * k) / 2.0).abs() < 1e-5);
        }
    }

    #[test]
    fn windowed_bound_sandwiched_between_full_lp_and_optimum() {
        let mut rng = SmallRng::seed_from_u64(66);
        for _ in 0..4 {
            let p = GenParams::unit(3, 7, 3);
            let inst = random_instance(&mut rng, &p);
            let full = art_lp_lower_bound(&inst, None).unwrap();
            let greedy = crate::greedy::greedy_schedule(&inst);
            let gm = fss_core::metrics::evaluate(&inst, &greedy);
            // Any schedule's per-flow response is at most its total, and
            // OPT's total is at most greedy's — so a window of greedy's
            // total response provably contains an optimal schedule.
            let w = gm.total_response + 1;
            let windowed = art_lp_lower_bound_windowed(&inst, w).unwrap();
            assert!(windowed >= full - 1e-6, "restriction cannot lower the LP");
            let (opt, _) = min_total_response(&inst);
            assert!(
                windowed <= opt as f64 + 1e-6,
                "windowed bound {windowed} above optimum {opt} at window {w}"
            );
        }
    }

    #[test]
    fn too_small_window_reports_infeasible() {
        let mut b = InstanceBuilder::new(Switch::uniform(1, 1, 1));
        b.unit_flow(0, 0, 0);
        b.unit_flow(0, 0, 0);
        let inst = b.build().unwrap();
        assert!(matches!(
            art_lp_lower_bound_windowed(&inst, 1),
            Err(ArtLpError::WindowInfeasible)
        ));
        assert!(art_lp_lower_bound_windowed(&inst, 2).is_ok());
    }

    #[test]
    fn mixed_demands_and_capacities() {
        let mut b = InstanceBuilder::new(Switch::new(vec![2, 2], vec![2, 2]));
        b.flow(0, 0, 2, 0);
        b.flow(0, 1, 1, 0);
        b.flow(1, 1, 2, 1);
        let inst = b.build().unwrap();
        let bound = art_lp_lower_bound(&inst, None).unwrap();
        assert!(bound > 0.0);
        let greedy = crate::greedy::greedy_schedule(&inst);
        let total = fss_core::metrics::evaluate(&inst, &greedy).total_response;
        assert!(bound <= total as f64 + 1e-6);
    }
}
