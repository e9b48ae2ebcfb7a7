//! The Poisson cell runner behind Figures 6 and 7 and the saturation
//! sweep.
//!
//! The paper's evaluation (§5.2.1) is one computation repeated:
//! `Poisson(M)` arrivals on an `m x m` switch for `T` rounds, a
//! heuristic, mean and maximum response over the trials. [`poisson_cell`]
//! is that computation, each trial a [`ScenarioSpec`] streamed through
//! the engine. The LP reference bounds of one `(M, T)` point (LP
//! (1)–(4) for average response, the binary-searched LP (19)–(21) for
//! maximum response) are [`lp_bounds_cell`], typically on a scaled
//! switch (see DESIGN.md §3.4).

use fss_engine::{BuiltinPolicy, EngineTelemetry};
use fss_offline::art::{art_lp_lower_bound, art_lp_lower_bound_windowed, ArtLpError};
use fss_offline::mrt::min_feasible_rho;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::scenario::{run_scenario, ScenarioSpec};

/// The heuristics the experiments compare (paper's trio + FIFO floor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Maximum-cardinality matching.
    MaxCard,
    /// Max-weight matching, weight = waiting time.
    MinRTime,
    /// Max-weight matching, weight = endpoint queue sizes.
    MaxWeight,
    /// Oldest-first greedy (baseline; not in the paper's trio).
    FifoGreedy,
}

impl PolicyKind {
    /// The paper's three heuristics.
    pub const PAPER_TRIO: [PolicyKind; 3] = [
        PolicyKind::MaxCard,
        PolicyKind::MinRTime,
        PolicyKind::MaxWeight,
    ];

    /// Display name (the engine policy's).
    pub fn name(self) -> &'static str {
        self.to_engine().name()
    }

    /// The engine counterpart of this policy.
    pub fn to_engine(self) -> BuiltinPolicy {
        match self {
            PolicyKind::MaxCard => BuiltinPolicy::MaxCard,
            PolicyKind::MinRTime => BuiltinPolicy::MinRTime,
            PolicyKind::MaxWeight => BuiltinPolicy::MaxWeight,
            PolicyKind::FifoGreedy => BuiltinPolicy::FifoGreedy,
        }
    }

    /// The policy whose engine counterpart is `b` (inverse of
    /// [`PolicyKind::to_engine`]).
    pub fn from_engine(b: BuiltinPolicy) -> PolicyKind {
        match b {
            BuiltinPolicy::MaxCard => PolicyKind::MaxCard,
            BuiltinPolicy::MinRTime => PolicyKind::MinRTime,
            BuiltinPolicy::MaxWeight => PolicyKind::MaxWeight,
            BuiltinPolicy::FifoGreedy => PolicyKind::FifoGreedy,
        }
    }
}

/// The paper's arrival rates `M ∈ {50, 100, 150, 300, 600}` (§5.2.1, a
/// 150-port switch) scaled to an `m`-port one: `M · m / 150`, at least 1.
pub fn scaled_rates(m: usize) -> [f64; 5] {
    let f = m as f64 / 150.0;
    [50.0, 100.0, 150.0, 300.0, 600.0].map(|v: f64| (v * f).max(1.0))
}

/// Seed for trial `k` of the figures' `(M, T)` point. Derived from the
/// *values*, not from a policy or a position in a grid, so every
/// heuristic and the LP bounds of a point see identical workloads: the
/// paired comparison the paper's figures rely on.
pub fn figure_trial_seed(mean_arrivals: f64, rounds: u64, trial: u64) -> u64 {
    0x5eed_f10e_u64
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(mean_arrivals.to_bits().rotate_left(17))
        .wrapping_add(rounds << 20)
        .wrapping_add(trial)
}

/// Aggregated result of one `(policy, M, T)` cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellResult {
    /// Policy evaluated.
    pub policy: PolicyKind,
    /// Mean arrivals per round.
    pub mean_arrivals: f64,
    /// Arrival rounds.
    pub rounds: u64,
    /// Trials aggregated.
    pub trials: u64,
    /// Mean (over trials) of the average response time.
    pub avg_response: f64,
    /// Mean (over trials) of the maximum response time.
    pub max_response: f64,
    /// Mean number of flows per trial.
    pub mean_flows: f64,
}

/// LP reference bounds for one `(M, T)` cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LpBoundResult {
    /// Mean arrivals per round.
    pub mean_arrivals: f64,
    /// Arrival rounds.
    pub rounds: u64,
    /// Trials aggregated.
    pub trials: u64,
    /// Mean of `LP(1)-(4) optimum / n`: fractional average response bound.
    pub avg_response_bound: f64,
    /// Mean of the binary-searched minimum LP-feasible ρ.
    pub max_response_bound: f64,
}

/// Run `policy` over `trials` workloads of `Poisson(rate)` arrivals per
/// round on an `m x m` switch for `rounds` rounds, trial `k` seeded with
/// `trial_seed(k)`, and average the per-trial statistics. Each trial's
/// scenario is streamed through the engine in `O(peak queue)` memory;
/// `tele` records the round loops (telemetry observes, never steers).
///
/// Trials are independent, so they go through the rayon shim like bench
/// cells do (`--jobs` / `RAYON_NUM_THREADS` cap the threads). Each trial
/// records into its own handle; the handles are merged into `tele` and
/// the per-trial results summed in trial-index order, so the
/// floating-point accumulation (and thus every reported number) is
/// bit-identical at every thread count.
pub fn poisson_cell(
    policy: PolicyKind,
    m: usize,
    rate: f64,
    rounds: u64,
    trials: u64,
    trial_seed: impl Fn(u64) -> u64 + Sync,
    tele: &mut EngineTelemetry,
) -> CellResult {
    let trial_ids: Vec<u64> = (0..trials).collect();
    let parent: &EngineTelemetry = tele;
    let runs: Vec<(fss_engine::StreamStats, EngineTelemetry)> = trial_ids
        .par_iter()
        .map(|&k| {
            let mut ttele = parent.sibling("trial");
            let spec = ScenarioSpec::poisson(m, rate, rounds, trial_seed(k));
            let stats = run_scenario(&spec, policy, &mut ttele, |_, _, _| {})
                .expect("synthetic scenario is valid");
            (stats, ttele)
        })
        .collect();
    let (mut avg, mut max, mut flows) = (0.0, 0.0, 0.0);
    for (stats, ttele) in &runs {
        avg += stats.mean_response();
        max += stats.max_response as f64;
        flows += stats.dispatched as f64;
        tele.merge(ttele);
    }
    let t = trials as f64;
    CellResult {
        policy,
        mean_arrivals: rate,
        rounds,
        trials,
        avg_response: avg / t,
        max_response: max / t,
        mean_flows: flows / t,
    }
}

/// Which LP reference bounds to compute (each is expensive on its own).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LpBoundParts {
    /// LP (1)–(4): fractional average-response bound (Figure 6).
    pub avg: bool,
    /// Binary-searched LP (19)–(21): minimum feasible ρ (Figure 7).
    pub max: bool,
}

impl LpBoundParts {
    /// Average-response bound only.
    pub const AVG: LpBoundParts = LpBoundParts {
        avg: true,
        max: false,
    };
    /// Maximum-response bound only.
    pub const MAX: LpBoundParts = LpBoundParts {
        avg: false,
        max: true,
    };
}

/// The LP reference bounds of one `(M, T)` point over the same per-trial
/// workloads [`poisson_cell`] streams (paper §5.2: LP (1)–(4) for Figure
/// 6, binary-searched LP (19)–(21) for Figure 7); a bound `parts` skips
/// is reported as 0. Intended for scaled-down switches; cost grows
/// quickly with `m·T`.
///
/// `avg_window`: when set, the ART bound uses the windowed LP with
/// per-flow response windows of that many rounds (grown automatically if
/// infeasible); `None` solves the full LP (1)–(4), which is only viable
/// for small cells.
pub fn lp_bounds_cell(
    m: usize,
    rate: f64,
    rounds: u64,
    trials: u64,
    trial_seed: impl Fn(u64) -> u64,
    avg_window: Option<u64>,
    parts: LpBoundParts,
) -> LpBoundResult {
    let mut avg_sum = 0.0;
    let mut max_sum = 0.0;
    for k in 0..trials {
        let spec = ScenarioSpec::poisson(m, rate, rounds, trial_seed(k));
        let inst = spec.instance().expect("synthetic scenario is valid");
        if inst.n() == 0 {
            continue;
        }
        if parts.avg {
            let avg_bound = match avg_window {
                None => art_lp_lower_bound(&inst, None).expect("LP bound within pivot budget"),
                Some(w) => {
                    // Grow the window until feasible (a too-small
                    // window has no fractional schedule at all).
                    let mut w = w;
                    loop {
                        match art_lp_lower_bound_windowed(&inst, w) {
                            Ok(v) => break v,
                            Err(ArtLpError::WindowInfeasible) => w *= 2,
                            Err(e) => panic!("LP bound failed: {e}"),
                        }
                    }
                }
            };
            avg_sum += avg_bound / inst.n() as f64;
        }
        if parts.max {
            // MinRTime is the tightest cheap upper bound on the
            // optimal rho; it seeds the binary search far below the
            // greedy default (the paper likewise seeds with its
            // best heuristic, §5.2.2).
            let hint = spec
                .run(PolicyKind::MinRTime)
                .expect("synthetic scenario is valid")
                .max_response;
            let rho = min_feasible_rho(&inst, Some(hint.max(1))).expect("binary search succeeds");
            max_sum += rho as f64;
        }
    }
    let t = trials as f64;
    LpBoundResult {
        mean_arrivals: rate,
        rounds,
        trials,
        avg_response_bound: avg_sum / t,
        max_response_bound: max_sum / t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_kinds_round_trip_through_the_engine() {
        let all = [
            PolicyKind::MaxCard,
            PolicyKind::MinRTime,
            PolicyKind::MaxWeight,
            PolicyKind::FifoGreedy,
        ];
        for p in all {
            let b = p.to_engine();
            assert_eq!(PolicyKind::from_engine(b), p);
            assert_eq!(p.name(), b.name());
            assert_eq!(p.name(), format!("{p:?}"));
        }
    }

    fn cell(policy: PolicyKind, m: usize, rate: f64, rounds: u64) -> CellResult {
        let seed = |k| figure_trial_seed(rate, rounds, k);
        let mut tele = EngineTelemetry::disabled();
        poisson_cell(policy, m, rate, rounds, 2, seed, &mut tele)
    }

    /// Every `(policy, M, T)` combination of a tiny grid.
    fn tiny_grid() -> Vec<CellResult> {
        let mut cells = Vec::new();
        for policy in [PolicyKind::MaxCard, PolicyKind::MinRTime] {
            for rate in [2.0, 4.0] {
                for rounds in [4, 6] {
                    cells.push(cell(policy, 5, rate, rounds));
                }
            }
        }
        cells
    }

    #[test]
    fn grid_covers_every_combination() {
        let results = tiny_grid();
        assert_eq!(results.len(), 2 * 2 * 2);
        for r in &results {
            assert!(r.avg_response >= 1.0, "responses are at least 1");
            assert!(r.max_response >= r.avg_response);
            assert!(r.mean_flows > 0.0);
        }
    }

    #[test]
    fn results_are_deterministic() {
        for (x, y) in tiny_grid().iter().zip(&tiny_grid()) {
            assert_eq!(x.avg_response, y.avg_response);
            assert_eq!(x.max_response, y.max_response);
            assert_eq!(x.mean_flows, y.mean_flows);
        }
    }

    #[test]
    fn lp_bounds_below_heuristics() {
        // The LP bounds must lower-bound every policy's results on the
        // same workloads (paired seeds).
        let (m, rate, rounds) = (4, 2.0, 5);
        let seed = |k| figure_trial_seed(rate, rounds, k);
        let both = LpBoundParts {
            avg: true,
            max: true,
        };
        let bound = lp_bounds_cell(m, rate, rounds, 2, seed, None, both);
        for policy in PolicyKind::PAPER_TRIO {
            let r = cell(policy, m, rate, rounds);
            assert!(
                bound.avg_response_bound <= r.avg_response + 1e-9,
                "{}: LP avg bound {} above heuristic {}",
                r.policy.name(),
                bound.avg_response_bound,
                r.avg_response
            );
            assert!(
                bound.max_response_bound <= r.max_response + 1e-9,
                "{}: LP max bound above heuristic",
                r.policy.name()
            );
        }
    }

    #[test]
    fn scaled_config_scales_rates() {
        let rates = scaled_rates(15);
        assert_eq!(rates[0], 5.0); // 50 * 15/150
        assert_eq!(rates[4], 60.0); // 600 * 15/150
        assert_eq!(scaled_rates(150), [50.0, 100.0, 150.0, 300.0, 600.0]);
    }
}
