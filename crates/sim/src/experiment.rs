//! The experiment runner behind Figures 6 and 7.
//!
//! A grid of `(M, T)` cells is evaluated for each policy over `trials`
//! seeds; trials run in parallel (rayon). LP reference bounds — LP (1)–(4)
//! for average response, the binary-searched LP (19)–(21) for maximum
//! response — are computed by [`lp_bounds_grid`], typically on a scaled
//! switch (see DESIGN.md §3.4).

use fss_core::prelude::*;
use fss_engine::BuiltinPolicy;
use fss_offline::art::{art_lp_lower_bound, art_lp_lower_bound_windowed, ArtLpError};
use fss_offline::mrt::min_feasible_rho;
use fss_online::{run_policy, FifoGreedy, MaxCard, MaxWeight, MinRTime};
use rand::{rngs::SmallRng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::workload::{poisson_workload, WorkloadParams};

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

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::MaxCard => "MaxCard",
            PolicyKind::MinRTime => "MinRTime",
            PolicyKind::MaxWeight => "MaxWeight",
            PolicyKind::FifoGreedy => "FifoGreedy",
        }
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

    /// Run the policy over an instance through the event-driven engine
    /// (`fss-engine`). Schedules are round-for-round identical to
    /// [`PolicyKind::run_legacy`] — the engine's exact mode is
    /// differentially tested against the legacy loop — but the hot
    /// `M = 4m` cells run substantially faster.
    pub fn run(self, inst: &Instance) -> Schedule {
        self.run_telemetry(inst, &mut fss_engine::EngineTelemetry::disabled())
    }

    /// [`PolicyKind::run`] recording round-loop telemetry into `tele`.
    /// The schedule is bit-identical to the uninstrumented run —
    /// telemetry observes, never steers.
    pub fn run_telemetry(
        self,
        inst: &Instance,
        tele: &mut fss_engine::EngineTelemetry,
    ) -> Schedule {
        fss_engine::run_instance(inst, self.to_engine().into(), None, tele)
    }

    /// Run the policy over an instance with the legacy round-by-round
    /// loop ([`fss_online::run_policy`]). Kept as the reference
    /// implementation for differential testing.
    pub fn run_legacy(self, inst: &Instance) -> Schedule {
        match self {
            PolicyKind::MaxCard => run_policy(inst, &mut MaxCard::default()),
            PolicyKind::MinRTime => run_policy(inst, &mut MinRTime::default()),
            PolicyKind::MaxWeight => run_policy(inst, &mut MaxWeight::default()),
            PolicyKind::FifoGreedy => run_policy(inst, &mut FifoGreedy::default()),
        }
    }
}

/// A full experiment grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Switch size (paper: 150).
    pub m: usize,
    /// Mean-arrival values `M` (paper: 50, 100, 150, 300, 600).
    pub m_values: Vec<f64>,
    /// Round counts `T` (paper: 10..20 step 2, then 40..100 step 20).
    pub t_values: Vec<u64>,
    /// Trials per cell (paper: 10).
    pub trials: u64,
    /// Base RNG seed; trial `k` of cell `(M, T)` derives a unique stream.
    pub seed: u64,
    /// Policies to evaluate.
    pub policies: Vec<PolicyKind>,
}

impl ExperimentConfig {
    /// The paper's full grid (§5.2.1). Heavy: heuristics only.
    pub fn paper_full() -> Self {
        ExperimentConfig {
            m: 150,
            m_values: vec![50.0, 100.0, 150.0, 300.0, 600.0],
            t_values: vec![10, 12, 14, 16, 18, 20, 40, 60, 80, 100],
            trials: 10,
            seed: 0x5eed_f10e,
            policies: PolicyKind::PAPER_TRIO.to_vec(),
        }
    }

    /// A proportionally scaled grid: switch `m`, arrival rates scaled by
    /// `m / 150`, suitable for the LP-bound series.
    pub fn scaled(m: usize, t_values: Vec<u64>, trials: u64) -> Self {
        let f = m as f64 / 150.0;
        ExperimentConfig {
            m,
            m_values: [50.0, 100.0, 150.0, 300.0, 600.0]
                .iter()
                .map(|v| (v * f).max(1.0))
                .collect(),
            t_values,
            trials,
            seed: 0x5eed_f10e,
            policies: PolicyKind::PAPER_TRIO.to_vec(),
        }
    }

    /// Seed for trial `k` of cell `(M, T)`. Derived from the *values* (not
    /// grid indices) so that heuristic runs and LP-bound runs over
    /// different sub-grids still see identical workloads per cell — the
    /// paired comparison the paper's figures rely on.
    fn trial_seed(&self, mean_arrivals: f64, rounds: u64, trial: u64) -> u64 {
        self.seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(mean_arrivals.to_bits().rotate_left(17))
            .wrapping_add(rounds << 20)
            .wrapping_add(trial)
    }
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

/// Run every `(policy, M, T, trial)` combination; trials in parallel.
pub fn run_grid(cfg: &ExperimentConfig) -> Vec<CellResult> {
    run_grid_impl(cfg, false).0
}

/// [`run_grid`] with round-loop telemetry enabled: returns the cells
/// (identical to an uninstrumented run — telemetry observes, never
/// steers) plus one [`fss_telemetry::TelemetrySnapshot`] merged across every
/// `(policy, M, T)` cell of the grid.
pub fn run_grid_telemetry(
    cfg: &ExperimentConfig,
) -> (Vec<CellResult>, fss_telemetry::TelemetrySnapshot) {
    run_grid_impl(cfg, true)
}

fn run_grid_impl(
    cfg: &ExperimentConfig,
    instrument: bool,
) -> (Vec<CellResult>, fss_telemetry::TelemetrySnapshot) {
    let mut cells: Vec<(usize, usize)> = Vec::new();
    for mi in 0..cfg.m_values.len() {
        for ti in 0..cfg.t_values.len() {
            cells.push((mi, ti));
        }
    }
    let results: Vec<(CellResult, fss_telemetry::TelemetrySnapshot)> = cells
        .par_iter()
        .flat_map(|&(mi, ti)| {
            let mean_arrivals = cfg.m_values[mi];
            let rounds = cfg.t_values[ti];
            let params = WorkloadParams {
                m: cfg.m,
                mean_arrivals,
                rounds,
            };
            // One instance set per cell, shared across policies so the
            // comparison is paired (same workloads), as in the paper.
            let instances: Vec<Instance> = (0..cfg.trials)
                .map(|k| {
                    let mut rng = SmallRng::seed_from_u64(cfg.trial_seed(mean_arrivals, rounds, k));
                    poisson_workload(&mut rng, &params)
                })
                .collect();
            cfg.policies
                .par_iter()
                .map(|&policy| {
                    let mut tele = if instrument {
                        fss_engine::EngineTelemetry::enabled()
                    } else {
                        fss_engine::EngineTelemetry::disabled()
                    };
                    let mut avg_sum = 0.0;
                    let mut max_sum = 0.0;
                    let mut flows_sum = 0.0;
                    for inst in &instances {
                        let sched = policy.run_telemetry(inst, &mut tele);
                        let m = fss_core::metrics::evaluate(inst, &sched);
                        avg_sum += m.mean_response;
                        max_sum += m.max_response as f64;
                        flows_sum += m.n as f64;
                    }
                    let t = cfg.trials as f64;
                    let cell = CellResult {
                        policy,
                        mean_arrivals,
                        rounds,
                        trials: cfg.trials,
                        avg_response: avg_sum / t,
                        max_response: max_sum / t,
                        mean_flows: flows_sum / t,
                    };
                    (cell, tele.snapshot())
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let mut merged = fss_telemetry::TelemetrySnapshot::new();
    let mut out = Vec::with_capacity(results.len());
    for (cell, snap) in results {
        merged.merge(&snap);
        out.push(cell);
    }
    (out, merged)
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
    /// Both bounds.
    pub const ALL: LpBoundParts = LpBoundParts {
        avg: true,
        max: true,
    };
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

/// Compute the LP reference bounds per `(M, T)` cell (paper §5.2: LP
/// (1)–(4) for Figure 6, binary-searched LP (19)–(21) for Figure 7).
/// Intended for scaled-down configs; cost grows quickly with `m·T`.
/// Computes both bounds; see [`lp_bounds_grid_parts`] to compute only one.
///
/// `avg_window`: when set, the ART bound uses the windowed LP with
/// per-flow response windows of that many rounds (grown automatically if
/// infeasible); `None` solves the full LP (1)–(4), which is only viable
/// for small cells.
pub fn lp_bounds_grid(cfg: &ExperimentConfig, avg_window: Option<u64>) -> Vec<LpBoundResult> {
    lp_bounds_grid_parts(cfg, avg_window, LpBoundParts::ALL)
}

/// [`lp_bounds_grid`] restricted to the requested bound(s); skipped bounds
/// are reported as 0.
pub fn lp_bounds_grid_parts(
    cfg: &ExperimentConfig,
    avg_window: Option<u64>,
    parts: LpBoundParts,
) -> Vec<LpBoundResult> {
    let mut cells: Vec<(usize, usize)> = Vec::new();
    for mi in 0..cfg.m_values.len() {
        for ti in 0..cfg.t_values.len() {
            cells.push((mi, ti));
        }
    }
    cells
        .par_iter()
        .map(|&(mi, ti)| {
            let mean_arrivals = cfg.m_values[mi];
            let rounds = cfg.t_values[ti];
            let params = WorkloadParams {
                m: cfg.m,
                mean_arrivals,
                rounds,
            };
            let mut avg_sum = 0.0;
            let mut max_sum = 0.0;
            for k in 0..cfg.trials {
                let mut rng = SmallRng::seed_from_u64(cfg.trial_seed(mean_arrivals, rounds, k));
                let inst = poisson_workload(&mut rng, &params);
                if inst.n() == 0 {
                    continue;
                }
                if parts.avg {
                    let avg_bound = match avg_window {
                        None => {
                            art_lp_lower_bound(&inst, None).expect("LP bound within pivot budget")
                        }
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
                    let hint = fss_core::metrics::evaluate(&inst, &PolicyKind::MinRTime.run(&inst))
                        .max_response;
                    let rho =
                        min_feasible_rho(&inst, Some(hint.max(1))).expect("binary search succeeds");
                    max_sum += rho as f64;
                }
            }
            let t = cfg.trials as f64;
            LpBoundResult {
                mean_arrivals,
                rounds,
                trials: cfg.trials,
                avg_response_bound: avg_sum / t,
                max_response_bound: max_sum / t,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExperimentConfig {
        ExperimentConfig {
            m: 5,
            m_values: vec![2.0, 4.0],
            t_values: vec![4, 6],
            trials: 2,
            seed: 7,
            policies: vec![PolicyKind::MaxCard, PolicyKind::MinRTime],
        }
    }

    #[test]
    fn grid_covers_every_combination() {
        let cfg = tiny_cfg();
        let results = run_grid(&cfg);
        assert_eq!(results.len(), 2 * 2 * 2);
        for r in &results {
            assert!(r.avg_response >= 1.0, "responses are at least 1");
            assert!(r.max_response >= r.avg_response);
        }
    }

    #[test]
    fn results_are_deterministic() {
        let cfg = tiny_cfg();
        let mut a = run_grid(&cfg);
        let mut b = run_grid(&cfg);
        let key = |r: &CellResult| (r.policy.name(), r.mean_arrivals.to_bits(), r.rounds);
        a.sort_by_key(key);
        b.sort_by_key(key);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.avg_response, y.avg_response);
            assert_eq!(x.max_response, y.max_response);
        }
    }

    #[test]
    fn lp_bounds_below_heuristics() {
        // The LP bounds must lower-bound every policy's results on the
        // same workloads (paired seeds).
        let cfg = ExperimentConfig {
            m: 4,
            m_values: vec![2.0],
            t_values: vec![5],
            trials: 2,
            seed: 13,
            policies: PolicyKind::PAPER_TRIO.to_vec(),
        };
        let bounds = lp_bounds_grid(&cfg, None);
        assert_eq!(bounds.len(), 1);
        let results = run_grid(&cfg);
        for r in &results {
            assert!(
                bounds[0].avg_response_bound <= r.avg_response + 1e-9,
                "{}: LP avg bound {} above heuristic {}",
                r.policy.name(),
                bounds[0].avg_response_bound,
                r.avg_response
            );
            assert!(
                bounds[0].max_response_bound <= r.max_response + 1e-9,
                "{}: LP max bound above heuristic",
                r.policy.name()
            );
        }
    }

    #[test]
    fn engine_routing_matches_legacy_loop() {
        // `PolicyKind::run` routes through fss-engine; every kind must
        // reproduce the legacy loop's schedule exactly.
        let mut rng = SmallRng::seed_from_u64(31);
        for _ in 0..4 {
            let params = WorkloadParams {
                m: 6,
                mean_arrivals: 8.0,
                rounds: 10,
            };
            let inst = poisson_workload(&mut rng, &params);
            for kind in [
                PolicyKind::MaxCard,
                PolicyKind::MinRTime,
                PolicyKind::MaxWeight,
                PolicyKind::FifoGreedy,
            ] {
                assert_eq!(kind.run(&inst), kind.run_legacy(&inst), "{}", kind.name());
            }
        }
    }

    #[test]
    fn paper_config_shape() {
        let cfg = ExperimentConfig::paper_full();
        assert_eq!(cfg.m, 150);
        assert_eq!(cfg.m_values.len(), 5);
        assert_eq!(cfg.t_values.len(), 10);
        assert_eq!(cfg.trials, 10);
    }

    #[test]
    fn scaled_config_scales_rates() {
        let cfg = ExperimentConfig::scaled(15, vec![10], 3);
        assert_eq!(cfg.m, 15);
        assert_eq!(cfg.m_values[0], 5.0); // 50 * 15/150
        assert_eq!(cfg.m_values[4], 60.0); // 600 * 15/150
    }
}
