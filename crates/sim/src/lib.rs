//! # fss-sim — the flow-level simulator and experiment runner
//!
//! A from-scratch replacement for the paper's in-house C++/LEMON simulator
//! (§5.2): Poisson workloads on a unit-capacity switch, round-based online
//! execution of pluggable heuristics, the multi-trial cell every figure
//! point and saturation point is ([`poisson_cell`], trials in parallel
//! with rayon), and the LP reference bounds the paper compares against
//! in Figures 6 and 7 ([`lp_bounds_cell`]).
//!
//! The paper's headline configuration is a `150 x 150` switch with
//! `M ∈ {50, 100, 150, 300, 600}` mean arrivals per round for `T ∈ {10,
//! 12, ..., 20, 40, 60, 80, 100}` rounds, 10 trials per point. All of that
//! is expressible here; the figure binaries in `fss-bench` scale the
//! LP-bound series down (see DESIGN.md §3.4 — the paper needed >3 h of
//! Gurobi time per large cell).
//!
//! Heuristic execution has one path: a [`ScenarioSpec`] streamed through
//! the event-driven engine (`fss-engine`) by [`run_scenario`]. Its
//! schedules are round-for-round identical to the §5.2 reference loop
//! (`fss_online::run_policy`), which `tests/scenario_differential.rs`
//! holds it to on figure seeds and saturation seeds alike.
//!
//! Workloads are described declaratively by the [`scenario`] layer: a
//! serializable [`ScenarioSpec`] (ports, horizon, Poisson or trace-replay
//! arrivals, optional failure plan, seed) is the single construction
//! point every consumer — engine, saturation sweep, failure runner, bench
//! registry, CLI — builds its `FlowSource` from. On-disk arrival traces
//! (format, reader and writer in `fss-trace`; [`arrival_trace`] is the
//! in-memory value) make any workload exactly replayable.

#![deny(missing_docs)]
#![warn(unreachable_pub)]

pub mod arrival_trace;
mod experiment;
mod failures;
pub mod report;
mod saturation;
pub mod scenario;
pub mod stats;
mod workload;

pub use arrival_trace::{
    parse_trace_event, push_u64, ArrivalCheck, ArrivalTrace, Lines, TraceEvent, TraceSource,
    MAX_PORTS, MAX_RELEASE,
};
pub use experiment::{
    figure_trial_seed, lp_bounds_cell, poisson_cell, scaled_rates, CellResult, LpBoundParts,
    LpBoundResult, PolicyKind,
};
pub use failures::{run_policy_with_failures, FailurePlan, Outage};
pub use report::{bench_report_from_json, cell_fingerprint, BenchReport, BENCH_SCHEMA_VERSION};
pub use saturation::{saturation_sweep, stable_intensity, sweep_trial_seed, SaturationPoint};
pub use scenario::{run_scenario, run_source, ArrivalSpec, ScenarioError, ScenarioSpec};
pub use stats::{response_histogram, response_percentiles, ResponsePercentiles};
pub use workload::{poisson_workload, WorkloadParams};
