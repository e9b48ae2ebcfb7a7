//! # fss-engine — event-driven incremental scheduling engine
//!
//! The paper's experiments (§5.2.1, Figures 6–7) stress an `m x m` switch
//! with Poisson arrivals up to `M = 4m`. The reference runner
//! ([`fss_online::run_policy`]) advances round by round, rebuilds the
//! waiting graph, and re-solves a matching from a cold start every round —
//! even though per-round change is sparse (a few arrivals, at most `m`
//! departures). This crate is the event-driven, incremental replacement on
//! that hot path:
//!
//! * `stream` — the one round loop (ingest → select → dispatch →
//!   retire) over an event-style clock: the simulation jumps between
//!   arrival, dispatch and outage-end rounds instead of ticking
//!   `t += 1`, so idle rounds are never visited;
//! * `source` — the [`FlowSource`] streaming-arrival trait with a batch
//!   [`Instance`] adapter and an unbounded Poisson generator, so
//!   workloads no longer need to be materialized up front;
//! * `queue` — per-port sharded queue state: a cell-FIFO slab at 16
//!   bytes a waiting flow, grown in 16 KiB chunks, so memory tracks the
//!   peak queue at `m = 150`, `M = 4m` and beyond;
//! * `matcher` — an `IncrementalMatcher` that maintains a maximum
//!   matching of the waiting *support graph* across rounds and repairs it
//!   with augmenting paths rooted only at ports dirtied by
//!   arrivals/departures;
//! * `wmatcher` — the weighted sibling: an
//!   `IncrementalWeightedMatcher` that carries Hungarian dual
//!   potentials and the max-weight assignment across rounds for the
//!   MinRTime/MaxWeight policies, re-solving only rows dirtied by
//!   arrivals and dispatches (the batch Hungarian stays as the
//!   differential-test oracle);
//! * `exact` — an exact-parity core reproducing the reference runner's
//!   decisions round-for-round (differentially tested), with an
//!   optional [`FailurePlan`] port mask;
//! * `maxcard` — exact MaxCard's fast path: Hopcroft–Karp over the
//!   first-occurrence-deduped waiting graph, which is carried across
//!   rounds (repaired per arrival and departure) instead of rebuilt by
//!   scanning the backlog.
//!
//! ## Entry points
//!
//! * [`run`] — the one streaming entry: drive any [`FlowSource`]
//!   (bounded or endless) under a [`Rule`], optionally through a
//!   [`FailurePlan`], on the calling thread, in `O(peak queue)` memory.
//! * [`run_instance`] — the batch adapter over it: a [`Schedule`] for an
//!   [`Instance`], round-for-round identical to
//!   [`fss_online::run_policy`]'s for the exact rules (the reference loop
//!   stays available as the reference implementation for differential
//!   testing).
//! * [`run_stream_with`], [`run_stream_telemetry`], [`run_stream_cores`]
//!   — fixed-signature delegations to [`run`], kept because the
//!   repository benchmark (`perf/`) links them.
//!
//! Every rule addresses flows by one `u32` id: a source must keep its
//! ids at or below [`MAX_FLOW_ID`], and a run that meets a larger one
//! panics naming the bound instead of dispatching it under a colliding
//! id.
//!
//! There is no thread-count parameter: a round is one matching over the
//! whole switch, and the crate README ("One thread") has the measurement
//! that says moving source parsing to a second thread cannot pay.

#![deny(missing_docs)]
#![warn(unreachable_pub)]

mod exact;
mod matcher;
mod maxcard;
mod queue;
mod source;
mod stream;
mod wmatcher;

use fss_core::prelude::*;
use fss_online::{OnlinePolicy, WeightModel};

pub use fss_telemetry::{EngineTelemetry, Stage};
pub use queue::ShardedQueues;
pub use source::{poisson, Arrival, ChannelSource, FlowSource, InstanceSource, PoissonSource};
pub use stream::{run, StreamStats};

/// The largest flow id the engine addresses, under every rule: ids are
/// stored as `u32`, the reference runner's `FlowId` width.
pub const MAX_FLOW_ID: u64 = u32::MAX as u64;

/// `id` as the engine stores it. A wider id would be dispatched under a
/// colliding one, so it ends the run instead.
pub(crate) fn engine_id(id: u64) -> u32 {
    u32::try_from(id).unwrap_or_else(|_| {
        panic!("flow id {id} is past {MAX_FLOW_ID}, the largest id the engine addresses (u32)")
    })
}

/// The built-in round policies the engine can run with fast paths /
/// shared policy code (mirrors `fss_sim::PolicyKind`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuiltinPolicy {
    /// Maximum-cardinality matching: Hopcroft–Karp over the deduped
    /// waiting graph, which is kept up to date across rounds, or rebuilt
    /// by a scan each round while a [`FailurePlan`] masks ports
    /// (`maxcard`). Same schedule either way.
    MaxCard,
    /// Max-weight matching, weight = waiting time.
    MinRTime,
    /// Max-weight matching, weight = endpoint queue sizes.
    MaxWeight,
    /// Oldest-first greedy baseline.
    FifoGreedy,
}

impl BuiltinPolicy {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BuiltinPolicy::MaxCard => "MaxCard",
            BuiltinPolicy::MinRTime => "MinRTime",
            BuiltinPolicy::MaxWeight => "MaxWeight",
            BuiltinPolicy::FifoGreedy => "FifoGreedy",
        }
    }

    /// Parse a CLI-style name (`maxcard`, `minrtime`, `maxweight`, `fifo`).
    pub fn parse(s: &str) -> Option<BuiltinPolicy> {
        match s {
            "maxcard" => Some(BuiltinPolicy::MaxCard),
            "minrtime" => Some(BuiltinPolicy::MinRTime),
            "maxweight" => Some(BuiltinPolicy::MaxWeight),
            "fifo" | "fifogreedy" => Some(BuiltinPolicy::FifoGreedy),
            _ => None,
        }
    }

    /// The weight model of this policy's cell graph, when it is one of
    /// the weighted heuristics (the engine's incremental weighted
    /// matcher covers exactly these).
    pub(crate) fn weight_model(self) -> Option<WeightModel> {
        match self {
            BuiltinPolicy::MinRTime => Some(WeightModel::MinRTime),
            BuiltinPolicy::MaxWeight => Some(WeightModel::MaxWeight),
            BuiltinPolicy::MaxCard | BuiltinPolicy::FifoGreedy => None,
        }
    }
}

/// How a built-in [`Rule`] extracts each round's dispatch set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Exact-parity execution of a built-in policy. Like every rule, it
    /// addresses flows by ids at or below [`MAX_FLOW_ID`].
    Exact(BuiltinPolicy),
    /// The incremental support-graph matcher (MaxCard-equivalent
    /// cardinality, fastest mode).
    Incremental,
}

/// What selects each round's matching.
pub enum Rule<'p> {
    /// A built-in policy in exact-parity form, or the incremental
    /// support-graph matcher.
    Mode(EngineMode),
    /// Any weighted cell model (including `AgedMaxWeight`) through the
    /// incremental weighted matcher (`wmatcher`). For the built-in
    /// models this is what [`EngineMode::Exact`] already selects.
    Weighted(WeightModel),
    /// Any [`OnlinePolicy`], invoked on the reference-ordered waiting
    /// state (same queue discipline, same policy code as
    /// [`fss_online::run_policy`]).
    Policy(&'p mut dyn OnlinePolicy),
}

impl From<EngineMode> for Rule<'_> {
    fn from(mode: EngineMode) -> Self {
        Rule::Mode(mode)
    }
}

impl From<BuiltinPolicy> for Rule<'_> {
    fn from(policy: BuiltinPolicy) -> Self {
        Rule::Mode(EngineMode::Exact(policy))
    }
}

/// [`run`] over a batch instance, collected into a [`Schedule`]. For
/// the exact rules the schedule is round-for-round identical to
/// [`fss_online::run_policy`]'s with the same policy (differentially
/// tested); under [`EngineMode::Incremental`] every round dispatches a
/// *maximum* matching of its waiting graph, oldest-first within a cell.
pub fn run_instance(
    inst: &Instance,
    rule: Rule<'_>,
    failures: Option<&FailurePlan>,
    tele: &mut EngineTelemetry,
) -> Schedule {
    assert!(
        inst.switch.is_unit_capacity(),
        "engine requires unit capacities"
    );
    assert!(inst.is_unit_demand(), "engine requires unit demands");
    let mut rounds = vec![0u64; inst.n()];
    let source = InstanceSource::new(inst);
    run(source, rule, failures, tele, |id, _release, round| {
        rounds[id as usize] = round;
    });
    let sched = Schedule::from_rounds(rounds);
    debug_assert!(validate::check(inst, &sched, &inst.switch).is_ok());
    sched
}

/// [`run`] with no outage plan and no telemetry. Kept, signature-fixed,
/// for the repository benchmark.
pub fn run_stream_with<S: FlowSource>(
    source: S,
    mode: EngineMode,
    on_dispatch: impl FnMut(u64, u64, u64),
) -> StreamStats {
    run_stream_telemetry(source, mode, &mut EngineTelemetry::disabled(), on_dispatch)
}

/// [`run`] with no outage plan. Kept, signature-fixed, for the
/// repository benchmark.
pub fn run_stream_telemetry<S: FlowSource>(
    source: S,
    mode: EngineMode,
    tele: &mut EngineTelemetry,
    on_dispatch: impl FnMut(u64, u64, u64),
) -> StreamStats {
    run(source, mode.into(), None, tele, on_dispatch)
}

/// [`run_stream_telemetry`] under the signature the staged pipe had:
/// `cores` is ignored and the run is the one round loop on the calling
/// thread, whatever its value. Kept, signature-fixed, for the
/// repository benchmark, whose `trace-replay-pipelined` and
/// `pipeline.speedup_cores2` therefore read as `trace-replay` and ≈ 1.0.
pub fn run_stream_cores<S: FlowSource>(
    source: S,
    mode: EngineMode,
    _cores: usize,
    tele: &mut EngineTelemetry,
    on_dispatch: impl FnMut(u64, u64, u64),
) -> StreamStats {
    run(source, mode.into(), None, tele, on_dispatch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fss_core::gen::{random_instance, GenParams};
    use rand::{rngs::SmallRng, SeedableRng};

    fn batch(inst: &Instance, rule: Rule<'_>) -> Schedule {
        run_instance(inst, rule, None, &mut EngineTelemetry::disabled())
    }

    fn random_unit(seed: u64, m: usize, n: usize, rel: u64) -> Instance {
        let mut rng = SmallRng::seed_from_u64(seed);
        random_instance(&mut rng, &GenParams::unit(m, n, rel))
    }

    #[test]
    fn engine_matches_legacy_for_all_builtins() {
        for seed in 0..8 {
            let inst = random_unit(seed, 5, 40, 10);
            for b in [
                BuiltinPolicy::MaxCard,
                BuiltinPolicy::MinRTime,
                BuiltinPolicy::MaxWeight,
                BuiltinPolicy::FifoGreedy,
            ] {
                let engine = batch(&inst, b.into());
                let legacy = match b {
                    BuiltinPolicy::MaxCard => {
                        fss_online::run_policy(&inst, &mut fss_online::MaxCard::default())
                    }
                    BuiltinPolicy::MinRTime => {
                        fss_online::run_policy(&inst, &mut fss_online::MinRTime::default())
                    }
                    BuiltinPolicy::MaxWeight => {
                        fss_online::run_policy(&inst, &mut fss_online::MaxWeight::default())
                    }
                    BuiltinPolicy::FifoGreedy => {
                        fss_online::run_policy(&inst, &mut fss_online::FifoGreedy::default())
                    }
                };
                assert_eq!(engine, legacy, "policy {} seed {seed}", b.name());
            }
        }
    }

    #[test]
    fn custom_policies_also_match_the_reference_loop() {
        let inst = random_unit(3, 4, 30, 8);
        let engine = batch(
            &inst,
            Rule::Policy(&mut fss_online::AgedMaxWeight::new(0.7)),
        );
        let legacy = fss_online::run_policy(&inst, &mut fss_online::AgedMaxWeight::new(0.7));
        assert_eq!(engine, legacy);
    }

    #[test]
    fn incremental_dispatches_a_maximum_matching_every_round() {
        // Replay each incremental schedule round by round and check the
        // dispatched set has maximum cardinality for *that* round's
        // waiting graph (the MaxCard equivalence class — the defining
        // property of the incremental matcher).
        use fss_matching::{max_cardinality_matching, BipartiteGraph};
        for seed in 0..8 {
            let inst = random_unit(100 + seed, 6, 60, 12);
            let inc = batch(&inst, EngineMode::Incremental.into());
            validate::check(&inst, &inc, &inst.switch).unwrap();
            let horizon = inc.makespan();
            for t in 0..horizon {
                let mut g = BipartiteGraph::new(6, 6);
                let mut dispatched = 0usize;
                let mut any_waiting = false;
                for (i, f) in inst.flows.iter().enumerate() {
                    let run = inc.rounds()[i];
                    if f.release <= t && run >= t {
                        g.add_edge(f.src, f.dst);
                        any_waiting = true;
                    }
                    if run == t {
                        dispatched += 1;
                    }
                }
                if any_waiting {
                    assert_eq!(
                        dispatched,
                        max_cardinality_matching(&g).len(),
                        "seed {seed}, round {t}: dispatch not maximum"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_instance() {
        let inst = InstanceBuilder::new(Switch::uniform(3, 3, 1))
            .build()
            .unwrap();
        assert!(batch(&inst, BuiltinPolicy::MaxCard.into()).is_empty());
        assert!(batch(&inst, EngineMode::Incremental.into()).is_empty());
    }

    #[test]
    #[should_panic(expected = "unit capacities")]
    fn non_unit_capacity_rejected() {
        let inst = InstanceBuilder::new(Switch::uniform(2, 2, 3))
            .build()
            .unwrap();
        let _ = batch(&inst, BuiltinPolicy::MaxCard.into());
    }

    #[test]
    fn stream_mode_agrees_with_batch_metrics() {
        // Same Poisson workload, once streamed, once materialized and run
        // through the batch path: identical aggregate response stats.
        let (m, rate, rounds, seed) = (8usize, 6.0, 25u64, 9u64);
        let stats = run_stream_with(
            PoissonSource::new(m, rate, Some(rounds), seed),
            EngineMode::Exact(BuiltinPolicy::MaxCard),
            |_, _, _| {},
        );
        let mut src = PoissonSource::new(m, rate, Some(rounds), seed);
        let mut b = InstanceBuilder::new(Switch::uniform(m, m, 1));
        while let Some(a) = src.next_arrival() {
            b.unit_flow(a.src, a.dst, a.release);
        }
        let inst = b.build().unwrap();
        let sched = batch(&inst, BuiltinPolicy::MaxCard.into());
        let met = fss_core::metrics::evaluate(&inst, &sched);
        assert_eq!(stats.dispatched as usize, met.n);
        assert_eq!(stats.total_response, u128::from(met.total_response));
        assert_eq!(stats.max_response, met.max_response);
        assert_eq!(stats.makespan, met.makespan);
    }

    #[test]
    fn incremental_stream_matches_incremental_batch() {
        // Streamed and materialized runs of the same workload execute the
        // identical algorithm, so their statistics must coincide exactly.
        let (m, rate, rounds, seed) = (10usize, 12.0, 20u64, 21u64);
        let streamed = run_stream_with(
            PoissonSource::new(m, rate, Some(rounds), seed),
            EngineMode::Incremental,
            |_, _, _| {},
        );
        let mut src = PoissonSource::new(m, rate, Some(rounds), seed);
        let mut b = InstanceBuilder::new(Switch::uniform(m, m, 1));
        while let Some(a) = src.next_arrival() {
            b.unit_flow(a.src, a.dst, a.release);
        }
        let inst = b.build().unwrap();
        let sched = batch(&inst, EngineMode::Incremental.into());
        let met = fss_core::metrics::evaluate(&inst, &sched);
        assert_eq!(streamed.dispatched as usize, met.n);
        assert_eq!(streamed.total_response, u128::from(met.total_response));
        assert_eq!(streamed.max_response, met.max_response);
        assert_eq!(streamed.makespan, met.makespan);
    }
}
