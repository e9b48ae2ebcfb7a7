//! Differential property tests for the pipelined multi-core engine:
//! `run` at `cores >= 2` must reproduce the sequential round loop
//! **round-for-round** — the exact `on_dispatch`
//! sequence and `StreamStats`, not merely equal aggregates — at every
//! cores level, for every §5 policy, with and without failure plans,
//! with and without telemetry, and with and without the flight
//! recorder. Parallelism changes wall time, never results; tracing
//! observes runs, never steers them.

use fss_core::prelude::*;
use fss_engine::{
    run, run_stream_cores, BuiltinPolicy, EngineMode, EngineTelemetry, FlowSource, InstanceSource,
    Rule,
};
use fss_online::{FifoGreedy, MaxCard, MaxWeight, MinRTime, OnlinePolicy};
use fss_telemetry::FlightRecorder;
use proptest::prelude::*;

/// Strategy: a unit-demand instance on an `m x m` unit switch with
/// bursty conflicting arrivals (the regime where policies disagree
/// most — and where pipeline stage boundaries see the most traffic).
fn unit_instance() -> impl Strategy<Value = Instance> {
    (2usize..=6, 1usize..=40, 0u64..12).prop_flat_map(|(m, n, spread)| {
        let flow = (0..m as u32, 0..m as u32, 0u64..=spread);
        proptest::collection::vec(flow, n).prop_map(move |flows| {
            let mut b = InstanceBuilder::new(Switch::uniform(m, m, 1));
            for (s, d, r) in flows {
                b.unit_flow(s, d, r);
            }
            b.build().expect("generated instance is valid")
        })
    })
}

/// Strategy: an instance plus an arbitrary outage plan over its ports.
fn instance_and_plan() -> impl Strategy<Value = (Instance, FailurePlan)> {
    (
        unit_instance(),
        proptest::collection::vec((0u32..2, 0u32..6, 0u64..15, 1u64..12), 0..4),
    )
        .prop_map(|(inst, outages)| {
            let m = inst.switch.num_inputs() as u32;
            let plan = FailurePlan {
                outages: outages
                    .into_iter()
                    .map(|(side, port, from, len)| Outage {
                        side: if side == 0 {
                            PortSide::Input
                        } else {
                            PortSide::Output
                        },
                        port: port % m,
                        from,
                        to: from + len,
                    })
                    .collect(),
            };
            (inst, plan)
        })
}

type Run = (fss_engine::StreamStats, Vec<(u64, u64, u64)>);

/// Drive `inst` through the pipelined engine at `cores`, capturing the
/// full dispatch schedule.
fn stream_at(inst: &Instance, mode: EngineMode, cores: usize, tele: &mut EngineTelemetry) -> Run {
    let mut schedule = Vec::new();
    let stats = run_stream_cores(
        InstanceSource::new(inst),
        mode,
        cores,
        tele,
        |id, rel, t| schedule.push((id, rel, t)),
    );
    (stats, schedule)
}

/// Same, under an outage plan with a fresh policy instance.
fn failures_at(
    inst: &Instance,
    kind: BuiltinPolicy,
    plan: &FailurePlan,
    cores: usize,
    tele: &mut EngineTelemetry,
) -> Run {
    let mut policy: Box<dyn OnlinePolicy + Send> = match kind {
        BuiltinPolicy::MaxCard => Box::new(MaxCard::default()),
        BuiltinPolicy::MinRTime => Box::new(MinRTime::default()),
        BuiltinPolicy::MaxWeight => Box::new(MaxWeight::default()),
        BuiltinPolicy::FifoGreedy => Box::new(FifoGreedy::default()),
    };
    let mut schedule = Vec::new();
    let stats = run(
        InstanceSource::new(inst),
        Rule::Policy(policy.as_mut()),
        Some(plan),
        cores,
        tele,
        |id, rel, t| schedule.push((id, rel, t)),
    );
    (stats, schedule)
}

const POLICIES: [BuiltinPolicy; 4] = [
    BuiltinPolicy::MaxCard,
    BuiltinPolicy::MinRTime,
    BuiltinPolicy::MaxWeight,
    BuiltinPolicy::FifoGreedy,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: every cores level reproduces the
    /// sequential schedule bit-for-bit, for every §5 policy and the
    /// incremental mode.
    #[test]
    fn pipelined_equals_sequential_for_every_policy(inst in unit_instance()) {
        let modes = POLICIES
            .iter()
            .map(|&p| EngineMode::Exact(p))
            .chain([EngineMode::Incremental]);
        for mode in modes {
            let mut off = EngineTelemetry::disabled();
            let base = stream_at(&inst, mode, 1, &mut off);
            for cores in [2usize, 3] {
                let got = stream_at(&inst, mode, cores, &mut off);
                prop_assert_eq!(
                    &got, &base,
                    "mode {:?} diverged at {} cores", mode, cores
                );
            }
        }
    }

    /// Under port outages the piped run must still match the
    /// sequential one, per policy, at every cores level.
    #[test]
    fn pipelined_failures_equal_sequential((inst, plan) in instance_and_plan()) {
        for kind in POLICIES {
            let mut off = EngineTelemetry::disabled();
            let base = failures_at(&inst, kind, &plan, 1, &mut off);
            for cores in [2usize, 3] {
                let got = failures_at(&inst, kind, &plan, cores, &mut off);
                prop_assert_eq!(
                    &got, &base,
                    "policy {} + outages diverged at {} cores", kind.name(), cores
                );
            }
        }
    }

    /// Telemetry observes, never steers: enabling it changes neither
    /// the schedule nor the stats, sequential or pipelined.
    #[test]
    fn telemetry_never_steers_the_pipeline(inst in unit_instance()) {
        for mode in [EngineMode::Incremental, EngineMode::Exact(BuiltinPolicy::MaxWeight)] {
            let mut off = EngineTelemetry::disabled();
            let base = stream_at(&inst, mode, 1, &mut off);
            for cores in [2usize, 3] {
                let mut on = EngineTelemetry::enabled();
                let got = stream_at(&inst, mode, cores, &mut on);
                prop_assert_eq!(
                    &got, &base,
                    "telemetry steered mode {:?} at {} cores", mode, cores
                );
            }
        }
    }

    /// The flight recorder observes, never steers: with span tracing
    /// armed, every §5 policy (and the incremental mode) produces a
    /// bit-identical schedule at 1/2/3 cores — and actually records
    /// spans, so the comparison is not vacuous.
    #[test]
    fn flight_tracing_never_steers_the_pipeline(inst in unit_instance()) {
        let modes = POLICIES
            .iter()
            .map(|&p| EngineMode::Exact(p))
            .chain([EngineMode::Incremental]);
        for mode in modes {
            let mut off = EngineTelemetry::disabled();
            let base = stream_at(&inst, mode, 1, &mut off);
            for cores in [1usize, 2, 3] {
                let recorder = FlightRecorder::new();
                let mut on = EngineTelemetry::disabled()
                    .with_flight(recorder.handle("differential"));
                let got = stream_at(&inst, mode, cores, &mut on);
                prop_assert_eq!(
                    &got, &base,
                    "flight tracing steered mode {:?} at {} cores", mode, cores
                );
                let (recorded, _) = recorder.totals();
                prop_assert!(
                    recorded > 0,
                    "no spans recorded for mode {:?} at {} cores", mode, cores
                );
            }
        }
    }

    /// Same under port outages: the traced run matches the untraced
    /// sequential one per policy, at every cores level.
    #[test]
    fn flight_tracing_never_steers_under_failures((inst, plan) in instance_and_plan()) {
        for kind in POLICIES {
            let mut off = EngineTelemetry::disabled();
            let base = failures_at(&inst, kind, &plan, 1, &mut off);
            for cores in [1usize, 2, 3] {
                let recorder = FlightRecorder::new();
                let mut on = EngineTelemetry::disabled()
                    .with_flight(recorder.handle("differential"));
                let got = failures_at(&inst, kind, &plan, cores, &mut on);
                prop_assert_eq!(
                    &got, &base,
                    "flight tracing steered policy {} + outages at {} cores",
                    kind.name(), cores
                );
            }
        }
    }
}

/// A deterministic dense instance whose arrival stream straddles the
/// pipeline's ingest batch boundary (1024 arrivals/batch) *mid-round*:
/// rounds hold 100 arrivals each, so batch 0 ends inside round 10 and
/// the ingest stage must hold that round open across the chunk seam.
fn chunk_straddling_instance(m: usize, flows: usize, per_round: usize) -> Instance {
    let mut b = InstanceBuilder::new(Switch::uniform(m, m, 1));
    for i in 0..flows {
        let src = (i % m) as u32;
        let dst = ((i * 7 + i / m) % m) as u32;
        b.unit_flow(src, dst, (i / per_round) as u64);
    }
    b.build().expect("dense instance is valid")
}

/// Regression: arrivals straddling the ingest chunk boundary (and the
/// rounds spanning it) must not split a round across batches — every
/// mode, every stage layout.
#[test]
fn chunk_boundary_round_straddle_is_seamless() {
    let inst = chunk_straddling_instance(6, 2200, 100);
    let source_len = InstanceSource::new(&inst).len_hint();
    for mode in [
        EngineMode::Incremental,
        EngineMode::Exact(BuiltinPolicy::MaxCard),
        EngineMode::Exact(BuiltinPolicy::MinRTime),
        EngineMode::Exact(BuiltinPolicy::MaxWeight),
        EngineMode::Exact(BuiltinPolicy::FifoGreedy),
    ] {
        let mut off = EngineTelemetry::disabled();
        let base = stream_at(&inst, mode, 1, &mut off);
        assert_eq!(base.0.arrived, 2200, "source len {source_len:?}");
        assert_eq!(base.0.arrived, base.0.dispatched, "stream must drain");
        // 6 pins "more than 3 behaves as 3".
        for cores in [2usize, 3, 6] {
            let got = stream_at(&inst, mode, cores, &mut off);
            assert_eq!(got, base, "mode {mode:?} split a round at {cores} cores");
        }
    }
}
