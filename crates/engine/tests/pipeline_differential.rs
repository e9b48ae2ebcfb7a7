//! Span tracing observes the round loop, never steers it: with a live
//! flight handle attached, `run` reproduces the untraced run
//! **round-for-round** — the exact `on_dispatch` sequence and
//! `StreamStats`, not merely equal aggregates — for every §5 policy and
//! the incremental mode, with and without failure plans, and the traced
//! run actually records spans. (Metrics-only telemetry has the same pin
//! in `crates/bench/tests/telemetry_overhead.rs`.)

use fss_core::prelude::*;
use fss_engine::{run, BuiltinPolicy, EngineMode, EngineTelemetry, InstanceSource, Rule};
use fss_online::{FifoGreedy, MaxCard, MaxWeight, MinRTime, OnlinePolicy};
use fss_telemetry::FlightRecorder;
use proptest::prelude::*;

/// Strategy: a unit-demand instance on an `m x m` unit switch with
/// bursty conflicting arrivals (the regime where policies disagree
/// most).
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

/// Drive `inst` under `mode`, capturing the full dispatch schedule.
fn stream(inst: &Instance, mode: EngineMode, tele: &mut EngineTelemetry) -> Run {
    let mut schedule = Vec::new();
    let stats = run(
        InstanceSource::new(inst),
        mode.into(),
        None,
        tele,
        |id, rel, t| schedule.push((id, rel, t)),
    );
    (stats, schedule)
}

/// Same, under an outage plan with a fresh policy instance.
fn stream_under(
    inst: &Instance,
    kind: BuiltinPolicy,
    plan: &FailurePlan,
    tele: &mut EngineTelemetry,
) -> Run {
    let mut policy: Box<dyn OnlinePolicy> = match kind {
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

/// A handle with span tracing armed, and the recorder it records into.
fn traced() -> (FlightRecorder, EngineTelemetry) {
    let recorder = FlightRecorder::new();
    let tele = EngineTelemetry::disabled().with_flight(recorder.handle("differential"));
    (recorder, tele)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With span tracing armed, every §5 policy (and the incremental
    /// mode) produces the untraced schedule bit for bit — and actually
    /// records spans, so the comparison is not vacuous.
    #[test]
    fn flight_tracing_never_steers_the_pipeline(inst in unit_instance()) {
        let modes = POLICIES
            .iter()
            .map(|&p| EngineMode::Exact(p))
            .chain([EngineMode::Incremental]);
        for mode in modes {
            let base = stream(&inst, mode, &mut EngineTelemetry::disabled());
            let (recorder, mut on) = traced();
            let got = stream(&inst, mode, &mut on);
            prop_assert_eq!(&got, &base, "flight tracing steered mode {:?}", mode);
            let (recorded, _) = recorder.totals();
            prop_assert!(recorded > 0, "no spans recorded for mode {:?}", mode);
        }
    }

    /// Same under port outages: the traced run matches the untraced
    /// one, per policy.
    #[test]
    fn flight_tracing_never_steers_under_failures((inst, plan) in instance_and_plan()) {
        for kind in POLICIES {
            let base = stream_under(&inst, kind, &plan, &mut EngineTelemetry::disabled());
            let (recorder, mut on) = traced();
            let got = stream_under(&inst, kind, &plan, &mut on);
            prop_assert_eq!(
                &got, &base,
                "flight tracing steered policy {} + outages", kind.name()
            );
            let (recorded, _) = recorder.totals();
            prop_assert!(recorded > 0, "no spans recorded for policy {}", kind.name());
        }
    }
}
