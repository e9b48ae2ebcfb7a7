//! Differential property tests for the Scenario API.
//!
//! The acceptance contract of the streaming redesign: saturation sweeps
//! and failure-injection runs executed through streaming `FlowSource`
//! scenarios must be **identical** to the legacy materialize-then-run
//! paths — equal schedules for failures, bit-equal aggregates for sweeps
//! — and arrival traces must replay a workload exactly
//! (generate → dump → replay ≡ original schedule).

use std::sync::Arc;

use fss_core::prelude::*;
use fss_engine::EngineTelemetry;
use fss_online::{run_policy_under, FifoGreedy, MaxCard, MaxWeight, MinRTime, OnlinePolicy};
use fss_sim::arrival_trace::{ArrivalTrace, TraceSource};
use fss_sim::scenario::{run_scenario, ScenarioError, ScenarioSpec};
use fss_sim::{
    run_policy_with_failures, saturation_sweep, saturation_sweep_legacy, stable_intensity,
    stable_intensity_legacy, PolicyKind,
};
use proptest::prelude::*;

/// Strategy: a unit-demand instance on an `m x m` unit switch with
/// bursty conflicting arrivals, paired with an arbitrary outage plan
/// over the same ports.
fn instance_and_plan() -> impl Strategy<Value = (Instance, FailurePlan)> {
    (2usize..=6, 1usize..=40, 0u64..12).prop_flat_map(|(m, n, spread)| {
        let flow = (0..m as u32, 0..m as u32, 0u64..=spread);
        let outage = (0u32..2, 0..m as u32, 0u64..15, 1u64..12);
        (
            proptest::collection::vec(flow, n),
            proptest::collection::vec(outage, 0..4),
        )
            .prop_map(move |(flows, outages)| {
                let mut b = InstanceBuilder::new(Switch::uniform(m, m, 1));
                for (s, d, r) in flows {
                    b.unit_flow(s, d, r);
                }
                let plan = FailurePlan {
                    outages: outages
                        .into_iter()
                        .map(|(side, port, from, len)| Outage {
                            side: if side == 0 {
                                PortSide::Input
                            } else {
                                PortSide::Output
                            },
                            port,
                            from,
                            to: from + len,
                        })
                        .collect(),
                };
                (b.build().expect("generated instance is valid"), plan)
            })
    })
}

fn with_each_policy(mut f: impl FnMut(&mut dyn OnlinePolicy, &'static str)) {
    f(&mut MaxCard::default(), "MaxCard");
    f(&mut MinRTime::default(), "MinRTime");
    f(&mut MaxWeight::default(), "MaxWeight");
    f(&mut FifoGreedy::default(), "FifoGreedy");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Streaming failure runs are round-for-round identical to the legacy
    /// batch runner, for every policy and arbitrary outage plans
    /// (overlapping, repeated, and extending past the arrival window).
    #[test]
    fn streaming_failures_equal_legacy_schedules(
        (inst, plan) in instance_and_plan(),
    ) {
        let mut results: Vec<(&'static str, Schedule, Schedule)> = Vec::new();
        with_each_policy(|p, name| {
            let streamed = run_policy_with_failures(&inst, p, &plan);
            let legacy = run_policy_under(&inst, p, Some(&plan));
            results.push((name, streamed, legacy));
        });
        for (name, streamed, legacy) in results {
            prop_assert_eq!(streamed.rounds(), legacy.rounds(), "policy {}", name);
        }
    }

    /// Trace round trip: dump any Poisson scenario to JSONL, reload it,
    /// and the replay produces the identical instance and (hence)
    /// identical schedules for every policy.
    #[test]
    fn trace_round_trip_replays_exactly(
        m in 2usize..=8,
        rate in 1u32..=24, // rate / 2.0: shim strategies are integer-based
        rounds in 1u64..25,
        seed in 0u64..5_000,
    ) {
        let rate = f64::from(rate) / 2.0;
        let spec = ScenarioSpec::poisson(m, rate, rounds, seed);
        let trace = spec.dump_trace().expect("bounded scenario dumps");
        let text = trace.to_jsonl();
        let back = ArrivalTrace::from_jsonl(&text).expect("dumped traces are valid");
        prop_assert_eq!(&back, &trace);

        let original = spec.instance().expect("bounded scenario materializes");
        prop_assert_eq!(&back.to_instance(), &original);

        for policy in PolicyKind::PAPER_TRIO {
            let mut rounds_by_id = vec![0u64; original.n()];
            replay_trace(&back, policy, &mut rounds_by_id);
            let replayed = Schedule::from_rounds(rounds_by_id);
            let direct = policy.run(&original);
            prop_assert_eq!(&replayed, &direct, "policy {}", policy.name());
        }
    }

    /// The streaming saturation sweep is bit-identical to the legacy
    /// batch sweep (same seeds, same aggregates) for every policy.
    #[test]
    fn streaming_sweep_is_bit_identical_to_legacy(
        m in 2usize..=7,
        rounds in 2u64..20,
        seed in 0u64..10_000,
    ) {
        let intensities = [0.2, 0.7, 1.1];
        for policy in [
            PolicyKind::MaxCard,
            PolicyKind::MinRTime,
            PolicyKind::MaxWeight,
            PolicyKind::FifoGreedy,
        ] {
            let mut tele = EngineTelemetry::disabled();
            let streamed =
                saturation_sweep(policy, m, rounds, &intensities, 2, seed, &mut tele);
            let legacy = saturation_sweep_legacy(policy, m, rounds, &intensities, 2, seed);
            prop_assert_eq!(streamed.len(), legacy.len());
            for (s, l) in streamed.iter().zip(&legacy) {
                prop_assert_eq!(s.intensity, l.intensity);
                prop_assert_eq!(s.mean_response, l.mean_response, "policy {}", policy.name());
                prop_assert_eq!(s.max_response, l.max_response, "policy {}", policy.name());
            }
        }
    }
}

/// Drive a trace through the engine with `policy`, writing dispatch
/// rounds into `rounds_by_id` (indexed by trace sequence number).
fn replay_trace(trace: &ArrivalTrace, policy: PolicyKind, rounds_by_id: &mut [u64]) {
    let source = TraceSource::new(Arc::new(trace.clone()));
    fss_engine::run(
        source,
        policy.to_engine().into(),
        None,
        &mut EngineTelemetry::disabled(),
        |id, _release, round| {
            rounds_by_id[id as usize] = round;
        },
    );
}

/// `run_scenario`, writing each flow's dispatch round into
/// `rounds` (indexed by flow id).
fn scheduled(
    spec: &ScenarioSpec,
    policy: PolicyKind,
    rounds: &mut [u64],
) -> fss_engine::StreamStats {
    let mut tele = EngineTelemetry::disabled();
    run_scenario(spec, policy, &mut tele, |id, _r, t| rounds[id as usize] = t).unwrap()
}

#[test]
fn run_scenario_weighted_schedules_equal_legacy_loop() {
    // Round-for-round parity of the incremental weighted engine path:
    // a Poisson scenario streamed through `run_scenario` must dispatch
    // every flow in exactly the round the legacy `fss_online::run_policy`
    // loop does, for both weighted heuristics.
    for policy in [PolicyKind::MinRTime, PolicyKind::MaxWeight] {
        for seed in [1u64, 9, 33, 0xbeef] {
            let spec = ScenarioSpec::poisson(7, 9.0, 16, seed);
            let inst = spec.instance().unwrap();
            let mut rounds = vec![0u64; inst.n()];
            let stats = scheduled(&spec, policy, &mut rounds);
            assert_eq!(stats.dispatched as usize, inst.n());
            let streamed = Schedule::from_rounds(rounds);
            let legacy = match policy {
                PolicyKind::MinRTime => fss_online::run_policy(&inst, &mut MinRTime::default()),
                _ => fss_online::run_policy(&inst, &mut MaxWeight::default()),
            };
            assert_eq!(streamed, legacy, "{} seed {seed}", policy.name());
        }
    }
}

#[test]
fn stable_intensity_streaming_equals_legacy() {
    for policy in [PolicyKind::MaxCard, PolicyKind::FifoGreedy] {
        let a = stable_intensity(policy, 5, 12, 3.0, 2, 99);
        let b = stable_intensity_legacy(policy, 5, 12, 3.0, 2, 99);
        assert_eq!(a, b, "{}", policy.name());
    }
}

#[test]
fn scenario_failure_runs_match_batch_failure_runner() {
    // End-to-end: a Poisson scenario with an outage plan, run streaming,
    // must produce the exact schedule of materialize + batch failure run.
    let plan = FailurePlan {
        outages: vec![
            Outage {
                side: PortSide::Input,
                port: 1,
                from: 0,
                to: 9,
            },
            Outage {
                side: PortSide::Output,
                port: 0,
                from: 4,
                to: 13,
            },
        ],
    };
    let spec = ScenarioSpec::poisson(5, 4.0, 18, 123).with_failures(plan.clone());
    let inst = spec.instance().unwrap();
    for policy in [PolicyKind::MaxCard, PolicyKind::MinRTime] {
        let mut rounds = vec![0u64; inst.n()];
        let stats = scheduled(&spec, policy, &mut rounds);
        let streamed = Schedule::from_rounds(rounds);
        let batch = match policy {
            PolicyKind::MaxCard => run_policy_under(&inst, &mut MaxCard::default(), Some(&plan)),
            _ => run_policy_under(&inst, &mut MinRTime::default(), Some(&plan)),
        };
        assert_eq!(streamed, batch, "{}", policy.name());
        assert_eq!(stats.dispatched as usize, inst.n());
    }
}

#[test]
fn malformed_traces_error_not_panic() {
    for (text, what) in [
        ("", "empty file"),
        ("{\"ports\":0}\n", "zero ports"),
        ("{\"ports\":4}\n{\"release\":0,\"src\":9,\"dst\":0}\n", "bad port"),
        (
            "{\"ports\":4}\n{\"release\":5,\"src\":0,\"dst\":0}\n{\"release\":1,\"src\":0,\"dst\":0}\n",
            "unsorted releases",
        ),
        ("{\"ports\":4}\ngarbage\n", "garbage line"),
        ("{\"ports\":4}\n{\"release\":0,\"src\":0}\n", "missing field"),
    ] {
        assert!(ArrivalTrace::from_jsonl(text).is_err(), "{what} must error");
    }
    // A scenario pointing at a missing file errors with Io, not a panic.
    let spec = ScenarioSpec::trace("/nonexistent/trace.jsonl");
    assert!(matches!(
        spec.run(PolicyKind::MaxCard),
        Err(ScenarioError::Trace(fss_trace::TraceFileError::Io { .. }))
    ));
}
