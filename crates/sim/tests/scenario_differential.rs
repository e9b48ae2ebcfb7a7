//! Differential property tests for the Scenario API.
//!
//! The acceptance contract of the streaming path: Poisson cells and
//! failure-injection runs executed through streaming `FlowSource`
//! scenarios must be **identical** to the §5.2 reference — materialize
//! the workload, run `fss_online`'s round-by-round loop, evaluate the
//! schedule — equal schedules for failures, bit-equal aggregates for
//! cells, and arrival traces must replay a workload exactly
//! (generate → dump → replay ≡ original schedule).

use std::sync::Arc;

use fss_core::prelude::*;
use fss_engine::EngineTelemetry;
use fss_online::{
    run_policy, run_policy_under, FifoGreedy, MaxCard, MaxWeight, MinRTime, OnlinePolicy,
};
use fss_sim::arrival_trace::{ArrivalTrace, TraceSource};
use fss_sim::scenario::{run_scenario, ScenarioError, ScenarioSpec};
use fss_sim::{
    figure_trial_seed, poisson_cell, poisson_workload, run_policy_with_failures, saturation_sweep,
    sweep_trial_seed, PolicyKind, WorkloadParams,
};
use proptest::prelude::*;
use rand::{rngs::SmallRng, SeedableRng};

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

/// The §5.2 reference loop under `policy`.
fn reference_schedule(policy: PolicyKind, inst: &Instance) -> Schedule {
    match policy {
        PolicyKind::MaxCard => run_policy(inst, &mut MaxCard::default()),
        PolicyKind::MinRTime => run_policy(inst, &mut MinRTime::default()),
        PolicyKind::MaxWeight => run_policy(inst, &mut MaxWeight::default()),
        PolicyKind::FifoGreedy => run_policy(inst, &mut FifoGreedy::default()),
    }
}

/// A Poisson cell the way the paper states it: materialize each trial
/// with `poisson_workload`, run the reference loop, evaluate the
/// schedule, average over the trials in index order. Returns
/// `(avg_response, max_response, mean_flows)`.
fn reference_cell(
    policy: PolicyKind,
    params: &WorkloadParams,
    trials: u64,
    trial_seed: impl Fn(u64) -> u64,
) -> (f64, f64, f64) {
    let (mut avg, mut max, mut flows) = (0.0, 0.0, 0.0);
    for k in 0..trials {
        let inst = poisson_workload(&mut SmallRng::seed_from_u64(trial_seed(k)), params);
        let met = fss_core::metrics::evaluate(&inst, &reference_schedule(policy, &inst));
        avg += met.mean_response;
        max += met.max_response as f64;
        flows += met.n as f64;
    }
    let t = trials as f64;
    (avg / t, max / t, flows / t)
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
            let direct = reference_schedule(policy, &original);
            prop_assert_eq!(&replayed, &direct, "policy {}", policy.name());
        }
    }

    /// The one Poisson cell runner reproduces the reference's three
    /// numbers bit for bit, for every policy, under the figures' seeds
    /// (called directly) and the saturation sweep's (through the sweep).
    #[test]
    fn poisson_cell_equals_reference_loop(
        m in 2usize..=7,
        rate in 1u32..=20, // rate / 2.0: shim strategies are integer-based
        rounds in 2u64..20,
        seed in 0u64..10_000,
    ) {
        let rate = f64::from(rate) / 2.0;
        let params = WorkloadParams { m, mean_arrivals: rate, rounds };
        let lambda = rate / m as f64;
        // The sweep turns λ back into a rate; the reference must see
        // that value, not the one λ was derived from.
        let swept = WorkloadParams { mean_arrivals: lambda * m as f64, ..params.clone() };
        for policy in [
            PolicyKind::MaxCard,
            PolicyKind::MinRTime,
            PolicyKind::MaxWeight,
            PolicyKind::FifoGreedy,
        ] {
            let mut tele = EngineTelemetry::disabled();
            let figure_seed = |k| figure_trial_seed(rate, rounds, k);
            let cell = poisson_cell(policy, m, rate, rounds, 3, figure_seed, &mut tele);
            let want = reference_cell(policy, &params, 3, figure_seed);
            prop_assert_eq!(
                (cell.avg_response, cell.max_response, cell.mean_flows),
                want,
                "policy {}, figure seeds",
                policy.name()
            );

            let point = &saturation_sweep(policy, m, rounds, &[lambda], 2, seed, &mut tele)[0];
            let want = reference_cell(policy, &swept, 2, |k| sweep_trial_seed(seed, lambda, k));
            prop_assert_eq!(
                (point.mean_response, point.max_response),
                (want.0, want.1),
                "policy {}, saturation seeds",
                policy.name()
            );
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
            let legacy = reference_schedule(policy, &inst);
            assert_eq!(streamed, legacy, "{} seed {seed}", policy.name());
        }
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
