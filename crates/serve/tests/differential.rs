//! Differential suite: a serve session fed a dumped trace produces a
//! dispatch stream **bit-identical** to `run_scenario` on the same
//! `ScenarioSpec` — for all four §5 policies, with and without an
//! injected failure plan.
//!
//! This is the serve crate's contract in executable form. Both sides
//! reduce to the same dispatch core (`run_source`); what this
//! suite actually pins down is everything serve adds around it — line
//! parsing, admission id assignment, the bounded queue, the blocking
//! channel hand-off, response serialization — preserving the schedule
//! byte for byte.

use fss_core::PortSide;
use fss_serve::{serve_reader, ServeKind, ServeMetrics, ServeMsg, ServeOptions, Sink};
use fss_sim::{run_scenario, ArrivalSpec, FailurePlan, Outage, PolicyKind, ScenarioSpec};
use std::io::Cursor;
use std::sync::Arc;

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::MaxCard,
    PolicyKind::MinRTime,
    PolicyKind::MaxWeight,
    PolicyKind::FifoGreedy,
];

fn poisson_spec(failures: Option<FailurePlan>) -> ScenarioSpec {
    ScenarioSpec {
        ports: 12,
        horizon: Some(80),
        arrivals: ArrivalSpec::Poisson { rate: 6.0 },
        failures,
        seed: 20_200_715, // the paper's SPAA 2020 presentation date
    }
}

fn outage_plan() -> FailurePlan {
    FailurePlan {
        outages: vec![
            Outage {
                side: PortSide::Input,
                port: 3,
                from: 10,
                to: 30,
            },
            Outage {
                side: PortSide::Output,
                port: 7,
                from: 25,
                to: 45,
            },
        ],
    }
}

/// The reference schedule: `run_scenario` over a trace-replay spec
/// pointing at the dumped trace file — the exact path a batch user
/// takes (`flowsched run --scenario`).
fn reference_lines(
    trace_path: &std::path::Path,
    policy: PolicyKind,
    failures: Option<FailurePlan>,
) -> (Vec<String>, fss_engine::StreamStats) {
    let spec = ScenarioSpec {
        ports: 0, // inherit from the trace header, like serve does
        horizon: None,
        arrivals: ArrivalSpec::Trace {
            path: trace_path.to_str().unwrap().to_string(),
        },
        failures,
        seed: 0,
    };
    let mut lines = Vec::new();
    let mut tele = fss_engine::EngineTelemetry::disabled();
    let stats = run_scenario(&spec, policy, &mut tele, |id, release, round| {
        lines.push(ServeMsg::dispatch(id, release, round).to_line());
    })
    .expect("reference scenario runs");
    (lines, stats)
}

/// The live schedule: the same trace's JSONL lines fed through a full
/// serve session over byte buffers.
fn served_lines(
    trace_jsonl: &str,
    policy: PolicyKind,
    failures: Option<FailurePlan>,
) -> (Vec<String>, fss_serve::ServeStats) {
    let opts = ServeOptions {
        policy,
        failures,
        queue_cap: 32, // small enough to exercise pause-mode backpressure
        ..ServeOptions::default()
    };
    let (sink, buf) = Sink::capture();
    let stats = serve_reader(
        opts,
        Cursor::new(trace_jsonl.to_string()),
        sink,
        Arc::new(ServeMetrics::new()),
    )
    .expect("serve session runs");
    let lines = String::from_utf8(buf.lock().unwrap().clone())
        .unwrap()
        .lines()
        .filter(|l| ServeMsg::parse(l).expect("response lines parse").kind == ServeKind::Dispatch)
        .map(str::to_string)
        .collect();
    (lines, stats)
}

fn assert_parity(failures: Option<FailurePlan>) {
    let spec = poisson_spec(failures.clone());
    let trace = spec.dump_trace().expect("bounded spec dumps");
    assert!(trace.arrivals.len() > 200, "workload is non-trivial");
    let dir = std::env::temp_dir().join(format!(
        "fss-serve-differential-{}-{}",
        std::process::id(),
        failures.is_some()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.jsonl");
    std::fs::write(&trace_path, trace.to_jsonl()).unwrap();

    for policy in POLICIES {
        let (want, ref_stats) = reference_lines(&trace_path, policy, failures.clone());
        let (got, stats) = served_lines(&trace.to_jsonl(), policy, failures.clone());
        assert_eq!(
            got.len(),
            want.len(),
            "{policy:?}: dispatch counts diverge (served {} vs reference {})",
            got.len(),
            want.len()
        );
        for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            assert_eq!(g, w, "{policy:?}: schedules diverge at dispatch {i}");
        }
        // The aggregate statistics agree too.
        assert_eq!(stats.dispatched, ref_stats.dispatched, "{policy:?}");
        assert_eq!(stats.makespan, ref_stats.makespan, "{policy:?}");
        assert_eq!(
            u128::from(stats.total_response),
            ref_stats.total_response,
            "{policy:?}"
        );
        assert_eq!(stats.max_response, ref_stats.max_response, "{policy:?}");
        assert_eq!(stats.arrived, trace.arrivals.len() as u64, "{policy:?}");
        assert_eq!(stats.dropped, 0, "{policy:?}: pause mode is lossless");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_matches_run_scenario_for_all_policies() {
    assert_parity(None);
}

#[test]
fn serve_matches_run_scenario_under_an_injected_failure_plan() {
    assert_parity(Some(outage_plan()));
}
