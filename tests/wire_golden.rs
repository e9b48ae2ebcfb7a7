//! Golden bytes of the three JSON wire formats: field order and
//! `null`-versus-omitted, which no round-trip test can see.
//!
//! A peer or a checked-in artifact written by an earlier build reads
//! these bytes, so a change to any expected string here is a protocol
//! or schema change, not a refactor.

use fss_core::prelude::*;
use fss_serve::{ServeMsg, ServeStats};
use fss_sim::report::{bench_cell_to_jsonl, BenchCell};
use fss_sim::{PolicyKind, ScenarioSpec};
use fss_telemetry::TelemetrySnapshot;

fn cell() -> BenchCell {
    BenchCell::new(
        "fig6/MaxCard/M50/T10",
        vec![("M".into(), "50".into())],
        vec![("avg_response".into(), 3.25)],
        0.5,
        100,
        "engine",
    )
}

fn snapshot() -> TelemetrySnapshot {
    let mut snap = TelemetrySnapshot::new();
    snap.add_counter("rounds", 3);
    snap
}

/// Serve omits every `None`: a `Dispatch` line is one per flow.
#[test]
fn serve_lines() {
    assert_eq!(
        ServeMsg::started(8, PolicyKind::MaxCard, 1024, "pause").to_line(),
        r#"{"kind":"Started","proto":1,"ports":8,"policy":"MaxCard","queue_cap":1024,"admission":"pause"}"#
    );
    assert_eq!(
        ServeMsg::dropped(5, 2, 6, 1024).to_line(),
        r#"{"kind":"Dropped","release":5,"src":2,"dst":6,"queued":1024}"#
    );
    let stats = ServeStats {
        arrived: 10,
        admitted: 9,
        dropped: 1,
        dispatched: 9,
        pauses: 2,
        makespan: 17,
        total_response: 40,
        max_response: 8,
        peak_queue: 5,
    };
    assert_eq!(
        ServeMsg::stats(&stats).to_line(),
        concat!(
            r#"{"kind":"Stats","arrived":10,"admitted":9,"dropped":1,"dispatched":9,"pauses":2,"#,
            r#""makespan":17,"total_response":40,"max_response":8,"peak_queue":5}"#
        )
    );
}

/// An uninstrumented cell has no `telemetry` key (that is what a v2
/// artifact looks like); an instrumented one carries it last.
#[test]
fn bench_cells() {
    assert_eq!(
        bench_cell_to_jsonl(&cell()),
        concat!(
            r#"{"cell_id":"fig6/MaxCard/M50/T10","fingerprint":"aa487a0a0c3303e1","#,
            r#""params":[["M","50"]],"metrics":[["avg_response",3.25]],"wall_s":0.5,"#,
            r#""flows":100,"engine_mode":"engine"}"#
        )
    );
    assert_eq!(
        bench_cell_to_jsonl(&cell().with_telemetry(Some(snapshot()))),
        concat!(
            r#"{"cell_id":"fig6/MaxCard/M50/T10","fingerprint":"aa487a0a0c3303e1","#,
            r#""params":[["M","50"]],"metrics":[["avg_response",3.25]],"wall_s":0.5,"#,
            r#""flows":100,"engine_mode":"engine","telemetry":{"counters":[["rounds",3]],"#,
            r#""gauges":[],"stages":[],"histos":[]}}"#
        )
    );
}

/// A spec writes an absent `horizon` as `null` and leaves an absent
/// `failures` out; `failures` sits before `seed`.
#[test]
fn scenario_specs() {
    let text = |spec: &ScenarioSpec| serde_json::to_string(spec).unwrap();
    assert_eq!(
        text(&ScenarioSpec::trace("t.jsonl")),
        r#"{"ports":0,"horizon":null,"arrivals":{"trace":{"path":"t.jsonl"}},"seed":0}"#
    );
    let plan = FailurePlan {
        outages: vec![Outage {
            side: PortSide::Input,
            port: 0,
            from: 10,
            to: 40,
        }],
    };
    assert_eq!(
        text(&ScenarioSpec::poisson(4, 2.5, 100, 7).with_failures(plan)),
        concat!(
            r#"{"ports":4,"horizon":100,"arrivals":{"poisson":{"rate":2.5}},"#,
            r#""failures":{"outages":[{"side":"Input","port":0,"from":10,"to":40}]},"seed":7}"#
        )
    );
}
