//! Soak tests for the live serving path: stream a scenario through a
//! real socket server with an injected outage and a mid-run client
//! disconnect/reconnect, scrape `/metrics`, and strict-diff the live
//! dispatch stream against the single-process `run_scenario` reference.
//!
//! The smoke-scale test runs in CI on every push. The paper-scale soak
//! (over a million flows) is `#[ignore]`d here — debug builds are an
//! order of magnitude too slow for it — and runs in release via
//! `flowsched serve --soak` (see the CI `serve` job and
//! `README.md` §Serving).

use flow_switch::serve::{run_soak, SoakOptions};
use flow_switch::sim::{ArrivalSpec, FailurePlan, Outage, PolicyKind, ScenarioSpec};

fn soak_spec(ports: usize, rate: f64, rounds: u64) -> ScenarioSpec {
    ScenarioSpec {
        ports,
        horizon: Some(rounds),
        arrivals: ArrivalSpec::Poisson { rate },
        failures: Some(FailurePlan {
            outages: vec![
                Outage {
                    side: flow_switch::core::PortSide::Input,
                    port: 1,
                    from: rounds / 10,
                    to: rounds / 4,
                },
                Outage {
                    side: flow_switch::core::PortSide::Output,
                    port: 3,
                    from: rounds / 3,
                    to: rounds / 2,
                },
            ],
        }),
        seed: 42,
    }
}

/// Smoke scale (~10k flows): injected outages, one disconnect mid-run,
/// a live metrics scrape, and exact schedule parity.
#[test]
fn smoke_soak_with_outage_disconnect_and_scrape_holds_parity() {
    let spec = soak_spec(16, 25.0, 400); // ~10k flows
    let opts = SoakOptions {
        disconnect_after: Some(4_000),
        queue_cap: 256,
        ..SoakOptions::new(spec)
    };
    let report = run_soak(&opts).expect("soak holds parity with zero loss");
    assert!(
        report.flows > 8_000,
        "workload is smoke-scale, got {} flows",
        report.flows
    );
    assert_eq!(report.dispatch_lines, report.flows);
    assert_eq!(report.stats.dropped, 0, "pause mode is lossless");
    assert_eq!(report.stats.arrived, report.flows);
    assert_eq!(report.stats.dispatched, report.flows);
    assert!(report.detached_seen, "the disconnect really happened");
    assert!(report.scrape.contains("fss_serve_flows_ingested_total"));
    assert!(report.scrape.contains("fss_serve_queue_depth"));
    // Every policy's aggregate stats survive the socket round trip.
    assert!(report.stats.makespan > 0);
}

/// All four §5 policies hold soak parity at smoke scale.
#[test]
fn every_policy_holds_soak_parity() {
    for policy in [
        PolicyKind::MaxCard,
        PolicyKind::MinRTime,
        PolicyKind::MaxWeight,
        PolicyKind::FifoGreedy,
    ] {
        let opts = SoakOptions {
            policy,
            disconnect_after: Some(500),
            queue_cap: 64,
            ..SoakOptions::new(soak_spec(8, 8.0, 150))
        };
        let report = run_soak(&opts).unwrap_or_else(|e| panic!("{policy:?} soak failed: {e}"));
        assert_eq!(report.dispatch_lines, report.flows, "{policy:?}");
        assert!(
            report.scrape.contains("fss_serve_flows_ingested_total"),
            "{policy:?}"
        );
    }
}

/// Paper scale: over a million flows through the live server under an
/// injected outage, with a disconnect/reconnect, zero silent loss, and
/// exact parity. Ignored in debug CI runs — execute with
/// `cargo test --release -- --ignored soak_a_million_flows`, or via the
/// release CLI: `flowsched serve --soak ...`.
#[test]
#[ignore = "paper-scale; run in release (see CI serve job for the smoke-scale variant)"]
fn soak_a_million_flows_live_with_zero_silent_loss() {
    let spec = soak_spec(64, 260.0, 4_000); // ~1.04M flows
    let opts = SoakOptions {
        disconnect_after: Some(500_000),
        queue_cap: 4_096,
        ..SoakOptions::new(spec)
    };
    let report = run_soak(&opts).expect("paper-scale soak holds parity");
    assert!(
        report.flows >= 1_000_000,
        "paper scale means at least a million flows, got {}",
        report.flows
    );
    assert_eq!(report.dispatch_lines, report.flows);
    assert_eq!(report.stats.dropped, 0);
    assert!(report.detached_seen);
}
