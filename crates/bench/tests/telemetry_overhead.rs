//! The telemetry contract, pinned as differentials: instrumentation
//! *observes* the round loop, it never steers it — the schedule an
//! instrumented run produces is bit-identical to the uninstrumented
//! one — and an enabled handle's cost on the hot path is bounded. The
//! release-build overhead is the benchmark's per-workload
//! `telemetry.overhead_share` (`perf --trace 1`); this test asserts a
//! conservative ceiling that holds in debug builds on noisy CI runners.

use std::time::{Duration, Instant};

use fss_engine::{run_instance, BuiltinPolicy, EngineMode, EngineTelemetry, Rule};
use fss_sim::{figure_trial_seed, poisson_cell, poisson_workload, PolicyKind, WorkloadParams};
use rand::{rngs::SmallRng, SeedableRng};

/// The engine's batch adapter, no outage plan, telemetry off.
fn engine(inst: &fss_core::Instance, rule: Rule<'_>) -> fss_core::Schedule {
    run_instance(inst, rule, None, &mut EngineTelemetry::disabled())
}

fn median_time(mut f: impl FnMut(), samples: usize) -> Duration {
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn stress_cell() -> fss_core::Instance {
    let mut rng = SmallRng::seed_from_u64(0x7e1e_0b5e);
    poisson_workload(
        &mut rng,
        &WorkloadParams {
            m: 60,
            mean_arrivals: 120.0,
            rounds: 30,
        },
    )
}

#[test]
fn instrumented_schedule_is_bit_identical_for_every_policy() {
    let inst = stress_cell();
    for mode in [
        EngineMode::Exact(BuiltinPolicy::MaxCard),
        EngineMode::Exact(BuiltinPolicy::MinRTime),
        EngineMode::Exact(BuiltinPolicy::MaxWeight),
        EngineMode::Exact(BuiltinPolicy::FifoGreedy),
        EngineMode::Incremental,
    ] {
        let plain = engine(&inst, mode.into());
        let mut tele = EngineTelemetry::enabled();
        let instrumented = run_instance(&inst, mode.into(), None, &mut tele);
        assert_eq!(
            plain, instrumented,
            "telemetry steered the {mode:?} schedule"
        );
        // And the observation is real, not a no-op: the round loop left
        // stage timings and decision-latency samples behind.
        let snap = tele.snapshot();
        assert!(snap.counter("rounds").unwrap_or(0) > 0);
        assert!(snap.slowest_stage().is_some());
        let histo = snap.histo("decision_latency_ns").expect("decision histo");
        assert!(histo.count > 0);
    }
}

#[test]
fn instrumented_grid_cells_match_uninstrumented_exactly() {
    let (m, rounds, trials) = (24, 12, 2);
    let mut recorded = EngineTelemetry::enabled();
    for policy in PolicyKind::PAPER_TRIO {
        for rate in [24.0, 48.0] {
            let seed = |k| figure_trial_seed(rate, rounds, k);
            let mut off = EngineTelemetry::disabled();
            let plain = poisson_cell(policy, m, rate, rounds, trials, seed, &mut off);
            let instrumented = poisson_cell(policy, m, rate, rounds, trials, seed, &mut recorded);
            // CellResult carries only seed-deterministic aggregates, so full
            // serialized equality is the right bar: any telemetry-induced drift
            // in any metric of any cell fails here.
            assert_eq!(
                serde_json::to_string(&plain).unwrap(),
                serde_json::to_string(&instrumented).unwrap(),
                "telemetry changed a grid cell"
            );
        }
    }
    let snapshot = recorded.snapshot();
    assert!(!snapshot.is_empty());
    assert!(snapshot.counter("rounds").unwrap_or(0) > 0);
}

#[test]
fn enabled_handle_overhead_is_bounded() {
    let inst = stress_cell();
    // Warm up allocators and caches off the clock.
    std::hint::black_box(engine(&inst, BuiltinPolicy::MaxCard.into()));
    let t_disabled = median_time(
        || {
            let mut tele = EngineTelemetry::disabled();
            std::hint::black_box(run_instance(
                &inst,
                BuiltinPolicy::MaxCard.into(),
                None,
                &mut tele,
            ));
        },
        5,
    );
    let t_enabled = median_time(
        || {
            let mut tele = EngineTelemetry::enabled();
            std::hint::black_box(run_instance(
                &inst,
                BuiltinPolicy::MaxCard.into(),
                None,
                &mut tele,
            ));
        },
        5,
    );
    let ratio = t_enabled.as_secs_f64() / t_disabled.as_secs_f64().max(1e-9);
    eprintln!(
        "telemetry overhead m=60 T=30 M=2m: disabled {:.2} ms, enabled {:.2} ms ({ratio:.3}x)",
        t_disabled.as_secs_f64() * 1e3,
        t_enabled.as_secs_f64() * 1e3
    );
    // Debug-build ceiling; the release-build `telemetry.overhead_share`
    // is the precise number.
    assert!(
        ratio <= 1.5,
        "enabled telemetry costs {ratio:.2}x the disabled run \
         (disabled {t_disabled:?}, enabled {t_enabled:?})"
    );
}
