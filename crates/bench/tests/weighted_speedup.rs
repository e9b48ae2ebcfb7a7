//! Wall-clock evidence for the incremental weighted matching: on the
//! paper's weighted hot path the engine must beat the from-scratch batch
//! Hungarian by a wide margin. The release-build criterion medians
//! (`weighted_matching.rs`; the engine README's table has the current
//! ones) put the engine more than 20x ahead for MinRTime and MaxWeight
//! at `m = 150, T = 40, M = 4m`; this test asserts a conservative 2x
//! floor on a smaller cell so it holds in debug builds on noisy CI
//! runners (same spirit as the rayon shim's `steal_speedup` test).

use std::time::{Duration, Instant};

use fss_engine::{run_instance, BuiltinPolicy, EngineTelemetry, Rule};
use fss_online::{run_policy, BatchMinRTime};
use fss_sim::{poisson_workload, WorkloadParams};
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

#[test]
fn incremental_weighted_engine_beats_batch_hungarian() {
    // A mid-size weighted cell: big enough that the per-round Hungarian
    // dominates the batch path, small enough to stay fast in debug.
    let mut rng = SmallRng::seed_from_u64(0x005e_ed70);
    let inst = poisson_workload(
        &mut rng,
        &WorkloadParams {
            m: 60,
            mean_arrivals: 120.0,
            rounds: 30,
        },
    );
    // Parity first: the comparison is only fair if both paths solve the
    // same scheduling problem round for round.
    let weighted = engine(&inst, BuiltinPolicy::MinRTime.into());
    let legacy = engine(&inst, Rule::Policy(&mut fss_online::MinRTime::default()));
    assert_eq!(
        weighted, legacy,
        "weighted engine path lost schedule parity"
    );

    let t_batch = median_time(
        || {
            std::hint::black_box(run_policy(&inst, &mut BatchMinRTime::default()));
        },
        3,
    );
    let t_engine = median_time(
        || {
            std::hint::black_box(engine(&inst, BuiltinPolicy::MinRTime.into()));
        },
        3,
    );
    let speedup = t_batch.as_secs_f64() / t_engine.as_secs_f64().max(1e-9);
    eprintln!(
        "weighted cell m=60 T=30 M=2m: batch {:.1} ms, engine {:.1} ms ({speedup:.2}x)",
        t_batch.as_secs_f64() * 1e3,
        t_engine.as_secs_f64() * 1e3
    );
    assert!(
        speedup >= 2.0,
        "incremental weighted path must be >= 2x faster than the batch \
         Hungarian, got {speedup:.2}x (batch {t_batch:?}, engine {t_engine:?})"
    );
}
