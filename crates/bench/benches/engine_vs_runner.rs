//! Engine vs legacy runner on the paper's stress cells: `m = 150`,
//! `M ∈ {m, 2m, 4m}` mean arrivals per round, `T = 40` arrival rounds
//! (§5.2.1). Three executions per cell:
//!
//! * `legacy` — `fss_online::run_policy` (round-by-round, cold
//!   Hopcroft–Karp over the full waiting multigraph);
//! * `engine` — `fss_engine::run_instance`, exact rule (identical
//!   schedule, dedup-compressed HK + reused scratch);
//! * `incremental` — the same under `EngineMode::Incremental` (support-graph
//!   matching maintained across rounds).
//!
//! A `MinRTime` pair at `M = 4m` shows the weighted path: the engine's
//! incremental weighted drive vs the same matcher under
//! `fss_online::run_policy`'s round loop.
//!
//! The `telemetry_overhead` group measures the observability tax on the
//! same stress cells: `run_instance` with a disabled handle vs an
//! enabled one. The disabled run *is* the production hot path, so the
//! enabled/disabled delta is
//! the full cost of instrumentation — target <= 5% on the heavy cells.
//! Two flight cases bracket span tracing the same way: `flight_off`
//! (an explicitly attached disabled `FlightHandle` — must be
//! indistinguishable from `disabled`, the measured-zero claim) and
//! `flight_on` (a live recorder capturing stage spans into per-thread
//! rings).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fss_core::Instance;
use fss_engine::{run_instance, BuiltinPolicy, EngineMode, EngineTelemetry, Rule};
use fss_online::{run_policy, MaxCard, MinRTime};
use fss_sim::{poisson_workload, WorkloadParams};
use rand::{rngs::SmallRng, SeedableRng};
use std::hint::black_box;

const M_SWITCH: usize = 150;
const T_ROUNDS: u64 = 40;

/// The engine's batch adapter, no outage plan, telemetry off.
fn engine(inst: &Instance, rule: Rule<'_>) -> fss_core::Schedule {
    run_instance(inst, rule, None, &mut EngineTelemetry::disabled())
}

fn cell(mean_arrivals: f64) -> Instance {
    let mut rng = SmallRng::seed_from_u64(0x004e_9112);
    poisson_workload(
        &mut rng,
        &WorkloadParams {
            m: M_SWITCH,
            mean_arrivals,
            rounds: T_ROUNDS,
        },
    )
}

fn bench_maxcard(c: &mut Criterion) {
    let mut group = c.benchmark_group("maxcard_m150_T40");
    group.sample_size(10);
    for mult in [1u32, 2, 4] {
        let inst = cell(mult as f64 * M_SWITCH as f64);
        let label = format!("M={}m_n={}", mult, inst.n());
        group.bench_with_input(BenchmarkId::new("legacy", &label), &inst, |b, inst| {
            b.iter(|| black_box(run_policy(inst, &mut MaxCard::default())))
        });
        group.bench_with_input(BenchmarkId::new("engine", &label), &inst, |b, inst| {
            b.iter(|| black_box(engine(inst, BuiltinPolicy::MaxCard.into())))
        });
        group.bench_with_input(BenchmarkId::new("incremental", &label), &inst, |b, inst| {
            b.iter(|| black_box(engine(inst, EngineMode::Incremental.into())))
        });
    }
    group.finish();
}

fn bench_minrtime_heaviest_cell(c: &mut Criterion) {
    let mut group = c.benchmark_group("minrtime_m150_T40");
    group.sample_size(10);
    let inst = cell(4.0 * M_SWITCH as f64);
    let label = format!("M=4m_n={}", inst.n());
    group.bench_with_input(BenchmarkId::new("engine", &label), &inst, |b, inst| {
        b.iter(|| black_box(engine(inst, BuiltinPolicy::MinRTime.into())))
    });
    group.bench_with_input(BenchmarkId::new("loop+inc", &label), &inst, |b, inst| {
        b.iter(|| black_box(run_policy(inst, &mut MinRTime::default())))
    });
    group.finish();
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead_m150_T40");
    group.sample_size(10);
    for (policy, name) in [
        (BuiltinPolicy::MaxCard, "maxcard"),
        (BuiltinPolicy::MinRTime, "minrtime"),
    ] {
        let inst = cell(4.0 * M_SWITCH as f64);
        let label = format!("{name}_M=4m_n={}", inst.n());
        group.bench_with_input(BenchmarkId::new("disabled", &label), &inst, |b, inst| {
            b.iter(|| {
                let mut tele = fss_engine::EngineTelemetry::disabled();
                black_box(run_instance(inst, policy.into(), None, &mut tele))
            })
        });
        group.bench_with_input(BenchmarkId::new("enabled", &label), &inst, |b, inst| {
            b.iter(|| {
                let mut tele = fss_engine::EngineTelemetry::enabled();
                black_box(run_instance(inst, policy.into(), None, &mut tele))
            })
        });
        group.bench_with_input(BenchmarkId::new("flight_off", &label), &inst, |b, inst| {
            b.iter(|| {
                let mut tele = fss_engine::EngineTelemetry::disabled()
                    .with_flight(fss_telemetry::FlightHandle::disabled());
                black_box(run_instance(inst, policy.into(), None, &mut tele))
            })
        });
        group.bench_with_input(BenchmarkId::new("flight_on", &label), &inst, |b, inst| {
            b.iter(|| {
                let recorder = fss_telemetry::FlightRecorder::new();
                let mut tele =
                    fss_engine::EngineTelemetry::disabled().with_flight(recorder.handle("bench"));
                black_box(run_instance(inst, policy.into(), None, &mut tele))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_maxcard,
    bench_minrtime_heaviest_cell,
    bench_telemetry_overhead
);
criterion_main!(benches);
