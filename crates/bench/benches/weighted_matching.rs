//! The weighted-path benchmark: incremental weighted matching vs the
//! from-scratch batch Hungarian, on the paper's stress cells (`m = 150`,
//! `T = 40` arrival rounds, `M ∈ {2m, 4m}` mean arrivals per round).
//!
//! Three executions per policy and cell:
//!
//! * `batch` — the legacy round loop with the from-scratch policy
//!   (`BatchMinRTime` / `BatchMaxWeight`): rebuilds the waiting
//!   multigraph and solves a dense `O(k^3)` Hungarian every round;
//! * `engine` — `fss_engine::run_instance`: the event-driven round loop over
//!   [`fss_engine::IncrementalWeightedMatcher`], carrying duals and the
//!   assignment across rounds;
//! * `loop+inc` — the legacy round loop with the *incremental* policy:
//!   same solver state machine as the engine, fed by scanning the
//!   waiting vector (isolates the event-driven drive's share of the
//!   win).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fss_core::Instance;
use fss_engine::{run_instance, BuiltinPolicy, EngineTelemetry, Rule};
use fss_online::{run_policy, BatchMaxWeight, BatchMinRTime, MaxWeight, MinRTime};
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

fn bench_minrtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("minrtime_m150_T40");
    group.sample_size(10);
    for mult in [2u32, 4] {
        let inst = cell(f64::from(mult) * M_SWITCH as f64);
        let label = format!("M={}m_n={}", mult, inst.n());
        group.bench_with_input(BenchmarkId::new("batch", &label), &inst, |b, inst| {
            b.iter(|| black_box(run_policy(inst, &mut BatchMinRTime::default())))
        });
        group.bench_with_input(BenchmarkId::new("engine", &label), &inst, |b, inst| {
            b.iter(|| black_box(engine(inst, BuiltinPolicy::MinRTime.into())))
        });
        group.bench_with_input(BenchmarkId::new("loop+inc", &label), &inst, |b, inst| {
            b.iter(|| black_box(run_policy(inst, &mut MinRTime::default())))
        });
    }
    group.finish();
}

fn bench_maxweight(c: &mut Criterion) {
    let mut group = c.benchmark_group("maxweight_m150_T40");
    group.sample_size(10);
    for mult in [2u32, 4] {
        let inst = cell(f64::from(mult) * M_SWITCH as f64);
        let label = format!("M={}m_n={}", mult, inst.n());
        group.bench_with_input(BenchmarkId::new("batch", &label), &inst, |b, inst| {
            b.iter(|| black_box(run_policy(inst, &mut BatchMaxWeight::default())))
        });
        group.bench_with_input(BenchmarkId::new("engine", &label), &inst, |b, inst| {
            b.iter(|| black_box(engine(inst, BuiltinPolicy::MaxWeight.into())))
        });
        group.bench_with_input(BenchmarkId::new("loop+inc", &label), &inst, |b, inst| {
            b.iter(|| black_box(run_policy(inst, &mut MaxWeight::default())))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_minrtime, bench_maxweight);
criterion_main!(benches);
