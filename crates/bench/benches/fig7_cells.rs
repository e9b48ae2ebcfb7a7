//! Criterion bench of the two kernels under a Figure 7 LP cell: the
//! binary-searched LP (19)–(21) bound and the MinRTime run that seeds its
//! search, here through the reference loop, at congestion levels that
//! bracket the paper's grid. (`fig6_cells.rs` times whole cells.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fss_core::Instance;
use fss_offline::mrt::min_feasible_rho;
use fss_online::{run_policy, MinRTime};
use fss_sim::{poisson_workload, WorkloadParams};
use rand::{rngs::SmallRng, SeedableRng};
use std::hint::black_box;

fn workload(per_port: f64) -> Instance {
    let mut rng = SmallRng::seed_from_u64(0xf17);
    poisson_workload(
        &mut rng,
        &WorkloadParams {
            m: 10,
            mean_arrivals: per_port * 10.0,
            rounds: 8,
        },
    )
}

fn bench_rho_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7");
    group.sample_size(10);
    for &cong in &[0.5f64, 1.0, 2.0] {
        let inst = workload(cong);
        group.bench_with_input(
            BenchmarkId::new("min_feasible_rho", format!("{cong}")),
            &inst,
            |b, inst| b.iter(|| black_box(min_feasible_rho(inst, None).unwrap())),
        );
        group.bench_with_input(
            BenchmarkId::new("minrtime_heuristic", format!("{cong}")),
            &inst,
            |b, inst| b.iter(|| black_box(run_policy(inst, &mut MinRTime::default()))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_rho_search);
criterion_main!(benches);
