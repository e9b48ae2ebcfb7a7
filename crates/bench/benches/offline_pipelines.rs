//! Criterion benches of the offline pipelines: the ART iterative-rounding
//! cascade + realization (Theorem 1) and the MRT binary-search + rounding
//! pipeline (Theorem 3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fss_core::gen::{random_instance, GenParams};
use fss_core::Instance;
use fss_offline::art::solve_art;
use fss_offline::mrt::solve_mrt;
use rand::{rngs::SmallRng, SeedableRng};
use std::hint::black_box;

fn unit_inst(n: usize, seed: u64) -> Instance {
    let mut rng = SmallRng::seed_from_u64(seed);
    random_instance(
        &mut rng,
        &GenParams::unit((n / 5).clamp(3, 10), n, (n / 4) as u64),
    )
}

fn bench_art(c: &mut Criterion) {
    let mut group = c.benchmark_group("art_pipeline");
    group.sample_size(10);
    for &n in &[10usize, 20, 40] {
        let inst = unit_inst(n, 0xa57);
        group.bench_with_input(BenchmarkId::new("solve_art_c2", n), &inst, |b, inst| {
            b.iter(|| black_box(solve_art(inst, 2)));
        });
    }
    group.finish();
}

fn bench_mrt(c: &mut Criterion) {
    let mut group = c.benchmark_group("mrt_pipeline");
    group.sample_size(10);
    for &n in &[10usize, 20, 40] {
        let inst = unit_inst(n, 0x317);
        group.bench_with_input(
            BenchmarkId::new("solve_mrt_iterative", n),
            &inst,
            |b, inst| b.iter(|| black_box(solve_mrt(inst, None).unwrap())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_art, bench_mrt);
criterion_main!(benches);
