//! Criterion bench of single Figure 6 cells: the paper trio's heuristic
//! cells of one `(M, T)` point and its LP-bound cell at smoke size, so
//! regressions in the end-to-end experiment path show up in `cargo bench`.

use criterion::{criterion_group, criterion_main, Criterion};
use fss_engine::EngineTelemetry;
use fss_sim::{figure_trial_seed, lp_bounds_cell, poisson_cell, LpBoundParts, PolicyKind};
use std::hint::black_box;

const M: usize = 10;
const RATE: f64 = 10.0;
const ROUNDS: u64 = 8;

fn seed(trial: u64) -> u64 {
    figure_trial_seed(RATE, ROUNDS, trial)
}

fn bench_heuristic_cell(c: &mut Criterion) {
    c.bench_function("fig6/heuristic_cell_10x10_T8", |b| {
        b.iter(|| {
            for policy in PolicyKind::PAPER_TRIO {
                let mut tele = EngineTelemetry::disabled();
                black_box(poisson_cell(policy, M, RATE, ROUNDS, 2, seed, &mut tele));
            }
        })
    });
}

fn bench_lp_cell(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6");
    group.sample_size(10);
    group.bench_function("lp_bound_cell_10x10_T8", |b| {
        let both = LpBoundParts {
            avg: true,
            max: true,
        };
        b.iter(|| black_box(lp_bounds_cell(M, RATE, ROUNDS, 1, seed, Some(12), both)))
    });
    group.finish();
}

criterion_group!(benches, bench_heuristic_cell, bench_lp_cell);
criterion_main!(benches);
