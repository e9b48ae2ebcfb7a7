//! Work-stealing vs chunked scheduling on skewed cell grids.
//!
//! The orchestrator's cell lists are skewed by construction: a fig6/fig7
//! grid mixes trivial `M = m/3` cells with `M = 4m` cells ~50x heavier,
//! and the old contiguous-chunk splitter parked all the heavy cells on
//! one worker. This bench measures both executors on (a) a synthetic
//! spin grid with the heavy items up front and (b) a real skewed
//! experiment grid (fig6 smoke heuristic cells).
//!
//! ```sh
//! cargo bench -p fss-bench --bench par_scheduler
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rayon::exec::{run_chunked, run_dynamic};

/// Spin for roughly `units` work quanta (CPU-bound, optimizer-proof).
fn spin(units: u64) -> u64 {
    let mut acc = 0x9e3779b97f4a7c15u64;
    for i in 0..units * 20_000 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    acc
}

fn skewed_spin_grid(c: &mut Criterion) {
    // 32 items; the first 4 are 50x heavier — the adversarial layout for
    // a contiguous split (all land in worker 0's chunk).
    let items: Vec<u64> = (0..32).map(|i| if i < 4 { 50 } else { 1 }).collect();
    let mut g = c.benchmark_group("skewed_spin_grid");
    g.sample_size(10);
    g.bench_function("chunked", |b| {
        b.iter(|| run_chunked(black_box(&items), &|&u| spin(u)))
    });
    g.bench_function("work_stealing", |b| {
        b.iter(|| run_dynamic(black_box(&items), &|&u| spin(u)))
    });
    g.finish();
}

fn skewed_experiment_grid(c: &mut Criterion) {
    // A real orchestrator workload: the fig6 smoke heuristic cells, in
    // declaration order (the heavy M = 4m cells cluster by policy).
    let scale = fss_bench::Scale {
        trials: Some(2),
        ..fss_bench::Scale::default()
    };
    let exp = fss_bench::select(Some("fig6")).pop().expect("registered");
    let cells: Vec<fss_bench::CellSpec> = (exp.build)(&scale)
        .into_iter()
        .filter(|c| !c.id.contains("/lp/"))
        .collect();
    let mut g = c.benchmark_group("fig6_smoke_cells");
    g.sample_size(10);
    g.bench_function("chunked", |b| {
        b.iter(|| run_chunked(black_box(&cells), &|c: &fss_bench::CellSpec| (c.run)()))
    });
    g.bench_function("work_stealing", |b| {
        b.iter(|| run_dynamic(black_box(&cells), &|c: &fss_bench::CellSpec| (c.run)()))
    });
    g.finish();
}

criterion_group!(benches, skewed_spin_grid, skewed_experiment_grid);
criterion_main!(benches);
