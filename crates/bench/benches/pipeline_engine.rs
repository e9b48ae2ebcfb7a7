//! The engine's two uses of extra cores vs the sequential round loop.
//!
//! - `pipeline_stream`: one long Poisson stream through
//!   `fss_engine::run` at 1/2/3 cores — the 3-stage pipe (ingest thread
//!   at 2, + dispatch sink at 3; more than 3 runs the same pipe, so
//!   there is no cores-4 row).
//! - `saturation_cell`: the full-tier saturation cell (`m = 20`,
//!   `T = 5000`, 4 trials — the CI speedup floor's cell) through
//!   `saturation_sweep` at 1 vs 4 cores — trial-level fan-out.
//!
//! Results are bit-identical at every cores level (the differential
//! suites assert it), so these curves measure wall time only.
//!
//! ```sh
//! cargo bench -p fss-bench --bench pipeline_engine
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use fss_engine::{BuiltinPolicy, EngineMode, EngineTelemetry, PoissonSource};
use fss_sim::{saturation_sweep, PolicyKind};

fn pipeline_stream(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline_stream");
    g.sample_size(10);
    for mode in [
        EngineMode::Incremental,
        EngineMode::Exact(BuiltinPolicy::MaxWeight),
    ] {
        for cores in [1usize, 2, 3] {
            let label = match mode {
                EngineMode::Incremental => "incremental",
                _ => "maxweight",
            };
            g.bench_function(format!("{label}/m20/T2000/cores{cores}"), |b| {
                b.iter(|| {
                    fss_engine::run(
                        PoissonSource::new(20, 20.0, Some(2_000), 0x5a7),
                        mode.into(),
                        None,
                        cores,
                        &mut EngineTelemetry::disabled(),
                        |_, _, _| {},
                    )
                })
            });
        }
    }
    g.finish();
}

fn saturation_cell(c: &mut Criterion) {
    let mut g = c.benchmark_group("saturation_cell");
    g.sample_size(10);
    for cores in [1usize, 4] {
        g.bench_function(format!("maxweight/lam1.0/cores{cores}"), |b| {
            b.iter(|| {
                saturation_sweep(
                    PolicyKind::MaxWeight,
                    20,
                    5_000,
                    &[1.0],
                    4,
                    0x5a7,
                    cores,
                    &mut EngineTelemetry::disabled(),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, pipeline_stream, saturation_cell);
criterion_main!(benches);
