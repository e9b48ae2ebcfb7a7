//! The staged pipe vs the sequential round loop: one long Poisson stream
//! through `fss_engine::run` at 1/2/3 cores (ingest thread at 2, +
//! dispatch sink at 3; more than 3 runs the same pipe, so there is no
//! cores-4 row).
//!
//! Results are bit-identical at every cores level (the differential
//! suite asserts it), so these curves measure wall time only.
//!
//! ```sh
//! cargo bench -p fss-bench --bench pipeline_engine
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use fss_engine::{BuiltinPolicy, EngineMode, EngineTelemetry, PoissonSource};

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

criterion_group!(benches, pipeline_stream);
criterion_main!(benches);
