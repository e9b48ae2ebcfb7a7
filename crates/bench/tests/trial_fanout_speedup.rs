//! Wall-clock floor for trial fan-out: at 4 cores the full-tier
//! saturation cell (`m = 20`, `T = 5000`, 4 trials, seed `0x5a7` —
//! exactly the cell `bench --filter saturation` runs) must beat one core
//! by ≥ 1.8x. What is timed is `saturation_sweep` spreading a point's
//! independent trials over worker threads — not the engine's stage pipe,
//! which has no recorded single-stream speedup. The criterion companion
//! (`benches/pipeline_engine.rs`) reports the curve across cores; this
//! test asserts the CI floor.
//!
//! Skips (loudly) when the host has fewer than 4 hardware threads —
//! time-sliced "parallelism" proves determinism, not speedup — and in
//! debug builds, where constant factors swamp the fan-out win; CI runs
//! it via `cargo test --release -p fss-bench --test trial_fanout_speedup`.

use std::time::{Duration, Instant};

use fss_engine::EngineTelemetry;
use fss_sim::{saturation_sweep, PolicyKind};

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

/// The full-tier saturation cell at `cores` worker threads.
fn cell(cores: usize) -> Vec<fss_sim::SaturationPoint> {
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
}

#[test]
fn four_core_trial_fanout_hits_speedup_floor() {
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if avail < 4 {
        eprintln!(
            "trial fan-out speedup floor: SKIPPED (needs 4 hardware threads, host has {avail})"
        );
        return;
    }
    if cfg!(debug_assertions) {
        eprintln!("trial fan-out speedup floor: SKIPPED (release-only; run with --release)");
        return;
    }

    // Parity first: the timing comparison is only fair (and the CI diff
    // gate only sound) if both runs produce the same numbers.
    let seq = cell(1);
    let par = cell(4);
    assert_eq!(seq.len(), par.len());
    for (s, p) in seq.iter().zip(&par) {
        assert_eq!(
            (s.mean_response, s.max_response),
            (p.mean_response, p.max_response),
            "cores must never change results"
        );
    }

    let t1 = median_time(|| std::hint::black_box(cell(1)).clear(), 3);
    let t4 = median_time(|| std::hint::black_box(cell(4)).clear(), 3);
    let speedup = t1.as_secs_f64() / t4.as_secs_f64().max(1e-9);
    eprintln!(
        "saturation cell m=20 T=5000 trials=4: 1 core {:.1} ms, 4 cores {:.1} ms ({speedup:.2}x)",
        t1.as_secs_f64() * 1e3,
        t4.as_secs_f64() * 1e3
    );
    assert!(
        speedup >= 1.8,
        "4-core trial fan-out must be >= 1.8x one core on the \
         full-tier saturation cell, got {speedup:.2}x (1 core {t1:?}, 4 cores {t4:?})"
    );
}
