//! Schedule-quality ceilings of [`EngineMode::Incremental`].
//!
//! Any maximum matching of a round's waiting graph is a valid round, so
//! which one the matcher settles on is free — and it decides how long
//! flows wait. The matcher tries the cells of a row oldest support edge
//! first; a search that tries them in index order is as fast and as
//! maximum and starves old cells (m = 20, rate 18: mean response 8.250,
//! max 322). These four Poisson cells at seed 1 must stay at or under
//! what the insertion-ordered matcher of commit b12548c produced: mean
//! response within 0.5 %, max response no larger.

use fss_engine::{run_stream_with, EngineMode, PoissonSource};

/// `(m, rate, rounds)`, then mean and max response at commit b12548c.
const CELLS: [(usize, f64, u64, f64, u64); 4] = [
    (150, 600.0, 250, 377.003, 1049),
    (150, 127.5, 2500, 4.445, 195),
    (150, 150.0, 2000, 26.782, 2104),
    (20, 18.0, 3000, 7.436, 295),
];

#[test]
fn incremental_mode_keeps_the_insertion_ordered_response_times() {
    for (m, rate, rounds, mean, max) in CELLS {
        let source = PoissonSource::new(m, rate, Some(rounds), 1);
        let stats = run_stream_with(source, EngineMode::Incremental, |_, _, _| {});
        assert_eq!(stats.dispatched, stats.arrived, "m {m} rate {rate}");
        assert!(
            stats.mean_response() <= mean * 1.005,
            "m {m} rate {rate}: mean response {:.3} over {mean}",
            stats.mean_response()
        );
        assert!(
            stats.max_response <= max,
            "m {m} rate {rate}: max response {} over {max}",
            stats.max_response
        );
    }
}
