//! `coflow_replay`: the paper's heuristics over a *real-shaped*
//! workload — the checked-in sample coflow CSV
//! (`examples/sample_coflow.csv`), converted through `fss-trace`'s
//! deterministic CSV → arrival-trace pipeline and replayed in three
//! variants:
//!
//! - `base` — the converted trace as-is;
//! - `staggered` — release times dilated 4×, spreading coflow starts
//!   apart (tests the policies under sparse, bursty arrivals);
//! - `skewed` — src/dst resampled from Zipf(1.2) under a fixed seed,
//!   concentrating load on hotspot ports (width skew, the regime where
//!   maximum-matching policies separate from greedy ones).
//!
//! Tiers differ by an explicit morph knob carried in the cell params —
//! smoke truncates the trace, paper compresses time 4× (a rate
//! scale-up) — so cells never alias across tiers under
//! checkpoint/resume. Everything is deterministic: same CSV, same
//! seeds, same artifact.

use std::sync::Arc;

use fss_sim::arrival_trace::{ArrivalTrace, TraceSource};
use fss_sim::PolicyKind;
use fss_trace::{convert_stream, ConvertOptions, MorphSpec, MorphedSource, TraceWriter};

use crate::registry::{engine_telemetry, CellOutcome, CellSpec, Experiment};

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::MaxCard,
    PolicyKind::MinRTime,
    PolicyKind::MaxWeight,
    PolicyKind::FifoGreedy,
];

/// Conversion knobs for the sample: fold the cluster's ~96 ports onto a
/// 32×32 switch, 1 MiB per unit flow, 500 ms rounds.
const PORTS: usize = 32;
const SAMPLE_OPTS: ConvertOptions = ConvertOptions {
    ports: PORTS,
    quantum_bytes: 1 << 20,
    ms_per_round: 500,
};

/// Arrivals the smoke tier keeps (CI-sized).
const SMOKE_TRUNCATE: u64 = 160;
/// Time-compression factor of the paper tier (4× the arrival rate).
const PAPER_SCALE: f64 = 4.0;

/// Convert the checked-in sample CSV into a shared in-memory trace.
/// The sample is a few hundred flows, so conversion is microseconds;
/// determinism (fixed CSV, fixed options) makes the artifact stable.
fn sample_trace() -> Arc<ArrivalTrace> {
    let csv = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/sample_coflow.csv"
    );
    let text = std::fs::read(csv)
        .unwrap_or_else(|e| panic!("coflow_replay needs the checked-in sample {csv}: {e}"));
    let mut jsonl = Vec::new();
    let writer = TraceWriter::from_writer(&mut jsonl, csv, SAMPLE_OPTS.ports)
        .expect("in-memory trace writer");
    convert_stream(std::io::Cursor::new(text), csv, writer, SAMPLE_OPTS)
        .unwrap_or_else(|e| panic!("convert {csv}: {e}"));
    let jsonl = String::from_utf8(jsonl).expect("trace JSONL is UTF-8");
    Arc::new(ArrivalTrace::from_jsonl(&jsonl).expect("converted sample validates"))
}

/// The three workload variants, as `(name, morphs)`.
fn variants() -> [(&'static str, Vec<MorphSpec>); 3] {
    [
        ("base", vec![]),
        ("staggered", vec![MorphSpec::Dilate(4.0)]),
        (
            "skewed",
            vec![MorphSpec::Skew {
                theta: 1.2,
                seed: 7,
            }],
        ),
    ]
}

/// Build the `coflow_replay` experiment.
pub(crate) fn coflow_replay() -> Experiment {
    Experiment::new(
        "coflow_replay",
        "replay the converted sample coflow trace (base, staggered, skewed) through every policy",
        |scale| {
            let trace = sample_trace();
            let tier = scale.tier_name();
            // The tier's extra morph, appended after the variant's: the
            // knob is in the params, so tiers never share fingerprints.
            let (tier_key, tier_value, tier_morph) = if scale.paper {
                (
                    "scale_rate",
                    format!("{PAPER_SCALE}"),
                    MorphSpec::ScaleRate(PAPER_SCALE),
                )
            } else {
                (
                    "truncate",
                    SMOKE_TRUNCATE.to_string(),
                    MorphSpec::Truncate(SMOKE_TRUNCATE),
                )
            };
            let instrument = scale.telemetry;
            let mut cells = Vec::new();
            for (variant, morphs) in variants() {
                for policy in POLICIES {
                    let trace = trace.clone();
                    let mut specs = morphs.clone();
                    specs.push(tier_morph);
                    cells.push(CellSpec::new(
                        format!("coflow_replay/{}/{variant}/{tier}", policy.name()),
                        vec![
                            ("policy", policy.name().to_string()),
                            ("variant", variant.to_string()),
                            ("tier", tier.to_string()),
                            (tier_key, tier_value.clone()),
                            ("ports", PORTS.to_string()),
                            ("trace", "sample_coflow.csv".to_string()),
                        ],
                        move || {
                            let mut tele = engine_telemetry(instrument);
                            let source =
                                MorphedSource::new(TraceSource::new(trace.clone()), &specs)
                                    .expect("registry morph specs validate");
                            let stats = fss_engine::run(
                                source,
                                policy.to_engine().into(),
                                None,
                                &mut tele,
                                |_, _, _| {},
                            );
                            CellOutcome {
                                metrics: vec![
                                    ("mean_response".into(), stats.mean_response()),
                                    ("max_response".into(), stats.max_response as f64),
                                    ("makespan".into(), stats.makespan as f64),
                                    ("peak_queue".into(), stats.peak_queue as f64),
                                ],
                                flows: stats.dispatched,
                                engine_mode: "stream",
                                telemetry: instrument.then(|| tele.snapshot()),
                            }
                        },
                    ));
                }
            }
            cells
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Scale;

    #[test]
    fn sample_converts_and_expands_to_twelve_cells_per_tier() {
        let trace = sample_trace();
        assert_eq!(trace.ports, PORTS);
        assert!(
            trace.len() as u64 > SMOKE_TRUNCATE,
            "sample ({} flows) must outsize the smoke truncation",
            trace.len()
        );
        let e = coflow_replay();
        for paper in [false, true] {
            let cells = (e.build)(&Scale {
                paper,
                ..Scale::default()
            });
            assert_eq!(cells.len(), 12, "3 variants x 4 policies");
        }
    }

    #[test]
    fn cells_are_deterministic_across_runs() {
        let e = coflow_replay();
        let scale = Scale::default();
        let a: Vec<_> = (e.build)(&scale)
            .iter()
            .map(|c| (c.run)().metrics)
            .collect();
        let b: Vec<_> = (e.build)(&scale)
            .iter()
            .map(|c| (c.run)().metrics)
            .collect();
        assert_eq!(a, b, "seeded morphs make the experiment reproducible");
    }
}
