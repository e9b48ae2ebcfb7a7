//! Property tests for the converter and the morph pipeline.
//!
//! Contracts: conversion and morphing are bit-for-bit deterministic
//! (same input + options + seeds → identical output, across runs and
//! across the file/in-memory code paths), and every pipeline output is
//! again a *valid* trace — sorted releases, ports in range — no matter
//! how transforms compose.

use std::sync::atomic::{AtomicUsize, Ordering};

use fss_core::prelude::Arrival;
use fss_trace::{
    convert_stream, scan_with, units_per_pair, ConvertOptions, MorphPipeline, MorphSpec,
    TraceWriter,
};
use proptest::prelude::*;

/// Strategy: a port count and a sorted arrival list on it.
fn arrivals_case() -> impl Strategy<Value = (usize, Vec<(u64, u32, u32)>)> {
    (
        2usize..=8,
        proptest::collection::vec((0u64..40, 0u32..8, 0u32..8), 0..80),
    )
        .prop_map(|(m, mut raw)| {
            for (_, s, d) in raw.iter_mut() {
                *s %= m as u32;
                *d %= m as u32;
            }
            raw.sort_by_key(|&(r, _, _)| r);
            (m, raw)
        })
}

/// Strategy: raw codes for a short transform chain; decoded against
/// the running port count by [`build_specs`] so folds always shrink.
fn spec_codes() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    proptest::collection::vec((0u8..6, 0u64..100, 0u64..50), 0..5)
}

fn build_specs(codes: &[(u8, u64, u64)], ports_in: usize) -> Vec<MorphSpec> {
    let mut ports = ports_in;
    codes
        .iter()
        .map(|&(kind, a, b)| match kind {
            0 => MorphSpec::ScaleRate(1.0 + (a % 4) as f64),
            1 => MorphSpec::Dilate(1.0 + (a % 4) as f64),
            2 => MorphSpec::Skew {
                theta: 0.5 + (a % 5) as f64 * 0.5,
                seed: b,
            },
            3 => {
                ports = 1 + (a as usize % ports);
                MorphSpec::Fold(ports)
            }
            4 => MorphSpec::Window {
                from: a % 20,
                to: a % 20 + 1 + b % 30,
            },
            _ => MorphSpec::Truncate(1 + a % 40),
        })
        .collect()
}

fn to_arrivals(raw: &[(u64, u32, u32)]) -> Vec<Arrival> {
    raw.iter()
        .enumerate()
        .map(|(i, &(release, src, dst))| Arrival {
            id: i as u64,
            src,
            dst,
            release,
        })
        .collect()
}

fn apply_all(specs: &[MorphSpec], ports: usize, input: &[Arrival]) -> Vec<(u64, u32, u32)> {
    let mut pipeline = MorphPipeline::new(specs, ports).expect("generated specs validate");
    let mut out = Vec::new();
    for &a in input {
        if let Some(b) = pipeline.apply(a) {
            out.push((b.release, b.src, b.dst));
        }
        if pipeline.stopped() {
            break;
        }
    }
    out
}

fn case_path(tag: &str) -> std::path::PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("fss-morph-props");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}-{}-{}.jsonl",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Same specs, same input, same seeds → identical output; and the
    /// output always round-trips through a validating [`TraceWriter`]
    /// (sorted releases, ports within the declared count).
    #[test]
    fn morph_is_deterministic_and_emits_valid_traces(
        (m, raw) in arrivals_case(),
        codes in spec_codes(),
    ) {
        let specs = build_specs(&codes, m);
        let input = to_arrivals(&raw);
        let once = apply_all(&specs, m, &input);
        let twice = apply_all(&specs, m, &input);
        prop_assert_eq!(&once, &twice, "seeded pipeline must be deterministic");

        let ports_out = MorphPipeline::new(&specs, m).unwrap().ports_out();
        let mut sink = Vec::new();
        let mut writer = TraceWriter::from_writer(&mut sink, "morphed", ports_out)
            .expect("ports_out is nonzero");
        for &(release, src, dst) in &once {
            writer.write_arrival(release, src, dst).expect("morph output is a valid trace");
        }
        writer.finish().expect("morph output finalizes");
    }

    /// The streaming file path (`morph_file`) produces exactly what the
    /// in-memory pipeline produces on the same arrivals.
    #[test]
    fn morph_file_matches_in_memory_pipeline(
        (m, raw) in arrivals_case(),
        codes in spec_codes(),
    ) {
        let specs = build_specs(&codes, m);
        let input = case_path("in");
        let output = case_path("out");
        {
            let mut writer = fss_trace::TraceWriter::create(&input, m).unwrap();
            for &(release, src, dst) in &raw {
                writer.write_arrival(release, src, dst).unwrap();
            }
            writer.finish().unwrap();
        }
        let summary = fss_trace::morph_file(&input, &output, &specs).expect("morph_file runs");
        let mut streamed = Vec::new();
        let scanned = scan_with(&output, |a| streamed.push((a.release, a.src, a.dst)))
            .expect("morphed file validates");
        prop_assert_eq!(scanned.flows, summary.flows);
        prop_assert_eq!(streamed, apply_all(&specs, m, &to_arrivals(&raw)));
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&output).ok();
    }

    /// CSV conversion is deterministic, its output is a valid trace,
    /// and the flow count matches the quantization formula row by row.
    #[test]
    fn convert_is_deterministic_and_counts_match(
        rows in proptest::collection::vec(
            (0u64..5_000, proptest::collection::vec(0u32..200, 1..4),
             proptest::collection::vec(0u32..200, 1..4), 1u64..(48 << 20)),
            1..12,
        ),
        ports in 2usize..32,
        quantum_shift in 10u32..22,
        ms_per_round in 1u64..1_000,
    ) {
        let opts = ConvertOptions {
            ports,
            quantum_bytes: 1 << quantum_shift,
            ms_per_round,
        };
        let mut csv = String::from("coflow,release_ms,mappers,reducers,bytes\n");
        let mut release_ms = 0u64;
        let mut expected_flows = 0u64;
        for (i, (delta, mappers, reducers, bytes)) in rows.iter().enumerate() {
            release_ms += delta;
            let fmt = |ps: &[u32]| ps.iter().map(u32::to_string).collect::<Vec<_>>().join("|");
            csv.push_str(&format!(
                "{i},{release_ms},{},{},{bytes}\n",
                fmt(mappers),
                fmt(reducers)
            ));
            let pairs = (mappers.len() * reducers.len()) as u64;
            expected_flows += pairs * units_per_pair(*bytes, pairs, opts.quantum_bytes).unwrap();
        }

        let convert = || {
            let mut jsonl = Vec::new();
            let writer = TraceWriter::from_writer(&mut jsonl, "csv", opts.ports).unwrap();
            let summary = convert_stream(std::io::Cursor::new(csv.as_bytes()), "csv", writer, opts)
                .expect("generated CSV converts");
            (summary, jsonl)
        };
        let (summary, jsonl) = convert();
        prop_assert_eq!(summary.flows, expected_flows, "quantization count formula");
        prop_assert_eq!(summary.ports, ports);
        let (summary2, jsonl2) = convert();
        prop_assert_eq!(summary, summary2);
        prop_assert_eq!(jsonl, jsonl2, "conversion must be bit-for-bit deterministic");
    }
}
