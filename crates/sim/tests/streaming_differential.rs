//! Differential property tests for the streaming trace source.
//!
//! The acceptance contract of the `fss-trace` subsystem: replaying a
//! trace through the chunked [`fss_trace::StreamingTraceSource`] must
//! be **bit-for-bit identical** to loading it with the in-memory
//! [`ArrivalTrace`] loader and replaying that — same dispatch stream,
//! same aggregates, for every §5 policy, under horizon caps, and for
//! traces decorated with blank lines and missing trailing newlines.
//! Chunk boundaries must be invisible: a 1-arrival chunk (boundary
//! between *every* pair of lines) changes nothing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use fss_engine::{EngineTelemetry, FlowSource};
use fss_sim::arrival_trace::{ArrivalTrace, TraceSource};
use fss_sim::scenario::{run_scenario, ScenarioSpec};
use fss_sim::PolicyKind;
use proptest::prelude::*;

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::MaxCard,
    PolicyKind::MinRTime,
    PolicyKind::MaxWeight,
    PolicyKind::FifoGreedy,
];

/// Strategy: a port count, a sorted arrival list on it, and the text
/// decoration knobs (blank interior lines, trailing newline).
#[allow(clippy::type_complexity)]
fn trace_case() -> impl Strategy<Value = (usize, Vec<(u64, u32, u32)>, bool, bool)> {
    (
        2usize..=5,
        proptest::collection::vec((0u64..12, 0u32..8, 0u32..8), 0..60),
        0u8..2,
        0u8..2,
    )
        .prop_map(|(m, mut raw, blanks, trailing)| {
            for (_, s, d) in raw.iter_mut() {
                *s %= m as u32;
                *d %= m as u32;
            }
            raw.sort_by_key(|&(r, _, _)| r);
            (m, raw, blanks == 1, trailing == 1)
        })
}

/// Render the case as JSONL, optionally sprinkling blank/whitespace
/// lines between records and dropping the final newline.
fn render(m: usize, arrivals: &[(u64, u32, u32)], blanks: bool, trailing: bool) -> String {
    let mut text = format!("{{\"ports\":{m}}}\n");
    if blanks {
        text.push('\n');
    }
    for (i, &(release, src, dst)) in arrivals.iter().enumerate() {
        text.push_str(&format!(
            "{{\"release\":{release},\"src\":{src},\"dst\":{dst}}}\n"
        ));
        if blanks && i % 3 == 0 {
            text.push_str("   \n");
        }
    }
    if !trailing && text.ends_with('\n') {
        text.pop();
    }
    text
}

/// A fresh per-case temp path (proptest shrinking reruns cases, and
/// test binaries run in parallel).
fn case_path() -> std::path::PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("fss-streaming-diff");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "case-{}-{}.jsonl",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Run one scenario spec, capturing the full dispatch stream.
fn replay(
    spec: &ScenarioSpec,
    policy: PolicyKind,
) -> (fss_engine::StreamStats, Vec<(u64, u64, u64)>) {
    let mut dispatches = Vec::new();
    let mut tele = EngineTelemetry::disabled();
    let stats = run_scenario(spec, policy, 1, &mut tele, |id, release, round| {
        dispatches.push((id, release, round))
    })
    .expect("scenario replays");
    (stats, dispatches)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `streaming: true` is invisible: same dispatch stream and same
    /// aggregates as the in-memory loader, for every policy, on
    /// arbitrary decorated traces.
    #[test]
    fn streaming_replay_equals_in_memory((m, arrivals, blanks, trailing) in trace_case()) {
        let path = case_path();
        std::fs::write(&path, render(m, &arrivals, blanks, trailing)).unwrap();
        let in_mem = ScenarioSpec::trace(path.to_string_lossy());
        let streamed = in_mem.clone().with_streaming(true);
        for policy in POLICIES {
            prop_assert_eq!(
                replay(&streamed, policy),
                replay(&in_mem, policy),
                "policy {}", policy.name()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// The horizon cap truncates both sources at the same round.
    #[test]
    fn streaming_replay_respects_horizon(
        (m, arrivals, blanks, trailing) in trace_case(),
        horizon in 0u64..14,
    ) {
        let path = case_path();
        std::fs::write(&path, render(m, &arrivals, blanks, trailing)).unwrap();
        let capped = ScenarioSpec {
            horizon: Some(horizon),
            ..ScenarioSpec::trace(path.to_string_lossy())
        };
        let streamed = capped.clone().with_streaming(true);
        for policy in POLICIES {
            let (stats, dispatches) = replay(&streamed, policy);
            prop_assert_eq!(
                (stats, dispatches.clone()),
                replay(&capped, policy),
                "policy {}", policy.name()
            );
            for &(_, release, _) in &dispatches {
                prop_assert!(release < horizon, "arrival past the horizon replayed");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Chunk boundaries are invisible even at chunk size 1, where the
    /// buffer refills between every two arrivals.
    #[test]
    fn chunk_size_one_equals_in_memory((m, arrivals, blanks, trailing) in trace_case()) {
        let text = render(m, &arrivals, blanks, trailing);
        let trace = Arc::new(ArrivalTrace::from_jsonl(&text).expect("rendered trace validates"));
        for policy in POLICIES {
            let source = fss_trace::StreamingTraceReader::from_reader(
                std::io::Cursor::new(text.clone().into_bytes()),
                "case",
            )
            .expect("rendered header validates")
            .with_chunk(1);
            let errors = source.error_handle();
            let mut streamed = Vec::new();
            let stats = fss_engine::run(
                source,
                policy.to_engine().into(),
                None,
                1,
                &mut EngineTelemetry::disabled(),
                |id, release, round| streamed.push((id, release, round)),
            );
            prop_assert_eq!(errors.get(), None, "clean trace must stream without error");

            let mut in_mem = Vec::new();
            let ref_stats = fss_engine::run(
                TraceSource::new(trace.clone()),
                policy.to_engine().into(),
                None,
                1,
                &mut EngineTelemetry::disabled(),
                |id, release, round| in_mem.push((id, release, round)),
            );
            prop_assert_eq!((stats, streamed), (ref_stats, in_mem), "policy {}", policy.name());
        }
    }

    /// The streaming source hands the engine the same arrival sequence
    /// the in-memory trace stores: ids dense from 0, releases sorted.
    #[test]
    fn streamed_arrivals_match_loaded_trace((m, arrivals, blanks, trailing) in trace_case()) {
        let text = render(m, &arrivals, blanks, trailing);
        let trace = ArrivalTrace::from_jsonl(&text).expect("rendered trace validates");
        let mut source = fss_trace::StreamingTraceReader::from_reader(
            std::io::Cursor::new(text.into_bytes()),
            "case",
        )
        .expect("rendered header validates")
        .with_chunk(2);
        prop_assert_eq!(source.m_in(), m);
        let mut seen = Vec::new();
        while let Some(a) = source.next_arrival() {
            seen.push(a);
        }
        prop_assert_eq!(source.error_handle().get(), None);
        prop_assert_eq!(seen.len(), trace.len());
        for (i, (got, want)) in seen.iter().zip(trace.arrivals.iter()).enumerate() {
            prop_assert_eq!(got, want, "arrival {}", i);
        }
    }
}
