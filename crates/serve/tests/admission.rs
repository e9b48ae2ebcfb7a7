//! Property tests for admission control: randomized ingest bursts
//! against the bounded queue never lose a flow silently, and the
//! accept/drop decision sequence is a *deterministic* function of the
//! offered sequence — never of engine timing.
//!
//! The gate-level properties script the consumer explicitly (offer /
//! drain interleavings with no engine thread), so the decision sequence
//! is exactly reproducible and can be replayed twice. The session-level
//! property runs real bursts through a full `serve_reader` session,
//! where engine timing *does* vary, and checks the invariant that must
//! hold regardless: every arrival is dispatched or explicitly reported
//! dropped.

use fss_serve::{
    serve_reader, Admission, AdmissionGate, AdmissionMode, ServeKind, ServeMetrics, ServeMsg,
    ServeOptions, Sink,
};
use proptest::prelude::*;
use std::io::Cursor;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One scripted ingest step: offer an arrival, or drain up to `k`
/// admitted arrivals from the engine side.
#[derive(Debug, Clone, Copy)]
enum Op {
    Offer { src: u32, dst: u32, bump: u64 },
    Drain { k: u8 },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (0u32..8, 0u32..8, 0u64..2).prop_map(|(src, dst, bump)| Op::Offer { src, dst, bump }),
        (1u8..4).prop_map(|k| Op::Drain { k }),
    ];
    proptest::collection::vec(op, 1..120)
}

/// Replay a script against a fresh Drop-mode gate with a hand-driven
/// consumer; returns the decision sequence and the final accounting.
fn replay(ports: usize, cap: usize, script: &[Op]) -> (Vec<Admission>, u64, u64, u64, u64) {
    let (mut gate, rx, depth) = AdmissionGate::new(cap, AdmissionMode::Drop);
    let mut decisions = Vec::new();
    let mut release = 0u64;
    let mut drained = 0u64;
    for op in script {
        match *op {
            Op::Offer { src, dst, bump } => {
                release += bump;
                let d = gate
                    .offer(release, src % ports as u32, dst % ports as u32, |_| {
                        panic!("drop mode never pauses")
                    })
                    .expect("in-range offers never fail");
                decisions.push(d);
            }
            Op::Drain { k } => {
                for _ in 0..k {
                    if rx.try_recv().is_ok() {
                        depth.fetch_sub(1, Ordering::Relaxed);
                        drained += 1;
                    }
                }
            }
        }
    }
    (
        decisions,
        gate.arrived,
        gate.admitted,
        gate.dropped,
        drained,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn drop_mode_conserves_every_offered_arrival(
        script in ops(), ports in 2usize..8, cap in 1usize..8,
    ) {
        let (decisions, arrived, admitted, dropped, drained) =
            replay(ports, cap, &script);
        // Nothing silent: every offer produced an explicit decision.
        prop_assert_eq!(decisions.len() as u64, arrived);
        prop_assert_eq!(arrived, admitted + dropped, "conservation");
        let admitted_decisions = decisions.iter()
            .filter(|d| matches!(d, Admission::Admitted { .. } | Admission::Resumed { .. }))
            .count() as u64;
        let dropped_decisions = decisions.iter()
            .filter(|d| matches!(d, Admission::Dropped { .. }))
            .count() as u64;
        prop_assert_eq!(admitted_decisions, admitted);
        prop_assert_eq!(dropped_decisions, dropped);
        // The queue holds exactly the admitted-but-undrained remainder.
        prop_assert!(drained <= admitted);
        // Admitted ids are the dense sequence 0..admitted (drops never
        // consume an id) — the property that aligns live ids with trace
        // sequence numbers.
        let ids: Vec<u64> = decisions.iter().filter_map(|d| match d {
            Admission::Admitted { id } | Admission::Resumed { id, .. } => Some(*id),
            Admission::Dropped { .. } => None,
        }).collect();
        let expect: Vec<u64> = (0..admitted).collect();
        prop_assert_eq!(ids, expect);
    }

    #[test]
    fn the_decision_sequence_is_deterministic_for_a_fixed_script(
        script in ops(), ports in 2usize..8, cap in 1usize..8,
    ) {
        let (first, ..) = replay(ports, cap, &script);
        let (second, ..) = replay(ports, cap, &script);
        prop_assert_eq!(first, second, "same script, same decisions");
    }

    #[test]
    fn pause_mode_with_headroom_admits_everything_without_stalling(
        script in ops(), ports in 2usize..8,
    ) {
        // Capacity >= offer count: the gate must never block or shed.
        let offers = script.iter()
            .filter(|o| matches!(o, Op::Offer { .. })).count().max(1);
        let (mut gate, _rx, _depth) =
            AdmissionGate::new(offers, AdmissionMode::Pause);
        let mut release = 0u64;
        for op in &script {
            if let Op::Offer { src, dst, bump } = *op {
                release += bump;
                let d = gate
                    .offer(release, src % ports as u32, dst % ports as u32,
                        |_| panic!("never full"))
                    .expect("in-range offers never fail");
                prop_assert!(matches!(d, Admission::Admitted { .. }));
            }
        }
        prop_assert_eq!(gate.arrived, gate.admitted);
        prop_assert_eq!(gate.dropped, 0u64);
        prop_assert_eq!(gate.pauses, 0u64);
    }
}

proptest! {
    // Full sessions spawn engine threads; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn bursts_through_a_full_session_never_lose_flows_silently(
        burst in proptest::collection::vec((0u32..6, 0u32..6), 1..200),
        cap in 1usize..4,
    ) {
        let mut input = String::from("{\"ports\":6}\n");
        for (i, (src, dst)) in burst.iter().enumerate() {
            input.push_str(&format!(
                "{{\"release\":{},\"src\":{src},\"dst\":{dst}}}\n", i as u64 / 16,
            ));
        }
        input.push_str("{\"kind\":\"Finish\"}\n");
        let opts = ServeOptions {
            queue_cap: cap,
            admission: AdmissionMode::Drop,
            ..ServeOptions::default()
        };
        let (sink, buf) = Sink::capture();
        let stats = serve_reader(
            opts, Cursor::new(input), sink, Arc::new(ServeMetrics::new()),
        ).expect("session runs");
        prop_assert_eq!(stats.arrived, burst.len() as u64);
        prop_assert_eq!(stats.arrived, stats.admitted + stats.dropped);
        prop_assert_eq!(stats.admitted, stats.dispatched, "engine drains fully");
        // Every shed arrival was reported on the wire.
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let mut dropped_lines = 0u64;
        let mut dispatch_lines = 0u64;
        for line in text.lines() {
            match ServeMsg::parse(line).expect("response parses").kind {
                ServeKind::Dropped => dropped_lines += 1,
                ServeKind::Dispatch => dispatch_lines += 1,
                _ => {}
            }
        }
        prop_assert_eq!(dropped_lines, stats.dropped, "no silent loss");
        prop_assert_eq!(dispatch_lines, stats.dispatched);
    }
}
