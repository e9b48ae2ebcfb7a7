//! Workspace-wide property tests: every pipeline must uphold its paper
//! guarantee on arbitrary generated instances.

use flow_switch::offline::art::{art_lp_lower_bound, iterative_rounding, solve_art};
use flow_switch::offline::greedy_schedule;
use flow_switch::offline::mrt::solve_mrt;
use flow_switch::online::{run_policy, MaxCard, MaxWeight, MinRTime};
use flow_switch::prelude::*;
use proptest::prelude::*;

/// Strategy: a small unit-demand instance on an `m x m` unit switch.
fn unit_instance() -> impl Strategy<Value = Instance> {
    (2usize..=4, 1usize..=14).prop_flat_map(|(m, n)| {
        let flow = (0..m as u32, 0..m as u32, 0u64..6);
        proptest::collection::vec(flow, n).prop_map(move |flows| {
            let mut b = InstanceBuilder::new(Switch::uniform(m, m, 1));
            for (s, d, r) in flows {
                b.unit_flow(s, d, r);
            }
            b.build().expect("generated instance is valid")
        })
    })
}

/// Strategy: mixed demands and capacities.
fn general_instance() -> impl Strategy<Value = Instance> {
    (2usize..=3, 1usize..=8, 2u32..=4).prop_flat_map(|(m, n, cap)| {
        let flow = (0..m as u32, 0..m as u32, 1..=cap, 0u64..4);
        proptest::collection::vec(flow, n).prop_map(move |flows| {
            let mut b = InstanceBuilder::new(Switch::uniform(m, m, cap));
            for (s, d, dem, r) in flows {
                b.flow(s, d, dem, r);
            }
            b.build().expect("generated instance is valid")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn greedy_always_feasible(inst in unit_instance()) {
        let s = greedy_schedule(&inst);
        prop_assert!(validate::check(&inst, &s, &inst.switch).is_ok());
    }

    #[test]
    fn lp_bound_below_greedy(inst in unit_instance()) {
        let lp = art_lp_lower_bound(&inst, None).unwrap();
        let greedy = fss_core::metrics::evaluate(&inst, &greedy_schedule(&inst));
        prop_assert!(lp <= greedy.total_response as f64 + 1e-6);
    }

    #[test]
    fn pseudo_schedule_respects_releases_and_logs_overload(inst in unit_instance()) {
        let r = iterative_rounding(&inst);
        for (i, f) in inst.flows.iter().enumerate() {
            prop_assert!(r.pseudo.round_of(FlowId(i as u32)) >= f.release);
        }
        let n = inst.n().max(2);
        let bound = 10 * ((n as f64).log2().ceil() as i64 + 1) + 4;
        prop_assert!(r.pseudo.max_window_overload(&inst) <= bound);
    }

    #[test]
    fn art_schedule_valid_on_scaled_switch(inst in unit_instance()) {
        let res = solve_art(&inst, 1);
        prop_assert!(validate::check(&inst, &res.schedule, &inst.switch.scaled(2)).is_ok());
    }

    #[test]
    fn mrt_schedule_meets_paper_augmentation(inst in general_instance()) {
        let dmax = inst.dmax();
        let r = solve_mrt(&inst, None).unwrap();
        prop_assert!(r.augmentation < 2 * dmax,
            "augmentation {} > 2*dmax-1 = {}", r.augmentation, 2 * dmax - 1);
        let m = fss_core::metrics::evaluate(&inst, &r.schedule);
        prop_assert!(m.max_response <= r.rho_star);
        prop_assert!(validate::check(
            &inst, &r.schedule, &inst.switch.augmented(r.augmentation)).is_ok());
    }

    #[test]
    fn online_policies_feasible_and_complete(inst in unit_instance()) {
        for sched in [
            run_policy(&inst, &mut MaxCard::default()),
            run_policy(&inst, &mut MinRTime::default()),
            run_policy(&inst, &mut MaxWeight::default()),
        ] {
            prop_assert!(validate::check(&inst, &sched, &inst.switch).is_ok());
            prop_assert_eq!(sched.len(), inst.n());
        }
    }

    #[test]
    fn serde_round_trips(inst in general_instance()) {
        let json = serde_json::to_string(&inst).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&inst, &back);
        let sched = greedy_schedule(&inst);
        let sj = serde_json::to_string(&sched).unwrap();
        let sback: Schedule = serde_json::from_str(&sj).unwrap();
        prop_assert_eq!(sched, sback);
    }
}

// Hostile input (ROADMAP aim 3): the bench checkpoint stream and the
// flight spool cross a process boundary, so each reader answers any
// bytes with `Ok` or `Err`, never a panic — and neither does folding a
// snapshot that parsed into a run-level one, as `telemetry dump` does
// with it next, nor summarising a spool that read, as `flight stats`
// does.

use flow_switch::flight::{read_spool, render_stats, stats, Spool};
use flow_switch::sim::report::{bench_cell_to_jsonl, parse_cells_jsonl, BenchCell};
use flow_switch::telemetry::{to_prometheus, HistoSnapshot, TelemetrySnapshot};

const SPOOL_HEADER: &str = "{\"fss_flight_spool\":1}\n";

/// A snapshot whose every total is `total`, whatever `buckets` add up to.
fn snapshot(total: u64, buckets: Vec<u64>) -> TelemetrySnapshot {
    let mut snap = TelemetrySnapshot::new();
    snap.add_counter("flows_dispatched", total);
    snap.add_stage_ns("match_repair", total);
    let histo = HistoSnapshot {
        count: total,
        buckets,
        ..HistoSnapshot::empty()
    };
    snap.merge_histo("decision_latency_ns", &histo);
    snap
}

/// One valid line of either grammar, carrying what no healthy
/// writer sends: numbers at the edges unchecked arithmetic trips on,
/// histogram buckets that disagree with `count`, more buckets than exist.
fn valid_line() -> impl Strategy<Value = String> {
    let edge = || prop_oneof![Just(0u64), Just(1u64 << 63), Just(u64::MAX), 0u64..u64::MAX];
    let buckets = proptest::collection::vec(edge(), 0..70);
    (0usize..5, edge(), buckets).prop_map(|(grammar, n, buckets)| match grammar {
        0 => bench_cell_to_jsonl(
            &BenchCell::new("fig6/MaxCard/M50", vec![], vec![], 0.5, n, "engine")
                .with_telemetry(Some(snapshot(n, buckets))),
        ),
        1 => format!(r#"{{"sid":7,"par":0,"k":"round","r":{n},"ts":{n},"dur":{n},"tid":1}}"#),
        2 => format!(r#"{{"meta":"dropped","count":{n}}}"#),
        3 => format!(r#"{{"meta":"truncated","lost":{n}}}"#),
        _ => format!(r#"{{"meta":"watchdog","progress":{n},"depths":[["a",{n},{n}]]}}"#),
    })
}

/// One to three valid lines with up to three printable-ASCII edits: at
/// some byte, cut 0 or 1 and put 0 or 1 (insert, delete, replace).
fn mutated_valid_text() -> impl Strategy<Value = String> {
    let lines = proptest::collection::vec(valid_line(), 1..=3);
    let put = proptest::collection::vec(0x20u8..0x7f, 0..=1);
    let edits = proptest::collection::vec((0usize..8192, 0usize..=1, put), 0..=3);
    (lines, edits).prop_map(|(lines, edits)| {
        let mut text = (lines.join("\n") + "\n").into_bytes();
        for (at, cut, put) in edits {
            let at = at % (text.len() + 1);
            text.splice(at..(at + cut).min(text.len()), put);
        }
        String::from_utf8(text).expect("valid lines and edits are ASCII")
    })
}

/// `read_spool` over `bytes`, through a file of the calling thread's own.
fn read_spool_bytes(bytes: &[u8]) -> Result<Spool, String> {
    let thread = std::thread::current().id();
    let name = format!("fss-hostile-{}-{thread:?}", std::process::id());
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, bytes).expect("temp file is writable");
    let spool = read_spool(&path);
    let _ = std::fs::remove_file(&path);
    spool
}

/// Every reader gets `text`. Whatever snapshots parse are folded into a
/// run-level one — twice, so near-overflow totals do overflow — and
/// rendered; whatever spools read are summarised.
fn read_everywhere(text: &[u8]) {
    let utf8 = String::from_utf8_lossy(text);
    let mut snaps: Vec<TelemetrySnapshot> = Vec::new();
    if let Ok(replay) = parse_cells_jsonl(&utf8) {
        snaps.extend(replay.cells.into_iter().filter_map(|cell| cell.telemetry));
    }
    let mut run = TelemetrySnapshot::new();
    for snap in snaps.iter().chain(&snaps) {
        run.merge(snap);
    }
    let _ = to_prometheus(&run, &[]);
    let headed = [SPOOL_HEADER.as_bytes(), text].concat();
    for spool in [text, &headed].into_iter().flat_map(read_spool_bytes) {
        let _ = render_stats(&spool, &stats(&spool, 3));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wire_cells_and_spool_readers_never_panic_on_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..160),
    ) {
        read_everywhere(&bytes);
    }

    #[test]
    fn wire_cells_and_spool_readers_never_panic_on_mutated_valid_lines(
        text in mutated_valid_text(),
    ) {
        read_everywhere(text.as_bytes());
    }
}

/// The defects on these two surfaces, pinned: a line nested deeper
/// than the stack is an error, and hostile totals saturate.
#[test]
fn hostile_nesting_and_totals_are_errors_or_saturate() {
    for opener in ["[", "{\"a\":", "{\"cell\":["] {
        let deep = opener.repeat(200_000);
        // (A bad *final* line is a torn tail, which this reader skips.)
        assert!(parse_cells_jsonl(&format!("{deep}\n{deep}\n")).is_err());
        assert!(read_spool_bytes(deep.as_bytes()).is_err(), "bad header");
        let skipped = read_spool_bytes(format!("{SPOOL_HEADER}{deep}\n").as_bytes()).unwrap();
        assert!(skipped.events.is_empty());
    }

    let max = u64::MAX;
    let meta = format!(
        "{{\"meta\":\"dropped\",\"count\":{max}}}\n{{\"meta\":\"truncated\",\"lost\":{max}}}\n"
    );
    let half = format!("{{\"k\":\"round\",\"r\":9,\"dur\":{}}}\n", 1u64 << 63);
    let text = format!(
        "{SPOOL_HEADER}{{\"k\":\"round\",\"ts\":{max},\"dur\":5}}\n{half}{half}{meta}{meta}"
    );
    let spool = read_spool_bytes(text.as_bytes()).unwrap();
    assert_eq!(spool.events[0].t_end_ns, max);
    assert_eq!((spool.dropped, spool.truncated), (max, max));
    let report = stats(&spool, 1);
    assert_eq!((report.kinds[0].2, report.dropped), (max, max));
    assert_eq!(report.slow_rounds, [(9, max)]);
    assert!(render_stats(&spool, &report).contains(&format!("round 9          {max}ns")));

    let full = snapshot(max, vec![max, max]);
    let mut run = full.clone();
    run.merge(&full);
    assert_eq!(run.counter("flows_dispatched"), Some(max));
    assert_eq!(run.stage_ns("match_repair"), Some(max));
    assert_eq!(run.histos[0].1.count, max);
    assert!(to_prometheus(&run, &[]).contains(&max.to_string()));
}
