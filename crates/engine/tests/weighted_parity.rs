//! Engine-level parity of the weighted rules on switches wider than one
//! bitset word. `differential.rs` already holds the event-driven engine
//! path (`Rule::Weighted`) to its scan-driven twin (`Rule::Policy`) flow
//! for flow, but draws `m` from 2..=6; the solver's tight-column bitsets
//! change shape at 64 columns. Here both drivers run Poisson cells up to
//! m = 150 and must dispatch the same `(id, release)` set in every round —
//! and the engine's sequence must hash to the value recorded with the
//! scalar solver of commit d59645d, before the tight-set walk replaced it.
//!
//! Exact MaxCard is pinned the same way on the repository benchmark's own
//! cells: the graph it carries across rounds must dispatch what a fresh
//! scan per round dispatches (the masked core under an empty plan), and
//! the sequence must hash to the value recorded at commit 427d92d, when
//! every round still scanned.
//!
//! The incremental support-graph matcher has no scan twin (it picks its
//! own maximum matching, oldest support edge first), so its schedule is
//! pinned by hash alone, on the same kind of cells: the values recorded
//! at commit d9a7c7d, before its bitset rows moved onto
//! `fss_matching::bitset`, and one more light cell at seed 2, recorded at
//! commit 8149f10, before a repair pass kept its dead columns.

use fss_core::FailurePlan;
use fss_engine::{
    run, BuiltinPolicy, EngineMode, EngineTelemetry, PoissonSource, Rule, StreamStats,
};
use fss_online::{AgedMaxWeight, MaxWeight, MinRTime, OnlinePolicy, WeightModel};

/// The `(round, id, release)` dispatches of one seed-1 run, in emission
/// order.
fn dispatches(m: usize, rate: f64, rounds: u64, rule: Rule<'_>) -> Vec<(u64, u64, u64)> {
    dispatches_under(m, rate, rounds, 1, rule, None).0
}

fn dispatches_under(
    m: usize,
    rate: f64,
    rounds: u64,
    seed: u64,
    rule: Rule<'_>,
    plan: Option<&FailurePlan>,
) -> (Vec<(u64, u64, u64)>, StreamStats) {
    let mut out = Vec::new();
    let stats = run(
        PoissonSource::new(m, rate, Some(rounds), seed),
        rule,
        plan,
        &mut EngineTelemetry::disabled(),
        |id, release, round| out.push((round, id, release)),
    );
    (out, stats)
}

/// FNV-1a over a dispatch sequence.
fn fnv1a(seq: &[(u64, u64, u64)]) -> u64 {
    seq.iter()
        .flat_map(|&(round, id, release)| [id, release, round])
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// `(m, rate, rounds)` and the scalar solver's hashes for MinRTime,
/// MaxWeight and AgedMaxWeight{512} at seed 1.
const CELLS: [(usize, f64, u64, [u64; 3]); 4] = [
    (
        150,
        600.0,
        60,
        [
            0xd83b_4b8f_1fbd_8bde,
            0x35de_e32f_8c68_52b0,
            0x7a83_b224_c0f6_1e67,
        ],
    ),
    (
        150,
        127.5,
        200,
        [
            0xd18b_7bf9_8cd9_c823,
            0xf861_77ed_f05e_1958,
            0x3b03_5408_3059_12cc,
        ],
    ),
    (
        40,
        60.0,
        500,
        [
            0x27eb_22e0_cc51_09aa,
            0xcf21_d91c_9d4d_46cb,
            0x2221_5e57_7f8e_dc16,
        ],
    ),
    (
        7,
        9.0,
        2000,
        [
            0xfa30_5c23_67ec_799e,
            0xa5da_9070_8c90_c324,
            0x80e0_b9db_b054_2f2f,
        ],
    ),
];

#[test]
fn weighted_rules_match_their_scan_twins_and_the_scalar_solver() {
    for (m, rate, rounds, recorded) in CELLS {
        let models: [(WeightModel, Box<dyn OnlinePolicy>); 3] = [
            (WeightModel::MinRTime, Box::new(MinRTime::default())),
            (WeightModel::MaxWeight, Box::new(MaxWeight::default())),
            (
                WeightModel::AgedMaxWeight { gamma_q: 512 },
                Box::new(AgedMaxWeight::new(0.5)),
            ),
        ];
        for ((model, mut twin), want) in models.into_iter().zip(recorded) {
            let mut engine = dispatches(m, rate, rounds, Rule::Weighted(model));
            let mut legacy = dispatches(m, rate, rounds, Rule::Policy(twin.as_mut()));
            assert_eq!(
                fnv1a(&engine),
                want,
                "{model:?} on m = {m}, rate {rate}: the {} dispatches differ from the scalar solver's",
                engine.len()
            );
            // Within a round the scan driver emits in waiting-slice order,
            // the engine by ascending input port.
            engine.sort_unstable();
            legacy.sort_unstable();
            assert!(
                engine == legacy,
                "{model:?} on m = {m}, rate {rate}: drivers differ"
            );
        }
    }
}

/// `(m, rate, rounds)` of `poisson-heavy-*`, `poisson-light-*`,
/// `serve-socket` and a small overloaded switch, with the scan-per-round
/// MaxCard's hash at seed 1. The first and last run on the carried graph
/// but for their opening and closing rounds; the middle two never reach
/// the backlog at which it is carried.
const MAXCARD_CELLS: [(usize, f64, u64, u64); 4] = [
    (150, 600.0, 250, 0x8a67_4777_be68_89a3),
    (150, 127.5, 2500, 0xe959_95df_d1a0_dd18),
    (20, 18.0, 3000, 0xf082_b500_6c2d_8959),
    (7, 9.0, 5000, 0xce80_0245_1803_a8d6),
];

#[test]
fn maxcard_carried_across_rounds_matches_the_scan_and_its_recorded_hashes() {
    let empty = FailurePlan::default();
    for (m, rate, rounds, want) in MAXCARD_CELLS {
        let rule = || Rule::from(BuiltinPolicy::MaxCard);
        let (carried, stats) = dispatches_under(m, rate, rounds, 1, rule(), None);
        let (scanned, scan_stats) = dispatches_under(m, rate, rounds, 1, rule(), Some(&empty));
        assert_eq!(stats, scan_stats, "m = {m}, rate {rate}");
        assert!(
            carried == scanned,
            "m = {m}, rate {rate}: the carried graph and the scan dispatch differently"
        );
        assert_eq!(
            fnv1a(&carried),
            want,
            "m = {m}, rate {rate}: the {} dispatches differ from the recorded run's",
            carried.len()
        );
    }
}

/// `(m, rate, rounds, seed)` of `poisson-heavy-incremental` (at
/// T = 250), `poisson-light-incremental` / `trace-replay`, a light
/// 20 x 20 switch and a small overloaded one, with the incremental
/// matcher's hash, recorded at commit d9a7c7d; and the light cell at
/// seed 2, recorded at commit 8149f10, before repair passes kept a
/// failed search's columns dead across augmentations.
const INCREMENTAL_CELLS: [(usize, f64, u64, u64, u64); 5] = [
    (150, 600.0, 250, 1, 0x6bf7_83a2_146e_3747),
    (150, 127.5, 2500, 1, 0x3fdb_6814_b89c_8008),
    (20, 18.0, 3000, 1, 0xfcbc_2846_5743_8553),
    (7, 9.0, 5000, 1, 0xcc56_296f_42f2_c7e3),
    (150, 127.5, 2500, 2, 0x2bf5_7848_55f0_90c5),
];

#[test]
fn the_incremental_matcher_repeats_its_recorded_hashes() {
    for (m, rate, rounds, seed, want) in INCREMENTAL_CELLS {
        let rule = Rule::Mode(EngineMode::Incremental);
        let (seq, _) = dispatches_under(m, rate, rounds, seed, rule, None);
        assert_eq!(
            fnv1a(&seq),
            want,
            "m = {m}, rate {rate}, seed {seed}: the {} dispatches differ from the recorded run's",
            seq.len()
        );
    }
}
