//! Engine-level parity of the weighted rules on switches wider than one
//! bitset word. `differential.rs` already holds the event-driven engine
//! path (`Rule::Weighted`) to its scan-driven twin (`Rule::Policy`) flow
//! for flow, but draws `m` from 2..=6; the solver's tight-column bitsets
//! change shape at 64 columns. Here both drivers run Poisson cells up to
//! m = 150 and must dispatch the same `(id, release)` set in every round —
//! and the engine's sequence must hash to the value recorded with the
//! scalar solver of commit d59645d, before the tight-set walk replaced it.

use fss_engine::{run, EngineTelemetry, PoissonSource, Rule};
use fss_online::{AgedMaxWeight, MaxWeight, MinRTime, OnlinePolicy, WeightModel};

/// The `(round, id, release)` dispatches of one run, in emission order.
fn dispatches(m: usize, rate: f64, rounds: u64, rule: Rule<'_>) -> Vec<(u64, u64, u64)> {
    let mut out = Vec::new();
    run(
        PoissonSource::new(m, rate, Some(rounds), 1),
        rule,
        None,
        &mut EngineTelemetry::disabled(),
        |id, release, round| out.push((round, id, release)),
    );
    out
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
