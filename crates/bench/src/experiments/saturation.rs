//! Saturation sweep (paper §6's "beyond worst-case" direction): response
//! vs per-port arrival intensity `λ = M/m` for all four policies, plus
//! the bisected stability knee per policy.
//!
//! Every point is one [`fss_sim::poisson_cell`] at rate `λ·m`
//! ([`fss_sim::sweep_trial_seed`] names each trial's seed): workloads
//! are streamed, never materialized, so the paper tier can push the
//! horizon into the hundreds of thousands of rounds.

use fss_sim::{saturation_sweep, stable_intensity, PolicyKind};

use crate::registry::{engine_telemetry, CellOutcome, CellSpec, Experiment, Scale};

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::MaxCard,
    PolicyKind::MinRTime,
    PolicyKind::MaxWeight,
    PolicyKind::FifoGreedy,
];

/// The intensity grid: steps of 0.2 under light load, 0.1 around the
/// stability boundary `λ = 1`, and two deep-overload points.
pub const INTENSITIES: [f64; 9] = [0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.1, 1.25, 1.5];

/// Sweep + knee experiment, one cell per `(policy, λ)` point and one
/// knee cell per policy.
pub fn saturation() -> Experiment {
    Experiment {
        id: "saturation",
        description: "response vs arrival intensity across the stability boundary",
        build: Box::new(build),
    }
}

fn build(scale: &Scale) -> Vec<CellSpec> {
    // Smoke stays CI-sized; the paper tier pushes the horizon into the
    // hundreds of thousands of rounds at the paper's 10 trials — a
    // multi-hour budget that expects a `bench --resume` restart loop.
    let trials = scale.trials(2, 10);
    let (m, rounds) = if scale.paper {
        (20usize, 100_000u64)
    } else {
        (6, 10)
    };
    let instrument = scale.telemetry;
    let mut cells = Vec::new();
    for policy in POLICIES {
        for &lambda in &INTENSITIES {
            cells.push(CellSpec::new(
                format!("saturation/{}/lam{lambda}", policy.name()),
                // m/T/trials are tier-dependent and not in the id, so
                // they are params: tiers must not share fingerprints.
                vec![
                    ("policy", policy.name().to_string()),
                    ("lambda", lambda.to_string()),
                    ("m", m.to_string()),
                    ("T", rounds.to_string()),
                    ("trials", trials.to_string()),
                ],
                move || {
                    let mut tele = engine_telemetry(instrument);
                    let pt =
                        saturation_sweep(policy, m, rounds, &[lambda], trials, 0x5a7, &mut tele)
                            .pop()
                            .expect("one point per intensity");
                    CellOutcome {
                        metrics: vec![
                            ("mean_response".into(), pt.mean_response),
                            ("max_response".into(), pt.max_response),
                        ],
                        flows: (lambda * m as f64 * rounds as f64 * trials as f64).round() as u64,
                        engine_mode: "engine",
                        telemetry: instrument.then(|| tele.snapshot()),
                    }
                },
            ));
        }
        cells.push(CellSpec::new(
            format!("saturation/knee/{}", policy.name()),
            vec![
                ("policy", policy.name().to_string()),
                ("m", m.to_string()),
                ("T", rounds.to_string()),
                ("trials", trials.min(2).to_string()),
            ],
            move || {
                let knee = stable_intensity(policy, m, rounds, 4.0, trials.min(2), 0x5a8);
                CellOutcome {
                    metrics: vec![("stable_intensity".into(), knee)],
                    flows: 0,
                    engine_mode: "engine",
                    telemetry: None,
                }
            },
        ));
    }
    cells
}
