//! Saturation analysis: how much load can a policy sustain?
//!
//! A step toward the paper's §6 "beyond worst-case analysis" direction:
//! for Poisson arrivals with per-port intensity `λ = M/m`, a policy is
//! *stable* when queues stay bounded as `T` grows. A perfect scheduler on
//! a uniform random workload is stable for `λ < 1`; real heuristics peel
//! off earlier. [`saturation_sweep`] measures mean response versus `λ` and
//! [`stable_intensity`] estimates the knee by bisection.
//!
//! A sweep point is one [`poisson_cell`] at rate `λ·m`: each trial is a
//! Poisson scenario streamed through the event-driven engine in
//! `O(peak queue)` memory, so horizons in the millions of rounds are
//! practical.

use fss_engine::EngineTelemetry;

use crate::experiment::{poisson_cell, PolicyKind};

/// One sweep point: intensity vs observed responses.
#[derive(Debug, Clone)]
pub struct SaturationPoint {
    /// Per-port arrival intensity `λ = M/m`.
    pub intensity: f64,
    /// Mean response time over the trials.
    pub mean_response: f64,
    /// Mean maximum response time.
    pub max_response: f64,
}

/// The RNG seed of trial `trial` of the sweep point at intensity
/// `lambda`, under the sweep's base `seed`.
pub fn sweep_trial_seed(seed: u64, lambda: f64, trial: u64) -> u64 {
    seed ^ (lambda.to_bits().rotate_left(17)) ^ trial
}

/// Measure mean/max response across a grid of intensities: one
/// [`poisson_cell`] per intensity (`Poisson(λ·m)` on an `m x m` switch
/// for `rounds` rounds, trials fanned out under `--jobs`, every number
/// bit-identical at every thread count), recording round-loop telemetry
/// into `tele`.
pub fn saturation_sweep(
    policy: PolicyKind,
    m: usize,
    rounds: u64,
    intensities: &[f64],
    trials: u64,
    seed: u64,
    tele: &mut EngineTelemetry,
) -> Vec<SaturationPoint> {
    intensities
        .iter()
        .map(|&lambda| {
            let trial_seed = |k| sweep_trial_seed(seed, lambda, k);
            let cell = poisson_cell(
                policy,
                m,
                lambda * m as f64,
                rounds,
                trials,
                trial_seed,
                tele,
            );
            SaturationPoint {
                intensity: lambda,
                mean_response: cell.avg_response,
                max_response: cell.max_response,
            }
        })
        .collect()
}

/// Estimate the largest intensity at which the policy keeps the mean
/// response under `threshold` (bisection over `[0.05, 1.5]`, 8 steps).
pub fn stable_intensity(
    policy: PolicyKind,
    m: usize,
    rounds: u64,
    threshold: f64,
    trials: u64,
    seed: u64,
) -> f64 {
    let mut tele = EngineTelemetry::disabled();
    let (mut lo, mut hi) = (0.05f64, 1.5f64);
    for _ in 0..8 {
        let mid = 0.5 * (lo + hi);
        let at_mid = saturation_sweep(policy, m, rounds, &[mid], trials, seed, &mut tele);
        if at_mid[0].mean_response <= threshold {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioSpec;

    /// The sweep with telemetry off.
    fn sweep(
        policy: PolicyKind,
        m: usize,
        rounds: u64,
        intensities: &[f64],
        trials: u64,
        seed: u64,
    ) -> Vec<SaturationPoint> {
        let mut tele = EngineTelemetry::disabled();
        saturation_sweep(policy, m, rounds, intensities, trials, seed, &mut tele)
    }

    #[test]
    fn response_grows_with_intensity() {
        let pts = sweep(PolicyKind::MaxCard, 6, 12, &[0.3, 1.2], 2, 11);
        assert_eq!(pts.len(), 2);
        assert!(
            pts[1].mean_response > pts[0].mean_response,
            "4x the load must cost response time: {:?}",
            pts
        );
    }

    #[test]
    fn light_load_is_fast() {
        let pts = sweep(PolicyKind::MinRTime, 6, 12, &[0.15], 2, 13);
        assert!(
            pts[0].mean_response < 2.5,
            "near-idle switch must respond fast"
        );
    }

    #[test]
    fn stable_intensity_is_in_range() {
        let s = stable_intensity(PolicyKind::MaxCard, 5, 10, 3.0, 1, 17);
        assert!(s > 0.05 && s < 1.5);
    }

    #[test]
    fn instrumented_sweep_merges_every_trial_handle() {
        let (policy, m, rounds, trials, seed) = (PolicyKind::MaxWeight, 5, 20, 3, 41);
        let lambdas = [0.3, 0.9];
        let mut swept = EngineTelemetry::enabled();
        saturation_sweep(policy, m, rounds, &lambdas, trials, seed, &mut swept);

        // The same trials one at a time, each through its own handle.
        let (mut flows, mut rounds_run) = (0, 0);
        for &lambda in &lambdas {
            for k in 0..trials {
                let mut tele = EngineTelemetry::enabled();
                let rate = lambda * m as f64;
                let spec =
                    ScenarioSpec::poisson(m, rate, rounds, sweep_trial_seed(seed, lambda, k));
                crate::scenario::run_scenario(&spec, policy, &mut tele, |_, _, _| {}).unwrap();
                flows += tele.snapshot().counter("flows_dispatched").unwrap();
                rounds_run += tele.rounds();
            }
        }
        assert!(flows > 0 && rounds_run > 0);
        assert_eq!(swept.snapshot().counter("flows_dispatched"), Some(flows));
        assert_eq!(swept.rounds(), rounds_run);
    }
}
