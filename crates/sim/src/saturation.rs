//! Saturation analysis: how much load can a policy sustain?
//!
//! A step toward the paper's §6 "beyond worst-case analysis" direction:
//! for Poisson arrivals with per-port intensity `λ = M/m`, a policy is
//! *stable* when queues stay bounded as `T` grows. A perfect scheduler on
//! a uniform random workload is stable for `λ < 1`; real heuristics peel
//! off earlier. [`saturation_sweep`] measures mean response versus `λ` and
//! [`stable_intensity`] estimates the knee by bisection.
//!
//! Both run through streaming [`ScenarioSpec`]s: each trial is a Poisson
//! scenario driven through the event-driven engine in `O(peak queue)`
//! memory, so horizons in the millions of rounds are practical. The
//! historical materialize-then-run implementations are kept as
//! [`saturation_sweep_legacy`] / [`stable_intensity_legacy`]; their
//! results are identical round-for-round (differentially tested) because
//! a [`PoissonSource`](fss_engine::PoissonSource) with seed `s` draws the
//! exact same RNG stream as `poisson_workload` with seed `s`.

use fss_engine::EngineTelemetry;
use rand::{rngs::SmallRng, SeedableRng};
use rayon::prelude::*;

use crate::experiment::PolicyKind;
use crate::scenario::ScenarioSpec;
use crate::workload::{poisson_workload, WorkloadParams};

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

/// The per-trial RNG seed for a sweep point (shared by the streaming and
/// legacy paths so their workloads are identical).
fn trial_seed(seed: u64, lambda: f64, trial: u64) -> u64 {
    seed ^ (lambda.to_bits().rotate_left(17)) ^ trial
}

/// The scenario behind trial `k` of a sweep point: `Poisson(λ·m)` on an
/// `m x m` switch for `rounds` rounds.
pub fn sweep_scenario(m: usize, lambda: f64, rounds: u64, seed: u64, trial: u64) -> ScenarioSpec {
    ScenarioSpec::poisson(
        m,
        lambda * m as f64,
        rounds,
        trial_seed(seed, lambda, trial),
    )
}

/// Measure mean/max response across a grid of intensities by streaming
/// each trial's scenario through the engine, recording round-loop
/// telemetry into `tele` (telemetry observes, never steers).
///
/// Trials are independent, so a point's trials go through the rayon
/// shim like bench cells do (`--jobs` / `RAYON_NUM_THREADS` cap the
/// threads). Each trial records into its own handle; the handles are
/// merged into `tele` and the per-trial results summed in trial-index
/// order, so the floating-point accumulation (and thus every reported
/// number) is bit-identical at every thread count.
pub fn saturation_sweep(
    policy: PolicyKind,
    m: usize,
    rounds: u64,
    intensities: &[f64],
    trials: u64,
    seed: u64,
    tele: &mut EngineTelemetry,
) -> Vec<SaturationPoint> {
    let trial_ids: Vec<u64> = (0..trials).collect();
    intensities
        .iter()
        .map(|&lambda| {
            let parent: &EngineTelemetry = tele;
            let runs: Vec<(f64, f64, EngineTelemetry)> = trial_ids
                .par_iter()
                .map(|&k| {
                    let mut ttele = parent.sibling("trial");
                    let spec = sweep_scenario(m, lambda, rounds, seed, k);
                    let stats =
                        crate::scenario::run_scenario(&spec, policy, &mut ttele, |_, _, _| {})
                            .expect("synthetic scenario is valid");
                    (stats.mean_response(), stats.max_response as f64, ttele)
                })
                .collect();
            let (mut avg, mut max) = (0.0, 0.0);
            for (a, b, ttele) in &runs {
                avg += a;
                max += b;
                tele.merge(ttele);
            }
            SaturationPoint {
                intensity: lambda,
                mean_response: avg / trials as f64,
                max_response: max / trials as f64,
            }
        })
        .collect()
}

/// Estimate the largest intensity at which the policy keeps the mean
/// response under `threshold` (bisection over `[lo, hi]`, 8 steps).
pub fn stable_intensity(
    policy: PolicyKind,
    m: usize,
    rounds: u64,
    threshold: f64,
    trials: u64,
    seed: u64,
) -> f64 {
    let mut tele = EngineTelemetry::disabled();
    bisect_knee(threshold, |mid| {
        saturation_sweep(policy, m, rounds, &[mid], trials, seed, &mut tele)[0].mean_response
    })
}

/// The original batch implementation of [`saturation_sweep`]: each trial
/// materializes an [`Instance`](fss_core::Instance) before running. Kept
/// as the reference for differential testing of the streaming path.
pub fn saturation_sweep_legacy(
    policy: PolicyKind,
    m: usize,
    rounds: u64,
    intensities: &[f64],
    trials: u64,
    seed: u64,
) -> Vec<SaturationPoint> {
    intensities
        .iter()
        .map(|&lambda| {
            let mut avg = 0.0;
            let mut max = 0.0;
            for k in 0..trials {
                let mut rng = SmallRng::seed_from_u64(trial_seed(seed, lambda, k));
                let params = WorkloadParams {
                    m,
                    mean_arrivals: lambda * m as f64,
                    rounds,
                };
                let inst = poisson_workload(&mut rng, &params);
                if inst.n() == 0 {
                    continue;
                }
                let sched = policy.run(&inst);
                let met = fss_core::metrics::evaluate(&inst, &sched);
                avg += met.mean_response;
                max += met.max_response as f64;
            }
            SaturationPoint {
                intensity: lambda,
                mean_response: avg / trials as f64,
                max_response: max / trials as f64,
            }
        })
        .collect()
}

/// The original batch implementation of [`stable_intensity`], on top of
/// [`saturation_sweep_legacy`].
pub fn stable_intensity_legacy(
    policy: PolicyKind,
    m: usize,
    rounds: u64,
    threshold: f64,
    trials: u64,
    seed: u64,
) -> f64 {
    bisect_knee(threshold, |mid| {
        saturation_sweep_legacy(policy, m, rounds, &[mid], trials, seed)[0].mean_response
    })
}

fn bisect_knee(threshold: f64, mut mean_at: impl FnMut(f64) -> f64) -> f64 {
    let (mut lo, mut hi) = (0.05f64, 1.5f64);
    for _ in 0..8 {
        let mid = 0.5 * (lo + hi);
        if mean_at(mid) <= threshold {
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
    fn streaming_sweep_equals_legacy_sweep() {
        for policy in [PolicyKind::MaxCard, PolicyKind::FifoGreedy] {
            let a = sweep(policy, 5, 14, &[0.25, 0.8, 1.3], 2, 29);
            let b = saturation_sweep_legacy(policy, 5, 14, &[0.25, 0.8, 1.3], 2, 29);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.intensity, y.intensity);
                assert_eq!(x.mean_response, y.mean_response, "{}", policy.name());
                assert_eq!(x.max_response, y.max_response, "{}", policy.name());
            }
        }
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
                let spec = sweep_scenario(m, lambda, rounds, seed, k);
                crate::scenario::run_scenario(&spec, policy, &mut tele, |_, _, _| {}).unwrap();
                flows += tele.snapshot().counter("flows_dispatched").unwrap();
                rounds_run += tele.rounds();
            }
        }
        assert!(flows > 0 && rounds_run > 0);
        assert_eq!(swept.snapshot().counter("flows_dispatched"), Some(flows));
        assert_eq!(swept.rounds(), rounds_run);
    }

    #[test]
    fn streaming_knee_equals_legacy_knee() {
        let a = stable_intensity(PolicyKind::MaxCard, 5, 10, 3.0, 2, 17);
        let b = stable_intensity_legacy(PolicyKind::MaxCard, 5, 10, 3.0, 2, 17);
        assert_eq!(a, b);
    }
}
