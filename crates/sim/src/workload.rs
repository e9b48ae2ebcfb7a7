//! Poisson flow workloads (paper §5.2.1).
//!
//! For each round `t < T`, `Poisson(M)` unit flows arrive, each with a
//! uniformly random input and output port. `M = m` means one new flow per
//! port per round on average; the paper stresses the switch up to `M = 4m`.

use fss_core::prelude::*;
use rand::Rng;

/// Parameters of the paper's workload generator.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadParams {
    /// Square switch size (`m x m`, unit capacities).
    pub m: usize,
    /// Mean arrivals per round (`M` in the paper).
    pub mean_arrivals: f64,
    /// Number of arrival rounds (`T` in the paper).
    pub rounds: u64,
}

/// Sample `Poisson(lambda)`.
///
/// Knuth's product method is exact but underflows for large `lambda`, so
/// the sampler splits large rates into `<= 30` chunks and sums — Poisson
/// additivity keeps the result exactly distributed. Re-exported from
/// `fss-engine` (the canonical implementation) so the batch workload
/// generator and the streaming `PoissonSource` draw from the same code.
pub use fss_engine::poisson;

/// Generate a workload instance: `Poisson(M)` uniform unit flows per round.
pub fn poisson_workload<R: Rng + ?Sized>(rng: &mut R, p: &WorkloadParams) -> Instance {
    let mut b = InstanceBuilder::new(Switch::uniform(p.m, p.m, 1));
    for t in 0..p.rounds {
        let k = poisson(rng, p.mean_arrivals);
        for _ in 0..k {
            let src = rng.gen_range(0..p.m as u32);
            let dst = rng.gen_range(0..p.m as u32);
            b.unit_flow(src, dst, t);
        }
    }
    b.build().expect("workload respects model invariants")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn poisson_mean_is_close_small_lambda() {
        let mut rng = SmallRng::seed_from_u64(1);
        let lambda = 3.5;
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| poisson(&mut rng, lambda) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - lambda).abs() < 0.1, "sample mean {mean}");
    }

    #[test]
    fn poisson_mean_is_close_large_lambda() {
        let mut rng = SmallRng::seed_from_u64(2);
        let lambda = 600.0;
        let n = 3_000;
        let mean: f64 = (0..n)
            .map(|_| poisson(&mut rng, lambda) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - lambda).abs() < 5.0, "sample mean {mean}");
        // Variance of Poisson equals the mean.
        let var: f64 = (0..n)
            .map(|_| {
                let x = poisson(&mut rng, lambda) as f64;
                (x - lambda) * (x - lambda)
            })
            .sum::<f64>()
            / n as f64;
        assert!((var - lambda).abs() < 60.0, "sample variance {var}");
    }

    #[test]
    fn poisson_chunked_mean_and_variance_across_boundary() {
        // The sampler switches from single-shot Knuth to chunked sums
        // above lambda = 30; rates just above the boundary exercise the
        // 2-chunk split (lambda / 2 per chunk) and must keep both moments
        // of the distribution (mean = variance = lambda, by additivity of
        // independent Poissons).
        for &lambda in &[30.5, 31.0, 45.0, 60.0, 61.0] {
            let mut rng = SmallRng::seed_from_u64(f64::to_bits(lambda));
            let n = 12_000;
            let samples: Vec<f64> = (0..n).map(|_| poisson(&mut rng, lambda) as f64).collect();
            let mean = samples.iter().sum::<f64>() / n as f64;
            let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
            // Std error of the mean is sqrt(lambda/n) < 0.08; allow 6 sigma.
            assert!(
                (mean - lambda).abs() < 0.5,
                "lambda {lambda}: sample mean {mean}"
            );
            // Var(sample variance) ~ 2*lambda^2/n: generous 10% band.
            assert!(
                (var - lambda).abs() < 0.1 * lambda + 1.0,
                "lambda {lambda}: sample variance {var}"
            );
        }
    }

    #[test]
    fn poisson_zero_rate() {
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn workload_shape() {
        let mut rng = SmallRng::seed_from_u64(4);
        let p = WorkloadParams {
            m: 10,
            mean_arrivals: 5.0,
            rounds: 20,
        };
        let inst = poisson_workload(&mut rng, &p);
        assert!(inst.is_unit_demand());
        assert!(inst.switch.is_unit_capacity());
        assert_eq!(inst.switch.num_inputs(), 10);
        assert!(inst.max_release() < 20);
        // ~100 flows expected; allow wide slack.
        assert!(inst.n() > 40 && inst.n() < 220, "n = {}", inst.n());
    }

    #[test]
    fn workloads_reproducible_by_seed() {
        let p = WorkloadParams {
            m: 6,
            mean_arrivals: 3.0,
            rounds: 10,
        };
        let a = poisson_workload(&mut SmallRng::seed_from_u64(9), &p);
        let b = poisson_workload(&mut SmallRng::seed_from_u64(9), &p);
        assert_eq!(a, b);
    }
}
