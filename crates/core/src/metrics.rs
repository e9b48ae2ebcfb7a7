//! Response-time metrics: the FS-ART and FS-MRT objectives.

use serde::{Deserialize, Serialize};

use crate::instance::Instance;
use crate::schedule::Schedule;

/// Aggregate response-time statistics of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResponseMetrics {
    /// `sum_e rho_e` — the FS-ART objective (before dividing by `n`).
    pub total_response: u64,
    /// `max_e rho_e` — the FS-MRT objective.
    pub max_response: u64,
    /// `total_response / n` (0 for empty instances).
    pub mean_response: f64,
    /// Number of flows.
    pub n: usize,
    /// One past the last used round.
    pub makespan: u64,
}

/// Compute all metrics of `sched` on `inst`.
///
/// Panics if the schedule length does not match the instance (use
/// [`crate::validate::check`] first for untrusted schedules) or if a flow is
/// scheduled before its release round, which would make its response time
/// meaningless.
pub fn evaluate(inst: &Instance, sched: &Schedule) -> ResponseMetrics {
    assert_eq!(
        inst.n(),
        sched.len(),
        "schedule covers {} flows, instance has {}",
        sched.len(),
        inst.n()
    );
    let mut total = 0u64;
    let mut max = 0u64;
    for (f, &t) in inst.flows.iter().zip(sched.rounds()) {
        assert!(
            t >= f.release,
            "flow scheduled at {t} before its release {r}",
            r = f.release
        );
        let rho = t + 1 - f.release;
        total += rho;
        max = max.max(rho);
    }
    let n = inst.n();
    ResponseMetrics {
        total_response: total,
        max_response: max,
        mean_response: if n == 0 { 0.0 } else { total as f64 / n as f64 },
        n,
        makespan: sched.makespan(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::switch::Switch;

    fn inst() -> Instance {
        let mut b = InstanceBuilder::new(Switch::uniform(2, 2, 1));
        b.unit_flow(0, 0, 0);
        b.unit_flow(1, 1, 0);
        b.unit_flow(0, 1, 2);
        b.build().unwrap()
    }

    #[test]
    fn metrics_on_simple_schedule() {
        let i = inst();
        let s = Schedule::from_rounds(vec![0, 0, 3]);
        let m = evaluate(&i, &s);
        assert_eq!(m.total_response, 1 + 1 + 2);
        assert_eq!(m.max_response, 2);
        assert_eq!(m.n, 3);
        assert!((m.mean_response - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.makespan, 4);
    }

    #[test]
    fn empty_instance_metrics() {
        let i = InstanceBuilder::new(Switch::uniform(1, 1, 1))
            .build()
            .unwrap();
        let m = evaluate(&i, &Schedule::from_rounds(vec![]));
        assert_eq!(m.total_response, 0);
        assert_eq!(m.max_response, 0);
        assert_eq!(m.mean_response, 0.0);
    }

    #[test]
    #[should_panic(expected = "before its release")]
    fn early_schedule_panics() {
        let i = inst();
        let s = Schedule::from_rounds(vec![0, 0, 1]); // flow 2 released at 2
        let _ = evaluate(&i, &s);
    }

    #[test]
    #[should_panic(expected = "schedule covers")]
    fn length_mismatch_panics() {
        let i = inst();
        let _ = evaluate(&i, &Schedule::from_rounds(vec![0]));
    }
}
