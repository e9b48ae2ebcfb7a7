//! Failure injection: port outages during online execution.
//!
//! Datacenter ports fail and recover; a scheduler built on per-round
//! matchings adapts naturally by excluding dead ports from the waiting
//! graph. The plan types ([`Outage`], [`FailurePlan`]) live in `fss-core`
//! and are re-exported here; execution streams through the engine's
//! round loop with the plan as a port mask ([`fss_engine::run`]), so
//! scenario runs never materialize their workload. The reference the
//! streaming path is differentially tested against is the batch loop,
//! [`fss_online::run_policy_under`] with the same plan.

use fss_core::prelude::*;
use fss_engine::{EngineTelemetry, Rule};
use fss_online::OnlinePolicy;

pub use fss_core::{FailurePlan, Outage};

/// Run `policy` online while injecting the outage plan. Flows incident on
/// a dead port are hidden from the policy for the affected rounds; all
/// flows still complete (every outage ends). Unit capacities and demands,
/// like the base runner.
///
/// Streams the instance through the engine under the plan; the
/// schedule is round-for-round identical to
/// [`fss_online::run_policy_under`]'s.
pub fn run_policy_with_failures(
    inst: &Instance,
    policy: &mut dyn OnlinePolicy,
    plan: &FailurePlan,
) -> Schedule {
    fss_engine::run_instance(
        inst,
        Rule::Policy(policy),
        Some(plan),
        &mut EngineTelemetry::disabled(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fss_core::gen::{random_instance, GenParams};
    use fss_online::{MaxCard, MinRTime};
    use rand::{rngs::SmallRng, SeedableRng};

    fn outage(side: PortSide, port: u32, from: u64, to: u64) -> Outage {
        Outage {
            side,
            port,
            from,
            to,
        }
    }

    #[test]
    fn no_failures_matches_plain_runner() {
        let mut rng = SmallRng::seed_from_u64(61);
        let inst = random_instance(&mut rng, &GenParams::unit(4, 20, 5));
        let plain = fss_online::run_policy(&inst, &mut MaxCard::default());
        let with =
            run_policy_with_failures(&inst, &mut MaxCard::default(), &FailurePlan::default());
        assert_eq!(plain, with);
    }

    #[test]
    fn streaming_matches_legacy_runner() {
        let mut rng = SmallRng::seed_from_u64(64);
        for _ in 0..6 {
            let inst = random_instance(&mut rng, &GenParams::unit(4, 25, 6));
            let plan = FailurePlan {
                outages: vec![
                    outage(PortSide::Input, 0, 0, 7),
                    outage(PortSide::Output, 2, 3, 9),
                ],
            };
            let streamed = run_policy_with_failures(&inst, &mut MinRTime::default(), &plan);
            let legacy = fss_online::run_policy_under(&inst, &mut MinRTime::default(), Some(&plan));
            assert_eq!(streamed, legacy);
        }
    }

    #[test]
    fn nothing_scheduled_across_a_dead_port() {
        let mut rng = SmallRng::seed_from_u64(62);
        let inst = random_instance(&mut rng, &GenParams::unit(3, 15, 2));
        let plan = FailurePlan {
            outages: vec![outage(PortSide::Input, 0, 0, 6)],
        };
        let sched = run_policy_with_failures(&inst, &mut MinRTime::default(), &plan);
        for (i, f) in inst.flows.iter().enumerate() {
            let t = sched.rounds()[i];
            assert!(
                plan.is_up(PortSide::Input, f.src, t) && plan.is_up(PortSide::Output, f.dst, t),
                "flow {i} crossed a dead port at round {t}"
            );
        }
        validate::check(&inst, &sched, &inst.switch).unwrap();
    }

    #[test]
    fn all_flows_complete_after_recovery() {
        // Input 0 down for a long window; its flows complete afterwards.
        let mut b = InstanceBuilder::new(Switch::uniform(2, 2, 1));
        b.unit_flow(0, 0, 0);
        b.unit_flow(0, 1, 0);
        b.unit_flow(1, 1, 0);
        let inst = b.build().unwrap();
        let plan = FailurePlan {
            outages: vec![outage(PortSide::Input, 0, 0, 10)],
        };
        let sched = run_policy_with_failures(&inst, &mut MaxCard::default(), &plan);
        assert!(sched.rounds()[0] >= 10);
        assert!(sched.rounds()[1] >= 10);
        assert_eq!(sched.rounds()[2], 0, "unaffected flow proceeds normally");
    }

    #[test]
    fn total_outage_still_terminates() {
        // Every port down for the first 4 rounds.
        let mut b = InstanceBuilder::new(Switch::uniform(2, 2, 1));
        b.unit_flow(0, 0, 0);
        b.unit_flow(1, 1, 0);
        let inst = b.build().unwrap();
        let outages = (0..2)
            .flat_map(|p| {
                [
                    outage(PortSide::Input, p, 0, 4),
                    outage(PortSide::Output, p, 0, 4),
                ]
            })
            .collect();
        let plan = FailurePlan { outages };
        let sched = run_policy_with_failures(&inst, &mut MaxCard::default(), &plan);
        assert!(sched.rounds().iter().all(|&t| t >= 4));
        validate::check(&inst, &sched, &inst.switch).unwrap();
    }

    #[test]
    fn failures_increase_response_times() {
        let mut rng = SmallRng::seed_from_u64(63);
        let inst = random_instance(&mut rng, &GenParams::unit(3, 18, 3));
        let base = fss_core::metrics::evaluate(
            &inst,
            &fss_online::run_policy(&inst, &mut MaxCard::default()),
        );
        let plan = FailurePlan {
            outages: vec![
                outage(PortSide::Input, 0, 0, 8),
                outage(PortSide::Output, 2, 2, 9),
            ],
        };
        let degraded = fss_core::metrics::evaluate(
            &inst,
            &run_policy_with_failures(&inst, &mut MaxCard::default(), &plan),
        );
        assert!(degraded.total_response >= base.total_response);
    }
}
