//! Differential property tests: the engine's exact mode must reproduce
//! the legacy `fss_online::run_policy` loop **round-for-round** — equal
//! `Schedule`s, not merely equal metrics — for every policy kind, on
//! arbitrary unit instances. The incremental mode must dispatch a maximum
//! matching of its waiting graph every round.

use fss_core::prelude::*;
use fss_engine::{
    run, run_instance, BuiltinPolicy, EngineMode, EngineTelemetry, InstanceSource, Rule,
};
use fss_matching::{max_cardinality_matching, max_weight_matching, total_weight, BipartiteGraph};
use fss_online::weighted::GAMMA_DENOM;
use fss_online::{
    AgedMaxWeight, FifoGreedy, MaxCard, MaxWeight, MinRTime, OnlinePolicy, QueueState, WeightModel,
};
use proptest::prelude::*;

/// Strategy: a unit-demand instance on an `m x m` unit switch with
/// bursty conflicting arrivals (the regime where policies disagree most).
fn unit_instance() -> impl Strategy<Value = Instance> {
    (2usize..=6, 1usize..=40, 0u64..12).prop_flat_map(|(m, n, spread)| {
        let flow = (0..m as u32, 0..m as u32, 0u64..=spread);
        proptest::collection::vec(flow, n).prop_map(move |flows| {
            let mut b = InstanceBuilder::new(Switch::uniform(m, m, 1));
            for (s, d, r) in flows {
                b.unit_flow(s, d, r);
            }
            b.build().expect("generated instance is valid")
        })
    })
}

/// Strategy: an instance plus an arbitrary outage plan over its ports.
fn instance_and_plan() -> impl Strategy<Value = (Instance, FailurePlan)> {
    (
        unit_instance(),
        proptest::collection::vec((0u32..2, 0u32..6, 0u64..15, 1u64..12), 0..4),
    )
        .prop_map(|(inst, outages)| {
            let m = inst.switch.num_inputs() as u32;
            let plan = FailurePlan {
                outages: outages
                    .into_iter()
                    .map(|(side, port, from, len)| Outage {
                        side: if side == 0 {
                            PortSide::Input
                        } else {
                            PortSide::Output
                        },
                        port: port % m,
                        from,
                        to: from + len,
                    })
                    .collect(),
            };
            (inst, plan)
        })
}

/// Wraps an incremental weighted policy and cross-checks every round's
/// selection against the batch Hungarian oracle on the same waiting
/// graph: the selection must be a vertex-disjoint matching whose total
/// weight (under the policy's integer weight model) equals the
/// from-scratch optimum.
struct OracleChecked {
    inner: Box<dyn OnlinePolicy>,
    model: WeightModel,
    rounds_checked: u64,
}

impl OnlinePolicy for OracleChecked {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn choose(&mut self, state: &QueueState<'_>) -> Vec<usize> {
        let sel = self.inner.choose(state);
        let scale = (state.m_in.min(state.m_out) + 1) as i64;
        let in_q = state.in_queue_sizes();
        let out_q = state.out_queue_sizes();
        let weight_of = |k: usize| -> i64 {
            let w = &state.waiting[k];
            let age = (state.round - w.release) as i64;
            let q = i64::from(in_q[w.src as usize]) + i64::from(out_q[w.dst as usize]);
            match self.model {
                WeightModel::MinRTime => age * scale + 1,
                WeightModel::MaxWeight => q,
                WeightModel::AgedMaxWeight { gamma_q } => (q + 1) * GAMMA_DENOM + gamma_q * age,
            }
        };
        // Feasibility: vertex-disjoint within the selection.
        let mut used_in = vec![false; state.m_in];
        let mut used_out = vec![false; state.m_out];
        for &k in &sel {
            let w = &state.waiting[k];
            assert!(
                !used_in[w.src as usize] && !used_out[w.dst as usize],
                "round {}: selection is not a matching",
                state.round
            );
            used_in[w.src as usize] = true;
            used_out[w.dst as usize] = true;
        }
        // Weight parity with the batch Hungarian.
        let g = state.graph();
        let weights: Vec<f64> = (0..state.waiting.len())
            .map(|k| weight_of(k) as f64)
            .collect();
        let best = total_weight(&max_weight_matching(&g, &weights), &weights) as i64;
        let got: i64 = sel.iter().map(|&k| weight_of(k)).sum();
        assert_eq!(
            got, best,
            "round {}: incremental weight {} != batch optimum {}",
            state.round, got, best
        );
        self.rounds_checked += 1;
        sel
    }
}

/// The batch adapter with no outage plan and telemetry off.
fn engine(inst: &Instance, rule: Rule<'_>) -> Schedule {
    run_instance(inst, rule, None, &mut EngineTelemetry::disabled())
}

fn legacy(inst: &Instance, kind: BuiltinPolicy) -> Schedule {
    match kind {
        BuiltinPolicy::MaxCard => fss_online::run_policy(inst, &mut MaxCard::default()),
        BuiltinPolicy::MinRTime => fss_online::run_policy(inst, &mut MinRTime::default()),
        BuiltinPolicy::MaxWeight => fss_online::run_policy(inst, &mut MaxWeight::default()),
        BuiltinPolicy::FifoGreedy => fss_online::run_policy(inst, &mut FifoGreedy::default()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline differential property: engine ≡ legacy, per policy,
    /// per flow, per round.
    #[test]
    fn engine_schedules_equal_legacy_for_every_policy(inst in unit_instance()) {
        for kind in [
            BuiltinPolicy::MaxCard,
            BuiltinPolicy::MinRTime,
            BuiltinPolicy::MaxWeight,
            BuiltinPolicy::FifoGreedy,
        ] {
            let engine = engine(&inst, kind.into());
            let reference = legacy(&inst, kind);
            prop_assert_eq!(
                engine.rounds(), reference.rounds(),
                "policy {} diverged from the legacy loop", kind.name()
            );
        }
    }

    /// A stateful extension policy run through the generic engine path
    /// must also match the legacy loop (same policy code over the
    /// mirrored waiting state).
    #[test]
    fn engine_matches_legacy_for_extension_policies(inst in unit_instance()) {
        let e = engine(&inst, Rule::Policy(&mut AgedMaxWeight::new(1.5)));
        let l = fss_online::run_policy(&inst, &mut AgedMaxWeight::new(1.5));
        prop_assert_eq!(e, l);
    }

    /// Exact-parity of the incremental weighted matching, checked
    /// *inside* every round: across randomized dynamic
    /// arrival/dispatch/outage sequences the incremental policies'
    /// selections stay feasible matchings with total weight equal to the
    /// batch Hungarian's optimum on the same waiting graph (the batch
    /// path is the oracle, per cell weights of the integer models).
    #[test]
    fn weighted_selections_match_batch_hungarian_under_outages(
        (inst, plan) in instance_and_plan(),
    ) {
        for model in [
            WeightModel::MinRTime,
            WeightModel::MaxWeight,
            WeightModel::AgedMaxWeight { gamma_q: 1536 },
        ] {
            let mut checked = match model {
                WeightModel::MinRTime => OracleChecked {
                    inner: Box::new(MinRTime::default()),
                    model,
                    rounds_checked: 0,
                },
                WeightModel::MaxWeight => OracleChecked {
                    inner: Box::new(MaxWeight::default()),
                    model,
                    rounds_checked: 0,
                },
                WeightModel::AgedMaxWeight { .. } => OracleChecked {
                    inner: Box::new(AgedMaxWeight::new(1.5)),
                    model,
                    rounds_checked: 0,
                },
            };
            let stats = run(
                InstanceSource::new(&inst),
                Rule::Policy(&mut checked),
                Some(&plan),
                &mut EngineTelemetry::disabled(),
                |_, _, _| {},
            );
            prop_assert_eq!(stats.arrived, stats.dispatched, "stream must drain");
            prop_assert!(checked.rounds_checked > 0, "oracle never consulted");
        }
    }

    /// The fold seam: an empty outage plan routes every rule through
    /// the masked exact core (MinRTime/MaxWeight as their scan-driven
    /// twins), no plan through each rule's own core — and the two must
    /// produce the bit-identical dispatch sequence and stats.
    #[test]
    fn empty_plan_equals_no_plan_for_every_policy(inst in unit_instance()) {
        let empty = FailurePlan::default();
        for kind in [
            BuiltinPolicy::MaxCard,
            BuiltinPolicy::MinRTime,
            BuiltinPolicy::MaxWeight,
            BuiltinPolicy::FifoGreedy,
        ] {
            let at = |plan: Option<&FailurePlan>| {
                let mut dispatches = Vec::new();
                let stats = run(
                    InstanceSource::new(&inst),
                    kind.into(),
                    plan,
                    &mut EngineTelemetry::disabled(),
                    |id, release, round| dispatches.push((id, release, round)),
                );
                (stats, dispatches)
            };
            prop_assert_eq!(
                at(Some(&empty)), at(None),
                "policy {}: empty plan != no plan", kind.name()
            );
        }
    }

    /// The incremental matcher's defining property, replayed from the
    /// schedule: every round's dispatch set is a *maximum* matching of
    /// that round's waiting graph, and the schedule is feasible.
    #[test]
    fn incremental_mode_is_maximum_every_round(inst in unit_instance()) {
        let sched = engine(&inst, EngineMode::Incremental.into());
        prop_assert!(validate::check(&inst, &sched, &inst.switch).is_ok());
        let m = inst.switch.num_inputs();
        for t in 0..sched.makespan() {
            let mut g = BipartiteGraph::new(m, m);
            let mut dispatched = 0usize;
            let mut any = false;
            for (i, f) in inst.flows.iter().enumerate() {
                let run = sched.rounds()[i];
                if f.release <= t && run >= t {
                    g.add_edge(f.src, f.dst);
                    any = true;
                }
                if run == t {
                    dispatched += 1;
                }
            }
            if any {
                prop_assert_eq!(dispatched, max_cardinality_matching(&g).len(),
                    "round {} dispatch is not maximum", t);
            }
        }
    }
}
