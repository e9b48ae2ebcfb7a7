//! The round loop. The paper's model is one sentence — "in each round, a
//! subset of edges can be scheduled subject to the capacity of each
//! port" — and every §5 heuristic is that same round with a different
//! matching rule. `drive` is the round, once; a `RoundCore` is the rule:
//! the exact-parity core ([`crate::exact`], optionally masked by a
//! [`FailurePlan`]), exact MaxCard over a waiting graph carried across
//! rounds ([`crate::maxcard`]), the incremental support-graph matcher
//! (`IncrementalRound`) and the incremental weighted matcher
//! (`WeightedRound`).
//!
//! The clock is event-style, so sparse workloads cost time proportional
//! to their *events*, not their horizon: the next round is `t + 1` while
//! flows are waiting, else the pending arrival's release, else — when
//! every waiting flow sits on a dead port — the next outage end.

use crate::exact::{ExactRound, Selector};
use crate::matcher::IncrementalMatcher;
use crate::maxcard::MaxCardRound;
use crate::queue::ShardedQueues;
use crate::source::{Arrival, FlowSource};
use crate::wmatcher::IncrementalWeightedMatcher;
use crate::{BuiltinPolicy, EngineMode, Rule};
use fss_core::FailurePlan;
use fss_online::weighted::GAMMA_DENOM;
use fss_online::{AgedMaxWeight, FifoGreedy, MaxWeight, MinRTime, OnlinePolicy, WeightModel};
use fss_telemetry::{span, EngineTelemetry, Stage};

/// Aggregate statistics of one engine run (streaming-friendly: `O(1)`
/// memory, updated at dispatch time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Flows ingested from the source.
    pub arrived: u64,
    /// Flows dispatched (equals `arrived` after a drained bounded run).
    pub dispatched: u64,
    /// Sum of response times `rho_e = (round + 1) - release`.
    pub total_response: u128,
    /// Largest response time.
    pub max_response: u64,
    /// One past the last dispatch round.
    pub makespan: u64,
    /// Rounds in which at least one flow was dispatched (the event loop
    /// never visits idle rounds, so this is also the rounds *simulated*,
    /// up to empty-selection rounds of degenerate custom policies).
    pub active_rounds: u64,
    /// Largest waiting-queue length observed at a round boundary.
    pub peak_queue: usize,
}

impl StreamStats {
    /// Mean response time over dispatched flows (0 when none).
    pub fn mean_response(&self) -> f64 {
        if self.dispatched == 0 {
            0.0
        } else {
            self.total_response as f64 / self.dispatched as f64
        }
    }

    fn on_dispatch(&mut self, release: u64, round: u64) {
        let rho = round + 1 - release;
        self.dispatched += 1;
        self.total_response += u128::from(rho);
        self.max_response = self.max_response.max(rho);
        self.makespan = round + 1;
    }
}

/// What [`drive`] asks of a matching rule: hold the waiting flows, pick
/// one round's matching, hand the picked flows back. Always a generic
/// parameter (static dispatch) — the per-flow path never goes through
/// `dyn`.
pub(crate) trait RoundCore {
    /// Enqueue a released flow (arrivals come in `(release, id)` order).
    fn push(&mut self, a: Arrival);

    /// Flows waiting.
    fn backlog(&self) -> usize;

    /// Called once per round, before [`RoundCore::select`]: `Some(r)`
    /// when every waiting flow sits on a dead port and none can come
    /// back up before round `r`. Only a core running under a
    /// [`FailurePlan`] ever blocks.
    fn blocked_until(&mut self, _t: u64, _tele: &mut EngineTelemetry) -> Option<u64> {
        None
    }

    /// Choose round `t`'s matching (timed as the round's decision).
    fn select(&mut self, t: u64);

    /// Dequeue the chosen flows, calling `emit(id, release)` once per
    /// flow in dispatch order; returns how many were dispatched.
    fn dispatch(&mut self, emit: impl FnMut(u64, u64)) -> usize;

    /// Fold the round's departures back into the matching state.
    fn retire(&mut self);

    /// Report the rule's lifetime work counters.
    fn finish(&self, _tele: &mut EngineTelemetry) {}
}

/// The one round loop: advance the clock, ingest the round's arrivals,
/// select, dispatch, retire. `on_dispatch(id, release, round)` fires
/// once per flow, in dispatch order.
pub(crate) fn drive<S: FlowSource, C: RoundCore>(
    mut source: S,
    mut core: C,
    tele: &mut EngineTelemetry,
    mut on_dispatch: impl FnMut(u64, u64, u64),
) -> StreamStats {
    let mut stats = StreamStats::default();
    let mut pending = source.next_arrival();
    let mut t = pending.map_or(0, |a| a.release);
    while pending.is_some() || core.backlog() > 0 {
        tele.flight_round(t);
        // Ingest every arrival released by round `t` (the clock may have
        // jumped over several release rounds while a dead window passed).
        span!(tele, Stage::Ingest, {
            while let Some(a) = pending {
                if a.release > t {
                    break;
                }
                core.push(a);
                stats.arrived += 1;
                pending = source.next_arrival();
                debug_assert!(
                    pending.is_none_or(|n| n.release >= a.release),
                    "FlowSource contract: releases must be nondecreasing"
                );
            }
        });
        stats.peak_queue = stats.peak_queue.max(core.backlog());
        if let Some(resume) = core.blocked_until(t, tele) {
            // Nothing can change until an outage ends or an arrival
            // lands, so jump straight there. The reference loop ticks
            // through these rounds one by one doing nothing; skipping
            // them leaves schedules identical while bounding dead-window
            // traversal by the *number* of outages, not their length (an
            // untrusted scenario file may declare absurdly long windows).
            t = pending.map_or(resume, |a| resume.min(a.release));
            continue;
        }
        tele.decision(|| core.select(t));
        let dispatched = span!(tele, Stage::Dispatch, {
            core.dispatch(|id, release| {
                stats.on_dispatch(release, t);
                on_dispatch(id, release, t);
            })
        });
        if dispatched > 0 {
            stats.active_rounds += 1;
        }
        span!(tele, Stage::QueueUpdate, core.retire());
        tele.round();
        // Next round: `t + 1` while flows wait, else the pending release
        // (with neither, the loop condition ends the run).
        t = if core.backlog() > 0 {
            t + 1
        } else {
            pending.map_or(t, |a| a.release)
        };
    }
    core.finish(tele);
    tele.flight_round_finish();
    tele.counter_add("flows_arrived", stats.arrived);
    tele.counter_add("flows_dispatched", stats.dispatched);
    tele.counter_add("active_rounds", stats.active_rounds);
    tele.gauge_max("peak_queue_depth", stats.peak_queue as u64);
    stats
}

/// The incremental rule: maintains the support-graph maximum matching
/// across rounds ([`crate::matcher`]) and dispatches the oldest flow of
/// each matched cell. Every round's dispatch set is a *maximum* matching
/// of that round's waiting graph — the MaxCard equivalence class. A
/// specific MaxCard run may break ties between equally maximum
/// matchings differently, after which the two trajectories legitimately
/// diverge. The matcher breaks them towards the cell of a row that has
/// been occupied longest (oldest support edge first, then FIFO within
/// the cell), which is what keeps the maximum response time down.
struct IncrementalRound {
    m_in: u32,
    queues: ShardedQueues,
    matcher: IncrementalMatcher,
    /// Cells drained by this round's dispatch.
    emptied: Vec<(u32, u32)>,
}

impl RoundCore for IncrementalRound {
    fn push(&mut self, a: Arrival) {
        if self.queues.push(a.src, a.dst, a.id, a.release) {
            self.matcher.add_support_edge(a.src, a.dst);
        }
    }

    fn backlog(&self) -> usize {
        self.queues.len()
    }

    fn select(&mut self, _t: u64) {
        // Repair only chases ports dirtied since the last round; in the
        // saturated steady state it is a no-op.
        self.matcher.repair();
        debug_assert!(
            self.matcher.size() > 0,
            "nonempty support must match something"
        );
    }

    fn dispatch(&mut self, mut emit: impl FnMut(u64, u64)) -> usize {
        let Self {
            m_in,
            queues,
            matcher,
            emptied,
        } = self;
        let matched = (0..*m_in).filter_map(|p| Some((p, matcher.matched_output(p)?)));
        queues.pop_heads(matched, |p, q, rec, now_empty| {
            emit(rec.id().into(), rec.release());
            if now_empty {
                emptied.push((p, q));
            }
        });
        matcher.size()
    }

    fn retire(&mut self) {
        for (p, q) in self.emptied.drain(..) {
            self.matcher.remove_support_edge(p, q);
        }
    }

    fn finish(&self, tele: &mut EngineTelemetry) {
        let work = self.matcher.work();
        tele.counter_add("match_searches", work.searches);
        tele.counter_add("match_augmentations", work.augmentations);
        tele.counter_add("match_steps", work.steps);
        tele.counter_add("match_stamp_reads", work.stamp_reads);
        tele.gauge_max("queue_slab_bytes", self.queues.slab_bytes());
    }
}

/// The weighted rule: the MinRTime/MaxWeight fast path. Maintains the
/// maximum-weight matching of the cell graph across rounds with
/// [`IncrementalWeightedMatcher`] — duals and assignment carry over;
/// only cells dirtied by arrivals and dispatches are re-solved.
/// Schedules are round-for-round identical to the reference
/// `fss_online::run_policy` loop with the same (incremental) policy: the
/// matcher applies the exact canonical update sequence the scan-driven
/// policy applies, and within a cell both dispatch the queue-FIFO head,
/// the flow with the smallest `(release, id)`.
struct WeightedRound {
    queues: ShardedQueues,
    matcher: IncrementalWeightedMatcher,
    /// This round's matched `(input, output)` cells.
    sel: Vec<(u32, u32)>,
}

impl RoundCore for WeightedRound {
    fn push(&mut self, a: Arrival) {
        self.queues.push(a.src, a.dst, a.id, a.release);
        self.matcher.note(a.src, a.dst);
    }

    fn backlog(&self) -> usize {
        self.queues.len()
    }

    fn select(&mut self, t: u64) {
        self.matcher.select(t, &self.queues, &mut self.sel);
        debug_assert!(!self.sel.is_empty(), "nonempty queue must match something");
    }

    fn dispatch(&mut self, mut emit: impl FnMut(u64, u64)) -> usize {
        let sel = self.sel.iter().copied();
        self.queues
            .pop_heads(sel, |_, _, rec, _| emit(rec.id().into(), rec.release()));
        self.sel.len()
    }

    fn retire(&mut self) {
        for &(p, q) in &self.sel {
            self.matcher.note(p, q);
        }
    }

    fn finish(&self, tele: &mut EngineTelemetry) {
        let (selects, cells_touched, solver) = self.matcher.work();
        tele.counter_add("wmatch_selects", selects);
        tele.counter_add("wmatch_cells_touched", cells_touched);
        tele.counter_add("wmatch_insertions", solver.insertions);
        tele.counter_add("wmatch_root_sweeps", solver.root_sweeps);
        tele.counter_add("wmatch_rows_relaxed", solver.rows_relaxed);
        tele.counter_add("wmatch_positive_steps", solver.positive_steps);
        tele.gauge_max("queue_slab_bytes", self.queues.slab_bytes());
    }
}

/// Drive a [`FlowSource`] (bounded or endless) under `rule` on the
/// calling thread and return the aggregate statistics;
/// `on_dispatch(id, release, round)` fires once per flow, in dispatch
/// order. Memory stays `O(peak queue)` regardless of stream length.
///
/// * `failures` takes ports down and back up: flows incident on a dead
///   port are hidden from the rule for the affected rounds, and
///   schedules are round-for-round identical to the reference batch failure
///   runner's. [`EngineMode::Incremental`] does not model outages and
///   panics if given a plan. The queue-backed matchers read cell
///   aggregates, which cannot hide a flow behind a dead port, so under a
///   plan the weighted rules run as their scan-driven `fss_online` twins
///   over the masked exact core — schedule-identical by the differential
///   suites.
/// * `tele` records per-stage timings and the per-round decision-latency
///   histogram. It observes, never steers, and a handle built with
///   [`EngineTelemetry::disabled`] reduces every instrumentation point
///   to one branch.
pub fn run<S: FlowSource>(
    source: S,
    rule: Rule<'_>,
    failures: Option<&FailurePlan>,
    tele: &mut EngineTelemetry,
    on_dispatch: impl FnMut(u64, u64, u64),
) -> StreamStats {
    let (m_in, m_out) = (source.m_in(), source.m_out());
    let model = match &rule {
        Rule::Weighted(model) => Some(*model),
        Rule::Mode(EngineMode::Exact(b)) => b.weight_model(),
        Rule::Mode(EngineMode::Incremental) | Rule::Policy(_) => None,
    };
    let mut fifo = FifoGreedy::default();
    let mut twin: Box<dyn OnlinePolicy>;
    let selector = match (rule, model, failures) {
        (Rule::Mode(EngineMode::Incremental), ..) => {
            assert!(
                failures.is_none(),
                "the incremental matcher does not model outages; run an exact mode under a FailurePlan"
            );
            let core = IncrementalRound {
                m_in: m_in as u32,
                queues: ShardedQueues::new(m_in, m_out),
                matcher: IncrementalMatcher::new(m_in, m_out),
                emptied: Vec::new(),
            };
            return drive(source, core, tele, on_dispatch);
        }
        (_, Some(model), None) => {
            let core = WeightedRound {
                queues: ShardedQueues::new(m_in, m_out),
                matcher: IncrementalWeightedMatcher::new(model, m_in, m_out),
                sel: Vec::new(),
            };
            return drive(source, core, tele, on_dispatch);
        }
        (_, Some(model), Some(_)) => {
            twin = match model {
                WeightModel::MinRTime => Box::new(MinRTime::default()),
                WeightModel::MaxWeight => Box::new(MaxWeight::default()),
                WeightModel::AgedMaxWeight { gamma_q } => {
                    Box::new(AgedMaxWeight::new(gamma_q as f64 / GAMMA_DENOM as f64))
                }
            };
            Selector::Policy(twin.as_mut())
        }
        (Rule::Policy(policy), None, _) => Selector::Policy(policy),
        (Rule::Mode(EngineMode::Exact(BuiltinPolicy::MaxCard)), None, None) => {
            return drive(source, MaxCardRound::new(m_in, m_out), tele, on_dispatch);
        }
        (Rule::Mode(EngineMode::Exact(BuiltinPolicy::MaxCard)), None, Some(_)) => Selector::MaxCard,
        (Rule::Mode(EngineMode::Exact(_)), None, _) => Selector::Policy(&mut fifo),
        (Rule::Weighted(_), None, _) => unreachable!("a weighted rule carries its model"),
    };
    let core = ExactRound::new(m_in, m_out, selector, failures, model.is_some());
    drive(source, core, tele, on_dispatch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::PoissonSource;
    use crate::MAX_FLOW_ID;
    use fss_core::{Outage, PortSide};

    /// `run` with telemetry off, checking the drained-stream
    /// invariants on the way: no flow before its release, none twice.
    fn drain<S: FlowSource>(
        source: S,
        rule: Rule<'_>,
        plan: Option<&FailurePlan>,
        mut each: impl FnMut(u64, u64),
    ) -> StreamStats {
        let mut seen = std::collections::HashSet::new();
        let stats = run(
            source,
            rule,
            plan,
            &mut EngineTelemetry::disabled(),
            |id, release, round| {
                assert!(round >= release, "dispatch before release");
                assert!(seen.insert(id), "flow {id} dispatched twice");
                each(id, round);
            },
        );
        assert_eq!(stats.dispatched as usize, seen.len());
        stats
    }

    #[test]
    fn weighted_drains_a_poisson_stream() {
        for model in [WeightModel::MinRTime, WeightModel::MaxWeight] {
            let source = PoissonSource::new(9, 7.0, Some(25), 3);
            let stats = drain(source, Rule::Weighted(model), None, |_, _| {});
            assert_eq!(stats.arrived, stats.dispatched);
        }
    }

    #[test]
    fn incremental_drains_a_poisson_stream() {
        let source = PoissonSource::new(10, 8.0, Some(30), 5);
        let stats = drain(source, EngineMode::Incremental.into(), None, |_, _| {});
        assert_eq!(stats.arrived, stats.dispatched);
        assert!(stats.max_response >= 1);
        assert!(stats.mean_response() >= 1.0);
    }

    /// The slab grows to the peak queue and no further, under both
    /// queue-backed rules: replaying a run's arrivals and dispatch log
    /// through a fresh [`ShardedQueues`] (the round's arrivals, then its
    /// departures, as `drive` orders them) pops each dispatched flow as
    /// its cell's oldest, ends with one slot per flow of the peak queue,
    /// and holds the bytes the run reported.
    #[test]
    fn the_slab_high_water_is_the_peak_queue() {
        let (m, rate, rounds, seed) = (12, 18.0, 400, 7);
        for rule in [
            Rule::Mode(EngineMode::Incremental),
            Rule::Weighted(WeightModel::MinRTime),
        ] {
            let mut source = PoissonSource::new(m, rate, Some(rounds), seed);
            let arrivals: Vec<Arrival> = std::iter::from_fn(|| source.next_arrival()).collect();
            let mut tele = EngineTelemetry::enabled();
            let mut log = Vec::new();
            let source = PoissonSource::new(m, rate, Some(rounds), seed);
            let stats = run(source, rule, None, &mut tele, |id, _, round| {
                log.push((id, round))
            });
            let mut queues = ShardedQueues::new(m, m);
            let mut next = arrivals.iter().peekable();
            for (id, round) in log {
                while let Some(a) = next.next_if(|a| a.release <= round) {
                    queues.push(a.src, a.dst, a.id, a.release);
                }
                let a = arrivals[id as usize];
                assert_eq!(u64::from(queues.pop_oldest(a.src, a.dst).0.id()), id);
            }
            assert!(stats.peak_queue > 1024, "the run must open a second chunk");
            assert_eq!(queues.slots(), stats.peak_queue);
            let bytes = tele.snapshot().gauge("queue_slab_bytes");
            assert_eq!(bytes, Some(queues.slab_bytes()));
        }
    }

    /// A fixed list of arrivals on a 2x2 switch.
    struct Fixed(std::vec::IntoIter<Arrival>);

    impl Fixed {
        fn new(flows: &[(u32, u32, u64)]) -> Fixed {
            let arrivals: Vec<Arrival> = flows
                .iter()
                .enumerate()
                .map(|(id, &(src, dst, release))| Arrival {
                    id: id as u64,
                    src,
                    dst,
                    release,
                })
                .collect();
            Fixed(arrivals.into_iter())
        }
    }

    impl FlowSource for Fixed {
        fn m_in(&self) -> usize {
            2
        }
        fn m_out(&self) -> usize {
            2
        }
        fn next_arrival(&mut self) -> Option<Arrival> {
            self.0.next()
        }
    }

    #[test]
    fn stats_track_makespan_and_rounds() {
        // Two flows on the same cell, released at 0 and 100: the clock
        // must skip the idle gap (2 active rounds, makespan 101).
        let source = Fixed::new(&[(0, 0, 0), (0, 0, 100)]);
        let stats = drain(source, EngineMode::Incremental.into(), None, |_, _| {});
        assert_eq!(stats.dispatched, 2);
        assert_eq!(stats.active_rounds, 2);
        assert_eq!(stats.makespan, 101);
        assert_eq!(stats.max_response, 1);
    }

    fn outage(side: PortSide, port: u32, from: u64, to: u64) -> Outage {
        Outage {
            side,
            port,
            from,
            to,
        }
    }

    #[test]
    fn drains_a_poisson_stream_under_outages() {
        let source = PoissonSource::new(6, 4.0, Some(20), 77);
        let plan = FailurePlan {
            outages: vec![
                outage(PortSide::Input, 0, 0, 8),
                outage(PortSide::Output, 3, 5, 12),
            ],
        };
        let rule = BuiltinPolicy::MaxCard.into();
        let stats = drain(source, rule, Some(&plan), |_, _| {});
        assert_eq!(stats.arrived, stats.dispatched);
    }

    #[test]
    fn dead_ports_are_never_crossed() {
        let source = PoissonSource::new(4, 3.0, Some(15), 5);
        let plan = FailurePlan {
            outages: vec![outage(PortSide::Input, 1, 2, 9)],
        };
        // Re-create the same arrivals to map ids to ports.
        let mut probe = PoissonSource::new(4, 3.0, Some(15), 5);
        let mut srcs = Vec::new();
        while let Some(a) = probe.next_arrival() {
            srcs.push(a.src);
        }
        let rule = BuiltinPolicy::MaxCard.into();
        drain(source, rule, Some(&plan), |id, round| {
            let src = srcs[id as usize];
            assert!(
                plan.is_up(PortSide::Input, src, round),
                "flow {id} crossed dead input {src} at round {round}"
            );
        });
    }

    #[test]
    fn huge_outage_windows_are_jumped_not_ticked() {
        // One flow on a port that is dead for ~1e15 rounds: the clock
        // must jump to the recovery round instead of ticking through the
        // window (which would effectively hang).
        let recovery = 1_000_000_000_000_000u64;
        let plan = FailurePlan {
            outages: vec![outage(PortSide::Input, 0, 0, recovery)],
        };
        let mut dispatched_at = None;
        let stats = drain(
            Fixed::new(&[(0, 0, 0)]),
            BuiltinPolicy::MaxCard.into(),
            Some(&plan),
            |_, round| dispatched_at = Some(round),
        );
        assert_eq!(dispatched_at, Some(recovery));
        assert_eq!(stats.dispatched, 1);
        assert_eq!(stats.makespan, recovery + 1);
    }

    /// `run` on two flows, ids `u32::MAX` and 2^32, both released at 0.
    fn run_past_the_id_bound(rule: Rule<'_>, plan: Option<&FailurePlan>) {
        let arrivals = [MAX_FLOW_ID, MAX_FLOW_ID + 1].map(|id| Arrival {
            id,
            src: 0,
            dst: 0,
            release: 0,
        });
        run(
            Fixed(Vec::from(arrivals).into_iter()),
            rule,
            plan,
            &mut EngineTelemetry::disabled(),
            |_, _, _| {},
        );
    }

    #[test]
    #[should_panic(expected = "past 4294967295, the largest id the engine addresses")]
    fn an_id_past_u32_ends_a_masked_exact_run() {
        let plan = FailurePlan::default();
        run_past_the_id_bound(BuiltinPolicy::MaxCard.into(), Some(&plan));
    }

    #[test]
    #[should_panic(expected = "flow id 4294967296 is past 4294967295")]
    fn an_id_past_u32_ends_an_incremental_run() {
        run_past_the_id_bound(EngineMode::Incremental.into(), None);
    }

    #[test]
    #[should_panic(expected = "flow id 4294967296 is past 4294967295")]
    fn an_id_past_u32_ends_a_weighted_run() {
        run_past_the_id_bound(Rule::Weighted(WeightModel::MinRTime), None);
    }

    #[test]
    fn empty_source_is_a_noop() {
        let source = PoissonSource::new(3, 0.0, Some(10), 1);
        let stats = drain(
            source,
            BuiltinPolicy::MaxCard.into(),
            Some(&FailurePlan::default()),
            |_, _| panic!("nothing to dispatch"),
        );
        assert_eq!(stats, StreamStats::default());
    }
}
