//! Execution traces: per-round records of what a policy scheduled.
//!
//! A [`Trace`] captures, round by round, the set of flows dispatched and
//! the queue length left behind — enough to replay and re-validate a run,
//! feed external plotting, or diff two policies on the same workload.
//! Serialized as JSON lines (one [`TraceRound`] per line) so long traces
//! stream without loading whole files.

use fss_core::prelude::*;
use fss_online::{OnlinePolicy, QueueState};
use serde::{Deserialize, Serialize};

/// One round of execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRound {
    /// Round index.
    pub round: u64,
    /// Flow ids dispatched this round.
    pub dispatched: Vec<u32>,
    /// Flows still waiting after dispatch.
    pub queue_after: u32,
}

/// A complete run: the per-round records plus the resulting schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Policy name that produced the trace.
    pub policy: String,
    /// Per-round records (rounds with an empty queue are omitted).
    pub rounds: Vec<TraceRound>,
}

impl Trace {
    /// Reconstruct the flow-level schedule encoded by the trace. Traces
    /// sit behind user-facing file-loading paths, so malformed input — a
    /// flow out of range, dispatched twice, or never dispatched — is
    /// reported as a [`TraceError`] rather than a panic.
    pub fn to_schedule(&self, n: usize) -> Result<Schedule, TraceError> {
        let mut rounds = vec![u64::MAX; n];
        for r in &self.rounds {
            for &f in &r.dispatched {
                if f as usize >= n {
                    return Err(TraceError::FlowOutOfRange { flow: f, n });
                }
                if rounds[f as usize] != u64::MAX {
                    return Err(TraceError::DuplicateDispatch {
                        flow: f,
                        first: rounds[f as usize],
                        second: r.round,
                    });
                }
                rounds[f as usize] = r.round;
            }
        }
        if let Some(flow) = rounds.iter().position(|&t| t == u64::MAX) {
            return Err(TraceError::MissingFlow { flow: flow as u32 });
        }
        Ok(Schedule::from_rounds(rounds))
    }

    /// Encode as JSON lines (header line with the policy, then one line
    /// per round).
    pub fn to_jsonl(&self) -> String {
        let mut out = format!("{{\"policy\":{:?}}}\n", self.policy);
        for r in &self.rounds {
            out.push_str(&serde_json::to_string(r).expect("serializable"));
            out.push('\n');
        }
        out
    }

    /// Decode from the JSON-lines form.
    pub fn from_jsonl(text: &str) -> Result<Trace, serde_json::Error> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        #[derive(Deserialize)]
        struct Header {
            policy: String,
        }
        let header: Header = serde_json::from_str(lines.next().unwrap_or("{}"))?;
        let mut rounds = Vec::new();
        for line in lines {
            rounds.push(serde_json::from_str(line)?);
        }
        Ok(Trace {
            policy: header.policy,
            rounds,
        })
    }
}

/// A policy that makes `inner`'s choices and writes each one down.
struct Recording<'a, P> {
    inner: &'a mut P,
    rounds: Vec<TraceRound>,
}

impl<P: OnlinePolicy> OnlinePolicy for Recording<'_, P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn choose(&mut self, state: &QueueState<'_>) -> Vec<usize> {
        // The runner dispatches the sorted, deduplicated selection.
        let mut selection = self.inner.choose(state);
        selection.sort_unstable();
        selection.dedup();
        self.rounds.push(TraceRound {
            round: state.round,
            dispatched: selection.iter().map(|&k| state.waiting[k].id.0).collect(),
            queue_after: (state.waiting.len() - selection.len()) as u32,
        });
        selection
    }
}

/// Run `policy` over `inst` through [`fss_online::run_policy`], recording
/// a [`Trace`] alongside the schedule.
pub fn run_policy_traced<P: OnlinePolicy>(inst: &Instance, policy: &mut P) -> (Schedule, Trace) {
    let mut recording = Recording {
        inner: policy,
        rounds: Vec::new(),
    };
    let schedule = fss_online::run_policy(inst, &mut recording);
    let trace = Trace {
        policy: recording.name().to_string(),
        rounds: recording.rounds,
    };
    (schedule, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fss_core::gen::{random_instance, GenParams};
    use fss_online::{MaxCard, MinRTime};
    use rand::{rngs::SmallRng, SeedableRng};

    fn inst() -> Instance {
        let mut rng = SmallRng::seed_from_u64(12);
        random_instance(&mut rng, &GenParams::unit(4, 20, 5))
    }

    #[test]
    fn trace_matches_untraced_run() {
        let inst = inst();
        let (sched, trace) = run_policy_traced(&inst, &mut MaxCard::default());
        let plain = fss_online::run_policy(&inst, &mut MaxCard::default());
        assert_eq!(sched, plain, "tracing must not change decisions");
        assert_eq!(trace.policy, "MaxCard");
        assert_eq!(trace.to_schedule(inst.n()).unwrap(), sched);
    }

    #[test]
    fn jsonl_round_trip() {
        let inst = inst();
        let (_, trace) = run_policy_traced(&inst, &mut MinRTime::default());
        let text = trace.to_jsonl();
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn queue_after_decreases_to_zero() {
        let inst = inst();
        let (_, trace) = run_policy_traced(&inst, &mut MaxCard::default());
        assert_eq!(trace.rounds.last().unwrap().queue_after, 0);
    }

    #[test]
    fn replayed_schedule_is_feasible() {
        let inst = inst();
        let (sched, trace) = run_policy_traced(&inst, &mut MaxCard::default());
        let replayed = trace.to_schedule(inst.n()).unwrap();
        validate::check(&inst, &replayed, &inst.switch).unwrap();
        assert_eq!(replayed, sched);
    }

    #[test]
    fn duplicate_dispatch_detected() {
        let trace = Trace {
            policy: "bogus".into(),
            rounds: vec![
                TraceRound {
                    round: 0,
                    dispatched: vec![0],
                    queue_after: 0,
                },
                TraceRound {
                    round: 1,
                    dispatched: vec![0],
                    queue_after: 0,
                },
            ],
        };
        assert_eq!(
            trace.to_schedule(1),
            Err(TraceError::DuplicateDispatch {
                flow: 0,
                first: 0,
                second: 1
            })
        );
    }

    #[test]
    fn out_of_range_and_missing_flows_detected() {
        let trace = Trace {
            policy: "bogus".into(),
            rounds: vec![TraceRound {
                round: 0,
                dispatched: vec![5],
                queue_after: 0,
            }],
        };
        assert_eq!(
            trace.to_schedule(2),
            Err(TraceError::FlowOutOfRange { flow: 5, n: 2 })
        );
        let trace = Trace {
            policy: "bogus".into(),
            rounds: vec![TraceRound {
                round: 0,
                dispatched: vec![0],
                queue_after: 0,
            }],
        };
        assert_eq!(
            trace.to_schedule(2),
            Err(TraceError::MissingFlow { flow: 1 })
        );
    }
}
