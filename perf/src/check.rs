//! The verification pass: is a dispatch log a valid schedule of the
//! arrivals it was offered, and is it the schedule the reference run
//! produced? A flow that is missing, doubled, early, or sharing a port
//! counts as failed; so does every position where two logs disagree.

use crate::surface::Arrival;

/// One `on_dispatch(id, release, round)` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// Flow id (dense: the index into the arrival list).
    pub id: u64,
    /// Release round the engine reported.
    pub release: u64,
    /// Round the flow left the switch.
    pub round: u64,
}

/// What a check found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Flows (or log positions) that failed.
    pub failed: u64,
    /// The first few failures, for the error message.
    pub problems: Vec<String>,
}

impl Verdict {
    fn note(&mut self, what: impl FnOnce() -> String) {
        if self.problems.len() < 5 {
            self.problems.push(what());
        }
    }

    /// Count one failure and keep its description if it is among the first.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.fail_many(1, what);
    }

    /// Count `n` failures that share one description.
    pub fn fail_many(&mut self, n: u64, what: impl FnOnce() -> String) {
        self.failed += n;
        self.note(what);
    }

    /// Fold another check's findings into this one.
    pub fn absorb(&mut self, other: Verdict) {
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.problems.truncate(5);
    }
}

/// Check `log` (in dispatch order) against the arrivals on an `m x m`
/// unit-capacity switch: every flow exactly once, never before its
/// release, and no input or output port used twice in a round.
pub fn check_schedule(m: usize, arrivals: &[Arrival], log: &[Dispatch]) -> Verdict {
    let mut v = Verdict::default();
    let mut seen = vec![0u8; arrivals.len()];
    let mut bad = vec![false; arrivals.len()];
    // Round (+1) in which each port was last used.
    let mut in_used = vec![0u64; m];
    let mut out_used = vec![0u64; m];
    let mut prev_round = 0;
    for d in log {
        let Some(a) = arrivals.get(d.id as usize) else {
            v.fail(|| format!("flow {} was never offered", d.id));
            continue;
        };
        let i = d.id as usize;
        seen[i] = seen[i].saturating_add(1);
        if d.release != a.release || d.round < a.release {
            bad[i] = true;
            v.note(|| {
                format!(
                    "flow {i} released {} dispatched in round {} as released {}",
                    a.release, d.round, d.release
                )
            });
        }
        if d.round < prev_round {
            bad[i] = true;
            v.note(|| format!("flow {i}: round {} after {prev_round}", d.round));
        }
        prev_round = prev_round.max(d.round);
        let stamp = d.round + 1;
        if in_used[a.src as usize] == stamp || out_used[a.dst as usize] == stamp {
            bad[i] = true;
            v.note(|| {
                format!(
                    "flow {i}: port {}->{} used twice in round {}",
                    a.src, a.dst, d.round
                )
            });
        }
        in_used[a.src as usize] = stamp;
        out_used[a.dst as usize] = stamp;
    }
    for (i, (&n, &b)) in seen.iter().zip(&bad).enumerate() {
        if n != 1 {
            v.fail(|| format!("flow {i} dispatched {n} times"));
        } else if b {
            v.failed += 1;
        }
    }
    v
}

/// Positions at which two sequences disagree (a length difference counts
/// once per missing position).
pub fn check_equal<T: PartialEq + std::fmt::Debug>(what: &str, got: &[T], want: &[T]) -> Verdict {
    let mut v = Verdict::default();
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g != w {
            v.fail(|| format!("{what}: position {i} is {g:?}, reference says {w:?}"));
        }
    }
    let (short, long) = (got.len().min(want.len()), got.len().max(want.len()));
    if short != long {
        v.failed += (long - short) as u64;
        v.note(|| {
            format!(
                "{what}: {} entries, reference has {}",
                got.len(),
                want.len()
            )
        });
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrival(id: u64, src: u32, dst: u32, release: u64) -> Arrival {
        Arrival {
            id,
            src,
            dst,
            release,
        }
    }

    fn sent(id: u64, release: u64, round: u64) -> Dispatch {
        Dispatch { id, release, round }
    }

    fn arrivals() -> Vec<Arrival> {
        vec![
            arrival(0, 0, 0, 0),
            arrival(1, 1, 1, 0),
            arrival(2, 0, 1, 0),
            arrival(3, 2, 2, 1),
        ]
    }

    #[test]
    fn a_valid_schedule_passes() {
        let log = [sent(0, 0, 0), sent(1, 0, 0), sent(2, 0, 1), sent(3, 1, 1)];
        let v = check_schedule(3, &arrivals(), &log);
        assert_eq!(v.failed, 0, "{:?}", v.problems);
    }

    #[test]
    fn a_doubled_port_and_a_missing_flow_are_caught() {
        // Flow 2 shares input port 0 with flow 0 in round 0; flow 3 never
        // leaves.
        let log = [sent(0, 0, 0), sent(1, 0, 0), sent(2, 0, 0)];
        let v = check_schedule(3, &arrivals(), &log);
        assert_eq!(v.failed, 2, "{:?}", v.problems);
        assert!(v.problems.iter().any(|p| p.contains("used twice")));
        assert!(v.problems.iter().any(|p| p.contains("flow 3 dispatched 0")));
    }

    #[test]
    fn early_doubled_and_unknown_flows_are_caught() {
        let log = [
            sent(0, 0, 0),
            sent(0, 0, 1),
            sent(1, 0, 0),
            sent(2, 0, 2),
            sent(3, 1, 0),
            sent(9, 0, 3),
        ];
        let v = check_schedule(3, &arrivals(), &log);
        // Flow 0 twice, flow 1 out of order, flow 3 early, flow 9 unknown.
        assert_eq!(v.failed, 4, "{:?}", v.problems);
    }

    #[test]
    fn logs_that_differ_are_counted_by_position() {
        let a = [sent(0, 0, 0), sent(1, 0, 0), sent(2, 0, 1)];
        let b = [sent(0, 0, 0), sent(2, 0, 0)];
        assert_eq!(check_equal("log", &a, &a).failed, 0);
        assert_eq!(check_equal("log", &a, &b).failed, 2);
    }
}
