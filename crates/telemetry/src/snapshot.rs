//! The serializable, mergeable export format.

use serde::{Deserialize, Serialize};

use crate::histo::HistoSnapshot;

/// Accumulated time of one round-loop stage (see
/// [`crate::Stage`] for the taxonomy).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageStat {
    /// Stage name (`ingest`, `queue_update`, `match_repair`,
    /// `dispatch`).
    pub stage: String,
    /// Total wall time spent in the stage, ns.
    pub total_ns: u64,
}

/// A frozen, serializable view of every metric a run produced.
///
/// Snapshots are what cross process boundaries: they ride in
/// `BENCH_*.json` cells (schema v3) and out of `flowsched telemetry
/// dump`. They merge associatively — counters and
/// stage totals add, gauges take the max, histograms merge bucketwise —
/// so per-cell snapshots roll up into run-level ones.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TelemetrySnapshot {
    /// Monotonic counters, `(name, value)`, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Point-in-time gauges, `(name, value)`; merge keeps the max.
    pub gauges: Vec<(String, u64)>,
    /// Per-stage wall-time totals.
    pub stages: Vec<StageStat>,
    /// Latency histograms, `(name, snapshot)`.
    pub histos: Vec<(String, HistoSnapshot)>,
}

impl TelemetrySnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        TelemetrySnapshot::default()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.stages.is_empty()
            && self.histos.is_empty()
    }

    /// Add `v` to counter `name` (creating it at 0).
    pub fn add_counter(&mut self, name: &str, v: u64) {
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, cur)) => *cur = cur.saturating_add(v),
            None => {
                self.counters.push((name.to_string(), v));
                self.counters.sort_by(|a, b| a.0.cmp(&b.0));
            }
        }
    }

    /// Raise gauge `name` to at least `v` (creating it).
    pub fn max_gauge(&mut self, name: &str, v: u64) {
        match self.gauges.iter_mut().find(|(n, _)| n == name) {
            Some((_, cur)) => *cur = (*cur).max(v),
            None => {
                self.gauges.push((name.to_string(), v));
                self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
            }
        }
    }

    /// Add `ns` to stage `name`'s total.
    pub fn add_stage_ns(&mut self, name: &str, ns: u64) {
        match self.stages.iter_mut().find(|s| s.stage == name) {
            Some(s) => s.total_ns = s.total_ns.saturating_add(ns),
            None => self.stages.push(StageStat {
                stage: name.to_string(),
                total_ns: ns,
            }),
        }
    }

    /// Merge histogram `h` into the histo named `name` (creating it).
    pub fn merge_histo(&mut self, name: &str, h: &HistoSnapshot) {
        match self.histos.iter_mut().find(|(n, _)| n == name) {
            Some((_, cur)) => cur.merge(h),
            None => {
                self.histos.push((name.to_string(), h.clone()));
                self.histos.sort_by(|a, b| a.0.cmp(&b.0));
            }
        }
    }

    /// Counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Stage total by name, ns.
    pub fn stage_ns(&self, name: &str) -> Option<u64> {
        self.stages
            .iter()
            .find(|s| s.stage == name)
            .map(|s| s.total_ns)
    }

    /// Histogram snapshot by name.
    pub fn histo(&self, name: &str) -> Option<&HistoSnapshot> {
        self.histos.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// The stage with the largest accumulated time, if any.
    pub fn slowest_stage(&self) -> Option<&StageStat> {
        self.stages.iter().max_by_key(|s| s.total_ns)
    }

    /// Fold `other` into `self`: counters and stage totals add, gauges
    /// keep the max, histograms merge bucketwise. Associative and
    /// commutative, so roll-ups are order-independent.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for (n, v) in &other.counters {
            self.add_counter(n, *v);
        }
        for (n, v) in &other.gauges {
            self.max_gauge(n, *v);
        }
        for s in &other.stages {
            self.add_stage_ns(&s.stage, s.total_ns);
        }
        for (n, h) in &other.histos {
            self.merge_histo(n, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LatencyHisto;

    #[test]
    fn merge_with_disjoint_stage_sets_is_total_not_intersecting() {
        // Worker A only ever entered ingest + match_repair; worker B
        // only queue_update + dispatch (say, it ran the shard threads).
        // The run-level merge must carry *every* stage either worker
        // saw, at its full total — not just the intersection.
        let mut a = TelemetrySnapshot::new();
        a.add_stage_ns("ingest", 100);
        a.add_stage_ns("match_repair", 40);
        let mut b = TelemetrySnapshot::new();
        b.add_stage_ns("queue_update", 70);
        b.add_stage_ns("dispatch", 25);

        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.stages.len(), 4, "union, not intersection");
        assert_eq!(merged.stage_ns("ingest"), Some(100));
        assert_eq!(merged.stage_ns("match_repair"), Some(40));
        assert_eq!(merged.stage_ns("queue_update"), Some(70));
        assert_eq!(merged.stage_ns("dispatch"), Some(25));

        // Merging the other way yields the same multiset of totals.
        let mut other = b.clone();
        other.merge(&a);
        for s in &merged.stages {
            assert_eq!(other.stage_ns(&s.stage), Some(s.total_ns));
        }

        // Partially-overlapping sets: shared stages add, exclusive
        // stages pass through.
        let mut c = TelemetrySnapshot::new();
        c.add_stage_ns("ingest", 1);
        c.add_stage_ns("dispatch", 2);
        merged.merge(&c);
        assert_eq!(merged.stage_ns("ingest"), Some(101));
        assert_eq!(merged.stage_ns("dispatch"), Some(27));
        assert_eq!(merged.stages.len(), 4);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = TelemetrySnapshot::new();
        a.add_counter("flows", 10);
        a.max_gauge("peak_queue_depth", 5);
        a.add_stage_ns("ingest", 100);
        let mut h = LatencyHisto::new();
        h.record(7);
        a.merge_histo("decision_latency_ns", &h.snapshot());

        let mut b = TelemetrySnapshot::new();
        b.add_counter("flows", 3);
        b.add_counter("rounds", 2);
        b.max_gauge("peak_queue_depth", 2);
        b.add_stage_ns("ingest", 50);
        b.add_stage_ns("dispatch", 25);

        a.merge(&b);
        assert_eq!(a.counter("flows"), Some(13));
        assert_eq!(a.counter("rounds"), Some(2));
        assert_eq!(a.gauge("peak_queue_depth"), Some(5));
        assert_eq!(a.stage_ns("ingest"), Some(150));
        assert_eq!(a.stage_ns("dispatch"), Some(25));
        assert_eq!(a.histo("decision_latency_ns").unwrap().count, 1);
    }

    #[test]
    fn slowest_stage_is_argmax() {
        let mut s = TelemetrySnapshot::new();
        s.add_stage_ns("ingest", 10);
        s.add_stage_ns("match_repair", 99);
        s.add_stage_ns("dispatch", 5);
        assert_eq!(s.slowest_stage().unwrap().stage, "match_repair");
    }
}
