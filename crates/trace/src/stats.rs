//! One-pass streaming trace statistics.
//!
//! Backs `flowsched trace stats FILE`: a single O(ports) pass
//! over an arbitrarily large trace producing the summary an operator
//! wants before committing a bench run to it — how many flows, over
//! how many rounds, how bursty (a [`LatencyHisto`] of per-round
//! arrival counts), and which ports run hot.

use std::path::Path;

use fss_telemetry::LatencyHisto;

use crate::line::TraceFileError;
use crate::stream::{scan_with, TraceSummary};

/// Everything one streaming pass learns about a trace.
#[derive(Debug, Clone)]
pub struct TraceStats {
    /// Header/flow/horizon summary (what [`crate::scan`] returns).
    pub summary: TraceSummary,
    /// Rounds with at least one arrival.
    pub active_rounds: u64,
    /// Log-bucketed histogram of arrivals per *active* round — the
    /// burstiness profile (p50/p99/max arrivals in a round).
    pub per_round: LatencyHisto,
    /// Arrivals per source port (length = ports).
    pub src_counts: Vec<u64>,
    /// Arrivals per destination port (length = ports).
    pub dst_counts: Vec<u64>,
}

impl TraceStats {
    /// Hottest source port as `(port, arrivals)`, ties to the lowest
    /// port; `None` for an arrival-free trace.
    pub fn busiest_src(&self) -> Option<(usize, u64)> {
        busiest(&self.src_counts)
    }

    /// Hottest destination port as `(port, arrivals)`.
    pub fn busiest_dst(&self) -> Option<(usize, u64)> {
        busiest(&self.dst_counts)
    }

    /// Mean arrivals per round over the whole horizon (the empirical
    /// Poisson rate a synthetic equivalent would need).
    pub fn mean_rate(&self) -> f64 {
        if self.summary.horizon == 0 {
            0.0
        } else {
            self.summary.flows as f64 / self.summary.horizon as f64
        }
    }
}

fn busiest(counts: &[u64]) -> Option<(usize, u64)> {
    counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(p, &c)| (p, c))
}

/// Compute [`TraceStats`] for a trace file in one streaming pass.
/// Memory is O(ports), independent of trace length. Any
/// validation failure is reported exactly as loading would report it.
pub fn scan_stats(path: impl AsRef<Path>) -> Result<TraceStats, TraceFileError> {
    let mut per_round = LatencyHisto::default();
    let mut src_counts: Vec<u64> = Vec::new();
    let mut dst_counts: Vec<u64> = Vec::new();
    let mut active_rounds = 0u64;
    let mut cur_round = 0u64;
    let mut cur_count = 0u64;
    let summary = scan_with(&path, |a| {
        let src = a.src as usize;
        let dst = a.dst as usize;
        if src >= src_counts.len() {
            src_counts.resize(src + 1, 0);
        }
        if dst >= dst_counts.len() {
            dst_counts.resize(dst + 1, 0);
        }
        src_counts[src] += 1;
        dst_counts[dst] += 1;
        if cur_count == 0 {
            cur_round = a.release;
            cur_count = 1;
            active_rounds = 1;
        } else if a.release == cur_round {
            cur_count += 1;
        } else {
            per_round.record(cur_count);
            cur_round = a.release;
            cur_count = 1;
            active_rounds += 1;
        }
    })?;
    if cur_count > 0 {
        per_round.record(cur_count);
    }
    // Port-count vectors span the declared switch, not just ports seen.
    src_counts.resize(summary.ports, 0);
    dst_counts.resize(summary.ports, 0);
    Ok(TraceStats {
        summary,
        active_rounds,
        per_round,
        src_counts,
        dst_counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(name: &str, text: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join("fss-trace-stats-tests");
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join(name);
        std::fs::write(&p, text).unwrap();
        p
    }

    #[test]
    fn one_pass_summarizes_rates_and_hot_ports() {
        let p = write(
            "stats.jsonl",
            "{\"ports\":4}\n\
             {\"release\":0,\"src\":1,\"dst\":2}\n\
             {\"release\":0,\"src\":1,\"dst\":3}\n\
             {\"release\":0,\"src\":1,\"dst\":2}\n\
             {\"release\":4,\"src\":0,\"dst\":2}\n",
        );
        let stats = scan_stats(&p).unwrap();
        assert_eq!(stats.summary.ports, 4);
        assert_eq!(stats.summary.flows, 4);
        assert_eq!(stats.summary.horizon, 5);
        assert_eq!(stats.active_rounds, 2);
        assert_eq!(stats.per_round.count(), 2, "two active rounds recorded");
        assert_eq!(stats.per_round.max(), 3, "round 0 had 3 arrivals");
        assert_eq!(stats.busiest_src(), Some((1, 3)));
        assert_eq!(stats.busiest_dst(), Some((2, 3)));
        assert_eq!(stats.src_counts, vec![1, 3, 0, 0]);
        assert_eq!(stats.dst_counts, vec![0, 0, 3, 1]);
        assert!((stats.mean_rate() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn empty_body_yields_zeroed_stats() {
        let p = write("empty.jsonl", "{\"ports\":3}\n");
        let stats = scan_stats(&p).unwrap();
        assert_eq!(stats.summary.flows, 0);
        assert_eq!(stats.active_rounds, 0);
        assert_eq!(stats.per_round.count(), 0);
        assert_eq!(stats.busiest_src(), None);
        assert_eq!(stats.mean_rate(), 0.0);
        assert_eq!(stats.src_counts.len(), 3);
    }

    #[test]
    fn validation_failures_surface_as_load_errors() {
        let p = write(
            "bad.jsonl",
            "{\"ports\":2}\n{\"release\":0,\"src\":0,\"dst\":1}\nnope\n",
        );
        assert!(matches!(
            scan_stats(&p),
            Err(TraceFileError::Parse { line: 3, .. })
        ));
    }
}
