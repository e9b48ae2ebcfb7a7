//! Log2-bucketed latency histogram: fixed storage, mergeable, quantile
//! estimation with a bucket-width error bound.

use serde::{Deserialize, Serialize};

/// Number of buckets in a [`LatencyHisto`]. Bucket `0` holds the value
/// `0`; bucket `i` (for `1 <= i < 63`) holds values whose bit length is
/// `i`, i.e. `[2^(i-1), 2^i)`; bucket `63` holds everything from `2^62`
/// up to `u64::MAX`.
pub const HISTO_BUCKETS: usize = 64;

/// A log2-bucketed histogram over `u64` samples (nanoseconds by
/// convention).
///
/// All storage is a fixed `[u64; 64]` array: recording is an index
/// computation plus an increment, with no allocation and no atomics —
/// the histogram is owned behind a `&mut` handle on the hot path.
/// Histograms merge elementwise, so per-worker or per-cell histograms
/// aggregate into run-level ones without losing quantile fidelity.
///
/// Quantile estimates return the upper bound of the bucket containing
/// the requested rank, clamped to the observed maximum. Since a bucket
/// spans at most one octave, the estimate `e` of an exact quantile `x`
/// satisfies `x <= e < 2·max(x, 1)` for samples below `2^62`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHisto {
    buckets: [u64; HISTO_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHisto {
    fn default() -> Self {
        LatencyHisto::new()
    }
}

/// Bucket index for a sample (see [`HISTO_BUCKETS`]).
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HISTO_BUCKETS - 1)
    }
}

/// Inclusive lower bound of bucket `i`.
fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Inclusive upper bound of bucket `i`.
fn bucket_hi(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i == HISTO_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl LatencyHisto {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHisto {
            buckets: [0; HISTO_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) as the upper bound of
    /// the bucket containing rank `ceil(q·count)`, clamped to the
    /// observed maximum. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum = cum.saturating_add(c);
            if cum >= rank {
                return bucket_hi(i).min(self.max);
            }
        }
        self.max
    }

    /// Inclusive `[lo, hi]` range of the bucket containing the
    /// `q`-quantile rank; the exact quantile is guaranteed to lie in
    /// this range. Returns `(0, 0)` on an empty histogram.
    pub fn quantile_bounds(&self, q: f64) -> (u64, u64) {
        if self.count == 0 {
            return (0, 0);
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum = cum.saturating_add(c);
            if cum >= rank {
                return (bucket_lo(i), bucket_hi(i));
            }
        }
        (self.min(), self.max)
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Fold another histogram into this one (elementwise; associative
    /// and commutative).
    pub fn merge(&mut self, other: &LatencyHisto) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Freeze into the serializable snapshot form.
    pub fn snapshot(&self) -> HistoSnapshot {
        let mut buckets = self.buckets.to_vec();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        HistoSnapshot {
            count: self.count,
            sum_ns: self.sum,
            min_ns: self.min(),
            max_ns: self.max,
            p50_ns: self.p50(),
            p90_ns: self.p90(),
            p99_ns: self.p99(),
            buckets,
        }
    }

    /// Rebuild a histogram from a snapshot (quantile fields are
    /// recomputed from the buckets; min/max are restored exactly).
    pub fn from_snapshot(s: &HistoSnapshot) -> LatencyHisto {
        let mut h = LatencyHisto::new();
        for (i, &c) in s.buckets.iter().take(HISTO_BUCKETS).enumerate() {
            h.buckets[i] = c;
        }
        h.count = s.count;
        h.sum = s.sum_ns;
        h.min = if s.count == 0 { u64::MAX } else { s.min_ns };
        h.max = s.max_ns;
        h
    }
}

/// Serialized form of a [`LatencyHisto`]: summary statistics,
/// pre-computed quantile estimates, and the bucket counts (trailing
/// zero buckets trimmed).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistoSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of samples, ns.
    pub sum_ns: u64,
    /// Minimum sample, ns (0 when empty).
    pub min_ns: u64,
    /// Maximum sample, ns.
    pub max_ns: u64,
    /// Median estimate, ns.
    pub p50_ns: u64,
    /// 90th-percentile estimate, ns.
    pub p90_ns: u64,
    /// 99th-percentile estimate, ns.
    pub p99_ns: u64,
    /// Per-bucket counts, trailing zeros trimmed (see [`HISTO_BUCKETS`]).
    pub buckets: Vec<u64>,
}

impl HistoSnapshot {
    /// An empty snapshot.
    pub fn empty() -> Self {
        LatencyHisto::new().snapshot()
    }

    /// Merge another snapshot into this one (rebuilds through the
    /// histogram form so quantile estimates stay consistent).
    pub fn merge(&mut self, other: &HistoSnapshot) {
        let mut h = LatencyHisto::from_snapshot(self);
        h.merge(&LatencyHisto::from_snapshot(other));
        *self = h.snapshot();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 63);
        for i in 0..HISTO_BUCKETS {
            assert_eq!(bucket_of(bucket_lo(i)), i);
            assert_eq!(bucket_of(bucket_hi(i)), i);
        }
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let mut h = LatencyHisto::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        // Exact p50 is 50 (bucket [32,63]); the estimate is the bucket
        // upper bound.
        let p50 = h.p50();
        assert!((50..=100).contains(&p50), "p50 estimate {p50}");
        assert!(h.p99() >= 99);
        assert_eq!(h.max(), 100);
        assert_eq!(h.min(), 1);
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = LatencyHisto::new();
        let mut b = LatencyHisto::new();
        let mut c = LatencyHisto::new();
        for v in [3u64, 9, 120, 4096, 0, 77] {
            a.record(v);
            c.record(v);
        }
        for v in [1u64, 2, 1_000_000] {
            b.record(v);
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a, c);
    }

    #[test]
    fn snapshot_round_trip() {
        let mut h = LatencyHisto::new();
        for v in [5u64, 17, 17, 300, 12_345] {
            h.record(v);
        }
        let s = h.snapshot();
        let back = LatencyHisto::from_snapshot(&s);
        assert_eq!(back, h);
        assert_eq!(back.snapshot(), s);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = LatencyHisto::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.snapshot().buckets, Vec::<u64>::new());
    }
}
