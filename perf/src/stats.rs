//! Order statistics. Timing noise on a shared host is one-sided (a run is
//! only ever slowed down), so the harness reports the across-repetition
//! *lower quartile* of every timing and records the median and the
//! interquartile distance beside it as the spread.

/// `(q1, median, q3)` by the rule of Python's
/// `statistics.quantiles(v, n=4)` (the "exclusive" method), so spreads
/// computed here and by an outside script agree digit for digit.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    assert!(!v.is_empty(), "quartiles of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len();
    if m == 1 {
        return (s[0], s[0], s[0]);
    }
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Nearest-rank percentile (`p` in `0..=1`) of an unsorted sample; sorts
/// in place.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of an empty sample");
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// One across-repetition summary: the reported estimate plus its spread.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Lower quartile (the fast side).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Interquartile distance as a share of the median.
    pub iqr_share: f64,
    /// Repetitions summarised.
    pub n: usize,
}

/// Summarise one value per repetition.
pub fn summarize(values: impl IntoIterator<Item = f64>) -> Summary {
    let v: Vec<f64> = values.into_iter().collect();
    let (q1, median, q3) = quartiles(&v);
    let iqr_share = if median != 0.0 {
        (q3 - q1) / median.abs()
    } else {
        0.0
    };
    Summary {
        q1,
        median,
        iqr_share,
        n: v.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut [7.0], 0.99), 7.0);
    }
}
