//! Sample statistics: nearest-rank percentiles, the tail a sample supports,
//! quartiles as the acceptance driver computes them, and the per-workload
//! repetition statistic.

/// Nearest-rank percentile of an ascending-sorted sample (NaN if empty).
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` in a sample of `len`.
fn rank(len: usize, p: f64) -> usize {
    ((p / 100.0 * len as f64).ceil() as usize).clamp(1, len)
}

/// Tail percentiles a report may quote, lowest first.
pub const TAIL_CANDIDATES: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest tail percentile that still has at least ten samples beyond
/// it, so that the value quoted is not set by a handful of outliers. `None`
/// when even p75 is not supported (fewer than 40 samples).
#[must_use]
pub fn supported_tail(len: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rfind(|&p| len > 0 && len - rank(len, p) >= 10)
}

/// A sample sorted ascending (total order; NaN last).
#[must_use]
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// First quartile, median and third quartile with the exclusive method of
/// Python's `statistics.quantiles(values, n=4)`, which is what the
/// acceptance driver uses. A single value is its own three quartiles.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values.to_vec());
    let n = v.len();
    match n {
        0 => [f64::NAN; 3],
        1 => [v[0]; 3],
        _ => [1usize, 2, 3].map(|i| {
            // Position i*(n+1)/4 on a 1-based scale, linearly interpolated
            // (and, like Python, extrapolated when the sample is tiny).
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
            v[j - 1] + (v[j] - v[j - 1]) * delta
        }),
    }
}

/// Median of a sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (rates).
    Higher,
    /// Smaller is better (times, bytes, counts of work).
    Lower,
}

impl Better {
    /// Parse the `better` field of `BENCHMARK.json`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

/// The best of per-repetition values: the highest rate, the lowest time.
/// This machine is noisy at the one-second scale and the noise is one-sided
/// (interference only ever slows the program down), so the benchmark reports
/// floors — the fastest the same work was seen to run — never averages. This
/// is the floor at the grain of a whole repetition; `run::Floor` and
/// `run::PhaseTotals::floor_ms` take it at the grain of one `poll` and one
/// latency sample wherever repetitions repeat the same work.
#[must_use]
pub fn best(values: &[f64], better: Better) -> f64 {
    let it = values.iter().copied();
    match better {
        Better::Higher => it.fold(f64::NAN, f64::max),
        Better::Lower => it.fold(f64::NAN, f64::min),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        // 5 samples: p50 is the 3rd, p90 the 5th.
        let w = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&w, 50.0), 3.0);
        assert_eq!(percentile(&w, 90.0), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1 600 samples: p99 has 16 beyond, p99.9 only 1.
        assert_eq!(supported_tail(1600), Some(99.0));
        // 1 000 samples: p99 has exactly 10 beyond.
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(999), Some(95.0));
        // 112 samples (16 instances x 7 nodes): p90 has 11 beyond, p95 5.
        assert_eq!(supported_tail(112), Some(90.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(99), Some(75.0));
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(20_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert!((q[0] - 2.75).abs() < 1e-12 && (q[1] - 5.5).abs() < 1e-12);
        assert!((q[2] - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let q = quartiles(&[3.0, 1.0]);
        assert_eq!(q, [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn best_respects_direction() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(best(&v, Better::Higher), 3.0);
        assert_eq!(best(&v, Better::Lower), 1.0);
        assert!(best(&[], Better::Lower).is_nan());
    }
}
