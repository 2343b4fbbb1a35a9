//! Timing summaries: a median plus the highest percentile that still has
//! at least [`MIN_BEYOND`] samples beyond it, with the sample count.
//!
//! A tail percentile drawn from too few samples is just the maximum
//! (eight jobs give a "p99" that is the slowest job), so a percentile is
//! only reported when enough samples lie above it.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried for the tail, highest first.
pub const LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 75.0];

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The fewest samples that leave [`MIN_BEYOND`] beyond percentile `p`.
#[must_use]
pub fn min_samples(p: f64) -> usize {
    (1..).find(|&n| beyond(n, p) >= MIN_BEYOND).unwrap_or(usize::MAX)
}

/// The nearest-rank `p`-th percentile of `samples`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if beyond(samples.len(), p) < MIN_BEYOND {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank(s.len(), p) - 1])
}

/// The median (mean of the middle pair for an even count); `None` for
/// no samples.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Median and best-supported tail of one timing population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// The median.
    pub median: f64,
    /// `(percentile, value)` of the highest [`LADDER`] rung with at
    /// least [`MIN_BEYOND`] samples beyond it, if any.
    pub tail: Option<(f64, f64)>,
}

/// Summarizes `samples`; `None` for no samples.
#[must_use]
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let median = median(samples)?;
    let tail = LADDER.iter().find_map(|&p| percentile(samples, p).map(|v| (p, v)));
    Some(Summary { n: samples.len(), median, tail })
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "median {:.4} over {} samples", self.median, self.n)?;
        match self.tail {
            Some((p, v)) => write!(f, ", p{p} {v:.4} ({} beyond)", beyond(self.n, p)),
            None => write!(f, ", no tail percentile has {MIN_BEYOND} samples beyond it"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 1000 samples: rank 990, ten beyond — reportable.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        // 999 samples: rank 990, nine beyond — not reportable.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(min_samples(99.0), 1000);
    }

    #[test]
    fn p90_boundary_is_one_hundred() {
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(min_samples(90.0), 100);
        assert_eq!(min_samples(75.0), 40);
    }

    #[test]
    fn summary_picks_the_highest_supported_rung() {
        let s = summarize(&ramp(1000)).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.median, 500.5);
        assert_eq!(s.tail, Some((99.0, 990.0)));
        let s = summarize(&ramp(999)).unwrap();
        assert_eq!(s.tail, Some((90.0, 900.0)));
        let s = summarize(&ramp(10)).unwrap();
        assert_eq!(s.tail, None, "ten samples support no tail at all");
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let mut v = ramp(200);
        v.reverse();
        assert_eq!(percentile(&v, 90.0), Some(180.0));
        assert_eq!(median(&v), Some(100.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
