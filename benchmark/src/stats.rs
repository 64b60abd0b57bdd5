//! Order statistics under the benchmark's sample-count rule.
//!
//! A tail percentile is only printed when at least ten samples lie beyond
//! it (p90 needs 100 samples, p99 needs 1000); below that it is refused, so
//! no report ever carries a p99 that is really the maximum of 80 samples.

use std::time::Duration;

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Samples that must lie beyond a tail percentile before it is reported.
const BEYOND: f64 = 10.0;

/// The `q`-quantile of `values` (linear interpolation between closest
/// ranks), or `None` when the sample is empty or, for a tail quantile
/// (`q > 0.5`), holds fewer than ten samples beyond it.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || (q > 0.5 && (n as f64) * (1.0 - q) < BEYOND - 1e-9) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median (never refused for a non-empty sample).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// The highest of p99 and p90 that the sample supports, with its label.
pub fn tail(values: &[f64]) -> Option<(&'static str, f64)> {
    percentile(values, 0.99)
        .map(|v| ("p99", v))
        .or_else(|| percentile(values, 0.9).map(|v| ("p90", v)))
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method),
/// so spreads read the same here and in any external check.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert!(percentile(&ramp(100), 0.9).is_some());
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert!(percentile(&ramp(1000), 0.99).is_some());
        assert_eq!(tail(&ramp(500)).map(|t| t.0), Some("p90"));
        assert_eq!(tail(&ramp(1000)).map(|t| t.0), Some("p99"));
        assert_eq!(tail(&ramp(50)), None);
    }

    #[test]
    fn median_is_never_refused() {
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&ramp(3)), Some((1.0, 3.0)));
        assert_eq!(spread(&[10.0, 10.0, 10.0, 10.0]), Some(0.0));
    }
}
