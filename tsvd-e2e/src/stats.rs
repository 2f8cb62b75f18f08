//! Order statistics for the benchmark's timings: nearest-rank percentiles,
//! the tail rule (highest percentile with at least ten samples beyond it),
//! and the quartile spread the repeatability check is stated in.

/// Sort a sample in place, ascending. Timings are never NaN.
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
}

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `p · n` samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an ascending sample (mean of the two middle values when even).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Median of an unsorted sample.
pub fn median_of(mut xs: Vec<f64>) -> f64 {
    sort(&mut xs);
    median(&xs)
}

/// Candidate tail percentiles, ascending.
const TAILS: [f64; 4] = [0.90, 0.95, 0.99, 0.999];

/// How many samples lie strictly beyond the nearest-rank `p` percentile.
fn beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest percentile in [`TAILS`] that still has at least ten samples
/// beyond it — the highest tail a sample of size `n` can support. `None`
/// below 100 samples, where not even p90 qualifies.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS.iter().rev().copied().find(|&p| beyond(n, p) >= 10)
}

/// `(first quartile, third quartile)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method) gives
/// them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut xs = values.to_vec();
    sort(&mut xs);
    let ld = xs.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the first and the third quartile as a share of the
/// median — the run-to-run spread the regression bounds are compared with.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median_of(values.to_vec());
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(median(&[1.0, 2.0, 10.0]), 2.0);
    }

    /// The sample-count rule: a percentile is reported only with at least
    /// ten samples beyond it, and the highest such percentile wins.
    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(10), None);
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(199), Some(0.90));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(9_999), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
        for n in [100usize, 200, 1000, 10_000, 12_345] {
            let p = supported_tail(n).unwrap();
            assert!(beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    /// Reference values from CPython: `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(quartiles(&v), (2.75, 8.25));
        let w = [10.0, 1.0, 4.0, 3.0];
        assert_eq!(quartiles(&w), (1.5, 8.5));
        assert_eq!(quartiles(&[2.0, 4.0]), (1.5, 4.5));
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }
}
