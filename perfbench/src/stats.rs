//! Order statistics for the benchmark's timings and latencies.

/// Sorted copy of `xs` (total order, so NaN cannot scramble it).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" rule of Python's
/// `statistics.quantiles(xs, n=4)`, which the benchmark's spread check
/// uses. A single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let v = sorted(xs);
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let m = v.len() + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Linearly interpolated quantile `q ∈ [0, 1]` of sorted integer samples
/// (the "type 7" rule: position `q·(n−1)`). Fractional on purpose: two
/// seeds whose latency distributions differ show different values even
/// when the order statistics are whole rounds.
pub fn quantile_sorted(v: &[u64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] as f64 + (v[hi] as f64 - v[lo] as f64) * (pos - lo as f64)
}

/// The percentiles the benchmark may report beyond the median.
const TAILS: [f64; 3] = [99.9, 99.0, 90.0];

/// The highest of p90/p99/p99.9 that has at least ten samples beyond it,
/// with its value, or `None` when even p90 has fewer (under 100 samples).
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len() as f64;
    let p = TAILS
        .into_iter()
        .find(|p| n * (100.0 - p) / 100.0 >= 10.0 - 1e-9)?;
    Some((p, percentile(xs, p)))
}

/// The `p`-th percentile of `xs`, interpolated like [`quantile_sorted`].
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let v = sorted(xs);
    let pos = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The `p`-th percentile of `xs` if at least ten samples lie beyond it.
pub fn percentile_if_supported(xs: &[f64], p: f64) -> Option<f64> {
    (xs.len() as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9).then(|| percentile(xs, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn interpolated_quantile_of_whole_numbers() {
        let v = [10, 20, 30, 40];
        assert_eq!(quantile_sorted(&v, 0.0), 10.0);
        assert_eq!(quantile_sorted(&v, 0.5), 25.0);
        assert_eq!(quantile_sorted(&v, 1.0), 40.0);
        assert!((quantile_sorted(&v, 0.99) - 39.7).abs() < 1e-9);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(tail(&few), None, "p90 of 99 samples has 9.9 beyond it");
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&hundred).map(|t| t.0), Some(90.0));
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&thousand).map(|t| t.0), Some(99.0));
        let many: Vec<f64> = (0..10_000).map(f64::from).collect();
        let (p, v) = tail(&many).unwrap();
        assert_eq!(p, 99.9);
        assert!((v - 9989.001).abs() < 1e-6);
    }
}
