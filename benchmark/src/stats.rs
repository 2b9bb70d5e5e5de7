//! Order statistics over small sample sets.

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` of the
/// samples at or below it, so `samples_beyond` of them lie strictly after
/// it in sorted order.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples after the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest of p99 / p95 / p90 / p75 that leaves at least ten samples
/// beyond it (p75 when even that does not, which only tiny test-size plans
/// reach).
pub fn tail_percentile(n: usize) -> f64 {
    [0.99, 0.95, 0.90, 0.75]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
        .unwrap_or(0.75)
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |quarter: usize| {
        let position = (quarter * (n + 1)) as f64 / 4.0;
        let below = (position.floor() as usize).clamp(1, n - 1);
        let fraction = position - below as f64;
        sorted[below - 1] + fraction * (sorted[below] - sorted[below - 1])
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 4.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(tail_percentile(100), 0.90);
        assert_eq!(tail_percentile(40), 0.75);
        assert_eq!(percentile(&[3.0, 1.0, 2.0, 4.0], 0.75), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
