//! The arithmetic every reported number goes through: nearest-rank
//! percentiles, medians over passes, and the spread the benchmark's
//! repeatability is judged by.

/// Sorts a sample ascending (NaNs are a harness bug, not data).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    values
}

/// Nearest-rank percentile of an ascending sample: the smallest value with at
/// least `p` percent of the sample at or below it. `0.0` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the `p`-th percentile's rank — a
/// percentile is only reported as a tail when at least ten do.
pub fn samples_beyond(count: usize, p: f64) -> usize {
    count - ((p / 100.0 * count as f64).ceil() as usize).min(count)
}

/// Median with the usual midpoint rule for even counts. `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// `(min, max)` of a sample; `(0, 0)` when empty.
pub fn spread(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold(None, |acc: Option<(f64, f64)>, &v| match acc {
            None => Some((v, v)),
            Some((lo, hi)) => Some((lo.min(v), hi.max(v))),
        })
        .unwrap_or((0.0, 0.0))
}

/// Quartiles by the exclusive method (`statistics.quantiles(values, n=4)` in
/// Python, the acceptance driver's method). Needs two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let at = |k: usize| {
        let position = k as f64 * (n as f64 + 1.0) / 4.0;
        let below = (position.floor() as usize).clamp(1, n - 1);
        let fraction = position - below as f64;
        s[below - 1] + fraction * (s[below] - s[below - 1])
    };
    (at(1), at(2), at(3))
}

/// How much worse `second` is than `first`, as a share of `first`; negative
/// when it improved. `higher_is_better` flips the direction.
pub fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    if first == 0.0 {
        return if second == 0.0 { 0.0 } else { f64::INFINITY };
    }
    let change = (second - first) / first.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
        // Twenty samples: p95 is the 19th, leaving exactly one beyond.
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&s, 95.0), 19.0);
        assert_eq!(samples_beyond(20, 95.0), 1);
        assert_eq!(samples_beyond(300, 95.0), 15);
        assert_eq!(samples_beyond(0, 95.0), 0);
    }

    #[test]
    fn median_of_passes_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(spread(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(spread(&[]), (0.0, 0.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, _, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, false), 0.0);
    }
}
