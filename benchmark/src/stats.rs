//! Summaries of timing samples: nearest-rank percentiles and the rule that
//! says which percentile a sample count can carry.

/// Percentiles a metric may be named after, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// Nearest rank of percentile `p` among `n` ascending samples, from 1. The
/// epsilon keeps `90 % of 100` at rank 90 despite binary fractions.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The highest percentile of [`LADDER`] with at least ten samples beyond
/// it among `n` samples; `None` below 20 samples, where even the median
/// has fewer than ten on one side.
pub fn highest_percentile(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&p| n >= rank(n, p) + MIN_BEYOND)
}

/// Whether `n` samples carry percentile `p` by the ten-beyond rule.
pub fn carries(n: usize, p: f64) -> bool {
    highest_percentile(n).is_some_and(|h| h >= p)
}

/// Nearest-rank percentile of an ascending slice (`0 < p <= 100`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Sorts ascending; timing samples are never NaN.
pub fn sort(v: &mut [f64]) {
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
}

/// Median as the mean of the middle pair, so that an even number of
/// repetitions is not biased towards the lower one.
pub fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    sort(&mut v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Position by position, the fastest of several repetitions of identical
/// work: `out[k]` is the least `reps[r][k]`. On a shared host interference
/// only ever adds time, and it comes in stretches (a busy sibling thread
/// slows a few hundred milliseconds of work by half); the lower envelope
/// over repetitions taken seconds apart is what the program costs when the
/// box leaves it alone. Shorter repetitions are ignored past their end.
pub fn fastest(reps: &[Vec<f64>]) -> Vec<f64> {
    let len = reps.iter().map(Vec::len).max().unwrap_or(0);
    (0..len)
        .map(|k| reps.iter().filter_map(|r| r.get(k)).copied().fold(f64::INFINITY, f64::min))
        .collect()
}

/// The least of a non-empty set of timings.
pub fn least(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "least of no samples");
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_beyond_rule_picks_the_highest_percentile_the_count_carries() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(199), Some(90.0));
        assert_eq!(highest_percentile(200), Some(95.0));
        assert_eq!(highest_percentile(999), Some(95.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(9_999), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        assert!(carries(400, 95.0));
        assert!(!carries(400, 99.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // Exactly ten samples lie beyond the reported value.
        let beyond = v.iter().filter(|&&x| x > percentile(&v, 90.0)).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn fastest_is_the_lower_envelope_over_repetitions() {
        // A slow stretch in one repetition does not show if another
        // repetition passed the same positions undisturbed.
        let calm = vec![1.0, 2.0, 3.0, 4.0];
        let disturbed = vec![1.1, 3.5, 5.0, 3.9];
        assert_eq!(fastest(&[calm.clone(), disturbed]), vec![1.0, 2.0, 3.0, 3.9]);
        assert_eq!(fastest(&[calm.clone(), vec![0.5]]), vec![0.5, 2.0, 3.0, 4.0]);
        assert!(fastest(&[]).is_empty());
        assert_eq!(least(&calm), 1.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
