//! Exact order statistics over raw samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `q · n` samples at or below it. Exact
/// (no bucketing); sorts a copy. `None` when there are no samples.
pub fn percentile(samples: &[u64], q: f64) -> Option<u64> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile_sorted(&sorted, q)
}

/// [`percentile`] over samples already sorted ascending.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_one_hundred() {
        // 1..=100 in scrambled order: the q-quantile is exactly 100·q.
        let samples: Vec<u64> = (0..100u64).map(|i| (i * 37) % 100 + 1).collect();
        assert_eq!(percentile(&samples, 0.5), Some(50));
        assert_eq!(percentile(&samples, 0.99), Some(99));
        assert_eq!(percentile(&samples, 1.0), Some(100));
        assert_eq!(percentile(&samples, 0.0), Some(1));
        assert_eq!(percentile(&samples, 0.011), Some(2));
    }

    #[test]
    fn a_slow_tail_moves_p99_but_not_p50() {
        // 990 fast samples and 10 slow ones: p99 is the last fast sample,
        // anything above lands in the tail. Log2 buckets would report the
        // same bucket bound for all three.
        let mut samples = vec![1_000u64; 990];
        samples.extend([50_000u64; 10]);
        assert_eq!(percentile(&samples, 0.5), Some(1_000));
        assert_eq!(percentile(&samples, 0.99), Some(1_000));
        assert_eq!(percentile(&samples, 0.995), Some(50_000));
    }

    #[test]
    fn empty_and_median() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
