//! Sample statistics: the nearest-rank percentile estimator and the rule
//! that a percentile is reported only when at least [`MIN_BEYOND`] samples
//! lie beyond it.

/// Samples that must lie strictly beyond a percentile for it to be
/// reportable.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `permille`-th percentile among `n` sorted
/// samples: `ceil(permille · n / 1000)`, clamped to `1..=n`. Integer
/// arithmetic keeps `p90` of 100 samples at rank 90 exactly.
pub fn rank(n: usize, permille: u32) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!(permille <= 1000, "percentile above 100%");
    (n * permille as usize).div_ceil(1000).clamp(1, n)
}

/// The `permille`-th percentile of `sorted` (ascending) by nearest rank.
pub fn percentile(sorted: &[f64], permille: u32) -> f64 {
    sorted[rank(sorted.len(), permille) - 1]
}

/// Samples strictly beyond the `permille`-th percentile's rank.
pub fn beyond(n: usize, permille: u32) -> usize {
    n - rank(n, permille)
}

/// Whether the `permille`-th percentile of `n` samples has at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn reportable(n: usize, permille: u32) -> bool {
    n > 0 && beyond(n, permille) >= MIN_BEYOND
}

/// The `permille`-th percentile of each non-empty group, averaged with
/// equal weights. For a class that mixes kinds of input in equal shares
/// whose latencies do not overlap, this stays inside each kind's own
/// distribution where a pooled percentile at the seam between the kinds
/// would jump between them. NaN when every group is empty.
pub fn balanced_percentile(groups: &[Vec<f64>], permille: u32) -> f64 {
    let values = group_percentiles(groups, permille);
    values.iter().sum::<f64>() / values.len() as f64
}

/// The `permille`-th percentile of each non-empty group.
pub fn group_percentiles(groups: &[Vec<f64>], permille: u32) -> Vec<f64> {
    groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| percentile(&sorted(g.clone()), permille))
        .collect()
}

/// Equal time windows a timed loop is split into for its rate and
/// percentiles.
pub const WINDOWS: usize = 5;

/// The window of a job submitted `start_s` into a loop of `seconds`.
pub fn window_of(start_s: f64, seconds: f64) -> usize {
    ((start_s / seconds * WINDOWS as f64) as usize).min(WINDOWS - 1)
}

/// Wall time of each window of a closed loop, given the start of each
/// window's first job (`None` when a window holds no job) and `end_s`, when
/// the loop's last job ended. A window runs from its first start to the
/// next window's first start; the last one to `end_s`. The span so matches
/// the whole jobs counted in it: with a fixed window length, traffic that
/// moves in cycles (every 32nd serve job is a 2048² frame that stalls both
/// clients) puts a whole number of cycles in most windows and the rate
/// reads the same quantised value run after run. A window without jobs has
/// no span; its time goes to the window before it.
pub fn window_spans(first_starts: &[Option<f64>], end_s: f64) -> Vec<Option<f64>> {
    first_starts
        .iter()
        .enumerate()
        .map(|(w, from)| {
            let to = first_starts[w + 1..]
                .iter()
                .flatten()
                .next()
                .copied()
                .unwrap_or(end_s);
            from.map(|from| to - from)
        })
        .collect()
}

/// Sorts `samples` ascending (NaN-free input; timings and counts only).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    samples
}

/// Median (nearest rank, so always an observed sample).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 500)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_small_samples() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 500), 3.0);
        assert_eq!(percentile(&s, 900), 5.0);
        assert_eq!(percentile(&s, 1), 1.0);
        assert_eq!(percentile(&s, 1000), 5.0);
        // Even count: the lower middle sample, never an interpolation.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 500), 2.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn p90_of_100_is_rank_90_exactly() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(rank(100, 900), 90);
        assert_eq!(percentile(&s, 900), 90.0);
        assert_eq!(beyond(100, 900), 10);
        assert_eq!(rank(1000, 990), 990);
        assert_eq!(beyond(1000, 990), 10);
    }

    #[test]
    fn balanced_percentile_is_stable_at_the_seam_of_two_modes() {
        // Two kinds around 1 ms and 10 ms. Pooled, the median lands in
        // either mode depending on one sample; balanced, it does not move.
        let fast: Vec<f64> = (0..50).map(|i| 1.0 + i as f64 * 0.001).collect();
        let slow: Vec<f64> = (0..50).map(|i| 10.0 + i as f64 * 0.001).collect();
        let pooled = |f: usize, s: usize| {
            let all: Vec<f64> = fast[..f].iter().chain(&slow[..s]).copied().collect();
            percentile(&sorted(all), 500)
        };
        assert!(pooled(50, 49) < 2.0);
        assert!(pooled(49, 50) > 9.0);
        let a = balanced_percentile(&[fast[..50].to_vec(), slow[..49].to_vec()], 500);
        let b = balanced_percentile(&[fast[..49].to_vec(), slow[..50].to_vec()], 500);
        assert!((a - b).abs() < 0.01, "{a} vs {b}");
        assert!((a - 5.5).abs() < 0.05, "{a}");
        // Empty groups are skipped; no groups at all is NaN.
        assert_eq!(balanced_percentile(&[vec![], vec![3.0]], 500), 3.0);
        assert!(balanced_percentile(&[vec![]], 500).is_nan());
    }

    #[test]
    fn windows_split_the_budget_evenly() {
        // One second per window.
        let seconds = WINDOWS as f64;
        assert_eq!(window_of(0.0, seconds), 0);
        assert_eq!(window_of(0.999, seconds), 0);
        assert_eq!(window_of(1.001, seconds), 1);
        assert_eq!(window_of(seconds - 0.001, seconds), WINDOWS - 1);
        // A job submitted at the very end still lands in the last window.
        assert_eq!(window_of(seconds, seconds), WINDOWS - 1);
    }

    #[test]
    fn window_spans_run_from_first_start_to_the_next() {
        let spans = window_spans(&[Some(0.0), None, Some(2.5), Some(3.0), Some(4.25)], 5.5);
        assert_eq!(spans, [Some(2.5), None, Some(0.5), Some(1.25), Some(1.25)]);
        // The spans of the windows with jobs add up to the whole loop.
        let total: f64 = spans.iter().flatten().sum();
        assert_eq!(total, 5.5);
    }

    #[test]
    fn ten_beyond_rule() {
        // p90 needs 100 samples, p99 needs 1000, p50 needs 20.
        assert!(!reportable(99, 900));
        assert!(reportable(100, 900));
        assert!(!reportable(999, 990));
        assert!(reportable(1000, 990));
        assert!(!reportable(19, 500));
        assert!(reportable(20, 500));
        assert!(!reportable(0, 500));
        // 101 samples: rank ceil(90.9) = 91, so exactly 10 beyond.
        assert_eq!(beyond(101, 900), 10);
        assert_eq!(beyond(109, 900), 10);
        assert_eq!(beyond(110, 900), 11);
    }
}
