//! The timing estimators.
//!
//! Every pass of a workload replays the same rounds (the work at round
//! index `r` is identical by seed), so the estimator first takes, per
//! round index, the **median across passes** — that removes a stall that
//! hit one pass — and only then aggregates over round indices. On the
//! 2-core shared box this was written on, a single-pass p50 wandered
//! ±10% while the pass-median p50 stayed within a few percent.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns `NaN` for an empty slice so a missing measurement is visible.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; `NaN` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Per-index median across passes: `out[r] = median(passes[*][r])`.
/// Passes may differ in length only by a bug; the shortest one bounds
/// the result.
pub fn per_index_median(passes: &[&[f64]]) -> Vec<f64> {
    let len = passes.iter().map(|p| p.len()).min().unwrap_or(0);
    let mut column = Vec::with_capacity(passes.len());
    (0..len)
        .map(|r| {
            column.clear();
            column.extend(passes.iter().map(|p| p[r]));
            median(&column)
        })
        .collect()
}

/// A nearest-rank percentile together with how many samples lie beyond
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
}

/// Samples that must lie beyond a percentile before it is trusted (the
/// choosing-metrics rule: "the highest percentile that has at least ten
/// samples beyond it").
pub const MIN_TAIL_SAMPLES: usize = 10;

impl Percentile {
    /// Whether enough samples lie beyond the rank to trust the value.
    pub fn trusted(&self) -> bool {
        self.beyond >= MIN_TAIL_SAMPLES
    }
}

/// Nearest-rank percentile `p ∈ (0, 100]` of `values`.
pub fn percentile(values: &[f64], p: f64) -> Percentile {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return Percentile {
            value: f64::NAN,
            beyond: 0,
        };
    }
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Percentile {
        value: sorted[rank - 1],
        beyond: sorted.len() - rank,
    }
}

/// The highest of p99/p95/p90/p75 that still has [`MIN_TAIL_SAMPLES`]
/// samples beyond it, if any.
pub fn highest_trusted_percentile(samples: usize) -> Option<f64> {
    [99.0, 95.0, 90.0, 75.0].into_iter().find(|&p| {
        let rank = (p / 100.0 * samples as f64).ceil() as usize;
        samples.saturating_sub(rank) >= MIN_TAIL_SAMPLES
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn pass_median_removes_a_stall_in_one_pass() {
        let passes: [&[f64]; 3] = [
            &[10.0, 11.0, 90.0, 10.5],
            &[10.2, 50.0, 12.0, 10.4],
            &[10.1, 11.2, 12.1, 10.6],
        ];
        assert_eq!(per_index_median(&passes), vec![10.1, 11.2, 12.1, 10.5]);
        // A short pass bounds the result instead of panicking.
        let ragged: [&[f64]; 2] = [&[1.0, 2.0], &[3.0]];
        assert_eq!(per_index_median(&ragged), vec![2.0]);
        assert!(per_index_median(&[]).is_empty());
    }

    #[test]
    fn percentile_counts_the_tail() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&values, 90.0);
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.beyond, 10);
        assert!(p90.trusted());
        let p99 = percentile(&values, 99.0);
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert!(!p99.trusted());
        assert_eq!(percentile(&[5.0], 50.0).value, 5.0);
        assert!(percentile(&[], 50.0).value.is_nan());
    }

    #[test]
    fn sample_count_rule_picks_the_highest_trusted_percentile() {
        assert_eq!(highest_trusted_percentile(19), None);
        assert_eq!(highest_trusted_percentile(59), Some(75.0));
        assert_eq!(highest_trusted_percentile(100), Some(90.0));
        assert_eq!(highest_trusted_percentile(200), Some(95.0));
        assert_eq!(highest_trusted_percentile(1000), Some(99.0));
    }
}
