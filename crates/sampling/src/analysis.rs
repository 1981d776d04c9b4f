//! Closed-form sampling analysis (Appendix A, Propositions 1 and 2).
//!
//! These formulas answer: *given that a client was just sampled, what is
//! the probability that its next participation happens exactly `r` rounds
//! later?* GlueFL uses them to choose the sticky-group parameters `S` and
//! `C` so that a sticky client's short-term re-sampling probability
//! dominates uniform sampling for long enough to keep downloads small.

/// Probability that a uniformly-sampled client is next sampled exactly `r`
/// rounds later: `(K/N)·(1 − K/N)^{r−1}` (Proposition 1). Its mean is
/// `N/K` rounds.
///
/// # Panics
/// Panics if `k > n`, `n == 0`, or `r == 0`.
///
/// # Example
/// ```
/// // FEMNIST case study: N=2800, K=30 → ≈1.1% per round.
/// let p = gluefl_sampling::analysis::uniform_resample_prob(2800, 30, 1);
/// assert!((p - 30.0 / 2800.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn uniform_resample_prob(n: usize, k: usize, r: u32) -> f64 {
    assert!(n > 0 && k <= n, "need 0 < k <= n");
    assert!(r > 0, "round offset r must be positive");
    let p = k as f64 / n as f64;
    p * (1.0 - p).powi(r as i32 - 1)
}

/// Probability that a client *currently in the sticky group* is next
/// sampled exactly `r` rounds later (Proposition 2):
///
/// ```text
///         K(NC − SK)/S · (1 − K/S)^{r−1}  +  (K−C)² · (1 − (K−C)/(N−S))^{r−1}
/// P(r) = ─────────────────────────────────────────────────────────────────────
///                              (N−S)K − (K−C)S
/// ```
///
/// The first term is the path where the client stays sticky until being
/// drawn from `S`; the second is the path where it is evicted and later
/// drawn from the non-sticky pool. The mean is `N/K`, as under uniform
/// sampling: stickiness shifts probability mass toward small `r` without
/// changing the mean.
///
/// # Panics
/// Panics unless `0 < c <= k <= s < n` is *not required*, but the formula
/// needs `c <= s <= n`, `c <= k`, `k <= s` for the sticky-exit path
/// probabilities to be valid; the function asserts `0 < c <= k`, `k <= s`,
/// `s < n`, and `r > 0`.
///
/// # Example
/// ```
/// use gluefl_sampling::analysis::sticky_resample_prob;
/// // §3.1 case study: N=2800, K=30, S=120, C=24 gives
/// // 20.0%, 15.0%, 11.2%, 8.5%, 6.4%, 4.8% for r = 1..=6.
/// let p1 = sticky_resample_prob(2800, 30, 120, 24, 1);
/// assert!((p1 - 0.200).abs() < 5e-4);
/// let p3 = sticky_resample_prob(2800, 30, 120, 24, 3);
/// assert!((p3 - 0.1127).abs() < 5e-4);
/// ```
#[must_use]
pub fn sticky_resample_prob(n: usize, k: usize, s: usize, c: usize, r: u32) -> f64 {
    assert!(
        c > 0 && c <= k && k <= s && s < n,
        "need 0 < c <= k <= s < n"
    );
    assert!(r > 0, "round offset r must be positive");
    let (nf, kf, sf, cf) = (n as f64, k as f64, s as f64, c as f64);
    let denom = (nf - sf) * kf - (kf - cf) * sf;
    let stay = (1.0 - kf / sf).powi(r as i32 - 1);
    let exit = (1.0 - (kf - cf) / (nf - sf)).powi(r as i32 - 1);
    (kf * (nf * cf - sf * kf) / sf * stay + (kf - cf).powi(2) * exit) / denom
}

/// The horizon `r_max` (Appendix A.3) up to which a sticky client's
/// stay-in-group re-sampling probability `C/S·(1−K/S)^{r−1}` dominates the
/// uniform probability `K/N·(1−K/N)^{r−1}`:
///
/// `r_max = 1 + floor( log(CN/(SK)) / log(S(N−K)/(N(S−K))) )`.
///
/// Returns `None` when stickiness never dominates (`C/S <= K/N`).
///
/// # Panics
/// Panics unless `0 < c <= k < s < n`.
///
/// # Example
/// ```
/// // Case study: dominance holds for 11 rounds.
/// let h = gluefl_sampling::analysis::sticky_advantage_horizon(2800, 30, 120, 24);
/// assert_eq!(h, Some(11));
/// ```
#[must_use]
pub fn sticky_advantage_horizon(n: usize, k: usize, s: usize, c: usize) -> Option<u32> {
    assert!(c > 0 && c <= k && k < s && s < n, "need 0 < c <= k < s < n");
    let (nf, kf, sf, cf) = (n as f64, k as f64, s as f64, c as f64);
    if cf / sf <= kf / nf {
        return None;
    }
    let num = (cf * nf / (sf * kf)).ln();
    let den = (sf * (nf - kf) / (nf * (sf - kf))).ln();
    Some(1 + (num / den).floor() as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_case_study_value() {
        // "uniform sampling re-samples clients with a probability of
        // around 1.1%" (§3.1).
        let p = uniform_resample_prob(2800, 30, 1);
        assert!((p - 0.0107).abs() < 2e-4);
    }

    #[test]
    fn uniform_distribution_sums_to_one() {
        let total: f64 = (1..100_000u32)
            .map(|r| uniform_resample_prob(100, 10, r))
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_expectation_matches_geometric_mean() {
        let (n, k) = (100, 10);
        let mean: f64 = (1..100_000u32)
            .map(|r| uniform_resample_prob(n, k, r) * f64::from(r))
            .sum();
        assert!((mean - n as f64 / k as f64).abs() < 1e-6);
    }

    #[test]
    fn sticky_case_study_sequence() {
        // §3.1: 20.0%, 15.0%, 11.2%, 8.5%, 6.4%, 4.8% for r = 1..=6.
        // (the paper truncates 11.27% to 11.2%, hence the 1.2e-3 slack)
        let expected = [0.200, 0.150, 0.112, 0.085, 0.064, 0.048];
        for (i, &e) in expected.iter().enumerate() {
            let p = sticky_resample_prob(2800, 30, 120, 24, i as u32 + 1);
            assert!((p - e).abs() < 1.2e-3, "r={} expected {e} got {p}", i + 1);
        }
    }

    #[test]
    fn sticky_distribution_sums_to_one() {
        let total: f64 = (1..200_000u32)
            .map(|r| sticky_resample_prob(200, 10, 40, 8, r))
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn sticky_mean_is_n_over_k() {
        let (n, k) = (200, 10);
        let mean: f64 = (1..400_000u32)
            .map(|r| sticky_resample_prob(n, k, 40, 8, r) * f64::from(r))
            .sum();
        assert!((mean - n as f64 / k as f64).abs() < 1e-6, "mean {mean}");
    }

    #[test]
    fn horizon_case_study() {
        assert_eq!(sticky_advantage_horizon(2800, 30, 120, 24), Some(11));
    }

    #[test]
    fn horizon_none_when_not_advantaged() {
        // C/S = 1/100 < K/N = 10/200: stickiness is a disadvantage.
        assert_eq!(sticky_advantage_horizon(200, 10, 100, 1), None);
    }

    /// Monte-Carlo validation of Proposition 2 against the actual
    /// `StickySampler` process.
    #[test]
    fn proposition2_matches_monte_carlo() {
        use crate::StickySampler;
        let (n, k, s, c) = (120usize, 6usize, 24usize, 4usize);
        let fresh = k - c;
        let mut rng = StdRng::seed_from_u64(77);
        let mut sampler = StickySampler::new(n, s, &mut rng);
        // Track, for clients that just participated AND are sticky, the
        // number of rounds until next participation.
        let mut next_gap: Vec<Option<u32>> = vec![None; n];
        let mut round_of_watch: Vec<u32> = vec![0; n];
        let mut gaps: Vec<u32> = Vec::new();
        for t in 0..120_000u32 {
            let draw = sampler.draw(&mut rng, c, fresh, &mut crate::AllOnline);
            for &cl in &draw.all() {
                if let Some(start) = next_gap[cl].take() {
                    let _ = start;
                    gaps.push(t - round_of_watch[cl]);
                }
            }
            sampler.rebalance(&mut rng, &draw.sticky, &draw.fresh);
            // After rebalance, participants from the sticky draw remain
            // sticky; fresh participants just joined. Both now satisfy
            // "sampled at the current round and in the sticky group".
            for &cl in &draw.all() {
                next_gap[cl] = Some(t);
                round_of_watch[cl] = t;
            }
        }
        let total = gaps.len() as f64;
        for r in 1..=3u32 {
            let observed = gaps.iter().filter(|&&g| g == r).count() as f64 / total;
            let predicted = sticky_resample_prob(n, k, s, c, r);
            assert!(
                (observed - predicted).abs() < 0.02,
                "r={r}: observed {observed:.4} vs predicted {predicted:.4}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "r must be positive")]
    fn rejects_r_zero() {
        let _ = uniform_resample_prob(10, 2, 0);
    }

    #[test]
    #[should_panic(expected = "need 0 < c <= k <= s < n")]
    fn sticky_rejects_bad_config() {
        let _ = sticky_resample_prob(100, 20, 10, 5, 1);
    }
}
