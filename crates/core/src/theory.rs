//! Convergence-analysis constants (§4, Theorem 2).
//!
//! Theorem 2 bounds sticky sampling's convergence on smooth non-convex
//! objectives at rate `O(√((1 + σ²/E)·A/(KT)) + K/(TA))`, where the
//! variance constant
//!
//! ```text
//! A = (K/N) · (S²/C + (N−S)²/(K−C)) · Σᵢ pᵢ²
//! ```
//!
//! captures the cost of staying unbiased under non-uniform sampling.
//! These closed forms let experiments pick the theorem's learning rate
//! (Equation 8) and let tests verify the FedAvg reduction (`A = 1` when
//! `S = 0` and `pᵢ = 1/N`).

/// The variance constant `A` of Theorem 2.
///
/// `s = 0` (no sticky group, `c` must then be 0) reduces to uniform
/// sampling: `A = (K/N)·(N²/K)·Σp²`, which equals 1 for uniform weights.
///
/// # Panics
/// Panics unless `c <= s`, `s < n` (or `s == 0 && c == 0`), `c < k`, and
/// `weights.len() == n`.
///
/// # Example
/// ```
/// // FedAvg reduction: equal weights, no sticky group → A = 1.
/// let p = vec![1.0 / 100.0; 100];
/// let a = gluefl_core::theory::variance_constant_a(100, 10, 0, 0, &p);
/// assert!((a - 1.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn variance_constant_a(n: usize, k: usize, s: usize, c: usize, weights: &[f64]) -> f64 {
    assert_eq!(weights.len(), n, "weights length must equal population");
    assert!(k > 0 && k <= n, "need 0 < k <= n");
    assert!(
        c <= s && c < k || (s == 0 && c == 0),
        "invalid sticky configuration"
    );
    assert!(s < n, "sticky group must leave non-sticky clients");
    let sum_p2: f64 = weights.iter().map(|p| p * p).sum();
    let (nf, kf, sf, cf) = (n as f64, k as f64, s as f64, c as f64);
    let sticky_term = if s == 0 { 0.0 } else { sf * sf / cf };
    let fresh_term = (nf - sf) * (nf - sf) / (kf - cf);
    (kf / nf) * (sticky_term + fresh_term) * sum_p2
}

/// The learning rate of Equation 8:
/// `γ = sqrt( 1/(E(σ² + E)) · K/(T·A) )`.
///
/// # Panics
/// Panics if any argument is non-positive.
#[must_use]
pub fn theorem2_learning_rate(e: usize, sigma2: f64, k: usize, t: u32, a: f64) -> f64 {
    assert!(e > 0 && k > 0 && t > 0, "E, K, T must be positive");
    assert!(sigma2 >= 0.0 && a > 0.0, "σ² must be ≥ 0 and A > 0");
    let ef = e as f64;
    (1.0 / (ef * (sigma2 + ef)) * k as f64 / (f64::from(t) * a)).sqrt()
}

/// The leading terms of the convergence bound (Equation 9):
/// `sqrt((1 + σ²/E) · A/(K·T)) + K/(T·A)`.
///
/// Useful for comparing parameter choices (e.g. how growing `S` inflates
/// the bound) without running training.
///
/// # Panics
/// Panics if any argument is non-positive.
#[must_use]
pub fn convergence_bound(e: usize, sigma2: f64, k: usize, t: u32, a: f64) -> f64 {
    assert!(e > 0 && k > 0 && t > 0, "E, K, T must be positive");
    assert!(sigma2 >= 0.0 && a > 0.0, "σ² must be ≥ 0 and A > 0");
    let term1 = ((1.0 + sigma2 / e as f64) * a / (k as f64 * f64::from(t))).sqrt();
    let term2 = k as f64 / (f64::from(t) * a);
    term1 + term2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fedavg_reduction_is_one() {
        let p = vec![1.0 / 50.0; 50];
        let a = variance_constant_a(50, 5, 0, 0, &p);
        assert!((a - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sticky_sampling_increases_variance_constant() {
        // Stickiness trades variance for bandwidth: A > 1 for S > 0.
        let p = vec![1.0 / 2800.0; 2800];
        let a_sticky = variance_constant_a(2800, 30, 120, 24, &p);
        let a_uniform = variance_constant_a(2800, 30, 0, 0, &p);
        assert!(a_sticky > a_uniform);
    }

    #[test]
    fn paper_default_constant_value() {
        // N=2800, K=30, S=120, C=24, uniform p:
        // A = (30/2800)·(120²/24 + 2680²/6)·(2800·(1/2800²))
        let p = vec![1.0 / 2800.0; 2800];
        let a = variance_constant_a(2800, 30, 120, 24, &p);
        let expected = (30.0 / 2800.0) * (600.0 + 2680.0f64.powi(2) / 6.0) * (1.0 / 2800.0);
        assert!((a - expected).abs() < 1e-9);
    }

    #[test]
    fn learning_rate_decreases_with_t_and_a() {
        let lr1 = theorem2_learning_rate(10, 1.0, 30, 100, 1.0);
        let lr2 = theorem2_learning_rate(10, 1.0, 30, 400, 1.0);
        let lr3 = theorem2_learning_rate(10, 1.0, 30, 100, 4.0);
        assert!((lr1 / lr2 - 2.0).abs() < 1e-9); // γ ∝ 1/√T
        assert!((lr1 / lr3 - 2.0).abs() < 1e-9); // γ ∝ 1/√A
    }

    #[test]
    fn bound_shrinks_with_more_rounds() {
        let b1 = convergence_bound(10, 1.0, 30, 100, 2.0);
        let b2 = convergence_bound(10, 1.0, 30, 10_000, 2.0);
        assert!(b2 < b1);
    }

    #[test]
    fn bound_reflects_variance_tradeoff() {
        // Larger A hurts the √ term; the bound grows for large T where
        // that term dominates.
        let small_a = convergence_bound(10, 1.0, 30, 100_000, 1.0);
        let big_a = convergence_bound(10, 1.0, 30, 100_000, 16.0);
        assert!(big_a > small_a);
    }

    #[test]
    #[should_panic(expected = "invalid sticky configuration")]
    fn rejects_c_above_s() {
        let p = vec![0.5, 0.5];
        let _ = variance_constant_a(2, 1, 0, 1, &p);
    }
}
