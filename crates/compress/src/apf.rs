//! Adaptive Parameter Freezing (Chen et al., ICDCS 2021).
//!
//! APF observes the aggregated global update each round and freezes
//! parameters that have *converged*: a parameter whose updates keep
//! cancelling out (small *effective perturbation*) is frozen — excluded
//! from synchronisation — for a freezing period that doubles each time the
//! parameter is found stable again, and is re-examined when the period
//! expires. The GlueFL paper uses APF as its parameter-freezing baseline
//! with the effective-perturbation threshold set to 0.1 (§5.1).

use gluefl_tensor::BitMask;

/// APF hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApfConfig {
    /// Effective-perturbation threshold below which a parameter is frozen
    /// (paper setting: 0.1).
    pub threshold: f32,
    /// EMA factor for the update statistics (0.9 ≈ a ~10-round window).
    pub ema_beta: f32,
    /// Initial freeze duration in rounds.
    pub initial_period: u32,
    /// Cap on the doubling freeze duration.
    pub max_period: u32,
    /// Rounds of warm-up before any freezing happens.
    pub warmup_rounds: u32,
}

impl Default for ApfConfig {
    fn default() -> Self {
        Self {
            threshold: 0.1,
            ema_beta: 0.9,
            initial_period: 5,
            max_period: 40,
            warmup_rounds: 10,
        }
    }
}

/// Server-side APF state.
///
/// Call [`Apf::active_mask`] to learn which parameters participate in the
/// current round, and [`Apf::observe`] with the aggregated update (dense,
/// zeros at frozen positions) to advance the freezing state machine.
///
/// # Example
///
/// ```
/// use gluefl_compress::{Apf, ApfConfig};
/// let mut apf = Apf::new(4, ApfConfig::default());
/// // Initially everything is active.
/// assert_eq!(apf.active_mask().count_ones(), 4);
/// apf.observe(&[0.1, -0.1, 0.5, 0.0]);
/// ```
#[derive(Debug, Clone)]
pub struct Apf {
    cfg: ApfConfig,
    /// EMA of signed updates.
    ema_update: Vec<f32>,
    /// EMA of |updates|.
    ema_abs: Vec<f32>,
    /// Round until which each parameter is frozen (exclusive).
    frozen_until: Vec<u32>,
    /// Current freeze period per parameter.
    period: Vec<u32>,
    round: u32,
}

impl Apf {
    /// Creates APF state over `dim` parameters.
    ///
    /// # Panics
    /// Panics if `threshold` is not in `(0, 1]` or `ema_beta` not in `[0,1)`.
    #[must_use]
    pub fn new(dim: usize, cfg: ApfConfig) -> Self {
        assert!(
            cfg.threshold > 0.0 && cfg.threshold <= 1.0,
            "threshold must be in (0,1]"
        );
        assert!(
            (0.0..1.0).contains(&cfg.ema_beta),
            "ema_beta must be in [0,1)"
        );
        Self {
            cfg,
            ema_update: vec![0.0; dim],
            ema_abs: vec![0.0; dim],
            frozen_until: vec![0; dim],
            period: vec![cfg.initial_period; dim],
            round: 0,
        }
    }

    /// Model dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.ema_update.len()
    }

    /// Current round index (number of `observe` calls so far).
    #[must_use]
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Mask of parameters that are *active* (not frozen) this round.
    #[must_use]
    pub fn active_mask(&self) -> BitMask {
        let mut m = BitMask::zeros(self.dim());
        self.fill_active_mask(&mut m);
        m
    }

    /// Writes the current active mask into `out` in place (reset to the
    /// model dimension first) — the allocation-free form used by callers
    /// that cache the mask across rounds.
    pub fn fill_active_mask(&self, out: &mut BitMask) {
        out.reset(self.dim());
        for i in 0..self.dim() {
            if self.frozen_until[i] <= self.round {
                out.set(i, true);
            }
        }
    }

    /// Effective perturbation of parameter `i`:
    /// `|EMA(update)| / EMA(|update|)` ∈ [0, 1]. High values mean the
    /// parameter still moves consistently in one direction; low values
    /// mean its updates cancel out (converged / oscillating).
    #[must_use]
    pub fn effective_perturbation(&self, i: usize) -> f32 {
        let denom = self.ema_abs[i];
        if denom <= f32::EPSILON {
            // No signal yet: treat as maximally unstable so we never
            // freeze an unobserved parameter.
            1.0
        } else {
            (self.ema_update[i].abs() / denom).min(1.0)
        }
    }

    /// Feeds the round's aggregated update (dense over all positions;
    /// frozen positions should be zero) and advances the state machine.
    ///
    /// For each *active* parameter the EMAs are updated; when the warm-up
    /// has passed and the effective perturbation falls below the
    /// threshold, the parameter is frozen for its current period and the
    /// period doubles (capped) — APF's additively-increasing/multiplicative
    /// freezing schedule. A frozen parameter whose period expires becomes
    /// active again and is re-examined with fresh updates; its period
    /// stays at the doubled value (the paper's conservative variant caps
    /// rather than resets, which we mirror).
    ///
    /// # Panics
    /// Panics if `update.len() != dim()`.
    #[allow(clippy::needless_range_loop)] // i indexes four parallel arrays
    pub fn observe(&mut self, update: &[f32]) {
        assert_eq!(update.len(), self.dim(), "update dimension mismatch");
        let beta = self.cfg.ema_beta;
        for i in 0..self.dim() {
            if self.frozen_until[i] > self.round {
                continue; // frozen: statistics paused
            }
            self.observe_position(i, update[i], beta);
        }
        self.round += 1;
    }

    /// Packed-layout form of [`Apf::observe`]: the round's aggregated
    /// update is given as values packed over `active` (one value per set
    /// bit, in position order), which must be exactly the mask
    /// [`Apf::active_mask`] returned for this round. Frozen positions —
    /// the complement of `active` — receive no statistics update, exactly
    /// as in the dense form, so the two are state-identical.
    ///
    /// # Panics
    /// Panics if `active.len() != dim()` or `packed.len()` differs from
    /// the mask's set-bit count; debug builds also verify that `active`
    /// matches the internal freeze state.
    pub fn observe_masked(&mut self, packed: &[f32], active: &BitMask) {
        assert_eq!(active.len(), self.dim(), "active mask dimension mismatch");
        assert_eq!(
            packed.len(),
            active.count_ones(),
            "packed values must align with the active mask"
        );
        // Subset check happens per bit below; the count equality makes it
        // a full equivalence — a too-narrow mask would silently starve
        // thawed positions of their EMA update.
        debug_assert_eq!(
            active.count_ones(),
            self.frozen_until
                .iter()
                .filter(|&&u| u <= self.round)
                .count(),
            "active mask does not cover every unfrozen position"
        );
        let beta = self.cfg.ema_beta;
        let mut j = 0usize;
        active.for_each_one(|i| {
            debug_assert!(
                self.frozen_until[i] <= self.round,
                "active mask covers a frozen position"
            );
            let v = packed[j];
            j += 1;
            self.observe_position(i, v, beta);
        });
        self.round += 1;
    }

    /// One active parameter's EMA update + freeze decision (shared by the
    /// dense and packed observe forms).
    fn observe_position(&mut self, i: usize, update: f32, beta: f32) {
        self.ema_update[i] = beta * self.ema_update[i] + (1.0 - beta) * update;
        self.ema_abs[i] = beta * self.ema_abs[i] + (1.0 - beta) * update.abs();
        if self.round >= self.cfg.warmup_rounds
            && self.effective_perturbation(i) < self.cfg.threshold
        {
            self.frozen_until[i] = self.round + 1 + self.period[i];
            self.period[i] = (self.period[i] * 2).min(self.cfg.max_period);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ApfConfig {
        // ema_beta 0.9: an alternating ±u signal settles at
        // |EMA| = u·(1−β)/(1+β) ≈ 0.053·u, i.e. EP ≈ 0.053 < 0.1,
        // while a steady signal keeps EP = 1.
        ApfConfig {
            threshold: 0.1,
            ema_beta: 0.9,
            initial_period: 3,
            max_period: 12,
            warmup_rounds: 4,
        }
    }

    #[test]
    fn nothing_frozen_during_warmup() {
        let mut apf = Apf::new(8, cfg());
        for _ in 0..4 {
            // Pure oscillation (EP → 0), but warm-up protects it.
            apf.observe(&[0.5; 8]);
            apf.observe(&[-0.5; 8].map(|v: f32| v));
        }
        // Warm-up of 4 rounds passed after the loop; some freezing may now
        // occur, but strictly within the first 4 observes nothing froze:
        let mut apf2 = Apf::new(8, cfg());
        for r in 0..4 {
            apf2.observe(&[if r % 2 == 0 { 0.5 } else { -0.5 }; 8]);
            assert_eq!(apf2.active_mask().count_ones(), 8, "round {r}");
        }
    }

    #[test]
    fn oscillating_parameters_freeze() {
        let mut apf = Apf::new(4, cfg());
        // Parameter 0 oscillates (converged); parameter 1 moves steadily.
        for r in 0..20 {
            let u0 = if r % 2 == 0 { 0.5 } else { -0.5 };
            let mut u = vec![0.0f32; 4];
            if apf.active_mask().get(0) {
                u[0] = u0;
            }
            if apf.active_mask().get(1) {
                u[1] = 0.5;
            }
            apf.observe(&u);
        }
        assert!(
            apf.active_mask().count_ones() < 4,
            "oscillating parameter never froze"
        );
        // The steadily-moving parameter must stay active.
        assert!(apf.active_mask().get(1), "steady parameter was frozen");
    }

    #[test]
    fn frozen_parameters_thaw_after_period() {
        let mut apf = Apf::new(1, cfg());
        // Drive EP below threshold right after warm-up.
        for r in 0..6 {
            let u = if r % 2 == 0 { 1.0 } else { -1.0 };
            apf.observe(&[if apf.active_mask().get(0) { u } else { 0.0 }]);
        }
        // Find the freeze.
        let mut frozen_seen = false;
        let mut thawed_after = None;
        for r in 0..30 {
            if !apf.active_mask().get(0) {
                frozen_seen = true;
            } else if frozen_seen {
                thawed_after = Some(r);
                break;
            }
            apf.observe(&[0.0]);
        }
        assert!(frozen_seen, "parameter never froze");
        assert!(thawed_after.is_some(), "parameter never thawed");
    }

    #[test]
    fn freeze_period_doubles_and_caps() {
        let mut apf = Apf::new(1, cfg());
        let mut freeze_lengths = Vec::new();
        let mut current: Option<u32> = None;
        for r in 0..200u32 {
            let active = apf.active_mask().get(0);
            match (&mut current, active) {
                (None, false) => current = Some(1),
                (Some(len), false) => *len += 1,
                (Some(len), true) => {
                    freeze_lengths.push(*len);
                    current = None;
                }
                (None, true) => {}
            }
            // While active, oscillate hard so it re-freezes immediately.
            let u = if r % 2 == 0 { 1.0 } else { -1.0 };
            apf.observe(&[if active { u } else { 0.0 }]);
        }
        assert!(freeze_lengths.len() >= 3, "freezes: {freeze_lengths:?}");
        // Non-decreasing, eventually capped at max_period.
        for w in freeze_lengths.windows(2) {
            assert!(w[1] >= w[0], "periods shrank: {freeze_lengths:?}");
        }
        assert!(
            freeze_lengths.iter().max().unwrap() <= &(cfg().max_period + 1),
            "period exceeded cap: {freeze_lengths:?}"
        );
    }

    #[test]
    fn observe_masked_is_state_identical_to_dense_observe() {
        let mut dense_apf = Apf::new(6, cfg());
        let mut packed_apf = Apf::new(6, cfg());
        for r in 0..30 {
            // Oscillate half the parameters so freezes actually happen.
            let active = dense_apf.active_mask();
            assert_eq!(active, packed_apf.active_mask());
            let sign = if r % 2 == 0 { 1.0 } else { -1.0 };
            let mut update = vec![0.0f32; 6];
            for (i, u) in update.iter_mut().enumerate() {
                if active.get(i) {
                    *u = if i < 3 { sign * 0.5 } else { 0.5 };
                }
            }
            let packed: Vec<f32> = active.iter_ones().map(|i| update[i]).collect();
            dense_apf.observe(&update);
            packed_apf.observe_masked(&packed, &active);
            for i in 0..6 {
                assert_eq!(
                    dense_apf.effective_perturbation(i).to_bits(),
                    packed_apf.effective_perturbation(i).to_bits(),
                    "round {r} position {i}"
                );
            }
        }
        assert!(dense_apf.active_mask().count_ones() < 6);
        assert_eq!(dense_apf.active_mask(), packed_apf.active_mask());
    }

    #[test]
    fn fill_active_mask_matches_active_mask() {
        let mut apf = Apf::new(4, cfg());
        for r in 0..12 {
            let u = if r % 2 == 0 { 0.7 } else { -0.7 };
            let m = apf.active_mask();
            let packed: Vec<f32> = m.iter_ones().map(|_| u).collect();
            apf.observe_masked(&packed, &m);
        }
        let mut out = gluefl_tensor::BitMask::zeros(1);
        apf.fill_active_mask(&mut out);
        assert_eq!(out, apf.active_mask());
    }

    #[test]
    fn effective_perturbation_of_steady_signal_is_one() {
        let mut apf = Apf::new(1, cfg());
        for _ in 0..10 {
            apf.observe(&[0.3]);
        }
        assert!((apf.effective_perturbation(0) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn unobserved_parameter_is_never_frozen() {
        let mut apf = Apf::new(2, cfg());
        for _ in 0..30 {
            let m = apf.active_mask();
            let mut u = vec![0.0f32; 2];
            if m.get(0) {
                u[0] = 0.0;
            } // param 0 receives exactly zero updates
            if m.get(1) {
                u[1] = 0.4;
            }
            apf.observe(&u);
        }
        // A zero-update parameter has no |update| signal → EP = 1 → active.
        assert!(apf.active_mask().get(0));
    }

    #[test]
    #[should_panic(expected = "update dimension mismatch")]
    fn observe_dimension_mismatch_panics() {
        let mut apf = Apf::new(2, cfg());
        apf.observe(&[0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "threshold must be in (0,1]")]
    fn rejects_bad_threshold() {
        let _ = Apf::new(
            1,
            ApfConfig {
                threshold: 0.0,
                ..cfg()
            },
        );
    }
}
