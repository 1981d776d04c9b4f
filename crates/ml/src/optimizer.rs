//! Minibatch SGD with momentum and step decay.

/// SGD with (heavy-ball) momentum, the paper's client optimizer
/// ("PyTorch's SGD optimizer with a momentum factor of 0.9", §5.1).
///
/// Update rule (PyTorch semantics):
/// `v ← μ·v + g` ; `w ← w − γ·v`.
///
/// Momentum buffers live in the optimizer, not the model — in federated
/// training each client builds a fresh optimizer per round, so momentum
/// spans only the `E` local steps, as in the paper's setup.
///
/// # Example
///
/// ```
/// use gluefl_ml::Sgd;
/// let mut opt = Sgd::new(2, 0.1, 0.9);
/// let mut w = vec![1.0f32, -1.0];
/// opt.step(&mut w, &[1.0, 1.0]);
/// assert_eq!(w, vec![0.9, -1.1]);
/// // Second step: momentum kicks in (v = 0.9·1 + 1 = 1.9).
/// opt.step(&mut w, &[1.0, 1.0]);
/// assert!((w[0] - (0.9 - 0.19)).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    velocity: Vec<f32>,
    lr: f32,
    momentum: f32,
}

impl Sgd {
    /// Creates an optimizer for `dim` parameters.
    ///
    /// # Panics
    /// Panics if `lr <= 0` or `momentum` is outside `[0, 1)`.
    #[must_use]
    pub fn new(dim: usize, lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        Self {
            velocity: vec![0.0; dim],
            lr,
            momentum,
        }
    }

    /// Current learning rate.
    #[must_use]
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Applies one update step in place.
    ///
    /// # Panics
    /// Panics if `params.len()` or `grad.len()` differ from the
    /// constructor's `dim`.
    pub fn step(&mut self, params: &mut [f32], grad: &[f32]) {
        sgd_momentum_step(params, grad, &mut self.velocity, self.lr, self.momentum);
    }
}

/// One SGD-with-momentum update over a caller-owned velocity buffer:
/// `v ← μ·v + g` ; `w ← w − γ·v` (PyTorch semantics, identical to
/// [`Sgd::step`] — which delegates here).
///
/// This is the pooled-buffer form used by the allocation-free training
/// path: a worker zeroes one recycled `velocity` per client
/// ([`crate::TrainScratch::reset_velocity`]) instead of allocating a
/// fresh optimizer, and the velocity carries across the client's local
/// steps exactly as the struct form would.
///
/// # Panics
/// Panics if `params`, `grad`, and `velocity` lengths differ.
pub fn sgd_momentum_step(
    params: &mut [f32],
    grad: &[f32],
    velocity: &mut [f32],
    lr: f32,
    momentum: f32,
) {
    assert_eq!(params.len(), velocity.len(), "params length mismatch");
    assert_eq!(grad.len(), velocity.len(), "grad length mismatch");
    for ((w, g), v) in params.iter_mut().zip(grad).zip(velocity.iter_mut()) {
        *v = momentum * *v + g;
        *w -= lr * *v;
    }
}

/// The paper's learning-rate schedule: `initial · decay^(round / every)`
/// with `decay = 0.98`, `every = 10` (§5.1).
///
/// # Example
/// ```
/// let lr = gluefl_ml::step_decay_lr(0.05, 0.98, 10, 25);
/// assert!((lr - 0.05 * 0.98f32.powi(2)).abs() < 1e-9);
/// ```
#[must_use]
pub fn step_decay_lr(initial: f32, decay: f32, every_rounds: u32, round: u32) -> f32 {
    initial * decay.powi((round / every_rounds.max(1)) as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_matches_hand_calculation() {
        let mut opt = Sgd::new(1, 0.5, 0.0);
        let mut w = vec![2.0f32];
        opt.step(&mut w, &[4.0]);
        assert_eq!(w, vec![0.0]);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut opt = Sgd::new(1, 1.0, 0.5);
        let mut w = vec![0.0f32];
        opt.step(&mut w, &[1.0]); // v=1, w=-1
        opt.step(&mut w, &[1.0]); // v=1.5, w=-2.5
        opt.step(&mut w, &[1.0]); // v=1.75, w=-4.25
        assert!((w[0] + 4.25).abs() < 1e-6);
    }

    #[test]
    fn zero_grad_with_momentum_still_moves() {
        let mut opt = Sgd::new(1, 1.0, 0.5);
        let mut w = vec![0.0f32];
        opt.step(&mut w, &[1.0]);
        opt.step(&mut w, &[0.0]); // coasting on momentum: v=0.5
        assert!((w[0] + 1.5).abs() < 1e-6);
    }

    #[test]
    fn lr_schedule_decays_stepwise() {
        assert_eq!(step_decay_lr(0.01, 0.98, 10, 0), 0.01);
        assert_eq!(step_decay_lr(0.01, 0.98, 10, 9), 0.01);
        assert!((step_decay_lr(0.01, 0.98, 10, 10) - 0.0098).abs() < 1e-9);
        assert!((step_decay_lr(0.01, 0.98, 10, 100) - 0.01 * 0.98f32.powi(10)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_zero_lr() {
        let _ = Sgd::new(1, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "momentum must be in [0,1)")]
    fn rejects_momentum_one() {
        let _ = Sgd::new(1, 0.1, 1.0);
    }

    /// Pins the update rule across velocity reuse: the pooled free-fn
    /// form over one recycled buffer must match the struct form bit for
    /// bit on every step, so the allocation-free refactor cannot silently
    /// change SGD semantics.
    #[test]
    fn pooled_velocity_matches_struct_bitwise_across_steps() {
        let grads: [Vec<f32>; 4] = [
            vec![0.3, -1.2, 0.0],
            vec![-0.7, 0.4, 2.5],
            vec![0.0, 0.0, -0.1],
            vec![1.5, -0.5, 0.25],
        ];
        let mut opt = Sgd::new(3, 0.1, 0.9);
        let mut w_struct = vec![1.0f32, -2.0, 0.5];
        let mut w_pool = w_struct.clone();
        let mut velocity = vec![7.0f32; 3]; // stale values from a previous client
        velocity.fill(0.0); // the per-client reset
        for (step, g) in grads.iter().enumerate() {
            opt.step(&mut w_struct, g);
            sgd_momentum_step(&mut w_pool, g, &mut velocity, 0.1, 0.9);
            assert!(
                w_struct
                    .iter()
                    .zip(&w_pool)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "diverged at step {step}: {w_struct:?} vs {w_pool:?}"
            );
        }
        // Velocity genuinely accumulated (momentum > 0, nonzero grads).
        assert!(velocity.iter().any(|v| *v != 0.0));
    }

    /// Hand-computed velocity accumulation for the free-fn form — the
    /// same arithmetic [`Sgd`]'s doc example pins for the struct form.
    #[test]
    fn free_fn_velocity_accumulates_by_hand() {
        let mut w = vec![0.0f32];
        let mut v = vec![0.0f32];
        sgd_momentum_step(&mut w, &[1.0], &mut v, 1.0, 0.5); // v=1, w=-1
        sgd_momentum_step(&mut w, &[1.0], &mut v, 1.0, 0.5); // v=1.5, w=-2.5
        sgd_momentum_step(&mut w, &[0.0], &mut v, 1.0, 0.5); // coasting: v=0.75
        assert!((w[0] + 3.25).abs() < 1e-6);
        assert!((v[0] - 0.75).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "grad length mismatch")]
    fn free_fn_rejects_length_mismatch() {
        let mut w = vec![0.0f32; 2];
        let mut v = vec![0.0f32; 2];
        sgd_momentum_step(&mut w, &[1.0], &mut v, 0.1, 0.0);
    }
}
