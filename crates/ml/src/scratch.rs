//! Pooled training workspace: every buffer one SGD step needs.
//!
//! A [`TrainScratch`] owns the activations, per-layer backward caches,
//! logit/gradient buffers, SGD velocity, and minibatch staging arrays used
//! by the `_into` training kernels on [`crate::MlpTopology`]
//! ([`crate::MlpTopology::train_delta_into`],
//! [`crate::MlpTopology::loss_and_grad_into`] and friends). Callers keep
//! one scratch per worker and thread it through every step; after
//! [`TrainScratch::ensure`] has sized the buffers once, a steady-state
//! minibatch step performs **no heap allocation** — the contract the
//! federated simulator's client loop relies on.
//!
//! The scratch is model-shape agnostic: `ensure` re-sizes for whatever
//! `(topology, batch)` pair it is handed, so one pooled scratch can serve
//! clients of different models across rounds (buffers only grow). The
//! two `d`-sized buffers are sized by the paths that use them, not by
//! `ensure`: the velocity by the optimizer steps, the flat gradient only
//! by the reference path that materialises it
//! ([`crate::MlpTopology::loss_and_grad_into`]) — local training never
//! stores a gradient, and evaluation needs neither. Evaluation sizes
//! only the forward buffers, for one block of
//! [`crate::EVAL_BLOCK_ROWS`] rows, whatever the labelled set's size.
//!
//! A [`TrainSlot`] is what one training worker holds: a scratch plus the
//! client's working weights. It is independent of how many clients the
//! worker serves — one client's whole training state (458 KB at the
//! paper shape) stays cache-resident while the cohort streams through.

use crate::mlp::MlpTopology;
use crate::optimizer::sgd_momentum_step;

/// Per-hidden-layer forward caches reused across minibatch steps.
///
/// Mirrors what the backward pass needs: the post-activation output (the
/// next layer's input), the ReLU mask, and — when the layer has BatchNorm —
/// the batch statistics and normalised activations.
#[derive(Debug, Default, Clone)]
pub(crate) struct LayerScratch {
    /// Pre-BatchNorm linear output, `batch × h`.
    pub(crate) z: Vec<f32>,
    /// Post-(BN+)ReLU activations, `batch × h` (input to the next layer).
    pub(crate) act: Vec<f32>,
    /// ReLU pass-through mask, `batch × h`.
    pub(crate) relu_mask: Vec<bool>,
    /// BN batch mean, `h` (kept until the deferred running-stat update).
    pub(crate) mu: Vec<f32>,
    /// BN batch variance, `h`.
    pub(crate) var: Vec<f32>,
    /// BN `1/√(var+ε)`, `h`.
    pub(crate) inv_std: Vec<f32>,
    /// BN normalised activations, `batch × h`.
    pub(crate) x_hat: Vec<f32>,
}

/// Reusable workspace for allocation-free training steps.
///
/// One scratch per worker: size it with [`TrainScratch::ensure`] (every
/// `_into` kernel does so itself), then thread it through
/// [`crate::MlpTopology::loss_and_grad_into`] /
/// [`TrainScratch::sgd_step`]; after the buffers have grown to the
/// working set, a steady-state minibatch step performs no heap
/// allocation.
#[derive(Debug, Default, Clone)]
pub struct TrainScratch {
    /// One cache bundle per hidden layer.
    pub(crate) layers: Vec<LayerScratch>,
    /// Raw logits → log-probabilities (in place), `batch × classes`.
    pub(crate) logits: Vec<f32>,
    /// Loss gradient w.r.t. the logits, `batch × classes`.
    pub(crate) d_logits: Vec<f32>,
    /// Flat parameter gradient, `d` (valid after a `loss_and_grad_into`,
    /// the only path that sizes it).
    pub(crate) grad: Vec<f32>,
    /// SGD momentum buffer, `d` (reset per client, reused across steps).
    pub(crate) velocity: Vec<f32>,
    /// Fused-step gradients of everything outside the weight matrices:
    /// one buffer per linear layer, covering [`MlpTopology::tail`].
    pub(crate) tail_grads: Vec<Vec<f32>>,
    /// Rotating activation-gradient buffers for the backward pass.
    pub(crate) d_bufs: [Vec<f32>; 3],
    /// BN backward per-feature reduction `Σ dy`, `max hidden width`.
    pub(crate) sum_dy: Vec<f32>,
    /// BN backward per-feature reduction `Σ dy·x̂`, `max hidden width`.
    pub(crate) sum_dy_xhat: Vec<f32>,
    /// Minibatch feature staging for `sample_batch_into`-style fillers.
    pub batch_x: Vec<f32>,
    /// Minibatch label staging.
    pub batch_y: Vec<usize>,
}

/// Resizes `buf` to exactly `len` without shrinking capacity; contents are
/// unspecified afterwards (callers fully overwrite or explicitly zero).
pub(crate) fn size_to(buf: &mut Vec<f32>, len: usize) {
    if buf.len() != len {
        buf.clear();
        buf.resize(len, 0.0);
    }
}

/// Grows `buf`'s *total* capacity to at least `cap` (unlike
/// [`Vec::reserve`], which reserves on top of the current length and
/// would re-allocate a warm buffer on every call).
pub(crate) fn reserve_total(buf: &mut Vec<f32>, cap: usize) {
    if buf.capacity() < cap {
        buf.reserve(cap - buf.len());
    }
}

/// One training worker's workspace: the client's working weights plus
/// the [`TrainScratch`] holding activations, backward caches, velocity
/// and minibatch staging. A worker reuses one slot for every client it
/// trains ([`crate::MlpTopology::train_delta_into`] leaves nothing of
/// one client behind for the next), so steady-state local training
/// allocates nothing.
#[derive(Debug, Default)]
pub struct TrainSlot {
    /// The client's weights between its first and last local step; with
    /// a single step, only the vector-sized ranges are ever written.
    pub params: Vec<f32>,
    /// The worker's reusable training buffers.
    pub scratch: TrainScratch,
}

impl TrainSlot {
    /// Creates an empty slot; buffers are sized by the first client.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// The workspace the cohort entry point takes: the per-worker
/// [`TrainSlot`] under the name it had when a cohort was trained as one
/// stacked batch. It holds one client's state, whatever the cohort size.
pub type BatchTrainScratch = TrainSlot;

impl TrainScratch {
    /// Creates an empty scratch; buffers are sized lazily by
    /// [`TrainScratch::ensure`] (which every `_into` kernel calls).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes every buffer for one `(topology, batch)` shape. Idempotent
    /// and allocation-free once capacities have grown to the working set.
    pub fn ensure(&mut self, topo: &MlpTopology, batch: usize) {
        self.ensure_forward(topo, batch);
        let cfg = topo.config();
        let max_h = cfg.hidden.iter().copied().max().unwrap_or(0);
        size_to(&mut self.d_logits, batch * cfg.classes);
        for d in &mut self.d_bufs {
            reserve_total(d, batch * cfg.input_dim.max(max_h).max(cfg.classes));
        }
        reserve_total(&mut self.sum_dy, max_h);
        reserve_total(&mut self.sum_dy_xhat, max_h);
        // `batch_x`/`batch_y` are deliberately NOT reserved here: callers
        // `mem::take` them around the step loop (the fields are empty
        // placeholders meanwhile), so reserving would allocate a buffer
        // that gets dropped when the warm one is put back.
    }

    /// Sizes only what a forward pass of `batch` rows writes: the
    /// per-layer caches and the logits. Evaluation needs nothing more, so
    /// it leaves the backward buffers as they are.
    pub(crate) fn ensure_forward(&mut self, topo: &MlpTopology, batch: usize) {
        let cfg = topo.config();
        let n_hidden = cfg.hidden.len();
        if self.layers.len() != n_hidden {
            self.layers.clear();
            self.layers.resize(n_hidden, LayerScratch::default());
        }
        for (ls, &h) in self.layers.iter_mut().zip(&cfg.hidden) {
            size_to(&mut ls.z, batch * h);
            size_to(&mut ls.act, batch * h);
            if ls.relu_mask.len() != batch * h {
                ls.relu_mask.clear();
                ls.relu_mask.resize(batch * h, false);
            }
            size_to(&mut ls.mu, h);
            size_to(&mut ls.var, h);
            size_to(&mut ls.inv_std, h);
            size_to(&mut ls.x_hat, batch * h);
        }
        size_to(&mut self.logits, batch * cfg.classes);
    }

    /// The flat parameter gradient written by the last
    /// [`crate::MlpTopology::loss_and_grad_into`] call.
    #[must_use]
    pub fn grad(&self) -> &[f32] {
        &self.grad
    }

    /// The row-wise log-probabilities left by the last forward pass.
    #[must_use]
    pub fn logits(&self) -> &[f32] {
        &self.logits
    }

    /// Zeroes the pooled momentum buffer — call once per client so a
    /// recycled scratch behaves exactly like a fresh [`crate::Sgd`].
    pub fn reset_velocity(&mut self) {
        self.velocity.fill(0.0);
    }

    /// One SGD-with-momentum update from the scratch's gradient and
    /// pooled velocity: `v ← μ·v + g`, `w ← w − γ·v` — bit-identical to
    /// [`crate::Sgd::step`] on a fresh optimizer after
    /// [`TrainScratch::reset_velocity`].
    ///
    /// # Panics
    /// Panics if `params.len()` differs from the gradient length.
    pub fn sgd_step(&mut self, params: &mut [f32], lr: f32, momentum: f32) {
        size_to(&mut self.velocity, params.len());
        sgd_momentum_step(params, &self.grad, &mut self.velocity, lr, momentum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mlp, MlpConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn topo(batch_norm: bool) -> Mlp {
        let mut rng = StdRng::seed_from_u64(1);
        Mlp::new(
            MlpConfig {
                input_dim: 5,
                hidden: vec![7, 6],
                classes: 4,
                batch_norm,
            },
            &mut rng,
        )
    }

    #[test]
    fn ensure_sizes_all_buffers() {
        let m = topo(true);
        let mut s = TrainScratch::new();
        s.ensure(m.topology(), 3);
        assert_eq!(s.layers.len(), 2);
        assert_eq!(s.layers[0].z.len(), 3 * 7);
        assert_eq!(s.layers[1].act.len(), 3 * 6);
        assert_eq!(s.logits.len(), 3 * 4);
        // The d-sized buffers belong to the paths that use them.
        assert!(s.grad.is_empty() && s.velocity.is_empty());
    }

    #[test]
    fn ensure_is_idempotent_and_pointer_stable() {
        let m = topo(true);
        let mut s = TrainScratch::new();
        s.ensure(m.topology(), 4);
        let logits_ptr = s.logits.as_ptr();
        let z_ptr = s.layers[0].z.as_ptr();
        s.ensure(m.topology(), 4);
        assert_eq!(s.logits.as_ptr(), logits_ptr);
        assert_eq!(s.layers[0].z.as_ptr(), z_ptr);
    }

    #[test]
    fn ensure_adapts_to_batch_changes() {
        let m = topo(false);
        let mut s = TrainScratch::new();
        s.ensure(m.topology(), 2);
        assert_eq!(s.logits.len(), 2 * 4);
        s.ensure(m.topology(), 8);
        assert_eq!(s.logits.len(), 8 * 4);
        assert_eq!(s.layers[1].relu_mask.len(), 8 * 6);
    }

    /// `ensure` no longer sizes the velocity; the first optimizer step
    /// does, starting it at zero like a fresh [`crate::Sgd`].
    #[test]
    fn sgd_step_sizes_a_zero_velocity_on_first_use() {
        let mut m = topo(true);
        let (x, y) = (vec![0.25f32; 5 * 2], vec![1usize, 3]);
        let mut s = TrainScratch::new();
        let _ = m.loss_and_grad_into(&x, &y, &mut s);
        let mut want = m.params().to_vec();
        crate::Sgd::new(want.len(), 0.1, 0.9).step(&mut want, s.grad());
        s.sgd_step(m.params_mut(), 0.1, 0.9);
        assert_eq!(m.params(), &want[..]);
        assert_eq!(s.velocity.len(), want.len());
    }

    #[test]
    fn reset_velocity_zeroes_pool() {
        let m = topo(false);
        let mut s = TrainScratch::new();
        s.velocity.resize(m.num_params(), 3.0);
        s.reset_velocity();
        assert!(s.velocity.iter().all(|v| *v == 0.0));
    }
}
