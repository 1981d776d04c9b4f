//! Multi-layer perceptron with optional BatchNorm over flat parameters.
//!
//! The model is split into two halves so federated simulations can train
//! many clients without deep-cloning anything:
//!
//! * [`MlpTopology`] — immutable architecture: config, [`ParamLayout`],
//!   and per-layer offsets into the flat parameter vector. Shared by
//!   reference across every client (and across worker threads).
//! * a flat `Vec<f32>` parameter buffer — a client "clone" is a
//!   `copy_from_slice` into a pooled buffer.
//!
//! [`Mlp`] bundles the two for convenience APIs; the hot path is the
//! `_into` kernel family on [`MlpTopology`]
//! ([`MlpTopology::loss_and_grad_into`], [`MlpTopology::evaluate_into`]),
//! which writes activations, caches, gradients, and velocity into a
//! caller-owned [`TrainScratch`] and performs no steady-state heap
//! allocation per minibatch step.

use crate::init::kaiming_uniform;
use crate::layout::{ParamKind, ParamLayout};
use crate::loss::{accuracy, log_softmax_rows, nll_and_grad, top5_accuracy};
use crate::scratch::{LayerScratch, TrainScratch};
use gluefl_tensor::gemm;
use rand::Rng;

/// Configuration of an [`Mlp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlpConfig {
    /// Input feature dimension.
    pub input_dim: usize,
    /// Hidden layer widths (empty = multinomial logistic regression).
    pub hidden: Vec<usize>,
    /// Number of output classes.
    pub classes: usize,
    /// Insert a BatchNorm after each hidden linear layer.
    pub batch_norm: bool,
}

/// Offsets of one linear layer inside the flat parameter vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LinearSpec {
    pub(crate) in_dim: usize,
    pub(crate) out_dim: usize,
    /// Weight matrix `[out_dim × in_dim]`, row-major.
    pub(crate) w_off: usize,
    /// Bias vector `[out_dim]`.
    pub(crate) b_off: usize,
}

/// Offsets and hyper-parameters of one BatchNorm layer.
///
/// Five parameter groups, mirroring `torch.nn.BatchNorm1d` (paper
/// Appendix D): trainable `weight` (gamma) and `bias` (beta), plus the
/// non-trainable statistics `running_mean`, `running_var`, and
/// `num_batches_tracked` (stored as a single f32 count).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchNorm {
    pub(crate) dim: usize,
    pub(crate) gamma_off: usize,
    pub(crate) beta_off: usize,
    pub(crate) mean_off: usize,
    pub(crate) var_off: usize,
    pub(crate) count_off: usize,
    /// Running-statistics update rate (PyTorch default 0.1).
    pub momentum: f32,
    /// Variance epsilon (PyTorch default 1e-5).
    pub eps: f32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Batch statistics; optionally update running statistics afterwards.
    Train { update_stats: bool },
    /// Running statistics; no side effects.
    Eval,
}

/// Evaluation metrics produced by [`Mlp::evaluate`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EvalMetrics {
    /// Mean cross-entropy loss.
    pub loss: f64,
    /// Top-1 accuracy in `[0, 1]`.
    pub top1: f64,
    /// Top-5 accuracy in `[0, 1]`.
    pub top5: f64,
}

/// The immutable architecture of an [`Mlp`]: configuration, flat-parameter
/// layout, and per-layer offsets.
///
/// A topology is built once ([`MlpTopology::new`]) and shared by reference —
/// it is `Sync`, so parallel client training hands `&MlpTopology` to every
/// worker thread and each worker brings its own parameter buffer and
/// [`TrainScratch`]. All training/eval kernels live here; [`Mlp`] wraps
/// them for the single-model case.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpTopology {
    cfg: MlpConfig,
    layout: ParamLayout,
    pub(crate) linears: Vec<LinearSpec>,
    pub(crate) bns: Vec<Option<BatchNorm>>,
}

/// A multi-layer perceptron over one flat `Vec<f32>` parameter vector.
///
/// Architecture: `[Linear → (BatchNorm) → ReLU] × hidden.len() → Linear`,
/// trained with softmax cross-entropy. All parameters — including the
/// BatchNorm running statistics — live in a single flat vector exposed via
/// [`Mlp::params`], so federated-learning code can mask, sparsify, diff,
/// and aggregate positions without knowing the architecture.
///
/// # Example
///
/// ```
/// use gluefl_ml::{Mlp, MlpConfig};
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let model = Mlp::new(
///     MlpConfig { input_dim: 4, hidden: vec![8], classes: 3, batch_norm: false },
///     &mut rng,
/// );
/// // 4·8 + 8 weights+bias, 8·3 + 3 output layer.
/// assert_eq!(model.num_params(), 4 * 8 + 8 + 8 * 3 + 3);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    topo: MlpTopology,
    params: Vec<f32>,
}

impl MlpTopology {
    /// The model configuration.
    #[must_use]
    pub fn config(&self) -> &MlpConfig {
        &self.cfg
    }

    /// The flat-parameter layout (trainable vs BN-statistic positions).
    #[must_use]
    pub fn layout(&self) -> &ParamLayout {
        &self.layout
    }

    /// Total number of flat parameters `d`.
    #[must_use]
    pub fn num_params(&self) -> usize {
        self.layout.total()
    }

    /// The flat range that follows linear layer `i`'s weight matrix up to
    /// the next layer's: its bias and, for a hidden layer with
    /// BatchNorm, γ, β and the running statistics — everything of the
    /// layer that is vector-sized rather than matrix-sized.
    pub(crate) fn tail(&self, i: usize) -> std::ops::Range<usize> {
        let lin = self.linears[i];
        debug_assert_eq!(lin.b_off, lin.w_off + lin.in_dim * lin.out_dim);
        let end = self
            .linears
            .get(i + 1)
            .map_or(self.num_params(), |next| next.w_off);
        lin.b_off..end
    }

    pub(crate) fn check_params(&self, params: &[f32]) {
        assert_eq!(params.len(), self.num_params(), "parameter length mismatch");
    }

    pub(crate) fn check_batch(&self, x: &[f32], y: &[usize]) -> usize {
        assert_eq!(x.len() % self.cfg.input_dim, 0, "input shape mismatch");
        let batch = x.len() / self.cfg.input_dim;
        assert_eq!(batch, y.len(), "batch/label count mismatch");
        batch
    }

    /// Mean loss and flat gradient on one minibatch, in training mode
    /// (BatchNorm uses batch statistics and updates the running
    /// statistics inside `params`, mirroring a PyTorch training step).
    ///
    /// The gradient is left in [`TrainScratch::grad`] — entries at
    /// BN-statistic positions are zero. After the scratch has been sized
    /// by a first call (see [`TrainScratch::ensure`]) this performs no
    /// heap allocation.
    ///
    /// # Panics
    /// Panics if `params.len() != num_params()`, `x.len()` is not a
    /// multiple of `input_dim`, the implied batch size differs from
    /// `y.len()`, or a label is out of range.
    pub fn loss_and_grad_into(
        &self,
        params: &mut [f32],
        x: &[f32],
        y: &[usize],
        scratch: &mut TrainScratch,
    ) -> f64 {
        self.loss_and_grad_mode_into(params, x, y, Mode::Train { update_stats: true }, scratch)
    }

    /// Like [`MlpTopology::loss_and_grad_into`] but *without* the
    /// running-statistics side effect (finite-difference tests, line
    /// searches).
    pub fn loss_and_grad_frozen_into(
        &self,
        params: &mut [f32],
        x: &[f32],
        y: &[usize],
        scratch: &mut TrainScratch,
    ) -> f64 {
        self.loss_and_grad_mode_into(
            params,
            x,
            y,
            Mode::Train {
                update_stats: false,
            },
            scratch,
        )
    }

    /// Training-mode loss only (batch statistics, no side effects, no
    /// gradient work).
    #[must_use]
    pub fn training_loss_into(
        &self,
        params: &[f32],
        x: &[f32],
        y: &[usize],
        scratch: &mut TrainScratch,
    ) -> f64 {
        self.check_params(params);
        let batch = self.check_batch(x, y);
        scratch.ensure(self, batch);
        let TrainScratch {
            layers,
            logits,
            d_logits,
            ..
        } = scratch;
        self.forward_into(
            params,
            x,
            batch,
            Mode::Train {
                update_stats: false,
            },
            layers,
            logits,
        );
        log_softmax_rows(logits, batch, self.cfg.classes);
        nll_and_grad(logits, y, self.cfg.classes, d_logits)
    }

    /// Evaluates loss / top-1 / top-5 on a labelled set, in eval mode
    /// (running statistics, no side effects, no model clone).
    ///
    /// # Panics
    /// Panics on shape mismatches.
    #[must_use]
    pub fn evaluate_into(
        &self,
        params: &[f32],
        x: &[f32],
        y: &[usize],
        scratch: &mut TrainScratch,
    ) -> EvalMetrics {
        self.check_params(params);
        let batch = self.check_batch(x, y);
        if batch == 0 {
            return EvalMetrics::default();
        }
        scratch.ensure(self, batch);
        let TrainScratch {
            layers,
            logits,
            d_logits,
            ..
        } = scratch;
        self.forward_into(params, x, batch, Mode::Eval, layers, logits);
        log_softmax_rows(logits, batch, self.cfg.classes);
        let loss = nll_and_grad(logits, y, self.cfg.classes, d_logits);
        EvalMetrics {
            loss,
            top1: accuracy(logits, y, self.cfg.classes),
            top5: top5_accuracy(logits, y, self.cfg.classes),
        }
    }

    /// Row-wise log-probabilities in eval mode, left in (and returned
    /// from) the scratch's logit buffer.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn predict_log_probs_into<'s>(
        &self,
        params: &[f32],
        x: &[f32],
        scratch: &'s mut TrainScratch,
    ) -> &'s [f32] {
        self.check_params(params);
        assert_eq!(x.len() % self.cfg.input_dim, 0, "input shape mismatch");
        let batch = x.len() / self.cfg.input_dim;
        scratch.ensure(self, batch);
        let TrainScratch { layers, logits, .. } = scratch;
        self.forward_into(params, x, batch, Mode::Eval, layers, logits);
        log_softmax_rows(logits, batch, self.cfg.classes);
        logits
    }

    fn loss_and_grad_mode_into(
        &self,
        params: &mut [f32],
        x: &[f32],
        y: &[usize],
        mode: Mode,
        scratch: &mut TrainScratch,
    ) -> f64 {
        self.check_params(params);
        let batch = self.check_batch(x, y);
        let classes = self.cfg.classes;
        scratch.ensure(self, batch);
        let TrainScratch {
            layers,
            logits,
            d_logits,
            grad,
            d_bufs,
            sum_dy,
            sum_dy_xhat,
            ..
        } = scratch;
        self.forward_into(params, x, batch, mode, layers, logits);
        log_softmax_rows(logits, batch, classes);
        let loss = nll_and_grad(logits, y, classes, d_logits);
        // Only this path materialises the gradient, so only it sizes it.
        grad.clear();
        grad.resize(params.len(), 0.0);
        self.backward_into(
            params,
            x,
            batch,
            layers,
            d_logits,
            grad,
            d_bufs,
            sum_dy,
            sum_dy_xhat,
        );
        // The running-statistics update is deferred to after the backward
        // pass: nothing in training mode *reads* the running statistics,
        // and the BN-statistic positions are disjoint from the weights, so
        // the result is bit-identical to updating them mid-forward — but
        // the forward/backward kernels get to borrow `params` immutably.
        if let Mode::Train { update_stats: true } = mode {
            self.apply_bn_stat_updates(params, batch, layers);
        }
        loss
    }

    /// Runs the forward pass, writing raw logits into `logits` and the
    /// backward caches into `layers`. Reads `params` only.
    pub(crate) fn forward_into(
        &self,
        params: &[f32],
        x: &[f32],
        batch: usize,
        mode: Mode,
        layers: &mut [LayerScratch],
        logits: &mut [f32],
    ) {
        let n_hidden = self.cfg.hidden.len();
        for i in 0..n_hidden {
            let (done, rest) = layers.split_at_mut(i);
            let ls = &mut rest[0];
            let input: &[f32] = if i == 0 { x } else { &done[i - 1].act };
            let lin = self.linears[i];
            linear_forward_into(params, lin, input, batch, &mut ls.z);
            match self.bns[i] {
                Some(bn) => bn_forward_into(
                    params,
                    bn,
                    &ls.z,
                    batch,
                    mode,
                    &mut ls.mu,
                    &mut ls.var,
                    &mut ls.inv_std,
                    &mut ls.x_hat,
                    &mut ls.act,
                ),
                None => ls.act.copy_from_slice(&ls.z),
            }
            // ReLU (records the pass-through mask for the backward pass).
            for (v, m) in ls.act.iter_mut().zip(ls.relu_mask.iter_mut()) {
                *m = *v > 0.0;
                if !*m {
                    *v = 0.0;
                }
            }
        }
        let out_lin = *self.linears.last().expect("output layer exists");
        let input: &[f32] = if n_hidden == 0 {
            x
        } else {
            &layers[n_hidden - 1].act
        };
        linear_forward_into(params, out_lin, input, batch, logits);
    }

    /// Backward pass: accumulates the flat gradient into `grad`
    /// (pre-zeroed by the caller) from the caches written by
    /// [`MlpTopology::forward_into`].
    #[allow(clippy::too_many_arguments)]
    fn backward_into(
        &self,
        params: &[f32],
        x: &[f32],
        batch: usize,
        layers: &[LayerScratch],
        d_logits: &[f32],
        grad: &mut [f32],
        d_bufs: &mut [Vec<f32>; 3],
        sum_dy: &mut Vec<f32>,
        sum_dy_xhat: &mut Vec<f32>,
    ) {
        let n_hidden = self.cfg.hidden.len();
        let out_lin = *self.linears.last().expect("output layer exists");
        let out_input: &[f32] = if n_hidden == 0 {
            x
        } else {
            &layers[n_hidden - 1].act
        };
        let [buf_a, buf_b, buf_c] = d_bufs;
        linear_backward_into(params, out_lin, out_input, batch, d_logits, grad, buf_a);
        // Three activation-gradient buffers rotate through the layers:
        // `d_cur` holds d(activation), `d_bn` receives the BN backward
        // output, `d_next` receives the next (earlier) layer's d(input).
        let mut d_cur: &mut Vec<f32> = buf_a;
        let mut d_bn: &mut Vec<f32> = buf_b;
        let mut d_next: &mut Vec<f32> = buf_c;
        for i in (0..n_hidden).rev() {
            let ls = &layers[i];
            relu_backward(d_cur, &ls.relu_mask);
            // BatchNorm backward.
            let d_pre: &[f32] = match self.bns[i] {
                Some(bn) => {
                    d_bn.clear();
                    d_bn.resize(batch * bn.dim, 0.0);
                    let (d_gamma, d_beta) =
                        grad[bn.gamma_off..bn.beta_off + bn.dim].split_at_mut(bn.dim);
                    bn_backward_into(
                        &params[bn.gamma_off..bn.gamma_off + bn.dim],
                        &ls.x_hat,
                        &ls.inv_std,
                        batch,
                        d_cur,
                        d_gamma,
                        d_beta,
                        sum_dy,
                        sum_dy_xhat,
                        d_bn,
                    );
                    d_bn
                }
                None => d_cur,
            };
            // Linear backward.
            let input: &[f32] = if i == 0 { x } else { &layers[i - 1].act };
            linear_backward_into(params, self.linears[i], input, batch, d_pre, grad, d_next);
            let freed = d_cur;
            d_cur = d_next;
            d_next = d_bn;
            d_bn = freed;
        }
    }

    /// Applies the deferred BatchNorm running-statistics updates (PyTorch
    /// semantics: `running ← (1−m)·running + m·batch_stat`, unbiased
    /// variance, `num_batches_tracked += 1`).
    pub(crate) fn apply_bn_stat_updates(
        &self,
        params: &mut [f32],
        batch: usize,
        layers: &[LayerScratch],
    ) {
        let unbias = if batch > 1 {
            batch as f32 / (batch as f32 - 1.0)
        } else {
            1.0
        };
        for (bn, ls) in self.bns.iter().zip(layers) {
            let Some(bn) = bn else { continue };
            let m = bn.momentum;
            for o in 0..bn.dim {
                let rm = &mut params[bn.mean_off + o];
                *rm = (1.0 - m) * *rm + m * ls.mu[o];
                let rv = &mut params[bn.var_off + o];
                *rv = (1.0 - m) * *rv + m * ls.var[o] * unbias;
            }
            params[bn.count_off] += 1.0;
        }
    }
}

/// `out[r] = W · input[r] + b` for every row, written into the pre-sized
/// `out` slice (`batch × out_dim`).
///
/// A thin shim over the blocked [`gemm::gemm_nn`] kernel (`out = x·Wᵀ + b`,
/// the forward layout). Bit-identical to the per-element loop it replaced
/// — the GEMM preserves every output's reduction order — and large eval
/// batches shard row blocks across threads inside the kernel.
fn linear_forward_into(
    params: &[f32],
    lin: LinearSpec,
    input: &[f32],
    batch: usize,
    out: &mut [f32],
) {
    let w = &params[lin.w_off..lin.w_off + lin.in_dim * lin.out_dim];
    let b = &params[lin.b_off..lin.b_off + lin.out_dim];
    gemm::gemm_nn(input, w, b, batch, lin.out_dim, lin.in_dim, out);
}

/// Accumulates dW, db into `grad` and writes d(input) into `d_in`
/// (cleared and re-sized in place — allocation-free once capacity has
/// grown to the widest layer).
///
/// Two blocked GEMM calls plus a bias-column reduction: the weight
/// gradient is the accumulating [`gemm::gemm_nt`] (`dW += d_outᵀ·x`) and
/// the input gradient is [`gemm::gemm_tn`] (`d_in = d_out·W`). The old
/// fused per-element loop interleaved the three products; splitting them
/// changes no per-element reduction order (db over rows ascending, dW
/// over rows ascending on top of the existing gradient, d_in over output
/// features ascending from zero), so the bits are unchanged.
fn linear_backward_into(
    params: &[f32],
    lin: LinearSpec,
    input: &[f32],
    batch: usize,
    d_out: &[f32],
    grad: &mut [f32],
    d_in: &mut Vec<f32>,
) {
    let w = &params[lin.w_off..lin.w_off + lin.in_dim * lin.out_dim];
    d_in.clear();
    d_in.resize(batch * lin.in_dim, 0.0);
    // Disjoint gradient ranges (asserted at layout-build time).
    debug_assert!(lin.b_off >= lin.w_off + lin.in_dim * lin.out_dim || lin.b_off < lin.w_off);
    bias_grad_into(d_out, &mut grad[lin.b_off..lin.b_off + lin.out_dim]);
    let gw = &mut grad[lin.w_off..lin.w_off + lin.in_dim * lin.out_dim];
    gemm::gemm_nt(d_out, input, batch, lin.out_dim, lin.in_dim, gw);
    gemm::gemm_tn(d_out, w, batch, lin.out_dim, lin.in_dim, d_in);
}

/// Accumulates the bias gradient — `d_out`'s column sums, rows
/// ascending — into `gb` (one entry per output feature).
pub(crate) fn bias_grad_into(d_out: &[f32], gb: &mut [f32]) {
    for drow in d_out.chunks_exact(gb.len()) {
        for (g, &d) in gb.iter_mut().zip(drow) {
            *g += d;
        }
    }
}

/// ReLU backward: zeroes the activation gradient wherever the forward
/// pass clamped.
pub(crate) fn relu_backward(d: &mut [f32], relu_mask: &[bool]) {
    for (d, &m) in d.iter_mut().zip(relu_mask) {
        if !m {
            *d = 0.0;
        }
    }
}

/// BatchNorm forward into pre-sized scratch slices. In training mode the
/// batch statistics are left in `mu`/`var` for the caller's deferred
/// running-statistics update; `params` is only read.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bn_forward_into(
    params: &[f32],
    bn: BatchNorm,
    z: &[f32],
    batch: usize,
    mode: Mode,
    mu: &mut [f32],
    var: &mut [f32],
    inv_std: &mut [f32],
    x_hat: &mut [f32],
    out: &mut [f32],
) {
    let dim = bn.dim;
    match mode {
        Mode::Train { .. } => {
            mu.fill(0.0);
            var.fill(0.0);
            let inv_b = 1.0 / batch as f32;
            for r in 0..batch {
                for (o, m) in mu.iter_mut().enumerate() {
                    *m += z[r * dim + o] * inv_b;
                }
            }
            for r in 0..batch {
                for (o, v) in var.iter_mut().enumerate() {
                    let d = z[r * dim + o] - mu[o];
                    *v += d * d * inv_b;
                }
            }
        }
        Mode::Eval => {
            mu.copy_from_slice(&params[bn.mean_off..bn.mean_off + dim]);
            var.copy_from_slice(&params[bn.var_off..bn.var_off + dim]);
        }
    }
    for (s, v) in inv_std.iter_mut().zip(var.iter()) {
        *s = 1.0 / (v + bn.eps).sqrt();
    }
    let gamma = &params[bn.gamma_off..bn.gamma_off + dim];
    let beta = &params[bn.beta_off..bn.beta_off + dim];
    for r in 0..batch {
        for o in 0..dim {
            let xh = (z[r * dim + o] - mu[o]) * inv_std[o];
            x_hat[r * dim + o] = xh;
            out[r * dim + o] = gamma[o] * xh + beta[o];
        }
    }
}

/// BatchNorm backward (training mode, batch statistics). Accumulates
/// dγ, dβ into `d_gamma` / `d_beta` and writes d(pre-BN input) into the
/// pre-sized `d_in` slice (`batch × dim`, fully overwritten). `gamma` is
/// the layer's (pre-update) scale vector; its length is the layer width.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bn_backward_into(
    gamma: &[f32],
    x_hat: &[f32],
    inv_std: &[f32],
    batch: usize,
    d_out: &[f32],
    d_gamma: &mut [f32],
    d_beta: &mut [f32],
    sum_dy: &mut Vec<f32>,
    sum_dy_xhat: &mut Vec<f32>,
    d_in: &mut [f32],
) {
    let dim = gamma.len();
    let b = batch as f32;
    // Per-feature reductions.
    sum_dy.clear();
    sum_dy.resize(dim, 0.0);
    sum_dy_xhat.clear();
    sum_dy_xhat.resize(dim, 0.0);
    for r in 0..batch {
        for o in 0..dim {
            let dy = d_out[r * dim + o];
            sum_dy[o] += dy;
            sum_dy_xhat[o] += dy * x_hat[r * dim + o];
        }
    }
    for o in 0..dim {
        d_gamma[o] += sum_dy_xhat[o];
        d_beta[o] += sum_dy[o];
    }
    assert_eq!(d_in.len(), batch * dim, "BN backward d_in shape mismatch");
    for r in 0..batch {
        for o in 0..dim {
            let dy = d_out[r * dim + o];
            let xh = x_hat[r * dim + o];
            d_in[r * dim + o] =
                gamma[o] * inv_std[o] / b * (b * dy - sum_dy[o] - xh * sum_dy_xhat[o]);
        }
    }
}

impl MlpTopology {
    /// Lays out the architecture of `cfg` — parameter groups, flat
    /// offsets, trainable vs BN-statistic positions — without allocating
    /// or drawing any weights: everything a client that receives its
    /// weights over the wire needs. [`Mlp::new`] is this plus the
    /// initial weights.
    ///
    /// # Panics
    /// Panics if `input_dim == 0`, `classes == 0` or a hidden width is 0.
    #[must_use]
    pub fn new(cfg: MlpConfig) -> Self {
        assert!(cfg.input_dim > 0, "input_dim must be positive");
        assert!(cfg.classes > 0, "classes must be positive");
        let mut b = ParamLayout::builder();
        let mut linears = Vec::new();
        let mut bns = Vec::new();
        let mut in_dim = cfg.input_dim;
        for (i, &h) in cfg.hidden.iter().enumerate() {
            assert!(h > 0, "hidden layer {i} must be positive");
            let w_off = b.push(
                &format!("l{i}.weight"),
                in_dim * h,
                ParamKind::TrainableWeight,
            );
            let b_off = b.push(&format!("l{i}.bias"), h, ParamKind::TrainableWeight);
            linears.push(LinearSpec {
                in_dim,
                out_dim: h,
                w_off,
                b_off,
            });
            if cfg.batch_norm {
                let gamma_off = b.push(&format!("bn{i}.weight"), h, ParamKind::TrainableWeight);
                let beta_off = b.push(&format!("bn{i}.bias"), h, ParamKind::TrainableWeight);
                let mean_off = b.push(&format!("bn{i}.running_mean"), h, ParamKind::BnStatistic);
                let var_off = b.push(&format!("bn{i}.running_var"), h, ParamKind::BnStatistic);
                let count_off = b.push(
                    &format!("bn{i}.num_batches_tracked"),
                    1,
                    ParamKind::BnStatistic,
                );
                bns.push(Some(BatchNorm {
                    dim: h,
                    gamma_off,
                    beta_off,
                    mean_off,
                    var_off,
                    count_off,
                    momentum: 0.1,
                    eps: 1e-5,
                }));
            } else {
                bns.push(None);
            }
            in_dim = h;
        }
        let w_off = b.push(
            "out.weight",
            in_dim * cfg.classes,
            ParamKind::TrainableWeight,
        );
        let b_off = b.push("out.bias", cfg.classes, ParamKind::TrainableWeight);
        linears.push(LinearSpec {
            in_dim,
            out_dim: cfg.classes,
            w_off,
            b_off,
        });

        Self {
            cfg,
            layout: b.finish(),
            linears,
            bns,
        }
    }
}

impl Mlp {
    /// Builds and initialises a model: [`MlpTopology::new`], then
    /// Kaiming-uniform weights drawn from `rng` layer by layer, zero
    /// biases, BN gamma 1 / beta 0 / mean 0 / var 1 / count 0.
    ///
    /// # Panics
    /// As [`MlpTopology::new`].
    #[must_use]
    pub fn new<R: Rng>(cfg: MlpConfig, rng: &mut R) -> Self {
        Self::init(MlpTopology::new(cfg), rng)
    }

    /// Initialises fresh weights over an existing topology — the
    /// initialisation half of [`Mlp::new`], drawing the same values from
    /// `rng` in the same order.
    #[must_use]
    pub fn init<R: Rng>(topo: MlpTopology, rng: &mut R) -> Self {
        let mut params = vec![0.0f32; topo.num_params()];
        for l in &topo.linears {
            kaiming_uniform(
                rng,
                &mut params[l.w_off..l.w_off + l.in_dim * l.out_dim],
                l.in_dim,
            );
        }
        for bn in topo.bns.iter().flatten() {
            params[bn.gamma_off..bn.gamma_off + bn.dim].fill(1.0);
            params[bn.var_off..bn.var_off + bn.dim].fill(1.0);
        }
        Self { topo, params }
    }

    /// The shared immutable architecture (see [`MlpTopology`]).
    #[must_use]
    pub fn topology(&self) -> &MlpTopology {
        &self.topo
    }

    /// The model configuration.
    #[must_use]
    pub fn config(&self) -> &MlpConfig {
        &self.topo.cfg
    }

    /// The flat-parameter layout (trainable vs BN-statistic positions).
    #[must_use]
    pub fn layout(&self) -> &ParamLayout {
        &self.topo.layout
    }

    /// Total number of flat parameters `d`.
    #[must_use]
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// The flat parameter vector.
    #[must_use]
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Mutable access to the flat parameter vector.
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    /// Overwrites all parameters.
    ///
    /// # Panics
    /// Panics if `new.len() != num_params()`.
    pub fn set_params(&mut self, new: &[f32]) {
        assert_eq!(new.len(), self.params.len(), "parameter length mismatch");
        self.params.copy_from_slice(new);
    }

    /// Mean loss and flat gradient on one minibatch, in training mode
    /// (BatchNorm uses batch statistics and updates its running
    /// statistics in place, mirroring a PyTorch training step).
    ///
    /// Gradient entries at BN-statistic positions are zero. Allocates a
    /// fresh workspace per call — hot paths should hold a [`TrainScratch`]
    /// and use [`Mlp::loss_and_grad_into`] instead.
    ///
    /// # Panics
    /// Panics if `x.len()` is not a multiple of `input_dim`, the implied
    /// batch size differs from `y.len()`, or a label is out of range.
    pub fn loss_and_grad(&mut self, x: &[f32], y: &[usize]) -> (f64, Vec<f32>) {
        let mut scratch = TrainScratch::new();
        let loss = self
            .topo
            .loss_and_grad_into(&mut self.params, x, y, &mut scratch);
        (loss, std::mem::take(&mut scratch.grad))
    }

    /// Allocation-free variant of [`Mlp::loss_and_grad`]: the gradient is
    /// left in [`TrainScratch::grad`].
    pub fn loss_and_grad_into(
        &mut self,
        x: &[f32],
        y: &[usize],
        scratch: &mut TrainScratch,
    ) -> f64 {
        self.topo
            .loss_and_grad_into(&mut self.params, x, y, scratch)
    }

    /// Like [`Mlp::loss_and_grad`] but *without* the running-statistics
    /// side effect. Used by finite-difference tests and line searches.
    pub fn loss_and_grad_frozen_stats(&mut self, x: &[f32], y: &[usize]) -> (f64, Vec<f32>) {
        let mut scratch = TrainScratch::new();
        let loss = self
            .topo
            .loss_and_grad_frozen_into(&mut self.params, x, y, &mut scratch);
        (loss, std::mem::take(&mut scratch.grad))
    }

    /// Training-mode loss only (batch statistics, no side effects).
    #[must_use]
    pub fn training_loss(&self, x: &[f32], y: &[usize]) -> f64 {
        let mut scratch = TrainScratch::new();
        self.topo
            .training_loss_into(&self.params, x, y, &mut scratch)
    }

    /// Evaluates loss / top-1 / top-5 on a labelled set, in eval mode
    /// (running statistics, no side effects — and no model clone; the
    /// forward pass reads `&self` directly).
    ///
    /// # Panics
    /// Panics on shape mismatches.
    #[must_use]
    pub fn evaluate(&self, x: &[f32], y: &[usize]) -> EvalMetrics {
        let mut scratch = TrainScratch::new();
        self.topo.evaluate_into(&self.params, x, y, &mut scratch)
    }

    /// Allocation-free variant of [`Mlp::evaluate`] over a caller-owned
    /// workspace.
    #[must_use]
    pub fn evaluate_into(&self, x: &[f32], y: &[usize], scratch: &mut TrainScratch) -> EvalMetrics {
        self.topo.evaluate_into(&self.params, x, y, scratch)
    }

    /// Row-wise log-probabilities in eval mode.
    #[must_use]
    pub fn predict_log_probs(&self, x: &[f32]) -> Vec<f32> {
        let mut scratch = TrainScratch::new();
        self.topo
            .predict_log_probs_into(&self.params, x, &mut scratch)
            .to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Sgd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_model(batch_norm: bool, seed: u64) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
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

    fn toy_batch(
        seed: u64,
        batch: usize,
        input_dim: usize,
        classes: usize,
    ) -> (Vec<f32>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<f32> = (0..batch * input_dim)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let y: Vec<usize> = (0..batch).map(|_| rng.gen_range(0..classes)).collect();
        (x, y)
    }

    /// `Mlp::new` split into a topology and an init must draw the same
    /// weights in the same order: the fingerprints are the parameter
    /// bits the one-piece constructor produced before the split, and the
    /// two paths leave `rng` at the same point.
    #[test]
    fn topology_plus_init_is_the_one_piece_constructor() {
        let fingerprints = [
            (0xf16f_84ae_f515_22e6, 0xf0d5_47b2_d44d_25b3),
            (0xabcb_67de_817d_7196, 0x7201_4ab2_4171_dcb6),
            (0x0373_b911_f454_bc42, 0xc0be_03cc_c2cc_17e9),
            (0xe66b_0626_2f55_3620, 0x3507_1fa6_201a_81ce),
        ];
        let fnv = |params: &[f32]| {
            params
                .iter()
                .flat_map(|v| v.to_bits().to_le_bytes())
                .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
                })
        };
        for (layers, (plain, with_bn)) in fingerprints.into_iter().enumerate() {
            for (batch_norm, want) in [(false, plain), (true, with_bn)] {
                let cfg = MlpConfig {
                    input_dim: 6,
                    hidden: [5, 4, 3][..layers].to_vec(),
                    classes: 3,
                    batch_norm,
                };
                let seed = layers as u64 * 2 + u64::from(batch_norm);
                let mut rng_a = StdRng::seed_from_u64(seed);
                let mut rng_b = StdRng::seed_from_u64(seed);
                let a = Mlp::new(cfg.clone(), &mut rng_a);
                let b = Mlp::init(MlpTopology::new(cfg), &mut rng_b);
                assert_eq!(fnv(a.params()), want, "{layers} layers, bn {batch_norm}");
                assert_eq!(fnv(b.params()), want, "{layers} layers, bn {batch_norm}");
                assert_eq!(a.topology(), b.topology());
                assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
            }
        }
    }

    /// Finite-difference gradient check on every trainable parameter of a
    /// small model — the strongest correctness evidence for the backprop.
    fn gradcheck(batch_norm: bool, tolerance: f64, eps: f32) {
        let mut model = toy_model(batch_norm, 42);
        let (x, y) = toy_batch(7, 6, 5, 4);
        let (_, grad) = model.loss_and_grad_frozen_stats(&x, &y);
        let trainable = model.layout().trainable_mask();
        let mut checked = 0;
        #[allow(clippy::needless_range_loop)] // i indexes params and grad
        for i in 0..model.num_params() {
            if !trainable.get(i) {
                assert_eq!(grad[i], 0.0, "BN statistic {i} must have zero grad");
                continue;
            }
            let orig = model.params()[i];
            model.params_mut()[i] = orig + eps;
            let lp = model.training_loss(&x, &y);
            model.params_mut()[i] = orig - eps;
            let lm = model.training_loss(&x, &y);
            model.params_mut()[i] = orig;
            let numeric = (lp - lm) / (2.0 * f64::from(eps));
            let analytic = f64::from(grad[i]);
            // Floor absorbs f32 forward-pass noise and ReLU-kink
            // crossings, which scale like 1/eps around zero gradients.
            let denom = numeric.abs().max(analytic.abs()).max(1e-6 / f64::from(eps));
            assert!(
                (numeric - analytic).abs() / denom < tolerance,
                "param {i}: numeric {numeric:.6} vs analytic {analytic:.6}"
            );
            checked += 1;
        }
        assert!(checked > 50, "checked only {checked} parameters");
    }

    #[test]
    fn gradcheck_without_bn() {
        gradcheck(false, 0.08, 1e-2);
    }

    #[test]
    fn gradcheck_with_bn() {
        // BatchNorm couples every sample's gradient through the batch
        // statistics, so f32 finite differences are noisier here.
        gradcheck(true, 0.12, 3e-3);
    }

    #[test]
    fn param_count_matches_architecture() {
        let m = toy_model(false, 0);
        // 5·7+7 + 7·6+6 + 6·4+4 = 35+7+42+6+24+4
        assert_eq!(m.num_params(), 118);
        let m = toy_model(true, 0);
        // + BN(7): 7+7+7+7+1 = 29, BN(6): 6+6+6+6+1 = 25
        assert_eq!(m.num_params(), 118 + 29 + 25);
        assert_eq!(m.layout().statistic_count(), 7 + 7 + 1 + 6 + 6 + 1);
    }

    #[test]
    fn training_reduces_loss() {
        let mut model = toy_model(true, 3);
        let (x, y) = toy_batch(8, 32, 5, 4);
        let initial = model.evaluate(&x, &y).loss;
        let mut opt = Sgd::new(model.num_params(), 0.1, 0.9);
        for _ in 0..60 {
            let (_, grad) = model.loss_and_grad(&x, &y);
            opt.step(model.params_mut(), &grad);
        }
        let trained = model.evaluate(&x, &y).loss;
        assert!(
            trained < initial * 0.5,
            "loss {initial:.4} → {trained:.4} did not halve"
        );
    }

    #[test]
    fn logistic_regression_special_case() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut model = Mlp::new(
            MlpConfig {
                input_dim: 3,
                hidden: vec![],
                classes: 2,
                batch_norm: false,
            },
            &mut rng,
        );
        assert_eq!(model.num_params(), 3 * 2 + 2);
        // Linearly separable toy data trains to high accuracy.
        let x: Vec<f32> = (0..200)
            .flat_map(|i| {
                let s = if i % 2 == 0 { 1.0 } else { -1.0 };
                vec![s + 0.1 * (i as f32 % 7.0 - 3.0), s, -s]
            })
            .collect();
        let y: Vec<usize> = (0..200).map(|i| i % 2).collect();
        let mut opt = Sgd::new(model.num_params(), 0.5, 0.0);
        for _ in 0..100 {
            let (_, g) = model.loss_and_grad(&x, &y);
            opt.step(model.params_mut(), &g);
        }
        assert!(model.evaluate(&x, &y).top1 > 0.95);
    }

    #[test]
    fn bn_running_stats_update_in_training_only() {
        let mut model = toy_model(true, 4);
        let (x, y) = toy_batch(5, 16, 5, 4);
        let seg = model.layout().segment("bn0.running_mean").unwrap().clone();
        let count_seg = model
            .layout()
            .segment("bn0.num_batches_tracked")
            .unwrap()
            .clone();
        let before: Vec<f32> = model.params()[seg.start..seg.end].to_vec();
        let _ = model.evaluate(&x, &y); // eval: no change
        assert_eq!(&model.params()[seg.start..seg.end], &before[..]);
        let _ = model.loss_and_grad_frozen_stats(&x, &y); // frozen: no change
        assert_eq!(&model.params()[seg.start..seg.end], &before[..]);
        let _ = model.loss_and_grad(&x, &y); // training: updates
        assert_ne!(&model.params()[seg.start..seg.end], &before[..]);
        assert_eq!(model.params()[count_seg.start], 1.0);
    }

    #[test]
    fn bn_normalises_batch_activations() {
        // After BN (training mode), each feature of x_hat has ~zero mean
        // and ~unit variance; we test indirectly: a model whose input is
        // wildly scaled still produces finite loss and gradients.
        let mut model = toy_model(true, 6);
        let (mut x, y) = toy_batch(11, 16, 5, 4);
        for v in &mut x {
            *v *= 1e3;
        }
        let (loss, grad) = model.loss_and_grad(&x, &y);
        assert!(loss.is_finite());
        assert!(grad.iter().all(|g| g.is_finite()));
    }

    #[test]
    fn evaluate_is_side_effect_free_and_deterministic() {
        let model = toy_model(true, 12);
        let (x, y) = toy_batch(13, 24, 5, 4);
        let a = model.evaluate(&x, &y);
        let b = model.evaluate(&x, &y);
        assert_eq!(a, b);
    }

    #[test]
    fn set_params_roundtrip() {
        let model = toy_model(false, 1);
        let snapshot = model.params().to_vec();
        let mut other = toy_model(false, 2);
        assert_ne!(other.params(), &snapshot[..]);
        other.set_params(&snapshot);
        assert_eq!(other.params(), &snapshot[..]);
    }

    #[test]
    fn batch_of_one_with_bn_is_finite() {
        let mut model = toy_model(true, 5);
        let (x, y) = toy_batch(14, 1, 5, 4);
        let (loss, grad) = model.loss_and_grad(&x, &y);
        assert!(loss.is_finite());
        assert!(grad.iter().all(|g| g.is_finite()));
    }

    #[test]
    #[should_panic(expected = "batch/label count mismatch")]
    fn shape_mismatch_panics() {
        let mut model = toy_model(false, 1);
        let _ = model.loss_and_grad(&[0.0; 10], &[0usize; 3]);
    }

    #[test]
    fn eval_metrics_have_sane_ranges() {
        let model = toy_model(true, 15);
        let (x, y) = toy_batch(16, 50, 5, 4);
        let m = model.evaluate(&x, &y);
        assert!(m.loss > 0.0);
        assert!((0.0..=1.0).contains(&m.top1));
        assert!((0.0..=1.0).contains(&m.top5));
        assert!(m.top5 >= m.top1);
        // 4 classes → top5 is always 1.
        assert_eq!(m.top5, 1.0);
    }

    /// A reused scratch must produce bit-identical training trajectories
    /// to per-call fresh buffers — the core guarantee of the pooled path.
    #[test]
    fn reused_scratch_matches_fresh_buffers_bitwise() {
        for batch_norm in [false, true] {
            let mut fresh = toy_model(batch_norm, 21);
            let mut pooled = fresh.clone();
            let mut scratch = TrainScratch::new();
            let mut opt = Sgd::new(fresh.num_params(), 0.07, 0.9);
            scratch.reset_velocity();
            for step in 0..5 {
                let (x, y) = toy_batch(100 + step, 9, 5, 4);
                let (loss_a, grad_a) = fresh.loss_and_grad(&x, &y);
                opt.step(fresh.params_mut(), &grad_a);
                let loss_b = pooled.loss_and_grad_into(&x, &y, &mut scratch);
                assert_eq!(loss_a.to_bits(), loss_b.to_bits(), "loss step {step}");
                assert!(grad_a
                    .iter()
                    .zip(scratch.grad())
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
                scratch.sgd_step(pooled.params_mut(), 0.07, 0.9);
                assert!(
                    fresh
                        .params()
                        .iter()
                        .zip(pooled.params())
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "params diverged at step {step} (bn={batch_norm})"
                );
            }
        }
    }

    /// Steady-state training steps must not reallocate any scratch buffer.
    #[test]
    fn training_steps_are_allocation_free_in_steady_state() {
        let mut model = toy_model(true, 30);
        let mut scratch = TrainScratch::new();
        let (x, y) = toy_batch(31, 8, 5, 4);
        let _ = model.loss_and_grad_into(&x, &y, &mut scratch);
        scratch.sgd_step(model.params_mut(), 0.05, 0.9);
        let grad_ptr = scratch.grad.as_ptr();
        let logits_ptr = scratch.logits.as_ptr();
        let vel_ptr = scratch.velocity.as_ptr();
        let dbuf_ptrs: Vec<*const f32> = scratch.d_bufs.iter().map(|b| b.as_ptr()).collect();
        for _ in 0..4 {
            let _ = model.loss_and_grad_into(&x, &y, &mut scratch);
            scratch.sgd_step(model.params_mut(), 0.05, 0.9);
        }
        assert_eq!(scratch.grad.as_ptr(), grad_ptr);
        assert_eq!(scratch.logits.as_ptr(), logits_ptr);
        assert_eq!(scratch.velocity.as_ptr(), vel_ptr);
        let after: Vec<*const f32> = scratch.d_bufs.iter().map(|b| b.as_ptr()).collect();
        assert_eq!(after, dbuf_ptrs);
    }

    #[test]
    fn evaluate_into_matches_evaluate() {
        let model = toy_model(true, 33);
        let (x, y) = toy_batch(34, 20, 5, 4);
        let mut scratch = TrainScratch::new();
        let a = model.evaluate(&x, &y);
        let b = model.evaluate_into(&x, &y, &mut scratch);
        assert_eq!(a, b);
        // Reuse across differently-sized eval sets stays consistent.
        let (x2, y2) = toy_batch(35, 7, 5, 4);
        let c = model.evaluate_into(&x2, &y2, &mut scratch);
        assert_eq!(c, model.evaluate(&x2, &y2));
    }

    #[test]
    fn predict_log_probs_matches_topology_kernel() {
        let model = toy_model(true, 36);
        let (x, _) = toy_batch(37, 6, 5, 4);
        let owned = model.predict_log_probs(&x);
        let mut scratch = TrainScratch::new();
        let borrowed = model
            .topology()
            .predict_log_probs_into(model.params(), &x, &mut scratch);
        assert_eq!(owned, borrowed);
    }

    #[test]
    fn topology_is_shared_unchanged_across_clones() {
        let model = toy_model(true, 38);
        let clone = model.clone();
        assert_eq!(model.topology(), clone.topology());
        assert_eq!(model.topology().num_params(), model.num_params());
    }
}
