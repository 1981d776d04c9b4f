//! One client's local training: `E` SGD-with-momentum steps from the
//! global weights to a delta, touching each weight once per step.
//!
//! At federated batch sizes a training step is a memory-bound sweep of
//! the model, not a GEMM problem, so what matters is how many times a
//! step walks the `d` parameters. The reference sequence
//! ([`MlpTopology::loss_and_grad_into`] + [`TrainScratch::sgd_step`])
//! makes eight passes per step — zero the gradient, read-modify-write it
//! in backward-weights, then read it while read-modify-writing velocity
//! and weights — and a client adds five more around its steps: copy the
//! global model, zero the velocity, subtract the global model again.
//! [`MlpTopology::train_delta_into`] computes the same bits with:
//!
//! * **the update as the epilogue of backward-weights**
//!   ([`gluefl_tensor::gemm::gemm_nt_sgd`]): each weight-matrix tile's
//!   gradient is consumed by `v' = μ·v + g; w' = w − γ·v'` while still in
//!   registers — four passes per step (read `w`, `v`; write `w'`, `v'`),
//!   no gradient buffer. A layer's backward-data product reads the
//!   pre-update weights, so it runs before the layer's fused call;
//! * **the first step reading `global`**: forward, backward-data and the
//!   epilogue's `w` come straight from the shared (cache-hot) global
//!   model and the velocity is zero by definition, so the model copy and
//!   the velocity fill disappear;
//! * **the last step writing the delta**: its epilogue stores
//!   `w' − global` and neither `w'` nor `v'`, so the final subtraction
//!   pass disappears.
//!
//! With one local step both apply and the only `d`-sized traffic left
//! per client is one write of the delta. Everything outside the weight
//! matrices — biases, BatchNorm γ/β and running statistics, the layer
//! *tails* — is vector-sized; it keeps a small gradient and the plain
//! [`sgd_momentum_step`].

use crate::loss::{log_softmax_rows, nll_and_grad};
use crate::mlp::{bias_grad_into, bn_backward_into, relu_backward, MlpTopology, Mode};
use crate::optimizer::sgd_momentum_step;
use crate::scratch::{size_to, TrainScratch, TrainSlot};
use gluefl_tensor::gemm::{gemm_nt_sgd, gemm_tn, SgdIo};

impl MlpTopology {
    /// Trains `steps` minibatch SGD-with-momentum steps from `global`
    /// (velocity starting at zero, as a fresh optimizer's) and writes
    /// the parameter delta `out[i] = trained[i] − global[i]` for every
    /// position `i` — BatchNorm running statistics included; `global` is
    /// not modified and the trained weights themselves are not kept.
    ///
    /// `next_batch` stages each step's minibatch (row-major features and
    /// labels) into the buffers it is handed. Bit-identical to running
    /// [`MlpTopology::loss_and_grad_into`] + [`TrainScratch::sgd_step`]
    /// `steps` times on a copy of `global` and subtracting (pinned by
    /// the unit tests here and `tests/local_train_parity.rs`), and, like
    /// them, allocation-free once `slot` is warm. Nothing of a client
    /// survives in `slot` for the next one to see.
    ///
    /// # Panics
    /// Panics if `global` or `out` disagrees with the topology's
    /// parameter count, a staged batch's shape is inconsistent, or a
    /// label is out of range.
    #[allow(clippy::too_many_arguments)]
    pub fn train_delta_into(
        &self,
        global: &[f32],
        steps: usize,
        lr: f32,
        momentum: f32,
        mut next_batch: impl FnMut(&mut Vec<f32>, &mut Vec<usize>),
        slot: &mut TrainSlot,
        out: &mut [f32],
    ) {
        self.check_params(global);
        self.check_params(out);
        if steps == 0 {
            out.fill(0.0);
            return;
        }
        let TrainSlot { params, scratch } = slot;
        size_to(params, global.len());
        size_to(&mut scratch.velocity, global.len());
        scratch.tail_grads.resize_with(self.linears.len(), Vec::new);
        // The tails start every client as a fresh copy with zero
        // velocity, so the per-step code treats them the same on every
        // step; only the weight matrices have first- and last-step forms.
        for i in 0..self.linears.len() {
            let tail = self.tail(i);
            params[tail.clone()].copy_from_slice(&global[tail.clone()]);
            scratch.velocity[tail].fill(0.0);
        }
        let mut bx = std::mem::take(&mut scratch.batch_x);
        let mut by = std::mem::take(&mut scratch.batch_y);
        for s in 0..steps {
            next_batch(&mut bx, &mut by);
            let out = (s + 1 == steps).then_some(&mut *out);
            self.fused_step(global, params, s == 0, out, &bx, &by, lr, momentum, scratch);
        }
        scratch.batch_x = bx;
        scratch.batch_y = by;
        for i in 0..self.linears.len() {
            let tail = self.tail(i);
            let trained = &params[tail.clone()];
            for ((o, &w), &g) in out[tail.clone()].iter_mut().zip(trained).zip(&global[tail]) {
                *o = w - g;
            }
        }
    }

    /// One training step with the update fused into the backward pass.
    /// On the `first` step weight matrices are read from `global` (and
    /// their velocity taken as zero) instead of `params`; when `out` is
    /// given (the last step) their deltas are written there and neither
    /// weights nor velocity are stored. The tails always live in
    /// `params` / the scratch velocity.
    #[allow(clippy::too_many_arguments)]
    fn fused_step(
        &self,
        global: &[f32],
        params: &mut [f32],
        first: bool,
        mut out: Option<&mut [f32]>,
        x: &[f32],
        y: &[usize],
        lr: f32,
        momentum: f32,
        scratch: &mut TrainScratch,
    ) {
        let batch = self.check_batch(x, y);
        let classes = self.config().classes;
        scratch.ensure(self, batch);
        let TrainScratch {
            layers,
            logits,
            d_logits,
            velocity,
            tail_grads,
            d_bufs,
            sum_dy,
            sum_dy_xhat,
            ..
        } = scratch;
        // `global` and `params` agree on the tails, so the first step's
        // forward pass can read everything from `global`.
        let src: &[f32] = if first { global } else { params };
        self.forward_into(
            src,
            x,
            batch,
            Mode::Train { update_stats: true },
            layers,
            logits,
        );
        log_softmax_rows(logits, batch, classes);
        let _ = nll_and_grad(logits, y, classes, d_logits);

        // Backward, output layer first. Three activation-gradient
        // buffers rotate as in the reference pass: `d_cur` holds
        // d(activation), `d_bn` the BN backward output, `d_next` the
        // earlier layer's d(input).
        let n_hidden = self.config().hidden.len();
        let [buf_a, buf_b, buf_c] = d_bufs;
        let (mut d_cur, mut d_bn, mut d_next) = (buf_a, buf_b, buf_c);
        for i in (0..=n_hidden).rev() {
            let lin = self.linears[i];
            let tail_start = self.tail(i).start;
            let tail_grad = &mut tail_grads[i];
            tail_grad.clear();
            tail_grad.resize(self.tail(i).len(), 0.0);
            let d_out: &[f32] = if i == n_hidden {
                d_logits
            } else {
                let ls = &layers[i];
                relu_backward(d_cur, &ls.relu_mask);
                match self.bns[i] {
                    Some(bn) => {
                        d_bn.clear();
                        d_bn.resize(batch * bn.dim, 0.0);
                        let src: &[f32] = if first { global } else { params };
                        let (d_gamma, d_beta) = tail_grad
                            [bn.gamma_off - tail_start..bn.beta_off - tail_start + bn.dim]
                            .split_at_mut(bn.dim);
                        bn_backward_into(
                            &src[bn.gamma_off..bn.gamma_off + bn.dim],
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
                }
            };
            bias_grad_into(d_out, &mut tail_grad[..lin.out_dim]);
            let input: &[f32] = if i == 0 { x } else { &layers[i - 1].act };
            let wr = lin.w_off..lin.w_off + lin.in_dim * lin.out_dim;
            // Backward-data reads the pre-update weights: before the
            // epilogue overwrites them. The input layer has no d(input).
            if i > 0 {
                let src: &[f32] = if first { global } else { params };
                d_next.clear();
                d_next.resize(batch * lin.in_dim, 0.0);
                gemm_tn(
                    d_out,
                    &src[wr.clone()],
                    batch,
                    lin.out_dim,
                    lin.in_dim,
                    d_next,
                );
            }
            let io = match (first, out.as_deref_mut()) {
                (true, Some(out)) => SgdIo::Only {
                    base: &global[wr.clone()],
                    out: &mut out[wr],
                },
                (true, None) => SgdIo::First {
                    from: &global[wr.clone()],
                    w: &mut params[wr.clone()],
                    v: &mut velocity[wr],
                },
                (false, Some(out)) => SgdIo::Last {
                    w: &params[wr.clone()],
                    v: &velocity[wr.clone()],
                    base: &global[wr.clone()],
                    out: &mut out[wr],
                },
                (false, None) => SgdIo::InPlace {
                    w: &mut params[wr.clone()],
                    v: &mut velocity[wr],
                },
            };
            gemm_nt_sgd(
                d_out,
                input,
                batch,
                lin.out_dim,
                lin.in_dim,
                lr,
                momentum,
                io,
            );
            (d_cur, d_next, d_bn) = (d_next, d_bn, d_cur);
        }

        // The tails: running statistics, then the plain update over each
        // whole tail. Statistic positions have zero gradient and zero
        // velocity, which leaves every bit of them alone.
        self.apply_bn_stat_updates(params, batch, layers);
        for (i, tail_grad) in tail_grads.iter().enumerate() {
            let tail = self.tail(i);
            sgd_momentum_step(
                &mut params[tail.clone()],
                tail_grad,
                &mut velocity[tail],
                lr,
                momentum,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mlp, MlpConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn toy(batch_norm: bool, hidden: Vec<usize>, seed: u64) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp::new(
            MlpConfig {
                input_dim: 6,
                hidden,
                classes: 5,
                batch_norm,
            },
            &mut rng,
        )
    }

    /// `steps` minibatches of `mb` rows over 6 features and 5 classes.
    fn batches(steps: usize, mb: usize, seed: u64) -> Vec<(Vec<f32>, Vec<usize>)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..steps)
            .map(|_| {
                let x = (0..mb * 6).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let y = (0..mb).map(|_| rng.gen_range(0..5)).collect();
                (x, y)
            })
            .collect()
    }

    /// The gradient-materialising reference on a copy of `global`.
    fn reference_delta(
        model: &Mlp,
        data: &[(Vec<f32>, Vec<usize>)],
        lr: f32,
        momentum: f32,
    ) -> Vec<f32> {
        let topo = model.topology();
        let mut params = model.params().to_vec();
        let mut scratch = TrainScratch::new();
        for (x, y) in data {
            let _ = topo.loss_and_grad_into(&mut params, x, y, &mut scratch);
            scratch.sgd_step(&mut params, lr, momentum);
        }
        params
            .iter()
            .zip(model.params())
            .map(|(w, g)| w - g)
            .collect()
    }

    fn fused_delta(
        model: &Mlp,
        data: &[(Vec<f32>, Vec<usize>)],
        lr: f32,
        momentum: f32,
        slot: &mut TrainSlot,
    ) -> Vec<f32> {
        let mut out = vec![f32::NAN; model.num_params()];
        let mut it = data.iter();
        model.topology().train_delta_into(
            model.params(),
            data.len(),
            lr,
            momentum,
            |bx, by| {
                let (x, y) = it.next().expect("one batch per step");
                bx.clear();
                bx.extend_from_slice(x);
                by.clear();
                by.extend_from_slice(y);
            },
            slot,
            &mut out,
        );
        out
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: position {i}: {g} vs {w}");
        }
    }

    /// The fused path splits the parameters into weight matrices (the
    /// epilogue's) and tails (the plain update's); together they must
    /// cover every position exactly once, BN statistics included.
    #[test]
    fn weight_matrices_and_tails_partition_the_parameters() {
        for (batch_norm, hidden) in [(true, vec![8, 7]), (false, vec![8]), (false, vec![])] {
            let model = toy(batch_norm, hidden, 1);
            let topo = model.topology();
            let mut covered = vec![0u8; model.num_params()];
            for (i, lin) in topo.linears.iter().enumerate() {
                for c in &mut covered[lin.w_off..lin.w_off + lin.in_dim * lin.out_dim] {
                    *c += 1;
                }
                for c in &mut covered[topo.tail(i)] {
                    *c += 1;
                }
            }
            assert!(covered.iter().all(|&c| c == 1));
            let in_tails = |p: usize| (0..topo.linears.len()).any(|i| topo.tail(i).contains(&p));
            assert!(topo.layout().trainable_mask().iter_zeros().all(in_tails));
        }
    }

    #[test]
    fn zero_steps_is_a_zero_delta() {
        let model = toy(true, vec![8], 3);
        let got = fused_delta(&model, &[], 0.1, 0.9, &mut TrainSlot::new());
        assert!(got.iter().all(|d| d.to_bits() == 0.0f32.to_bits()));
    }

    /// First, middle and last step forms in one run equal the reference
    /// (the shape and step-count sweep is `tests/local_train_parity.rs`);
    /// a warm slot then repeats it without reallocating, and never sizes
    /// the reference path's gradient buffer.
    #[test]
    fn fused_matches_reference_and_warm_slots_do_not_reallocate() {
        let model = toy(true, vec![8, 7], 31);
        let data = batches(3, 4, 99);
        let mut slot = TrainSlot::new();
        let first = fused_delta(&model, &data, 0.05, 0.9, &mut slot);
        assert_bits_eq(&first, &reference_delta(&model, &data, 0.05, 0.9), "E = 3");
        let ptrs = |s: &TrainSlot| {
            (
                s.params.as_ptr(),
                s.scratch.velocity.as_ptr(),
                s.scratch.logits.as_ptr(),
                s.scratch.batch_x.as_ptr(),
                s.scratch.tail_grads[0].as_ptr(),
                s.scratch.d_bufs[0].as_ptr(),
            )
        };
        let warm = ptrs(&slot);
        let again = fused_delta(&model, &data, 0.05, 0.9, &mut slot);
        assert_eq!(ptrs(&slot), warm);
        assert_eq!(first, again);
        assert!(slot.scratch.grad.is_empty());
    }
}
