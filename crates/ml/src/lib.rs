//! Pure-Rust neural-network substrate for the GlueFL reproduction.
//!
//! The paper trains ShuffleNet/MobileNet/ResNet-34 in PyTorch; this crate
//! provides the equivalent substrate in Rust, built around one design rule:
//! **a model is a flat `Vec<f32>` parameter vector** plus a [`ParamLayout`]
//! describing which positions are trainable weights and which are
//! BatchNorm running statistics. Everything the FL framework does —
//! masking, sparsification, sticky aggregation, staleness tracking — is
//! then model-agnostic, and the Appendix-D rule (aggregate BN statistics
//! with a plain `1/K` mean, no propensity re-weighting) can be applied by
//! position range.
//!
//! Contents:
//!
//! * [`Mlp`] — a multi-layer perceptron with optional [`BatchNorm`]
//!   (batch statistics in training mode, running statistics in eval mode),
//!   ReLU activations, softmax cross-entropy loss, and hand-derived
//!   backprop verified by finite-difference tests. Internally split into
//!   an immutable, `Sync` [`MlpTopology`] (shared across clients and
//!   worker threads) and the flat parameter buffer, so a federated
//!   client "clone" is a `copy_from_slice`.
//! * [`MlpTopology::train_delta_into`] — one federated client's local
//!   training, global weights in, delta out, over a per-worker
//!   [`TrainSlot`]: the SGD update runs as the epilogue of the
//!   backward-weights GEMM, the first step reads the shared global model
//!   in place and the last writes the delta, so a step touches each
//!   weight once and no gradient is ever stored. Bit-identical to the
//!   gradient-materialising reference below.
//! * [`TrainScratch`] — the pooled training workspace (activations,
//!   backward caches, gradient, SGD velocity, minibatch staging) behind
//!   the allocation-free `_into` kernel family
//!   ([`MlpTopology::loss_and_grad_into`], [`MlpTopology::evaluate_into`]):
//!   after the first step sizes the buffers, a steady-state minibatch
//!   step performs no heap allocation. The linear layers inside are thin
//!   shims over the blocked `gluefl_tensor::gemm` micro-kernels
//!   (forward, backward-data, and accumulating backward-weights
//!   layouts), which preserve every reduction order — training
//!   trajectories are bit-identical to the naive per-element loops.
//!   Evaluation streams its set in blocks of [`EVAL_BLOCK_ROWS`] rows,
//!   whose larger layers shard GEMM row blocks across threads.
//! * [`Sgd`] — minibatch SGD with momentum and step decay (the paper's
//!   optimizer: momentum 0.9, decay 0.98 every 10 rounds), plus the
//!   pooled-velocity form [`sgd_momentum_step`] used by the scratch path
//!   (identical update rule, pinned by unit tests).
//! * [`ModelProfile`] — named configurations standing in for the paper's
//!   three architectures, including their *reference* parameter counts so
//!   bandwidth can be reported at paper scale.
//!
//! # Example
//!
//! ```
//! use gluefl_ml::{Mlp, MlpConfig, Sgd};
//! use rand::SeedableRng;
//!
//! let cfg = MlpConfig {
//!     input_dim: 8,
//!     hidden: vec![16],
//!     classes: 4,
//!     batch_norm: true,
//! };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut model = Mlp::new(cfg, &mut rng);
//! let x = vec![0.5f32; 8 * 2]; // batch of 2
//! let y = vec![1usize, 3];
//! let mut opt = Sgd::new(model.num_params(), 0.05, 0.9);
//! for _ in 0..10 {
//!     let (loss, grad) = model.loss_and_grad(&x, &y);
//!     assert!(loss.is_finite());
//!     opt.step(model.params_mut(), &grad);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod init;
mod layout;
mod local;
pub mod loss;
mod mlp;
mod optimizer;
mod profiles;
mod scratch;

pub use layout::{ParamKind, ParamLayout, ParamLayoutBuilder, Segment};
pub use mlp::{BatchNorm, EvalMetrics, Mlp, MlpConfig, MlpTopology, EVAL_BLOCK_ROWS};
pub use optimizer::{sgd_momentum_step, step_decay_lr, Sgd};
pub use profiles::{DatasetModel, ModelProfile};
pub use scratch::{BatchTrainScratch, TrainScratch, TrainSlot};
