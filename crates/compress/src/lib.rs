//! Masking and compression strategies for federated learning.
//!
//! This crate implements the model-masking half of the GlueFL paper and
//! its baselines, all operating on flat `&[f32]` deltas:
//!
//! * [`stc`] — Sparse Ternary Compression (Sattler et al. 2019): top-`q`
//!   sparsification of client gradients and server updates (Algorithm 1),
//!   plus the optional ternary quantization the paper factors out
//!   (footnote 1).
//! * [`mask_shift`] — GlueFL's gradual mask shifting (§3.2, Algorithm 3):
//!   split a client delta into the shared-mask part `M_t ⊙ Δ` and the
//!   locally-important part `top_{q−q_shr}(¬M_t ⊙ Δ)`, and shift the
//!   server's shared mask by re-selecting the top `q_shr` of the combined
//!   aggregate.
//! * [`Apf`] — Adaptive Parameter Freezing (Chen et al. 2021): per-
//!   parameter effective-perturbation tracking with doubling freeze
//!   periods.
//! * [`ErrorCompensator`] — per-client error feedback with GlueFL's
//!   propensity re-scaling `(ν^{φ(t)}/ν^t)·h^{φ(t)}` (§3.3, Equation 7);
//!   supports the paper's three ablation arms None / EC / REC
//!   (Figure 11). Its [`ErrorCompensator::compress_split`] is a client's
//!   whole compress — compensation, split, residual — as one walk of the
//!   delta ([`SplitWalk`]).
//!
//! # Example
//!
//! ```
//! use gluefl_compress::mask_shift;
//! use gluefl_tensor::BitMask;
//!
//! let delta = vec![5.0, -0.1, 3.0, 0.2, -4.0, 0.3, 0.1, 2.0];
//! let shared = BitMask::from_indices(8, [0usize, 2]); // q_shr = 25%
//! // Client: dense values under the shared mask + top-1 unique outside.
//! let split = mask_shift::client_split(&delta, &shared, 1);
//! assert_eq!(split.shared.values(), &[5.0, 3.0]); // in the mask's order
//! assert_eq!(split.unique.indices(), &[4]); // |-4.0| largest outside
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apf;
mod error_comp;
pub mod mask_shift;
pub mod stc;
mod walk;

pub use apf::{Apf, ApfConfig};
pub use error_comp::{CompensationMode, ErrorCompensator, Residual};
pub use walk::SplitWalk;
