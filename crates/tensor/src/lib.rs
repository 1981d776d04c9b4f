//! Dense vectors, bitmasks, top-k selection, and sparse updates.
//!
//! This crate is the numeric foundation of the GlueFL reproduction. All
//! federated-learning strategies in the workspace treat a model as one flat
//! `&[f32]` parameter vector; the types here provide the operations that the
//! paper's algorithms are written in terms of:
//!
//! * [`BitMask`] — the shared mask `M_t ∈ B^d` of Algorithm 3, a compact
//!   bitmap with set algebra (`and`/`or`/`not`) and set-bit iteration.
//! * [`top_k_abs`] / [`top_k_abs_masked`] — the `top_q(·)` operator used by
//!   STC (Algorithm 1 line 12/17) and by GlueFL's mask shifting
//!   (Algorithm 3 lines 17 and 26).
//! * [`SparseUpdate`] — an (indices, values) view of a masked model delta.
//! * [`MaskAligned`] — values in the position order of a mask the
//!   receiver already holds (GlueFL's shared part, APF's active set): no
//!   index vector on either side, the mask comes from whoever needs the
//!   positions.
//! * [`MaskedUpdate`] — a mask plus *packed* values, the server-side
//!   aggregate representation: strategies return one per round and the
//!   simulator applies it with the word-level scatter/[`vecops::masked_axpy`]
//!   kernels instead of a dense `O(d)` walk.
//! * [`vecops`] — axpy/scale/dot kernels shared by the ML substrate, plus
//!   fused masked kernels for the round hot path.
//! * [`gemm`] — register-blocked, cache-tiled `f32` matmul micro-kernels
//!   in the three layouts the MLP's linear layers need (forward,
//!   backward-data, accumulating backward-weights), each bit-exact
//!   against a plain-loop reference twin; large-batch forward calls shard
//!   disjoint row blocks across [`gluefl_pool::threads`] workers.
//! * [`rng`] — deterministic seed derivation so that every experiment in the
//!   workspace is exactly reproducible from one master seed.
//!
//! # Kernel-layer invariants
//!
//! The hot-path kernels in this crate uphold three contracts that the
//! strategy and simulator layers rely on:
//!
//! * **Determinism.** Every kernel is a pure function of its inputs:
//!   identical slices and masks produce bit-identical outputs on every
//!   platform and run. Reductions ([`vecops::dot`], [`vecops::l2_norm`])
//!   use a fixed lane-accumulator order; nothing depends on thread
//!   schedule or allocation state.
//! * **Tie-breaking.** [`top_k_abs`] / [`top_k_abs_masked`] rank by
//!   magnitude descending, then index ascending; NaN magnitudes rank
//!   below every finite magnitude. The returned indices are always
//!   strictly increasing. Any reimplementation (reference or
//!   accelerated) must reproduce this exact order.
//! * **Scratch-buffer ownership.** Kernels never retain references to
//!   caller memory. [`TopKScratch`] is owned by the *caller* (one per
//!   simulation or per thread, never shared concurrently); its contents
//!   are unspecified between calls, and the slice returned by
//!   [`top_k_abs_masked_into`] is valid only until the next call that
//!   borrows the scratch. Masked kernels read [`BitMask::as_words`]
//!   directly and assume the documented invariant that tail bits beyond
//!   `len` are zero.
//!
//! # Example
//!
//! ```
//! use gluefl_tensor::{top_k_abs, BitMask, SparseUpdate};
//!
//! let delta = vec![0.1, -3.0, 0.2, 4.0, -0.05];
//! // The two largest-magnitude coordinates form the mask.
//! let idx = top_k_abs(&delta, 2);
//! let mask = BitMask::from_indices(delta.len(), idx.iter().copied());
//! assert!(mask.get(1) && mask.get(3));
//!
//! // Extract the masked update and apply it to a stale model copy.
//! let sparse = SparseUpdate::from_dense_masked(&delta, &mask);
//! let mut model = vec![0.0; 5];
//! sparse.apply(&mut model);
//! assert_eq!(model, vec![0.0, -3.0, 0.0, 4.0, 0.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aligned;
mod bitmask;
pub mod gemm;
mod masked;
pub mod rng;
mod sparse;
mod topk;
pub mod vecops;

pub use aligned::MaskAligned;
pub use bitmask::{BitMask, SetBits, ZeroBits};
pub use masked::MaskedUpdate;
pub use sparse::SparseUpdate;
pub use topk::{
    top_k_abs, top_k_abs_from_into, top_k_abs_masked, top_k_abs_masked_into, top_k_abs_packed_into,
    word_lanes, LaneSource, TopKScope, TopKScratch,
};
