//! The server halves of the paper's training strategies.
//!
//! The paper's title names two mechanisms, and the server side keeps
//! them apart. *Client sampling* — who is invited, what each kept
//! upload weighs, how the sticky group rebalances — is the [`Sampler`]
//! ([`sampling`]), one closed enum the round engine
//! ([`crate::engine::RoundEngine`]) owns. *Model masking and
//! aggregation* — which mask the round broadcasts, which upload it
//! takes, how weighted uploads fold, what the server update is — is the
//! [`Strategy`], one closed enum of four folds: FedAvg's dense fold
//! (which MD-FedAvg shares: the weight is the only thing that sets the
//! two apart), STC's, APF's and GlueFL's.
//! What a client does to its delta before uploading is the other half
//! of a strategy, [`crate::ClientCompressor`].
//!
//! Strategies operate on *trainable* positions only — BatchNorm statistics
//! are zeroed in the deltas clients compress and are aggregated separately
//! by the engine with the Appendix-D plain-mean rule.

mod apf;
mod fedavg;
mod gluefl;
#[cfg(test)]
mod md_fedavg;
pub mod sampling;
mod stc;

pub use apf::ApfFold;
pub use fedavg::DenseFold;
pub use gluefl::GlueFlFold;
pub use sampling::{Group, RoundPlan, Sampler};
pub use stc::StcFold;

use crate::config::{SimConfig, StrategyConfig};
use crate::scratch::ScratchPool;
use gluefl_compress::mask_shift::ClientSplit;
use gluefl_tensor::{BitMask, MaskAligned, MaskedUpdate, SparseUpdate};
use gluefl_wire::ValueView;
use rand::rngs::StdRng;

/// A compressed client upload.
///
/// A client builds one from owned buffers; a receiver decodes one from
/// verified frames ([`crate::wire_link::decode_upload_with_stats`]).
/// Decoding copies the values of every variant into pooled buffers
/// except a dense upload's: those stay in the frame bytes they arrived
/// in ([`Upload::DenseFrame`], borrowing the payload for `'a`), and the
/// dense fold reads them there. A received dense upload is materialized
/// into [`Upload::Dense`] — the only copy the receive path makes of it —
/// when the streaming gate must park it behind a lower client id
/// ([`crate::stream::StreamingAggregator::accept`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Upload<'a> {
    /// Full dense delta (FedAvg), in a buffer of its own.
    Dense(Vec<f32>),
    /// Full dense delta as received: the values of a verified dense
    /// frame, read in place.
    DenseFrame(ValueView<'a>),
    /// Top-`q` sparse delta with explicit positions (STC).
    Sparse(SparseUpdate),
    /// Top-`q` sparse delta, ternary-quantized (STC + footnote-1
    /// quantization: positions + one sign bit per value + one `μ`).
    Ternary(gluefl_compress::stc::TernaryUpdate),
    /// Values aligned to a mask both sides hold (APF's active set) —
    /// values only, the positions are the round mask's.
    KnownMask(MaskAligned),
    /// GlueFL's two-part shared + unique upload.
    MaskSplit(ClientSplit),
}

impl Upload<'_> {
    /// Dimension of the underlying parameter vector.
    #[must_use]
    pub fn dim(&self) -> usize {
        match self {
            Upload::Dense(v) => v.len(),
            Upload::DenseFrame(v) => v.len(),
            Upload::Sparse(u) => u.dim(),
            Upload::KnownMask(u) => u.dim(),
            Upload::Ternary(t) => t.dim(),
            Upload::MaskSplit(s) => s.shared.dim(),
        }
    }

    /// Accumulates `weight ×` this upload into a dense vector — the fold
    /// of the strategies whose uploads carry their positions. A received
    /// dense upload is folded straight from its frame bytes, bit-identical
    /// to folding its copied values.
    ///
    /// # Panics
    /// Panics on dimension mismatch (`acc.len()` must equal the upload's
    /// dimension exactly), and on a mask-aligned upload: its positions
    /// are the round mask's, and the strategy that holds that mask folds
    /// it in packed space.
    pub fn add_weighted_into(&self, acc: &mut [f32], weight: f32) {
        assert_eq!(acc.len(), self.dim(), "upload dimension mismatch");
        match self {
            Upload::Dense(v) => gluefl_tensor::vecops::axpy(acc, weight, v),
            Upload::DenseFrame(v) => v.add_scaled_into(acc, weight),
            Upload::Sparse(u) => u.add_scaled_into(acc, weight),
            Upload::Ternary(t) => {
                for (&i, &sign) in t.indices.iter().zip(&t.signs) {
                    acc[i as usize] += weight * if sign { t.mu } else { -t.mu };
                }
            }
            Upload::KnownMask(_) | Upload::MaskSplit(_) => {
                panic!("a mask-aligned upload has no positions to accumulate at")
            }
        }
    }

    /// This upload with every value in a buffer of its own, so it can
    /// outlive the bytes it was received in: a received dense upload's
    /// values are copied out of their frame into a buffer from
    /// `scratch` (returned by [`ScratchPool::reclaim_upload`]); every
    /// other variant already owns its buffers and moves as it is.
    pub(crate) fn into_owned(self, scratch: &mut ScratchPool) -> Upload<'static> {
        match self {
            Upload::DenseFrame(v) => {
                let mut values = scratch.take_cleared();
                v.extend_into(&mut values);
                Upload::Dense(values)
            }
            Upload::Dense(v) => Upload::Dense(v),
            Upload::Sparse(u) => Upload::Sparse(u),
            Upload::Ternary(t) => Upload::Ternary(t),
            Upload::KnownMask(u) => Upload::KnownMask(u),
            Upload::MaskSplit(s) => Upload::MaskSplit(s),
        }
    }
}

/// The fold half of a strategy's server side: which mask the round
/// broadcasts, which upload variant it folds, and how weighted uploads
/// fold into the round's server update. Built by [`Strategy::new`] and
/// owned by the round engine, like its two siblings ([`Sampler::new`],
/// [`crate::ClientCompressor::new`]).
///
/// Call order per round `t`:
/// 1. the engine's [`Sampler::plan`] draws the invitations (with
///    over-commitment);
/// 2. [`Strategy::round_mask`] — what the broadcast carries besides the
///    model;
/// 3. the engine weighs each kept client with [`Sampler::weight`], then
///    [`Strategy::fold_begin`], [`Strategy::fold_upload`] once per
///    delivered kept upload with that weight, in **ascending client-id
///    order**, and [`Strategy::fold_finish`], which returns the round's
///    server update as a [`MaskedUpdate`] over trainable positions and
///    shifts any mask state. [`crate::stream::StreamingAggregator`] is
///    the ordering gate that turns arrival order into that order;
/// 4. the engine's [`Sampler::rebalance`] — the sticky group's
///    post-round bookkeeping.
///
/// Between `fold_begin` and `fold_finish` each variant holds the round's
/// partial sums itself; between rounds it holds none.
///
/// # Bit-exactness
///
/// Every fold adds per-position contributions as one `+= w·v` per
/// upload, so the id-ordered fold is one fixed sequence of `f32`
/// operations per position: any driver that feeds the same uploads gets
/// the same bits, whatever order they arrived in. The reference round
/// (`crates/core/tests/reference/`) folds that way, densely, and the
/// engine plays it bit for bit (`reference_round.rs`), with uploads
/// arriving in shuffled orders too (`streaming_fold.rs`).
///
/// # The `MaskedUpdate` contract
///
/// The fold returns a [`MaskedUpdate`] — a support mask plus values
/// packed in position order — rather than a dense `Vec<f32>`. Masking
/// folds (GlueFL, STC, APF) cover only the `O(q·d)` positions their
/// algorithm actually changes; the dense fold (FedAvg, MD-FedAvg)
/// returns its accumulator under a full mask, which makes the packed
/// layout coincide with the dense vector. The engine applies the update with
/// [`gluefl_tensor::MaskedUpdate::add_to`] (word-level scatter /
/// [`gluefl_tensor::vecops::masked_axpy`]) and scans changed positions
/// with [`gluefl_tensor::MaskedUpdate::for_each_nonzero`], so the apply
/// path never walks the full parameter vector for a sparse round. The
/// per-position arithmetic is a single `+=`, bit-identical to the
/// reference round's dense apply.
///
/// BatchNorm statistic positions are either absent from the returned
/// mask (STC and GlueFL exclude them from every top-k scope) or covered
/// with *exact-zero* values (the dense fold's full mask and APF's active
/// mask, since client deltas are zeroed at statistic positions before
/// compression). Either way the masked apply leaves statistics untouched;
/// the engine aggregates them separately (Appendix-D plain mean) and
/// adds the means straight into the parameters afterwards.
///
/// # Pooling
///
/// [`Strategy::fold_begin`] and [`Strategy::fold_finish`] receive the
/// engine's [`ScratchPool`]: the round's partial sums, top-k selections
/// and support masks come from it, so the per-round hot path is
/// allocation-free in steady state. The mask and values inside the
/// returned [`MaskedUpdate`] come from the pool; the engine hands them
/// back with [`ScratchPool::put_update`] after applying, and the gate
/// returns every folded upload's buffers with
/// [`ScratchPool::reclaim_upload`].
#[derive(Debug)]
pub enum Strategy {
    /// FedAvg's dense fold, which MD-FedAvg shares.
    Dense(DenseFold),
    /// STC's fold, plain or ternary.
    Stc(StcFold),
    /// APF's fold over the active mask.
    Apf(ApfFold),
    /// GlueFL's mask-shifting fold.
    GlueFl(GlueFlFold),
}

impl Strategy {
    /// The fold of the configured strategy, over `trainable` of `dim`
    /// positions; `stats_excluded` marks the positions no mask may
    /// cover (BN statistics). Only GlueFL draws from `rng`, for its
    /// initial shared mask.
    ///
    /// # Panics
    /// Panics if STC's `q` is outside `[0, 1]` or the GlueFL mask ratios
    /// are inconsistent (`q_shr > q`).
    #[must_use]
    pub fn new(
        cfg: &SimConfig,
        trainable: usize,
        dim: usize,
        stats_excluded: BitMask,
        rng: &mut StdRng,
    ) -> Self {
        match &cfg.strategy {
            StrategyConfig::FedAvg | StrategyConfig::MdFedAvg => Self::Dense(DenseFold::new(dim)),
            StrategyConfig::Stc { q } | StrategyConfig::StcQuantized { q } => {
                let quantize = matches!(cfg.strategy, StrategyConfig::StcQuantized { .. });
                Self::Stc(StcFold::new(*q, quantize, trainable, dim, stats_excluded))
            }
            StrategyConfig::Apf { config } => Self::Apf(ApfFold::new(*config, dim)),
            StrategyConfig::GlueFl(params) => Self::GlueFl(GlueFlFold::new(
                params.clone(),
                cfg.round_size,
                trainable,
                dim,
                stats_excluded,
                rng,
            )),
        }
    }

    /// The mask both sides hold this round, if any: it is broadcast to
    /// syncing clients at download time (every synced client is charged
    /// its bitmap frame) and it implicitly positions any mask-aligned
    /// upload this round ([`Upload::KnownMask`] and the shared part of
    /// [`Upload::MaskSplit`]). The engine encodes it as a wire mask frame
    /// and hands it to the wire decoder to rebuild mask-aligned payloads.
    /// `None` for the folds without a mask (dense and explicit-position
    /// uploads).
    #[must_use]
    pub fn round_mask(&self) -> Option<&BitMask> {
        match self {
            Self::Dense(_) | Self::Stc(_) => None,
            Self::Apf(fold) => Some(&fold.active),
            Self::GlueFl(fold) => Some(&fold.shared_mask),
        }
    }

    /// Whether `upload` is the variant this fold takes — the engine
    /// rejects any other before it reaches the gate.
    #[must_use]
    pub fn accepts(&self, upload: &Upload) -> bool {
        match (self, upload) {
            (Self::Stc(fold), Upload::Sparse(_)) => !fold.quantize,
            (Self::Stc(fold), Upload::Ternary(_)) => fold.quantize,
            (Self::Dense(_), Upload::Dense(_) | Upload::DenseFrame(_))
            | (Self::Apf(_), Upload::KnownMask(_))
            | (Self::GlueFl(_), Upload::MaskSplit(_)) => true,
            _ => false,
        }
    }

    /// Begins the aggregation for round `round`: takes the fold's
    /// partial-sum buffers from `scratch`.
    pub fn fold_begin(&mut self, round: u32, scratch: &mut ScratchPool) {
        match self {
            Self::Dense(DenseFold { dim, acc }) | Self::Stc(StcFold { dim, acc, .. }) => {
                *acc = scratch.take_zeroed(*dim);
            }
            Self::Apf(fold) => fold.begin(scratch),
            Self::GlueFl(fold) => fold.begin(round, scratch),
        }
    }

    /// Folds one kept upload, scaled by its aggregation `weight`. Must be
    /// called in ascending client-id order across kept uploads (see the
    /// bit-exactness note). The upload is borrowed — the caller keeps
    /// ownership and can return its buffers to the pool immediately
    /// afterwards, so a streaming server never stages more than the
    /// out-of-order arrivals. A received dense upload
    /// ([`Upload::DenseFrame`]) is read in place from its verified frame
    /// bytes, one `+= w·v` per position as for an owned one, so the
    /// receiver never copies an upload it folds on arrival.
    ///
    /// # Panics
    /// Panics on an upload the fold does not [`accept`](Self::accepts),
    /// or one misaligned with the round mask; the engine validates
    /// arrivals before they reach the gate.
    pub fn fold_upload(&mut self, weight: f32, upload: &Upload) {
        match self {
            Self::Dense(DenseFold { acc, .. }) | Self::Stc(StcFold { acc, .. }) => {
                upload.add_weighted_into(acc, weight);
            }
            Self::Apf(fold) => fold.upload(weight, upload),
            Self::GlueFl(fold) => fold.upload(weight, upload),
        }
    }

    /// Completes the aggregation: performs the fold's finishing work
    /// (top-k re-masking, mask shifting, state updates), returns the
    /// partial-sum buffers to `scratch`, and yields the round's
    /// [`MaskedUpdate`].
    pub fn fold_finish(&mut self, scratch: &mut ScratchPool) -> MaskedUpdate {
        match self {
            Self::Dense(fold) => fold.finish(scratch),
            Self::Stc(fold) => fold.finish(scratch),
            Self::Apf(fold) => fold.finish(scratch),
            Self::GlueFl(fold) => fold.finish(scratch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gluefl_sampling::ClientId;

    #[test]
    fn round_plan_tags_groups() {
        let plan = RoundPlan {
            sticky_invites: vec![1, 2],
            fresh_invites: vec![7],
            keep_sticky: 2,
            keep_fresh: 1,
        };
        let invited: Vec<(ClientId, Group)> = plan.invited().collect();
        assert_eq!(invited.len(), 3);
        assert_eq!(invited[0], (1, Group::Sticky));
        assert_eq!(invited[2], (7, Group::Fresh));
    }

    #[test]
    fn upload_bytes_ordering() {
        // Dense > sparse > known-mask for the same content.
        let dense = Upload::Dense(vec![0.0; 1000]);
        let sparse = Upload::Sparse(SparseUpdate::from_pairs(
            1000,
            (0..100).map(|i| (i as u32, 1.0)).collect(),
        ));
        let known = Upload::KnownMask(MaskAligned::new(1000, vec![1.0; 100]));
        let bytes =
            |u: &Upload| crate::wire_link::encoded_len(u, &gluefl_wire::WirePolicy::default());
        assert!(bytes(&dense) > bytes(&sparse));
        assert!(bytes(&sparse) > bytes(&known));
    }

    #[test]
    fn weighted_accumulation_matches_manual() {
        let u = Upload::Sparse(SparseUpdate::from_pairs(4, vec![(1, 2.0), (3, -1.0)]));
        let mut acc = vec![0.0f32; 4];
        u.add_weighted_into(&mut acc, 0.5);
        assert_eq!(acc, vec![0.0, 1.0, 0.0, -0.5]);
        let d = Upload::Dense(vec![1.0, 1.0, 1.0, 1.0]);
        d.add_weighted_into(&mut acc, 2.0);
        assert_eq!(acc, vec![2.0, 3.0, 2.0, 1.5]);
    }
}
