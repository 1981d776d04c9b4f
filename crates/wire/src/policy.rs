//! The encoding policy: which value codec and which position layouts a
//! [`FrameWriter`](crate::FrameWriter) may use, and the exact byte-cost
//! model it minimizes over.
//!
//! A [`WirePolicy`] names the *menu* of layouts; the writer prices every
//! admissible layout for the frame at hand with the exact functions in
//! this module ([`delta_section_len`], [`rle_section_len_from_indices`],
//! [`rle_section_len`]) and picks the cheapest, with a deterministic
//! tie-break (bitmap ≻ u32 index list ≻ delta varints ≻ run-length).
//! Under [`WirePolicy::default`] the menu collapses to the original
//! bitmap/index pair, so every byte stream is identical to the legacy
//! `encode_*` functions — opting into the entropy layouts is always a
//! config change, never a silent format change.

use crate::codec::Codec;
use crate::frame::FrameKind;
use crate::varint::varint_len;
use gluefl_tensor::BitMask;

/// Which position layouts a frame may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LayoutMenu {
    /// The original v1 pair only — a `dim`-bit bitmap or fixed 4-byte
    /// little-endian `u32` indices — so a frame's length is a function
    /// of `(dim, nnz)` alone ([`crate::legacy_sparse_len`]).
    #[default]
    Legacy,
    /// Additionally consider the v2 sections, each used only when
    /// strictly cheaper: delta-coded varint indices
    /// ([`FrameKind::SparseDelta`] / [`FrameKind::TernaryDelta`] — near
    /// the paper's 4% density ≈1 byte per index instead of 4) and
    /// run-length sections ([`FrameKind::MaskRle`],
    /// [`FrameKind::SparseRle`], [`FrameKind::TernaryRle`]).
    Entropy,
}

/// How round messages are encoded: value codec, admissible position
/// layouts, and (for lossy codecs) whether the codec residual feeds back
/// into error compensation.
///
/// Carried in `SimConfig::wire` and by the transport endpoints; both
/// sides of a connection must agree on the codec (frames self-describe,
/// so decoding never needs the policy — it only shapes what the encoder
/// emits).
///
/// [`WirePolicy::default`] reproduces the original wire format byte for
/// byte: F32 values, bitmap/u32-index positions, no run-length sections.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WirePolicy {
    /// Value codec for dense/sparse/known-mask payloads.
    pub codec: Codec,
    /// Position layouts admissible for sparse/ternary/mask frames.
    pub menu: LayoutMenu,
    /// With a lossy codec, hand each sender the *dequantized* values it
    /// actually shipped so its error-compensation bank absorbs the codec
    /// residual alongside the top-k residual. No effect under
    /// [`Codec::F32`] (the shipped values are bit-exact).
    pub quant_ec: bool,
}

impl Default for WirePolicy {
    fn default() -> Self {
        Self::legacy(Codec::F32)
    }
}

impl WirePolicy {
    /// The original v1 menu (bitmap / u32 index list, no RLE) with the
    /// given value codec — the layout every pre-entropy frame on disk
    /// and on the wire was written in, and the policy the analytic byte
    /// ledger (`RoundRecord::{up_bytes, down_bytes}`) is priced under.
    #[must_use]
    pub fn legacy(codec: Codec) -> Self {
        Self {
            codec,
            menu: LayoutMenu::Legacy,
            quant_ec: true,
        }
    }

    /// The full entropy menu (delta varints and run-length sections both
    /// admissible) with the given value codec.
    #[must_use]
    pub fn entropy(codec: Codec) -> Self {
        Self {
            codec,
            menu: LayoutMenu::Entropy,
            quant_ec: true,
        }
    }

    /// The position layout the writer picks for a sparse frame over
    /// `indices` (strictly increasing, `< dim`): the byte-cheapest
    /// admissible kind, ties broken bitmap ≻ index ≻ delta ≻ RLE.
    #[must_use]
    pub fn sparse_kind(&self, dim: usize, indices: &[u32]) -> FrameKind {
        FrameKind::sparse(self.position_layout(dim, indices))
    }

    /// The layout for a mask broadcast: the v1 bitmap [`FrameKind::Mask`],
    /// or [`FrameKind::MaskRle`] when RLE is admissible and strictly
    /// cheaper.
    #[must_use]
    pub fn mask_kind(&self, mask: &BitMask) -> FrameKind {
        if self.menu == LayoutMenu::Entropy && rle_section_len(mask) < mask.len().div_ceil(8) as u64
        {
            FrameKind::MaskRle
        } else {
            FrameKind::Mask
        }
    }

    /// Exact position-section byte length for the sparse/ternary layout
    /// [`WirePolicy::sparse_kind`] would pick.
    #[must_use]
    pub fn position_section_len(&self, dim: usize, indices: &[u32]) -> u64 {
        self.priced_layout(dim, indices).1
    }

    /// The v1 position section's length for `nnz` of `dim` positions:
    /// [`position_section_len`](Self::position_section_len) of any such
    /// index set under the legacy menu, and an upper bound on it under
    /// the entropy menu, which keeps a v1 section whenever that is
    /// cheaper.
    ///
    /// # Panics
    /// Panics if `nnz > dim`.
    pub(crate) fn count_position_section_len(&self, dim: usize, nnz: usize) -> u64 {
        assert!(nnz <= dim, "nnz {nnz} exceeds dim {dim}");
        legacy_positions(dim, nnz).1
    }

    pub(crate) fn position_layout(&self, dim: usize, indices: &[u32]) -> PositionLayout {
        self.priced_layout(dim, indices).0
    }

    /// The cheapest admissible layout for `indices` and its section
    /// length.
    fn priced_layout(&self, dim: usize, indices: &[u32]) -> (PositionLayout, u64) {
        let mut best = legacy_positions(dim, indices.len());
        if self.menu == LayoutMenu::Entropy {
            let delta = delta_section_len(indices);
            if delta < best.1 {
                best = (PositionLayout::Delta, delta);
            }
            let rle = rle_section_len_from_indices(indices);
            if rle < best.1 {
                best = (PositionLayout::Rle, rle);
            }
        }
        best
    }
}

/// A position-section layout, before mapping to sparse/ternary/mask kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PositionLayout {
    Bitmap,
    Index,
    Delta,
    Rle,
}

/// The v1 position section for `nnz` of `dim` positions and its byte
/// length: the `dim`-bit bitmap when `ceil(dim/8) ≤ 4·nnz` (ties
/// included), the `u32` index list otherwise. The one statement of the
/// bitmap/index rule: every writer's layout choice starts from it and
/// the byte ledger's count-based price ([`crate::legacy_sparse_len`]) is
/// it.
pub(crate) fn legacy_positions(dim: usize, nnz: usize) -> (PositionLayout, u64) {
    let (bitmap, index) = (dim.div_ceil(8) as u64, 4 * nnz as u64);
    if bitmap <= index {
        (PositionLayout::Bitmap, bitmap)
    } else {
        (PositionLayout::Index, index)
    }
}

/// Calls `f` with each varint of the delta position section for
/// `indices` (strictly increasing), in order: the first index, then
/// `gap − 1` per successor. The section's grammar, walked once for both
/// its length and its bytes.
pub(crate) fn for_each_delta(indices: &[u32], mut f: impl FnMut(u64)) {
    let mut prev: Option<u32> = None;
    for &i in indices {
        f(match prev {
            None => u64::from(i),
            Some(p) => u64::from(i - p - 1),
        });
        prev = Some(i);
    }
}

/// Calls `f(zeros, ones)` for each maximal run of consecutive `indices`
/// (strictly increasing), in order: the zeros-run before it and its
/// length — the two varints the run-length section spends on it
/// (trailing zeros are implicit).
pub(crate) fn for_each_index_run(indices: &[u32], mut f: impl FnMut(u64, u64)) {
    let mut j = 0usize;
    let mut pos = 0u64;
    while j < indices.len() {
        let start = u64::from(indices[j]);
        let mut end = start + 1;
        j += 1;
        while j < indices.len() && u64::from(indices[j]) == end {
            end += 1;
            j += 1;
        }
        f(start - pos, end - start);
        pos = end;
    }
}

/// [`for_each_index_run`] over the set positions of `mask`.
pub(crate) fn for_each_mask_run(mask: &BitMask, mut f: impl FnMut(u64, u64)) {
    let mut pos = 0usize;
    mask.for_each_run(|start, len| {
        f((start - pos) as u64, len as u64);
        pos = start + len;
    });
}

/// Exact byte length of the delta-varint position section for `indices`
/// (strictly increasing): `varint(ix[0])` then `varint(gap − 1)` per
/// successor. Empty for zero indices.
#[must_use]
pub fn delta_section_len(indices: &[u32]) -> u64 {
    let mut total = 0u64;
    for_each_delta(indices, |v| total += varint_len(v) as u64);
    total
}

/// Exact byte length of the run-length position section for `indices`
/// (strictly increasing): alternating zeros-run / ones-run varints,
/// ending with the ones-run that reaches the final index (trailing zeros
/// are implicit). Empty for zero indices.
#[must_use]
pub fn rle_section_len_from_indices(indices: &[u32]) -> u64 {
    let mut total = 0u64;
    for_each_index_run(indices, |zeros, ones| {
        total += (varint_len(zeros) + varint_len(ones)) as u64;
    });
    total
}

/// Exact byte length of the run-length section serializing `mask` —
/// the same layout as [`rle_section_len_from_indices`] over the mask's
/// set positions.
#[must_use]
pub fn rle_section_len(mask: &BitMask) -> u64 {
    let mut total = 0u64;
    for_each_mask_run(mask, |zeros, ones| {
        total += (varint_len(zeros) + varint_len(ones)) as u64;
    });
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_the_legacy_menu() {
        let p = WirePolicy::default();
        assert_eq!(p, WirePolicy::legacy(Codec::F32));
        assert_eq!(p.menu, LayoutMenu::Legacy);
        assert!(p.quant_ec);
        assert_ne!(p, WirePolicy::entropy(Codec::F32));
    }

    #[test]
    fn legacy_policy_matches_the_v1_sparse_rule() {
        let p = WirePolicy::default();
        // Very sparse → index list; dense-ish → bitmap; tie → bitmap.
        for (dim, nnz, want) in [
            (1000usize, 3usize, FrameKind::SparseIndex),
            (1000, 400, FrameKind::SparseBitmap),
            (3200, 100, FrameKind::SparseBitmap),
            (3200, 99, FrameKind::SparseIndex),
        ] {
            let step = (dim / nnz) as u32;
            let indices: Vec<u32> = (0..nnz as u32).map(|i| i * step).collect();
            assert_eq!(p.sparse_kind(dim, &indices), want, "dim={dim} nnz={nnz}");
            // The closed form the rule is stated as, restated here.
            let reference = dim.div_ceil(8).min(4 * nnz) as u64;
            assert_eq!(p.position_section_len(dim, &indices), reference);
            assert_eq!(legacy_positions(dim, nnz).1, reference);
        }
    }

    #[test]
    fn entropy_policy_picks_delta_for_scattered_sparse_indices() {
        // 4% density, scattered: gaps ≈ 25 → 1-byte varints, far below
        // both the bitmap (dim/8) and the 4-byte index list.
        let dim = 100_000;
        let indices: Vec<u32> = (0..4000u32).map(|i| i * 25).collect();
        let p = WirePolicy::entropy(Codec::F32);
        assert_eq!(p.sparse_kind(dim, &indices), FrameKind::SparseDelta);
        let delta = delta_section_len(&indices);
        assert!(delta < 4 * indices.len() as u64 / 2, "delta={delta}");
    }

    #[test]
    fn rle_wins_for_blocky_masks_and_loses_for_scattered_ones() {
        let dim = 10_000;
        let blocky = BitMask::from_indices(dim, (0..dim).filter(|i| i / 500 % 2 == 0));
        let scattered = BitMask::from_indices(dim, (0..dim).step_by(2));
        let p = WirePolicy::entropy(Codec::F32);
        assert_eq!(p.mask_kind(&blocky), FrameKind::MaskRle);
        assert_eq!(p.mask_kind(&scattered), FrameKind::Mask);
        assert_eq!(WirePolicy::default().mask_kind(&blocky), FrameKind::Mask);
    }

    #[test]
    fn rle_lengths_agree_between_mask_and_index_forms() {
        let dim = 4096;
        let indices: Vec<u32> = (0..dim as u32).filter(|i| i % 37 < 11).collect();
        let mask = BitMask::from_indices(dim, indices.iter().map(|&i| i as usize));
        assert_eq!(
            rle_section_len(&mask),
            rle_section_len_from_indices(&indices)
        );
    }

    #[test]
    fn empty_sections_cost_nothing() {
        assert_eq!(delta_section_len(&[]), 0);
        assert_eq!(rle_section_len_from_indices(&[]), 0);
        assert_eq!(rle_section_len(&BitMask::zeros(100)), 0);
    }
}
