//! The bridge between the strategy seam's [`Upload`] type and the
//! [`gluefl_wire`] frame protocol.
//!
//! [`encode_upload`] serializes an upload into the wire frames a real
//! client would transmit — one frame for dense/sparse/known-mask/ternary
//! uploads, two (shared known-mask + unique sparse) for GlueFL's
//! [`Upload::MaskSplit`] — and [`decode_upload_with_stats`] parses an
//! upload payload (those frames plus the stats frame every sender
//! appends) back into an `Upload`, drawing index/value storage from the
//! [`ScratchPool`] so the receive path is allocation-free in steady
//! state. A dense upload's values are not copied at all: they stay in
//! the verified frame ([`Upload::DenseFrame`]), where the dense fold
//! reads them. Mask-aligned payloads carry no position bytes and decode to
//! plain value runs ([`MaskAligned`]) — no positions are rebuilt either;
//! the round's mask ([`crate::strategies::Strategy::round_mask`]) is
//! what such a frame's `dim` and `nnz` are checked against.
//!
//! What travels is shaped by a [`WirePolicy`] (carried in
//! `SimConfig::wire`): the value codec, and whether the entropy position
//! layouts — delta-coded varint index lists and run-length sections —
//! compete with the v1 bitmap/index pair on exact byte cost. Decoding is
//! policy-free; frames self-describe their layout.
//!
//! With [`Codec::F32`] the round trip is bit-exact, and the analytic
//! ledger (`RoundRecord::up_bytes`) *is* [`encoded_len`] under the legacy
//! F32 policy; every kept turn checks its encoded upload against its
//! nominal offer ([`crate::StagedTurn::keep`]: equal under the legacy
//! layout menu, bounded under the entropy menu), and the
//! `wire_roundtrip` integration suite pins predicted ≡ encoded end to
//! end. With the lossy codecs ([`Codec::F16`], [`Codec::QuantU8`]) the
//! decoded values differ within the codec's error envelope; when
//! [`WirePolicy::quant_ec`] is on, [`encode_upload_with_feedback`]
//! reports the *dequantized* values each frame actually shipped back to
//! the sender, so a client half with error-compensation memory folds the
//! codec residual into the next round alongside the top-k residual.

use crate::scratch::ScratchPool;
use crate::strategies::Upload;
use gluefl_compress::mask_shift::ClientSplit;
use gluefl_compress::stc::TernaryUpdate;
use gluefl_tensor::{BitMask, MaskAligned, SparseUpdate};
use gluefl_wire::{
    decode_frame_prefix, Codec, Frame, FrameKind, FrameWriter, Rounding, WireError, WirePolicy,
};

/// The rounding mode a codec uses on the round paths: quantization
/// rounds stochastically with the given seed (derive it from
/// `(master seed, round, client)` so serial ≡ parallel holds); the other
/// codecs round deterministically.
#[must_use]
pub fn rounding_for(codec: Codec, quant_seed: u64) -> Rounding {
    match codec {
        Codec::QuantU8 => Rounding::Stochastic { seed: quant_seed },
        Codec::F32 | Codec::F16 => Rounding::Nearest,
    }
}

/// The exact byte count [`encode_upload`] will produce for `upload`
/// under `policy`, computed without encoding anything.
///
/// Under the legacy menu frame lengths depend only on the upload's
/// *shape* `(kind, codec, dim, nnz)`; the entropy layouts price the
/// actual index pattern — but the upload carries its indices, so the
/// prediction stays exact either way. The engine's upload ledger prices
/// each folded upload with it under the legacy F32 policy. The shape
/// alone is what [`crate::ClientCompressor::shape_offer`] prices before
/// anyone trains: dense and mask-aligned frames name no positions, so
/// under any policy their length is `dense_len(dim)` or
/// `known_mask_len(nnz)`, and a top-k frame's nominal length is its
/// count's in the legacy layout.
#[must_use]
pub fn encoded_len(upload: &Upload, policy: &WirePolicy) -> u64 {
    let w = FrameWriter::new(*policy);
    match upload {
        Upload::Dense(values) => w.dense_len(values.len()),
        Upload::DenseFrame(values) => w.dense_len(values.len()),
        Upload::Sparse(u) => w.sparse_len(u.dim(), u.indices()),
        Upload::KnownMask(u) => w.known_mask_len(u.nnz()),
        Upload::Ternary(t) => w.ternary_len(t.dim(), &t.indices),
        Upload::MaskSplit(split) => {
            w.known_mask_len(split.shared.nnz())
                + w.sparse_len(split.unique.dim(), split.unique.indices())
        }
    }
}

/// Where the values of a lossy frame sit in the model vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShippedAt<'a> {
    /// At these explicit, strictly increasing coordinates.
    Indices(&'a [u32]),
    /// At the one-bits of the round mask, in order: a mask-aligned frame
    /// names no positions, sender and receiver both hold the mask.
    RoundMask,
}

/// Callback receiving `(at, sent, shipped)` for each lossy value-bearing
/// frame: where the frame's values sit, the values handed to the
/// encoder, and the dequantized values a receiver reconstructs.
pub type ShippedFeedback<'a> = dyn FnMut(ShippedAt<'_>, &[f32], &[f32]) + 'a;

/// Serializes `upload` into wire frames appended to `out`, returning the
/// encoded byte count. Ternary uploads are already 1-bit quantized and
/// use their fixed sign/µ layout regardless of the policy's codec.
pub fn encode_upload(
    upload: &Upload,
    round: u32,
    policy: &WirePolicy,
    quant_seed: u64,
    out: &mut Vec<u8>,
) -> usize {
    encode_upload_with_feedback(
        upload,
        round,
        policy,
        quant_seed,
        out,
        &mut Vec::new(),
        &mut |_, _, _| {},
    )
}

/// Like [`encode_upload`], additionally reporting what each lossy
/// value-bearing frame *actually shipped*: after writing a sparse or
/// mask-aligned frame under a lossy codec (with [`WirePolicy::quant_ec`]
/// on), `feedback(at, sent, shipped)` receives where the frame's values
/// sit, the values handed to the encoder, and the dequantized values a
/// receiver will reconstruct. The client half folds
/// `sent − shipped` into its residual bank
/// ([`crate::StagedTurn::keep`]), so codec loss is carried
/// into the next round instead of silently dropped.
///
/// The callback never fires under [`Codec::F32`] (shipped ≡ sent), for
/// ternary frames (their fixed sign/µ layout is exact given `µ`), or
/// for dense uploads (the dense strategies keep no residual bank).
///
/// `shipped` is the caller's scratch for the dequantized values — it is
/// overwritten per lossy frame, so a sender that keeps it across calls
/// reports without allocating.
pub fn encode_upload_with_feedback(
    upload: &Upload,
    round: u32,
    policy: &WirePolicy,
    quant_seed: u64,
    out: &mut Vec<u8>,
    shipped: &mut Vec<f32>,
    feedback: &mut ShippedFeedback<'_>,
) -> usize {
    let w = FrameWriter::new(*policy);
    let rounding = rounding_for(policy.codec, quant_seed);
    let lossy = policy.quant_ec && policy.codec != Codec::F32;
    match upload {
        Upload::Dense(values) => w.dense(out, round, rounding, values),
        Upload::DenseFrame(values) => {
            // A received upload sent on: its values are staged in the
            // caller's scratch, which the dense frame reports nothing to.
            shipped.clear();
            values.extend_into(shipped);
            w.dense(out, round, rounding, shipped)
        }
        Upload::Sparse(u) => {
            let start = out.len();
            let n = w.sparse(out, round, rounding, u.dim(), u.indices(), u.values());
            if lossy {
                let at = ShippedAt::Indices(u.indices());
                report_shipped(out, start, at, u.values(), shipped, feedback);
            }
            n
        }
        Upload::KnownMask(u) => {
            let start = out.len();
            let n = w.known_mask(out, round, rounding, u.dim(), u.values());
            if lossy {
                let at = ShippedAt::RoundMask;
                report_shipped(out, start, at, u.values(), shipped, feedback);
            }
            n
        }
        Upload::Ternary(t) => w.ternary(out, round, t.dim(), t.mu, &t.indices, &t.signs),
        Upload::MaskSplit(split) => {
            let start = out.len();
            let shared = w.known_mask(
                out,
                round,
                rounding,
                split.shared.dim(),
                split.shared.values(),
            );
            if lossy {
                let at = ShippedAt::RoundMask;
                report_shipped(out, start, at, split.shared.values(), shipped, feedback);
            }
            let start = out.len();
            let unique = w.sparse(
                out,
                round,
                rounding,
                split.unique.dim(),
                split.unique.indices(),
                split.unique.values(),
            );
            if lossy {
                let at = ShippedAt::Indices(split.unique.indices());
                report_shipped(out, start, at, split.unique.values(), shipped, feedback);
            }
            shared + unique
        }
    }
}

/// Decodes the frame just appended at `out[start..]` into `shipped` and
/// hands those reconstructed (dequantized) values to `feedback`
/// alongside the exact values the sender meant to ship.
fn report_shipped(
    out: &[u8],
    start: usize,
    at: ShippedAt<'_>,
    sent: &[f32],
    shipped: &mut Vec<f32>,
    feedback: &mut ShippedFeedback<'_>,
) {
    if sent.is_empty() {
        return; // e.g. the empty shared part of a regeneration round
    }
    let (frame, _) = decode_frame_prefix(&out[start..]).expect("a just-encoded frame decodes");
    shipped.clear();
    frame.values_into(shipped);
    feedback(at, sent, shipped);
}

/// Parses a round upload payload — the upload's frame(s) followed by the
/// BN-statistics known-mask frame — as every client transmits it: `upload := dense | sparse | ternary |
/// known-mask | known-mask sparse`, then exactly one known-mask stats
/// frame. The grammar is prefix-decidable with [`decode_frame_prefix`]
/// alone (a known-mask first frame is a split upload iff a sparse frame
/// follows it), so a streaming receiver needs no out-of-band length
/// split between the upload and stats sections. Every check runs before
/// the upload is returned — checksums, kinds, the grammar, trailing
/// bytes — so what comes back is verified. A dense frame's values are
/// then left where they are: the upload is an [`Upload::DenseFrame`]
/// borrowing `buf`, which the fold reads in place and which is copied
/// only if the receiver must keep it past `buf`
/// ([`crate::stream::StreamingAggregator::accept`] parking an early
/// arrival). Every other variant's rebuilt storage is pooled through
/// `scratch`; `round_mask` supplies the mask that
/// positions mask-aligned payloads (required unless such a frame is
/// empty). The returned stats [`Frame`] borrows `buf`; the caller
/// decodes its values (the frame's `dim`/`nnz` are validated against
/// the model layout by the caller, which knows both).
///
/// # Errors
/// Propagates any [`WireError`] from frame decoding, and reports
/// upload-grammar violations as typed errors too — a mask broadcast
/// arriving as an upload, or a stats slot holding anything but a
/// known-mask frame ([`WireError::UnexpectedKind`]), a mask-aligned
/// frame whose `dim` disagrees with the round mask, or a split upload
/// whose unique part's `dim` disagrees with its shared part's
/// ([`WireError::DimMismatch`]), a mask-aligned frame whose `nnz`
/// disagrees with the mask's popcount ([`WireError::NnzMismatch`]),
/// and bytes past the stats frame ([`WireError::TrailingBytes`]).
/// Grammar violations are counted in the wire layer's decode-error
/// table, as frame-level errors are. Checksum-valid but hostile bytes
/// never panic the receiver.
pub fn decode_upload_with_stats<'a>(
    buf: &'a [u8],
    round_mask: Option<&BitMask>,
    scratch: &mut ScratchPool,
) -> Result<(Upload<'a>, Frame<'a>), WireError> {
    let (first, rest) = decode_frame_prefix(buf)?;
    let (upload, rest) = match first.kind {
        FrameKind::Dense => (Upload::DenseFrame(first.value_view()), rest),
        k if k.is_sparse() => (Upload::Sparse(decode_sparse_frame(&first, scratch)), rest),
        k if k.is_ternary() => {
            let (mut indices, spare_values) = scratch.take_sparse();
            scratch.put(spare_values);
            first.indices_into(&mut indices);
            let mut signs = scratch.take_signs();
            first.ternary_signs_into(&mut signs);
            (
                Upload::Ternary(TernaryUpdate::from_parts(
                    first.dim,
                    first.ternary_mu(),
                    indices,
                    signs,
                )),
                rest,
            )
        }
        FrameKind::KnownMask => {
            // Peek the successor: a sparse frame makes this a split
            // upload; anything else means the known-mask frame *is* the
            // upload and the successor is the stats frame.
            let (second, tail) = decode_frame_prefix(rest)?;
            if second.kind.is_sparse() {
                if second.dim != first.dim {
                    return Err(refused(WireError::DimMismatch {
                        declared: second.dim,
                        expected: first.dim,
                    }));
                }
                let shared = decode_known_mask_frame(&first, round_mask, scratch)?;
                let unique = decode_sparse_frame(&second, scratch);
                (Upload::MaskSplit(ClientSplit { shared, unique }), tail)
            } else {
                (
                    Upload::KnownMask(decode_known_mask_frame(&first, round_mask, scratch)?),
                    rest,
                )
            }
        }
        // A mask broadcast is a download-direction message; as an upload
        // it is a protocol violation, not corruption.
        other => return Err(refused(WireError::UnexpectedKind(other.id()))),
    };
    let (stats, tail) = decode_frame_prefix(rest)?;
    if stats.kind != FrameKind::KnownMask {
        return Err(refused(WireError::UnexpectedKind(stats.kind.id())));
    }
    if !tail.is_empty() {
        return Err(refused(WireError::TrailingBytes { extra: tail.len() }));
    }
    Ok((upload, stats))
}

/// Counts an upload-grammar violation in the wire layer's decode-error
/// table, where [`decode_frame_prefix`] counts frame-level errors.
fn refused(e: WireError) -> WireError {
    gluefl_wire::stats::record_decode_error(&e);
    e
}

/// Rebuilds a [`SparseUpdate`] from an explicit-position sparse frame.
fn decode_sparse_frame(frame: &Frame<'_>, scratch: &mut ScratchPool) -> SparseUpdate {
    let (mut indices, mut values) = scratch.take_sparse();
    frame.indices_into(&mut indices);
    frame.values_into(&mut values);
    SparseUpdate::from_sorted_buffers(frame.dim, indices, values)
}

/// Takes a known-mask frame's values as a [`MaskAligned`] part — a copy
/// of the value section and nothing else; the positions stay in the mask
/// both sides hold. A frame that disagrees with the receiver's mask (or
/// arrives when the receiver holds none) is a typed error — such bytes
/// can be checksum-valid.
fn decode_known_mask_frame(
    frame: &Frame<'_>,
    round_mask: Option<&BitMask>,
    scratch: &mut ScratchPool,
) -> Result<MaskAligned, WireError> {
    if frame.nnz > 0 {
        let Some(mask) = round_mask else {
            // Mask-aligned values sent to a receiver that holds no mask.
            return Err(refused(WireError::UnexpectedKind(
                FrameKind::KnownMask.id(),
            )));
        };
        if mask.len() != frame.dim {
            return Err(refused(WireError::DimMismatch {
                declared: frame.dim,
                expected: mask.len(),
            }));
        }
        if mask.count_ones() != frame.nnz {
            return Err(refused(WireError::NnzMismatch {
                declared: frame.nnz,
                actual: mask.count_ones(),
            }));
        }
    }
    let mut values = scratch.take_cleared();
    frame.values_into(&mut values);
    Ok(MaskAligned::new(frame.dim, values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gluefl_compress::stc::sparsify;

    /// Decodes an upload's frames the way every receiver gets them:
    /// followed by the stats frame each sender appends (empty here).
    fn decode_upload(
        frames: &[u8],
        mask: Option<&BitMask>,
        scratch: &mut ScratchPool,
    ) -> Result<Upload<'static>, WireError> {
        let mut payload = frames.to_vec();
        let _ = FrameWriter::new(WirePolicy::default()).known_mask(
            &mut payload,
            0,
            Rounding::Nearest,
            0,
            &[],
        );
        decode_upload_with_stats(&payload, mask, scratch)
            .map(|(upload, _)| upload.into_owned(scratch))
    }

    fn roundtrip(upload: &Upload, mask: Option<&BitMask>) -> (Upload<'static>, usize) {
        let mut scratch = ScratchPool::new();
        let mut buf = Vec::new();
        let n = encode_upload(upload, 3, &WirePolicy::default(), 0, &mut buf);
        assert_eq!(n, buf.len());
        let decoded = decode_upload(&buf, mask, &mut scratch).expect("valid frames");
        (decoded, n)
    }

    #[test]
    fn dense_round_trip_bit_exact_and_cost_parity() {
        let upload = Upload::Dense((0..130).map(|i| (i as f32).sin()).collect());
        let (decoded, n) = roundtrip(&upload, None);
        assert_eq!(decoded, upload);
        assert_eq!(n as u64, encoded_len(&upload, &WirePolicy::default()));
    }

    #[test]
    fn sparse_round_trip_bit_exact_and_cost_parity() {
        let dense: Vec<f32> = (0..400).map(|i| ((i * 7) % 13) as f32 - 6.0).collect();
        let upload = Upload::Sparse(sparsify(&dense, 0.05));
        let (decoded, n) = roundtrip(&upload, None);
        assert_eq!(decoded, upload);
        assert_eq!(n as u64, encoded_len(&upload, &WirePolicy::default()));
    }

    #[test]
    fn known_mask_round_trip_uses_the_round_mask() {
        let mask = BitMask::from_indices(50, [3usize, 17, 40]);
        let dense: Vec<f32> = (0..50).map(|i| i as f32).collect();
        let upload = Upload::KnownMask(MaskAligned::gather(&dense, &mask));
        let (decoded, n) = roundtrip(&upload, Some(&mask));
        assert_eq!(decoded, upload);
        assert_eq!(n as u64, encoded_len(&upload, &WirePolicy::default()));
    }

    #[test]
    fn ternary_round_trip_bit_exact_and_cost_parity() {
        let dense: Vec<f32> = (0..4000).map(|i| ((i * 31) % 7) as f32 - 3.0).collect();
        let upload = Upload::Ternary(TernaryUpdate::quantize(&sparsify(&dense, 0.01)));
        let (decoded, n) = roundtrip(&upload, None);
        assert_eq!(decoded, upload);
        assert_eq!(n as u64, encoded_len(&upload, &WirePolicy::default()));
    }

    #[test]
    fn mask_split_round_trip_bit_exact_and_cost_parity() {
        let dense: Vec<f32> = (0..600).map(|i| ((i * 13) % 29) as f32 - 14.0).collect();
        let mask = BitMask::from_indices(600, (0..600).step_by(4));
        let upload =
            Upload::MaskSplit(gluefl_compress::mask_shift::client_split(&dense, &mask, 30));
        let (decoded, n) = roundtrip(&upload, Some(&mask));
        assert_eq!(decoded, upload);
        assert_eq!(n as u64, encoded_len(&upload, &WirePolicy::default()));
    }

    #[test]
    fn empty_shared_part_decodes_without_a_mask() {
        // GlueFL regeneration rounds ship an empty shared frame; decoding
        // must not require the mask then.
        let upload = Upload::MaskSplit(ClientSplit {
            shared: MaskAligned::empty(100),
            unique: SparseUpdate::from_pairs(100, vec![(5, 1.0)]),
        });
        let (decoded, n) = roundtrip(&upload, None);
        assert_eq!(decoded, upload);
        assert_eq!(n as u64, encoded_len(&upload, &WirePolicy::default()));
    }

    #[test]
    fn lossy_codec_changes_bytes_but_preserves_support() {
        let dense: Vec<f32> = (0..500).map(|i| (i as f32 * 0.37).sin()).collect();
        let upload = Upload::Sparse(sparsify(&dense, 0.1));
        let mut scratch = ScratchPool::new();
        let mut buf = Vec::new();
        let n = encode_upload(
            &upload,
            0,
            &WirePolicy::legacy(Codec::QuantU8),
            42,
            &mut buf,
        );
        assert!((n as u64) < encoded_len(&upload, &WirePolicy::default()));
        let decoded = decode_upload(&buf, None, &mut scratch).unwrap();
        match (&upload, &decoded) {
            (Upload::Sparse(a), Upload::Sparse(b)) => {
                assert_eq!(a.indices(), b.indices());
                assert_ne!(a.values(), b.values());
            }
            other => panic!("unexpected shapes {other:?}"),
        }
    }

    #[test]
    fn entropy_policy_round_trips_bit_exact_and_shrinks_bytes() {
        // 4% density, scattered support: the entropy menu picks the
        // delta-varint layout and F32 reconstruction stays bit-exact.
        let dim = 100_000;
        let pairs: Vec<(u32, f32)> = (0..4000u32)
            .map(|i| (i * 25, (i as f32 * 0.13).sin()))
            .collect();
        let upload = Upload::Sparse(SparseUpdate::from_pairs(dim, pairs));
        let legacy = encoded_len(&upload, &WirePolicy::default());
        let entropy_policy = WirePolicy::entropy(Codec::F32);
        let mut buf = Vec::new();
        let n = encode_upload(&upload, 9, &entropy_policy, 0, &mut buf);
        assert_eq!(n as u64, encoded_len(&upload, &entropy_policy));
        assert!(
            (n as u64) * 4 <= legacy * 3,
            "entropy {n} not ≥25% below legacy {legacy}"
        );
        let mut scratch = ScratchPool::new();
        let decoded = decode_upload(&buf, None, &mut scratch).unwrap();
        assert_eq!(decoded, upload);
    }

    #[test]
    fn feedback_reports_exact_codec_residual() {
        // QuantU8 loss must be surfaced as sent − shipped per coordinate;
        // F32 and ternary must stay silent.
        let dense: Vec<f32> = (0..600).map(|i| ((i as f32) * 0.73).sin()).collect();
        let mask = BitMask::from_indices(600, (0..600).step_by(5));
        let split = Upload::MaskSplit(gluefl_compress::mask_shift::client_split(&dense, &mask, 20));
        for policy in [
            WirePolicy::legacy(Codec::QuantU8),
            WirePolicy::entropy(Codec::QuantU8),
        ] {
            // (explicit indices, if any; sent; shipped) per lossy frame.
            let mut calls = Vec::new();
            let mut buf = Vec::new();
            let _ = encode_upload_with_feedback(
                &split,
                1,
                &policy,
                7,
                &mut buf,
                &mut Vec::new(),
                &mut |at, sent, shipped| {
                    let ix = match at {
                        ShippedAt::Indices(ix) => Some(ix.to_vec()),
                        ShippedAt::RoundMask => None,
                    };
                    calls.push((ix, sent.to_vec(), shipped.to_vec()));
                },
            );
            // Shared + unique parts both report: the shared one at the
            // round mask, the unique one at its own indices.
            assert_eq!(calls.len(), 2);
            let Upload::MaskSplit(sent) = &split else {
                unreachable!()
            };
            assert_eq!(calls[0].0, None);
            assert_eq!(calls[0].1, sent.shared.values());
            assert_eq!(calls[1].0.as_deref(), Some(sent.unique.indices()));
            assert_eq!(calls[1].1, sent.unique.values());
            // What the callback says shipped is exactly what a receiver
            // decodes.
            let mut scratch = ScratchPool::new();
            let decoded = decode_upload(&buf, Some(&mask), &mut scratch).unwrap();
            let Upload::MaskSplit(back) = decoded else {
                panic!("expected split")
            };
            assert_eq!(calls[0].2, back.shared.values());
            assert_eq!(calls[1].2, back.unique.values());
            assert!(calls
                .iter()
                .any(|(_, sent, shipped)| sent.iter().zip(shipped).any(|(a, b)| a != b)));
        }
        // F32: never fires.
        let mut fired = false;
        let mut buf = Vec::new();
        let _ = encode_upload_with_feedback(
            &split,
            1,
            &WirePolicy::default(),
            7,
            &mut buf,
            &mut Vec::new(),
            &mut |_, _, _| fired = true,
        );
        assert!(!fired);
        // quant_ec=false: never fires either.
        let mut policy = WirePolicy::legacy(Codec::QuantU8);
        policy.quant_ec = false;
        let mut buf = Vec::new();
        let _ = encode_upload_with_feedback(
            &split,
            1,
            &policy,
            7,
            &mut buf,
            &mut Vec::new(),
            &mut |_, _, _| fired = true,
        );
        assert!(!fired);
        // Ternary: fixed layout, no codec residual to report.
        let ternary = Upload::Ternary(TernaryUpdate::quantize(&sparsify(&dense, 0.05)));
        let mut buf = Vec::new();
        let _ = encode_upload_with_feedback(
            &ternary,
            1,
            &WirePolicy::legacy(Codec::QuantU8),
            7,
            &mut buf,
            &mut Vec::new(),
            &mut |_, _, _| fired = true,
        );
        assert!(!fired);
    }

    #[test]
    fn encoded_len_predicts_every_variant_codec_and_layout() {
        let mask = BitMask::from_indices(600, (0..600).step_by(4));
        let dense: Vec<f32> = (0..600).map(|i| ((i * 13) % 29) as f32 - 14.0).collect();
        let uploads = vec![
            Upload::Dense(dense[..130].to_vec()),
            Upload::Sparse(sparsify(&dense, 0.05)),
            Upload::Sparse(sparsify(&dense, 0.4)), // bitmap-position regime
            Upload::KnownMask(MaskAligned::gather(&dense, &mask)),
            Upload::Ternary(TernaryUpdate::quantize(&sparsify(&dense, 0.02))),
            Upload::MaskSplit(gluefl_compress::mask_shift::client_split(&dense, &mask, 30)),
            Upload::MaskSplit(ClientSplit {
                shared: MaskAligned::empty(600),
                unique: SparseUpdate::from_pairs(600, vec![(5, 1.0)]),
            }),
        ];
        for codec in [Codec::F32, Codec::F16, Codec::QuantU8] {
            for policy in [WirePolicy::legacy(codec), WirePolicy::entropy(codec)] {
                for upload in &uploads {
                    let mut buf = Vec::new();
                    let n = encode_upload(upload, 7, &policy, 99, &mut buf);
                    assert_eq!(
                        encoded_len(upload, &policy),
                        n as u64,
                        "{upload:?} under {policy:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn upload_with_stats_grammar_round_trips() {
        let mut scratch = ScratchPool::new();
        let mask = BitMask::from_indices(50, [3usize, 17, 40]);
        let dense: Vec<f32> = (0..50).map(|i| i as f32 - 25.0).collect();
        let stats = [0.25f32, -0.5, 1.5];
        let writer = FrameWriter::new(WirePolicy::default());
        let cases: Vec<(Upload, Option<&BitMask>)> = vec![
            (Upload::Dense(dense.clone()), None),
            (Upload::Sparse(sparsify(&dense, 0.1)), None),
            (
                Upload::KnownMask(MaskAligned::gather(&dense, &mask)),
                Some(&mask),
            ),
            (
                Upload::MaskSplit(gluefl_compress::mask_shift::client_split(&dense, &mask, 4)),
                Some(&mask),
            ),
            (
                Upload::Ternary(TernaryUpdate::quantize(&sparsify(&dense, 0.1))),
                None,
            ),
        ];
        for (upload, round_mask) in cases {
            let mut buf = Vec::new();
            let n = encode_upload(&upload, 2, &WirePolicy::default(), 0, &mut buf);
            let _ = writer.known_mask(&mut buf, 2, Rounding::Nearest, 50, &stats);
            assert_eq!(n as u64, encoded_len(&upload, &WirePolicy::default()));
            let (decoded, stats_frame) =
                decode_upload_with_stats(&buf, round_mask, &mut scratch).expect("valid payload");
            // Only a dense upload is left in its frame.
            assert_eq!(
                matches!(decoded, Upload::DenseFrame(_)),
                matches!(upload, Upload::Dense(_))
            );
            assert_eq!(decoded.into_owned(&mut scratch), upload);
            assert_eq!(stats_frame.nnz, stats.len());
            let mut got = Vec::new();
            stats_frame.values_into(&mut got);
            assert_eq!(got, stats);
        }

        // The split-upload grammar holds under the entropy layouts too:
        // a delta/RLE-positioned unique part still parses as the split's
        // second frame.
        let entropy = WirePolicy::entropy(Codec::F32);
        let split = Upload::MaskSplit(gluefl_compress::mask_shift::client_split(&dense, &mask, 4));
        let mut buf = Vec::new();
        let _ = encode_upload(&split, 2, &entropy, 0, &mut buf);
        let _ = FrameWriter::new(entropy).known_mask(&mut buf, 2, Rounding::Nearest, 50, &stats);
        let (decoded, _) =
            decode_upload_with_stats(&buf, Some(&mask), &mut scratch).expect("valid payload");
        assert_eq!(decoded, split);

        // Hostile grammar: a mask broadcast in the upload slot, a stats
        // slot that is not known-mask, and trailing bytes — all typed.
        let mut buf = Vec::new();
        let _ = writer.mask(&mut buf, 2, &mask);
        let _ = writer.known_mask(&mut buf, 2, Rounding::Nearest, 50, &stats);
        assert!(matches!(
            decode_upload_with_stats(&buf, Some(&mask), &mut scratch),
            Err(WireError::UnexpectedKind(_))
        ));

        let mut buf = Vec::new();
        let _ = encode_upload(
            &Upload::Dense(dense.clone()),
            2,
            &WirePolicy::default(),
            0,
            &mut buf,
        );
        let _ = writer.mask(&mut buf, 2, &mask);
        assert!(matches!(
            decode_upload_with_stats(&buf, Some(&mask), &mut scratch),
            Err(WireError::UnexpectedKind(_))
        ));

        let mut buf = Vec::new();
        let _ = encode_upload(
            &Upload::Dense(dense),
            2,
            &WirePolicy::default(),
            0,
            &mut buf,
        );
        let _ = writer.known_mask(&mut buf, 2, Rounding::Nearest, 50, &stats);
        buf.push(0xEE);
        assert!(matches!(
            decode_upload_with_stats(&buf, Some(&mask), &mut scratch),
            Err(WireError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn corrupt_upload_bytes_yield_typed_errors() {
        let upload = Upload::Dense(vec![1.0; 32]);
        let mut buf = Vec::new();
        let _ = encode_upload(&upload, 0, &WirePolicy::default(), 0, &mut buf);
        buf[20] ^= 0x40;
        let mut scratch = ScratchPool::new();
        assert!(matches!(
            decode_upload(&buf, None, &mut scratch),
            Err(WireError::ChecksumMismatch { .. })
        ));
    }

    /// Checksum-valid but grammatically hostile uploads must be typed
    /// errors, never panics: a mask broadcast posing as an upload, a
    /// split upload with the wrong leading/trailing kinds, and
    /// known-mask frames that disagree with the receiver's mask.
    #[test]
    fn hostile_but_valid_frames_yield_typed_errors() {
        let mut scratch = ScratchPool::new();
        let mask = BitMask::from_indices(50, [3usize, 17, 40]);
        let writer = FrameWriter::new(WirePolicy::default());

        // Mask broadcast as an upload.
        let mut buf = Vec::new();
        let _ = writer.mask(&mut buf, 0, &mask);
        assert!(matches!(
            decode_upload(&buf, Some(&mask), &mut scratch),
            Err(WireError::UnexpectedKind(_))
        ));

        // An RLE mask broadcast as an upload is equally inadmissible.
        let blocky = BitMask::from_indices(4096, 0..2048usize);
        let mut buf = Vec::new();
        let _ = FrameWriter::new(WirePolicy::entropy(Codec::F32)).mask(&mut buf, 0, &blocky);
        assert!(matches!(
            decode_upload(&buf, Some(&blocky), &mut scratch),
            Err(WireError::UnexpectedKind(_))
        ));

        // Split upload led by a dense frame instead of known-mask.
        let mut buf = Vec::new();
        let _ = encode_upload(
            &Upload::Dense(vec![1.0; 8]),
            0,
            &WirePolicy::default(),
            0,
            &mut buf,
        );
        let _ = encode_upload(
            &Upload::Sparse(SparseUpdate::from_pairs(1000, vec![(5, 1.0)])),
            0,
            &WirePolicy::default(),
            0,
            &mut buf,
        );
        assert!(matches!(
            decode_upload(&buf, Some(&mask), &mut scratch),
            Err(WireError::UnexpectedKind(_))
        ));

        // Known-mask values sent to a receiver holding no mask.
        let dense: Vec<f32> = (0..50).map(|i| i as f32).collect();
        let km = Upload::KnownMask(MaskAligned::gather(&dense, &mask));
        let mut buf = Vec::new();
        let _ = encode_upload(&km, 0, &WirePolicy::default(), 0, &mut buf);
        assert!(matches!(
            decode_upload(&buf, None, &mut scratch),
            Err(WireError::UnexpectedKind(_))
        ));

        // Known-mask nnz disagreeing with the receiver's mask popcount.
        let wrong_mask = BitMask::from_indices(50, [1usize, 2]);
        assert!(matches!(
            decode_upload(&buf, Some(&wrong_mask), &mut scratch),
            Err(WireError::NnzMismatch { .. })
        ));

        // Known-mask dim disagreeing with the receiver's mask length.
        let long_mask = BitMask::from_indices(64, [0usize, 1, 2]);
        assert!(matches!(
            decode_upload(&buf, Some(&long_mask), &mut scratch),
            Err(WireError::DimMismatch { .. })
        ));

        // Split upload whose unique part is wider than its shared part.
        let split = Upload::MaskSplit(ClientSplit {
            shared: MaskAligned::gather(&dense, &mask),
            unique: SparseUpdate::from_pairs(114, vec![(5, 1.0)]),
        });
        let mut buf = Vec::new();
        let _ = encode_upload(&split, 0, &WirePolicy::default(), 0, &mut buf);
        assert_eq!(
            decode_upload(&buf, Some(&mask), &mut scratch),
            Err(WireError::DimMismatch {
                declared: 114,
                expected: 50
            })
        );
    }
}
