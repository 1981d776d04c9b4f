//! Frame layout, encoders, and the validating zero-copy decoder.
//!
//! Every round message is one *frame*: a fixed 16-byte header followed by
//! a payload whose exact length is implied by the header. All multi-byte
//! fields are little-endian:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//!      0     1  magic (0xA7)
//!      1     1  packed: [7:6] version · [5:3] kind[2:0] · [2:1] codec ·
//!               [0] version 1: reserved (0) · version 2: kind[3]
//!      2     4  round id (u32)
//!      6     4  dim — parameter-vector dimension (u32)
//!     10     4  nnz — encoded value count (u32)
//!     14     2  CRC-16/CCITT-FALSE over bytes 0..14 and the payload
//! ------  ----  -----------------------------------------------------
//!     16     …  payload: [positions][values], layouts per kind below
//! ```
//!
//! | kind            | id | positions              | values                      |
//! |-----------------|----|------------------------|-----------------------------|
//! | `Dense`         | 0  | —                      | `dim` codec values          |
//! | `SparseBitmap`  | 1  | `ceil(dim/8)` bitmap   | `nnz` codec values          |
//! | `SparseIndex`   | 2  | `nnz` sorted `u32`s (`4·nnz` B) | `nnz` codec values |
//! | `KnownMask`     | 3  | — (receiver holds `M`) | `nnz` codec values          |
//! | `Mask`          | 4  | `ceil(dim/8)` bitmap   | —                           |
//! | `TernaryBitmap` | 5  | `ceil(dim/8)` bitmap   | `f32 µ` + `ceil(nnz/8)` signs |
//! | `TernaryIndex`  | 6  | `nnz` sorted `u32`s (`4·nnz` B) | `f32 µ` + `ceil(nnz/8)` signs |
//! | `SparseDelta`   | 7  | `nnz` delta varints    | `nnz` codec values          |
//! | `MaskRle`       | 8  | run-length varints     | —                           |
//! | `SparseRle`     | 9  | run-length varints     | `nnz` codec values          |
//! | `TernaryDelta`  | 10 | `nnz` delta varints    | `f32 µ` + `ceil(nnz/8)` signs |
//! | `TernaryRle`    | 11 | run-length varints     | `f32 µ` + `ceil(nnz/8)` signs |
//!
//! Kinds 0–6 are the original **version-1** layouts (reserved bit zero,
//! byte-for-byte unchanged). Kinds 7–11 are the **version-2** entropy
//! layouts: the version field reads 2 and the former reserved bit
//! carries the kind's fourth bit, so every v1 decoder cleanly rejects
//! them as [`WireError::BadVersion`] instead of mis-reading. A v2 frame
//! declaring a v1 kind is non-canonical and also rejected.
//!
//! The two entropy position sections are *self-delimiting* (the decoder
//! walks their canonical LEB128 varints to find the frame end — see
//! [`FrameKind::SparseDelta`] and [`FrameKind::MaskRle`] for the exact
//! grammar), which is why the [`FrameWriter`] length predictors take the
//! actual indices.
//!
//! A [`WirePolicy::legacy`] writer picks bitmap vs. index-list
//! positions by count alone (`ceil(dim/8) ≤ 4·nnz` → bitmap, ties
//! included), so its frame lengths are closed forms in `(dim, nnz)` —
//! [`legacy_sparse_len`] / [`legacy_mask_len`], what the analytic byte
//! ledger is priced with; the property test suite pins them against
//! encoded frames across adversarial `dim`/`nnz`. The [`FrameWriter`]
//! generalizes the rule: it prices every layout its [`WirePolicy`]
//! admits in exact bytes and picks the cheapest (ties: bitmap ≻ index ≻
//! delta ≻ RLE).
//!
//! Decoding borrows the payload (`&[u8]`, zero-copy) and validates
//! eagerly: magic/version/kind/codec, the checksum, section lengths,
//! `nnz`/`dim` consistency (dense frames, bitmap popcounts), strict index
//! monotonicity and range, canonical zero padding, canonical varints, and
//! positive run lengths. Every failure is a typed [`WireError`];
//! untrusted input never panics.

use crate::codec::{
    encode_values, encode_values_at, extend_le_words, fill, Codec, Rounding, ValueView, QUANT_BLOCK,
};
use crate::crc::{crc16, crc16_update};
use crate::error::WireError;
use crate::policy::{
    for_each_delta, for_each_index_run, for_each_mask_run, rle_section_len, PositionLayout,
    WirePolicy,
};
use crate::varint::{push_varint, read_varint};
use gluefl_tensor::BitMask;

/// First byte of every frame.
pub const MAGIC: u8 = 0xA7;

/// Protocol version of the original fixed-layout kinds (0–6).
pub const VERSION: u8 = 1;

/// Protocol version of the entropy-layout kinds (7–11), whose packed
/// header byte uses the former reserved bit as the kind's fourth bit.
pub const VERSION_ENTROPY: u8 = 2;

/// Fixed frame header length in bytes.
pub const HEADER_BYTES: usize = 16;

/// Values [`FrameWriter::dense`] writes and checksums at a time: 256 KB
/// of F32 values, checksummed while they are still in cache. A whole
/// number of quantization blocks, so a chunked QuantU8 section is the
/// one-pass section byte for byte.
const DENSE_CHUNK_VALUES: usize = 1 << 16;
const _: () = assert!(DENSE_CHUNK_VALUES.is_multiple_of(QUANT_BLOCK));

/// What a frame's value section holds — with the position layout, the
/// two things a [`FrameKind`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Payload {
    Dense,
    Sparse,
    KnownMask,
    Mask,
    Ternary,
}

/// Payload shape of a frame (the header's kind field; the discriminant
/// is the wire id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Dense values over every coordinate (model broadcast, FedAvg
    /// upload); `nnz == dim`.
    Dense = 0,
    /// Sparse values with a `dim`-bit position bitmap.
    SparseBitmap = 1,
    /// Sparse values with explicit sorted `u32` positions.
    SparseIndex = 2,
    /// Values aligned to a mask the receiver already holds — no position
    /// bytes travel (GlueFL's shared part, APF's active set).
    KnownMask = 3,
    /// A mask broadcast: positions only, no values (GlueFL's `M_t`).
    Mask = 4,
    /// Ternary-quantized sparse values (`sign·µ`) with bitmap positions.
    TernaryBitmap = 5,
    /// Ternary-quantized sparse values with explicit positions.
    TernaryIndex = 6,
    /// Sparse values with delta-coded varint positions (v2): the first
    /// index, then each gap−1, as canonical LEB128 varints — strictly
    /// increasing by construction, so only the running index needs a
    /// range check. Empty section when `nnz = 0`.
    SparseDelta = 7,
    /// A mask broadcast with a run-length position section (v2):
    /// alternating zeros-run / ones-run varints starting with the
    /// (possibly zero) leading zeros-run, ending with the ones-run that
    /// brings the total set count to `nnz` — trailing zeros are implicit
    /// and must be absent. Every ones-run, and every zeros-run after the
    /// first, must be positive ([`WireError::ZeroRun`] otherwise). Empty
    /// section when `nnz = 0`.
    MaskRle = 8,
    /// Sparse values with run-length positions (v2) — the
    /// [`FrameKind::MaskRle`] section grammar as a sparse frame's
    /// position section.
    SparseRle = 9,
    /// Ternary-quantized sparse values with delta-coded varint
    /// positions (v2).
    TernaryDelta = 10,
    /// Ternary-quantized sparse values with run-length positions (v2).
    TernaryRle = 11,
}

impl FrameKind {
    /// Every kind, in wire-id order.
    const ALL: [FrameKind; 12] = [
        FrameKind::Dense,
        FrameKind::SparseBitmap,
        FrameKind::SparseIndex,
        FrameKind::KnownMask,
        FrameKind::Mask,
        FrameKind::TernaryBitmap,
        FrameKind::TernaryIndex,
        FrameKind::SparseDelta,
        FrameKind::MaskRle,
        FrameKind::SparseRle,
        FrameKind::TernaryDelta,
        FrameKind::TernaryRle,
    ];

    /// The kind's wire id (the 3-bit field of the packed header byte) —
    /// also what [`WireError::UnexpectedKind`] reports when a valid
    /// frame shows up somewhere its kind is not admissible.
    #[must_use]
    pub fn id(self) -> u8 {
        self as u8
    }

    pub(crate) fn from_id(id: u8) -> Result<Self, WireError> {
        Self::ALL
            .get(usize::from(id))
            .copied()
            .ok_or(WireError::BadKind(id))
    }

    /// The kind's payload family and position layout (`None`: no
    /// position section travels).
    fn parts(self) -> (Payload, Option<PositionLayout>) {
        use {Payload as P, PositionLayout as L};
        match self {
            FrameKind::Dense => (P::Dense, None),
            FrameKind::SparseBitmap => (P::Sparse, Some(L::Bitmap)),
            FrameKind::SparseIndex => (P::Sparse, Some(L::Index)),
            FrameKind::KnownMask => (P::KnownMask, None),
            FrameKind::Mask => (P::Mask, Some(L::Bitmap)),
            FrameKind::TernaryBitmap => (P::Ternary, Some(L::Bitmap)),
            FrameKind::TernaryIndex => (P::Ternary, Some(L::Index)),
            FrameKind::SparseDelta => (P::Sparse, Some(L::Delta)),
            FrameKind::MaskRle => (P::Mask, Some(L::Rle)),
            FrameKind::SparseRle => (P::Sparse, Some(L::Rle)),
            FrameKind::TernaryDelta => (P::Ternary, Some(L::Delta)),
            FrameKind::TernaryRle => (P::Ternary, Some(L::Rle)),
        }
    }

    fn payload(self) -> Payload {
        self.parts().0
    }

    fn layout(self) -> Option<PositionLayout> {
        self.parts().1
    }

    /// The kind carrying `payload` with its positions in `layout`.
    fn of(payload: Payload, layout: PositionLayout) -> Self {
        *Self::ALL
            .iter()
            .find(|kind| kind.parts() == (payload, Some(layout)))
            .expect("every sparse/ternary layout has a kind")
    }

    /// The sparse kind whose positions travel in `layout`.
    pub(crate) fn sparse(layout: PositionLayout) -> Self {
        Self::of(Payload::Sparse, layout)
    }

    /// The ternary kind whose positions travel in `layout`.
    pub(crate) fn ternary(layout: PositionLayout) -> Self {
        Self::of(Payload::Ternary, layout)
    }

    /// Whether this is an explicit-position sparse kind, in any layout.
    #[must_use]
    pub fn is_sparse(self) -> bool {
        self.payload() == Payload::Sparse
    }

    /// Whether this is a ternary-quantized sparse kind, in any layout.
    #[must_use]
    pub fn is_ternary(self) -> bool {
        self.payload() == Payload::Ternary
    }

    /// Whether this kind carries codec-encoded values (mask and ternary
    /// frames have fixed value layouts and must declare [`Codec::F32`]).
    fn uses_value_codec(self) -> bool {
        !matches!(self.payload(), Payload::Mask | Payload::Ternary)
    }

    /// Whether this kind's position section is self-delimiting varints
    /// (frame length depends on the data, not just the header).
    fn is_entropy(self) -> bool {
        self.id() > 6
    }

    /// A stable snake_case name, used as the metric label value in
    /// exported frame counters ([`crate::stats`]).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FrameKind::Dense => "dense",
            FrameKind::SparseBitmap => "sparse_bitmap",
            FrameKind::SparseIndex => "sparse_index",
            FrameKind::KnownMask => "known_mask",
            FrameKind::Mask => "mask",
            FrameKind::TernaryBitmap => "ternary_bitmap",
            FrameKind::TernaryIndex => "ternary_index",
            FrameKind::SparseDelta => "sparse_delta",
            FrameKind::MaskRle => "mask_rle",
            FrameKind::SparseRle => "sparse_rle",
            FrameKind::TernaryDelta => "ternary_delta",
            FrameKind::TernaryRle => "ternary_rle",
        }
    }

    /// The wire version this kind travels under (`"v1"` for the
    /// original fixed layouts, `"v2"` for the entropy layouts).
    #[must_use]
    pub fn version_name(self) -> &'static str {
        if self.is_entropy() {
            "v2"
        } else {
            "v1"
        }
    }
}

/// The packed header byte for `(kind, codec)`: v1 kinds keep the
/// original `[version=1 · kind · codec · 0]` layout; v2 kinds read
/// version 2 and spill the kind's fourth bit into the former reserved
/// bit.
fn packed_byte(kind: FrameKind, codec: Codec) -> u8 {
    let id = kind.id();
    if id <= 6 {
        (VERSION << 6) | (id << 3) | (codec.id() << 1)
    } else {
        (VERSION_ENTROPY << 6) | ((id & 0x07) << 3) | (codec.id() << 1) | (id >> 3)
    }
}

/// Parses the packed header byte back into `(kind, codec)`.
///
/// A v1 byte with the reserved bit set, a v2 byte declaring a v1 kind
/// (non-canonical), or any other version is [`WireError::BadVersion`].
fn unpack_byte(packed: u8) -> Result<(FrameKind, Codec), WireError> {
    let kind_id = match packed >> 6 {
        VERSION => {
            if packed & 1 != 0 {
                return Err(WireError::BadVersion(packed));
            }
            let id = (packed >> 3) & 0x07;
            if id > 6 {
                // The 3-bit field's last value is only reachable through
                // the v2 encoding.
                return Err(WireError::BadKind(id));
            }
            id
        }
        VERSION_ENTROPY => {
            let id = ((packed & 1) << 3) | ((packed >> 3) & 0x07);
            if id <= 6 {
                return Err(WireError::BadVersion(packed));
            }
            id
        }
        _ => return Err(WireError::BadVersion(packed)),
    };
    let kind = FrameKind::from_id(kind_id)?;
    let codec = Codec::from_id((packed >> 1) & 0x03)?;
    if !kind.uses_value_codec() && codec != Codec::F32 {
        // Mask/ternary frames have fixed layouts; a non-zero codec field
        // is non-canonical.
        return Err(WireError::BadCodec(codec.id()));
    }
    Ok((kind, codec))
}

/// Writes the 16-byte header with a zeroed checksum; returns its offset.
fn begin_frame(
    out: &mut Vec<u8>,
    kind: FrameKind,
    codec: Codec,
    round: u32,
    dim: usize,
    nnz: usize,
) -> usize {
    let dim32 = u32::try_from(dim).expect("dim exceeds u32 range");
    let nnz32 = u32::try_from(nnz).expect("nnz exceeds u32 range");
    assert!(nnz <= dim, "nnz {nnz} exceeds dim {dim}");
    crate::stats::record_encoded(kind, codec);
    let start = out.len();
    out.reserve(HEADER_BYTES);
    out.push(MAGIC);
    out.push(packed_byte(kind, codec));
    out.extend_from_slice(&round.to_le_bytes());
    out.extend_from_slice(&dim32.to_le_bytes());
    out.extend_from_slice(&nnz32.to_le_bytes());
    out.extend_from_slice(&[0u8; 2]); // checksum placeholder
    start
}

/// Stamps the checksum over the finished frame starting at `start`.
fn finish_frame(out: &mut [u8], start: usize) -> usize {
    let crc = crc16_update(crc16(&out[start..start + 14]), &out[start + HEADER_BYTES..]);
    stamp_checksum(out, start, crc)
}

/// Writes `crc` into the header of the finished frame starting at
/// `start`; returns the frame's length.
fn stamp_checksum(out: &mut [u8], start: usize, crc: u16) -> usize {
    out[start + 14..start + 16].copy_from_slice(&crc.to_le_bytes());
    out.len() - start
}

/// The single encoding entry point: one method per round-message kind,
/// with the position layout chosen per frame by the carried
/// [`WirePolicy`]'s exact byte-cost rule.
///
/// The writer is a trivial `Copy` wrapper — construct one wherever a
/// policy is in scope. Every `*_len` predictor returns *exactly* what
/// the matching encode method will append (property-tested), so senders
/// can price an upload before encoding it; the entropy layouts make
/// lengths data-dependent, which is why the sparse/ternary predictors
/// take the actual indices.
///
/// # Example
///
/// ```
/// use gluefl_wire::{decode_frame, Codec, FrameKind, FrameWriter, Rounding, WirePolicy};
///
/// let writer = FrameWriter::new(WirePolicy::entropy(Codec::F32));
/// let (indices, values) = ([7u32, 9, 400], [0.5f32, -1.0, 2.0]);
/// let mut buf = Vec::new();
/// let len = writer.sparse(&mut buf, 12, Rounding::Nearest, 100_000, &indices, &values);
/// assert_eq!(len as u64, writer.sparse_len(100_000, &indices));
///
/// let frame = decode_frame(&buf).unwrap();
/// assert_eq!(frame.kind, FrameKind::SparseDelta); // varints beat 4-byte indices
/// let mut ix = Vec::new();
/// frame.indices_into(&mut ix);
/// assert_eq!(ix, indices);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FrameWriter {
    policy: WirePolicy,
}

impl FrameWriter {
    /// A writer emitting frames under `policy`.
    #[must_use]
    pub fn new(policy: WirePolicy) -> Self {
        Self { policy }
    }

    /// The policy this writer encodes under.
    #[must_use]
    pub fn policy(&self) -> WirePolicy {
        self.policy
    }

    /// Encodes a dense frame over all of `values` (e.g. a model
    /// broadcast). Returns the frame length in bytes (appended to `out`).
    ///
    /// The value section is written and checksummed one 256 KB chunk at
    /// a time (CRC updates compose), so a megabyte-sized frame is never
    /// read back from memory just to be checksummed; the bytes are those
    /// of a one-pass encoding.
    ///
    /// # Panics
    /// Panics if `values.len()` exceeds `u32::MAX`.
    pub fn dense(
        &self,
        out: &mut Vec<u8>,
        round: u32,
        rounding: Rounding,
        values: &[f32],
    ) -> usize {
        let codec = self.policy.codec;
        let start = begin_frame(
            out,
            FrameKind::Dense,
            codec,
            round,
            values.len(),
            values.len(),
        );
        out.reserve(codec.value_section_len(values.len()));
        let mut crc = crc16(&out[start..start + 14]);
        for (c, chunk) in values.chunks(DENSE_CHUNK_VALUES).enumerate() {
            let at = out.len();
            encode_values_at(out, codec, rounding, chunk, c * DENSE_CHUNK_VALUES);
            crc = crc16_update(crc, &out[at..]);
        }
        stamp_checksum(out, start, crc)
    }

    /// Encodes a sparse frame: `values[j]` lives at coordinate
    /// `indices[j]` of a `dim`-vector, positions in the cheapest layout
    /// the policy admits ([`WirePolicy::sparse_kind`]). Returns the frame
    /// length in bytes.
    ///
    /// # Panics
    /// Panics if the indices are unsorted, repeated, or `>= dim`, or if
    /// `indices.len() != values.len()`.
    pub fn sparse(
        &self,
        out: &mut Vec<u8>,
        round: u32,
        rounding: Rounding,
        dim: usize,
        indices: &[u32],
        values: &[f32],
    ) -> usize {
        assert_eq!(
            indices.len(),
            values.len(),
            "indices/values length mismatch"
        );
        assert_sorted_in_range(indices, dim);
        let layout = self.policy.position_layout(dim, indices);
        let kind = FrameKind::sparse(layout);
        let start = begin_frame(out, kind, self.policy.codec, round, dim, indices.len());
        extend_positions(out, layout, dim, indices);
        encode_values(out, self.policy.codec, rounding, values);
        finish_frame(out, start)
    }

    /// Encodes a known-mask frame: `values` aligned (in increasing
    /// position order) to a mask the receiver already holds, so no
    /// position bytes travel. Returns the frame length in bytes.
    pub fn known_mask(
        &self,
        out: &mut Vec<u8>,
        round: u32,
        rounding: Rounding,
        dim: usize,
        values: &[f32],
    ) -> usize {
        let start = begin_frame(
            out,
            FrameKind::KnownMask,
            self.policy.codec,
            round,
            dim,
            values.len(),
        );
        encode_values(out, self.policy.codec, rounding, values);
        finish_frame(out, start)
    }

    /// Encodes a mask broadcast frame (positions only): the v1 bitmap,
    /// or a run-length section when the policy admits RLE and it is
    /// strictly smaller ([`WirePolicy::mask_kind`]). Returns the frame
    /// length in bytes.
    pub fn mask(&self, out: &mut Vec<u8>, round: u32, mask: &BitMask) -> usize {
        let kind = self.policy.mask_kind(mask);
        let start = begin_frame(out, kind, Codec::F32, round, mask.len(), mask.count_ones());
        match kind {
            FrameKind::Mask => mask.extend_le_bytes(out),
            FrameKind::MaskRle => for_each_mask_run(mask, |zeros, ones| {
                push_varint(out, zeros);
                push_varint(out, ones);
            }),
            _ => unreachable!("mask_kind returns a mask kind"),
        }
        finish_frame(out, start)
    }

    /// Encodes a ternary-quantized sparse frame: one magnitude `mu` plus
    /// a sign bit per kept coordinate (`true` = `+mu`), positions in the
    /// cheapest admissible layout (the [`WirePolicy::sparse_kind`] rule).
    /// Returns the frame length in bytes.
    ///
    /// # Panics
    /// Panics if the indices are unsorted, repeated, or `>= dim`, or if
    /// `indices.len() != signs.len()`.
    pub fn ternary(
        &self,
        out: &mut Vec<u8>,
        round: u32,
        dim: usize,
        mu: f32,
        indices: &[u32],
        signs: &[bool],
    ) -> usize {
        assert_eq!(indices.len(), signs.len(), "indices/signs length mismatch");
        assert_sorted_in_range(indices, dim);
        let nnz = indices.len();
        let layout = self.policy.position_layout(dim, indices);
        let start = begin_frame(out, FrameKind::ternary(layout), Codec::F32, round, dim, nnz);
        extend_positions(out, layout, dim, indices);
        out.extend_from_slice(&mu.to_le_bytes());
        let sign_start = out.len();
        out.resize(sign_start + nnz.div_ceil(8), 0);
        for (j, &positive) in signs.iter().enumerate() {
            if positive {
                out[sign_start + j / 8] |= 1 << (j % 8);
            }
        }
        finish_frame(out, start)
    }

    /// Exact byte length [`FrameWriter::dense`] will emit for a
    /// `dim`-vector.
    #[must_use]
    pub fn dense_len(&self, dim: usize) -> u64 {
        HEADER_BYTES as u64 + self.policy.codec.value_section_len(dim) as u64
    }

    /// Exact byte length [`FrameWriter::sparse`] will emit for these
    /// indices.
    #[must_use]
    pub fn sparse_len(&self, dim: usize, indices: &[u32]) -> u64 {
        let positions = self.policy.position_section_len(dim, indices);
        self.sparse_frame_len(positions, indices.len())
    }

    /// The nominal length of a sparse frame over *any* `nnz` of `dim`
    /// positions: the legacy layout's under this policy's codec. Under
    /// the legacy menu it is [`sparse_len`](Self::sparse_len) of every
    /// such index set; under the entropy menu, where the index pattern
    /// prices the frame, it bounds `sparse_len` from above.
    ///
    /// # Panics
    /// Panics if `nnz > dim`.
    #[must_use]
    pub fn sparse_len_of_count(&self, dim: usize, nnz: usize) -> u64 {
        let positions = self.policy.count_position_section_len(dim, nnz);
        self.sparse_frame_len(positions, nnz)
    }

    fn sparse_frame_len(&self, positions: u64, nnz: usize) -> u64 {
        HEADER_BYTES as u64 + positions + self.policy.codec.value_section_len(nnz) as u64
    }

    /// Exact byte length [`FrameWriter::known_mask`] will emit for `nnz`
    /// values.
    #[must_use]
    pub fn known_mask_len(&self, nnz: usize) -> u64 {
        HEADER_BYTES as u64 + self.policy.codec.value_section_len(nnz) as u64
    }

    /// Exact byte length [`FrameWriter::mask`] will emit for `mask`.
    #[must_use]
    pub fn mask_len(&self, mask: &BitMask) -> u64 {
        let positions = match self.policy.mask_kind(mask) {
            FrameKind::MaskRle => rle_section_len(mask),
            _ => mask.len().div_ceil(8) as u64,
        };
        HEADER_BYTES as u64 + positions
    }

    /// Exact byte length [`FrameWriter::ternary`] will emit for these
    /// indices.
    #[must_use]
    pub fn ternary_len(&self, dim: usize, indices: &[u32]) -> u64 {
        let positions = self.policy.position_section_len(dim, indices);
        ternary_frame_len(positions, indices.len())
    }

    /// The nominal length of a ternary frame over *any* `nnz` of `dim`
    /// positions, as [`sparse_len_of_count`](Self::sparse_len_of_count):
    /// [`ternary_len`](Self::ternary_len) under the legacy menu, an upper
    /// bound on it under the entropy menu.
    ///
    /// # Panics
    /// Panics if `nnz > dim`.
    #[must_use]
    pub fn ternary_len_of_count(&self, dim: usize, nnz: usize) -> u64 {
        let positions = self.policy.count_position_section_len(dim, nnz);
        ternary_frame_len(positions, nnz)
    }
}

/// A ternary frame's length: header, position section, `µ`, sign bits.
fn ternary_frame_len(positions: u64, nnz: usize) -> u64 {
    HEADER_BYTES as u64 + positions + 4 + (nnz as u64).div_ceil(8)
}

fn assert_sorted_in_range(indices: &[u32], dim: usize) {
    for (j, &i) in indices.iter().enumerate() {
        assert!((i as usize) < dim, "index {i} out of range {dim}");
        if j > 0 {
            assert!(indices[j - 1] < i, "indices must be strictly increasing");
        }
    }
}

fn extend_bitmap_from_indices(out: &mut Vec<u8>, bitmap_len: usize, indices: &[u32]) {
    let start = out.len();
    out.resize(start + bitmap_len, 0);
    for &i in indices {
        out[start + (i as usize) / 8] |= 1 << (i % 8);
    }
}

/// Writes the position section for sorted `indices` in `layout`.
fn extend_positions(out: &mut Vec<u8>, layout: PositionLayout, dim: usize, indices: &[u32]) {
    match layout {
        PositionLayout::Bitmap => extend_bitmap_from_indices(out, dim.div_ceil(8), indices),
        PositionLayout::Index => extend_le_words(out, indices, u32::to_le_bytes),
        PositionLayout::Delta => for_each_delta(indices, |v| push_varint(out, v)),
        PositionLayout::Rle => for_each_index_run(indices, |zeros, ones| {
            push_varint(out, zeros);
            push_varint(out, ones);
        }),
    }
}

/// A decoded frame: parsed header fields plus borrowed (zero-copy)
/// position and value sections. Produced by [`decode_frame`] /
/// [`decode_frame_prefix`], which validate everything up front — the
/// accessor methods only panic when called on an inapplicable kind.
///
/// Nothing is copied out of the frame's buffer until an accessor is
/// asked to: [`value_view`](Self::value_view) reads a dense, sparse or
/// known-mask frame's values where they lie, and
/// [`values_into`](Self::values_into) / [`values_to`](Self::values_to)
/// copy them out through that same view.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    /// Payload shape.
    pub kind: FrameKind,
    /// Value codec (always [`Codec::F32`] for mask/ternary kinds).
    pub codec: Codec,
    /// Round id from the header.
    pub round: u32,
    /// Parameter-vector dimension.
    pub dim: usize,
    /// Number of encoded values (equals `dim` for dense frames; bitmap
    /// popcount for mask frames).
    pub nnz: usize,
    positions: &'a [u8],
    values: &'a [u8],
}

/// Exact length of the sparse frame a [`WirePolicy::legacy`] writer emits
/// for *any* `nnz` of `dim` positions: header, the cheaper of the
/// `dim`-bit bitmap and the `u32` index list (bitmap on a tie), and `nnz`
/// `codec` values. The legacy menu's choice depends on the count alone,
/// which is what lets a ledger (or a scheduler) price a transfer it only
/// knows the size of; it equals [`FrameWriter::sparse_len`] under that
/// policy for every index set (property-tested).
///
/// # Panics
/// Panics if `nnz > dim`.
#[must_use]
pub fn legacy_sparse_len(codec: Codec, dim: usize, nnz: usize) -> u64 {
    FrameWriter::new(WirePolicy::legacy(codec)).sparse_len_of_count(dim, nnz)
}

/// Exact length of the v1 mask broadcast frame over `dim` positions
/// (header + bitmap) — [`FrameWriter::mask_len`] under
/// [`WirePolicy::legacy`], whatever the mask holds.
#[must_use]
pub fn legacy_mask_len(dim: usize) -> u64 {
    HEADER_BYTES as u64 + dim.div_ceil(8) as u64
}

/// Parses a frame header and returns the full frame length it implies
/// (header + payload) — the streaming-read primitive: a socket reader
/// peeks the fixed-size header, learns exactly how many bytes the frame
/// occupies, and reads the remainder without any buffering heuristics.
/// For the v2 entropy kinds the position section is self-delimiting, so
/// the scan needs the section bytes too: pass whatever prefix has
/// arrived and retry with more bytes on [`WireError::Truncated`].
/// Performs the same validation as [`decode_frame_prefix`] up to (but
/// not including) the checksum, which covers the payload and can only be
/// verified once it has all arrived.
///
/// # Errors
/// [`WireError::Truncated`] when `header` is shorter than
/// [`HEADER_BYTES`] (or, for entropy kinds, than the position section),
/// plus any header/position malformation `decode_frame_prefix` would
/// report (bad magic/version/kind/codec, `nnz > dim`, dense `nnz != dim`,
/// overlong varints, zero runs, out-of-range positions).
pub fn frame_len_from_header(header: &[u8]) -> Result<u64, WireError> {
    let parsed = parse_header(header)?;
    let positions_len = positions_len(header, &parsed)?;
    let values_len = values_len(parsed.kind, parsed.codec, parsed.dim, parsed.nnz);
    Ok(HEADER_BYTES as u64 + positions_len as u64 + values_len)
}

/// The kind of the frame that starts with `header`, from its fixed
/// header bytes alone — no payload is read and nothing is counted in
/// [`crate::stats`]. For a receiver that has decoded a frame and needs
/// to name its kind again (a typed rejection), or wants it before
/// committing to a decode.
///
/// # Errors
/// What `decode_frame_prefix` reports for a malformed fixed header.
pub fn frame_kind_from_header(header: &[u8]) -> Result<FrameKind, WireError> {
    parse_header(header).map(|parsed| parsed.kind)
}

/// The validated fixed header fields, before any payload inspection.
struct ParsedHeader {
    kind: FrameKind,
    codec: Codec,
    round: u32,
    dim: usize,
    nnz: usize,
    stored_crc: u16,
}

/// Validates the 16 fixed header bytes (everything `decode_frame_prefix`
/// checks before looking at the payload).
fn parse_header(buf: &[u8]) -> Result<ParsedHeader, WireError> {
    if buf.len() < HEADER_BYTES {
        return Err(WireError::Truncated {
            needed: HEADER_BYTES,
            got: buf.len(),
        });
    }
    if buf[0] != MAGIC {
        return Err(WireError::BadMagic(buf[0]));
    }
    let (kind, codec) = unpack_byte(buf[1])?;
    let round = u32::from_le_bytes(buf[2..6].try_into().expect("4 bytes"));
    let dim = u32::from_le_bytes(buf[6..10].try_into().expect("4 bytes")) as usize;
    let nnz = u32::from_le_bytes(buf[10..14].try_into().expect("4 bytes")) as usize;
    let stored_crc = u16::from_le_bytes(buf[14..16].try_into().expect("2 bytes"));
    if nnz > dim {
        return Err(WireError::NnzExceedsDim { nnz, dim });
    }
    if kind == FrameKind::Dense && nnz != dim {
        return Err(WireError::NnzMismatch {
            declared: nnz,
            actual: dim,
        });
    }
    Ok(ParsedHeader {
        kind,
        codec,
        round,
        dim,
        nnz,
        stored_crc,
    })
}

/// Byte length of the position section: fixed for v1 kinds, discovered
/// (and structurally validated) by scanning the self-delimiting varints
/// for v2 kinds.
fn positions_len(buf: &[u8], h: &ParsedHeader) -> Result<usize, WireError> {
    match h.kind.layout() {
        None => Ok(0),
        Some(PositionLayout::Bitmap) => Ok(h.dim.div_ceil(8)),
        Some(PositionLayout::Index) => Ok(4 * h.nnz),
        Some(PositionLayout::Delta) => scan_delta_section(buf, HEADER_BYTES, h.dim, h.nnz),
        Some(PositionLayout::Rle) => scan_rle_section(buf, HEADER_BYTES, h.dim, h.nnz),
    }
}

/// Byte length of the value section (fixed given the header fields).
fn values_len(kind: FrameKind, codec: Codec, dim: usize, nnz: usize) -> u64 {
    match kind.payload() {
        Payload::Dense => codec.value_section_len(dim) as u64,
        Payload::Sparse | Payload::KnownMask => codec.value_section_len(nnz) as u64,
        Payload::Mask => 0,
        Payload::Ternary => 4 + (nnz as u64).div_ceil(8),
    }
}

/// Walks a delta-varint position section at `buf[start..]`, validating
/// canonical varints and the running index range; returns its byte
/// length.
fn scan_delta_section(
    buf: &[u8],
    start: usize,
    dim: usize,
    nnz: usize,
) -> Result<usize, WireError> {
    let mut pos = start;
    let mut idx: u64 = 0;
    for j in 0..nnz {
        let gap = read_varint(buf, &mut pos)?;
        idx = if j == 0 { gap } else { idx + gap + 1 };
        if idx >= dim as u64 {
            return Err(WireError::IndexOutOfRange {
                index: clamp_u32(idx),
                dim,
            });
        }
    }
    Ok(pos - start)
}

/// Walks a run-length position section at `buf[start..]`, validating
/// canonical varints, positive runs, the `dim` bound, and the exact
/// `nnz` total; returns its byte length.
fn scan_rle_section(buf: &[u8], start: usize, dim: usize, nnz: usize) -> Result<usize, WireError> {
    let mut pos = start;
    let mut covered: u64 = 0; // positions consumed so far
    let mut ones: u64 = 0;
    let mut first = true;
    while ones < nnz as u64 {
        let zeros_at = pos;
        let zeros = read_varint(buf, &mut pos)?;
        if !first && zeros == 0 {
            return Err(WireError::ZeroRun { offset: zeros_at });
        }
        first = false;
        let ones_at = pos;
        let run = read_varint(buf, &mut pos)?;
        if run == 0 {
            return Err(WireError::ZeroRun { offset: ones_at });
        }
        covered += zeros + run;
        ones += run;
        if ones > nnz as u64 {
            return Err(WireError::NnzMismatch {
                declared: nnz,
                actual: usize::try_from(ones).unwrap_or(usize::MAX),
            });
        }
        if covered > dim as u64 {
            return Err(WireError::IndexOutOfRange {
                index: clamp_u32(covered - 1),
                dim,
            });
        }
    }
    Ok(pos - start)
}

fn clamp_u32(v: u64) -> u32 {
    u32::try_from(v.min(u64::from(u32::MAX))).expect("clamped to u32 range")
}

/// Decodes the frame at the start of `buf`, returning it together with
/// the unconsumed remainder — the streaming form for buffers holding
/// several concatenated frames (e.g. GlueFL's shared + unique upload).
///
/// # Errors
/// Any malformation yields a typed [`WireError`]; see the module docs
/// for the validation performed. For the entropy kinds the position
/// section is scanned (and structurally validated) *before* the
/// checksum can be verified — corruption inside a varint section may
/// therefore surface as its structural error rather than
/// [`WireError::ChecksumMismatch`].
pub fn decode_frame_prefix(buf: &[u8]) -> Result<(Frame<'_>, &[u8]), WireError> {
    match decode_frame_prefix_inner(buf) {
        Ok(ok) => {
            crate::stats::record_decoded(ok.0.kind, ok.0.codec);
            Ok(ok)
        }
        Err(e) => {
            crate::stats::record_decode_error(&e);
            Err(e)
        }
    }
}

fn decode_frame_prefix_inner(buf: &[u8]) -> Result<(Frame<'_>, &[u8]), WireError> {
    let h = parse_header(buf)?;
    let (kind, codec, dim, nnz) = (h.kind, h.codec, h.dim, h.nnz);
    let positions_len = positions_len(buf, &h)?;
    let needed = HEADER_BYTES as u64 + positions_len as u64 + values_len(kind, codec, dim, nnz);
    if (buf.len() as u64) < needed {
        return Err(WireError::Truncated {
            needed: usize::try_from(needed).unwrap_or(usize::MAX),
            got: buf.len(),
        });
    }
    let frame_len = usize::try_from(needed).expect("frame fits the buffer");
    let payload = &buf[HEADER_BYTES..frame_len];
    let computed = crc16_update(crc16(&buf[..14]), payload);
    if computed != h.stored_crc {
        return Err(WireError::ChecksumMismatch {
            stored: h.stored_crc,
            computed,
        });
    }
    let (positions, values) = payload.split_at(positions_len);

    // Structural validation of the position section (the entropy kinds
    // were already validated by the scan that delimited them).
    match kind.layout() {
        Some(PositionLayout::Bitmap) => {
            if !dim.is_multiple_of(8) {
                let tail = positions[positions.len() - 1];
                if tail >> (dim % 8) != 0 {
                    return Err(WireError::NonZeroPadding);
                }
            }
            let popcount: usize = positions.iter().map(|b| b.count_ones() as usize).sum();
            if popcount != nnz {
                return Err(WireError::NnzMismatch {
                    declared: nnz,
                    actual: popcount,
                });
            }
        }
        Some(PositionLayout::Index) => {
            let mut prev: Option<u32> = None;
            for (j, chunk) in positions.chunks_exact(4).enumerate() {
                let i = u32::from_le_bytes(chunk.try_into().expect("4 bytes"));
                if (i as usize) >= dim {
                    return Err(WireError::IndexOutOfRange { index: i, dim });
                }
                if let Some(p) = prev {
                    if p >= i {
                        return Err(WireError::IndicesNotIncreasing { position: j });
                    }
                }
                prev = Some(i);
            }
        }
        _ => {}
    }
    // Ternary sign bitmaps must also pad with zeros beyond nnz.
    if kind.is_ternary() && !nnz.is_multiple_of(8) {
        let tail = values[values.len() - 1];
        if tail >> (nnz % 8) != 0 {
            return Err(WireError::NonZeroPadding);
        }
    }
    Ok((
        Frame {
            kind,
            codec,
            round: h.round,
            dim,
            nnz,
            positions,
            values,
        },
        &buf[frame_len..],
    ))
}

/// Decodes `buf` as exactly one frame.
///
/// # Errors
/// As [`decode_frame_prefix`], plus [`WireError::TrailingBytes`] when
/// `buf` extends past the frame.
pub fn decode_frame(buf: &[u8]) -> Result<Frame<'_>, WireError> {
    let (frame, rest) = decode_frame_prefix(buf)?;
    if !rest.is_empty() {
        let e = WireError::TrailingBytes { extra: rest.len() };
        crate::stats::record_decode_error(&e);
        return Err(e);
    }
    Ok(frame)
}

impl<'a> Frame<'a> {
    /// Number of values the frame decodes to: `dim` for dense frames,
    /// `nnz` for sparse/known-mask frames and (as copies of `±µ`) for
    /// ternary frames, none for mask frames.
    fn value_count(&self) -> usize {
        match self.kind.payload() {
            Payload::Dense => self.dim,
            Payload::Mask => 0,
            _ => self.nnz,
        }
    }

    /// A ternary frame's values: `+µ` or `−µ` per sign bit, in order.
    fn ternary_values(&self) -> impl Iterator<Item = f32> + '_ {
        let mu = self.ternary_mu();
        let signs = &self.values[4..];
        (0..self.nnz).map(move |j| {
            if signs[j / 8] >> (j % 8) & 1 == 1 {
                mu
            } else {
                -mu
            }
        })
    }

    /// The codec value section of a dense, sparse or known-mask frame,
    /// read in place: `dim` values for dense frames, `nnz` otherwise.
    /// It borrows the frame's buffer, not the frame, so it lives as long
    /// as the bytes do.
    ///
    /// # Panics
    /// Panics for mask and ternary frames, which carry no codec values.
    #[must_use]
    pub fn value_view(&self) -> ValueView<'a> {
        assert!(
            self.kind.uses_value_codec(),
            "frame kind {:?} carries no codec values",
            self.kind
        );
        ValueView::new(self.codec, self.values, self.value_count())
    }

    /// Appends the decoded values to `out`: `dim` values for dense
    /// frames, `nnz` for sparse/known-mask frames, `nnz` copies of `±µ`
    /// for ternary frames, nothing for mask frames.
    pub fn values_into(&self, out: &mut Vec<f32>) {
        match self.kind.payload() {
            Payload::Mask => {}
            Payload::Ternary => out.extend(self.ternary_values()),
            _ => self.value_view().extend_into(out),
        }
    }

    /// Decodes the same values as [`Frame::values_into`] straight into
    /// `out`, for a receiver that already owns their destination.
    ///
    /// # Panics
    /// Panics if `out.len()` differs from the frame's value count.
    pub fn values_to(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.value_count(), "value count mismatch");
        match self.kind.payload() {
            Payload::Mask => {}
            Payload::Ternary => fill(out, self.ternary_values()),
            _ => self.value_view().write_to(out),
        }
    }

    /// Appends the frame's coordinate indices (increasing) to `out`.
    ///
    /// # Panics
    /// Panics for dense, known-mask, and mask frames — their positions
    /// are implicit (everything, the receiver's mask, n/a).
    pub fn indices_into(&self, out: &mut Vec<u32>) {
        let (Payload::Sparse | Payload::Ternary, Some(layout)) = self.kind.parts() else {
            panic!("frame kind {:?} has no explicit positions", self.kind);
        };
        match layout {
            PositionLayout::Index => {
                out.extend(
                    self.positions
                        .chunks_exact(4)
                        .map(|chunk| u32::from_le_bytes(chunk.try_into().expect("4 bytes"))),
                );
            }
            PositionLayout::Bitmap => {
                out.reserve(self.nnz);
                for_each_bitmap_one(self.positions, |i| {
                    out.push(u32::try_from(i).expect("dim fits u32"));
                });
            }
            PositionLayout::Delta => {
                out.reserve(self.nnz);
                let mut pos = 0usize;
                let mut idx = 0u32;
                for j in 0..self.nnz {
                    let gap = read_varint(self.positions, &mut pos)
                        .expect("delta section validated at decode");
                    let gap = u32::try_from(gap).expect("index fits u32");
                    idx = if j == 0 { gap } else { idx + gap + 1 };
                    out.push(idx);
                }
            }
            PositionLayout::Rle => {
                out.reserve(self.nnz);
                self.for_each_rle_run(|start, len| {
                    for i in start..start + len {
                        out.push(u32::try_from(i).expect("dim fits u32"));
                    }
                });
            }
        }
    }

    /// Rebuilds the position mask into `mask` (reset to `dim` bits).
    ///
    /// # Panics
    /// Panics for kinds without a position bitmap or run-length section.
    pub fn mask_into(&self, mask: &mut BitMask) {
        match self.kind.layout() {
            Some(PositionLayout::Bitmap) => {
                mask.reset(self.dim);
                mask.fill_from_le_bytes(self.positions);
            }
            Some(PositionLayout::Rle) => {
                mask.reset(self.dim);
                self.for_each_rle_run(|start, len| mask.set_range(start, len));
            }
            _ => panic!("frame kind {:?} carries no mask section", self.kind),
        }
    }

    /// Walks a run-length position section's ones-runs as
    /// `(start, len)`, in increasing order.
    fn for_each_rle_run(&self, mut f: impl FnMut(usize, usize)) {
        let mut pos = 0usize;
        let mut at = 0usize; // next uncovered position
        let mut ones = 0usize;
        while ones < self.nnz {
            let zeros = read_varint(self.positions, &mut pos)
                .expect("run-length section validated at decode");
            let run = read_varint(self.positions, &mut pos)
                .expect("run-length section validated at decode");
            let zeros = usize::try_from(zeros).expect("run fits usize");
            let run = usize::try_from(run).expect("run fits usize");
            at += zeros;
            f(at, run);
            at += run;
            ones += run;
        }
    }

    /// The shared magnitude `µ` of a ternary frame.
    ///
    /// # Panics
    /// Panics for non-ternary kinds.
    #[must_use]
    pub fn ternary_mu(&self) -> f32 {
        assert!(self.kind.is_ternary(), "not a ternary frame");
        f32::from_le_bytes(self.values[..4].try_into().expect("4 bytes"))
    }

    /// Appends a ternary frame's sign bits (`true` = positive) to `out`.
    ///
    /// # Panics
    /// Panics for non-ternary kinds.
    pub fn ternary_signs_into(&self, out: &mut Vec<bool>) {
        assert!(self.kind.is_ternary(), "not a ternary frame");
        out.reserve(self.nnz);
        for j in 0..self.nnz {
            out.push(self.values[4 + j / 8] >> (j % 8) & 1 == 1);
        }
    }
}

/// Calls `f(i)` for each set bit of a little-endian byte bitmap, in
/// increasing order (word-at-a-time over 8-byte chunks).
fn for_each_bitmap_one(bytes: &[u8], mut f: impl FnMut(usize)) {
    for (ci, chunk) in bytes.chunks(8).enumerate() {
        let mut word_bytes = [0u8; 8];
        word_bytes[..chunk.len()].copy_from_slice(chunk);
        let mut w = u64::from_le_bytes(word_bytes);
        let base = ci * 64;
        while w != 0 {
            f(base + w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{delta_section_len, rle_section_len, rle_section_len_from_indices};

    /// Writer reproducing the v1 legacy frame layouts the analytic
    /// ledger is priced in.
    fn legacy(codec: Codec) -> FrameWriter {
        FrameWriter::new(WirePolicy::legacy(codec))
    }

    /// The v1 F32 sparse frame length, restated: the reference the
    /// writer and [`legacy_sparse_len`] are both held to.
    fn closed_form_sparse(dim: usize, nnz: usize) -> u64 {
        (16 + dim.div_ceil(8).min(4 * nnz) + 4 * nnz) as u64
    }

    #[test]
    fn wire_ids_index_the_kind_table() {
        for (id, kind) in FrameKind::ALL.iter().enumerate() {
            assert_eq!(usize::from(kind.id()), id);
            assert_eq!(FrameKind::from_id(kind.id()), Ok(*kind));
        }
        assert_eq!(FrameKind::from_id(12), Err(WireError::BadKind(12)));
    }

    #[test]
    fn mask_frames_are_policy_independent() {
        // Mask frames carry no value section, so the legacy and the
        // default (entropy-enabled) policies emit identical bytes.
        let mask = BitMask::from_indices(500, (0..500).step_by(3));
        let mut a = Vec::new();
        let _ = legacy(Codec::F32).mask(&mut a, 1, &mask);
        let mut b = Vec::new();
        let _ = FrameWriter::new(WirePolicy::default()).mask(&mut b, 1, &mask);
        assert_eq!(a, b);
    }

    #[test]
    fn sparse_delta_round_trips_and_matches_section_cost() {
        let dim = 100_000;
        let indices: Vec<u32> = (0..4000u32).map(|i| i * 25).collect();
        let values: Vec<f32> = (0..4000).map(|i| (i as f32 * 0.1).sin()).collect();
        let writer = FrameWriter::new(WirePolicy::entropy(Codec::F32));
        let mut buf = Vec::new();
        let n = writer.sparse(&mut buf, 3, Rounding::Nearest, dim, &indices, &values);
        assert_eq!(n, buf.len());
        assert_eq!(n as u64, writer.sparse_len(dim, &indices));
        assert_eq!(
            n as u64,
            HEADER_BYTES as u64 + delta_section_len(&indices) + 4 * indices.len() as u64
        );
        let frame = decode_frame(&buf).unwrap();
        assert_eq!(frame.kind, FrameKind::SparseDelta);
        assert_eq!(frame.round, 3);
        let (mut ix, mut vals) = (Vec::new(), Vec::new());
        frame.indices_into(&mut ix);
        frame.values_into(&mut vals);
        assert_eq!(ix, indices);
        assert!(values
            .iter()
            .zip(&vals)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn mask_rle_round_trips_and_matches_section_cost() {
        let dim = 10_000;
        let mask = BitMask::from_indices(dim, (0..dim).filter(|i| i / 400 % 3 == 0));
        let writer = FrameWriter::new(WirePolicy::entropy(Codec::F32));
        let mut buf = Vec::new();
        let n = writer.mask(&mut buf, 9, &mask);
        assert_eq!(n as u64, writer.mask_len(&mask));
        assert_eq!(n as u64, HEADER_BYTES as u64 + rle_section_len(&mask));
        assert!((n as u64) < HEADER_BYTES as u64 + dim.div_ceil(8) as u64);
        let frame = decode_frame(&buf).unwrap();
        assert_eq!(frame.kind, FrameKind::MaskRle);
        assert_eq!(frame.nnz, mask.count_ones());
        let mut back = BitMask::zeros(1);
        frame.mask_into(&mut back);
        assert_eq!(back, mask);
    }

    #[test]
    fn sparse_rle_round_trips_for_blocky_indices() {
        let dim = 50_000;
        // 40 blocks of 64 consecutive indices: RLE beats delta and both
        // fixed layouts.
        let indices: Vec<u32> = (0..40u32)
            .flat_map(|b| (0..64u32).map(move |j| b * 1200 + j))
            .collect();
        let values: Vec<f32> = indices.iter().map(|&i| i as f32 * 1e-4).collect();
        let writer = FrameWriter::new(WirePolicy::entropy(Codec::F32));
        let mut buf = Vec::new();
        let n = writer.sparse(&mut buf, 2, Rounding::Nearest, dim, &indices, &values);
        assert_eq!(n as u64, writer.sparse_len(dim, &indices));
        assert_eq!(
            n as u64,
            HEADER_BYTES as u64 + rle_section_len_from_indices(&indices) + 4 * indices.len() as u64
        );
        let frame = decode_frame(&buf).unwrap();
        assert_eq!(frame.kind, FrameKind::SparseRle);
        let (mut ix, mut vals) = (Vec::new(), Vec::new());
        frame.indices_into(&mut ix);
        frame.values_into(&mut vals);
        assert_eq!(ix, indices);
        assert_eq!(vals, values);
        // The mask view agrees with the index view.
        let mut m = BitMask::zeros(1);
        frame.mask_into(&mut m);
        assert_eq!(m.iter_ones().map(|i| i as u32).collect::<Vec<_>>(), indices);
    }

    #[test]
    fn ternary_delta_and_rle_round_trip() {
        let dim = 80_000;
        let scattered: Vec<u32> = (0..900u32).map(|i| i * 88).collect();
        let blocky: Vec<u32> = (0..30u32)
            .flat_map(|b| (0..32u32).map(move |j| b * 2000 + j))
            .collect();
        for (indices, want) in [
            (scattered, FrameKind::TernaryDelta),
            (blocky, FrameKind::TernaryRle),
        ] {
            let signs: Vec<bool> = (0..indices.len()).map(|i| i % 3 != 0).collect();
            let writer = FrameWriter::new(WirePolicy::entropy(Codec::F32));
            let mut buf = Vec::new();
            let n = writer.ternary(&mut buf, 6, dim, 0.25, &indices, &signs);
            assert_eq!(n as u64, writer.ternary_len(dim, &indices));
            let frame = decode_frame(&buf).unwrap();
            assert_eq!(frame.kind, want);
            assert_eq!(frame.ternary_mu(), 0.25);
            let (mut ix, mut s) = (Vec::new(), Vec::new());
            frame.indices_into(&mut ix);
            frame.ternary_signs_into(&mut s);
            assert_eq!(ix, indices);
            assert_eq!(s, signs);
        }
    }

    #[test]
    fn entropy_frames_are_self_delimiting_in_streams() {
        let writer = FrameWriter::new(WirePolicy::entropy(Codec::F32));
        let mut buf = Vec::new();
        let _ = writer.sparse(
            &mut buf,
            1,
            Rounding::Nearest,
            100_000,
            &[10, 400, 90_000],
            &[1.0, 2.0, 3.0],
        );
        let mask = BitMask::from_indices(100_000, 5_000..6_000);
        let _ = writer.mask(&mut buf, 1, &mask);
        let _ = writer.known_mask(&mut buf, 1, Rounding::Nearest, 100_000, &[7.0]);
        let (first, rest) = decode_frame_prefix(&buf).unwrap();
        assert_eq!(first.kind, FrameKind::SparseDelta);
        let (second, rest) = decode_frame_prefix(rest).unwrap();
        assert_eq!(second.kind, FrameKind::MaskRle);
        let (third, rest) = decode_frame_prefix(rest).unwrap();
        assert_eq!(third.kind, FrameKind::KnownMask);
        assert!(rest.is_empty());
        // And the header-scan length agrees frame by frame.
        assert_eq!(frame_len_from_header(&buf).unwrap(), {
            let mut probe = Vec::new();
            let _ = writer.sparse(
                &mut probe,
                1,
                Rounding::Nearest,
                100_000,
                &[10, 400, 90_000],
                &[1.0, 2.0, 3.0],
            );
            probe.len() as u64
        });
    }

    #[test]
    fn empty_entropy_sparse_frame_is_header_plus_values() {
        // nnz = 0 under the entropy policy still picks the empty index
        // list (precedence), identical to the legacy empty frame.
        let writer = FrameWriter::new(WirePolicy::entropy(Codec::F32));
        let mut buf = Vec::new();
        let n = writer.sparse(&mut buf, 0, Rounding::Nearest, 100, &[], &[]);
        assert_eq!(n, HEADER_BYTES);
        let frame = decode_frame(&buf).unwrap();
        assert_eq!(frame.kind, FrameKind::SparseIndex);
        assert_eq!(frame.nnz, 0);
    }

    #[test]
    fn v2_byte_with_v1_kind_is_bad_version() {
        // Encode a legacy sparse-index frame, then flip its packed byte
        // to version 2 (kind bits unchanged) and restamp the CRC: the
        // non-canonical version/kind pairing must be rejected.
        let mut buf = Vec::new();
        let _ = legacy(Codec::F32).sparse(&mut buf, 0, Rounding::Nearest, 1000, &[5], &[1.0]);
        buf[1] = (VERSION_ENTROPY << 6) | (buf[1] & 0x3f);
        let crc = crc16_update(crc16(&buf[..14]), &buf[HEADER_BYTES..]);
        buf[14..16].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode_frame(&buf), Err(WireError::BadVersion(_))));
    }

    #[test]
    fn dense_round_trip_bit_exact() {
        let values: Vec<f32> = (0..300).map(|i| (i as f32).sin()).collect();
        let mut buf = Vec::new();
        let n = legacy(Codec::F32).dense(&mut buf, 7, Rounding::Nearest, &values);
        assert_eq!(n, buf.len());
        assert_eq!(n, HEADER_BYTES + 4 * values.len());
        assert_eq!(n as u64, legacy(Codec::F32).dense_len(values.len()));
        let frame = decode_frame(&buf).unwrap();
        assert_eq!(frame.kind, FrameKind::Dense);
        assert_eq!(frame.round, 7);
        assert_eq!((frame.dim, frame.nnz), (300, 300));
        let mut back = Vec::new();
        frame.values_into(&mut back);
        assert!(values
            .iter()
            .zip(&back)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn sparse_picks_cheaper_position_encoding_like_wirecost() {
        // Very sparse → index list; dense-ish → bitmap; tie → bitmap.
        for (dim, nnz) in [(1000, 3), (1000, 400), (3200, 100), (3200, 99)] {
            let indices: Vec<u32> = (0..nnz as u32)
                .map(|i| i * (dim as u32 / nnz as u32))
                .collect();
            let values: Vec<f32> = (0..nnz).map(|i| i as f32 - 2.0).collect();
            let mut buf = Vec::new();
            let n =
                legacy(Codec::F32).sparse(&mut buf, 0, Rounding::Nearest, dim, &indices, &values);
            assert_eq!(
                n as u64,
                closed_form_sparse(dim, nnz),
                "dim={dim} nnz={nnz}"
            );
            assert_eq!(n as u64, legacy_sparse_len(Codec::F32, dim, nnz));
            let frame = decode_frame(&buf).unwrap();
            let mut ix = Vec::new();
            frame.indices_into(&mut ix);
            assert_eq!(ix, indices);
            let mut vals = Vec::new();
            frame.values_into(&mut vals);
            assert_eq!(vals, values);
        }
    }

    #[test]
    fn known_mask_frame_has_no_position_bytes() {
        let values = vec![1.0f32, -2.0, 3.0];
        let mut buf = Vec::new();
        let n = legacy(Codec::F32).known_mask(&mut buf, 3, Rounding::Nearest, 100, &values);
        assert_eq!(n, HEADER_BYTES + 4 * 3);
        assert_eq!(n as u64, legacy(Codec::F32).known_mask_len(3));
        let frame = decode_frame(&buf).unwrap();
        assert_eq!(frame.kind, FrameKind::KnownMask);
        assert_eq!(frame.dim, 100);
        let mut back = Vec::new();
        frame.values_into(&mut back);
        assert_eq!(back, values);
    }

    #[test]
    fn mask_frame_round_trips_and_costs_the_bitmap() {
        let mask = BitMask::from_indices(77, [0usize, 13, 64, 76]);
        let mut buf = Vec::new();
        let n = legacy(Codec::F32).mask(&mut buf, 9, &mask);
        assert_eq!(n, HEADER_BYTES + 77usize.div_ceil(8));
        assert_eq!(n as u64, legacy_mask_len(77));
        let frame = decode_frame(&buf).unwrap();
        assert_eq!(frame.kind, FrameKind::Mask);
        assert_eq!(frame.nnz, 4);
        let mut back = BitMask::zeros(1);
        frame.mask_into(&mut back);
        assert_eq!(back, mask);
    }

    #[test]
    fn ternary_round_trip_matches_analytic_cost() {
        let dim = 10_000;
        let indices: Vec<u32> = (0..500).map(|i| i * 17).collect();
        let signs: Vec<bool> = (0..500).map(|i| i % 3 != 0).collect();
        let mut buf = Vec::new();
        let n = legacy(Codec::F32).ternary(&mut buf, 4, dim, 0.125, &indices, &signs);
        // Closed form: positions min(bitmap, 4·nnz) + (ceil(nnz/8) + 4) + header.
        let positions = dim.div_ceil(8).min(4 * indices.len()) as u64;
        assert_eq!(n as u64, positions + 500u64.div_ceil(8) + 4 + 16);
        let frame = decode_frame(&buf).unwrap();
        assert_eq!(frame.ternary_mu(), 0.125);
        let mut ix = Vec::new();
        frame.indices_into(&mut ix);
        assert_eq!(ix, indices);
        let mut s = Vec::new();
        frame.ternary_signs_into(&mut s);
        assert_eq!(s, signs);
        let mut vals = Vec::new();
        frame.values_into(&mut vals);
        assert!(vals
            .iter()
            .zip(&signs)
            .all(|(&v, &p)| v == if p { 0.125 } else { -0.125 }));
    }

    #[test]
    fn prefix_decoding_streams_concatenated_frames() {
        let mut buf = Vec::new();
        let writer = legacy(Codec::F32);
        writer.known_mask(&mut buf, 1, Rounding::Nearest, 10, &[1.0, 2.0]);
        writer.sparse(&mut buf, 1, Rounding::Nearest, 1000, &[5, 9], &[-1.0, 4.0]);
        let (first, rest) = decode_frame_prefix(&buf).unwrap();
        assert_eq!(first.kind, FrameKind::KnownMask);
        let (second, rest) = decode_frame_prefix(rest).unwrap();
        assert_eq!(second.kind, FrameKind::SparseIndex);
        assert!(rest.is_empty());
        // The strict form rejects the concatenation.
        assert!(matches!(
            decode_frame(&buf),
            Err(WireError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn empty_sparse_frame_is_header_only_plus_rule() {
        // nnz = 0: index list costs 0 < bitmap, so positions are empty.
        let mut buf = Vec::new();
        let n = legacy(Codec::F32).sparse(&mut buf, 0, Rounding::Nearest, 100, &[], &[]);
        assert_eq!(n, HEADER_BYTES);
        assert_eq!(legacy_sparse_len(Codec::F32, 100, 0), HEADER_BYTES as u64);
        let frame = decode_frame(&buf).unwrap();
        assert_eq!(frame.nnz, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds dim")]
    fn legacy_sparse_len_rejects_nnz_over_dim() {
        let _ = legacy_sparse_len(Codec::F32, 4, 5);
    }

    #[test]
    fn quantized_frames_are_smaller_and_decode() {
        let values: Vec<f32> = (0..256).map(|i| ((i as f32) * 0.71).sin()).collect();
        let mut f32_buf = Vec::new();
        legacy(Codec::F32).dense(&mut f32_buf, 0, Rounding::Nearest, &values);
        let mut q_buf = Vec::new();
        legacy(Codec::QuantU8).dense(&mut q_buf, 0, Rounding::Nearest, &values);
        let mut h_buf = Vec::new();
        legacy(Codec::F16).dense(&mut h_buf, 0, Rounding::Nearest, &values);
        assert!(q_buf.len() < h_buf.len() && h_buf.len() < f32_buf.len());
        let frame = decode_frame(&q_buf).unwrap();
        assert_eq!(frame.codec, Codec::QuantU8);
        let mut back = Vec::new();
        frame.values_into(&mut back);
        assert_eq!(back.len(), values.len());
        for (v, d) in values.iter().zip(&back) {
            assert!((v - d).abs() <= 1.0 / 254.0 + 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn sparse_writer_rejects_unsorted_indices() {
        let mut buf = Vec::new();
        let _ = legacy(Codec::F32).sparse(&mut buf, 0, Rounding::Nearest, 10, &[3, 1], &[1.0, 2.0]);
    }
}
