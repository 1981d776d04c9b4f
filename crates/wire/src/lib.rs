//! `gluefl-wire`: the framed, checksummed binary wire protocol for GlueFL
//! round messages.
//!
//! This crate serializes the bytes, and is the only place in the
//! workspace that knows what a message costs: the analytic byte ledger
//! is the length of the frame a [`WirePolicy::legacy`] F32 writer would
//! emit, from the same predictors that price the frames actually sent.
//! Every message of the round protocol — the dense
//! model broadcast, the shared-mask broadcast, and the dense / sparse /
//! mask-aligned / ternary update uploads — is one [`frame`]: a 16-byte
//! header (magic, version, kind, codec, round, `dim`, `nnz`,
//! CRC-16/CCITT-FALSE) followed by a payload whose length the header
//! implies. See [`frame`] for the byte-level layout table.
//!
//! What travels is shaped by a [`WirePolicy`] — the value codec, the
//! admissible position layouts, and (for lossy codecs) whether codec
//! residual feeds back into error compensation — and written through a
//! single [`FrameWriter`] entry point per message kind. The default
//! policy reproduces the original v1 format byte for byte; opting into
//! the **entropy layouts** ([`LayoutMenu::Entropy`]) lets the
//! writer also price delta-coded varint index lists and run-length
//! sections and pick the cheapest layout per frame in exact bytes.
//!
//! Three pluggable **value codecs** ([`Codec`]) decide how `f32`
//! parameter values travel:
//!
//! * [`Codec::F32`] — 4 B/value, bit-exact; with it and the legacy menu
//!   the simulator's measured bytes and the ledger's analytic bytes
//!   coincide.
//! * [`Codec::F16`] — 2 B/value, round-to-nearest-even half precision.
//! * [`Codec::QuantU8`] — 1 B/value plus one `f32` scale per 64-value
//!   block, with deterministic [`Rounding::Nearest`] or unbiased,
//!   seed-deterministic [`Rounding::Stochastic`] rounding (the simulator
//!   derives the seed from `(master seed, round, client)`, so serial and
//!   parallel runs stay bit-identical).
//!
//! **Encoding** appends to a caller-supplied `Vec<u8>` — the simulator
//! threads pooled byte arenas through, so steady-state encoding performs
//! no heap allocation. **Decoding** ([`decode_frame`] /
//! [`decode_frame_prefix`]) is zero-copy over `&[u8]`: the returned
//! [`Frame`] borrows its position and value sections, and every
//! malformation (truncation, checksum damage, `nnz`/`dim` inconsistency,
//! out-of-range or unsorted indices, non-canonical padding) is a typed
//! [`WireError`] — untrusted input never panics. A verified frame's
//! values can be used where they lie ([`Frame::value_view`], a
//! [`ValueView`]): a receiver that folds a dense upload once reads it
//! straight from the bytes and never copies it.
//!
//! # Example
//!
//! ```
//! use gluefl_wire::{decode_frame, Codec, FrameWriter, Rounding, WirePolicy};
//!
//! // A sparse update: 3 of 1000 coordinates, legacy (v1) layouts.
//! let writer = FrameWriter::new(WirePolicy::legacy(Codec::F32));
//! let mut buf = Vec::new();
//! let len = writer.sparse(
//!     &mut buf, /* round */ 12, Rounding::Nearest,
//!     1000, &[7, 400, 999], &[0.5, -1.0, 2.0],
//! );
//! // Legacy frame lengths are closed forms in the counts: 16 B header,
//! // 3 u32 indices (cheaper than a 125 B bitmap), 3 f32 values.
//! assert_eq!(len as u64, gluefl_wire::legacy_sparse_len(Codec::F32, 1000, 3));
//! assert_eq!(len, 16 + 4 * 3 + 4 * 3);
//! // The entropy menu prices delta varints and RLE too, and only wins bytes.
//! let entropy = FrameWriter::new(WirePolicy::entropy(Codec::F32));
//! assert!(entropy.sparse_len(1000, &[7, 400, 999]) <= len as u64);
//!
//! let frame = decode_frame(&buf).unwrap();
//! let (mut ix, mut vals) = (Vec::new(), Vec::new());
//! frame.indices_into(&mut ix);
//! frame.values_into(&mut vals);
//! assert_eq!(ix, vec![7, 400, 999]);
//! assert_eq!(vals, vec![0.5, -1.0, 2.0]);
//!
//! // Corruption is a typed error, never a panic.
//! buf[20] ^= 0xFF;
//! assert!(decode_frame(&buf).is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod crc;
pub mod error;
pub mod frame;
pub mod policy;
pub mod stats;
mod varint;

pub use codec::{Codec, Rounding, ValueView, QUANT_BLOCK};
pub use error::WireError;
pub use frame::{
    decode_frame, decode_frame_prefix, frame_kind_from_header, frame_len_from_header,
    legacy_mask_len, legacy_sparse_len, Frame, FrameKind, FrameWriter, HEADER_BYTES, MAGIC,
    VERSION, VERSION_ENTROPY,
};
pub use policy::{
    delta_section_len, rle_section_len, rle_section_len_from_indices, LayoutMenu, WirePolicy,
};
