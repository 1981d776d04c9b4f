//! `gluefl-wire`: the framed, checksummed binary wire protocol for GlueFL
//! round messages.
//!
//! The rest of the workspace *accounts* for bandwidth with the analytic
//! [`gluefl_tensor::wire::WireCost`] model; this crate actually
//! serializes the bytes. Every message of the round protocol — the dense
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
//! the **entropy layouts** ([`IndexLayout::Entropy`], RLE) lets the
//! writer also price delta-coded varint index lists and run-length mask
//! sections and pick the cheapest layout per frame in exact bytes.
//!
//! Three pluggable **value codecs** ([`Codec`]) decide how `f32`
//! parameter values travel:
//!
//! * [`Codec::F32`] — 4 B/value, bit-exact; with it, every frame's length
//!   equals the analytic `WireCost` total (property-tested), so the
//!   simulator's measured bytes and the ledger's analytic bytes coincide.
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
//! [`WireError`] — untrusted input never panics.
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
//! // Legacy F32 frames match the analytic cost model exactly.
//! assert_eq!(len as u64, gluefl_tensor::WireCost::sparse(1000, 3).total_bytes());
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

pub use codec::{Codec, Rounding, QUANT_BLOCK};
pub use error::WireError;
pub use frame::{
    decode_frame, decode_frame_prefix, frame_kind_from_header, frame_len, frame_len_from_header,
    sparse_kind, ternary_kind, Frame, FrameKind, FrameWriter, HEADER_BYTES, MAGIC, VERSION,
    VERSION_ENTROPY,
};
pub use policy::{
    delta_section_len, rle_section_len, rle_section_len_from_indices, IndexLayout, WirePolicy,
};
