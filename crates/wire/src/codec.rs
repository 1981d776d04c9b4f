//! Pluggable value codecs: how `f32` parameter values are laid out in a
//! frame's value section.
//!
//! Three codecs are defined:
//!
//! * [`Codec::F32`] — 4 bytes per value, little-endian IEEE 754 single
//!   precision. Bit-exact round trip; the analytic byte ledger is
//!   priced in this codec.
//! * [`Codec::F16`] — 2 bytes per value, IEEE 754 half precision with
//!   round-to-nearest-even. Relative error ≤ 2⁻¹¹ in the normal range;
//!   values above the f16 range saturate to ±∞.
//! * [`Codec::QuantU8`] — 1 byte per value plus one `f32` scale per
//!   [`QUANT_BLOCK`]-value block. Each block stores
//!   `q = round(v / scale) + 128` with `scale = max|v| / 127`, so the
//!   reconstruction error is at most `scale / 2` under
//!   [`Rounding::Nearest`] and strictly below `scale` (unbiased in
//!   expectation) under [`Rounding::Stochastic`].
//!
//! Stochastic rounding is *deterministic*: the Bernoulli draw for value
//! `i` is a pure hash of `(seed, i)` ([`gluefl_tensor::rng::splitmix64`]),
//! so an encode is a function of its arguments alone — independent of
//! thread schedule, and reproducible when the caller derives the seed
//! from `(master seed, round, client)` as the simulator does.

use crate::error::WireError;
use gluefl_tensor::rng::splitmix64;

/// Values per quantization block in [`Codec::QuantU8`] (one `f32` scale
/// is stored per block).
pub const QUANT_BLOCK: usize = 64;

/// Wire identifier of a value codec (the frame header's codec field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// Little-endian `f32`: 4 bytes per value, bit-exact.
    F32,
    /// IEEE 754 half precision: 2 bytes per value, round-to-nearest-even.
    F16,
    /// Blockwise 8-bit quantization: 1 byte per value plus a 4-byte scale
    /// per [`QUANT_BLOCK`] values.
    QuantU8,
}

impl Codec {
    /// A stable snake_case name, used as the metric label value in
    /// exported frame counters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Codec::F32 => "f32",
            Codec::F16 => "f16",
            Codec::QuantU8 => "quant_u8",
        }
    }

    /// The wire id stored in the frame header.
    #[must_use]
    pub fn id(self) -> u8 {
        match self {
            Codec::F32 => 0,
            Codec::F16 => 1,
            Codec::QuantU8 => 2,
        }
    }

    /// Parses a wire id.
    ///
    /// # Errors
    /// Returns [`WireError::BadCodec`] for unknown ids.
    pub fn from_id(id: u8) -> Result<Self, WireError> {
        match id {
            0 => Ok(Codec::F32),
            1 => Ok(Codec::F16),
            2 => Ok(Codec::QuantU8),
            other => Err(WireError::BadCodec(other)),
        }
    }

    /// Exact byte length of this codec's value section for `n` values.
    #[must_use]
    pub fn value_section_len(self, n: usize) -> usize {
        match self {
            Codec::F32 => 4 * n,
            Codec::F16 => 2 * n,
            Codec::QuantU8 => n + 4 * n.div_ceil(QUANT_BLOCK),
        }
    }
}

/// How [`Codec::QuantU8`] rounds `v / scale` to an integer level.
/// Ignored by the lossless/deterministic codecs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rounding {
    /// Round to the nearest level (ties away from zero via `f32::round`):
    /// reconstruction error ≤ `scale / 2`.
    Nearest,
    /// Unbiased stochastic rounding: value `i` rounds up with probability
    /// equal to its fractional part, using the deterministic per-value
    /// hash of `(seed, i)`. Reconstruction error < `scale`.
    Stochastic {
        /// Stream seed; derive from `(master, round, client)` for
        /// schedule-independent reproducibility.
        seed: u64,
    },
}

/// Values staged on the stack per `extend_from_slice` when encoding
/// fixed-width little-endian sections (1 KB of `f32`s).
const STAGE_VALUES: usize = 256;

/// Appends `values` to `out` as little-endian 4-byte words, through a
/// stack staging block: the conversion loop writes a fixed-size array
/// (so it vectorizes to a plain copy on little-endian targets) and `out`
/// grows by bulk appends — never zero-filled first, never pushed one
/// value at a time.
pub(crate) fn extend_le_words<T: Copy>(
    out: &mut Vec<u8>,
    values: &[T],
    to_le: impl Fn(T) -> [u8; 4],
) {
    out.reserve(4 * values.len());
    let mut staging = [0u8; 4 * STAGE_VALUES];
    for block in values.chunks(STAGE_VALUES) {
        for (bytes, &v) in staging.chunks_exact_mut(4).zip(block) {
            bytes.copy_from_slice(&to_le(v));
        }
        out.extend_from_slice(&staging[..4 * block.len()]);
    }
}

/// Appends `values` to `out` in this codec's layout. Returns the number
/// of bytes appended (always `codec.value_section_len(values.len())`).
///
/// [`Codec::F32`] sections are written in bulk (a staged copy at memory
/// speed); the other codecs convert value by value.
pub fn encode_values(out: &mut Vec<u8>, codec: Codec, rounding: Rounding, values: &[f32]) -> usize {
    encode_values_at(out, codec, rounding, values, 0)
}

/// [`encode_values`] for the part of a section that starts at value
/// `first`: stochastic rounding draws value `first + j`'s bit for
/// `values[j]`, so a section written part by part — each part starting
/// on a [`QUANT_BLOCK`] boundary — is byte-identical to one written
/// whole.
pub(crate) fn encode_values_at(
    out: &mut Vec<u8>,
    codec: Codec,
    rounding: Rounding,
    values: &[f32],
    first: usize,
) -> usize {
    debug_assert!(first.is_multiple_of(QUANT_BLOCK), "parts start on a block");
    let start = out.len();
    match codec {
        Codec::F32 => extend_le_words(out, values, f32::to_le_bytes),
        Codec::F16 => {
            out.resize(start + 2 * values.len(), 0);
            for (chunk, &v) in out[start..].chunks_exact_mut(2).zip(values) {
                chunk.copy_from_slice(&f32_to_f16_bits(v).to_le_bytes());
            }
        }
        Codec::QuantU8 => {
            out.reserve(values.len() + 4 * values.len().div_ceil(QUANT_BLOCK));
            for (b, block) in values.chunks(QUANT_BLOCK).enumerate() {
                let max_abs = block.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                let scale = max_abs / 127.0;
                out.extend_from_slice(&scale.to_le_bytes());
                for (j, &v) in block.iter().enumerate() {
                    let index = first + b * QUANT_BLOCK + j;
                    out.push(quantize_u8(v, scale, rounding, index));
                }
            }
        }
    }
    out.len() - start
}

/// The values of an F32 section, in order: the one little-endian reader
/// every F32 value section is read through.
fn f32_values(bytes: &[u8]) -> impl Iterator<Item = f32> + '_ {
    let (words, rest) = bytes.as_chunks::<4>();
    debug_assert!(rest.is_empty(), "an F32 section is whole words");
    words.iter().map(|word| f32::from_le_bytes(*word))
}

/// The values of an F16 section, in order.
fn f16_values(bytes: &[u8]) -> impl Iterator<Item = f32> + '_ {
    let (halves, rest) = bytes.as_chunks::<2>();
    debug_assert!(rest.is_empty(), "an F16 section is whole half-words");
    halves
        .iter()
        .map(|half| f16_bits_to_f32(u16::from_le_bytes(*half)))
}

/// The values of a QuantU8 section, in order: every block is a 4-byte
/// scale followed by up to [`QUANT_BLOCK`] levels (only the last block
/// is short).
fn quant_values(bytes: &[u8]) -> impl Iterator<Item = f32> + '_ {
    bytes.chunks(4 + QUANT_BLOCK).flat_map(|block| {
        let (scale, levels) = block.split_at(4);
        let scale = f32::from_le_bytes(scale.try_into().expect("4-byte scale"));
        levels
            .iter()
            .map(move |&q| f32::from(i16::from(q) - 128) * scale)
    })
}

/// Writes `values` over `out`, slot by slot.
pub(crate) fn fill(out: &mut [f32], values: impl Iterator<Item = f32>) {
    for (slot, v) in out.iter_mut().zip(values) {
        *slot = v;
    }
}

/// `acc[i] += weight · values[i]`, slot by slot: one rounded product and
/// one `+=` per position, the arithmetic of [`gluefl_tensor::vecops::axpy`].
fn add_scaled(acc: &mut [f32], weight: f32, values: impl Iterator<Item = f32>) {
    for (a, v) in acc.iter_mut().zip(values) {
        *a += weight * v;
    }
}

/// A codec value section read in place — the values of a verified frame
/// ([`crate::Frame::value_view`]), still in the bytes they arrived in.
///
/// A receiver that only needs the values once folds them straight from
/// the bytes ([`add_scaled_into`](Self::add_scaled_into)) and never
/// copies them; one that must keep them past the frame's buffer copies
/// them out ([`extend_into`](Self::extend_into),
/// [`write_to`](Self::write_to)). All three walk the section through
/// the codec's one reader, so a fold from the bytes and a fold of the
/// copied values compute the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueView<'a> {
    codec: Codec,
    bytes: &'a [u8],
    len: usize,
}

impl<'a> ValueView<'a> {
    /// The `len` values `codec` laid out in `bytes`.
    ///
    /// # Panics
    /// Panics if `bytes.len() != codec.value_section_len(len)` — frame
    /// decoding guarantees the equality.
    pub(crate) fn new(codec: Codec, bytes: &'a [u8], len: usize) -> Self {
        assert_eq!(
            bytes.len(),
            codec.value_section_len(len),
            "value section length mismatch"
        );
        Self { codec, bytes, len }
    }

    /// Number of values in the section.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the section holds no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends the values to `out`.
    ///
    /// For the fixed-width codecs the reader's length is known up front,
    /// so the F32 case is a bulk copy rather than a per-value `push`.
    pub fn extend_into(&self, out: &mut Vec<f32>) {
        match self.codec {
            Codec::F32 => out.extend(f32_values(self.bytes)),
            Codec::F16 => out.extend(f16_values(self.bytes)),
            Codec::QuantU8 => {
                out.reserve(self.len);
                out.extend(quant_values(self.bytes));
            }
        }
    }

    /// Writes the values over `out`, for a receiver that already owns
    /// their destination (one zipped pass, no intermediate vector).
    ///
    /// # Panics
    /// Panics if `out.len()` differs from [`len`](Self::len).
    pub fn write_to(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len, "value count mismatch");
        match self.codec {
            Codec::F32 => fill(out, f32_values(self.bytes)),
            Codec::F16 => fill(out, f16_values(self.bytes)),
            Codec::QuantU8 => fill(out, quant_values(self.bytes)),
        }
    }

    /// Folds the values into `acc` in place: `acc[i] += weight · v[i]`,
    /// read straight from the bytes. Bit-identical to copying the values
    /// out and running [`gluefl_tensor::vecops::axpy`] over them — the
    /// same reader, then the same single `+=` per position.
    ///
    /// # Panics
    /// Panics if `acc.len()` differs from [`len`](Self::len).
    pub fn add_scaled_into(&self, acc: &mut [f32], weight: f32) {
        assert_eq!(acc.len(), self.len, "value count mismatch");
        match self.codec {
            Codec::F32 => add_scaled(acc, weight, f32_values(self.bytes)),
            Codec::F16 => add_scaled(acc, weight, f16_values(self.bytes)),
            Codec::QuantU8 => add_scaled(acc, weight, quant_values(self.bytes)),
        }
    }
}

/// Quantizes one value to a `u8` level around zero-point 128.
fn quantize_u8(v: f32, scale: f32, rounding: Rounding, index: usize) -> u8 {
    if scale == 0.0 {
        return 128;
    }
    let x = v / scale; // in [-127, 127] up to rounding of the division
    let level = match rounding {
        Rounding::Nearest => x.round() as i32,
        Rounding::Stochastic { seed } => {
            let floor = x.floor();
            let frac = x - floor;
            // 24 uniform bits from the (seed, index) hash → u ∈ [0, 1).
            let u = (splitmix64(seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 40)
                as f32
                / (1u64 << 24) as f32;
            floor as i32 + i32::from(u < frac)
        }
    };
    u8::try_from((level + 128).clamp(0, 255)).expect("clamped to u8 range")
}

/// Converts an `f32` to IEEE 754 binary16 bits with round-to-nearest-even
/// (overflow saturates to ±∞; NaN payloads are truncated but kept NaN).
#[must_use]
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let b = x.to_bits();
    let sign = ((b >> 16) & 0x8000) as u16;
    let exp = ((b >> 23) & 0xFF) as i32;
    let man = b & 0x007F_FFFF;
    if exp == 0xFF {
        // Inf stays inf; NaN keeps its top payload bits, forced non-zero.
        let payload = if man == 0 {
            0
        } else {
            0x0200 | ((man >> 13) as u16 & 0x03FF)
        };
        return sign | 0x7C00 | payload;
    }
    let e = exp - 127;
    if e >= -14 {
        if e > 15 {
            return sign | 0x7C00; // overflow → ±inf
        }
        // Normal target: pack exponent, then RNE the 23→10-bit mantissa.
        // A mantissa carry correctly rolls into the exponent (and into
        // the infinity encoding at the very top).
        let mut h = (((e + 15) as u32) << 10) | (man >> 13);
        let rem = man & 0x1FFF;
        if rem > 0x1000 || (rem == 0x1000 && h & 1 == 1) {
            h += 1;
        }
        return sign | (h as u16);
    }
    // Subnormal target: value = m × 2^(e−23) with the implicit bit, and
    // one f16-subnormal ulp is 2⁻²⁴, so the stored mantissa is
    // RNE(m >> (−e−1)). A round-up past 0x3FF lands exactly on the
    // smallest normal's encoding.
    let m = man | 0x0080_0000;
    let shift = (-e - 1) as u32;
    (sign as u32 | rne_shift(m, shift)) as u16
}

/// `round(m / 2^shift)` with ties to even, for `shift ≥ 1`.
fn rne_shift(m: u32, shift: u32) -> u32 {
    if shift > 31 {
        return 0; // m < 2^31 ⟹ m / 2^shift < 1/2: rounds to zero
    }
    let q = m >> shift;
    let rem = m & ((1u32 << shift) - 1);
    let half = 1u32 << (shift - 1);
    if rem > half || (rem == half && q & 1 == 1) {
        q + 1
    } else {
        q
    }
}

/// Converts IEEE 754 binary16 bits to the exactly-representable `f32`.
#[must_use]
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let exp = u32::from(h >> 10) & 0x1F;
    let man = u32::from(h & 0x03FF);
    let bits = if exp == 0 {
        if man == 0 {
            sign // ±0
        } else {
            // Subnormal: normalize into the f32 exponent range.
            let mut e: u32 = 113;
            let mut m = man;
            while m & 0x0400 == 0 {
                m <<= 1;
                e -= 1;
            }
            sign | (e << 23) | ((m & 0x03FF) << 13)
        }
    } else if exp == 31 {
        sign | 0x7F80_0000 | (man << 13) // ±inf / NaN
    } else {
        sign | ((exp + 112) << 23) | (man << 13)
    };
    f32::from_bits(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_ids_round_trip() {
        for codec in [Codec::F32, Codec::F16, Codec::QuantU8] {
            assert_eq!(Codec::from_id(codec.id()).unwrap(), codec);
        }
        assert_eq!(Codec::from_id(3), Err(WireError::BadCodec(3)));
    }

    #[test]
    fn value_section_lengths() {
        assert_eq!(Codec::F32.value_section_len(10), 40);
        assert_eq!(Codec::F16.value_section_len(10), 20);
        assert_eq!(Codec::QuantU8.value_section_len(0), 0);
        assert_eq!(Codec::QuantU8.value_section_len(1), 5);
        assert_eq!(Codec::QuantU8.value_section_len(64), 68);
        assert_eq!(Codec::QuantU8.value_section_len(65), 73);
    }

    #[test]
    fn f32_round_trip_is_bit_exact() {
        let values = [0.0f32, -0.0, 1.5, -3.25e-12, f32::MAX, f32::MIN_POSITIVE];
        let mut buf = Vec::new();
        let n = encode_values(&mut buf, Codec::F32, Rounding::Nearest, &values);
        assert_eq!(n, 24);
        let mut back = Vec::new();
        ValueView::new(Codec::F32, &buf, values.len()).extend_into(&mut back);
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn f16_known_vectors() {
        assert_eq!(f32_to_f16_bits(1.0), 0x3C00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xC000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7BFF); // f16 max
        assert_eq!(f32_to_f16_bits(65520.0), 0x7C00); // rounds to inf
        assert_eq!(f32_to_f16_bits(2.0f32.powi(-24)), 0x0001); // min subnormal
        assert_eq!(f32_to_f16_bits(2.0f32.powi(-25)), 0x0000); // ties to even 0
        assert_eq!(f32_to_f16_bits(1.5 * 2.0f32.powi(-25)), 0x0001);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f16_bits_to_f32(0x3C00), 1.0);
        assert_eq!(f16_bits_to_f32(0x0001), 2.0f32.powi(-24));
        assert!(f16_bits_to_f32(0x7C00).is_infinite());
        assert!(f16_bits_to_f32(0x7C01).is_nan());
    }

    /// Every non-NaN f16 bit pattern converts to f32 and back unchanged
    /// (f16 values are exactly representable in f32, and RNE of an exact
    /// value is the identity).
    #[test]
    fn f16_exhaustive_round_trip() {
        for h in 0..=u16::MAX {
            let f = f16_bits_to_f32(h);
            if f.is_nan() {
                assert!(f16_bits_to_f32(f32_to_f16_bits(f)).is_nan());
                continue;
            }
            assert_eq!(f32_to_f16_bits(f), h, "pattern {h:#06x}");
        }
    }

    #[test]
    fn f16_error_bounded_in_normal_range() {
        let mut state = 7u64;
        for _ in 0..10_000 {
            state = splitmix64(state);
            // Uniform in [-8, 8): comfortably inside the f16 normal range.
            let v = ((state >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 16.0;
            let back = f16_bits_to_f32(f32_to_f16_bits(v));
            let tol = v.abs().max(f16_bits_to_f32(0x0400)) * 2.0f32.powi(-11);
            assert!(
                (v - back).abs() <= tol,
                "f16 error too large for {v}: {back}"
            );
        }
    }

    #[test]
    fn quant_nearest_error_within_half_scale() {
        let mut state = 99u64;
        let values: Vec<f32> = (0..1000)
            .map(|_| {
                state = splitmix64(state);
                ((state >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 2.0
            })
            .collect();
        let mut buf = Vec::new();
        encode_values(&mut buf, Codec::QuantU8, Rounding::Nearest, &values);
        let mut back = Vec::new();
        ValueView::new(Codec::QuantU8, &buf, values.len()).extend_into(&mut back);
        for (block, decoded) in values.chunks(QUANT_BLOCK).zip(back.chunks(QUANT_BLOCK)) {
            let scale = block.iter().fold(0.0f32, |m, v| m.max(v.abs())) / 127.0;
            for (v, d) in block.iter().zip(decoded) {
                // scale/2 plus a whisker of float slack for the two
                // divisions/multiplications around the integer level.
                assert!(
                    (v - d).abs() <= scale * 0.500_001,
                    "|{v} - {d}| > scale/2 = {}",
                    scale / 2.0
                );
            }
        }
    }

    #[test]
    fn quant_stochastic_error_below_scale_and_deterministic() {
        let mut state = 31u64;
        let values: Vec<f32> = (0..500)
            .map(|_| {
                state = splitmix64(state);
                ((state >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 6.0
            })
            .collect();
        let rounding = Rounding::Stochastic { seed: 0xDEAD };
        let mut a = Vec::new();
        encode_values(&mut a, Codec::QuantU8, rounding, &values);
        let mut b = Vec::new();
        encode_values(&mut b, Codec::QuantU8, rounding, &values);
        assert_eq!(a, b, "stochastic rounding must be deterministic in seed");
        let mut other = Vec::new();
        encode_values(
            &mut other,
            Codec::QuantU8,
            Rounding::Stochastic { seed: 0xBEEF },
            &values,
        );
        assert_ne!(a, other, "different seeds should round differently");
        let mut back = Vec::new();
        ValueView::new(Codec::QuantU8, &a, values.len()).extend_into(&mut back);
        for (block, decoded) in values.chunks(QUANT_BLOCK).zip(back.chunks(QUANT_BLOCK)) {
            let scale = block.iter().fold(0.0f32, |m, v| m.max(v.abs())) / 127.0;
            for (v, d) in block.iter().zip(decoded) {
                assert!((v - d).abs() < scale * 1.000_001, "|{v} - {d}| ≥ scale");
            }
        }
    }

    #[test]
    fn quant_all_zero_block_encodes_and_decodes_to_zero() {
        let values = vec![0.0f32; 70];
        let mut buf = Vec::new();
        encode_values(&mut buf, Codec::QuantU8, Rounding::Nearest, &values);
        let mut back = Vec::new();
        ValueView::new(Codec::QuantU8, &buf, values.len()).extend_into(&mut back);
        assert!(back.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn quant_stochastic_is_unbiased_on_average() {
        // Each block gets one 1.27 anchor (scale = 0.01) and 63 copies of
        // 0.005 — exactly halfway between levels 0 and 1, so stochastic
        // rounding must go up about half the time and the decoded mean of
        // the off-grid values must stay near 0.005.
        let blocks = 200;
        let mut vals = Vec::with_capacity(blocks * QUANT_BLOCK);
        for _ in 0..blocks {
            vals.push(1.27f32);
            vals.extend(std::iter::repeat_n(0.005f32, QUANT_BLOCK - 1));
        }
        let mut buf = Vec::new();
        encode_values(
            &mut buf,
            Codec::QuantU8,
            Rounding::Stochastic { seed: 12345 },
            &vals,
        );
        let mut back = Vec::new();
        ValueView::new(Codec::QuantU8, &buf, vals.len()).extend_into(&mut back);
        let (mut sum, mut count) = (0.0f64, 0usize);
        for (i, &v) in back.iter().enumerate() {
            if i % QUANT_BLOCK != 0 {
                sum += f64::from(v);
                count += 1;
            }
        }
        let mean = sum / count as f64;
        assert!(
            (mean - 0.005).abs() < 5e-4,
            "stochastic rounding biased: mean {mean}"
        );
    }
}
