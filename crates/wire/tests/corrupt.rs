//! Corrupt-input decode suite: every malformation class must produce a
//! *typed* [`WireError`] — never a panic, never a silent mis-decode.
//!
//! Structural corruptions (bad nnz, out-of-range indices, set padding
//! bits, …) are re-stamped with a valid checksum so the structural check
//! itself is exercised rather than the CRC.

use gluefl_tensor::BitMask;
use gluefl_wire::crc::{crc16, crc16_update};
use gluefl_wire::{
    decode_frame, decode_frame_prefix, Codec, FrameKind, FrameWriter, Rounding, WireError,
    WirePolicy, HEADER_BYTES, MAGIC, VERSION_ENTROPY,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Writer producing the v1 (legacy-layout) frames these corruption
/// suites poke at byte-by-byte.
fn legacy(codec: Codec) -> FrameWriter {
    FrameWriter::new(WirePolicy::legacy(codec))
}

/// Recomputes a (single-frame) buffer's checksum after a deliberate
/// structural mutation.
fn restamp(buf: &mut [u8]) {
    let crc = crc16_update(crc16(&buf[..14]), &buf[HEADER_BYTES..]);
    buf[14..16].copy_from_slice(&crc.to_le_bytes());
}

fn sample_sparse_index() -> Vec<u8> {
    // 4 of 1000 coordinates → index-list positions.
    let mut buf = Vec::new();
    let _ = legacy(Codec::F32).sparse(
        &mut buf,
        5,
        Rounding::Nearest,
        1000,
        &[10, 20, 300, 999],
        &[1.0, -2.0, 3.0, -4.0],
    );
    buf
}

fn sample_sparse_bitmap() -> Vec<u8> {
    // 60 of 100 coordinates → bitmap positions.
    let indices: Vec<u32> = (0..60).map(|i| i + (i / 3)).collect();
    let values: Vec<f32> = indices.iter().map(|&i| i as f32).collect();
    let mut buf = Vec::new();
    let _ = legacy(Codec::F32).sparse(&mut buf, 5, Rounding::Nearest, 100, &indices, &values);
    buf
}

fn sample_sparse_delta() -> Vec<u8> {
    // Irregular gaps (one spanning a multi-byte varint) over a huge dim:
    // the delta layout wins by orders of magnitude.
    let indices = [7u32, 9, 40, 400, 90_000];
    let values = [1.0f32, -2.0, 3.0, -4.0, 5.0];
    let mut buf = Vec::new();
    let _ = FrameWriter::new(WirePolicy::entropy(Codec::F32)).sparse(
        &mut buf,
        5,
        Rounding::Nearest,
        100_000,
        &indices,
        &values,
    );
    assert_eq!(decode_frame(&buf).unwrap().kind, FrameKind::SparseDelta);
    buf
}

fn sample_mask_rle() -> Vec<u8> {
    // Blocky mask (64-wide runs every 512): a handful of varint run
    // pairs against a 500-byte bitmap.
    let mask = BitMask::from_indices(4000, (0..4000).filter(|i| i % 512 < 64));
    let mut buf = Vec::new();
    let _ = FrameWriter::new(WirePolicy::entropy(Codec::F32)).mask(&mut buf, 5, &mask);
    assert_eq!(decode_frame(&buf).unwrap().kind, FrameKind::MaskRle);
    buf
}

/// A dense F32 frame of ≥ 16 KB: far past the CRC fold's cut-over, so
/// its checksum runs through the fold rather than the short-input table.
fn large_dense() -> Vec<u8> {
    let values: Vec<f32> = (0..4100u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 8) as f32 - 8.0e6)
        .collect();
    let mut buf = Vec::new();
    let _ = legacy(Codec::F32).dense(&mut buf, 5, Rounding::Nearest, &values);
    assert!(buf.len() >= 16 << 10);
    buf
}

/// A ≥ 16 KB `SparseDelta` frame: 3 600 irregular gaps (one- to
/// three-byte varints) ahead of a 14 KB value section.
fn large_sparse_delta() -> (Vec<u8>, usize) {
    let mut next = 0u32;
    let indices: Vec<u32> = (0..3600u32)
        .map(|j| {
            let gap = match j % 7 {
                0 => 20_000 + j,
                1 | 2 => 200 + j % 50,
                _ => j % 5,
            };
            next += gap + 1;
            next - 1
        })
        .collect();
    let values: Vec<f32> = indices.iter().map(|&i| i as f32 * 0.5 - 1.0e4).collect();
    let mut buf = Vec::new();
    let _ = FrameWriter::new(WirePolicy::entropy(Codec::F32)).sparse(
        &mut buf,
        5,
        Rounding::Nearest,
        16_000_000,
        &indices,
        &values,
    );
    assert_eq!(decode_frame(&buf).unwrap().kind, FrameKind::SparseDelta);
    assert!(buf.len() >= 16 << 10);
    let values_start = buf.len() - 4 * values.len();
    (buf, values_start)
}

/// A handcrafted v2 frame: 16-byte header for `kind_id` (codec F32)
/// followed by `payload`, checksum stamped valid — the harness for
/// structural corruptions inside entropy position sections.
fn v2_frame(kind_id: u8, dim: u32, nnz: u32, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.push(MAGIC);
    buf.push((VERSION_ENTROPY << 6) | ((kind_id & 0x07) << 3) | (kind_id >> 3));
    buf.extend_from_slice(&5u32.to_le_bytes());
    buf.extend_from_slice(&dim.to_le_bytes());
    buf.extend_from_slice(&nnz.to_le_bytes());
    buf.extend_from_slice(&[0, 0]);
    buf.extend_from_slice(payload);
    restamp(&mut buf);
    buf
}

#[test]
fn truncation_at_every_length_is_a_typed_error() {
    for buf in [
        sample_sparse_index(),
        sample_sparse_bitmap(),
        sample_sparse_delta(),
        sample_mask_rle(),
        {
            let mut b = Vec::new();
            let _ = legacy(Codec::QuantU8).dense(&mut b, 0, Rounding::Nearest, &[1.0; 100]);
            b
        },
        large_dense(),
        large_sparse_delta().0,
    ] {
        for cut in 0..buf.len() {
            match decode_frame(&buf[..cut]) {
                Err(WireError::Truncated { needed, got }) => {
                    assert!(got < needed, "cut={cut}");
                }
                Err(other) => panic!("cut={cut}: expected Truncated, got {other:?}"),
                Ok(_) => panic!("cut={cut}: truncated frame decoded"),
            }
        }
        assert!(decode_frame(&buf).is_ok());
    }
}

#[test]
fn flipped_checksum_bytes_are_rejected() {
    let buf = sample_sparse_index();
    for byte in 14..16 {
        for bit in 0..8 {
            let mut bad = buf.clone();
            bad[byte] ^= 1 << bit;
            assert!(
                matches!(decode_frame(&bad), Err(WireError::ChecksumMismatch { .. })),
                "flip of checksum byte {byte} bit {bit} undetected"
            );
        }
    }
}

#[test]
fn any_single_payload_bit_flip_is_detected() {
    let buf = sample_sparse_bitmap();
    for i in HEADER_BYTES * 8..buf.len() * 8 {
        let mut bad = buf.clone();
        bad[i / 8] ^= 1 << (i % 8);
        assert!(
            decode_frame(&bad).is_err(),
            "payload bit {i} flip undetected"
        );
    }
}

/// Every payload bit of a folded-size frame: a flip anywhere behind
/// the position scan is exactly a checksum mismatch; a flip inside a
/// varint section may trip the structural scan first, and must still be
/// an error.
#[test]
fn every_payload_bit_flip_on_folded_frames_is_detected() {
    let (delta, delta_values_start) = large_sparse_delta();
    for (mut buf, checksummed_from) in [(large_dense(), HEADER_BYTES), (delta, delta_values_start)]
    {
        for i in HEADER_BYTES * 8..buf.len() * 8 {
            buf[i / 8] ^= 1 << (i % 8);
            let verdict = decode_frame(&buf);
            if i / 8 >= checksummed_from {
                assert!(
                    matches!(verdict, Err(WireError::ChecksumMismatch { .. })),
                    "payload bit {i}: {verdict:?}"
                );
            } else {
                assert!(verdict.is_err(), "position bit {i} flip undetected");
            }
            buf[i / 8] ^= 1 << (i % 8);
        }
        assert!(decode_frame(&buf).is_ok());
    }
}

/// A 16-bit CRC detects every error burst of up to 16 bits: at each
/// payload bit of a folded-size frame, one burst of random length 2–16
/// (both end bits flipped, random interior, wire bit order).
#[test]
fn every_short_burst_on_folded_frames_is_detected() {
    let mut rng = StdRng::seed_from_u64(0xB0057);
    for mut buf in [large_dense(), large_sparse_delta().0] {
        let bits = buf.len() * 8;
        for start in HEADER_BYTES * 8..bits - 16 {
            let len = rng.gen_range(2usize..=16);
            let pattern = rng.gen_range(0u32..1 << 16) | 1 | 1 << (len - 1);
            let flip = |buf: &mut [u8]| {
                for k in (0..len).filter(|k| pattern >> k & 1 == 1) {
                    buf[(start + k) / 8] ^= 0x80 >> ((start + k) % 8);
                }
            };
            flip(&mut buf);
            assert!(
                decode_frame(&buf).is_err(),
                "burst of {len} bits at bit {start} undetected"
            );
            flip(&mut buf);
        }
        assert!(decode_frame(&buf).is_ok());
    }
}

#[test]
fn bad_magic_is_typed() {
    let mut bad = sample_sparse_index();
    bad[0] = 0x00;
    assert_eq!(decode_frame(&bad).unwrap_err(), WireError::BadMagic(0x00));
}

#[test]
fn bad_version_and_reserved_bit_are_typed() {
    // Version field 2 instead of 1.
    let mut bad = sample_sparse_index();
    bad[1] = (bad[1] & 0x3F) | (2 << 6);
    assert!(matches!(decode_frame(&bad), Err(WireError::BadVersion(_))));
    // Reserved low bit set.
    let mut bad = sample_sparse_index();
    bad[1] |= 1;
    assert!(matches!(decode_frame(&bad), Err(WireError::BadVersion(_))));
}

#[test]
fn bad_kind_and_codec_are_typed() {
    // Kind 7 is unassigned.
    let mut bad = sample_sparse_index();
    bad[1] = (bad[1] & !(0x07 << 3)) | (7 << 3);
    restamp(&mut bad);
    assert_eq!(decode_frame(&bad).unwrap_err(), WireError::BadKind(7));
    // Codec 3 is unassigned.
    let mut bad = sample_sparse_index();
    bad[1] = (bad[1] & !(0x03 << 1)) | (3 << 1);
    restamp(&mut bad);
    assert_eq!(decode_frame(&bad).unwrap_err(), WireError::BadCodec(3));
    // Mask frames are codec-free: a declared F16 codec is non-canonical.
    let mut mask_buf = Vec::new();
    let _ = legacy(Codec::F32).mask(&mut mask_buf, 0, &BitMask::from_indices(40, [1usize, 7]));
    mask_buf[1] = (mask_buf[1] & !(0x03 << 1)) | (Codec::F16.id() << 1);
    restamp(&mut mask_buf);
    assert_eq!(decode_frame(&mask_buf).unwrap_err(), WireError::BadCodec(1));
}

#[test]
fn nnz_dim_mismatches_are_typed() {
    // nnz > dim in the header (valid checksum): structural error.
    let mut bad = sample_sparse_index();
    bad[10..14].copy_from_slice(&2000u32.to_le_bytes());
    restamp(&mut bad);
    assert_eq!(
        decode_frame(&bad).unwrap_err(),
        WireError::NnzExceedsDim {
            nnz: 2000,
            dim: 1000
        }
    );
    // Dense frame whose nnz disagrees with dim.
    let mut dense = Vec::new();
    let _ = legacy(Codec::F32).dense(&mut dense, 0, Rounding::Nearest, &[1.0; 10]);
    dense[10..14].copy_from_slice(&9u32.to_le_bytes());
    restamp(&mut dense);
    assert_eq!(
        decode_frame(&dense).unwrap_err(),
        WireError::NnzMismatch {
            declared: 9,
            actual: 10
        }
    );
    // Bitmap popcount that disagrees with the declared nnz: flip a clear
    // bitmap bit (not a padding bit) and restamp.
    let mut bm = sample_sparse_bitmap();
    let bitmap_start = HEADER_BYTES;
    // Position 2 is absent from `indices` (0,1,2→0,1,2? indices are
    // i + i/3: 0,1,2,4,5,6,8,… — position 3 is absent).
    bm[bitmap_start] |= 1 << 3;
    restamp(&mut bm);
    assert_eq!(
        decode_frame(&bm).unwrap_err(),
        WireError::NnzMismatch {
            declared: 60,
            actual: 61
        }
    );
}

#[test]
fn bitmap_padding_bits_must_be_zero() {
    // dim = 100 → 13 bitmap bytes, 4 padding bits in the last byte.
    let mut bm = sample_sparse_bitmap();
    let last_bitmap_byte = HEADER_BYTES + 100usize.div_ceil(8) - 1;
    bm[last_bitmap_byte] |= 1 << 6; // bit 102 > dim
    restamp(&mut bm);
    assert_eq!(decode_frame(&bm).unwrap_err(), WireError::NonZeroPadding);
}

#[test]
fn out_of_range_and_unsorted_indices_are_typed() {
    // Overwrite the last index (999) with 1000 == dim.
    let mut bad = sample_sparse_index();
    let idx_start = HEADER_BYTES + 3 * 4;
    bad[idx_start..idx_start + 4].copy_from_slice(&1000u32.to_le_bytes());
    restamp(&mut bad);
    assert_eq!(
        decode_frame(&bad).unwrap_err(),
        WireError::IndexOutOfRange {
            index: 1000,
            dim: 1000
        }
    );
    // Swap the first two indices: 20, 10, …
    let mut bad = sample_sparse_index();
    let a = HEADER_BYTES;
    bad[a..a + 4].copy_from_slice(&20u32.to_le_bytes());
    bad[a + 4..a + 8].copy_from_slice(&10u32.to_le_bytes());
    restamp(&mut bad);
    assert_eq!(
        decode_frame(&bad).unwrap_err(),
        WireError::IndicesNotIncreasing { position: 1 }
    );
    // Duplicate indices are also "not strictly increasing".
    let mut bad = sample_sparse_index();
    bad[a + 4..a + 8].copy_from_slice(&10u32.to_le_bytes());
    restamp(&mut bad);
    assert_eq!(
        decode_frame(&bad).unwrap_err(),
        WireError::IndicesNotIncreasing { position: 1 }
    );
}

/// Every value has exactly one canonical LEB128 encoding; padded or
/// over-length varints in an entropy position section are typed, with
/// the offending byte offset.
#[test]
fn overlong_varints_are_typed() {
    // Expand the real frame's first (single-byte) delta varint into a
    // padded two-byte encoding of the same value.
    let mut bad = sample_sparse_delta();
    bad[HEADER_BYTES] = 0x87; // 7, with a continuation bit…
    bad.insert(HEADER_BYTES + 1, 0x00); // …and a zero tail
    restamp(&mut bad);
    assert_eq!(
        decode_frame(&bad).unwrap_err(),
        WireError::OverlongVarint {
            offset: HEADER_BYTES
        }
    );
    // A varint that never terminates within the 5-byte cap.
    let mut bad = sample_sparse_delta();
    bad.splice(HEADER_BYTES..=HEADER_BYTES, [0xFF; 5]);
    restamp(&mut bad);
    assert_eq!(
        decode_frame(&bad).unwrap_err(),
        WireError::OverlongVarint {
            offset: HEADER_BYTES
        }
    );
    // The same canonicality check guards run-length sections.
    let bad = v2_frame(8, 64, 3, &[0x82, 0x00]);
    assert_eq!(
        decode_frame(&bad).unwrap_err(),
        WireError::OverlongVarint {
            offset: HEADER_BYTES
        }
    );
}

/// Run-length sections admit only positive runs (every ones-run, and
/// every zeros-run after the first); zero-length runs are typed with
/// their byte offset.
#[test]
fn zero_length_runs_are_typed() {
    // A zero-length ones-run in the first pair.
    assert_eq!(
        decode_frame(&v2_frame(8, 64, 3, &[2, 0])).unwrap_err(),
        WireError::ZeroRun {
            offset: HEADER_BYTES + 1
        }
    );
    // A zero-length zeros-run after the first pair (two adjacent
    // ones-runs should have been one).
    assert_eq!(
        decode_frame(&v2_frame(8, 64, 5, &[2, 3, 0, 2])).unwrap_err(),
        WireError::ZeroRun {
            offset: HEADER_BYTES + 2
        }
    );
    // A *leading* zeros-run of zero is canonical — the mask starts at
    // position 0.
    let ok = v2_frame(8, 64, 4, &[0, 4]);
    let frame = decode_frame(&ok).unwrap();
    assert_eq!(frame.kind, FrameKind::MaskRle);
    let mut mask = BitMask::zeros(64);
    frame.mask_into(&mut mask);
    assert_eq!(mask.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    // The same scanner guards the sparse RLE kind.
    assert_eq!(
        decode_frame(&v2_frame(9, 64, 3, &[2, 0])).unwrap_err(),
        WireError::ZeroRun {
            offset: HEADER_BYTES + 1
        }
    );
}

#[test]
fn ternary_sign_padding_must_be_zero() {
    let mut buf = Vec::new();
    let _ = legacy(Codec::F32).ternary(&mut buf, 0, 500, 0.25, &[1, 2, 3], &[true, false, true]);
    // Sign byte is the last payload byte (3 signs → 5 padding bits).
    let last = buf.len() - 1;
    buf[last] |= 1 << 5;
    restamp(&mut buf);
    assert_eq!(decode_frame(&buf).unwrap_err(), WireError::NonZeroPadding);
}

#[test]
fn trailing_bytes_are_typed_but_prefix_decoding_streams() {
    let mut buf = sample_sparse_index();
    buf.extend_from_slice(&[0xAB, 0xCD, 0xEF]);
    assert_eq!(
        decode_frame(&buf).unwrap_err(),
        WireError::TrailingBytes { extra: 3 }
    );
    let (frame, rest) = decode_frame_prefix(&buf).unwrap();
    assert_eq!(frame.nnz, 4);
    assert_eq!(rest, &[0xAB, 0xCD, 0xEF]);
}

#[test]
fn known_mask_nnz_is_bounded_by_dim() {
    let mut buf = Vec::new();
    let _ = legacy(Codec::F32).known_mask(&mut buf, 0, Rounding::Nearest, 8, &[1.0; 8]);
    buf[10..14].copy_from_slice(&9u32.to_le_bytes());
    restamp(&mut buf);
    assert_eq!(
        decode_frame(&buf).unwrap_err(),
        WireError::NnzExceedsDim { nnz: 9, dim: 8 }
    );
}

/// Random buffers and random mutations of valid frames (v1 and the v2
/// entropy layouts alike) must always return (not panic), whatever the
/// verdict — ≥4096 mutation cases plus 2048 raw-noise buffers.
#[test]
fn decode_fuzz_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for _ in 0..2048 {
        let len = rng.gen_range(0..200);
        let buf: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=u8::MAX)).collect();
        let _ = decode_frame(&buf);
    }
    let templates = [
        sample_sparse_index(),
        sample_sparse_bitmap(),
        sample_sparse_delta(),
        sample_mask_rle(),
        large_dense(),
        large_sparse_delta().0,
    ];
    for _ in 0..4096 {
        let mut buf = templates[rng.gen_range(0..templates.len())].clone();
        for _ in 0..rng.gen_range(1..6) {
            let i = rng.gen_range(0..buf.len());
            buf[i] = rng.gen_range(0u8..=u8::MAX);
        }
        if rng.gen::<bool>() {
            restamp(&mut buf);
        }
        if let Ok(frame) = decode_frame(&buf) {
            // A surviving frame must still be internally consistent
            // enough for the accessors not to misbehave.
            let mut vals = Vec::new();
            frame.values_into(&mut vals);
            assert!(vals.len() <= frame.dim);
        }
    }
}
