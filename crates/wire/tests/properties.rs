//! Property tests pinning the codec to its length laws and to its
//! round-trip guarantees:
//!
//! * **F32 length parity** — for every frame kind, the encoded v1 frame
//!   length equals a closed form written out below ([`closed_form`], the
//!   suite's independent reference) and the count-based predictors the
//!   byte ledger is priced with, across adversarial `dim`/`nnz`
//!   combinations;
//! * **F32 bit-exactness** — encode → decode reproduces indices and value
//!   bits exactly;
//! * **F16 / QuantU8 bounded error** — decoded values stay within the
//!   codec's documented error envelope (relative 2⁻¹¹ for F16; `scale/2`
//!   nearest / `scale` stochastic per quantization block);
//! * **Entropy length parity** — under `WirePolicy::entropy` the encoded
//!   frame length equals the `FrameWriter` predictor exactly, the chosen
//!   position section equals its analytic cost
//!   ([`delta_section_len`] / [`rle_section_len`]), never exceeds the
//!   legacy layout, and the round trip stays bit-exact;
//! * **In-place fold** — folding a verified dense frame's values straight
//!   from its bytes equals copying them out and running `vecops::axpy`,
//!   bit for bit, and a dense frame written chunk by chunk is the
//!   one-pass encoding byte for byte.

use gluefl_tensor::rng::splitmix64;
use gluefl_tensor::{vecops, BitMask};
use gluefl_wire::crc::crc16_bitwise;
use gluefl_wire::{
    decode_frame, delta_section_len, legacy_mask_len, legacy_sparse_len, rle_section_len,
    rle_section_len_from_indices, Codec, FrameKind, FrameWriter, Rounding, WirePolicy, QUANT_BLOCK,
};
use proptest::prelude::*;

const HEADER_BYTES: u64 = 16;

/// Length of a v1 F32 frame carrying `nnz` values of a `dim`-vector with
/// explicit positions: header, the cheaper of bitmap and `u32` index
/// list, four bytes a value. The reference every length law below is
/// held to — arithmetic only, nothing from the crate under test.
fn closed_form(dim: usize, nnz: usize) -> u64 {
    (16 + dim.div_ceil(8).min(4 * nnz) + 4 * nnz) as u64
}

/// Writer producing the v1 (legacy-layout) frames the analytic length
/// laws are stated over.
fn legacy(codec: Codec) -> FrameWriter {
    FrameWriter::new(WirePolicy::legacy(codec))
}

/// Sorted unique indices: a subset of `0..dim` drawn from per-position
/// coin flips, so nnz spans empty → full.
fn sparse_case(dim: usize, ones: &[bool]) -> (Vec<u32>, Vec<f32>) {
    let indices: Vec<u32> = (0..dim)
        .filter(|&i| ones[i % ones.len().max(1)] || i % 97 == 3)
        .map(|i| u32::try_from(i).unwrap())
        .collect();
    let values: Vec<f32> = indices.iter().map(|&i| (i as f32 * 0.37).sin()).collect();
    (indices, values)
}

proptest! {
    /// Dense F32 frames cost exactly header + four bytes a value.
    #[test]
    fn dense_f32_length_matches_analytic(dim in 0usize..3000) {
        let values: Vec<f32> = (0..dim).map(|i| i as f32 - 7.5).collect();
        let mut buf = Vec::new();
        let n = legacy(Codec::F32).dense(&mut buf, 1, Rounding::Nearest, &values);
        prop_assert_eq!(n as u64, HEADER_BYTES + 4 * dim as u64);
        prop_assert_eq!(n as u64, legacy(Codec::F32).dense_len(dim));
        prop_assert_eq!(n, buf.len());
    }

    /// Sparse F32 frames cost exactly the closed form — including the
    /// bitmap/index-list tie-break — which is also what both predictors
    /// (by indices, by count) say; known-mask frames cost header + values.
    #[test]
    fn sparse_f32_length_matches_analytic(
        dim in 1usize..4000,
        ones in proptest::collection::vec(any::<bool>(), 1..64),
    ) {
        let (indices, values) = sparse_case(dim, &ones);
        let nnz = indices.len();
        let mut buf = Vec::new();
        let n = legacy(Codec::F32).sparse(&mut buf, 0, Rounding::Nearest, dim, &indices, &values);
        prop_assert_eq!(n as u64, closed_form(dim, nnz), "dim={} nnz={}", dim, nnz);
        prop_assert_eq!(n as u64, legacy(Codec::F32).sparse_len(dim, &indices));
        prop_assert_eq!(n as u64, legacy_sparse_len(Codec::F32, dim, nnz));

        let mut kbuf = Vec::new();
        let k = legacy(Codec::F32).known_mask(&mut kbuf, 0, Rounding::Nearest, dim, &values);
        prop_assert_eq!(k as u64, HEADER_BYTES + 4 * nnz as u64);
        prop_assert_eq!(k as u64, legacy(Codec::F32).known_mask_len(nnz));
    }

    /// The count-based price the byte ledger uses: value bytes are exact
    /// and position bytes are the cheaper of bitmap and index list, for
    /// every count — under every codec the positions cost the same.
    #[test]
    fn wire_cost_bounds(dim in 1usize..10_000, frac in 0.0f64..1.0) {
        let nnz = ((dim as f64) * frac) as usize;
        prop_assert_eq!(legacy_sparse_len(Codec::F32, dim, nnz), closed_form(dim, nnz));
        let positions = (dim as u64).div_ceil(8).min(4 * nnz as u64);
        prop_assert_eq!(
            legacy_sparse_len(Codec::F16, dim, nnz),
            HEADER_BYTES + positions + 2 * nnz as u64
        );
    }

    /// Mask broadcast frames cost exactly the analytic per-sync bitmap
    /// bytes: `ceil(dim/8) + HEADER_BYTES`.
    #[test]
    fn mask_length_matches_analytic(dim in 1usize..4000, stride in 1usize..50) {
        let mask = BitMask::from_indices(dim, (0..dim).step_by(stride));
        let mut buf = Vec::new();
        let n = legacy(Codec::F32).mask(&mut buf, 0, &mask);
        prop_assert_eq!(n as u64, (dim as u64).div_ceil(8) + HEADER_BYTES);
        prop_assert_eq!(n as u64, legacy_mask_len(dim));
    }

    /// Ternary frames cost exactly the closed form with the values
    /// swapped for one sign bit each plus one µ.
    #[test]
    fn ternary_length_matches_analytic(
        dim in 1usize..4000,
        ones in proptest::collection::vec(any::<bool>(), 1..64),
    ) {
        let (indices, _) = sparse_case(dim, &ones);
        let nnz = indices.len();
        let signs: Vec<bool> = (0..nnz).map(|j| j % 2 == 0).collect();
        let mut buf = Vec::new();
        let n = legacy(Codec::F32).ternary(&mut buf, 0, dim, 0.5, &indices, &signs);
        let reference = closed_form(dim, nnz) - 4 * nnz as u64 + 4 + (nnz as u64).div_ceil(8);
        prop_assert_eq!(n as u64, reference);
        prop_assert_eq!(n as u64, legacy(Codec::F32).ternary_len(dim, &indices));
    }

    /// The count predictors are the index predictors wherever positions
    /// are priced by count: under every legacy policy, a sparse or
    /// ternary frame over any index set costs what its count says. The
    /// entropy menu prices the pattern, and its count price — the legacy
    /// layout's — bounds every frame it writes.
    #[test]
    fn count_predictors_match_the_index_predictors(
        dim in 1usize..4000,
        ones in proptest::collection::vec(any::<bool>(), 1..64),
    ) {
        let (indices, _) = sparse_case(dim, &ones);
        let nnz = indices.len();
        for codec in [Codec::F32, Codec::F16, Codec::QuantU8] {
            let w = legacy(codec);
            prop_assert_eq!(w.sparse_len_of_count(dim, nnz), w.sparse_len(dim, &indices));
            prop_assert_eq!(w.ternary_len_of_count(dim, nnz), w.ternary_len(dim, &indices));
            let entropy = FrameWriter::new(WirePolicy::entropy(codec));
            prop_assert_eq!(entropy.sparse_len_of_count(dim, nnz), w.sparse_len_of_count(dim, nnz));
            prop_assert_eq!(entropy.ternary_len_of_count(dim, nnz), w.ternary_len_of_count(dim, nnz));
            prop_assert!(entropy.sparse_len(dim, &indices) <= entropy.sparse_len_of_count(dim, nnz));
            prop_assert!(entropy.ternary_len(dim, &indices) <= entropy.ternary_len_of_count(dim, nnz));
        }
    }

    /// Ternary quantization never increases the frame: one sign bit per
    /// value plus µ against four bytes per value, same positions.
    #[test]
    fn ternary_never_costs_more(
        dim in 1usize..4000,
        ones in proptest::collection::vec(any::<bool>(), 1..64),
    ) {
        let (indices, _) = sparse_case(dim, &ones);
        for policy in [WirePolicy::legacy(Codec::F32), WirePolicy::entropy(Codec::F32)] {
            let w = FrameWriter::new(policy);
            prop_assert!(w.ternary_len(dim, &indices) <= w.sparse_len(dim, &indices) + 4);
        }
    }

    /// F32 sparse round trip is bit-exact in both indices and values.
    #[test]
    fn sparse_f32_round_trip_bit_exact(
        dim in 1usize..4000,
        ones in proptest::collection::vec(any::<bool>(), 1..64),
    ) {
        let (indices, values) = sparse_case(dim, &ones);
        let mut buf = Vec::new();
        let _ = legacy(Codec::F32).sparse(&mut buf, 3, Rounding::Nearest, dim, &indices, &values);
        let frame = decode_frame(&buf).unwrap();
        prop_assert_eq!(frame.round, 3);
        prop_assert_eq!(frame.dim, dim);
        let (mut ix, mut vals) = (Vec::new(), Vec::new());
        frame.indices_into(&mut ix);
        frame.values_into(&mut vals);
        prop_assert_eq!(ix, indices);
        prop_assert_eq!(vals.len(), values.len());
        prop_assert!(vals.iter().zip(&values).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    /// Dense F16 round trip keeps every value within the half-precision
    /// error envelope; QuantU8 stays within scale/2 (nearest) resp. scale
    /// (stochastic) per block.
    #[test]
    fn lossy_codecs_bounded_error(dim in 1usize..2000, seed in any::<u64>()) {
        let values: Vec<f32> = (0..dim)
            .map(|i| ((i as f32 + 1.0) * 0.61).sin() * 3.0)
            .collect();
        // F16.
        let mut hbuf = Vec::new();
        let _ = legacy(Codec::F16).dense(&mut hbuf, 0, Rounding::Nearest, &values);
        let mut back = Vec::new();
        decode_frame(&hbuf).unwrap().values_into(&mut back);
        let min_normal = 2.0f32.powi(-14); // smallest normal f16
        for (v, d) in values.iter().zip(&back) {
            let tol = v.abs().max(min_normal) * 2.0f32.powi(-11) * 1.000_001;
            prop_assert!((v - d).abs() <= tol, "f16 |{} - {}| > {}", v, d, tol);
        }
        // QuantU8, both rounding modes.
        for (rounding, bound) in [
            (Rounding::Nearest, 0.5f32),
            (Rounding::Stochastic { seed }, 1.0f32),
        ] {
            let mut qbuf = Vec::new();
            let _ = legacy(Codec::QuantU8).dense(&mut qbuf, 0, rounding, &values);
            let mut back = Vec::new();
            decode_frame(&qbuf).unwrap().values_into(&mut back);
            for (block, decoded) in values.chunks(QUANT_BLOCK).zip(back.chunks(QUANT_BLOCK)) {
                let scale = block.iter().fold(0.0f32, |m, v| m.max(v.abs())) / 127.0;
                for (v, d) in block.iter().zip(decoded) {
                    prop_assert!(
                        (v - d).abs() <= scale * (bound + 1e-5),
                        "quant |{} - {}| > {}·scale", v, d, bound
                    );
                }
            }
        }
    }

    /// Entropy sparse frames: encoded length ≡ the writer's exact
    /// predictor ≡ header + the chosen position section's analytic cost
    /// + values, never above the legacy layout, and the round trip is
    /// bit-exact whichever layout the cost rule picked.
    #[test]
    fn entropy_sparse_length_matches_analytic_and_round_trips(
        dim in 1usize..4000,
        ones in proptest::collection::vec(any::<bool>(), 1..64),
    ) {
        let (indices, values) = sparse_case(dim, &ones);
        let nnz = indices.len();
        let policy = WirePolicy::entropy(Codec::F32);
        let writer = FrameWriter::new(policy);
        let mut buf = Vec::new();
        let n = writer.sparse(&mut buf, 2, Rounding::Nearest, dim, &indices, &values);
        prop_assert_eq!(n, buf.len());
        prop_assert_eq!(n as u64, writer.sparse_len(dim, &indices));
        prop_assert_eq!(
            n as u64,
            HEADER_BYTES + policy.position_section_len(dim, &indices) + 4 * nnz as u64,
            "dim={} nnz={}", dim, nnz
        );
        prop_assert!(n as u64 <= closed_form(dim, nnz),
            "entropy layout may never lose to legacy: dim={} nnz={}", dim, nnz);

        let frame = decode_frame(&buf).unwrap();
        match frame.kind {
            FrameKind::SparseDelta => prop_assert_eq!(
                policy.position_section_len(dim, &indices),
                delta_section_len(&indices)
            ),
            FrameKind::SparseRle => prop_assert_eq!(
                policy.position_section_len(dim, &indices),
                rle_section_len_from_indices(&indices)
            ),
            FrameKind::SparseBitmap | FrameKind::SparseIndex => {}
            other => prop_assert!(false, "unexpected sparse kind {:?}", other),
        }
        let (mut ix, mut vals) = (Vec::new(), Vec::new());
        frame.indices_into(&mut ix);
        frame.values_into(&mut vals);
        prop_assert_eq!(ix, indices);
        prop_assert!(vals.iter().zip(&values).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    /// Entropy mask frames: encoded length ≡ the `mask_len` predictor;
    /// when the run-length section wins it costs exactly
    /// `rle_section_len(mask)`, it never exceeds the v1 bitmap, and the
    /// decoded mask is identical.
    #[test]
    fn entropy_mask_length_matches_analytic_and_round_trips(
        dim in 1usize..4000,
        run in 1usize..80,
        gap in 0usize..80,
    ) {
        let period = run + gap;
        let mask = BitMask::from_indices(dim, (0..dim).filter(|i| i % period < run));
        let writer = FrameWriter::new(WirePolicy::entropy(Codec::F32));
        let mut buf = Vec::new();
        let n = writer.mask(&mut buf, 1, &mask);
        prop_assert_eq!(n, buf.len());
        prop_assert_eq!(n as u64, writer.mask_len(&mask));
        let bitmap_frame = (dim as u64).div_ceil(8) + HEADER_BYTES;
        prop_assert!(n as u64 <= bitmap_frame);

        let frame = decode_frame(&buf).unwrap();
        match frame.kind {
            FrameKind::MaskRle => {
                prop_assert_eq!(n as u64, HEADER_BYTES + rle_section_len(&mask));
                prop_assert!((n as u64) < bitmap_frame, "RLE must be strictly cheaper");
            }
            FrameKind::Mask => prop_assert_eq!(n as u64, bitmap_frame),
            other => prop_assert!(false, "unexpected mask kind {:?}", other),
        }
        let mut back = BitMask::zeros(dim);
        frame.mask_into(&mut back);
        prop_assert_eq!(back, mask);
    }

    /// Stochastic QuantU8 encoding is a pure function of the seed: same
    /// seed → identical bytes, different seed → (almost surely) not.
    #[test]
    fn stochastic_encoding_deterministic_in_seed(seed in any::<u64>()) {
        let values: Vec<f32> = (0..300).map(|i| (i as f32 * 0.913).cos()).collect();
        let enc = |s: u64| {
            let mut buf = Vec::new();
            let _ = legacy(Codec::QuantU8).dense(&mut buf, 0, Rounding::Stochastic { seed: s }, &values);
            buf
        };
        prop_assert_eq!(enc(seed), enc(seed));
        prop_assert_ne!(enc(seed), enc(seed ^ 0x1234_5678_9abc_def0));
    }
}

/// `n` values from `seed`, laced with the edge cases of `f32`
/// arithmetic: signed zeros, subnormals, infinities and the extremes.
fn laced_values(n: usize, seed: u64) -> Vec<f32> {
    const EDGES: [f32; 10] = [
        0.0,
        -0.0,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE / 4.0, // subnormal
        1.0e-44,                  // subnormal
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MAX,
        -f32::MAX,
        1.0,
    ];
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = splitmix64(state);
            if state.is_multiple_of(5) {
                EDGES[(state >> 8) as usize % EDGES.len()]
            } else {
                ((state >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 8.0
            }
        })
        .collect()
}

/// Folds a verified dense F32 frame over `dim` laced values into a laced
/// accumulator at the edge-case weights and a drawn one, in place and
/// through a copy: every result bit must agree.
fn check_in_place_fold(dim: usize, seed: u64) {
    let values = laced_values(dim, seed);
    let mut buf = Vec::new();
    let _ = legacy(Codec::F32).dense(&mut buf, 3, Rounding::Nearest, &values);
    let frame = decode_frame(&buf).unwrap();
    let mut copied = Vec::new();
    frame.values_into(&mut copied);
    let drawn = ((splitmix64(seed) >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 3.0;
    for weight in [0.0f32, -0.0, 1.0, drawn] {
        let start = laced_values(dim, seed ^ 0x5EED);
        let mut in_place = start.clone();
        frame.value_view().add_scaled_into(&mut in_place, weight);
        let mut reference = start;
        vecops::axpy(&mut reference, weight, &copied);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&in_place),
            bits(&reference),
            "dim={dim} weight={weight}"
        );
    }
}

/// The in-place fold at the lane edges of the vectorized loops: empty,
/// one value, one short of a lane, a lane, one past it, two lanes and one.
#[test]
fn in_place_fold_matches_copy_then_axpy_at_lane_edges() {
    for dim in [0, 1, 7, 8, 9, 17] {
        for seed in 0..8 {
            check_in_place_fold(dim, seed);
        }
    }
}

proptest! {
    /// The in-place fold ≡ `values_into` + `vecops::axpy`, bit for bit,
    /// up to four 2¹⁶-value encoder chunks and a ragged tail.
    #[test]
    fn in_place_fold_matches_copy_then_axpy(dim in 0usize..=(1 << 18) + 3, seed in any::<u64>()) {
        check_in_place_fold(dim, seed);
    }
}

/// `FrameWriter::dense` writes and checksums the value section 2¹⁶
/// values (256 KB of F32) at a time. Whatever the codec, a frame whose
/// value count straddles that chunk is the one-pass encoding byte for
/// byte — QuantU8's stochastic rounding included — and its checksum is
/// the definitional CRC over the header and the whole payload.
#[test]
fn chunked_dense_frames_are_the_one_pass_encoding() {
    const CHUNK: usize = 1 << 16;
    for dim in [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3, (1 << 18) + 3] {
        let values: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin()).collect();
        for codec in [Codec::F32, Codec::F16, Codec::QuantU8] {
            let rounding = Rounding::Stochastic { seed: dim as u64 };
            let mut frame = Vec::new();
            let n = legacy(codec).dense(&mut frame, 5, rounding, &values);
            assert_eq!(n as u64, legacy(codec).dense_len(dim));
            let mut one_pass = Vec::new();
            let _ = gluefl_wire::codec::encode_values(&mut one_pass, codec, rounding, &values);
            assert!(frame[16..] == one_pass[..], "dim={dim} {codec:?}: payload");
            let mut summed = frame[..14].to_vec();
            summed.extend_from_slice(&one_pass);
            let stored = u16::from_le_bytes([frame[14], frame[15]]);
            assert_eq!(
                stored,
                crc16_bitwise(&summed),
                "dim={dim} {codec:?}: checksum"
            );
            assert_eq!(decode_frame(&frame).unwrap().dim, dim);
        }
    }
}

/// Degenerate shapes the random generators may miss: nnz 0, nnz = dim,
/// dim exactly at the bitmap/index-list break-even, single position.
#[test]
fn adversarial_corner_shapes_match_analytic() {
    let cases: &[(usize, usize)] = &[
        (1, 0),
        (1, 1),
        (8, 8),
        (3200, 100), // tie: bitmap == 4·nnz
        (3200, 99),  // just below: index list
        (3200, 101), // just above: bitmap
        (64, 64),
        (65, 1),
        (1_000_000, 0),
    ];
    for &(dim, nnz) in cases {
        let indices: Vec<u32> = (0..nnz)
            .map(|j| u32::try_from(j * (dim / nnz.max(1))).unwrap())
            .collect();
        let values: Vec<f32> = indices.iter().map(|&i| i as f32).collect();
        let mut buf = Vec::new();
        let n = legacy(Codec::F32).sparse(&mut buf, 0, Rounding::Nearest, dim, &indices, &values);
        assert_eq!(n as u64, closed_form(dim, nnz), "dim={dim} nnz={nnz}");
        assert_eq!(n as u64, legacy_sparse_len(Codec::F32, dim, nnz));
        let frame = decode_frame(&buf).unwrap();
        let mut vals = Vec::new();
        frame.values_into(&mut vals);
        assert_eq!(vals, values, "dim={dim} nnz={nnz}");
    }
}

/// Golden bytes: frames assembled by hand from the layout table at the
/// top of `frame.rs` (header fields little-endian, checksum over bytes
/// 0..14 and the payload from the definitional `crc16_bitwise`) must be
/// exactly what the writer emits — the one check of the documented byte
/// layout that does not go through the writer or the decoder.
#[test]
fn writer_emits_the_documented_byte_layout() {
    const ROUND: u32 = 7;
    let values = [1.5f32, -0.25, 3.0e-3];
    let check = |policy: WirePolicy, dim: u32, indices: &[u32], packed: u8, positions: &[u8]| {
        let mut golden = vec![0xA7, packed];
        golden.extend_from_slice(&ROUND.to_le_bytes());
        golden.extend_from_slice(&dim.to_le_bytes());
        golden.extend_from_slice(&3u32.to_le_bytes()); // nnz
        golden.extend_from_slice(positions);
        golden.extend(values.iter().flat_map(|v| v.to_le_bytes()));
        let crc = gluefl_wire::crc::crc16_bitwise(&golden).to_le_bytes();
        golden.splice(14..14, crc);

        let dim = dim as usize;
        let mut buf = Vec::new();
        FrameWriter::new(policy).sparse(&mut buf, ROUND, Rounding::Nearest, dim, indices, &values);
        assert_eq!(buf, golden, "packed={packed:#010b}");

        let frame = decode_frame(&buf).unwrap();
        assert_eq!((frame.round, frame.dim, frame.nnz), (ROUND, dim, 3));
        let (mut idx, mut vals) = (Vec::new(), Vec::new());
        frame.indices_into(&mut idx);
        frame.values_into(&mut vals);
        assert_eq!((idx.as_slice(), vals.as_slice()), (indices, &values[..]));
    };
    let legacy = WirePolicy::legacy(Codec::F32);
    // v1 SparseBitmap (kind 1; 3 B ≤ 4·3): bits 3, 4 → byte 0, bit 17 → byte 2.
    check(
        legacy,
        20,
        &[3, 4, 17],
        1 << 6 | 1 << 3,
        &[0b0001_1000, 0, 0b10],
    );
    // v1 SparseIndex (kind 2; a 25 B bitmap > 4·3): three LE u32s.
    let index_list = [3, 0, 0, 0, 4, 0, 0, 0, 150, 0, 0, 0];
    check(legacy, 200, &[3, 4, 150], 1 << 6 | 2 << 3, &index_list);
    // v2 SparseDelta (kind 7, fourth kind bit clear): first index 3, then
    // gap − 1 = 0 and 145, the latter as two LEB128 bytes.
    let entropy = WirePolicy::entropy(Codec::F32);
    check(
        entropy,
        200,
        &[3, 4, 150],
        2 << 6 | 7 << 3,
        &[3, 0, 0x80 | 17, 1],
    );
}
